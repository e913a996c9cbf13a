//! # simlint — the project rules clippy cannot say
//!
//! The bans that are a name — `HashMap`, `Instant::now`, `thread::spawn`,
//! `fs::write`, `.unwrap()`, `f64 ==`, and the two ways a wall-clock
//! reading becomes a number (`obs::span::drain`, `Stopwatch::elapsed_ms`) —
//! are clippy's: the root `clippy.toml` lists them, a `#![deny(clippy::…)]`
//! header in a crate's `lib.rs` opts the crate in, `#[expect(clippy::…,
//! reason = "…")]` is the exemption and an unfulfilled one is a warning
//! (DESIGN.md §8.1). [`CRATE_LINTS`] is the one table of which crate denies
//! what; a test holds the headers to it.
//!
//! What is left here are two rules about names and comments, which no
//! clippy lint expresses. Both run on a hand-rolled token stream (`lex`) —
//! identifiers, literals, operators, comments, string/char literals with
//! column-accurate spans — so strings, nested block comments and raw
//! strings can never leak false positives or mask real ones.
//!
//! | rule | scope | what it bans |
//! |---|---|---|
//! | `index-literal` | sim crates | integer-literal indexing (`xs[0]`, `xs[0usize]`, `xs[1_000]`) without a bound-justifying comment on the same or preceding line (clippy's `indexing_slicing` cannot read the comment) |
//! | `unit-suffix` | sim + workload | `f64` `pub fn` params, `pub fn` return types and struct fields with a time/rate/size-flavoured name but no unit suffix (`_s`, `_us`, `_pps`, `_gbps`, `_bytes`, …) |
//!
//! Test code (items under `#[cfg(test)]` or `#[cfg(all(test, …))]`,
//! `tests/`, `benches/`, `examples/`) and binary targets are exempt. Every
//! finding is an error, and there is no allowlist: a literal index states
//! its bound in a comment, a dimensionless name avoids the dimensioned
//! words.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod ab;
mod lex;
mod rules;

use lex::{Kind, Tok};
use rules::is_punct;

/// The lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Literal index without a bound comment.
    IndexLiteral,
    /// Dimensioned `f64` signature surface (param, field, return) with no
    /// unit suffix.
    UnitSuffix,
}

/// Every rule, in report order.
pub const ALL_RULES: &[Rule] = &[Rule::IndexLiteral, Rule::UnitSuffix];

impl Rule {
    /// The name used in reports and fixture file names.
    pub fn name(self) -> &'static str {
        match self {
            Rule::IndexLiteral => "index-literal",
            Rule::UnitSuffix => "unit-suffix",
        }
    }

    /// Parse a rule name as used in reports.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// Long-form rationale for `cargo xtask explain`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::IndexLiteral => {
                "A literal index like xs[0] encodes a bound assumption the compiler cannot \
                 check. State the justification in a comment on the same or preceding line \
                 (e.g. `// hosts have exactly one uplink`), or restructure with first()/get()."
            }
            Rule::UnitSuffix => {
                "The paper's parameter-sensitivity lesson: K_max in KB vs. cells, rates in Gbps \
                 vs. pps, timers in us vs. s silently corrupt reproduced figures. Every \
                 dimensioned f64 in a public signature or struct field carries a unit suffix \
                 (_s, _us, _pps, _gbps, _bytes, ...), so the unit is part of the name. \
                 Conversions live in models::units."
            }
        }
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative file the finding is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: error [{}] {}",
            self.file.display(),
            self.line,
            self.col,
            self.rule.name(),
            self.message
        )
    }
}

/// What one crate is held to.
#[derive(Debug)]
pub struct CrateLints {
    /// Directory name under `crates/`.
    pub krate: &'static str,
    /// The clippy lints (without the `clippy::` prefix) its `src/lib.rs`
    /// header must deny.
    pub clippy: &'static [&'static str],
    /// The rules of this crate that run over its `src/**`.
    pub rules: &'static [Rule],
}

/// Determinism (`HashMap`, clock, threads), crash-safe writes, panic
/// discipline, exact float compares: everything `clippy.toml` configures.
const SIM_CLIPPY: &[&str] = &[
    "disallowed_types",
    "disallowed_methods",
    "unwrap_used",
    "expect_used",
    "float_cmp",
];
/// Library panic discipline only.
const PANIC_CLIPPY: &[&str] = &["unwrap_used", "expect_used"];

const fn sim(krate: &'static str) -> CrateLints {
    CrateLints {
        krate,
        clippy: SIM_CLIPPY,
        rules: ALL_RULES,
    }
}

/// The one table of who is held to what: [`lint_workspace`] reads `rules`,
/// and the `headers_deny_what_the_table_demands` test holds each crate's
/// `#![deny(clippy::…)]` header to `clippy`. A crate not listed (`core`,
/// `xtask`, the root package) is held to neither.
///
/// The first eight are the crates whose *logic* must be deterministic and
/// dimensionally sound. `obs` is one of them: instrumentation that perturbs
/// determinism would invalidate the traces it exists to produce.
pub const CRATE_LINTS: &[CrateLints] = &[
    sim("desim"),
    sim("netsim"),
    sim("fluid"),
    sim("protocols"),
    sim("models"),
    sim("obs"),
    sim("faults"),
    sim("store"),
    CrateLints {
        krate: "workload",
        clippy: PANIC_CLIPPY,
        rules: &[Rule::UnitSuffix],
    },
    CrateLints {
        krate: "control",
        clippy: PANIC_CLIPPY,
        rules: &[],
    },
    // Telemetry parsing/rendering must not grow timing reads; its own
    // `crates/bench/clippy.toml` lists the wall-clock bans only.
    CrateLints {
        krate: "bench",
        clippy: &["disallowed_types", "disallowed_methods"],
        rules: &[],
    },
];

/// The rules that run over a workspace-relative source path: its crate's
/// [`CRATE_LINTS`] row for a library file under `crates/<name>/src/`, none
/// for anything else (bins, tests, benches, fixtures, unlisted crates).
fn scope_for(rel: &Path) -> &'static [Rule] {
    let mut comps = rel.components().map(|c| c.as_os_str().to_string_lossy());
    if comps.next().as_deref() != Some("crates") {
        return &[];
    }
    let Some(krate) = comps.next() else {
        return &[];
    };
    if comps.next().as_deref() != Some("src") || comps.next().as_deref() == Some("bin") {
        return &[];
    }
    CRATE_LINTS
        .iter()
        .find(|c| c.krate == krate)
        .map_or(&[], |c| c.rules)
}

/// Per-file analysis context shared by every rule.
pub(crate) struct Ctx<'a> {
    file: &'a Path,
    /// Code tokens only — comments stripped, order preserved.
    pub(crate) code: Vec<&'a Tok>,
    /// Per 1-based line: "is test-only code".
    tests: Vec<bool>,
    /// Per 1-based line: "carries a comment" (bound-justification check).
    comment: Vec<bool>,
}

impl<'a> Ctx<'a> {
    fn new(file: &'a Path, source: &str, toks: &'a [Tok]) -> Self {
        let nlines = source.lines().count().max(1);
        let mut comment = vec![false; nlines + 1];
        let mut code: Vec<&Tok> = Vec::with_capacity(toks.len());
        for t in toks {
            if t.kind == Kind::Comment {
                let first = t.line as usize;
                let last = (first + t.text.matches('\n').count()).min(nlines);
                if let Some(lines) = comment.get_mut(first..=last) {
                    lines.fill(true);
                }
            } else {
                code.push(t);
            }
        }
        let tests = test_mask(&code, nlines);
        Ctx {
            file,
            code,
            tests,
            comment,
        }
    }

    /// Is 1-based `line` test-only code?
    pub(crate) fn is_test_line(&self, line: usize) -> bool {
        self.tests.get(line).copied().unwrap_or(false)
    }

    /// Does `line` or the line above carry a comment? (`index-literal`
    /// bound justification.)
    pub(crate) fn has_comment(&self, line: usize) -> bool {
        [line, line.saturating_sub(1)]
            .iter()
            .any(|&l| self.comment.get(l).copied().unwrap_or(false))
    }

    /// A finding at token `at` of this file.
    pub(crate) fn finding(&self, at: &Tok, rule: Rule, message: String) -> Violation {
        Violation {
            file: self.file.to_path_buf(),
            line: at.line as usize,
            col: at.col as usize,
            rule,
            message,
        }
    }
}

/// Is `code[i]` the `#` of an outer attribute `#[…]`?
pub(crate) fn is_attr(code: &[&Tok], i: usize) -> bool {
    code.get(i).is_some_and(|t| is_punct(t, "#"))
        && code.get(i + 1).is_some_and(|t| is_punct(t, "["))
}

/// `code[i]` starts an attribute (see [`is_attr`]): the index just past its
/// closing `]`.
pub(crate) fn skip_attr(code: &[&Tok], i: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i + 1;
    while j < code.len() {
        if is_punct(code[j], "[") {
            depth += 1;
        } else if is_punct(code[j], "]") {
            depth -= 1;
        }
        j += 1;
        if depth == 0 {
            break;
        }
    }
    j
}

/// Does the attribute gate on a predicate that holds only under test —
/// `cfg(test)` or `cfg(all(…, test, …))`? `cfg(not(test))` and
/// `cfg(any(test, …))` code also builds outside tests, so it is linted.
fn only_under_test(attr: &[&Tok]) -> bool {
    let text: Vec<&str> = attr.iter().map(|t| t.text.as_str()).collect();
    match text.as_slice() {
        ["#", "[", "cfg", "(", "test", ")", "]"] => true,
        ["#", "[", "cfg", "(", "all", "(", args @ ..] => {
            let mut depth = 0i64;
            args.iter().any(|&t| {
                match t {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
                depth == 0 && t == "test"
            })
        }
        _ => false,
    }
}

/// Mark the lines (1-based) of items gated by a test-only `cfg`.
/// Token-accurate: the attribute's brace depth anchors the item; the item
/// ends at the first `;` or the matching `}` at that depth.
fn test_mask(code: &[&Tok], nlines: usize) -> Vec<bool> {
    let mut mask = vec![false; nlines + 1];
    let mut i = 0;
    while i < code.len() {
        if !is_attr(code, i) {
            i += 1;
            continue;
        }
        let j = skip_attr(code, i);
        if !only_under_test(&code[i..j]) {
            i = j;
            continue;
        }
        let depth = code[i].depth;
        let start_line = code[i].line as usize;
        // Skip any further attributes between the cfg and the item.
        let mut k = j;
        while is_attr(code, k) {
            k = skip_attr(code, k);
        }
        // Find the end of the gated item: first `;` at the attribute's
        // depth, or the `}` matching the first `{` at that depth.
        let mut end_line = start_line;
        let mut m = k;
        let mut saw_open = false;
        while m < code.len() {
            let t = code[m];
            end_line = t.line as usize;
            if t.kind == Kind::Punct && t.depth == depth {
                if (t.text == ";" && !saw_open) || (t.text == "}" && saw_open) {
                    break;
                }
                saw_open |= t.text == "{";
            }
            m += 1;
        }
        if let Some(lines) = mask.get_mut(start_line..=end_line.min(nlines)) {
            lines.fill(true);
        }
        i = m.max(j);
    }
    mask
}

/// Approved unit suffixes for dimensioned `f64` names.
const UNIT_SUFFIXES: &[&str] = &[
    "_s", "_us", "_ns", "_ms", "_hz", "_pps", "_bps", "_mbps", "_gbps", "_bytes", "_kb", "_mb",
    "_pkts", "_frac", "_ratio", "_deg",
];

/// Name fragments that mark a value as carrying a physical dimension.
const DIMENSIONED: &[&str] = &[
    "time",
    "rate",
    "delay",
    "rtt",
    "interval",
    "duration",
    "period",
    "timeout",
    "bandwidth",
    "bw",
    "size",
    "queue",
    "thresh",
    "capacity",
    "deadline",
    "horizon",
];

/// Does `name` carry a dimension and no unit suffix?
pub(crate) fn lacks_unit(name: &str) -> bool {
    // Exact `_`-separated segment match: `feedback_delay_us` is dimensioned
    // (segment "delay") but `rc_delayed` is not — "delayed" marks a delayed
    // *state value*, whose unit is the state's, not a duration.
    name.split('_').any(|seg| DIMENSIONED.contains(&seg))
        && !UNIT_SUFFIXES.iter().any(|s| name.ends_with(s))
}

/// The message tail of every `unit-suffix` finding.
pub(crate) fn rename_hint() -> String {
    format!("rename with one of {UNIT_SUFFIXES:?} (keep conversions in models::units)")
}

/// Lint one file's source under the given rules.
fn lint_source(file: &Path, source: &str, scope: &[Rule]) -> Vec<Violation> {
    let toks = lex::lex(source);
    let ctx = Ctx::new(file, source, &toks);
    let mut out = Vec::new();
    for rule in scope {
        match rule {
            Rule::IndexLiteral => rules::index_literal(&ctx, &mut out),
            Rule::UnitSuffix => rules::unit_suffix(&ctx, &mut out),
        }
    }
    out.sort_by_key(|v| (v.line, v.col, v.rule));
    out
}

/// Lint every `.rs` file under `root/crates/*/src` with its crate's rules,
/// in path order.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f);
        let scope = scope_for(rel);
        if !scope.is_empty() {
            out.extend(lint_source(rel, &std::fs::read_to_string(&f)?, scope));
        }
    }
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint a single file with every rule, as if it were sim-crate library code
/// (fixture self-tests and ad-hoc checks).
pub fn lint_path_strict(path: &Path) -> std::io::Result<Vec<Violation>> {
    let src = std::fs::read_to_string(path)?;
    Ok(lint_source(path, &src, ALL_RULES))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn strict(src: &str) -> Vec<Violation> {
        lint_source(Path::new("test.rs"), src, ALL_RULES)
    }

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn test_modules_are_exempt_from_index_literal() {
        for cfg in ["cfg(test)", "cfg(all(test, unix))", "cfg(all(unix, test))"] {
            let src = format!("#[{cfg}]\nmod tests {{\n    fn f() {{ xs[0]; }}\n}}\n");
            let v = strict(&src);
            assert!(v.is_empty(), "{cfg}: {v:?}");
        }
    }

    #[test]
    fn code_after_test_module_is_linted_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { xs[0]; }\n}\nfn g() { ys[1]; }\n";
        let v = strict(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
        // Code that also builds outside tests is not test code.
        for cfg in [
            "cfg(not(test))",
            "cfg(any(test, unix))",
            "cfg(all(unix, not(test)))",
        ] {
            let v = strict(&format!("#[{cfg}]\nfn f() {{ let x = xs[0]; }}\n"));
            assert_eq!(v.len(), 1, "{cfg}: {v:?}");
            assert_eq!(v[0].line, 2, "{cfg}");
        }
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let v = strict("fn f() { let s = \"xs[0] rate: f64\"; } // prose with a [0] in it\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn raw_strings_and_nested_comments_do_not_fire() {
        // The structural win over a line scrubber: multi-line raw strings
        // and nested block comments cannot leak tokens.
        let v = strict(
            "fn f() -> &'static str {\n    r#\"pub fn set(rate: f64) xs[0]\n\"quoted\" \"#\n}\n/* outer /* ys[1] */ still comment */\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn literal_index_without_comment_fires() {
        let v = strict("fn f() { let x = xs[0]; }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::IndexLiteral);
        assert_eq!(v[0].col, 20, "column points at the `[`");
        // Any integer literal: suffixed, separated, another base.
        for src in [
            "fn f() { xs[0usize]; }\n",
            "fn f() { ys[1_000]; }\n",
            "fn f() { zs[0x1F]; }\n",
        ] {
            let v = strict(src);
            assert_eq!(v.len(), 1, "{src}: {v:?}");
            assert_eq!(v[0].rule, Rule::IndexLiteral);
        }
    }

    #[test]
    fn literal_index_with_bound_comment_ok() {
        let v = strict("fn f() { let x = xs[0]; } // non-empty by construction\n");
        assert!(v.is_empty(), "{v:?}");
        let v = strict("// hosts have exactly one uplink\nfn f() { let x = xs[0]; }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn variable_index_is_not_flagged() {
        let v = strict("fn f(i: usize) { let x = xs[i]; }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn attribute_is_not_literal_index() {
        let v = strict("#[derive(Debug)]\nstruct S;\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unit_suffix_flags_dimensioned_f64() {
        let v = strict("pub fn set(rate: f64) {}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnitSuffix);
    }

    #[test]
    fn unit_suffix_ok_with_suffix() {
        let v = strict("pub fn set(rate_bps: f64, delay_us: f64, size_bytes: f64) {}\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unit_suffix_ignores_dimensionless_and_non_f64() {
        let v = strict("pub fn set(alpha: f64, rate: u64, p: f64) {}\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unit_suffix_handles_multiline_signatures() {
        let v = strict("pub fn set(\n    rate: f64,\n    n: usize,\n) {}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnitSuffix);
        assert_eq!(v[0].line, 2, "span lands on the parameter itself");
    }

    #[test]
    fn private_fns_are_not_unit_checked() {
        let v = strict("fn set(rate: f64) {}\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unit_suffix_flags_struct_fields() {
        let v = strict("pub struct S {\n    pub rate: f64,\n    pub alpha: f64,\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::UnitSuffix);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unit_suffix_flags_private_fields_too() {
        let v = strict("struct S {\n    queue: f64,\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::UnitSuffix);
    }

    #[test]
    fn unit_suffix_flags_pub_fn_return_type() {
        let v = strict("pub fn drain_time(&self) -> f64 { 0.0 }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::UnitSuffix);
        let v = strict("pub fn drain_time_s(&self) -> f64 { 0.0 }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn non_dimensioned_return_is_not_flagged() {
        let v = strict("pub fn alpha(&self) -> f64 { 0.5 }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn scope_routing() {
        let scope = |p: &str| scope_for(Path::new(p));
        for p in [
            "crates/netsim/src/engine.rs",
            "crates/faults/src/schedule.rs",
            "crates/store/src/atomic.rs",
            "crates/obs/src/span.rs",
        ] {
            assert_eq!(scope(p), ALL_RULES, "{p}");
        }
        assert_eq!(scope("crates/workload/src/fct.rs"), [Rule::UnitSuffix]);
        // Listed for their clippy header only, unlisted, or not library
        // code: not linted.
        for p in [
            "crates/control/src/roots.rs",
            "crates/bench/src/report.rs",
            "crates/core/src/output.rs",
            "crates/bench/src/bin/simreport.rs",
            "crates/xtask/src/lib.rs",
            "crates/desim/tests/wheel_differential.rs",
            "examples/quickstart.rs",
        ] {
            assert!(scope(p).is_empty(), "{p}");
        }
    }

    /// The clippy lints denied by inner attributes (`#![deny(…)]`,
    /// `#![cfg_attr(not(test), deny(…))]`) of a crate root.
    fn denied_clippy_lints(lib_rs: &str) -> Vec<String> {
        let mut out = Vec::new();
        for attr in lib_rs.split("#![").skip(1) {
            let attr = attr.split(")]").next().unwrap_or("");
            let Some((_, lints)) = attr.split_once("deny(") else {
                continue;
            };
            out.extend(
                lints
                    .split(',')
                    .filter_map(|l| l.trim().strip_prefix("clippy::"))
                    .map(|l| l.trim_end_matches(')').to_string()),
            );
        }
        out
    }

    #[test]
    fn headers_deny_what_the_table_demands() {
        for c in CRATE_LINTS {
            let path = repo_root().join("crates").join(c.krate).join("src/lib.rs");
            let src = std::fs::read_to_string(&path).expect("read lib.rs");
            let denied = denied_clippy_lints(&src);
            for lint in c.clippy {
                assert!(
                    denied.iter().any(|d| d == lint),
                    "{} does not deny clippy::{lint} (its header denies {denied:?}); \
                     xtask::CRATE_LINTS demands it",
                    path.display()
                );
            }
        }
    }

    #[test]
    fn lockfile_names_only_workspace_packages() {
        // Dependency-free by policy (root Cargo.toml): what replaces the
        // `rand::` / `thread_rng` token ban — there is no crate to name.
        let root = repo_root();
        let package_name = |manifest: &Path| {
            let toml = std::fs::read_to_string(manifest).expect("read manifest");
            let package = toml.split("[package]").nth(1).expect("a [package] table");
            let name = package.split("name = \"").nth(1).expect("a package name");
            name.split('"').next().unwrap_or("").to_string()
        };
        let mut members = vec![package_name(&root.join("Cargo.toml"))];
        for entry in std::fs::read_dir(root.join("crates")).expect("read crates/") {
            members.push(package_name(
                &entry.expect("dir entry").path().join("Cargo.toml"),
            ));
        }
        members.sort();
        let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("read Cargo.lock");
        let mut locked: Vec<&str> = lock
            .lines()
            .filter_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
            .collect();
        locked.sort_unstable();
        assert_eq!(locked, members, "Cargo.lock names a non-workspace package");
        assert!(
            !lock.lines().any(|l| l.starts_with("source = ")),
            "Cargo.lock names a registry or git source"
        );
    }

    #[test]
    fn one_json_implementation() {
        // A JSON reader (whitespace skipping) or escaper (control-character
        // test) outside obs::json is a second implementation. The needles
        // are split so this file does not hold them; the walk is simlint's
        // (lint fixtures and build output are not program code).
        let needles = [["fn skip", "_ws"].concat(), ["< 0x", "20"].concat()];
        let mut files = Vec::new();
        collect_rs_files(&repo_root().join("crates"), &mut files).expect("walk crates/");
        let others: Vec<PathBuf> = files
            .into_iter()
            .filter(|f| !f.ends_with("crates/obs/src/json.rs"))
            .filter(|f| {
                let src = std::fs::read_to_string(f).expect("read source");
                needles.iter().any(|n| src.contains(n.as_str()))
            })
            .collect();
        assert!(
            others.is_empty(),
            "JSON code outside crates/obs/src/json.rs: {others:?}"
        );
    }

    #[test]
    fn one_scenario_builder() {
        // Outside netsim's own sources and test, bench and example code,
        // only core's scenario builders build an engine or write a flow.
        // The needles are split so this file does not hold them.
        let root = repo_root();
        let needles = [["FlowSpec", " {"].concat(), ["Engine::", "new("].concat()];
        let mut files = Vec::new();
        for dir in ["crates", "src"] {
            collect_rs_files(&root.join(dir), &mut files).expect("walk sources");
        }
        let exempt = |f: &Path| {
            let rel = f.strip_prefix(&root).expect("under the repo");
            rel.starts_with("crates/netsim/src")
                || rel == Path::new("crates/core/src/scenarios.rs")
                || rel.components().any(|c| {
                    ["tests", "benches", "examples"].contains(&&*c.as_os_str().to_string_lossy())
                })
        };
        let builders: Vec<PathBuf> = files
            .into_iter()
            .filter(|f| !exempt(f))
            .filter(|f| {
                let src = std::fs::read_to_string(f).expect("read source");
                needles.iter().any(|n| src.contains(n.as_str()))
            })
            .collect();
        assert!(
            builders.is_empty(),
            "packet scenarios built outside crates/core/src/scenarios.rs: {builders:?}"
        );
        // `bench` prints, stores and observes; it names no simulator.
        let mut files = Vec::new();
        collect_rs_files(&root.join("crates/bench/src"), &mut files).expect("walk bench");
        let mut named = Vec::new();
        for file in files {
            let text = std::fs::read_to_string(&file).expect("read source");
            for t in lex::lex(&text) {
                if t.kind == Kind::Ident
                    && ["Engine", "Topology", "DcqcnFluid", "TimelyFluid"]
                        .contains(&t.text.as_str())
                {
                    named.push(format!("{}:{} {}", file.display(), t.line, t.text));
                }
            }
        }
        assert!(named.is_empty(), "bench runs a simulation: {named:?}");
    }

    #[test]
    fn one_figure_table_one_binary() {
        let bin = repo_root().join("crates/bench/src/bin");
        let mut names: Vec<String> = std::fs::read_dir(&bin)
            .expect("read crates/bench/src/bin")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        names.sort();
        assert_eq!(names, ["ext_incast.rs", "figs.rs", "simreport.rs"]);
    }

    /// Every name the sources under `src` declare: their modules (files,
    /// directories and `mod`s), their items, and whatever sits directly in
    /// the body of an enum or struct (its variants and fields).
    fn declared_names(src: &Path) -> BTreeSet<String> {
        let mut files = Vec::new();
        collect_rs_files(src, &mut files).expect("read crate sources");
        let mut names = BTreeSet::new();
        for file in files {
            let rel = file.strip_prefix(src).expect("under src");
            let stem = rel.with_extension("");
            names.extend(stem.iter().map(|c| c.to_string_lossy().into_owned()));
            let text = std::fs::read_to_string(&file).expect("read source");
            let toks: Vec<Tok> = lex::lex(&text)
                .into_iter()
                .filter(|t| t.kind != Kind::Comment)
                .collect();
            for (i, t) in toks.iter().enumerate() {
                let kw = t.text.as_str();
                let name = match kw {
                    "fn" | "struct" | "enum" | "union" | "trait" | "type" | "const" | "static"
                    | "mod" => toks.get(i + 1),
                    "macro_rules" => toks.get(i + 2),
                    _ => None,
                };
                let Some(name) = name.filter(|n| n.kind == Kind::Ident) else {
                    continue;
                };
                names.insert(name.text.clone());
                if !matches!(kw, "struct" | "enum" | "union") {
                    continue;
                }
                let rest = &toks[i + 2..];
                let Some(open) = rest
                    .iter()
                    .position(|t| matches!(t.text.as_str(), "{" | ";" | "("))
                else {
                    continue;
                };
                if rest[open].text == "{" {
                    let depth = rest[open].depth;
                    let body = rest[open + 1..]
                        .iter()
                        .take_while(|t| !(t.text == "}" && t.depth == depth));
                    names.extend(
                        body.filter(|t| t.kind == Kind::Ident && t.depth == depth + 1)
                            .map(|t| t.text.clone()),
                    );
                }
            }
        }
        names
    }

    /// The flags `bench::cli` parses: every `"--…"` literal of its
    /// non-test code, i.e. the shared flags, `figs`' `--all` and the rows
    /// of its `ENTRY_FLAGS`.
    fn cli_flags(cli_rs: &str) -> BTreeSet<String> {
        let code = cli_rs.split("#[cfg(test)]").next().unwrap_or("");
        code.match_indices("\"--")
            .map(|(i, _)| flag_at(&code[i + 1..]))
            .filter(|f| f.len() > 2)
            .collect()
    }

    /// The `--flag` that `text` starts with.
    fn flag_at(text: &str) -> String {
        let end = text[2..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
            .map_or(text.len(), |n| n + 2);
        text[..end].to_string()
    }

    /// Every `--flag` a line of `doc` hands to `figs` or `ext_incast`:
    /// the flags after the binary's word on the line (a line ending in `\`
    /// continues on the next), with no `bench::cli` flag in `known`.
    fn unknown_cli_flags(doc: &str, known: &BTreeSet<String>) -> Vec<String> {
        let mut out = Vec::new();
        for line in doc.replace("\\\n", " ").lines() {
            let mut words = line
                .split(|c: char| c.is_whitespace() || c == '`')
                .skip_while(|w| !matches!(w.rsplit('/').next(), Some("figs" | "ext_incast")));
            if words.next().is_none() {
                continue;
            }
            for word in words {
                if word.starts_with("--")
                    && word[2..].starts_with(|c: char| c.is_ascii_alphabetic())
                {
                    let flag = flag_at(word);
                    if !known.contains(&flag) {
                        out.push(format!("{flag} in {line:?}"));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn a_doc_line_may_hand_figs_only_flags_it_parses() {
        let known = cli_flags(
            "const ENTRY_FLAGS: &[(&str, &str)] = &[(\"ext_incast\", \"--k\")];\n\
             if w == \"--all\" { match w { \"--obs\" => {} } }\n\
             #[cfg(test)]\nfn t() { \"--gone\"; }\n",
        );
        assert_eq!(known, ["--all", "--k", "--obs"].map(String::from).into());
        let doc = "cargo run --release --bin figs -- fig4 --obs o\n\
                   target/release/ext_incast --k 4 \\\n    --gone x\n\
                   `figs --all` and `ext_incast --obs=o`\n\
                   $B --workload fluid_dde --seconds 3 --trace 0\n";
        let found = unknown_cli_flags(doc, &known);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("--gone in "), "{found:?}");
        assert_eq!(unknown_cli_flags("figs eq14 --metrics m", &known).len(), 1);
    }

    #[test]
    fn docs_name_only_real_binaries() {
        // Every `bin/<name>` the docs name is a binary, every `figs <id>` a
        // row of the one figure table, every flag a doc line hands `figs`
        // or `ext_incast` one that `bench::cli` parses, and every segment
        // of a backticked `crate::seg::…` path that starts at a workspace
        // crate a module or a name that crate declares.
        let root = repo_root();
        let cli =
            std::fs::read_to_string(root.join("crates/bench/src/cli.rs")).expect("read cli.rs");
        let flags = cli_flags(&cli);
        let mut crates: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for entry in std::fs::read_dir(root.join("crates")).expect("read crates") {
            let dir = entry.expect("dir entry").path();
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest");
            // The `[lib]` name if there is one, else the package's: the
            // first `name = "…"` after it.
            let from = manifest.find("[lib]").unwrap_or(0);
            let name = manifest[from..]
                .split("name = \"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .expect("a crate name");
            crates.insert(name.replace('-', "_"), declared_names(&dir.join("src")));
        }
        let table = std::fs::read_to_string(root.join("crates/bench/src/figures.rs"))
            .expect("read figures.rs");
        // An entry lists its ids (`ids: &["fig14", …]`) or is `standard!(id, …)`.
        let mut ids: Vec<&str> = table
            .split("ids: &[")
            .skip(1)
            .filter_map(|s| s.split(']').next())
            .flat_map(|list| list.split('"').skip(1).step_by(2))
            .collect();
        ids.extend(
            table
                .split("standard!(")
                .skip(1)
                .filter_map(|s| s.trim_start().split([',', ')']).next())
                .filter(|id| id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')),
        );
        let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
        let word = |s: &str| s[..s.find(|c: char| !is_word(c)).unwrap_or(s.len())].to_string();
        let mut stale = Vec::new();
        for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
            let text = std::fs::read_to_string(root.join(doc)).expect("read doc");
            stale.extend(
                unknown_cli_flags(&text, &flags)
                    .into_iter()
                    .map(|f| format!("{doc}: {f}")),
            );
            for (i, _) in text.match_indices("bin/") {
                let name = word(&text[i + 4..]);
                let file = root.join("crates/bench/src/bin").join(format!("{name}.rs"));
                if !file.is_file() {
                    stale.push(format!("{doc}: bin/{name}"));
                }
            }
            for (i, _) in text.match_indices("figs ") {
                let id = word(&text[i + 5..]);
                if !text[..i].ends_with(is_word) && !id.is_empty() && !ids.contains(&id.as_str()) {
                    stale.push(format!("{doc}: figs {id}"));
                }
            }
            for span in text.split('`').skip(1).step_by(2) {
                for (i, _) in span.match_indices("::") {
                    let head = &span[..i];
                    let krate = &head[head.trim_end_matches(is_word).len()..];
                    let Some(names) = crates.get(krate) else {
                        continue;
                    };
                    if head[..head.len() - krate.len()].ends_with(':') {
                        continue; // a path inside another path
                    }
                    let mut rest = &span[i..];
                    while let Some(tail) = rest.strip_prefix("::") {
                        let seg = word(tail);
                        if seg.is_empty() {
                            break;
                        }
                        if !names.contains(&seg) {
                            stale.push(format!("{doc}: {krate}::…::{seg}"));
                        }
                        rest = &tail[seg.len()..];
                    }
                }
            }
        }
        assert!(
            stale.is_empty(),
            "the docs name what does not exist: {stale:?}"
        );
    }

    #[test]
    fn rule_names_round_trip() {
        for r in ALL_RULES {
            assert_eq!(Rule::from_name(r.name()), Some(*r));
            assert!(!r.explain().is_empty());
        }
        assert_eq!(Rule::from_name("bogus"), None);
    }

    #[test]
    fn violations_are_sorted_and_display_columns() {
        let v = strict("pub fn f(rate: f64) { ys[1]; xs[0]; }\n");
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v
            .windows(2)
            .all(|w| (w[0].line, w[0].col) <= (w[1].line, w[1].col)));
        let shown = v[0].to_string();
        assert!(shown.contains(":1:"), "{shown}");
        assert!(shown.contains("error ["), "{shown}");
    }
}

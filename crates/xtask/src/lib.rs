//! # simlint — the project rules clippy cannot say
//!
//! The bans that are a name — `HashMap`, `Instant::now`, `thread::spawn`,
//! `fs::write`, `.unwrap()`, `f64 ==` — are clippy's: the root `clippy.toml`
//! lists them, a `#![deny(clippy::…)]` header in a crate's `lib.rs` opts the
//! crate in, `#[expect(clippy::…, reason = "…")]` is the exemption and an
//! unfulfilled one is a warning (DESIGN.md §8.1). [`CRATE_LINTS`] is the one
//! table of which crate denies what; a test holds the headers to it.
//!
//! What is left here are three rules about names, comments and flows, which
//! no clippy lint expresses. Each runs on a hand-rolled token stream
//! ([`lex`]) — identifiers, literals, operators, comments, string/char
//! literals with column-accurate spans — so strings, nested block comments
//! and raw strings can never leak false positives or mask real ones.
//!
//! | rule | scope | what it bans |
//! |---|---|---|
//! | `index-literal` | sim crates | literal indexing `xs[0]` without a bound-justifying comment on the same or preceding line (clippy's `indexing_slicing` cannot read the comment) |
//! | `unit-suffix` | sim + workload | `f64` `pub fn` params, `pub fn` return types and struct fields with a time/rate/size-flavoured name but no unit suffix (`_s`, `_us`, `_pps`, `_gbps`, `_bytes`, …) |
//! | `determinism-taint` | sim crates | values derived from wall-clock sources (`Instant::now`, `.elapsed()`, `SystemTime`) flowing into sim-state writes, event scheduling, trace payloads or sim-time/RNG constructors |
//! | `stale-allow` | everywhere | a `simlint: allow(<rule>)` directive that suppresses nothing, or names no rule (warning severity — the allowlist must not rot) |
//!
//! Test modules (`#[cfg(test)]`), `tests/`, `benches/`, `examples/` and
//! binary targets are exempt from `index-literal` and `unit-suffix`;
//! `determinism-taint` applies to library *and* test code of the sim crates
//! (a test steered by the clock is a flaky test).
//!
//! ## Allowlist
//!
//! A finding is suppressed by a directive comment on the same line or the
//! line directly above (for signature rules, the signature's first line also
//! anchors):
//!
//! ```text
//! let first = xs[0]; // simlint: allow(index-literal) — checked two lines up
//! ```
//!
//! A directive that suppresses nothing is itself flagged (`stale-allow`).

// Token scanning is cursor arithmetic: positions move non-uniformly (skip a
// generic list, jump to a matching brace), which iterator adapters cannot
// express without fighting the borrow checker over the shared token slice.
#![allow(clippy::needless_range_loop, clippy::while_let_loop)]

use std::cell::Cell;
use std::fmt;
use std::path::{Path, PathBuf};

mod flow;
pub mod lex;
pub mod report;
mod rules;

use lex::{Kind, Tok};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Hygiene finding: reported, never fails the lint run.
    Warning,
    /// Policy violation: fails the lint run.
    Error,
}

impl Severity {
    /// Lower-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Literal index without a bound comment.
    IndexLiteral,
    /// Dimensioned `f64` signature surface (param, field, return) with no
    /// unit suffix.
    UnitSuffix,
    /// Wall-clock-derived value flowing into simulation state.
    DetTaint,
    /// `simlint: allow(...)` directive that suppresses nothing.
    StaleAllow,
}

/// Every rule, in report order.
pub const ALL_RULES: &[Rule] = &[
    Rule::IndexLiteral,
    Rule::UnitSuffix,
    Rule::DetTaint,
    Rule::StaleAllow,
];

impl Rule {
    /// The name used in `simlint: allow(<name>)` directives and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::IndexLiteral => "index-literal",
            Rule::UnitSuffix => "unit-suffix",
            Rule::DetTaint => "determinism-taint",
            Rule::StaleAllow => "stale-allow",
        }
    }

    /// Parse a rule name as used in directives and reports.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// Severity class: everything is an error except `stale-allow`, which is
    /// a hygiene warning.
    pub fn severity(self) -> Severity {
        match self {
            Rule::StaleAllow => Severity::Warning,
            _ => Severity::Error,
        }
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
            Rule::DetTaint => {
                "Determinism taint analysis, the flow half of the wall-clock ban (clippy.toml \
                 bans the read; a sanctioned read carries #[expect]): values derived from \
                 Instant::now/SystemTime/.elapsed() are tracked through locals and arithmetic, \
                 and flagged when they flow into sim-state writes (field assignments), event \
                 scheduling (schedule/schedule_at/schedule_in), trace payloads (record) or \
                 SimTime/SimDuration/SimRng constructors. Profiling may *measure* the \
                 simulation; it must never *steer* it."
            }
            Rule::StaleAllow => {
                "A `simlint: allow(<rule>)` directive that no longer suppresses any finding is \
                 dead weight that hides future regressions of the same rule at that site. \
                 Delete the directive (warning severity: reported, does not fail the run)."
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

impl Violation {
    /// Severity, derived from the rule.
    pub fn severity(&self) -> Severity {
        self.rule.severity()
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} [{}] {}",
            self.file.display(),
            self.line,
            self.col,
            self.severity().name(),
            self.rule.name(),
            self.message
        )
    }
}

/// The rules that apply to a file. `stale-allow` is a meta rule and always
/// on.
#[derive(Debug, Clone, Copy)]
pub struct Scope(&'static [Rule]);

impl Scope {
    /// Every rule enabled — fixture selftests and ad-hoc file linting.
    pub const STRICT: Scope = Scope(SIM_RULES);

    /// Is `rule` enabled under this scope?
    pub fn enables(&self, rule: Rule) -> bool {
        rule == Rule::StaleAllow || self.0.contains(&rule)
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
const SIM_RULES: &[Rule] = &[Rule::IndexLiteral, Rule::UnitSuffix, Rule::DetTaint];
/// Library panic discipline only.
const PANIC_CLIPPY: &[&str] = &["unwrap_used", "expect_used"];

const fn sim(krate: &'static str) -> CrateLints {
    CrateLints {
        krate,
        clippy: SIM_CLIPPY,
        rules: SIM_RULES,
    }
}

/// The one table of who is held to what: [`scope_for`] reads `rules`, and
/// the `headers_deny_what_the_table_demands` test holds each crate's
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

/// Scope for a workspace-relative source path, `None` if the file is not
/// linted (bins, benches, fixtures, generated code, `xtask` itself). A
/// library file of a crate [`CRATE_LINTS`] does not list gets the empty
/// scope: only its directives are checked (`stale-allow`).
pub fn scope_for(rel: &Path) -> Option<Scope> {
    let mut comps = rel.components().map(|c| c.as_os_str().to_string_lossy());
    if comps.next().as_deref() != Some("crates") {
        return None;
    }
    let krate = comps.next()?.to_string();
    // Only library sources: crates/<name>/src/**, excluding bin targets.
    if comps.next().as_deref() != Some("src") {
        return None;
    }
    if comps.next().as_deref() == Some("bin") || krate == "xtask" {
        return None;
    }
    let rules = CRATE_LINTS
        .iter()
        .find(|c| c.krate == krate)
        .map_or(&[][..], |c| c.rules);
    Some(Scope(rules))
}

/// A parsed `simlint: allow(...)` directive.
struct AllowDirective {
    /// Line the directive comment starts on.
    line: usize,
    /// Column of the comment token.
    col: usize,
    /// Rule names listed inside `allow(...)`, verbatim.
    rules: Vec<String>,
    /// Set when the directive suppresses at least one finding.
    used: Cell<bool>,
}

/// Per-file analysis context shared by every rule.
pub(crate) struct Ctx<'a> {
    pub(crate) file: &'a Path,
    /// Code tokens only — comments stripped, order preserved.
    pub(crate) code: Vec<&'a Tok>,
    /// Per-line (0-based index = line-1) "is `#[cfg(test)]` code".
    tests: Vec<bool>,
    /// Per-line "has a non-directive comment" (bound-justification check).
    plain_comment: Vec<bool>,
    allows: Vec<AllowDirective>,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(file: &'a Path, source: &str, toks: &'a [Tok]) -> Self {
        let nlines = source.lines().count().max(1);
        let mut plain_comment = vec![false; nlines + 1];
        let mut allows = Vec::new();
        let mut code: Vec<&Tok> = Vec::with_capacity(toks.len());
        for t in toks {
            match t.kind {
                Kind::LineComment | Kind::BlockComment => {
                    let span_lines = t.text.matches('\n').count();
                    let dirs = parse_allow_rules(&t.text);
                    if dirs.is_empty() {
                        for l in t.line as usize..=t.line as usize + span_lines {
                            if l <= nlines {
                                plain_comment[l] = true;
                            }
                        }
                    } else {
                        allows.push(AllowDirective {
                            line: t.line as usize,
                            col: t.col as usize,
                            rules: dirs,
                            used: Cell::new(false),
                        });
                    }
                }
                _ => code.push(t),
            }
        }
        let tests = test_mask(&code, nlines);
        Ctx {
            file,
            code,
            tests,
            plain_comment,
            allows,
        }
    }

    /// Is 1-based `line` inside `#[cfg(test)]`-gated code?
    pub(crate) fn is_test_line(&self, line: usize) -> bool {
        self.tests
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// Does `line` or the line above carry a non-directive comment?
    /// (`index-literal` bound justification.)
    pub(crate) fn has_plain_comment(&self, line: usize) -> bool {
        self.plain_comment.get(line).copied().unwrap_or(false)
            || (line > 1 && self.plain_comment.get(line - 1).copied().unwrap_or(false))
    }

    /// Is `rule` allowed at `line` (directive on the line or the line
    /// above)? Marks the directive used.
    fn allowed(&self, line: usize, rule: Rule) -> bool {
        let mut hit = false;
        for d in &self.allows {
            if (d.line == line || d.line + 1 == line) && d.rules.iter().any(|r| r == rule.name()) {
                d.used.set(true);
                hit = true;
            }
        }
        hit
    }
}

/// Extract the rule names from any `simlint: allow(a, b)` directives in a
/// comment's text.
fn parse_allow_rules(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("simlint: allow(") {
        rest = &rest[pos + "simlint: allow(".len()..];
        let Some(end) = rest.find(')') else { break };
        for r in rest[..end].split(',') {
            out.push(r.trim().to_string());
        }
        rest = &rest[end..];
    }
    out
}

/// Collector with allowlist routing.
pub(crate) struct Sink<'c, 'a> {
    ctx: &'c Ctx<'a>,
    out: Vec<Violation>,
}

impl<'c, 'a> Sink<'c, 'a> {
    fn new(ctx: &'c Ctx<'a>) -> Self {
        Sink {
            ctx,
            out: Vec::new(),
        }
    }

    /// Record a finding unless a directive on its line (or the line above)
    /// allows the rule.
    pub(crate) fn push(&mut self, line: usize, col: usize, rule: Rule, message: String) {
        self.push_anchored(line, line, col, rule, message);
    }

    /// Record a finding; directives at the violation line *or* at `anchor`
    /// (a multi-line signature's first line) suppress it.
    pub(crate) fn push_anchored(
        &mut self,
        anchor: usize,
        line: usize,
        col: usize,
        rule: Rule,
        message: String,
    ) {
        let allowed = self.ctx.allowed(line, rule) | self.ctx.allowed(anchor, rule);
        if allowed {
            return;
        }
        self.out.push(Violation {
            file: self.ctx.file.to_path_buf(),
            line,
            col,
            rule,
            message,
        });
    }
}

/// Mark lines belonging to `#[cfg(test)]`-gated items. Token-accurate: the
/// attribute's brace depth anchors the item; the item ends at the first `;`
/// or the matching `}` at that depth.
fn test_mask(code: &[&Tok], nlines: usize) -> Vec<bool> {
    let mut mask = vec![false; nlines];
    let mut i = 0;
    while i < code.len() {
        if !(code[i].kind == Kind::Punct && code[i].text == "#") {
            i += 1;
            continue;
        }
        let Some(next) = code.get(i + 1) else { break };
        if !(next.kind == Kind::Punct && next.text == "[") {
            i += 1;
            continue;
        }
        // Scan the attribute to its closing `]`, collecting identifiers.
        let mut j = i + 2;
        let mut brackets = 1i64;
        let mut idents: Vec<&str> = Vec::new();
        while j < code.len() && brackets > 0 {
            let t = code[j];
            match t.kind {
                Kind::Punct => {
                    for c in t.text.chars() {
                        match c {
                            '[' => brackets += 1,
                            ']' => brackets -= 1,
                            _ => {}
                        }
                    }
                }
                Kind::Ident => idents.push(&t.text),
                _ => {}
            }
            j += 1;
        }
        let is_cfg_test = idents.first() == Some(&"cfg") && idents.contains(&"test");
        if !is_cfg_test {
            i = j;
            continue;
        }
        let depth = code[i].depth;
        let start_line = code[i].line as usize;
        // Skip any further attributes between the cfg and the item.
        let mut k = j;
        while k + 1 < code.len()
            && code[k].kind == Kind::Punct
            && code[k].text == "#"
            && code[k + 1].text == "["
        {
            let mut b = 0i64;
            k += 1;
            loop {
                let Some(t) = code.get(k) else { break };
                if t.kind == Kind::Punct {
                    for c in t.text.chars() {
                        match c {
                            '[' => b += 1,
                            ']' => b -= 1,
                            _ => {}
                        }
                    }
                }
                k += 1;
                if b == 0 {
                    break;
                }
            }
        }
        // Find the end of the gated item: first `;` at the attribute's
        // depth, or the `}` matching the first `{` at that depth.
        let mut end_line = start_line;
        let mut m = k;
        let mut saw_open = false;
        while m < code.len() {
            let t = code[m];
            if t.kind == Kind::Punct && t.depth == depth {
                if t.text == ";" && !saw_open {
                    end_line = t.line as usize;
                    break;
                }
                if t.text == "{" {
                    saw_open = true;
                }
                if t.text == "}" && saw_open {
                    end_line = t.line as usize;
                    break;
                }
            }
            end_line = t.line as usize;
            m += 1;
        }
        for l in start_line..=end_line {
            if l >= 1 && l <= nlines {
                mask[l - 1] = true;
            }
        }
        i = m.max(j);
    }
    mask
}

/// Approved unit suffixes for dimensioned `f64` names.
pub const UNIT_SUFFIXES: &[&str] = &[
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

pub(crate) fn is_dimensioned(name: &str) -> bool {
    // Exact `_`-separated segment match: `feedback_delay_us` is dimensioned
    // (segment "delay") but `rc_delayed` is not — "delayed" marks a delayed
    // *state value*, whose unit is the state's, not a duration.
    name.split('_').any(|seg| DIMENSIONED.contains(&seg))
}

pub(crate) fn has_unit_suffix(name: &str) -> bool {
    UNIT_SUFFIXES.iter().any(|s| name.ends_with(s))
}

/// Lint one file's source under the given scope.
pub fn lint_source(file: &Path, source: &str, scope: Scope) -> Vec<Violation> {
    let toks = lex::lex(source);
    let ctx = Ctx::new(file, source, &toks);
    let mut sink = Sink::new(&ctx);
    if scope.enables(Rule::IndexLiteral) {
        rules::index_literal(&ctx, &mut sink);
    }
    if scope.enables(Rule::UnitSuffix) {
        rules::unit_suffix(&ctx, &mut sink);
    }
    if scope.enables(Rule::DetTaint) {
        flow::taint_pass(&ctx, &mut sink);
    }
    let mut out = sink.out;
    // Stale-allow: any directive that suppressed nothing, outside test code,
    // naming a rule this scope actually enforces (or no known rule at all).
    for d in &ctx.allows {
        if d.used.get() || ctx.is_test_line(d.line) {
            continue;
        }
        for name in &d.rules {
            match Rule::from_name(name) {
                None => out.push(Violation {
                    file: file.to_path_buf(),
                    line: d.line,
                    col: d.col,
                    rule: Rule::StaleAllow,
                    message: format!("allow directive names unknown rule `{name}`"),
                }),
                Some(r) if scope.enables(r) => out.push(Violation {
                    file: file.to_path_buf(),
                    line: d.line,
                    col: d.col,
                    rule: Rule::StaleAllow,
                    message: format!(
                        "allow({name}) suppresses nothing here; delete the stale directive"
                    ),
                }),
                Some(_) => {}
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    out
}

/// Recursively lint every `.rs` file under `root/crates/*/src`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f);
        let Some(scope) = scope_for(rel) else {
            continue;
        };
        let src = std::fs::read_to_string(&f)?;
        out.extend(lint_source(rel, &src, scope));
    }
    out.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
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

/// Lint a single file as if it were sim-crate library code (used for
/// fixture self-tests and ad-hoc checks).
pub fn lint_path_strict(path: &Path) -> std::io::Result<Vec<Violation>> {
    let src = std::fs::read_to_string(path)?;
    Ok(lint_source(path, &src, Scope::STRICT))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict(src: &str) -> Vec<Violation> {
        lint_source(Path::new("test.rs"), src, Scope::STRICT)
    }

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn allow_directive_suppresses_same_line() {
        let v = strict("fn f() { let x = xs[0]; } // simlint: allow(index-literal)\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allow_directive_suppresses_next_line() {
        let v = strict(
            "// simlint: allow(index-literal) — checked by the caller\nfn f() { let x = xs[0]; }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allow_of_other_rule_does_not_suppress() {
        // The index fires (a directive is not a bound-justifying comment),
        // and the allow(unit-suffix) — suppressing nothing — is itself a
        // stale-allow warning.
        let v = strict("fn f() { let x = xs[0]; } // simlint: allow(unit-suffix)\n");
        assert_eq!(v.iter().filter(|v| v.rule == Rule::IndexLiteral).count(), 1);
        assert_eq!(v.iter().filter(|v| v.rule == Rule::StaleAllow).count(), 1);
    }

    #[test]
    fn test_modules_are_exempt_from_index_literal() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { xs[0]; }\n}\n";
        let v = strict(src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn code_after_test_module_is_linted_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { xs[0]; }\n}\nfn g() { ys[1]; }\n";
        let v = strict(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn taint_applies_even_in_tests() {
        // A test steered by the clock is a flaky test.
        let src = "#[cfg(test)]\nmod tests {\n    fn f(q: &mut Q) {\n        let t = std::time::Instant::now().elapsed();\n        q.schedule(t, 1);\n    }\n}\n";
        let v = strict(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::DetTaint);
        assert_eq!(v[0].line, 5);
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
    fn unit_suffix_allow_on_signature_line_covers_params() {
        let v = strict(
            "// simlint: allow(unit-suffix) — legacy API, tracked\npub fn set(\n    rate: f64,\n) {}\n",
        );
        assert!(v.is_empty(), "{v:?}");
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
        let on = |p: &str, r: Rule| scope(p).is_some_and(|s| s.enables(r));
        for p in [
            "crates/netsim/src/engine.rs",
            "crates/faults/src/schedule.rs",
            "crates/store/src/atomic.rs",
            // The sanctioned clock readers are where the flow rule matters.
            "crates/obs/src/span.rs",
            "crates/desim/src/supervise.rs",
        ] {
            assert!(SIM_RULES.iter().all(|&r| on(p, r)), "{p}");
        }
        let fct = "crates/workload/src/fct.rs";
        assert!(on(fct, Rule::UnitSuffix));
        assert!(!on(fct, Rule::IndexLiteral) && !on(fct, Rule::DetTaint));
        // Listed for their clippy header, or not at all: directives only.
        for p in [
            "crates/control/src/roots.rs",
            "crates/bench/src/report.rs",
            "crates/core/src/output.rs",
        ] {
            assert!(scope(p).is_some(), "{p}");
            assert!(SIM_RULES.iter().all(|&r| !on(p, r)), "{p}");
            assert!(on(p, Rule::StaleAllow), "{p}");
        }
        for p in [
            "crates/bench/src/bin/simreport.rs",
            "crates/xtask/src/lib.rs",
            "crates/desim/tests/wheel_differential.rs",
            "examples/quickstart.rs",
        ] {
            assert!(scope(p).is_none(), "{p}");
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
    fn stale_allow_fires_on_unused_directive() {
        let v = strict("fn f() { let x = 1; } // simlint: allow(index-literal)\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::StaleAllow);
        assert_eq!(v[0].severity(), Severity::Warning);
    }

    #[test]
    fn stale_allow_flags_unknown_rule_names() {
        // A rule that moved to clippy.toml is an unknown name now.
        let v = strict("fn f() {} // simlint: allow(wall-clock)\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::StaleAllow);
        assert!(v[0].message.contains("unknown rule"));
    }

    #[test]
    fn stale_allow_skips_test_code_and_out_of_scope_rules() {
        // Inside #[cfg(test)] index-literal never runs, so an allow there
        // must not be called stale.
        let v =
            strict("#[cfg(test)]\nmod t {\n    fn f() {} // simlint: allow(index-literal)\n}\n");
        assert!(v.is_empty(), "{v:?}");
        // A rule the scope does not enforce cannot be stale either.
        let v = lint_source(
            Path::new("w.rs"),
            "fn f() {} // simlint: allow(index-literal)\n",
            Scope(&[Rule::UnitSuffix]),
        );
        assert!(v.is_empty(), "{v:?}");
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

//! `cargo run -p xtask -- <command>` — workspace tooling.
//!
//! Commands:
//!
//! * `lint [--format text|json] [--fix-baseline] [PATH...]` — run the
//!   simlint pass over `crates/*/src` (or over the given files, linted with
//!   every rule enabled and no baseline). Workspace findings are diffed
//!   against `simlint.baseline.json`; the run fails only on error-severity
//!   findings beyond the baseline. `--fix-baseline` rewrites the baseline
//!   from the current findings. `--format json` emits the full
//!   machine-readable report on stdout.
//! * `explain <rule>` — print the long-form rationale for a rule.
//! * `selftest` — lint the seeded fixtures under `crates/xtask/fixtures`:
//!   each `bad_*` fixture must trigger the rule named in its file name, each
//!   `good_*` fixture must stay quiet on it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::report::{apply_baseline, parse_baseline, render_baseline, render_report, Analysis};
use xtask::{lint_path_strict, lint_source, lint_workspace, scope_for, Rule, ALL_RULES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("selftest") => cmd_selftest(),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- <lint [--format text|json] [--fix-baseline] \
                 [PATH...] | explain <rule> | selftest>"
            );
            ExitCode::from(2)
        }
    }
}

/// Locate the workspace root: walk up from CWD until a dir containing
/// `crates/` and `Cargo.toml` is found.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

const BASELINE_FILE: &str = "simlint.baseline.json";

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut format_json = false;
    let mut fix_baseline = false;
    let mut paths: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => format_json = true,
                Some("text") => format_json = false,
                other => {
                    eprintln!("simlint: --format expects `text` or `json`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--fix-baseline" => fix_baseline = true,
            p => paths.push(p),
        }
    }

    let analysis = if paths.is_empty() {
        let root = workspace_root();
        let violations = match lint_workspace(&root) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("simlint: io error: {e}");
                return ExitCode::from(2);
            }
        };
        if fix_baseline {
            let rendered = render_baseline(&violations);
            let path = root.join(BASELINE_FILE);
            if let Err(e) = std::fs::write(&path, &rendered) {
                eprintln!("simlint: write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!(
                "simlint: baseline rewritten ({} error finding(s)) -> {}",
                violations
                    .iter()
                    .filter(|v| v.severity() == xtask::Severity::Error)
                    .count(),
                path.display()
            );
        }
        let baseline = match std::fs::read_to_string(root.join(BASELINE_FILE)) {
            Ok(src) => match parse_baseline(&src) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("simlint: {BASELINE_FILE}: {e}");
                    return ExitCode::from(2);
                }
            },
            Err(_) => Vec::new(), // no baseline file: everything is new
        };
        apply_baseline(violations, &baseline)
    } else {
        // Explicit paths: strict scope, no baseline.
        let mut out = Vec::new();
        for p in &paths {
            match lint_path_strict(Path::new(p)) {
                Ok(v) => out.extend(v),
                Err(e) => {
                    eprintln!("simlint: {p}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        apply_baseline(out, &[])
    };

    if format_json {
        print!("{}", render_report(&analysis.findings, &analysis.stale));
    } else {
        print_text_report(&analysis);
    }
    if analysis.new_errors().next().is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_text_report(analysis: &Analysis) {
    for (v, baselined) in &analysis.findings {
        if *baselined {
            println!("{v} (baselined)");
        } else {
            println!("{v}");
        }
    }
    for b in &analysis.stale {
        println!(
            "simlint: stale baseline entry: {} [{}] x{} no longer found — run \
             `cargo xtask lint --fix-baseline`",
            b.file, b.rule, b.count
        );
    }
    let new_errors = analysis.new_errors().count();
    let baselined = analysis.findings.iter().filter(|(_, b)| *b).count();
    let warnings = analysis
        .findings
        .iter()
        .filter(|(v, _)| v.severity() == xtask::Severity::Warning)
        .count();
    if analysis.findings.is_empty() {
        println!("simlint: clean");
    } else {
        println!(
            "simlint: {} finding(s): {new_errors} new error(s), {baselined} baselined, \
             {warnings} warning(s)",
            analysis.findings.len()
        );
    }
}

fn cmd_explain(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some(name) => match Rule::from_name(name) {
            Some(rule) => {
                println!("{} ({})", rule.name(), rule.severity().name());
                println!();
                println!("{}", rule.explain());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("simlint: unknown rule {name:?}; known rules:");
                for r in ALL_RULES {
                    eprintln!("  {}", r.name());
                }
                ExitCode::from(2)
            }
        },
        None => {
            for r in ALL_RULES {
                println!(
                    "{:<18} {}",
                    r.name(),
                    r.explain().lines().next().unwrap_or("")
                );
            }
            ExitCode::SUCCESS
        }
    }
}

/// Fixture protocol: `bad_<rule>.rs` must trigger its rule at least once
/// under the strict scope; `good_<rule>.rs` must trigger it exactly zero
/// times (sanctioned-conversion negatives for the dataflow passes).
fn cmd_selftest() -> ExitCode {
    let dir = workspace_root().join("crates/xtask/fixtures");
    let bad = [
        ("bad_hash_collections.rs", Rule::HashCollections),
        ("bad_wall_clock.rs", Rule::WallClock),
        ("bad_panic.rs", Rule::Panic),
        ("bad_no_unwrap_sim.rs", Rule::NoUnwrapSim),
        ("bad_index_literal.rs", Rule::IndexLiteral),
        ("bad_unit_suffix.rs", Rule::UnitSuffix),
        ("bad_thread_spawn.rs", Rule::ThreadSpawn),
        ("bad_float_cmp.rs", Rule::FloatCmp),
        ("bad_unit_flow.rs", Rule::UnitFlow),
        ("bad_det_taint.rs", Rule::DetTaint),
        ("bad_raw_fs_write.rs", Rule::RawFsWrite),
        ("bad_stale_allow.rs", Rule::StaleAllow),
    ];
    let good = [
        ("good_unit_flow.rs", Rule::UnitFlow),
        ("good_det_taint.rs", Rule::DetTaint),
        ("good_float_cmp.rs", Rule::FloatCmp),
        ("good_raw_fs_write.rs", Rule::RawFsWrite),
    ];
    let mut failed = false;
    for (name, rule) in bad {
        let path = dir.join(name);
        match lint_path_strict(&path) {
            Ok(vs) => {
                let hits = vs.iter().filter(|v| v.rule == rule).count();
                if hits == 0 {
                    eprintln!("selftest FAIL: {name} did not trigger {}", rule.name());
                    failed = true;
                } else {
                    println!("selftest ok: {name} -> {} x{hits}", rule.name());
                }
            }
            Err(e) => {
                eprintln!("selftest FAIL: {name}: {e}");
                failed = true;
            }
        }
    }
    for (name, rule) in good {
        let path = dir.join(name);
        match lint_path_strict(&path) {
            Ok(vs) => {
                let hits: Vec<_> = vs.iter().filter(|v| v.rule == rule).collect();
                if hits.is_empty() {
                    println!("selftest ok: {name} -> {} x0 (sanctioned)", rule.name());
                } else {
                    eprintln!(
                        "selftest FAIL: {name} must stay quiet on {}, got:",
                        rule.name()
                    );
                    for v in hits {
                        eprintln!("  {v}");
                    }
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("selftest FAIL: {name}: {e}");
                failed = true;
            }
        }
    }
    // The path-based allowlists, proven in both directions on the real
    // exempted files: each sanctioned surface must trip its rule under the
    // strict (allowlist-free) scope — it genuinely contains the banned
    // tokens — yet lint clean under its workspace scope, proving the
    // path-based exemption is what suppresses the finding (and that the
    // other passes accept the file's dataflow).
    let exempted: [(&str, Rule); 5] = [
        ("crates/obs/src/span.rs", Rule::WallClock),
        ("crates/bench/src/harness.rs", Rule::WallClock),
        ("crates/desim/src/supervise.rs", Rule::WallClock),
        ("crates/desim/src/supervise.rs", Rule::ThreadSpawn),
        ("crates/store/src/atomic.rs", Rule::RawFsWrite),
    ];
    for (rel, rule) in exempted {
        let rel = Path::new(rel);
        let abs = workspace_root().join(rel);
        match std::fs::read_to_string(&abs) {
            Ok(src) => {
                let strict_hits = lint_path_strict(&abs)
                    .map(|vs| vs.iter().filter(|v| v.rule == rule).count())
                    .unwrap_or(0);
                let scoped: Vec<_> = scope_for(rel)
                    .map_or_else(Vec::new, |s| lint_source(rel, &src, s))
                    .into_iter()
                    .filter(|v| v.rule == rule)
                    .collect();
                if strict_hits == 0 {
                    eprintln!(
                        "selftest FAIL: {} no longer exercises {}",
                        rel.display(),
                        rule.name()
                    );
                    failed = true;
                } else if !scoped.is_empty() {
                    eprintln!(
                        "selftest FAIL: {} not exempt from {} under workspace scope:",
                        rel.display(),
                        rule.name()
                    );
                    for v in &scoped {
                        eprintln!("  {v}");
                    }
                    failed = true;
                } else {
                    println!(
                        "selftest ok: {} -> {} x{strict_hits} strict, exempt in scope",
                        rel.display(),
                        rule.name()
                    );
                }
            }
            Err(e) => {
                eprintln!("selftest FAIL: read {}: {e}", abs.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("selftest: all fixtures trigger their rules");
        ExitCode::SUCCESS
    }
}

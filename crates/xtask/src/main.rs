//! `cargo run -p xtask -- <command>` — workspace tooling.
//!
//! Commands:
//!
//! * `lint [PATH...]` — run simlint's two rules (`index-literal`,
//!   `unit-suffix`) over `crates/*/src`, or over the given files with both
//!   rules enabled. Prints one line per finding, then `simlint: clean` or
//!   the count; any finding fails the run.
//! * `explain [rule]` — print the long-form rationale for a rule (or a
//!   one-line summary of each).
//! * `selftest` — lint the seeded fixtures under `crates/xtask/fixtures`:
//!   `bad_<rule>.rs` must trigger its rule, and `cargo clippy` over
//!   `clippy_canary/` must report every ban the root `clippy.toml` lists.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use xtask::{lint_path_strict, lint_workspace, Rule, ALL_RULES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("selftest") => cmd_selftest(),
        _ => {
            eprintln!("usage: cargo run -p xtask -- <lint [PATH...] | explain [rule] | selftest>");
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

fn cmd_lint(paths: &[String]) -> ExitCode {
    let findings = if paths.is_empty() {
        match lint_workspace(&workspace_root()) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("simlint: io error: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        // Explicit paths: strict scope.
        let mut out = Vec::new();
        for p in paths {
            match lint_path_strict(Path::new(p)) {
                Ok(v) => out.extend(v),
                Err(e) => {
                    eprintln!("simlint: {p}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        out
    };

    for v in &findings {
        println!("{v}");
    }
    if findings.is_empty() {
        println!("simlint: clean");
        ExitCode::SUCCESS
    } else {
        println!("simlint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn cmd_explain(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some(name) => match Rule::from_name(name) {
            Some(rule) => {
                println!("{}", rule.name());
                println!();
                println!("{}", rule.explain());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("simlint: unknown rule {name:?}; known rules:");
                for r in ALL_RULES {
                    eprintln!("  {}", r.name());
                }
                eprintln!("(the name bans — HashMap, Instant::now, unwrap, … — are clippy.toml's)");
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

/// Fixture protocol: `bad_<rule>.rs` (the rule name with `_` for `-`)
/// must trigger its rule at least once under every rule.
fn cmd_selftest() -> ExitCode {
    let root = workspace_root();
    let dir = root.join("crates/xtask/fixtures");
    let mut failed = false;
    for &rule in ALL_RULES {
        let name = format!("bad_{}.rs", rule.name().replace('-', "_"));
        match lint_path_strict(&dir.join(&name)) {
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
    let problems = clippy_canary(&root);
    for p in &problems {
        eprintln!("selftest FAIL: clippy_canary: {p}");
    }
    if problems.is_empty() {
        println!(
            "selftest ok: clippy_canary -> all {} bans reported",
            CANARY.len()
        );
    } else {
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("selftest: every fixture triggers its rule, every ban is reported");
        ExitCode::SUCCESS
    }
}

/// What clippy must report on `fixtures/clippy_canary`: the lint, and a
/// fragment of its message that names the banned item.
const CANARY: [(&str, &str); 14] = [
    ("clippy::disallowed_types", "std::collections::HashMap"),
    ("clippy::disallowed_types", "std::collections::HashSet"),
    ("clippy::disallowed_types", "std::time::SystemTime"),
    ("clippy::disallowed_types", "std::thread::Builder"),
    ("clippy::disallowed_methods", "std::time::Instant::now"),
    ("clippy::disallowed_methods", "std::thread::spawn"),
    ("clippy::disallowed_methods", "std::thread::scope"),
    ("clippy::disallowed_methods", "std::fs::write"),
    ("clippy::disallowed_methods", "std::fs::File::create"),
    ("clippy::disallowed_methods", "obs::span::drain"),
    (
        "clippy::disallowed_methods",
        "obs::span::Stopwatch::elapsed_ms",
    ),
    ("clippy::unwrap_used", "unwrap()"),
    ("clippy::expect_used", "expect()"),
    ("clippy::float_cmp", "strict comparison"),
];

/// Run `cargo clippy` over the canary crate with the repository's
/// `clippy.toml`; one message per [`CANARY`] row it did not report (empty =
/// pass). A `clippy.toml` that fails to parse, or loses an entry, lands here
/// instead of passing silently over a workspace that happens to be clean.
fn clippy_canary(root: &Path) -> Vec<String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = match Command::new(cargo)
        .args(["clippy", "--offline", "--quiet", "--message-format=json"])
        .arg("--manifest-path")
        .arg(root.join("crates/xtask/fixtures/clippy_canary/Cargo.toml"))
        .arg("--target-dir")
        .arg(root.join("target/clippy_canary"))
        .env("CLIPPY_CONF_DIR", root)
        .output()
    {
        Ok(out) => out,
        Err(e) => return vec![format!("cannot run cargo clippy: {e}")],
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    let reported: Vec<(String, String)> = stdout
        .lines()
        .filter_map(|line| {
            let msg = obs::json::parse(line).ok()?;
            let msg = msg.get("message")?;
            let code = msg.get("code")?.get("code")?.as_str()?;
            Some((code.to_string(), msg.get("message")?.as_str()?.to_string()))
        })
        .collect();
    if reported.is_empty() {
        return vec![format!(
            "clippy reported nothing ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )];
    }
    CANARY
        .iter()
        .filter(|(lint, what)| !reported.iter().any(|(c, m)| c == lint && m.contains(what)))
        .map(|(lint, what)| {
            format!("{lint} did not report `{what}` — clippy.toml no longer bans it")
        })
        .collect()
}

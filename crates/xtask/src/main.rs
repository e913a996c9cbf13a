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
//! * `ab <parent> --workload W --pairs N` — the benchmark ruler of
//!   `<parent>` (a commit, `git archive`d into `target/ab/`) against the
//!   working tree's, built with `BENCHMARK.json`'s command and run for its
//!   `run_seconds` in N alternating pairs (see [`xtask::ab`]). The plan goes to
//!   `ledger/ab_<W>_<parent>.prereg.json` before the first run; the record
//!   to `ledger/ab_<W>_<parent>.json` and `.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use xtask::ab::{self, Pair, Plan};
use xtask::{lint_path_strict, lint_workspace, Rule, ALL_RULES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("selftest") => cmd_selftest(),
        Some("ab") => match cmd_ab(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("xtask ab: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- <lint [PATH...] | explain [rule] | selftest \
                 | ab <parent> --workload W --pairs N>"
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

/// `ab <parent> --workload W --pairs N`.
fn cmd_ab(args: &[String]) -> Result<(), String> {
    let root = workspace_root();
    let usage = "ab <parent> --workload W --pairs N";
    let (parent_rev, flags) = args.split_first().ok_or(usage)?;
    let (mut workload, mut pairs) = (None, None);
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value; {usage}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--pairs" => {
                pairs = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("--pairs: {e}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}; {usage}")),
        }
    }
    let workload = workload.ok_or(usage)?;
    let pairs = pairs
        .filter(|&n| n > 0)
        .ok_or("--pairs must be a positive count")?;

    let bench = obs::json::parse(&read(&root.join("BENCHMARK.json"))?)?;
    let command: Vec<String> = bench
        .get("command")
        .and_then(obs::json::Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.as_str().map(str::to_string))
        .collect();
    let metrics: Vec<String> = bench
        .get("end_to_end")
        .and_then(obs::json::Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
        .collect();
    if command.is_empty() || metrics.is_empty() {
        return Err("BENCHMARK.json names no command or no end-to-end metric".into());
    }
    let seconds = bench
        .get("run_seconds")
        .and_then(obs::json::Value::as_f64)
        .filter(|s| *s > 0.0)
        .ok_or("BENCHMARK.json names no positive run_seconds")?;
    let known = bench
        .get("workloads")
        .and_then(obs::json::Value::items)
        .unwrap_or_default()
        .iter()
        .any(|w| w.get("name").and_then(obs::json::Value::as_str) == Some(&workload));
    if !known {
        return Err(format!("BENCHMARK.json has no workload {workload:?}"));
    }

    let parent = git(&root, &["rev-parse", &format!("{parent_rev}^{{commit}}")])?;
    let head = git(&root, &["rev-parse", "HEAD"])?;
    let dirty = !git(&root, &["status", "--porcelain", "--untracked-files=no"])?.is_empty();
    let plan = Plan {
        parent: parent.clone(),
        change: if dirty { format!("{head}+dirty") } else { head },
        workload: workload.clone(),
        pairs,
        seconds,
        metrics,
    };
    let stem = root
        .join("ledger")
        .join(format!("ab_{workload}_{}", &parent[..parent.len().min(7)]));
    write(
        &stem.with_extension("prereg.json"),
        &plan.to_json().render_pretty(),
    )?;

    let parent_tree = root.join("target/ab").join(&parent);
    if !parent_tree.join("BENCHMARK.json").is_file() {
        extract(&root, &parent, &parent_tree)?;
    }
    // BENCHMARK.json's command is `cargo run … --`: its build is the same
    // words with `build` for `run`, up to the `--`.
    let build: Vec<String> = command
        .iter()
        .take_while(|w| *w != "--")
        .map(|w| {
            if w == "run" {
                "build".to_string()
            } else {
                w.clone()
            }
        })
        .collect();
    for tree in [&parent_tree, &root] {
        println!("ab: building the ruler in {}", tree.display());
        let status = Command::new(&build[0])
            .args(&build[1..])
            .current_dir(tree)
            .status()
            .map_err(|e| format!("{}: {e}", build.join(" ")))?;
        if !status.success() {
            return Err(format!("building the ruler in {} failed", tree.display()));
        }
    }

    let runs_dir = root.join("target/ab/runs");
    std::fs::create_dir_all(&runs_dir).map_err(|e| format!("{}: {e}", runs_dir.display()))?;
    let mut done = Vec::new();
    for i in 0..pairs {
        let seed = Plan::seed(i);
        let run_side = |change: bool| -> Result<ab::Run, String> {
            let (tree, name) = if change {
                (&root, "change")
            } else {
                (&parent_tree, "parent")
            };
            let out = runs_dir.join(format!("{workload}_{i}_{name}.json"));
            let _ = std::fs::remove_file(&out);
            let output = Command::new(&command[0])
                .args(&command[1..])
                .args(["--workload", &workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0", "--out"])
                .arg(&out)
                .current_dir(tree)
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("{}: {e}", command.join(" ")))?;
            let run = ab::parse_run(
                &plan,
                &String::from_utf8_lossy(&output.stdout),
                &read(&out)?,
            )
            .map_err(|e| format!("pair {i}, {name}: {e}"))?;
            println!(
                "ab: pair {i} seed {seed} {name:<6} correct {} {:?}",
                run.correct, run.values
            );
            Ok(run)
        };
        let (parent_run, change_run) = if Plan::change_first(i) {
            let c = run_side(true)?;
            (run_side(false)?, c)
        } else {
            let p = run_side(false)?;
            (p, run_side(true)?)
        };
        done.push(Pair {
            index: i,
            parent: parent_run,
            change: change_run,
        });
    }
    write(
        &stem.with_extension("json"),
        &ab::report_json(&plan, &done).render_pretty(),
    )?;
    let md = ab::report_md(&plan, &done);
    write(&stem.with_extension("md"), &md)?;
    print!("{md}");
    Ok(())
}

/// `git archive <rev>` unpacked into `dir`.
fn extract(root: &Path, rev: &str, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut archive = Command::new("git")
        .args(["archive", "--format=tar", rev])
        .current_dir(root)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("git archive: {e}"))?;
    let tar = archive.stdout.take().ok_or("git archive has no stdout")?;
    let unpacked = Command::new("tar")
        .arg("-x")
        .arg("-C")
        .arg(dir)
        .stdin(tar)
        .status()
        .map_err(|e| format!("tar: {e}"))?;
    let archived = archive.wait().map_err(|e| format!("git archive: {e}"))?;
    if archived.success() && unpacked.success() {
        Ok(())
    } else {
        Err(format!("could not unpack {rev} into {}", dir.display()))
    }
}

/// `git <args>`'s trimmed standard output.
fn git(root: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .args(args)
        .current_dir(root)
        .output()
        .map_err(|e| format!("git: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("ab: wrote {}", path.display());
    Ok(())
}

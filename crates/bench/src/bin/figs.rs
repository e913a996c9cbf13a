//! `figs <id> [flags]` regenerates the entry of [`FIGURES`] that writes
//! `<id>`; `figs --all [flags]` regenerates every entry (paper-scale
//! configurations).
//!
//! Under `--all` each entry is a child process of this same binary, run as
//! a bounded parallel job pool via [`desim::par::par_map`]. The children
//! stay processes on purpose: the `obs` sinks, the store counters and
//! `ECN_DELAY_RESULTS` are process-global, and a child is what isolates an
//! abort. Each child is pinned to `SIM_THREADS=1` — the parallelism budget
//! is spent at the process level, and nesting would oversubscribe the
//! machine. Captured stdout/stderr are replayed in table order once
//! everything finishes, so the output (and the `results/` JSON) is identical
//! to the serial run.
//!
//! `--all --obs <dir>` hands each child `--obs <dir>/<id>` (its first id),
//! so every entry records its four files in a directory of its own.
//! `--store <dir>` is forwarded: the children share one store directory
//! (records are keyed by experiment id, so they never collide), which makes
//! the whole regeneration resumable — kill it halfway and rerun, and the
//! finished figures are served from disk.

use std::process::Command;

use bench::cli::Args;
use bench::figures::FIGURES;
use bench::{print, println};

fn main() {
    let args = bench::cli::parse(None);
    match args.entry.as_deref() {
        Some("--all") => all(&args),
        Some(id) => match FIGURES.iter().find(|f| f.ids.contains(&id)) {
            Some(f) => (f.body)(f, &args),
            None => no_such_figure(),
        },
        None => no_such_figure(),
    }
}

fn no_such_figure() -> ! {
    eprintln!("usage: figs <id>|--all [flags], <id> one of:");
    for f in FIGURES {
        eprintln!("  {:<16} {}", f.ids.join(" "), f.title);
    }
    std::process::exit(2);
}

fn all(args: &Args) {
    let exe = std::env::current_exe().expect("current exe");
    let outputs = desim::par::par_map(FIGURES.iter().map(|f| f.ids[0]).collect(), |id| {
        let mut cmd = Command::new(&exe);
        cmd.arg(id).env("SIM_THREADS", "1");
        if let Some(d) = &args.obs {
            cmd.arg("--obs").arg(d.join(id));
        }
        if let Some(d) = &args.store {
            cmd.arg("--store").arg(d);
        }
        let out = cmd
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {} {id}: {e}", exe.display()));
        (id, out)
    });
    let mut failed = Vec::new();
    for (id, out) in &outputs {
        print!("{}", String::from_utf8_lossy(&out.stdout));
        if !out.stderr.is_empty() {
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
        }
        if !out.status.success() {
            failed.push(*id);
        }
    }
    // Graceful degradation: the successful figures' JSON is already on disk
    // at this point — report the failures and exit nonzero instead of
    // aborting, so a single bad figure never hides the rest of the output.
    if !failed.is_empty() {
        eprintln!(
            "{}/{} figures failed: {failed:?} (the remaining {} completed and wrote results/)",
            failed.len(),
            outputs.len(),
            outputs.len() - failed.len()
        );
        std::process::exit(1);
    }
    println!("\nall figures regenerated; JSON in results/");
}

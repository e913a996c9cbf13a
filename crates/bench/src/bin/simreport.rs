//! `simreport` — inspect and diff the workspace's telemetry artifacts.
//!
//! ```text
//! simreport render <timeseries.jsonl> [--width N]
//! simreport diff <a.jsonl> <b.jsonl>
//! ```
//!
//! * `render` turns the `timeseries.jsonl` that `--obs <dir>` writes into
//!   sparklines (one per `(name, key, ctx)` series) and percentile rows for
//!   its histograms.
//! * `diff` compares two JSONL exports (trace, time-series or flight) and
//!   localizes the first diverging `(ctx, seq)` event — the debugger behind
//!   the byte-identity tests. Exit 1 when the files diverge.
//!
//! Usage errors exit 2.

use bench::report;

fn usage() -> ! {
    eprintln!(
        "usage: simreport render <timeseries.jsonl> [--width N]\n       \
         simreport diff <a.jsonl> <b.jsonl>"
    );
    std::process::exit(2);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("simreport: read {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("render") => cmd_render(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        _ => usage(),
    };
    std::process::exit(code);
}

fn cmd_render(args: &[String]) -> i32 {
    let mut path = None;
    let mut width = 64usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--width" => {
                width = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            p if !p.starts_with('-') => path = Some(p.to_string()),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    print!("{}", report::render_timeseries(&read(&path), width));
    0
}

fn cmd_diff(args: &[String]) -> i32 {
    let [a, b] = args else { usage() };
    match report::diff_jsonl(&read(a), &read(b)) {
        None => {
            println!("identical: {a} == {b}");
            0
        }
        Some(d) => {
            println!("first divergence at line {}", d.line);
            if let Some((ctx, seq)) = d.ctx_seq {
                println!("event: ctx={ctx} seq={seq}");
            }
            if d.a == d.b {
                println!("(the lines differ only in their terminator)");
            }
            println!("- {}\n+ {}", d.a, d.b);
            1
        }
    }
}

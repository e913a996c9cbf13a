//! FCT case study on the Figure 13 dumbbell: the paper's §5.1 workload.
//!
//! Ten senders and ten receivers around a 10 Gbps bottleneck; web-search
//! flow sizes (DCTCP [2]) arriving as a Poisson process; small flows are
//! those under 100 KB. Compares DCQCN, TIMELY and Patched TIMELY at the
//! load you pass on the command line.
//!
//! ```text
//! cargo run --release --example fct_study -- <load> <horizon_s>
//! cargo run --release --example fct_study -- 0.8 0.3
//! ```

use ecn_delay::experiments::experiments::fig14::{fct_stats, Cell};
use ecn_delay::experiments::scenarios::Protocol;

fn main() {
    let mut args = std::env::args().skip(1);
    let load: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.8);
    let horizon: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.3);

    println!("FCT case study: load = {load}, arrival horizon = {horizon} s");
    println!("(load 1.0 = 8 Gbps offered on the 10 Gbps bottleneck)\n");
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>8} {:>8} {:>10}",
        "protocol", "median (ms)", "p90 (ms)", "p99 (ms)", "flows", "util", "ECN marks"
    );
    for protocol in [Protocol::Dcqcn, Protocol::Timely, Protocol::PatchedTimely] {
        let cell = Cell {
            protocol,
            load,
            horizon_s: horizon,
            seed: 1,
        };
        let (report, _bottleneck) = cell.run();
        let stats = fct_stats(&report);
        let delivered: u64 = report.delivered_bytes.iter().sum();
        println!(
            "{:<16} {:>12.3} {:>12.3} {:>12.3} {:>8} {:>8.3} {:>10}",
            protocol.label(),
            stats.small_median().unwrap_or(f64::NAN) * 1e3,
            stats.small_p90().unwrap_or(f64::NAN) * 1e3,
            stats.small_p99().unwrap_or(f64::NAN) * 1e3,
            stats.small_count(),
            delivered as f64 * 8.0 / report.end_time_s / 10e9,
            report.marked_packets,
        );
    }
    println!("\nThe ECN-based protocol holds the bottleneck queue inside the RED band,");
    println!("so its small flows never wait behind a bloated buffer (paper §5.1-5.2).");
}

//! TIMELY's fairness lottery, and the patch that fixes it.
//!
//! Reproduces the heart of §4 interactively: run the TIMELY fluid model
//! from several starting conditions and watch it settle on *different*
//! rate splits each time (Theorems 3/4: no unique fixed point). Then run
//! Patched TIMELY (Algorithm 2) from the same starts and watch every run
//! converge to the fair share and the Theorem 5 queue.
//!
//! ```text
//! cargo run --release --example timely_fairness
//! ```

use ecn_delay::models::timely::{TimelyFluid, TimelyLaw, TimelyParams};

fn main() {
    let starts: &[(&str, [f64; 2])] = &[
        ("50/50", [0.5, 0.5]),
        ("60/40", [0.6, 0.4]),
        ("70/30", [0.7, 0.3]),
        ("90/10", [0.9, 0.1]),
    ];

    println!("=== original TIMELY (Algorithm 1) ===");
    println!("{:<8} {:>18} {:>14}", "start", "final split (f0)", "fair?");
    let params = TimelyParams::default_10g();
    let c = params.capacity_pps();
    for (label, fracs) in starts {
        let mut m = TimelyFluid::new(params.clone(), TimelyLaw::Original, 2);
        let tr = m.simulate_with_rates(&[fracs[0] * c, fracs[1] * c], 0.25);
        let r0 = tr.mean_from(m.rate_index(0), 0.2);
        let r1 = tr.mean_from(m.rate_index(1), 0.2);
        let share = r0 / (r0 + r1);
        println!(
            "{label:<8} {share:>18.3} {:>14}",
            if (share - 0.5).abs() < 0.05 {
                "yes"
            } else {
                "NO"
            }
        );
    }
    println!("→ the final split tracks the starting conditions: infinitely many");
    println!("  fixed points, so fairness is an accident (Theorems 3–4, Figure 9).\n");

    println!("=== Patched TIMELY (Algorithm 2) ===");
    let q_star_kb = TimelyFluid::patched_10g(2).q_star_kb();
    println!(
        "{:<8} {:>18} {:>14} {:>16}",
        "start", "final split (f0)", "fair?", "queue vs q*"
    );
    for (label, fracs) in starts {
        let mut m = TimelyFluid::patched_10g(2);
        let c = m.params.capacity_pps();
        let tr = m.simulate_with_rates(&[fracs[0] * c, fracs[1] * c], 0.4);
        let r0 = tr.mean_from(m.rate_index(0), 0.35);
        let r1 = tr.mean_from(m.rate_index(1), 0.35);
        let share = r0 / (r0 + r1);
        let q_kb = models::units::pkts_to_kb(tr.mean_from(0, 0.35), m.params.packet_bytes);
        println!(
            "{label:<8} {share:>18.3} {:>14} {:>10.1}/{:<5.1}",
            if (share - 0.5).abs() < 0.05 {
                "yes"
            } else {
                "NO"
            },
            q_kb,
            q_star_kb
        );
    }
    println!("→ every start converges to the fair share, and the queue settles at");
    println!("  the unique Theorem 5 fixed point q* = N·δ·q'/(β·C) + q'.");
}

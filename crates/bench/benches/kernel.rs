//! Benchmarks for the discrete-event kernel: event-queue throughput under
//! FIFO and random loads and under the packet engine's offset mix, the
//! far-future stress row, and the end-to-end `netsim/events_per_sec_*`
//! scale probe measured on a fat-tree incast.

use bench::harness::{bench, black_box};
use desim::{EventQueue, SimDuration, SimRng, SimTime};
use ecn_delay_core::experiments::ext_incast::report_digest;
use ecn_delay_core::scenarios::{fat_tree_incast, Protocol};
use netsim::EngineConfig;
use workload::IncastConfig;

fn main() {
    bench("event_queue/push_pop_fifo_10k", || {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_nanos(i), i);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        black_box(acc)
    });

    bench("event_queue/pop_due_fifo_10k", || {
        // The same schedule drained the way `Engine::run` drains it: every
        // step asks for the next event due by the run's horizon.
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_nanos(i), i);
        }
        let horizon = SimTime::from_nanos(10_000);
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop_due(horizon) {
            acc = acc.wrapping_add(v);
        }
        black_box(acc)
    });

    bench("event_queue/push_pop_random_10k", || {
        let mut rng = SimRng::new(1);
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_nanos(rng.next_below(1_000_000)), i);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        black_box(acc)
    });

    // The engine's own mix (the long-lived 10-flow DCQCN cell): each pop
    // schedules the next event ≈ 200 ns ahead 22 % of the time (a `TxDone`),
    // ≈ 2 µs ahead 25 % (a pacer) and ≈ 21 µs ahead 52 % (a `Deliver`
    // across the 21 µs hop), the rest ≈ 100 µs ahead, with ~60 pending.
    let mut rng = SimRng::new(3);
    let offsets: Vec<u64> = (0..10_000)
        .map(|_| {
            let jitter = rng.next_below(64);
            match rng.next_below(100) {
                0..=21 => 180 + jitter,
                22..=46 => 1_900 + 4 * jitter,
                47..=98 => 21_000 + 8 * jitter,
                _ => 100_000 + 64 * jitter,
            }
        })
        .collect();
    bench("event_queue/packet_mix_10k", || {
        let mut q = EventQueue::new();
        for (i, &d) in offsets.iter().take(60).enumerate() {
            q.schedule(SimTime::from_nanos(d), i as u64);
        }
        let mut acc = 0u64;
        for &d in &offsets {
            let Some((t, v)) = q.pop() else { break };
            acc = acc.wrapping_add(v);
            q.schedule(t + SimDuration::from_nanos(d), v);
        }
        black_box(acc)
    });

    bench("event_queue/wheel_far_future_10k", || {
        // Timestamps spread over ~70 s: level 1 reaches only 134 ms, so
        // nearly every entry starts on the overflow heap and migrates
        // through level 1 into level 0 — the worst case for the calendar
        // (the name is kept from the timing wheel it replaced).
        let mut rng = SimRng::new(5);
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_nanos(rng.next_below(1 << 36)), i);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        black_box(acc)
    });

    // End-to-end scale probe: a 256:1 incast on a k=4 fat-tree, the smoke
    // tests' scenario. The run is deterministic, so `events` is identical
    // every iteration and the events/sec rate follows from the median
    // wall-clock of the measured runs.
    let run_incast = |k: usize, incast: &IncastConfig, horizon: SimTime| {
        let mut cfg = EngineConfig::default();
        cfg.rate_trace_window = None;
        let (mut eng, _bottleneck) = fat_tree_incast(
            Protocol::Dcqcn,
            k,
            incast,
            10e9,
            SimDuration::from_micros(1),
            cfg,
        );
        eng.run(horizon)
    };
    let incast = IncastConfig {
        n_senders: 256,
        bytes_per_sender: 16_000,
        start_s: 0.0,
        stagger_s: 10e-6,
        seed: 1,
    };
    let baseline = run_incast(4, &incast, SimTime::from_millis(30));
    let median = bench("netsim/incast_k4_n256_dcqcn", || {
        let report = run_incast(4, &incast, SimTime::from_millis(30));
        debug_assert_eq!(report_digest(&report), report_digest(&baseline));
        black_box(report.events_processed)
    });
    let events = baseline.events_processed;
    println!(
        "{:<44} {:.0} events/s ({events} events)",
        "netsim/events_per_sec_incast_k4_n256",
        events as f64 / median.as_secs_f64()
    );

    // The timer-dominated cell (the benchmark's `incast_dcqcn_n4096`): 4096
    // DCQCN flows on a k=8 fat-tree, where α- and increase-timer firings —
    // each re-arming itself — are about two events in five.
    let incast = IncastConfig {
        n_senders: 4096,
        bytes_per_sender: 16_000,
        seed: 1,
        ..Default::default()
    };
    bench("netsim/incast_k8_n4096_dcqcn", || {
        let report = run_incast(8, &incast, SimTime::from_millis(500));
        black_box(report.events_processed)
    });

    bench("rng_next_f64_1k", || {
        let mut rng = SimRng::new(7);
        let mut acc = 0.0;
        for _ in 0..1_000 {
            acc += rng.next_f64();
        }
        black_box(acc)
    });

    bench("par_map_overhead_64jobs", || {
        black_box(desim::par::par_map((0u64..64).collect(), |i| i * i).len())
    });

    // Store fast path: open + keyed hit lookup, the per-cell cost a resumed
    // sweep pays for every already-computed cell.
    {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let root = std::env::temp_dir().join(format!(
            "bench_store_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let st = store::Store::open(&root).expect("open bench store");
        let key = st.key("bench/kernel", "{\"cell\": 1}").expect("key");
        st.put(&key, &[0xa5u8; 4096]).expect("seed record");
        bench("store/open_hit_lookup_4k", || {
            let st = store::Store::open(&root).expect("open");
            let key = st.key("bench/kernel", "{\"cell\": 1}").expect("key");
            black_box(st.get(&key).map(|b| b.len()))
        });
        let _ = std::fs::remove_dir_all(&root);
    }
}

//! Golden input: exercises every rule so the JSON report shape is pinned
//! byte-for-byte by `tests/golden.rs`.

pub fn lookup(xs: &[u64]) -> u64 {
    xs[3]
}

pub fn set_pacing(q: &mut EventQueue, rate: f64) {
    let skew = std::time::Instant::now().elapsed().as_secs_f64();
    q.schedule(skew * rate, 7);
}

// simlint: allow(index-literal) — stale on purpose: nothing below indexes
pub fn quiet() -> u32 {
    7
}

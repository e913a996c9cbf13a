//! Dense solution history with linear interpolation, for delayed lookups.
//!
//! A DDE right-hand side needs `x_c(t − d)` for various components `c` and
//! delays `d` (possibly state-dependent, as in TIMELY's Eq 24). [`History`]
//! stores `(t, state)` knots as the integration advances and answers
//! interpolated queries. Queries before the recorded range fall back to the
//! *initial function* — a constant pre-history equal to the initial state by
//! default, which matches both models' initial conditions (constant rates and
//! empty queue before `t0`).
//!
//! Storage is a single flat `Vec<f64>` with stride `dim`, so [`History::push`]
//! is one `extend_from_slice` (no per-knot allocation) and a whole-state
//! lookup ([`History::eval_all`]) locates the bracketing knot pair **once**
//! and interpolates every component from the two rows — the N-flow DCQCN RHS
//! needs the queue plus all N delayed rates at the same delayed time, which
//! would otherwise pay N+1 independent searches. [`History::trim_before`]
//! advances a logical front offset and only compacts the buffers once the
//! dead prefix dominates, amortizing the `drain` that used to run every step.
//!
//! **Lookup.** Knot times are strictly increasing, so for `t` inside the
//! live range the index with `times[idx] <= t < times[idx + 1]` is unique:
//! any correct search returns it and the interpolation never sees which one
//! ran. `History::locate` exploits what the integrators actually push — a
//! (near-)uniform `t += h` grid — and computes the index from the live
//! endpoints, then walks from that guess until it brackets `t`. On a
//! `t += h` grid the guess is off by at most one knot (rounding, a final
//! partial step), so a lookup is O(1) at *any* delay, which is what
//! TIMELY's alternating near/far state-dependent delays (Eq 22/24) need; on
//! any other increasing grid the walk is longer but lands on the same knot
//! (`crates/fluid/tests/history_oracle.rs` holds the readers to a binary
//! search). A lookup remembers nothing, so its answer and its cost do not
//! depend on the order of queries.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bump the lookup tally. A history is read by the one thread integrating it,
/// so a plain load + store keeps the bump off the `lock` prefix; a second
/// reader could lose a count, never disturb a lookup (nothing reads it but
/// `History::lookups`).
#[inline]
fn bump(tally: &AtomicU64) {
    tally.store(tally.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// Interpolated solution history for DDE integration.
#[derive(Debug)]
pub struct History {
    dim: usize,
    /// Knot times; indices `< front` are trimmed (logically dead).
    times: Vec<f64>,
    /// Flat knot states, stride `dim`, same logical front as `times`.
    states: Vec<f64>,
    /// Physical index of the first live knot.
    front: usize,
    /// Values returned for queries at `t <= times[front]`.
    pre: Vec<f64>,
    /// The live grid's density, `(len − 1) / (t_back − t_front)`, for
    /// `locate`'s index guess. Kept by the `&mut` methods that move either
    /// end (`regrid`), so a lookup pays a multiply rather than a divide.
    knots_per_s: f64,
    /// Interior lookups answered (every `locate` call, `trim_before`'s
    /// included). Write-only statistics: no lookup reads it.
    lookups: AtomicU64,
}

impl History {
    /// New history with the given pre-`t0` constant state.
    pub fn new(t0: f64, initial: &[f64]) -> Self {
        History {
            dim: initial.len(),
            times: vec![t0],
            states: initial.to_vec(),
            front: 0,
            pre: initial.to_vec(),
            knots_per_s: 0.0,
            lookups: AtomicU64::new(0),
        }
    }

    /// State dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `idx` (physical) of the flat state buffer.
    #[inline]
    fn row(&self, idx: usize) -> &[f64] {
        &self.states[idx * self.dim..(idx + 1) * self.dim]
    }

    /// Append a knot. Times must be non-decreasing.
    #[expect(
        clippy::float_cmp,
        reason = "exact by design: only the bitwise-same instant replaces a knot"
    )]
    pub fn push(&mut self, t: f64, state: &[f64]) {
        assert_eq!(state.len(), self.dim);
        // In bounds: the history is seeded with one knot at construction and
        // never shrinks below it.
        let last = self.times[self.times.len() - 1];
        assert!(t >= last, "history times must be non-decreasing");
        if t == last {
            // Replace the knot (refinement of the same instant).
            let off = self.states.len() - self.dim;
            self.states[off..].copy_from_slice(state);
        } else {
            self.times.push(t);
            self.states.extend_from_slice(state);
            self.regrid();
        }
    }

    /// Re-derive the grid guess's scale after an end moved.
    #[inline]
    fn regrid(&mut self) {
        let (lo, last) = (self.front, self.times.len() - 1);
        // A lone knot has no interior to look up; any finite scale will do.
        self.knots_per_s = if last > lo {
            (last - lo) as f64 / (self.times[last] - self.times[lo])
        } else {
            0.0
        };
    }

    /// Earliest retained time.
    pub fn t_front(&self) -> f64 {
        self.times[self.front] // front < times.len() by construction
    }

    /// Latest recorded time.
    pub fn t_back(&self) -> f64 {
        // In bounds: seeded non-empty at construction, never shrinks below 1.
        self.times[self.times.len() - 1]
    }

    /// Interpolated value of component `c` at time `t`.
    ///
    /// * `t <= t_front()` → pre-history constant.
    /// * `t >= t_back()`  → latest value (constant extrapolation). This is
    ///   what makes intra-step stage evaluations well-defined when a delay is
    ///   smaller than the step size; the integrator keeps steps below the
    ///   smallest delay, so this path only smooths sub-step lookups.
    #[expect(
        clippy::float_cmp,
        reason = "exact by design: only a zero-width interval skips the division"
    )]
    pub fn eval(&self, t: f64, c: usize) -> f64 {
        assert!(c < self.dim, "component out of range");
        if t <= self.times[self.front] {
            // front < times.len() by construction
            return self.pre[c];
        }
        let n = self.times.len();
        if t >= self.times[n - 1] {
            // non-empty by construction
            return self.row(n - 1)[c];
        }
        if n == 1 {
            return f64::NAN; // no interior: only a NaN `t` gets here
        }
        let idx = self.locate(t);
        let (t0, t1) = (self.times[idx], self.times[idx + 1]);
        let (v0, v1) = (self.row(idx)[c], self.row(idx + 1)[c]);
        if t1 == t0 {
            return v1;
        }
        let w = (t - t0) / (t1 - t0);
        v0 + w * (v1 - v0)
    }

    /// Interpolate **every** component at time `t` into `out` (length
    /// `dim`), locating the bracketing knot pair once. Bit-identical to
    /// calling [`History::eval`] per component — the interpolation arithmetic
    /// is the same — at a single search instead of `dim`.
    #[expect(
        clippy::float_cmp,
        reason = "exact by design: only a zero-width interval skips the division"
    )]
    pub fn eval_all(&self, t: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim, "output slice dimension mismatch");
        let _span = obs::span::enter(obs::Phase::Locate);
        if t <= self.times[self.front] {
            // front < times.len() by construction
            out.copy_from_slice(&self.pre);
            return;
        }
        let n = self.times.len();
        if t >= self.times[n - 1] {
            // non-empty by construction
            out.copy_from_slice(self.row(n - 1));
            return;
        }
        if n == 1 {
            out.fill(f64::NAN); // no interior: only a NaN `t` gets here
            return;
        }
        let idx = self.locate(t);
        let (t0, t1) = (self.times[idx], self.times[idx + 1]);
        let (r0, r1) = (self.row(idx), self.row(idx + 1));
        if t1 == t0 {
            out.copy_from_slice(r1);
            return;
        }
        let w = (t - t0) / (t1 - t0);
        for ((o, &v0), &v1) in out.iter_mut().zip(r0).zip(r1) {
            *o = v0 + w * (v1 - v0);
        }
    }

    /// Interpolate the `count` components `offset, offset + stride,
    /// offset + 2·stride, …` at time `t` into `out[..count]`, locating the
    /// bracketing knot pair **once** for the whole strided slice.
    ///
    /// This is the lane access pattern (see [`crate::dde`]): a lane's
    /// state lives at components `lane, lane + B, lane + 2B, …` of a
    /// `[state_dim × B]` struct-of-arrays history row, so one call fetches a
    /// full per-lane delayed state with a single search. Bit-identical to
    /// calling [`History::eval`] per component — the interpolation arithmetic
    /// is the same.
    #[expect(
        clippy::float_cmp,
        reason = "exact by design: only a zero-width interval skips the division"
    )]
    pub fn eval_strided(
        &self,
        t: f64,
        offset: usize,
        stride: usize,
        count: usize,
        out: &mut [f64],
    ) {
        assert!(stride >= 1, "stride must be at least 1");
        assert!(
            count == 0 || offset + (count - 1) * stride < self.dim,
            "strided component range out of bounds"
        );
        assert!(out.len() >= count, "output slice too short");
        // A dense full-row request (the scalar path: stride 1 over every
        // component) takes the contiguous-zip loop of `eval_all` — same
        // per-component arithmetic, better codegen than indexed gathers.
        if stride == 1 && offset == 0 && count == self.dim {
            return self.eval_all(t, &mut out[..count]);
        }
        let _span = obs::span::enter(obs::Phase::Locate);
        if t <= self.times[self.front] {
            // front < times.len() by construction
            for (k, o) in out[..count].iter_mut().enumerate() {
                *o = self.pre[offset + k * stride];
            }
            return;
        }
        let n = self.times.len();
        if t >= self.times[n - 1] {
            // non-empty by construction
            let r = self.row(n - 1);
            for (k, o) in out[..count].iter_mut().enumerate() {
                *o = r[offset + k * stride];
            }
            return;
        }
        if n == 1 {
            out[..count].fill(f64::NAN); // no interior: only a NaN `t` gets here
            return;
        }
        let idx = self.locate(t);
        let (t0, t1) = (self.times[idx], self.times[idx + 1]);
        let (r0, r1) = (self.row(idx), self.row(idx + 1));
        if t1 == t0 {
            for (k, o) in out[..count].iter_mut().enumerate() {
                *o = r1[offset + k * stride];
            }
            return;
        }
        let w = (t - t0) / (t1 - t0);
        for (k, o) in out[..count].iter_mut().enumerate() {
            let c = offset + k * stride;
            let (v0, v1) = (r0[c], r1[c]);
            *o = v0 + w * (v1 - v0);
        }
    }

    /// Find the physical `idx` with `times[idx] <= t < times[idx + 1]`, for
    /// `t` strictly inside the live range (callers handle both ends): the
    /// grid guess, then a walk to the unique bracketing pair (module docs).
    /// A NaN `t` has no bracket: it compares false both ways, so the walk
    /// stays at the guess, and any pair interpolates it to NaN in every
    /// component. A one-knot buffer has no pair; callers answer its NaN
    /// queries before they get here.
    fn locate(&self, t: f64) -> usize {
        bump(&self.lookups);
        let lo = self.front;
        // `t_lo < t < t_hi` keeps the product within the live length (give
        // or take rounding, hence the clamp); the cast saturates (NaN → 0).
        let guess = lo + ((t - self.times[lo]) * self.knots_per_s) as usize;
        let mut idx = guess.min(self.times.len() - 2);
        while t < self.times[idx] {
            idx -= 1; // stays >= lo: times[lo] < t
        }
        while t >= self.times[idx + 1] {
            idx += 1; // idx + 1 stays <= last: t < times[last]
        }
        idx
    }

    /// Interior lookups answered so far. The integrators add this to
    /// `fluid.history_lookups` once per integration.
    pub(crate) fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Drop knots older than `t_keep` (all strictly earlier than the knot
    /// preceding `t_keep`), bounding memory for long integrations. The
    /// pre-history constant is preserved for queries that still reach back
    /// before the trimmed front (they return the oldest retained knot's
    /// segment or the pre constant).
    ///
    /// Trimming only advances the logical front; the buffers are compacted
    /// in chunks once the dead prefix outgrows the live suffix, so the cost
    /// of the copy is amortized O(1) per retired knot.
    pub fn trim_before(&mut self, t_keep: f64) {
        // The new front is the last knot at or before t_keep, so that
        // interpolation at t_keep still works; nothing to drop unless t_keep
        // is past the current front (a NaN t_keep drops nothing either).
        if t_keep.partial_cmp(&self.times[self.front]) != Some(std::cmp::Ordering::Greater) {
            return;
        }
        let last = self.times.len() - 1;
        let new_front = if t_keep >= self.times[last] {
            last
        } else {
            self.locate(t_keep)
        };
        if new_front == self.front {
            return;
        }
        self.front = new_front;
        self.pre
            .copy_from_slice(&self.states[self.front * self.dim..(self.front + 1) * self.dim]);
        self.regrid();
        // Compact once the dead prefix dominates (and is big enough for the
        // copy to be worth it).
        if self.front > 256 && self.front * 2 > self.times.len() {
            let _span = obs::span::enter(obs::Phase::Compact);
            let dropped = self.front;
            self.times.drain(..self.front);
            self.states.drain(..self.front * self.dim);
            self.front = 0;
            obs::metrics::counter_inc("fluid.history_compactions");
            obs::trace::record(
                t_keep,
                obs::Event::HistoryCompaction {
                    dropped_rows: dropped as u64,
                    retained_rows: self.times.len() as u64,
                },
            );
        }
    }

    /// Number of retained knots.
    pub fn len(&self) -> usize {
        self.times.len() - self.front
    }

    /// Always false: a history holds at least the initial knot.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_history() -> History {
        // x(t) = 2t on [0, 10], pre-history x = 0.
        let mut h = History::new(0.0, &[0.0]);
        for i in 1..=10 {
            let t = i as f64;
            h.push(t, &[2.0 * t]);
        }
        h
    }

    #[test]
    fn interpolates_linearly() {
        let h = linear_history();
        assert_eq!(h.eval(3.5, 0), 7.0);
        assert_eq!(h.eval(0.25, 0), 0.5);
        assert_eq!(h.eval(9.99, 0), 19.98);
    }

    #[test]
    fn pre_history_constant() {
        let h = linear_history();
        assert_eq!(h.eval(-5.0, 0), 0.0);
        assert_eq!(h.eval(0.0, 0), 0.0);
    }

    #[test]
    fn extrapolates_latest() {
        let h = linear_history();
        assert_eq!(h.eval(42.0, 0), 20.0);
    }

    #[test]
    fn replacing_same_time_knot() {
        let mut h = History::new(0.0, &[1.0]);
        h.push(1.0, &[5.0]);
        h.push(1.0, &[6.0]); // refine
        assert_eq!(h.eval(1.0, 0), 6.0);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn monotone_and_random_queries_agree() {
        let h = linear_history();
        // Monotone sweep, then jumps across the whole range.
        for i in 0..100 {
            let t = i as f64 * 0.1;
            assert!((h.eval(t, 0) - 2.0 * t).abs() < 1e-12);
        }
        for &t in &[9.5, 0.1, 5.5, 2.2, 8.8, 0.9] {
            assert!((h.eval(t, 0) - 2.0 * t).abs() < 1e-12);
        }
    }

    #[test]
    fn trim_preserves_interpolation_after_cut() {
        let mut h = linear_history();
        h.trim_before(5.0);
        assert!(h.len() <= 6);
        assert_eq!(h.eval(7.5, 0), 15.0);
        assert_eq!(h.eval(5.0, 0), 10.0);
    }

    #[test]
    fn trim_then_query_before_front_returns_new_pre() {
        let mut h = linear_history();
        h.trim_before(5.0);
        // Queries at or before the new front return the oldest retained knot.
        assert_eq!(h.eval(1.0, 0), 10.0);
        assert_eq!(h.t_front(), 5.0);
    }

    #[test]
    fn multi_component() {
        let mut h = History::new(0.0, &[1.0, -1.0]);
        h.push(2.0, &[3.0, -3.0]);
        assert_eq!(h.eval(1.0, 0), 2.0);
        assert_eq!(h.eval(1.0, 1), -2.0);
    }

    #[test]
    fn eval_all_matches_eval_per_component() {
        let mut h = History::new(0.0, &[1.0, -1.0, 0.5]);
        for i in 1..=20 {
            let t = i as f64 * 0.5;
            h.push(t, &[1.0 + t, -1.0 - t * t, 0.5 * t]);
        }
        let mut out = vec![0.0; 3];
        for i in -4..30 {
            let t = i as f64 * 0.37;
            h.eval_all(t, &mut out);
            for (c, &o) in out.iter().enumerate() {
                assert_eq!(o, h.eval(t, c), "t={t} c={c}");
            }
        }
    }

    #[test]
    fn eval_all_matches_eval_on_random_knots() {
        // Random (sorted) knot times and random states: eval_all must agree
        // with per-component eval to the last bit, including after trims.
        let mut rng = desim::SimRng::new(0xB0B);
        let dim = 7;
        let init: Vec<f64> = (0..dim).map(|_| rng.next_f64()).collect();
        let mut h = History::new(0.0, &init);
        let mut t = 0.0;
        let mut out = vec![0.0; dim];
        for step in 0..500 {
            t += rng.next_f64() * 0.1;
            let state: Vec<f64> = (0..dim).map(|_| rng.next_f64() * 100.0 - 50.0).collect();
            h.push(t, &state);
            if step % 97 == 0 {
                h.trim_before(t - 1.0);
            }
            // Query a batch of random times straddling the whole range.
            for _ in 0..4 {
                let tq = rng.next_f64() * (t + 1.0) - 0.5;
                h.eval_all(tq, &mut out);
                for (c, &o) in out.iter().enumerate() {
                    let direct = h.eval(tq, c);
                    assert!(
                        o.to_bits() == direct.to_bits(),
                        "t={tq} c={c}: {o} vs {direct}"
                    );
                }
            }
        }
    }

    #[test]
    fn eval_strided_matches_eval_per_component() {
        // Strided lane access must agree with per-component eval to the last
        // bit, across pre-history, interior and extrapolation regions, and
        // after trims — this is the oracle for the batched SoA lane layout.
        let mut rng = desim::SimRng::new(0xBA7C);
        let lanes = 4;
        let lane_dim = 3;
        let dim = lanes * lane_dim;
        let init: Vec<f64> = (0..dim).map(|_| rng.next_f64()).collect();
        let mut h = History::new(0.0, &init);
        let mut t = 0.0;
        let mut out = vec![0.0; lane_dim];
        for step in 0..300 {
            t += rng.next_f64() * 0.1;
            let state: Vec<f64> = (0..dim).map(|_| rng.next_f64() * 100.0 - 50.0).collect();
            h.push(t, &state);
            if step % 83 == 0 {
                h.trim_before(t - 1.0);
            }
            for _ in 0..3 {
                let tq = rng.next_f64() * (t + 1.0) - 0.5;
                for lane in 0..lanes {
                    h.eval_strided(tq, lane, lanes, lane_dim, &mut out);
                    for (k, &o) in out.iter().enumerate() {
                        let direct = h.eval(tq, lane + k * lanes);
                        assert!(
                            o.to_bits() == direct.to_bits(),
                            "t={tq} lane={lane} k={k}: {o} vs {direct}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn long_run_trim_compacts_storage() {
        // Push far more knots than the horizon retains; the physical buffers
        // must stay bounded (compaction) while interpolation stays correct.
        let mut h = History::new(0.0, &[0.0]);
        for i in 1..=20_000 {
            let t = i as f64 * 1e-3;
            h.push(t, &[2.0 * t]);
            h.trim_before(t - 0.5);
        }
        assert!(h.len() < 600, "live window bounded, len = {}", h.len());
        // Physical storage is at most ~2x the live window after compaction.
        assert!(
            h.times.capacity() < 20_000,
            "storage must not grow with total pushes: cap {}",
            h.times.capacity()
        );
        let t = 19.75;
        assert!((h.eval(t, 0) - 2.0 * t).abs() < 1e-9);
    }

    /// Knots at t = 0, 1, …, n−1 with x = 2t.
    fn ramp_history(n: usize) -> History {
        let mut h = History::new(0.0, &[0.0]);
        for i in 1..n {
            let t = i as f64;
            h.push(t, &[2.0 * t]);
        }
        h
    }

    #[test]
    fn trim_at_exact_compaction_boundary() {
        // Compaction requires front > 256 AND front * 2 > times.len().
        // front == 256 sits exactly on the first boundary: no compaction.
        let mut h = ramp_history(601);
        h.trim_before(256.0);
        assert_eq!(h.front, 256, "at the boundary the front only advances");
        assert_eq!(h.len(), 601 - 256);
        // front == 257 passes the first test but 257*2 = 514 < 601: the dead
        // prefix does not dominate yet, still no compaction.
        h.trim_before(257.0);
        assert_eq!(h.front, 257);
        // Interpolation across the retained range is unaffected.
        assert_eq!(h.eval(300.5, 0), 601.0);
        assert_eq!(h.t_front(), 257.0);
    }

    #[test]
    fn trim_just_past_compaction_boundary_compacts() {
        // 513 knots: front = 257 satisfies both front > 256 and
        // 2*257 = 514 > 513, so this trim must physically compact.
        let mut h = ramp_history(513);
        h.trim_before(257.0);
        assert_eq!(h.front, 0, "compaction resets the physical front");
        assert_eq!(h.len(), 513 - 257);
        assert_eq!(h.times.len(), h.len(), "dead prefix physically dropped");
        assert_eq!(h.eval(400.25, 0), 800.5);
        // Queries behind the new front return the oldest retained knot.
        assert_eq!(h.eval(0.0, 0), 2.0 * 257.0);
    }

    #[test]
    fn nan_query_answers_nan_in_every_component() {
        let mut h = History::new(0.0, &[1.0, -1.0, 0.5]);
        for i in 1..=20 {
            let t = f64::from(i) * 0.5;
            h.push(t, &[1.0 + t, -1.0 - t * t, 0.5 * t]);
        }
        h.trim_before(3.2);
        let mut out = vec![0.0; 3];
        for nan in [f64::NAN, -f64::NAN] {
            assert!((0..3).all(|c| h.eval(nan, c).is_nan()));
            h.eval_all(nan, &mut out);
            assert!(out.iter().all(|v| v.is_nan()));
            h.eval_strided(nan, 1, 2, 1, &mut out);
            assert!(out[0].is_nan());
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_regression() {
        let mut h = History::new(0.0, &[0.0]);
        h.push(2.0, &[1.0]);
        h.push(1.0, &[1.0]);
    }
}

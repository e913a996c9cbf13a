//! `History`'s readers against a binary search over the same knots.
//!
//! `History::locate` guesses the bracketing knot pair from the grid density
//! and walks from the guess until it brackets `t`. Knot times strictly
//! increase, so the bracket of an interior `t` is unique: here a shadow
//! copy of the knots finds it by binary search and interpolates with the
//! same arithmetic, and `eval`, `eval_all` and `eval_strided` must match it
//! bit for bit — on the grids the integrators push (`t += h` with a final
//! partial step, with and without the per-step horizon trim) and on
//! geometric and random grids where the guess is far off, before and after
//! `trim_before`.

use desim::SimRng;
use fluid::History;

/// The knots a `History` should hold, kept the obvious way.
struct Shadow {
    times: Vec<f64>,
    rows: Vec<Vec<f64>>,
    /// Index of the first live knot.
    front: usize,
    /// The answer for queries at or before the front.
    pre: Vec<f64>,
}

impl Shadow {
    fn new(t0: f64, x0: &[f64]) -> Self {
        Shadow {
            times: vec![t0],
            rows: vec![x0.to_vec()],
            front: 0,
            pre: x0.to_vec(),
        }
    }

    fn last(&self) -> usize {
        self.times.len() - 1
    }

    /// A knot at the last knot's instant replaces it.
    fn push(&mut self, t: f64, x: &[f64]) {
        let last = self.last();
        if t.to_bits() == self.times[last].to_bits() {
            self.rows[last] = x.to_vec();
        } else {
            self.times.push(t);
            self.rows.push(x.to_vec());
        }
    }

    /// The last live knot at or before `t_keep` becomes the front.
    fn trim_before(&mut self, t_keep: f64) {
        let live = &self.times[self.front..];
        let dropped = live.partition_point(|&t| t <= t_keep).saturating_sub(1);
        if dropped > 0 {
            self.front += dropped;
            self.pre = self.rows[self.front].clone();
        }
    }

    /// Component `c` at a non-NaN `t`, the bracket found by binary search.
    fn eval(&self, t: f64, c: usize) -> f64 {
        let last = self.last();
        if t <= self.times[self.front] {
            return self.pre[c];
        }
        if t >= self.times[last] {
            return self.rows[last][c];
        }
        let idx = self.front + self.times[self.front..].partition_point(|&k| k <= t) - 1;
        let (t0, t1) = (self.times[idx], self.times[idx + 1]);
        let (v0, v1) = (self.rows[idx][c], self.rows[idx + 1][c]);
        let w = (t - t0) / (t1 - t0);
        v0 + w * (v1 - v0)
    }

    /// Every interesting query: each live knot and one ulp either side of
    /// it, points at and beyond both ends, and random interior points.
    fn probes(&self, rng: &mut SimRng) -> Vec<f64> {
        let live = &self.times[self.front..];
        let (first, last) = (live[0], live[live.len() - 1]);
        let span = (last - first).max(1e-9);
        let mut out = vec![first - span, first - 1e-12, last + 1e-12, last + span];
        for &t in live {
            out.extend([t.next_down(), t, t.next_up()]);
        }
        out.extend((0..live.len()).map(|_| first + span * rng.next_f64()));
        out
    }
}

/// The history and its shadow hold the same live knots, and every reader
/// answers every probe as the binary search does, to the last bit.
fn assert_matches(h: &History, s: &Shadow, rng: &mut SimRng, what: &str) {
    assert_eq!(h.len(), s.times.len() - s.front, "{what}: live length");
    assert_eq!(
        h.t_front().to_bits(),
        s.times[s.front].to_bits(),
        "{what}: front"
    );
    let dim = h.dim();
    let mut all = vec![0.0; dim];
    let mut lane = vec![0.0; dim];
    for t in s.probes(rng) {
        h.eval_all(t, &mut all);
        for (c, &v) in all.iter().enumerate() {
            let want = s.eval(t, c).to_bits();
            assert_eq!(h.eval(t, c).to_bits(), want, "{what}: eval t={t:e} c={c}");
            assert_eq!(v.to_bits(), want, "{what}: eval_all t={t:e} c={c}");
        }
        // Stride 2 from both offsets reads every component through the
        // gather loop rather than the dense `eval_all` dispatch.
        for offset in 0..2.min(dim) {
            let count = (dim - offset).div_ceil(2);
            h.eval_strided(t, offset, 2, count, &mut lane);
            for (k, &v) in lane[..count].iter().enumerate() {
                let want = s.eval(t, offset + 2 * k).to_bits();
                assert_eq!(v.to_bits(), want, "{what}: eval_strided t={t:e}");
            }
        }
    }
}

fn random_state(rng: &mut SimRng, dim: usize) -> Vec<f64> {
    (0..dim).map(|_| rng.next_f64() * 200.0 - 100.0).collect()
}

/// A history and its shadow, fed the same knots and trims.
struct Pair {
    h: History,
    s: Shadow,
}

impl Pair {
    fn new(t0: f64, x0: &[f64]) -> Self {
        Pair {
            h: History::new(t0, x0),
            s: Shadow::new(t0, x0),
        }
    }

    fn push(&mut self, t: f64, x: &[f64]) {
        self.h.push(t, x);
        self.s.push(t, x);
    }

    fn trim_before(&mut self, t_keep: f64) {
        self.h.trim_before(t_keep);
        self.s.trim_before(t_keep);
        assert_eq!(
            self.h.len(),
            self.s.times.len() - self.s.front,
            "len after trim_before({t_keep:e})"
        );
        assert_eq!(
            self.h.t_front().to_bits(),
            self.s.times[self.s.front].to_bits(),
            "front after trim_before({t_keep:e})"
        );
    }

    fn check(&self, rng: &mut SimRng, what: &str) {
        assert_matches(&self.h, &self.s, rng, what);
    }
}

#[test]
fn integrator_grids_match_the_search_oracle() {
    // What `dde` pushes: t0, then `t += h` accumulated in floating point, a
    // final partial step, optionally the `pre != x0` knot at t0, optionally
    // the per-step horizon trim (which also compacts).
    let mut rng = SimRng::new(0x10CA7E);
    for case in 0..60 {
        let dim = 1 + case % 3;
        let t0 = rng.next_f64() * 2.0 - 1.0;
        let step = 1e-7 * (1.0 + 9999.0 * rng.next_f64());
        let steps = 2 + (rng.next_f64() * 1500.0) as usize;
        let t1 = t0 + step * (steps as f64 - rng.next_f64());
        let horizon = step * (3.5 + 400.0 * rng.next_f64());
        let trims = case % 2 == 0;
        let x0 = random_state(&mut rng, dim);
        let mut p = Pair::new(t0, &x0);
        if case % 4 < 2 {
            p.push(t0, &random_state(&mut rng, dim));
        }
        let mut t = t0;
        for i in 0..steps {
            t += (t1 - t).min(step);
            p.push(t, &random_state(&mut rng, dim));
            if trims {
                p.trim_before(t - horizon);
            }
            if i % 97 == 0 || i + 1 == steps {
                p.check(&mut rng, "integrator grid");
            }
        }
    }
}

#[test]
fn non_uniform_grids_match_the_search_oracle() {
    // Geometric and random spacings put the grid guess arbitrarily far
    // from the bracket: the walk must still land on the search's knot.
    let mut rng = SimRng::new(0x6E0);
    for case in 0..24 {
        let ratio = 1.0 + 0.03 * rng.next_f64();
        let mut gap = 1e-6;
        let mut t = 0.0;
        let x0 = random_state(&mut rng, 2);
        let mut p = Pair::new(t, &x0);
        for i in 0..400 {
            gap = if case % 2 == 0 {
                gap * ratio
            } else {
                1e-6 + rng.next_f64() * rng.next_f64() * 1e-3
            };
            t += gap;
            p.push(t, &random_state(&mut rng, 2));
            if i % 150 == 149 {
                p.check(&mut rng, "non-uniform grid, before trim");
                p.trim_before(t * rng.next_f64());
            }
        }
        p.check(&mut rng, "non-uniform grid");
        p.trim_before(t * 0.9);
        p.check(&mut rng, "non-uniform grid, trimmed");
    }
}

#[test]
fn trim_before_edge_cases_match_partition_point() {
    let mut p = Pair::new(0.0, &[0.0]);
    for i in 1..600 {
        let t = f64::from(i);
        p.push(t, &[2.0 * t]);
    }
    let mut rng = SimRng::new(7);
    for t_keep in [
        f64::NAN,
        f64::NEG_INFINITY,
        -1.0,
        0.0,
        0.5,
        1.0,
        299.0_f64.next_down(),
        299.0,
        299.0_f64.next_up(),
        100.0, // behind the front: nothing to drop
        598.5,
        1e9, // past the back: only the last knot stays
    ] {
        p.trim_before(t_keep);
        p.check(&mut rng, "ramp");
    }
    assert_eq!(p.h.len(), 1);
    assert_eq!(p.h.eval(0.0, 0), 2.0 * 599.0);
}

#[test]
fn one_knot_history_answers_nan_queries_with_nan() {
    // A lone knot has no interior: every non-NaN query is a boundary hit,
    // and a NaN one must read NaN like it does on any longer history — not
    // index a second knot that is not there.
    let fresh = History::new(0.0, &[1.0, 2.0]);
    let mut trimmed = History::new(0.0, &[1.0, 2.0]);
    for i in 1..10 {
        trimmed.push(f64::from(i), &[1.0, 2.0]);
    }
    trimmed.trim_before(1e9);
    assert_eq!(trimmed.len(), 1);
    for h in [&fresh, &trimmed] {
        let mut out = [0.0; 2];
        for nan in [f64::NAN, -f64::NAN] {
            assert!(h.eval(nan, 0).is_nan() && h.eval(nan, 1).is_nan());
            h.eval_all(nan, &mut out);
            assert!(out.iter().all(|v| v.is_nan()));
            out = [0.0; 2];
            h.eval_strided(nan, 1, 1, 1, &mut out);
            assert!(out[0].is_nan());
        }
    }
}

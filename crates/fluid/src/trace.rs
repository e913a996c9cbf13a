//! Recorded solutions of fluid-model integrations.

/// A recorded solution: times plus the full state vector at each time.
///
/// Storage mirrors [`crate::history::History`]'s flat strided layout: one
/// contiguous `Vec<f64>` holding row-major `dim`-wide state rows, so a
/// 10-flow DCQCN run records into two allocations instead of one `Vec` per
/// recorded point. Row `i` lives at `states[i*dim .. (i+1)*dim]`.
///
/// Figure runners extract named components (`queue`, `rate of flow i`) via
/// [`Trace::series`] and post-process (decimate, window, compare against the
/// packet simulator's traces).
#[derive(Debug, Clone)]
pub struct Trace {
    times: Vec<f64>,
    /// Flat row-major state storage, stride `dim`.
    states: Vec<f64>,
    dim: usize,
}

impl Trace {
    /// New empty trace for a `dim`-dimensional system.
    pub fn new(dim: usize) -> Self {
        Trace {
            times: Vec::new(),
            states: Vec::new(),
            dim,
        }
    }

    /// New empty trace with room for `rows` recorded points, for callers
    /// that know the count up front: a wide trace then never pays a
    /// grow-by-doubling copy (old + new buffer resident at once).
    pub(crate) fn with_capacity(dim: usize, rows: usize) -> Self {
        Trace {
            times: Vec::with_capacity(rows),
            states: Vec::with_capacity(rows * dim),
            dim,
        }
    }

    /// Record the state at time `t`.
    pub fn push(&mut self, t: f64, state: &[f64]) {
        assert_eq!(state.len(), self.dim, "state dimension mismatch");
        debug_assert!(
            self.times.last().is_none_or(|&last| t >= last),
            "trace times must be non-decreasing"
        );
        self.times.push(t);
        self.states.extend_from_slice(state);
    }

    /// The state dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Recorded time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// State vector at index `i` (a `dim`-wide slice of the flat buffer).
    pub fn state(&self, i: usize) -> &[f64] {
        assert!(i < self.times.len(), "trace index out of range");
        &self.states[i * self.dim..(i + 1) * self.dim]
    }

    /// Final recorded state, if any.
    pub fn last_state(&self) -> Option<&[f64]> {
        if self.times.is_empty() {
            None
        } else {
            Some(self.state(self.times.len() - 1))
        }
    }

    /// Extract component `c` as a `(t, value)` series.
    pub fn series(&self, c: usize) -> Vec<(f64, f64)> {
        assert!(c < self.dim, "component out of range");
        self.times
            .iter()
            .zip(self.states.chunks_exact(self.dim.max(1)))
            .map(|(&t, row)| (t, row[c]))
            .collect()
    }

    /// Extract component `c` restricted to `t >= from`.
    pub fn series_from(&self, c: usize, from: f64) -> Vec<(f64, f64)> {
        self.series(c)
            .into_iter()
            .filter(|&(t, _)| t >= from)
            .collect()
    }

    /// Keep roughly every n-th point (for figure output). Always keeps the
    /// first and last points.
    pub fn decimate(&self, keep_every: usize) -> Trace {
        assert!(keep_every > 0);
        let mut out = Trace::new(self.dim);
        let n = self.times.len();
        for i in 0..n {
            if i % keep_every == 0 || i == n - 1 {
                out.push(self.times[i], self.state(i));
            }
        }
        out
    }

    /// Max absolute value of component `c` over `t >= from` (oscillation
    /// amplitude probe used by stability tests).
    pub fn max_abs_from(&self, c: usize, from: f64) -> f64 {
        self.series_from(c, from)
            .iter()
            .map(|&(_, v)| v.abs())
            .fold(0.0, f64::max)
    }

    /// Peak-to-peak amplitude (max − min) of component `c` over `t >= from`.
    /// Small amplitude after a settling window ⇒ the trajectory converged;
    /// large amplitude ⇒ sustained oscillation (instability). Used to
    /// cross-check phase-margin predictions in the time domain.
    pub fn peak_to_peak_from(&self, c: usize, from: f64) -> f64 {
        let pts = self.series_from(c, from);
        if pts.is_empty() {
            return 0.0;
        }
        let max = pts
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::NEG_INFINITY, f64::max);
        let min = pts.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
        max - min
    }

    /// Time-average of component `c` over `t >= from` (trapezoidal).
    pub fn mean_from(&self, c: usize, from: f64) -> f64 {
        let pts = self.series_from(c, from);
        if pts.len() < 2 {
            return pts.first().map_or(0.0, |&(_, v)| v);
        }
        let mut area = 0.0;
        for w in pts.windows(2) {
            let (t0, v0) = w[0]; // windows(2) yields pairs
            let (t1, v1) = w[1]; // windows(2) yields pairs
            area += 0.5 * (v0 + v1) * (t1 - t0);
        }
        let t_last = pts.last().map_or(0.0, |p| p.0);
        area / (t_last - pts[0].0) // len >= 2 checked above
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Trace {
        let mut tr = Trace::new(2);
        for i in 0..=10 {
            let t = i as f64;
            tr.push(t, &[t, -t]);
        }
        tr
    }

    #[test]
    fn series_extraction() {
        let tr = ramp();
        let s = tr.series(0);
        assert_eq!(s.len(), 11);
        assert_eq!(s[3], (3.0, 3.0));
        let s1 = tr.series(1);
        assert_eq!(s1[3], (3.0, -3.0));
    }

    #[test]
    fn series_from_filters() {
        let tr = ramp();
        let s = tr.series_from(0, 7.5);
        assert_eq!(s.len(), 3); // t = 8, 9, 10
        assert_eq!(s[0].0, 8.0);
    }

    #[test]
    fn decimation_keeps_endpoints() {
        let tr = ramp();
        let d = tr.decimate(4);
        let times: Vec<f64> = d.times().to_vec();
        assert_eq!(times, vec![0.0, 4.0, 8.0, 10.0]);
    }

    #[test]
    fn amplitude_probes() {
        let mut tr = Trace::new(1);
        for i in 0..100 {
            let t = i as f64 * 0.1;
            tr.push(t, &[(t * 10.0).sin()]);
        }
        assert!(tr.max_abs_from(0, 0.0) > 0.99);
        assert!(tr.peak_to_peak_from(0, 0.0) > 1.9);
    }

    #[test]
    fn mean_of_linear_ramp() {
        let tr = ramp();
        // mean of t over [0,10] = 5
        assert!((tr.mean_from(0, 0.0) - 5.0).abs() < 1e-12);
        // restricted mean over [6,10] = 8
        assert!((tr.mean_from(0, 6.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "state dimension mismatch")]
    fn dimension_checked() {
        let mut tr = Trace::new(2);
        tr.push(0.0, &[1.0]);
    }

    #[test]
    fn empty_trace_accessors() {
        let tr = Trace::new(3);
        assert!(tr.is_empty());
        assert_eq!(tr.len(), 0);
        assert!(tr.last_state().is_none());
        assert!(tr.series(2).is_empty());
    }

    #[test]
    #[should_panic(expected = "trace index out of range")]
    fn state_index_checked() {
        let tr = Trace::new(1);
        let _ = tr.state(0);
    }

    /// The pre-flattening representation, kept as a reference oracle: the
    /// flat strided buffer must reproduce its outputs **bit for bit**.
    struct NestedTrace {
        times: Vec<f64>,
        states: Vec<Vec<f64>>,
    }

    impl NestedTrace {
        fn push(&mut self, t: f64, state: &[f64]) {
            self.times.push(t);
            self.states.push(state.to_vec());
        }
        fn series(&self, c: usize) -> Vec<(f64, f64)> {
            self.times
                .iter()
                .zip(&self.states)
                .map(|(&t, s)| (t, s[c]))
                .collect()
        }
    }

    #[test]
    fn bit_identity_with_nested_representation() {
        // Push an irrational-flavoured sequence through both layouts and
        // compare every accessor output by exact bit pattern.
        let dim = 4;
        let mut flat = Trace::new(dim);
        let mut nested = NestedTrace {
            times: Vec::new(),
            states: Vec::new(),
        };
        let mut row = vec![0.0; dim];
        for i in 0..257 {
            let t = i as f64 * 0.3331;
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = ((i * 31 + c * 7) as f64).sin() * 1e9 / (c as f64 + 0.5);
            }
            flat.push(t, &row);
            nested.push(t, &row);
        }
        assert_eq!(flat.len(), nested.times.len());
        for i in 0..flat.len() {
            assert_eq!(flat.times()[i].to_bits(), nested.times[i].to_bits());
            for c in 0..dim {
                assert_eq!(
                    flat.state(i)[c].to_bits(),
                    nested.states[i][c].to_bits(),
                    "row {i} component {c}"
                );
            }
        }
        for c in 0..dim {
            let fs = flat.series(c);
            let ns = nested.series(c);
            assert_eq!(fs.len(), ns.len());
            for (f, n) in fs.iter().zip(&ns) {
                assert_eq!(f.0.to_bits(), n.0.to_bits());
                assert_eq!(f.1.to_bits(), n.1.to_bits());
            }
        }
        // Derived probes agree bit-for-bit too (same fold order).
        let last = flat.last_state().unwrap();
        for (c, v) in last.iter().enumerate() {
            assert_eq!(v.to_bits(), nested.states.last().unwrap()[c].to_bits());
        }
    }
}

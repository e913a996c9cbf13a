//! Recorded solutions of fluid-model integrations.

use std::sync::OnceLock;

/// A recorded solution: times plus the full state vector at each time.
///
/// Storage mirrors [`crate::history::History`]'s flat strided layout: one
/// contiguous `Vec<f64>` holding row-major state rows, so a 10-flow DCQCN
/// run records into two allocations instead of one `Vec` per recorded point.
///
/// A trace may be a *column view* (what
/// [`FlowClasses::expand`](crate::classes::FlowClasses::expand) returns):
/// the state has more components than a stored row, several reading the
/// same stored column — the N-flow layout of a run integrated at the width
/// of its K flow classes. Component accessors ([`Trace::series`] and
/// what builds on it) read through the view; only a caller that asks for
/// whole rows ([`Trace::state`]) has the N-wide rows built, once.
///
/// Figure runners extract named components (`queue`, `rate of flow i`) via
/// [`Trace::series`] and post-process (decimate, window, compare against the
/// packet simulator's traces).
#[derive(Debug, Clone)]
pub struct Trace {
    times: Vec<f64>,
    /// Flat row-major storage, stride `width`. Row `i` lives at
    /// `stored[i*width .. (i+1)*width]`.
    stored: Vec<f64>,
    /// Components per stored row.
    width: usize,
    /// A column view: state component `c` is stored column `columns[c]`.
    /// `None`: a stored row is the state row.
    columns: Option<Vec<usize>>,
    /// The state rows of a column view (stride `dim`), built by the first
    /// row access.
    rows: OnceLock<Vec<f64>>,
}

impl Trace {
    /// New empty trace for a `dim`-dimensional system.
    pub fn new(dim: usize) -> Self {
        Trace {
            times: Vec::new(),
            stored: Vec::new(),
            width: dim,
            columns: None,
            rows: OnceLock::new(),
        }
    }

    /// This trace (of stored rows, not itself a view) seen through
    /// `columns`: the result has `columns.len()` components, component `c`
    /// being this trace's component `columns[c]`. Nothing is copied.
    pub(crate) fn with_columns(self, columns: Vec<usize>) -> Trace {
        assert!(self.columns.is_none(), "a view of a view");
        assert!(
            columns.iter().all(|&c| c < self.width),
            "component out of range"
        );
        Trace {
            columns: Some(columns),
            ..self
        }
    }

    /// Record the state at time `t`.
    pub fn push(&mut self, t: f64, state: &[f64]) {
        assert_eq!(state.len(), self.dim(), "state dimension mismatch");
        debug_assert!(
            self.times.last().is_none_or(|&last| t >= last),
            "trace times must be non-decreasing"
        );
        if let Some(columns) = self.columns.take() {
            // Rows can only be appended to rows: a view becomes its own.
            self.stored = self.rows.take().unwrap_or_else(|| self.gather(&columns));
            self.width = columns.len();
        }
        self.times.push(t);
        self.stored.extend_from_slice(state);
    }

    /// The state dimension.
    pub fn dim(&self) -> usize {
        self.columns.as_ref().map_or(self.width, Vec::len)
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

    /// The state rows of the column view `columns`, flat at stride
    /// `columns.len()`.
    fn gather(&self, columns: &[usize]) -> Vec<f64> {
        let mut rows = Vec::with_capacity(self.times.len() * columns.len());
        for stored in self.stored.chunks_exact(self.width.max(1)) {
            rows.extend(columns.iter().map(|&c| stored[c]));
        }
        rows
    }

    /// State vector at index `i` (a `dim`-wide slice of the flat buffer).
    pub fn state(&self, i: usize) -> &[f64] {
        assert!(i < self.times.len(), "trace index out of range");
        let rows = match &self.columns {
            Some(columns) => self.rows.get_or_init(|| self.gather(columns)),
            None => &self.stored,
        };
        let dim = self.dim();
        &rows[i * dim..(i + 1) * dim]
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
        assert!(c < self.dim(), "component out of range");
        let c = self.columns.as_ref().map_or(c, |columns| columns[c]);
        self.times
            .iter()
            .zip(self.stored.chunks_exact(self.width.max(1)))
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
    fn amplitude_probes() {
        let mut tr = Trace::new(1);
        for i in 0..100 {
            let t = i as f64 * 0.1;
            tr.push(t, &[(t * 10.0).sin()]);
        }
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
    fn column_view_reads_like_the_copied_rows() {
        // Components (0, 1) seen as (0, 1, 1, 0, 1): every accessor must
        // answer as a trace holding those five-wide rows would.
        let columns = [0usize, 1, 1, 0, 1];
        let view = ramp().with_columns(columns.to_vec());
        let mut copied = Trace::new(columns.len());
        let src = ramp();
        for (i, &t) in src.times().iter().enumerate() {
            let row: Vec<f64> = columns.iter().map(|&c| src.state(i)[c]).collect();
            copied.push(t, &row);
        }
        assert_eq!(view.dim(), 5);
        assert_eq!(view.len(), copied.len());
        for c in 0..view.dim() {
            assert_eq!(view.series(c), copied.series(c));
            assert_eq!(view.mean_from(c, 6.0), copied.mean_from(c, 6.0));
        }
        for i in 0..view.len() {
            assert_eq!(view.state(i), copied.state(i));
        }
        assert_eq!(view.last_state(), copied.last_state());
        // A push turns a view into its rows.
        let mut grown = view.clone();
        grown.push(11.0, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(grown.state(10), copied.state(10));
        assert_eq!(grown.last_state(), Some(&[1.0, 2.0, 3.0, 4.0, 5.0][..]));
        assert_eq!(grown.series(3)[10], copied.series(3)[10]);
        assert_eq!(grown.series(3)[11], (11.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "component out of range")]
    fn column_view_checks_its_columns() {
        let _ = ramp().with_columns(vec![0, 2]);
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

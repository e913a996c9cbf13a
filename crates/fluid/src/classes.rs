//! Flow-class reduction: integrate one representative per class of
//! bitwise-identical flows.
//!
//! Every fluid model here has the state layout "a few shared components
//! (queue, PI marking probability), then one fixed-width block per flow",
//! and a flow's derivative reads only its own block, its own delayed block,
//! the shared components and its own parameters. Two flows that start from
//! bitwise-equal blocks with bitwise-equal parameters therefore carry
//! bitwise-equal trajectories for the whole run — the paper's fair fixed
//! point (Theorem 1) and linearisation (Appendix A) collapse them into one
//! representative times N, and so does the integrator:
//!
//! * [`FlowClasses::partition`] groups the flows by that key;
//! * [`FlowClasses::reduce`] keeps the shared components plus one block per
//!   class, so RK4 stages, projection, the divergence watchdog, and
//!   [`History`](crate::History) pushes and delayed lookups all run at width
//!   K instead of N;
//! * [`FlowClasses::expand`] shows each class's block to all its members,
//!   so the recorded [`Trace`] has the N-flow layout callers index into.
//!
//! The only cross-flow coupling is the queue's `Σ rates`. A model sums over
//! [`FlowClasses::class_of`] — every flow in flow order, reading its class's
//! rate — which adds the same values in the same order as the unreduced
//! sum, so the result (and every bit downstream of it) is unchanged. The
//! watchdog's max-norm ranges over the same set of values, and a history
//! knot holds the same numbers, just once per class.
//!
//! There is one code path: flows that share nothing form the identity
//! partition (K = N) and go through the same loop. [`try_integrate_classes`]
//! runs all three around [`try_integrate`] for a slice of
//! [`FlowClassSystem`] lanes — the [`LaneSystem`]s with this layout — one
//! model or a batch stepping one joint partition.

use crate::dde::{pack_lanes, try_integrate, DdeOptions, LaneSystem};
use crate::trace::Trace;
use faults::SimError;
use std::collections::BTreeMap;

/// The state layout of a flow-class system: `shared` leading components
/// followed by one `per_flow`-wide block per flow (or per class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowLayout {
    /// Number of leading components every flow reads (queue, marking
    /// probability).
    pub shared: usize,
    /// Width of one flow's block.
    pub per_flow: usize,
}

impl FlowLayout {
    /// State dimension with `blocks` per-flow blocks.
    pub fn dim(&self, blocks: usize) -> usize {
        self.shared + self.per_flow * blocks
    }

    /// Block `i` of the state `x`.
    pub fn block<'a>(&self, x: &'a [f64], i: usize) -> &'a [f64] {
        &x[self.dim(i)..self.dim(i + 1)]
    }
}

/// A partition of N flows into K classes of bitwise-identical flows.
///
/// Classes are numbered by first appearance in flow order, so each class's
/// representative is its first member, representatives ascend, and the
/// partition of flows that share nothing is the identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowClasses {
    class_of: Vec<usize>,
    representatives: Vec<usize>,
}

impl FlowClasses {
    /// Every flow in a class of its own (K = N).
    pub fn identity(n_flows: usize) -> Self {
        FlowClasses {
            class_of: (0..n_flows).collect(),
            representatives: (0..n_flows).collect(),
        }
    }

    /// Partition the flows of the N-flow state(s) `states` by bitwise
    /// equality of their blocks and of whatever per-flow parameter bits
    /// `params(i, key)` appends. Several states partition jointly (two flows
    /// share a class only if their blocks agree in every state) — batch
    /// lanes step one shared partition.
    pub fn partition(
        layout: FlowLayout,
        states: &[&[f64]],
        params: impl Fn(usize, &mut Vec<u64>),
    ) -> Self {
        let len = states.first().map_or(layout.shared, |x| x.len());
        assert!(
            layout.per_flow > 0 && len >= layout.shared,
            "state shorter than its shared components"
        );
        let n_flows = (len - layout.shared) / layout.per_flow;
        for x in states {
            assert_eq!(x.len(), layout.dim(n_flows), "states must share a layout");
        }
        let mut seen: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
        let mut class_of = Vec::with_capacity(n_flows);
        let mut representatives = Vec::new();
        for i in 0..n_flows {
            let mut key = Vec::with_capacity(states.len() * layout.per_flow + 1);
            for x in states {
                key.extend(layout.block(x, i).iter().map(|v| v.to_bits()));
            }
            params(i, &mut key);
            let class = *seen.entry(key).or_insert_with(|| {
                representatives.push(i);
                representatives.len() - 1
            });
            class_of.push(class);
        }
        FlowClasses {
            class_of,
            representatives,
        }
    }

    /// Number of flows N.
    pub fn n_flows(&self) -> usize {
        self.class_of.len()
    }

    /// Number of classes K.
    pub fn len(&self) -> usize {
        self.representatives.len()
    }

    /// True when there are no flows.
    pub fn is_empty(&self) -> bool {
        self.representatives.is_empty()
    }

    /// The class of each flow, in flow order. Cross-flow sums iterate this
    /// (reading the class's value once per member) so they add the same
    /// values in the same order as the unreduced sum.
    pub fn class_of(&self) -> &[usize] {
        &self.class_of
    }

    /// The first member of each class, in class order.
    pub fn representatives(&self) -> &[usize] {
        &self.representatives
    }

    /// The K-class state of the N-flow state `x`: the shared components,
    /// then each representative's block. Panics if a flow's block differs
    /// from its representative's — such a partition would silently change
    /// the solution.
    pub fn reduce(&self, layout: FlowLayout, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), layout.dim(self.n_flows()), "state/partition size");
        for (i, &k) in self.class_of.iter().enumerate() {
            let (own, rep) = (layout.block(x, i), layout.block(x, self.representatives[k]));
            assert!(
                own.iter().zip(rep).all(|(a, b)| a.to_bits() == b.to_bits()),
                "flow {i} differs from its class representative"
            );
        }
        let mut out = Vec::with_capacity(layout.dim(self.len()));
        out.extend_from_slice(&x[..layout.shared]);
        for &rep in &self.representatives {
            out.extend_from_slice(layout.block(x, rep));
        }
        out
    }

    /// The N-flow trace of a K-class trace: every row's shared components,
    /// then for each flow its class's block. A column view of `reduced`
    /// (see [`Trace`]): the N-wide rows are built only for a caller that
    /// reads whole rows.
    pub fn expand(&self, layout: FlowLayout, reduced: Trace) -> Trace {
        assert_eq!(
            reduced.dim(),
            layout.dim(self.len()),
            "trace/partition size"
        );
        if self.len() == self.n_flows() {
            // First-appearance numbering makes K = N the identity.
            return reduced;
        }
        let mut columns: Vec<usize> = (0..layout.shared).collect();
        for &k in &self.class_of {
            columns.extend(layout.dim(k)..layout.dim(k + 1));
        }
        reduced.with_columns(columns)
    }
}

/// A [`LaneSystem`] whose per-flow loop runs over the classes of an
/// installed [`FlowClasses`] partition: its [`LaneSystem::lane_dim`] is
/// `layout().dim(K)`, block `k` of its state is class `k`'s, and its
/// cross-flow sums iterate [`FlowClasses::class_of`]. A freshly built model
/// holds the identity partition.
pub trait FlowClassSystem: LaneSystem {
    /// The shared/per-flow split of the state.
    fn layout(&self) -> FlowLayout;

    /// Append the bits of flow `i`'s per-flow parameters (anything beyond
    /// its state block that its derivative reads, e.g. a start time) to the
    /// partition key. Default: no per-flow parameters. Shared inputs —
    /// model parameters, a jitter process — stay outside the key.
    fn flow_param_bits(&self, _i: usize, _key: &mut Vec<u64>) {}

    /// The installed partition — the one the right-hand side loops over.
    fn classes_mut(&mut self) -> &mut FlowClasses;

    /// The partition of this system's flows starting from the N-flow state
    /// `x0`: what [`try_integrate_classes`] steps a one-lane run under.
    fn flow_classes(&self, x0: &[f64]) -> FlowClasses {
        FlowClasses::partition(self.layout(), &[x0], |i, key| self.flow_param_bits(i, key))
    }
}

/// Integrate the lanes `lanes` from the N-flow starts `x0s` (one per lane,
/// constant pre-history) at the width of their joint flow partition, and
/// return each lane's trace in the N-flow layout; what the models'
/// `simulate*` call, a one-model run with `std::slice::from_mut`.
///
/// Two flows share a class only if their blocks agree in every lane's start
/// and their [`FlowClassSystem::flow_param_bits`] agree in every lane; for
/// one lane that is [`FlowClassSystem::flow_classes`]. Every lane gets its
/// previous partition back afterwards. Results are as
/// [`try_integrate`]'s, and bit for bit those of the run under
/// [`FlowClasses::identity`] (a fresh model's partition), including a
/// divergence's time and step.
pub fn try_integrate_classes<S: FlowClassSystem>(
    lanes: &mut [S],
    x0s: &[Vec<f64>],
    t0: f64,
    t1: f64,
    opts: &DdeOptions,
) -> Result<Vec<Result<Trace, SimError>>, SimError> {
    let config = |detail: String| SimError::config("try_integrate_classes", detail);
    let Some(first) = lanes.first_mut() else {
        return Err(config("zero lanes".into()));
    };
    let layout = first.layout();
    let n_flows = first.classes_mut().n_flows();
    let dim = layout.dim(n_flows);
    let b = lanes.len();
    if x0s.len() != b
        || x0s.iter().any(|x0| x0.len() != dim)
        || lanes
            .iter_mut()
            .any(|m| m.classes_mut().n_flows() != n_flows)
    {
        return Err(config(format!(
            "state dimension mismatch: {b} lanes of {n_flows} flows need {b} starts of \
             {dim} components, got {} starts",
            x0s.len()
        )));
    }
    let states: Vec<&[f64]> = x0s.iter().map(Vec::as_slice).collect();
    let classes = FlowClasses::partition(layout, &states, |i, key| {
        for m in lanes.iter() {
            m.flow_param_bits(i, key);
        }
    });
    let reduced: Vec<Vec<f64>> = x0s.iter().map(|x0| classes.reduce(layout, x0)).collect();
    let previous: Vec<FlowClasses> = lanes
        .iter_mut()
        .map(|m| std::mem::replace(m.classes_mut(), classes.clone()))
        .collect();
    let result = try_integrate(lanes, &pack_lanes(&reduced), t0, t1, opts);
    for (m, p) in lanes.iter_mut().zip(previous) {
        *m.classes_mut() = p;
    }
    Ok(result?
        .into_iter()
        .map(|lane| lane.map(|trace| classes.expand(layout, trace)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAYOUT: FlowLayout = FlowLayout {
        shared: 1,
        per_flow: 2,
    };

    #[test]
    fn partition_numbers_classes_by_first_appearance() {
        // blocks: A B A C B
        let x = [9.0, 1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 5.0, 6.0, 3.0, 4.0];
        let p = FlowClasses::partition(LAYOUT, &[&x], |_, _| {});
        assert_eq!(p.class_of(), &[0, 1, 0, 2, 1]);
        assert_eq!(p.representatives(), &[0, 1, 3]);
        assert_eq!(
            p.reduce(LAYOUT, &x),
            vec![9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
    }

    #[test]
    fn key_is_bitwise_and_includes_params() {
        // 0.0 and -0.0 compare equal but are different bits: not merged.
        let x = [0.0, 0.0, 1.0, -0.0, 1.0, 0.0, 1.0];
        let p = FlowClasses::partition(LAYOUT, &[&x], |_, _| {});
        assert_eq!(p.class_of(), &[0, 1, 0]);
        // Equal blocks, distinct per-flow parameter: not merged.
        let y = [0.0, 7.0, 7.0, 7.0, 7.0];
        let starts = [0.0f64, 0.01];
        let q = FlowClasses::partition(LAYOUT, &[&y], |i, key| key.push(starts[i].to_bits()));
        assert_eq!(q, FlowClasses::identity(2));
    }

    #[test]
    fn joint_partition_is_the_common_refinement() {
        let a = [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let b = [0.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0];
        let p = FlowClasses::partition(LAYOUT, &[&a, &b], |_, _| {});
        assert_eq!(p.class_of(), &[0, 0, 1]);
    }

    #[test]
    fn expand_inverts_reduce_row_by_row() {
        let x = [9.0, 1.0, 2.0, 3.0, 4.0, 1.0, 2.0];
        let p = FlowClasses::partition(LAYOUT, &[&x], |_, _| {});
        let mut reduced = Trace::new(LAYOUT.dim(p.len()));
        reduced.push(0.0, &p.reduce(LAYOUT, &x));
        reduced.push(1.0, &[8.0, 10.0, 20.0, 30.0, 40.0]);
        let full = p.expand(LAYOUT, reduced);
        assert_eq!(full.dim(), x.len());
        assert_eq!(full.state(0), &x);
        assert_eq!(full.state(1), &[8.0, 10.0, 20.0, 30.0, 40.0, 10.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "differs from its class representative")]
    fn reduce_rejects_a_partition_that_merges_distinct_flows() {
        let merged = FlowClasses::partition(LAYOUT, &[&[0.0, 1.0, 1.0, 1.0, 1.0]], |_, _| {});
        merged.reduce(LAYOUT, &[0.0, 1.0, 1.0, 2.0, 2.0]);
    }
}

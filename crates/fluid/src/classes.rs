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
//! partition (K = N) and go through the same loop.

use crate::dde::{try_integrate_dde, DdeOptions, DdeSystem};
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

/// A [`DdeSystem`] whose per-flow loop runs over the classes of an installed
/// [`FlowClasses`] partition: its [`DdeSystem::dim`] is
/// `layout().dim(K)`, block `k` of its state is class `k`'s, and its
/// cross-flow sums iterate [`FlowClasses::class_of`]. A freshly built model
/// holds the identity partition.
pub trait FlowClassSystem: DdeSystem {
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
    /// `x0`.
    fn flow_classes(&self, x0: &[f64]) -> FlowClasses {
        FlowClasses::partition(self.layout(), &[x0], |i, key| self.flow_param_bits(i, key))
    }
}

/// Integrate `sys` from the N-flow state `x0` (constant pre-history `x0`)
/// at the width of `classes`, and return the trace in the N-flow layout.
/// `sys` gets its previous partition back afterwards.
///
/// With [`FlowClassSystem::flow_classes`]`(x0)` this is bit-for-bit the run
/// under [`FlowClasses::identity`], including a divergence's time and step.
pub fn try_integrate_classes<S: FlowClassSystem>(
    sys: &mut S,
    classes: FlowClasses,
    x0: &[f64],
    t0: f64,
    t1: f64,
    opts: &DdeOptions,
) -> Result<Trace, SimError> {
    let layout = sys.layout();
    let n_flows = sys.classes_mut().n_flows();
    if classes.n_flows() != n_flows || x0.len() != layout.dim(n_flows) {
        return Err(SimError::config(
            "integrate_classes",
            format!(
                "state dimension mismatch: {n_flows} flows need {} components, \
                 x0 len {}, partition of {} flows",
                layout.dim(n_flows),
                x0.len(),
                classes.n_flows()
            ),
        ));
    }
    let reduced = classes.reduce(layout, x0);
    let previous = std::mem::replace(sys.classes_mut(), classes);
    let result = try_integrate_dde(sys, &reduced, t0, t1, opts);
    let classes = std::mem::replace(sys.classes_mut(), previous);
    result.map(|trace| classes.expand(layout, trace))
}

/// Integrate `sys` from the N-flow state `x0` under its own flow partition
/// ([`FlowClassSystem::flow_classes`]); what the models' `simulate*` call.
/// Panics on invalid options or divergence, like
/// [`integrate_dde`](crate::dde::integrate_dde).
pub fn integrate_flow_classes<S: FlowClassSystem>(
    sys: &mut S,
    x0: &[f64],
    t0: f64,
    t1: f64,
    opts: &DdeOptions,
) -> Trace {
    let classes = sys.flow_classes(x0);
    try_integrate_classes(sys, classes, x0, t0, t1, opts).unwrap_or_else(|e| panic!("{e}"))
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

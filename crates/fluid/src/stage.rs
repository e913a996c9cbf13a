//! Stage slots: evaluate what a derivative takes from delayed state once
//! per *stage instant* of an RK4 step instead of once per stage.
//!
//! An RK4 step from `t` to `t + h` calls the right-hand side four times but
//! at only three instants — `t`, `t + h/2` (stages 2 and 3) and `t + h`,
//! which the next step's stage 1 revisits bit for bit (`t += h`). A model
//! whose delayed lookups all land on one instant that is a function of `t`
//! alone (DCQCN's constant, egress-marked `τ*`, jittered or not) derives the
//! same numbers from the same history at every revisit: the delayed row, and
//! every transcendental built from it. Such a model opts in by implementing
//! [`StagedLane`], its lane kernel split in two:
//!
//! * **phase one** ([`StagedLane::stage`]) reads the lane's state row at the
//!   delayed instant ([`StagedLane::delayed_instant`]) and builds everything
//!   that depends on delayed state only into a flat per-lane slot;
//! * **phase two** ([`StagedLane::rhs_staged`]) is the arithmetic on the
//!   current stage state, reading that slot.
//!
//! The integrator, [`try_integrate`](crate::dde::try_integrate), is the
//! only party that knows which instants repeat, so it owns the slots
//! ([`Stages`], created and dropped inside one integration) and names the
//! instant of every call ([`StageInstant`]). `mid` is filled by stage 2 and
//! reused by stage 3 — no knot moves in between. `end` is
//! filled by stage 4 and handed to the next step's stage 1, but only if the
//! `push` and `trim_before` in between cannot have changed the lookup's
//! answer (`Stages::advance`); otherwise stage 1 refills. Outputs are
//! therefore bit-identical to calling the unsplit kernel four times a step.
//!
//! Models whose delays depend on the stage state (TIMELY's `τ′ = q/C + …`,
//! Eq 24) cannot opt in: stages 2 and 3 share `t` but not `x`, so they do
//! not share a delayed instant. They implement [`LaneSystem`] alone and are
//! called through [`LaneSystem::lane_rhs`] on every stage.

use crate::dde::{lane_of, LaneSystem};
use crate::history::History;

/// Which of an RK4 step's three stage instants a derivative is evaluated at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageInstant {
    /// `t`: stage 1.
    Start,
    /// `t + h/2`: stages 2 and 3.
    Mid,
    /// `t + h`: stage 4, and bitwise the next step's `Start`.
    End,
}

/// A [`LaneSystem`] whose kernel is split at the delayed lookup, so that an
/// integrator can run phase one once per stage instant ([`Stages::rhs`]).
///
/// To opt in, implement the three phase methods, make
/// [`LaneSystem::lane_rhs`] the provided [`StagedLane::rhs_unstaged`] (the
/// unsplit kernel *is* the two phases back to back), and route
/// [`try_integrate`](crate::dde::try_integrate)'s calls to the slots:
/// [`LaneSystem::lanes_rhs_at`] becomes `stages.rhs(..)` (a one-model run
/// calls it with a one-lane slice). A model that leaves it at its default
/// still integrates to the same bits, four phase-one runs a step.
pub trait StagedLane: LaneSystem {
    /// The one instant every delayed lookup of this lane's derivative at
    /// time `t` reads the history at. It depends on `t` alone — never on the
    /// stage state.
    fn delayed_instant(&self, t: f64) -> f64;

    /// Phase one: from this lane's state row at its delayed instant
    /// (`delayed`: lane-local dense, `lane_dim` long) push onto the empty
    /// `terms` everything the derivative takes from delayed state, in
    /// whatever layout [`StagedLane::rhs_staged`] reads.
    fn stage(&self, delayed: &[f64], terms: &mut Vec<f64>);

    /// Phase two: this lane's derivative at the stage state `x` (strided
    /// like [`LaneSystem::lane_rhs`]'s), given what [`StagedLane::stage`]
    /// built at this stage's delayed instant.
    fn rhs_staged(
        &mut self,
        x: &[f64],
        lane: usize,
        stride: usize,
        terms: &[f64],
        dxdt: &mut [f64],
    );

    /// Both phases back to back at `(t, x)`: read the delayed row, phase
    /// one, phase two. This is the lane's [`LaneSystem::lane_rhs`] — the
    /// call outside an integrator's stage slots.
    fn rhs_unstaged(
        &mut self,
        t: f64,
        x: &[f64],
        lane: usize,
        stride: usize,
        hist: &History,
        dxdt: &mut [f64],
    ) {
        let mut delayed = vec![0.0; self.lane_dim()];
        hist.eval_strided(
            self.delayed_instant(t),
            lane,
            stride,
            delayed.len(),
            &mut delayed,
        );
        let mut terms = Vec::new();
        self.stage(&delayed, &mut terms);
        self.rhs_staged(x, lane, stride, &terms, dxdt);
    }
}

/// What phase one built for one lane at one stage instant.
#[derive(Debug, Default)]
struct Slot {
    /// Whether `terms` holds this instant's phase-one output.
    filled: bool,
    /// The delayed instant `terms` was built at.
    td: f64,
    /// The history's back knot when `terms` was built.
    back_at_fill: f64,
    /// The model's phase-one output, in the model's own layout.
    terms: Vec<f64>,
}

/// The stage slots of one integration: `[start, mid, end]` per lane, plus
/// the scratch rows phase one interpolates into. A one-model run is the
/// one-lane case.
#[derive(Debug)]
pub struct Stages {
    slots: Vec<[Slot; 3]>,
    /// The whole `[lane_dim × B]` block row at a delayed instant every lane
    /// shares.
    block: Vec<f64>,
    /// One lane's dense delayed row.
    row: Vec<f64>,
    /// Phase-one fills so far, over all lanes.
    fills: u64,
}

impl Stages {
    /// Empty slots for `lanes` lanes.
    pub(crate) fn new(lanes: usize) -> Self {
        Stages {
            slots: (0..lanes).map(|_| Default::default()).collect(),
            block: Vec::new(),
            row: Vec::new(),
            fills: 0,
        }
    }

    /// The derivative of every lane of `models` (lane `l` at stride
    /// `models.len()` of `x` / `dxdt`) at stage instant `at` of the current
    /// step. A lane runs phase one only if its slot for `at` is empty.
    ///
    /// The batch's half of phase one: when every lane is due a fill at the
    /// bitwise-same delayed instant, the whole block row is interpolated
    /// once ([`History::eval_all`]: one knot search, one dense lerp) and
    /// each lane gathers its slice; otherwise each lane reads its own
    /// strided row ([`History::eval_strided`]). The two interpolate every
    /// component with the same arithmetic.
    pub fn rhs<M: StagedLane>(
        &mut self,
        models: &mut [M],
        at: StageInstant,
        t: f64,
        x: &[f64],
        hist: &History,
        dxdt: &mut [f64],
    ) {
        let Stages {
            slots,
            block,
            row,
            fills,
        } = self;
        let stride = models.len();
        assert_eq!(stride, slots.len(), "one set of stage slots per lane");
        let Some(first) = models.first() else {
            return;
        };
        let n = first.lane_dim();
        row.resize(n, 0.0);
        let at = at as usize;

        let shared = (stride > 1)
            .then(|| first.delayed_instant(t))
            .filter(|td0| {
                models.iter().zip(slots.iter()).all(|(m, lane)| {
                    !lane[at].filled && m.delayed_instant(t).to_bits() == td0.to_bits()
                })
            });
        if let Some(td) = shared {
            block.resize(n * stride, 0.0);
            hist.eval_all(td, block);
        }

        for (lane, (m, lane_slots)) in models.iter_mut().zip(slots.iter_mut()).enumerate() {
            let slot = &mut lane_slots[at];
            if slot.filled {
                debug_assert!(
                    m.delayed_instant(t).to_bits() == slot.td.to_bits(),
                    "lane {lane}: a stage slot was reused at another delayed instant"
                );
            } else {
                let td = m.delayed_instant(t);
                if shared.is_some() {
                    for (c, r) in row.iter_mut().enumerate() {
                        *r = block[lane_of(c, lane, stride)];
                    }
                } else {
                    hist.eval_strided(td, lane, stride, n, row);
                }
                slot.terms.clear();
                m.stage(row, &mut slot.terms);
                slot.filled = true;
                slot.td = td;
                slot.back_at_fill = hist.t_back();
                *fills += 1;
            }
            m.rhs_staged(x, lane, stride, &slot.terms, dxdt);
        }
    }

    /// Move to the next step, after the step's `push` and `trim_before`:
    /// `mid` and `end` empty, and `end` becomes `start` where its lookup
    /// reads the same on the history as it is now.
    ///
    /// That holds when the lookup was interior both then and now — the
    /// bracketing knot pair of an interior instant is unique and no method
    /// rewrites an interior knot — and the push appended rather than
    /// replaced the back knot: `t_front() < td < back_at_fill < t_back()`.
    /// An instant at or beyond the old back knot was answered by clamping to
    /// a knot that is no longer the last (any delay below the step lands
    /// there), and one at or before the front reads a pre-history row that a
    /// trim may have replaced; both refill.
    pub(crate) fn advance(&mut self, hist: &History) {
        if self.fills == 0 {
            return; // the system is not a `StagedLane`: every slot is still empty
        }
        let (front, back) = (hist.t_front(), hist.t_back());
        for lane_slots in &mut self.slots {
            let [start, mid, end] = lane_slots;
            std::mem::swap(start, end);
            start.filled = start.filled
                && front < start.td
                && start.td < start.back_at_fill
                && start.back_at_fill < back;
            mid.filled = false;
            end.filled = false;
        }
    }

    /// Phase-one fills so far, summed over lanes.
    pub(crate) fn fills(&self) -> u64 {
        self.fills
    }
}

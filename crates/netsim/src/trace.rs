//! Deterministic per-link trace storage.
//!
//! A sorted-`Vec` map from [`LinkId`] to [`TimeSeries`]. Link ids are small
//! dense indices, so a sorted vector gives `O(log n)` lookup with fully
//! deterministic iteration order — unlike `HashMap`, whose iteration order
//! varies run to run and is banned from simulation logic by `clippy.toml`.

use crate::topology::LinkId;
use desim::stats::TimeSeries;

/// Map from link id to its recorded queue-occupancy trace, iterated in
/// ascending link order.
#[derive(Debug, Default, Clone)]
pub struct LinkTraceMap {
    entries: Vec<(LinkId, TimeSeries)>,
}

impl LinkTraceMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, link: LinkId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&link.0, |(l, _)| l.0)
    }

    /// Insert or replace the trace for `link`.
    pub fn insert(&mut self, link: LinkId, trace: TimeSeries) {
        match self.position(link) {
            Ok(i) => self.entries[i].1 = trace,
            Err(i) => self.entries.insert(i, (link, trace)),
        }
    }

    /// The trace for `link`, if traced.
    pub fn get(&self, link: LinkId) -> Option<&TimeSeries> {
        self.position(link).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable trace for `link`, if traced.
    pub fn get_mut(&mut self, link: LinkId) -> Option<&mut TimeSeries> {
        match self.position(link) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Position of `link`'s trace in iteration order, if traced. Stable
    /// until the next `insert`; the engine resolves it once per link so the
    /// per-packet path indexes instead of searching.
    pub(crate) fn slot_of(&self, link: LinkId) -> Option<usize> {
        self.position(link).ok()
    }

    /// Hand out the traces recorded so far, leaving every link an empty
    /// trace of the same resolution (slots stay valid): the engine's report
    /// takes them, and a later run on the same engine keeps recording.
    pub(crate) fn take_traces(&mut self) -> LinkTraceMap {
        let entries = self
            .entries
            .iter_mut()
            .map(|(l, t)| (*l, std::mem::replace(t, TimeSeries::new(t.resolution()))))
            .collect();
        LinkTraceMap { entries }
    }

    /// Mutable trace at a slot returned by [`LinkTraceMap::slot_of`].
    pub(crate) fn slot_mut(&mut self, slot: usize) -> Option<&mut TimeSeries> {
        self.entries.get_mut(slot).map(|(_, t)| t)
    }

    /// Is `link` traced?
    pub fn contains_key(&self, link: LinkId) -> bool {
        self.position(link).is_ok()
    }

    /// Traces in ascending link order.
    pub fn values(&self) -> impl Iterator<Item = &TimeSeries> {
        self.entries.iter().map(|(_, t)| t)
    }

    /// `(link, trace)` pairs in ascending link order.
    pub fn iter(&self) -> impl Iterator<Item = (LinkId, &TimeSeries)> {
        self.entries.iter().map(|(l, t)| (*l, t))
    }

    /// Number of traced links.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no links are traced.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl std::ops::Index<&LinkId> for LinkTraceMap {
    type Output = TimeSeries;
    fn index(&self, link: &LinkId) -> &TimeSeries {
        match self.get(*link) {
            Some(t) => t,
            None => panic!("link {} is not traced", link.0),
        }
    }
}

impl<'a> IntoIterator for &'a LinkTraceMap {
    type Item = (LinkId, &'a TimeSeries);
    type IntoIter = Box<dyn Iterator<Item = (LinkId, &'a TimeSeries)> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimTime;

    #[test]
    fn insert_get_sorted_iteration() {
        let mut m = LinkTraceMap::new();
        for l in [3usize, 1, 2, 0] {
            let mut t = TimeSeries::new(1e-6);
            t.record(SimTime::from_nanos(l as u64), l as f64);
            m.insert(LinkId(l), t);
        }
        assert_eq!(m.len(), 4);
        assert!(m.contains_key(LinkId(2)));
        assert!(!m.contains_key(LinkId(9)));
        let order: Vec<usize> = m.iter().map(|(l, _)| l.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3], "iteration is ascending by link");
        assert_eq!(m[&LinkId(3)].points()[0].1, 3.0);
        assert!(m.get(LinkId(7)).is_none());
        let slot = m.slot_of(LinkId(2)).expect("traced");
        assert_eq!(m.slot_mut(slot).expect("in range").points()[0].1, 2.0);
        assert!(m.slot_of(LinkId(7)).is_none());
        assert!(LinkTraceMap::new().slot_mut(slot).is_none());
    }

    #[test]
    fn insert_replaces() {
        let mut m = LinkTraceMap::new();
        m.insert(LinkId(0), TimeSeries::new(1e-6));
        let mut t = TimeSeries::new(1e-3);
        t.record(SimTime::ZERO, 42.0);
        m.insert(LinkId(0), t);
        assert_eq!(m.len(), 1);
        assert_eq!(m[&LinkId(0)].points()[0].1, 42.0);
    }
}

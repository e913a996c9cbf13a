//! Spans the benchmark records *around* its calls into the crates' public
//! functions: layer, name, start, end, parent, pass id, plus the count of
//! work done at that boundary. Spans are kept in memory and written out when
//! the run ends; nothing here reaches into the crates (in-program spans are a
//! later issue).
//!
//! A span's parent is passed explicitly through [`Ctx`], never through
//! thread-local state, so spans recorded on `desim::par` worker threads hang
//! off the pass span that fanned them out.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One finished span. `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub pass: u32,
    pub layer: &'static str,
    pub name: &'static str,
    /// Which instance of `name` this is (artifact id, packet cell), or empty.
    pub detail: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counted at this boundary (events, bytes, grid points, flows), so
    /// that rates are measured where the work happens.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    pub fn count_of(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|&(_, n)| n)
            .sum()
    }
}

pub struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switch recording on or off. Off, a span costs one relaxed load and
    /// reads no clock, so untraced passes measure the program alone.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// The context under which pass `pass` records its root span.
    pub fn pass(&self, pass: u32) -> Ctx<'_> {
        Ctx {
            rec: self,
            parent: 0,
            pass,
        }
    }

    pub fn take(&self) -> Vec<Span> {
        let mut spans =
            std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Where a new span hangs: the recorder, its parent span and its pass.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    rec: &'a Recorder,
    parent: u32,
    pass: u32,
}

/// Handed to the code inside a span: the context for child spans, and the
/// place to note work counts observed at this boundary.
pub struct Scope<'a> {
    pub ctx: Ctx<'a>,
    counts: Vec<(&'static str, u64)>,
}

impl Scope<'_> {
    pub fn count(&mut self, key: &'static str, n: u64) {
        self.counts.push((key, n));
    }
}

impl<'a> Ctx<'a> {
    /// Run `f` inside a span. Panics in `f` propagate; the span is then lost,
    /// which is fine because the caller counts the artifact as failed.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        detail: &str,
        f: impl FnOnce(&mut Scope<'a>) -> T,
    ) -> T {
        if !self.rec.on.load(Ordering::Relaxed) {
            return f(&mut Scope {
                ctx: *self,
                counts: Vec::new(),
            });
        }
        let id = self.rec.next_id.fetch_add(1, Ordering::Relaxed);
        let mut scope = Scope {
            ctx: Ctx {
                rec: self.rec,
                parent: id,
                pass: self.pass,
            },
            counts: Vec::new(),
        };
        let start_ns = self.rec.epoch.elapsed().as_nanos() as u64;
        let out = f(&mut scope);
        let end_ns = self.rec.epoch.elapsed().as_nanos() as u64;
        self.rec
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Span {
                id,
                parent: self.parent,
                pass: self.pass,
                layer,
                name,
                detail: detail.to_string(),
                start_ns,
                end_ns,
                counts: scope.counts,
            });
        out
    }
}

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of that interval its direct children cover. Children of a pass
/// span run on several threads and overlap, so coverage is the union of the
/// child intervals, not their sum.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::BTreeMap<u32, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.end_ns - s.start_ns;
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// One JSON object per line, in span-id (start) order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let counts: Vec<String> = s
            .counts
            .iter()
            .map(|(k, n)| format!("\"{k}\": {n}"))
            .collect();
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"pass\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"detail\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"counts\": {{{}}}}}",
            s.id, s.parent, s.pass, s.layer, s.name, s.detail, s.start_ns, s.end_ns, counts.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            pass: 1,
            layer: "bench",
            name: "t",
            detail: String::new(),
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 with siblings 10..30 and 40..70; the second has a
        // nested child 45..55 that must not be subtracted from the root twice.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 40, 70),
            span(4, 3, 45, 55),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn self_time_uses_the_union_of_overlapping_children() {
        // Two workers under one pass span: 0..60 and 20..90 cover 0..90.
        let spans = [span(1, 0, 0, 100), span(2, 1, 0, 60), span(3, 1, 20, 90)];
        assert_eq!(self_times_ns(&spans), vec![10, 60, 70]);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_enabled_links_parents() {
        let rec = Recorder::new();
        let v = rec.pass(1).span("bench", "pass", "", |_| 7);
        assert_eq!(v, 7);
        assert!(rec.take().is_empty());

        rec.set_enabled(true);
        rec.pass(3).span("bench", "pass", "", |s| {
            s.ctx.span("store", "store.serve", "fig4", |inner| {
                inner.count("bytes", 42)
            });
        });
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        let (root, child) = (&spans[0], &spans[1]);
        assert_eq!((root.parent, root.pass, root.name), (0, 3, "pass"));
        assert_eq!(
            (child.parent, child.pass, child.count_of("bytes")),
            (root.id, 3, 42)
        );
        assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        let line = to_jsonl(&spans);
        assert_eq!(line.lines().count(), 2);
        store::json::parse(line.lines().nth(1).expect("two lines")).expect("valid JSON");
    }
}

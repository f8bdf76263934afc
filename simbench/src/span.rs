//! In-memory host-time spans around calls into the simulator's layers.
//!
//! Spans are recorded only while a recorder is active on the thread, so the
//! untraced runs pay one thread-local flag test per call site. Each span
//! keeps the span that was open when it started as its parent; a layer's
//! self time is its duration minus the part of that interval its children
//! cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are host nanoseconds since the recorder started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding any earlier spans.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stops recording and returns the closed spans in start order.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        let rec = r
            .borrow_mut()
            .take()
            .expect("span recorder was not started");
        assert!(rec.open.is_empty(), "spans still open at finish");
        rec.spans
    })
}

/// Open span; closes when dropped. Inert when no recorder is active.
pub struct Guard(Option<u32>);

/// Opens a span named `name` under the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        let Some(rec) = slot.as_mut() else {
            return Guard(None);
        };
        let id = rec.spans.len() as u32;
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            parent: rec.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        rec.open.push(id);
        Guard(Some(id))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let end = rec.origin.elapsed().as_nanos() as u64;
                rec.spans[id as usize].end_ns = end;
                if rec.open.last() == Some(&id) {
                    rec.open.pop();
                }
            }
        });
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of `[lo, hi)` covered by the union of `intervals`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Sums count, duration and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps `a`: the union 10..40 counts once.
            span("b", Some(0), 20, 40),
            // Runs past the parent's end: only 90..100 is covered.
            span("c", Some(0), 90, 120),
            span("leaf", Some(1), 12, 15),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 30 - 10);
        assert_eq!(selfs[1], 20 - 3);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[4], 3);
        let t = totals(&spans);
        assert_eq!(t["root"].self_ns, 60);
        assert_eq!(t["a"].total_ns, 20);
    }

    #[test]
    fn recorded_spans_nest_and_self_times_add_up() {
        start();
        {
            let _outer = enter("outer");
            for _ in 0..3 {
                let _inner = enter("inner");
                std::hint::black_box((0..1000u64).sum::<u64>());
            }
        }
        let spans = finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        let selfs = self_times(&spans);
        let inner: u64 = spans[1..].iter().map(Span::duration_ns).sum();
        assert_eq!(selfs[0], spans[0].duration_ns() - inner);
    }

    #[test]
    fn guards_are_inert_without_a_recorder() {
        let g = enter("nothing");
        assert!(g.0.is_none());
    }
}

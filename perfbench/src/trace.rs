//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name, a start, an end, a parent, the id of the operation
//! it belongs to, and the allocations made while it was open (non-zero
//! only in the traced binary, which installs the counting allocator).
//! Spans are recorded on the calling thread only and written out when the
//! run ends. Recording is off unless [`enable`] was called, and a disabled
//! [`span`] costs one thread-local read.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Op id of spans recorded during set-up.
pub const SETUP: u64 = u64::MAX;
/// Op id of spans recorded after the timed phase (final checks).
pub const AFTER: u64 = u64::MAX - 1;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since tracing was enabled.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: u64,
    /// Part of a serial replay of work that ran on worker threads.
    pub replayed: bool,
    pub allocs: u64,
    pub bytes: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    replay_depth: usize,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TR: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub fn enable() {
    TR.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: SETUP,
            replay_depth: 0,
        })
    });
    ON.with(|o| o.set(true));
}

/// Pauses or resumes recording (set-up repetitions before the last one
/// are not recorded).
pub fn set_recording(on: bool) {
    if TR.with(|t| t.borrow().is_some()) {
        ON.with(|o| o.set(on));
    }
}

pub fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Sets the op id stamped on spans opened from now on.
pub fn set_op(op: u64) {
    if enabled() {
        TR.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.op = op;
            }
        });
    }
}

/// An open span; closes on drop.
pub struct Guard {
    idx: Option<usize>,
    replay: bool,
}

fn open(name: &'static str, replay: bool) -> Guard {
    if !enabled() {
        return Guard { idx: None, replay };
    }
    let a = ag_harness::alloc::stats();
    TR.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracer enabled");
        if replay {
            t.replay_depth += 1;
        }
        let idx = t.spans.len();
        let start = t.t0.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            start,
            end: start,
            parent: t.stack.last().copied(),
            op: t.op,
            replayed: t.replay_depth > 0,
            // Opening counts are kept here until the span closes.
            allocs: a.allocations,
            bytes: a.bytes,
        });
        t.stack.push(idx);
        Guard {
            idx: Some(idx),
            replay,
        }
    })
}

/// Opens a span around a call into a layer.
pub fn span(name: &'static str) -> Guard {
    open(name, false)
}

/// Opens a span whose whole subtree is labelled as replayed.
pub fn replay(name: &'static str) -> Guard {
    open(name, true)
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        let a = ag_harness::alloc::stats();
        TR.with(|t| {
            let mut t = t.borrow_mut();
            let Some(t) = t.as_mut() else { return };
            let end = t.t0.elapsed().as_nanos() as u64;
            let s = &mut t.spans[idx];
            s.end = end;
            s.allocs = a.allocations - s.allocs;
            s.bytes = a.bytes - s.bytes;
            t.stack.pop();
            if self.replay {
                t.replay_depth -= 1;
            }
        });
    }
}

/// Takes every recorded span.
pub fn take() -> Vec<Span> {
    TR.with(|t| {
        t.borrow_mut()
            .as_mut()
            .map(|t| std::mem::take(&mut t.spans))
            .unwrap_or_default()
    })
}

/// Totals of every span of one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub incl_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
    pub self_allocs: u64,
    pub self_bytes: u64,
}

/// Per-span self time and self allocations: the span minus its direct
/// children (children run inside their parent on one thread, so they do
/// not overlap).
pub fn self_costs(spans: &[Span]) -> Vec<(u64, u64, u64)> {
    let mut child: Vec<(u64, u64, u64)> = vec![(0, 0, 0); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p].0 += s.ns();
            child[p].1 += s.allocs;
            child[p].2 += s.bytes;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| {
            (
                s.ns().saturating_sub(c.0),
                s.allocs.saturating_sub(c.1),
                s.bytes.saturating_sub(c.2),
            )
        })
        .collect()
}

/// Aggregates the spans that `keep` selects, by name.
pub fn aggregate(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Agg> {
    let selfs = self_costs(spans);
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, (sn, sa, sb)) in spans.iter().zip(selfs) {
        if !keep(s) {
            continue;
        }
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.incl_ns += s.ns();
        a.self_ns += sn;
        a.allocs += s.allocs;
        a.bytes += s.bytes;
        a.self_allocs += sa;
        a.self_bytes += sb;
    }
    out
}

/// Spans as JSON lines, with their self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_costs(spans);
    let mut out = String::new();
    for (i, (s, (sn, _, _))) in spans.iter().zip(selfs).enumerate() {
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{sn},\"replayed\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
            s.name,
            match s.op {
                SETUP => -1,
                AFTER => -2,
                op => op as i64,
            },
            s.parent.map_or(-1, |p| p as i64),
            s.start,
            s.end,
            s.replayed,
            s.allocs,
            s.bytes
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        enable();
        {
            let _a = span("a");
            {
                let _b = span("b");
                let _c = span("c");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let spans = take();
        let agg = aggregate(&spans, |_| true);
        let (a, b, c) = (agg["a"], agg["b"], agg["c"]);
        assert_eq!(b.incl_ns - b.self_ns, c.incl_ns);
        assert_eq!(a.incl_ns - a.self_ns, b.incl_ns);
        assert!(a.self_ns >= 1_000_000);
        assert_eq!(spans[2].parent, Some(1));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _a = span("x");
        assert!(take().is_empty());
    }
}

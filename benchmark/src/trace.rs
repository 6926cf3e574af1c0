//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! it makes into a layer's public functions; nothing inside the dtrack
//! crates is instrumented. A span is `(name, start, end, parent, run)`;
//! spans are kept in a `Vec` and written out when the run ends. A
//! layer's **self time** is its spans' duration minus the part their
//! child spans cover.
//!
//! With the recorder off (every end-to-end run) `enter`/`exit` are one
//! predictable branch and no clock read.

use std::collections::BTreeMap;
use std::io::Write;

use crate::meter::now_ns;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `lane` tells threads apart; `id`s and `parent`s
/// are per lane.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub run: u32,
}

/// One thread's spans: `(lane, spans)`.
pub type Lane = (u32, Vec<Span>);

/// Handle returned by [`Recorder::enter`]; give it back to
/// [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    lane: u32,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false, 0)
    }

    /// A recording recorder for thread `lane`.
    pub fn on(lane: u32) -> Self {
        Self::new(true, lane)
    }

    fn new(on: bool, lane: u32) -> Self {
        Self {
            on,
            lane,
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run: same on/off state
    /// and run id, its own lane.
    pub fn fork(&self, lane: u32) -> Self {
        let mut r = Self::new(self.on, lane);
        r.run = self.run;
        r
    }

    /// Spans opened from now on belong to run `run` (one repetition).
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Open a span as a child of the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            run: self.run,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close a span opened by [`Recorder::enter`].
    #[inline]
    pub fn exit(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let end = now_ns();
        self.spans[open.0 as usize].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must nest");
    }

    /// Record a leaf span around `f`.
    #[inline]
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Finish: `(lane, spans)`.
    pub fn finish(self) -> Lane {
        (self.lane, self.spans)
    }
}

/// Count, total and self time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals over one lane's spans. Self time = duration minus
/// the direct children's durations (children nest, so this is the part
/// of the interval no child covers).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[i]);
    }
    out
}

/// Merge per-lane totals into one map.
pub fn merged_totals(lanes: &[Lane]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (_, spans) in lanes {
        for (name, t) in totals(spans) {
            let acc = out.entry(name).or_default();
            acc.count += t.count;
            acc.total_ns += t.total_ns;
            acc.self_ns += t.self_ns;
        }
    }
    out
}

/// Most spans of one lane written out in full; the traced lock-step
/// loops record one span per protocol message, millions in all.
pub const MAX_SPANS_PER_LANE: usize = 5_000;

/// Write spans as JSON lines: one object per span with `lane`, `id`,
/// `name`, `start_ns`, `end_ns`, `parent` (`null` for a root) and `run`.
/// A lane longer than [`MAX_SPANS_PER_LANE`] is cut there and says so;
/// every lane ends with one `totals` line per span name (count, total
/// and self time over **all** its spans), so self times can be read
/// from the file either way.
pub fn write_jsonl(path: &std::path::Path, lanes: &[Lane]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (lane, spans) in lanes {
        for (id, s) in spans.iter().take(MAX_SPANS_PER_LANE).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"lane\": {lane}, \"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        if spans.len() > MAX_SPANS_PER_LANE {
            writeln!(
                w,
                "{{\"lane\": {lane}, \"truncated_after\": {MAX_SPANS_PER_LANE}, \"spans\": {}}}",
                spans.len()
            )?;
        }
        for (name, t) in totals(spans) {
            writeln!(
                w,
                "{{\"lane\": {lane}, \"totals\": \"{name}\", \"count\": {}, \
                 \"total_ns\": {}, \"self_ns\": {}}}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            Span {
                name: "outer",
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                run: 0,
            },
            Span {
                name: "inner",
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                run: 0,
            },
            Span {
                name: "inner",
                start_ns: 50,
                end_ns: 60,
                parent: 0,
                run: 0,
            },
        ];
        let t = totals(&spans);
        assert_eq!(
            t["outer"],
            Totals {
                count: 1,
                total_ns: 100,
                self_ns: 60
            }
        );
        assert_eq!(
            t["inner"],
            Totals {
                count: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut r = Recorder::off();
        let o = r.enter("x");
        r.exit(o);
        assert!(r.finish().1.is_empty());
        let mut r = Recorder::on(3);
        let o = r.enter("a");
        r.leaf("b", || ());
        r.exit(o);
        let (lane, spans) = r.finish();
        assert_eq!(lane, 3);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
    }
}

//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with an optional parent span. Spans are
//! recorded around calls into the program's public functions, kept in
//! memory, and written out once when the run ends. A layer's self time is
//! its span's duration minus the part of that interval its child spans
//! cover.
//!
//! When tracing is off, [`span`] is a direct call and nothing is recorded.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's epoch.
fn now_ns(at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`, parented to the innermost open span
/// of this thread.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    STACK.with(|stack| stack.borrow_mut().pop());
    push(Span { id, parent, name, start_ns: now_ns(start), end_ns: now_ns(end) });
    value
}

/// Records a root span over an interval the caller measured.
pub fn record(name: &'static str, start: Instant, end: Instant) {
    if enabled() {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let (start_ns, end_ns) = (now_ns(start), now_ns(end));
        push(Span { id, parent: None, name, start_ns, end_ns });
    }
}

fn push(span: Span) {
    SPANS.lock().expect("span buffer lock").push(span);
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer lock"))
}

/// Per-name totals: spans recorded and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push((span.start_ns, span.end_ns));
        }
    }
    let mut totals: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for span in spans {
        let mut covered = 0;
        if let Some(intervals) = children.get_mut(&span.id) {
            intervals.sort_unstable();
            let mut cursor = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        let total = totals.entry(span.name).or_default();
        total.count += 1;
        total.self_ns += span.duration_ns().saturating_sub(covered);
    }
    totals
}

/// Writes the spans as JSON lines (one span per line, microseconds).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = span.parent.map_or("null".to_owned(), |id| id.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            span.id,
            span.name,
            span.start_ns as f64 / 1e3,
            span.end_ns as f64 / 1e3,
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span_at(1, None, "op", 0, 100),
            span_at(2, Some(1), "a", 10, 40),
            span_at(3, Some(1), "b", 30, 60),
            span_at(4, Some(2), "c", 12, 20),
        ];
        let totals = self_times(&spans);
        assert_eq!(totals["op"].self_ns, 50);
        assert_eq!(totals["a"].self_ns, 22);
        assert_eq!(totals["b"].self_ns, 30);
        assert_eq!(totals["c"].self_ns, 8);
    }
}

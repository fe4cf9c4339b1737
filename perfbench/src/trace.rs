//! In-memory spans recorded by the benchmark around each call into a
//! layer, and the per-layer self times derived from them.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! id of the instance or request it belongs to (`trace`). Spans live in
//! memory until the run ends and are then written out as JSON lines. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.
//!
//! A disabled tracer records nothing and reads no clock, so the
//! untraced run pays one branch per call site.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run (starts at 1).
    pub id: u64,
    /// Id of the span that caused this one, 0 for a root.
    pub parent: u64,
    /// Instance or request id shared by every span of one unit of work.
    pub trace: u64,
    /// Layer call name, e.g. `sat.encode`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Items of work the span covered (instances generated, …); 1 by default.
    pub items: u64,
}

/// Span sink shared by every thread of one measurement.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Does this tracer record spans?
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; it is recorded when the guard drops.
    #[must_use]
    pub fn span(&self, name: &'static str, trace: u64, parent: u64) -> SpanGuard<'_> {
        let (id, start) = if self.enabled {
            (
                self.next_id.fetch_add(1, Ordering::Relaxed),
                Some(Instant::now()),
            )
        } else {
            (0, None)
        };
        SpanGuard {
            tracer: self,
            id,
            parent,
            trace,
            name,
            start,
            items: 1,
        }
    }

    /// Every span recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    fn nanos(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// An open span; records itself on drop.
#[derive(Debug)]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start: Option<Instant>,
    items: u64,
}

impl SpanGuard<'_> {
    /// The span id, to pass as the parent of child spans (0 when disabled).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Record how many items of work this span covers.
    pub fn set_items(&mut self, items: u64) {
        self.items = items;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        let span = Span {
            id: self.id,
            parent: self.parent,
            trace: self.trace,
            name: self.name,
            start_ns: self.tracer.nanos(start),
            end_ns: self.tracer.nanos(end),
            items: self.items,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Items of work covered (sum of [`Span::items`]).
    pub items: u64,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed self times (duration minus child coverage), seconds.
    pub self_s: f64,
}

impl LayerTime {
    /// Mean duration per item, microseconds (0 without items).
    #[must_use]
    pub fn us_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.total_s * 1e6 / self.items as f64
        }
    }
}

/// Per-name totals and self times.
#[must_use]
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.items += s.items;
        e.total_s += dur as f64 * 1e-9;
        e.self_s += dur.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Write spans as JSON lines (`id`, `parent`, `trace`, `name`, `start_ns`,
/// `end_ns`, `items`).
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
            s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns, s.items
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 7,
            name,
            start_ns,
            end_ns,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 50),  // overlaps `a` by 10
            span(4, 1, "c", 90, 120), // sticks out of the parent
        ];
        let t = layer_times(&spans);
        // Children cover [10, 50) and [90, 100) of the root: 50 ns.
        assert!((t["root"].self_s - 50e-9).abs() < 1e-15);
        assert!((t["root"].total_s - 100e-9).abs() < 1e-15);
        assert_eq!(t["a"].count, 1);
        assert!((t["a"].self_s - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let g = tracer.span("x", 1, 0);
            assert_eq!(g.id(), 0);
        }
        assert!(tracer.spans().is_empty());
        let tracer = Tracer::new(true);
        {
            let root = tracer.span("root", 1, 0);
            let _child = tracer.span("child", 1, root.id());
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "child");
        assert_eq!(spans[0].parent, spans[1].id);
    }
}

//! The benchmark's own tracer: one span per call into a layer, recorded
//! from outside the library (the library's internal probes are not
//! spans of this trace).
//!
//! Spans live in memory — one [`SpanLog`] per thread — and are written
//! as JSON lines when the run ends. A span carries its name
//! (`<layer>.<call>`), start, end, parent span and the id of the request
//! it belongs to, so every span of one request can be grouped.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Request id of spans that belong to no request (set-up and layer
/// probes); they are written out but excluded from self-time totals.
pub const PROBE: u64 = u64::MAX;

/// One finished span.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans recorded by one thread.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<SpanRec>,
}

impl SpanLog {
    pub fn append(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }
}

/// Shared tracing state; when `on` is false every call is a no-op and
/// takes no clock reading.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), next: AtomicU64::new(1) }
    }

    /// A fresh span id (0 when tracing is off).
    pub fn id(&self) -> u64 {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span with a pre-allocated `id` (from [`Tracer::id`]),
    /// for parents whose children are recorded first.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        log: &mut SpanLog,
        id: u64,
        parent: u64,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            log.spans.push(SpanRec { id, parent, req, name, start_ns, end_ns });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &self,
        log: &mut SpanLog,
        parent: u64,
        req: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let id = self.id();
        self.record(log, id, parent, req, name, start, end);
        r
    }
}

/// Layer of a span name: the part before the first `.`.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Total self time per layer, in ns, over the spans of requests (probe
/// spans excluded). A span's self time is its duration minus the part of
/// it its children cover.
pub fn self_time_by_layer(log: &SpanLog) -> BTreeMap<String, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in log.spans.iter().filter(|s| s.req != PROBE && s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in log.spans.iter().filter(|s| s.req != PROBE) {
        let covered = children.get_mut(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(layer_of(s.name).to_owned()).or_insert(0) += own;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

/// Writes `header` (one JSON object) and then every span as one JSON
/// line to `path`.
pub fn write(path: &Path, header: &str, log: &SpanLog) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{header}")?;
    for s in &log.spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            if s.req == PROBE { -1 } else { s.req as i64 },
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec { id, parent, req: 1, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let log = SpanLog {
            spans: vec![
                rec(1, 0, "bench.request", 0, 100),
                rec(2, 1, "service.submit", 10, 30),
                rec(3, 1, "service.wait", 20, 60),
                rec(4, 3, "bench.check", 50, 55),
            ],
        };
        let t = self_time_by_layer(&log);
        // bench: 100 - 50 covered (10..60) + check 5 = 55; service: 20 + (40 - 5).
        assert_eq!(t["bench"], 55);
        assert_eq!(t["service"], 55);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let tr = Tracer::new(false);
        let mut log = SpanLog::default();
        assert_eq!(tr.span(&mut log, 0, 1, "fft.execute", || 3), 3);
        assert!(log.spans.is_empty());
        assert_eq!(tr.id(), 0);
    }
}

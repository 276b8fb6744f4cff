//! In-memory spans recorded by the benchmark around its calls into the
//! simulator's layers. Nothing here reaches inside the crates: a span
//! covers one public call (or one probe the benchmark makes for
//! attribution), and a layer's self time is its spans' durations minus
//! the parts their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span within its [`Tracer`].
pub type SpanId = u32;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`"dfs.durability"`); the layer is the part
    /// before the first dot.
    pub name: &'static str,
    /// The task this span belongs to (shared by all of a task's spans);
    /// `None` for set-up and sweep spans.
    pub key: Option<u32>,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start and end, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Whether the span is extra work the traced run does only to
    /// attribute time (a models-off replay, a standalone fill), as
    /// opposed to the benchmark's own work.
    pub probe: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a tracer's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time their children cover.
    pub self_ns: u64,
}

/// A span recorder; off, it only runs the wrapped closures.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// so that its own spans can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        key: Option<u32>,
        parent: Option<SpanId>,
        probe: bool,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("a span holder panicked");
            spans.push(Span {
                name,
                key,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
                probe,
            });
            (spans.len() - 1) as SpanId
        };
        let out = f(Some(id));
        let end = self.now_ns();
        self.spans.lock().expect("a span holder panicked")[id as usize].end_ns = end;
        out
    }

    /// The closed spans, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span holder panicked").clone()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child);
        }
        out
    }

    /// Summed duration of the probe spans.
    pub fn probe_ns(&self) -> u64 {
        self.spans()
            .iter()
            .filter(|s| s.probe)
            .map(Span::dur_ns)
            .sum()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"key\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"probe\":{}}}",
                s.name,
                opt(s.key),
                opt(s.parent),
                s.start_ns,
                s.end_ns,
                s.probe
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("a.outer", None, None, false, |p| {
            t.span("b.inner", Some(1), p, false, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let totals = t.totals();
        let outer = totals["a.outer"];
        let inner = totals["b.inner"];
        assert_eq!(inner.total_ns, inner.self_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 5_000_000);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a.x", None, None, false, |id| id), None);
        assert!(t.spans().is_empty());
    }
}

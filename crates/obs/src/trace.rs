//! A ring-buffered span recorder exporting Chrome trace-event JSON.
//!
//! Spans are measured on a single monotonic clock (the recorder's
//! creation instant), carry optional parent links, and live in a
//! bounded ring — a long-running daemon keeps the most recent window
//! instead of growing without bound. [`SpanRecorder::chrome_json`]
//! renders the ring as a JSON object-format trace (`traceEvents` of
//! `"ph":"X"` complete events, timestamps in microseconds) that loads
//! directly in Perfetto or `chrome://tracing`.
//!
//! Recording is explicit — callers capture `now_us()` timestamps and
//! call [`SpanRecorder::record`] once the span is over — because
//! daemon spans routinely start on one thread (enqueue) and finish on
//! another (worker), where scope-guard APIs mislead.

use silo_types::json_escape;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Recorder-unique id (1-based, in record order).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Event name (e.g. `request`, `run`).
    pub name: String,
    /// Event category (e.g. `http`, `job`).
    pub cat: String,
    /// Logical track: thread index for daemon spans.
    pub tid: u64,
    /// Start offset from recorder creation, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

#[derive(Debug)]
struct Inner {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<VecDeque<Span>>,
    capacity: usize,
    dropped: AtomicU64,
}

/// The recorder: clone freely, all clones share one ring.
#[derive(Clone, Debug)]
pub struct SpanRecorder {
    inner: Arc<Inner>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl SpanRecorder {
    /// Creates a recorder keeping at most `capacity` spans (oldest
    /// evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "span ring needs capacity");
        SpanRecorder {
            inner: Arc::new(Inner {
                t0: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
                capacity,
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Microseconds since the recorder was created — the clock every
    /// span timestamp is expressed in.
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.inner.t0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Reserves a span id without recording anything yet. Lets a
    /// long-lived parent hand its id to children that complete (and
    /// record) first; finish the parent with
    /// [`SpanRecorder::record_with_id`].
    pub fn reserve(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a completed span on the calling thread's track and
    /// returns its id (usable as `parent` for children).
    ///
    /// `end_us` is clamped to `start_us` so a mis-ordered pair never
    /// produces a negative duration.
    ///
    /// # Panics
    ///
    /// Panics if the span ring mutex is poisoned.
    pub fn record(
        &self,
        name: &str,
        cat: &str,
        parent: Option<u64>,
        start_us: u64,
        end_us: u64,
    ) -> u64 {
        self.record_with_id(self.reserve(), name, cat, parent, start_us, end_us)
    }

    /// [`SpanRecorder::record`] under a previously
    /// [`reserve`](SpanRecorder::reserve)d id.
    ///
    /// # Panics
    ///
    /// Panics if the span ring mutex is poisoned.
    pub fn record_with_id(
        &self,
        id: u64,
        name: &str,
        cat: &str,
        parent: Option<u64>,
        start_us: u64,
        end_us: u64,
    ) -> u64 {
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            cat: cat.to_string(),
            tid: TID.with(|t| *t),
            start_us,
            dur_us: end_us.saturating_sub(start_us),
        };
        let mut ring = self.inner.spans.lock().expect("span ring lock");
        if ring.len() == self.inner.capacity {
            ring.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(span);
        id
    }

    /// Spans evicted from the ring since creation — nonzero means the
    /// exported trace is a truncated window, not the full history
    /// (surfaced as `silo_obs_spans_dropped_total` on the daemon).
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Number of spans currently buffered.
    ///
    /// # Panics
    ///
    /// Panics if the span ring mutex is poisoned.
    pub fn len(&self) -> usize {
        self.inner.spans.lock().expect("span ring lock").len()
    }

    /// True when no spans are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the buffered spans, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if the span ring mutex is poisoned.
    pub fn snapshot(&self) -> Vec<Span> {
        self.inner
            .spans
            .lock()
            .expect("span ring lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Renders the ring as Chrome trace-event JSON (object format):
    /// `{"displayTimeUnit":"ms","traceEvents":[...]}` with one
    /// `"ph":"X"` complete event per span. Span ids and parent links
    /// ride in each event's `args`.
    pub fn chrome_json(&self) -> String {
        chrome_document(&self.snapshot())
    }
}

/// Renders a list of spans as a Chrome trace-event JSON document.
pub(crate) fn chrome_document(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{}{}}}}}",
            json_escape(&s.name),
            json_escape(&s.cat),
            s.start_us,
            s.dur_us,
            s.tid,
            s.id,
            s.parent
                .map(|p| format!(",\"parent\":{p}"))
                .unwrap_or_default(),
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_with_parent_links() {
        let rec = SpanRecorder::new(16);
        let t0 = rec.now_us();
        let parent = rec.record("request", "http", None, t0, t0 + 100);
        let child = rec.record("run", "job", Some(parent), t0 + 10, t0 + 60);
        assert_ne!(parent, child);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(parent));
        assert_eq!(spans[1].dur_us, 50);
    }

    #[test]
    fn reserved_parent_ids_link_children_recorded_first() {
        let rec = SpanRecorder::new(8);
        let parent = rec.reserve();
        let child = rec.record("child", "t", Some(parent), 10, 20);
        rec.record_with_id(parent, "parent", "t", None, 0, 30);
        assert!(child != parent);
        let spans = rec.snapshot();
        assert_eq!(spans[0].parent, Some(parent));
        assert_eq!(spans[1].id, parent);
    }

    #[test]
    fn ring_evicts_oldest() {
        let rec = SpanRecorder::new(2);
        rec.record("a", "t", None, 0, 1);
        rec.record("b", "t", None, 1, 2);
        rec.record("c", "t", None, 2, 3);
        let names: Vec<String> = rec.snapshot().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["b", "c"]);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 1, "eviction is counted, not silent");
    }

    #[test]
    fn negative_durations_are_clamped() {
        let rec = SpanRecorder::new(4);
        rec.record("x", "t", None, 100, 40);
        assert_eq!(rec.snapshot()[0].dur_us, 0);
    }

    #[test]
    fn chrome_json_shape() {
        let rec = SpanRecorder::new(4);
        let p = rec.record("req \"q\"", "http", None, 5, 25);
        rec.record("child", "job", Some(p), 10, 20);
        let json = rec.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"name\":\"req \\\"q\\\"\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":5,\"dur\":20"));
        assert!(json.contains(&format!("\"parent\":{p}")));
    }

    #[test]
    fn empty_ring_renders_empty_event_list() {
        let rec = SpanRecorder::new(4);
        assert!(rec.is_empty());
        assert_eq!(
            rec.chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n"
        );
    }

    #[test]
    fn clones_share_the_ring() {
        let rec = SpanRecorder::new(4);
        let clone = rec.clone();
        clone.record("shared", "t", None, 0, 1);
        assert_eq!(rec.len(), 1);
    }
}

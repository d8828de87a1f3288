//! Request tracing: trace ids, span timelines, and the flight recorder.
//!
//! A **trace** follows one request through the serving path. The client (or
//! the server at ingress, for clients that predate tracing) mints a
//! [`TraceId`]; every hop appends [`Span`]s to a [`TraceBuilder`] that
//! travels *with* the request; the final hop seals it into a
//! [`RequestTrace`] — a self-contained timeline whose span offsets are all
//! relative to the moment the request was first seen.
//!
//! Completed traces land in a [`FlightRecorder`]: bounded per-replica ring
//! buffers that keep the most recent traces in memory so a live server can
//! answer "where did request X spend its time" and "show me the slowest
//! requests you remember" without any external collector.
//!
//! The span taxonomy used by the serving tier (names are free-form here;
//! the convention lives in the serve crate): `ingress` (read + parse),
//! `route` (shard routing / enqueue), `queue_wait` (enqueued → popped),
//! `batch_wait` (popped → backend call), `infer` (the backend call),
//! `reply` (answer handed back to the connection thread), `write` (response
//! serialization + socket write).

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A 64-bit request trace id, rendered on the wire as 16 lowercase hex
/// characters. Id 0 is reserved (never minted, never parsed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

static MINT_COUNTER: AtomicU64 = AtomicU64::new(0);

impl TraceId {
    /// Wraps a raw non-zero id.
    pub fn from_raw(raw: u64) -> Option<TraceId> {
        if raw == 0 {
            None
        } else {
            Some(TraceId(raw))
        }
    }

    /// The raw 64-bit value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Mints a fresh id: wall-clock nanoseconds mixed with a process-wide
    /// counter through the splitmix64 finalizer. Unique within a process,
    /// collision-resistant across processes — good enough for correlating
    /// log lines, which is all a trace id is for.
    pub fn mint() -> TraceId {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::from(d.subsec_nanos()) ^ (d.as_secs() << 32))
            .unwrap_or(0);
        let n = MINT_COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut z = nanos ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        TraceId((z ^ (z >> 31)) | 1)
    }

    /// Parses the wire form: 1–16 hex characters (case-insensitive).
    /// Anything else — wrong alphabet, too long, zero — is `None`, which
    /// callers treat as "no usable id, mint one" rather than an error.
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok().and_then(TraceId::from_raw)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One named interval inside a trace, offset-addressed so the timeline is
/// self-contained (no absolute clocks on the wire).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Stage name (`ingress`, `queue_wait`, `infer`, ...).
    pub name: String,
    /// Microseconds since the trace started.
    pub start_us: u64,
    /// Span duration, microseconds.
    pub dur_us: u64,
}

/// The mutable half of a trace: travels with the request, accumulating
/// spans hop by hop, and is sealed into a [`RequestTrace`] by the hop that
/// writes the response.
#[derive(Debug)]
pub struct TraceBuilder {
    id: TraceId,
    started: Instant,
    spans: Vec<Span>,
}

impl TraceBuilder {
    /// A builder whose clock starts now.
    pub fn new(id: TraceId) -> TraceBuilder {
        TraceBuilder::new_at(id, Instant::now())
    }

    /// A builder whose clock starts at `started` (the instant the request
    /// was first seen — spans may not begin earlier; they are clamped).
    pub fn new_at(id: TraceId, started: Instant) -> TraceBuilder {
        TraceBuilder { id, started, spans: Vec::with_capacity(8) }
    }

    /// The trace id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// The instant offsets are measured from.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Records span `name` covering `[start, end]`. Instants before the
    /// trace start (or an end before its start) clamp to zero rather than
    /// panicking — worker clocks are never trusted to be well-ordered.
    pub fn span(&mut self, name: &str, start: Instant, end: Instant) {
        let start = start.max(self.started);
        let start_us = start
            .checked_duration_since(self.started)
            .map_or(0, |d| d.as_micros() as u64);
        let dur_us = end.checked_duration_since(start).map_or(0, |d| d.as_micros() as u64);
        self.spans.push(Span { name: name.to_string(), start_us, dur_us });
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seals the timeline. `total_us` is the end of the latest span (the
    /// final hop records its `write` span last), falling back to elapsed
    /// time when no span was ever recorded.
    pub fn finish(self, kernel: &str, replica: Option<usize>, epoch: u64) -> RequestTrace {
        let total_us = self
            .spans
            .iter()
            .map(|s| s.start_us + s.dur_us)
            .max()
            .unwrap_or_else(|| self.started.elapsed().as_micros() as u64);
        RequestTrace {
            trace_id: self.id.to_string(),
            kernel: kernel.to_string(),
            replica: replica.map_or(-1, |r| r as i64),
            epoch,
            total_us,
            spans: self.spans,
        }
    }
}

/// A completed, serializable request timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestTrace {
    /// Wire form of the trace id (16 hex chars).
    pub trace_id: String,
    /// Kernel the request asked about.
    pub kernel: String,
    /// Replica that served it (−1 = never reached a replica: shed, 503, …).
    pub replica: i64,
    /// Model epoch of the answer (0 when the request was not served).
    pub epoch: u64,
    /// End-to-end duration, first byte seen → response written.
    pub total_us: u64,
    /// The span timeline, in recording order.
    pub spans: Vec<Span>,
}

impl RequestTrace {
    /// Total microseconds booked under span `name` (spans may repeat when
    /// a request was re-routed after a crash).
    pub fn span_total_us(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_us).sum()
    }

    /// One-line human rendering of the timeline:
    /// `infer@+120us/900us` means the span started 120 µs into the trace.
    pub fn timeline(&self) -> String {
        self.spans
            .iter()
            .map(|s| format!("{}@+{}us/{}us", s.name, s.start_us, s.dur_us))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Bounded per-replica ring buffers of completed traces — the in-memory
/// black box a live server answers `trace <id>` / `trace slow` from.
///
/// Ring `r` holds traces served by replica `r`; one extra ring holds
/// traces that never reached a replica (shed / no-replica errors), so
/// failure timelines are retrievable too. Each ring keeps the most recent
/// `capacity` traces; memory is bounded at
/// `(replicas + 1) × capacity × sizeof(trace)`.
pub struct FlightRecorder {
    rings: Vec<Mutex<VecDeque<RequestTrace>>>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder for `replicas` replicas keeping `capacity` traces per
    /// ring (a capacity of 0 records nothing).
    pub fn new(replicas: usize, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            rings: (0..replicas + 1).map(|_| Mutex::new(VecDeque::new())).collect(),
            capacity,
        }
    }

    /// Per-ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn ring_of(&self, trace: &RequestTrace) -> usize {
        match usize::try_from(trace.replica) {
            Ok(r) if r < self.rings.len() - 1 => r,
            _ => self.rings.len() - 1,
        }
    }

    /// Records a completed trace, evicting the oldest entry of its ring at
    /// capacity.
    pub fn record(&self, trace: RequestTrace) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.rings[self.ring_of(&trace)].lock().expect("recorder lock");
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Fetches a remembered trace by id (newest match wins).
    pub fn get(&self, trace_id: &str) -> Option<RequestTrace> {
        for ring in &self.rings {
            let ring = ring.lock().expect("recorder lock");
            if let Some(t) = ring.iter().rev().find(|t| t.trace_id == trace_id) {
                return Some(t.clone());
            }
        }
        None
    }

    /// The `n` slowest remembered traces, slowest first.
    pub fn slow(&self, n: usize) -> Vec<RequestTrace> {
        let mut all: Vec<RequestTrace> = self
            .rings
            .iter()
            .flat_map(|r| r.lock().expect("recorder lock").iter().cloned().collect::<Vec<_>>())
            .collect();
        all.sort_by_key(|t| std::cmp::Reverse(t.total_us));
        all.truncate(n);
        all
    }

    /// Total traces currently remembered.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| r.lock().expect("recorder lock").len()).sum()
    }

    /// Whether nothing has been recorded (or capacity is 0).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn trace_ids_mint_unique_and_round_trip_the_wire_form() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b, "two mints must differ");
        let wire = a.to_string();
        assert_eq!(wire.len(), 16);
        assert_eq!(TraceId::parse(&wire), Some(a));
        // Case-insensitive, short forms accepted.
        assert_eq!(TraceId::parse("DEADBEEF"), Some(TraceId(0xdead_beef)));
        assert_eq!(TraceId::parse("1"), Some(TraceId(1)));
    }

    #[test]
    fn malformed_trace_ids_parse_to_none() {
        for bad in ["", "xyz", "123g", "0", "00000000000000000", "deadbeefdeadbeef0"] {
            assert_eq!(TraceId::parse(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn builder_clamps_out_of_order_instants_and_seals_totals() {
        let t0 = Instant::now();
        let mut b = TraceBuilder::new_at(TraceId::mint(), t0);
        let t1 = t0 + Duration::from_micros(100);
        let t2 = t0 + Duration::from_micros(350);
        b.span("ingress", t0, t1);
        b.span("infer", t1, t2);
        // A span "before" the trace start, and an end before its start:
        // both clamp to zero instead of panicking.
        b.span("weird", t0 - Duration::from_secs(1), t0);
        b.span("weird2", t2, t1);
        let trace = b.finish("gemm", Some(2), 7);
        assert_eq!(trace.replica, 2);
        assert_eq!(trace.epoch, 7);
        assert_eq!(trace.spans[0], Span { name: "ingress".into(), start_us: 0, dur_us: 100 });
        assert_eq!(trace.spans[1].start_us, 100);
        assert_eq!(trace.spans[1].dur_us, 250);
        assert_eq!(trace.spans[2].start_us, 0, "pre-start clamps to the trace start");
        assert_eq!(trace.spans[2].dur_us, 0, "duration measured from the clamped start");
        assert_eq!(trace.spans[3].dur_us, 0, "inverted interval clamps");
        assert_eq!(trace.total_us, 350, "total is the latest span end");
        assert_eq!(trace.span_total_us("infer"), 250);
        assert!(trace.timeline().contains("infer@+100us/250us"));
    }

    fn toy(id: u64, replica: i64, total_us: u64) -> RequestTrace {
        RequestTrace {
            trace_id: format!("{id:016x}"),
            kernel: "gemm".into(),
            replica,
            epoch: 1,
            total_us,
            spans: vec![Span { name: "infer".into(), start_us: 0, dur_us: total_us }],
        }
    }

    #[test]
    fn recorder_is_bounded_per_ring_and_answers_get_and_slow() {
        let rec = FlightRecorder::new(2, 3);
        for i in 0..10 {
            rec.record(toy(i, (i % 2) as i64, i * 10));
        }
        // Unrouted traces land in the extra ring.
        rec.record(toy(99, -1, 5));
        assert!(rec.len() <= 3 * 3, "rings are bounded");
        // Old entries were evicted; recent ones are retrievable.
        assert!(rec.get(&format!("{:016x}", 0u64)).is_none(), "oldest evicted");
        assert_eq!(rec.get(&format!("{:016x}", 9u64)).unwrap().total_us, 90);
        assert_eq!(rec.get(&format!("{:016x}", 99u64)).unwrap().replica, -1);
        let slow = rec.slow(3);
        assert_eq!(slow.len(), 3);
        assert!(slow.windows(2).all(|w| w[0].total_us >= w[1].total_us), "slowest first");
        assert_eq!(slow[0].total_us, 90);
    }

    #[test]
    fn zero_capacity_recorder_records_nothing() {
        let rec = FlightRecorder::new(1, 0);
        rec.record(toy(1, 0, 10));
        assert!(rec.is_empty());
        assert!(rec.slow(5).is_empty());
    }

    #[test]
    fn request_traces_serialize_round_trip() {
        let t = toy(42, 1, 77);
        let json = serde_json::to_string(&t).unwrap();
        let back: RequestTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}

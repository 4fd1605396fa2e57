//! Chrome `trace_event` export of span ledgers.
//!
//! Every plane of the reproduction records the same span vocabulary
//! ([`SpanKind`]); this module renders those ledgers in the Chrome trace
//! event format (the JSON array `chrome://tracing` and Perfetto open), so a
//! run's timeline can be inspected visually instead of only as aggregate
//! fractions.
//!
//! Two granularities are supported, because the planes retain different
//! amounts of raw data:
//!
//! * **exact timelines** ([`ChromeTrace::add_thread_spans`]) from raw
//!   [`Span`] lists — available wherever a tracer kept its log, e.g. the
//!   native runtime's [`crate::trace::WallTracer::finish`];
//! * **aggregate summaries** ([`ChromeTrace::add_thread_summary`]) from
//!   [`ThreadPhases`] — the per-kind totals laid back-to-back from the
//!   thread's start. The timed machine and `RunReport` keep only these
//!   O(1) aggregates, so their export shows *how much* time each phase
//!   took per thread, not the real interleaving; summary events carry a
//!   `"summary"` category so the viewer distinguishes them.
//!
//! Ranks map to trace processes (`pid`), thread slots to trace threads
//! (`tid`); timestamps are microseconds as the format requires.

use crate::report::Json;
use crate::trace::{Span, SpanKind, ThreadPhases, ThreadSpans};
use gpaw_des::{SimDuration, SimTime};

/// Microseconds since the run epoch (the unit of `ts`/`dur` fields).
fn us(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A trace under construction: a flat list of Chrome trace events.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<Json>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Name the trace process `pid` (a rank, or a whole figure point).
    pub fn name_process(&mut self, pid: usize, name: &str) {
        self.events.push(metadata("process_name", pid, 0, name));
    }

    /// Name thread `tid` of process `pid`.
    pub fn name_thread(&mut self, pid: usize, tid: usize, name: &str) {
        self.events.push(metadata("thread_name", pid, tid, name));
    }

    /// Add one thread's exact span timeline as complete (`"X"`) events.
    pub fn add_thread_spans(&mut self, pid: usize, tid: usize, spans: &[Span]) {
        for s in spans {
            self.events.push(complete_event(
                s.kind.key(),
                "span",
                pid,
                tid,
                us(s.start.since(SimTime::ZERO)),
                us(s.duration()),
            ));
        }
    }

    /// Add a whole run's exact timelines: one trace thread per
    /// (rank, slot), named and laid out under process `pid_base + rank`.
    pub fn add_run_spans(&mut self, pid_base: usize, timelines: &[ThreadSpans]) {
        let mut last_rank = None;
        for t in timelines {
            let pid = pid_base + t.rank;
            if last_rank != Some(t.rank) {
                self.name_process(pid, &format!("rank {}", t.rank));
                last_rank = Some(t.rank);
            }
            self.name_thread(pid, t.slot, &format!("rank {} slot {}", t.rank, t.slot));
            self.add_thread_spans(pid, t.slot, &t.spans);
        }
    }

    /// Add one thread's aggregate phase totals as a synthetic back-to-back
    /// layout starting at the epoch: one `"X"` event per non-empty kind, in
    /// [`SpanKind::ALL`] order, under the `"summary"` category. Durations
    /// are faithful; the ordering within the thread's lifetime is not.
    pub fn add_thread_summary(&mut self, pid: usize, t: &ThreadPhases) {
        self.name_thread(pid, t.slot, &format!("rank {} slot {}", t.rank, t.slot));
        let mut cursor = SimDuration::ZERO;
        for kind in SpanKind::ALL {
            let d = t.spans.get(kind);
            if d == SimDuration::ZERO {
                continue;
            }
            self.events.push(complete_event(
                kind.key(),
                "summary",
                pid,
                t.slot,
                us(cursor),
                us(d),
            ));
            cursor += d;
        }
        if cursor < t.finish {
            self.events.push(complete_event(
                "idle",
                "summary",
                pid,
                t.slot,
                us(cursor),
                us(t.finish - cursor),
            ));
        }
    }

    /// Add a whole run's aggregate summaries under process `pid`, named
    /// `name` — the export path for [`gpaw_simmpi::RunReport`]-shaped
    /// results, which keep only per-thread aggregates.
    pub fn add_run_summary(&mut self, pid: usize, name: &str, threads: &[ThreadPhases]) {
        self.name_process(pid, name);
        // Trace tids must be unique per process; (rank, slot) pairs are, so
        // flatten them in ledger order.
        for (tid, t) in threads.iter().enumerate() {
            let mut t = t.clone();
            let slot = t.slot;
            t.slot = tid;
            self.add_thread_summary(pid, &t);
            // Restore the human-readable name after add_thread_summary
            // named it by the flattened tid.
            self.events.pop_if_metadata_name(pid, tid);
            self.events.push(metadata(
                "thread_name",
                pid,
                tid,
                &format!("rank {} slot {slot}", t.rank),
            ));
        }
    }

    /// Render the trace as a Chrome trace JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(self.events.clone())),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
    }

    /// Render to a JSON string.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Write the trace to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render() + "\n")
    }
}

/// Internal helper trait: drop the thread_name metadata event
/// `add_thread_summary` just pushed so `add_run_summary` can replace it.
trait PopIfMetadataName {
    fn pop_if_metadata_name(&mut self, pid: usize, tid: usize);
}

impl PopIfMetadataName for Vec<Json> {
    fn pop_if_metadata_name(&mut self, pid: usize, tid: usize) {
        // The event pushed first by add_thread_summary is the thread_name
        // metadata; find the most recent one for (pid, tid) and remove it.
        if let Some(pos) = self.iter().rposition(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("pid").and_then(Json::as_f64) == Some(pid as f64)
                && e.get("tid").and_then(Json::as_f64) == Some(tid as f64)
        }) {
            self.remove(pos);
        }
    }
}

fn metadata(name: &str, pid: usize, tid: usize, value: &str) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(name.into())),
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), Json::Num(pid as f64)),
        ("tid".into(), Json::Num(tid as f64)),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str(value.into()))]),
        ),
    ])
}

fn complete_event(name: &str, cat: &str, pid: usize, tid: usize, ts: f64, dur: f64) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(name.into())),
        ("cat".into(), Json::Str(cat.into())),
        ("ph".into(), Json::Str("X".into())),
        ("ts".into(), Json::Num(ts)),
        ("dur".into(), Json::Num(dur)),
        ("pid".into(), Json::Num(pid as f64)),
        ("tid".into(), Json::Num(tid as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpaw_des::SpanAgg;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    fn span(kind: SpanKind, a: u64, b: u64) -> Span {
        Span {
            kind,
            start: t(a),
            end: t(b),
        }
    }

    #[test]
    fn exact_timeline_events_carry_positions_and_durations() {
        let mut tr = ChromeTrace::new();
        tr.add_run_spans(
            0,
            &[ThreadSpans {
                rank: 1,
                slot: 0,
                spans: vec![
                    span(SpanKind::Compute, 1_000, 4_000),
                    span(SpanKind::Wait, 4_000, 9_000),
                ],
            }],
        );
        let j = tr.to_json();
        let events = j.get("traceEvents").and_then(Json::as_arr).unwrap();
        // process_name + thread_name + 2 spans.
        assert_eq!(events.len(), 4);
        let xs: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0].get("name").and_then(Json::as_str), Some("compute"));
        assert_eq!(xs[0].get("ts").and_then(Json::as_f64), Some(1.0)); // µs
        assert_eq!(xs[0].get("dur").and_then(Json::as_f64), Some(3.0));
        assert_eq!(xs[1].get("name").and_then(Json::as_str), Some("wait"));
        assert_eq!(xs[0].get("pid").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn summary_layout_tiles_the_thread_lifetime() {
        let mut spans = SpanAgg::new();
        spans.add(SpanKind::Compute, SimDuration::from_ns(6_000));
        spans.add(SpanKind::Post, SimDuration::from_ns(2_000));
        let phases = ThreadPhases {
            rank: 0,
            slot: 1,
            finish: SimDuration::from_ns(10_000),
            spans,
        };
        let mut tr = ChromeTrace::new();
        tr.add_thread_summary(7, &phases);
        let j = tr.to_json();
        let events = j.get("traceEvents").and_then(Json::as_arr).unwrap();
        let xs: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        // compute, post, then the idle remainder; back to back.
        assert_eq!(xs.len(), 3);
        let mut cursor = 0.0;
        let mut total = 0.0;
        for x in &xs {
            assert_eq!(x.get("ts").and_then(Json::as_f64), Some(cursor));
            let dur = x.get("dur").and_then(Json::as_f64).unwrap();
            cursor += dur;
            total += dur;
            assert_eq!(x.get("cat").and_then(Json::as_str), Some("summary"));
        }
        assert!((total - 10.0).abs() < 1e-12, "events tile [0, finish]");
        assert_eq!(xs[2].get("name").and_then(Json::as_str), Some("idle"));
    }

    #[test]
    fn rendered_trace_is_valid_json() {
        let mut tr = ChromeTrace::new();
        tr.add_run_summary(
            3,
            "point \"x\"",
            &[ThreadPhases {
                rank: 0,
                slot: 0,
                finish: SimDuration::from_ns(5),
                spans: SpanAgg::new(),
            }],
        );
        let text = tr.render();
        let parsed = Json::parse(&text).expect("chrome trace renders as valid JSON");
        assert!(parsed.get("traceEvents").is_some());
        assert_eq!(
            parsed.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
    }
}

//! Benchmark-side spans: one around every call into the program and every
//! verification step of the traced run.
//!
//! Spans live in memory and are written once, at exit, as a Chrome trace
//! (`chrome://tracing`, Perfetto). A span records its name, start, end,
//! the span that was open when it began (its parent), and the workload and
//! repetition it belongs to. A layer's *self time* is its span minus the
//! part its children cover. With tracing off [`Tracer::span`] is a plain
//! call — the untraced run pays nothing, which is what
//! `trace.overhead_ratio` compares against.

use crate::sut::Json;
use std::time::Instant;

/// What a span brackets: a call into the program, or the benchmark's own
/// checking. Self time is reported per category.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cat {
    /// A call into the program under test.
    Sut,
    /// Oracle and verification work.
    Verify,
    /// Grouping spans the harness opens (repetition, layers pass).
    Harness,
}

impl Cat {
    fn as_str(self) -> &'static str {
        match self {
            Cat::Sut => "sut",
            Cat::Verify => "verify",
            Cat::Harness => "harness",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub cat: Cat,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Thread lane (0 = the harness thread; service clients use 1..).
    pub tid: u32,
    /// Repetition id the span belongs to (0 = warm-up / outside any).
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder for one thread. Cheap to create; client threads get a
/// [`Tracer::fork`] sharing the epoch and merge back with
/// [`Tracer::absorb`].
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    workload: &'static str,
    tid: u32,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new("", false)
    }

    pub fn new(workload: &'static str, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            workload,
            tid: 0,
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tag subsequent spans with a repetition id.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// A recorder for another thread, on the same clock and repetition.
    pub fn fork(&self, tid: u32) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            workload: self.workload,
            tid,
            rep: self.rep,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Merge a forked recorder's spans; its roots become children of the
    /// span currently open here.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let adopt = self.open.last().copied();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => adopt,
            };
            self.spans.push(s);
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. Off: just runs `f`.
    pub fn span<R>(&mut self, name: &str, cat: Cat, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            cat,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            tid: self.tid,
            rep: self.rep,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children on the same thread cover. Children on
    /// other threads run concurrently with the parent and are not
    /// subtracted.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut selfs: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                if self.spans[p].tid == s.tid {
                    selfs[p] = selfs[p].saturating_sub(s.dur_ns());
                }
            }
        }
        selfs
    }

    /// Summed self time, in seconds, of one category's spans within one
    /// repetition.
    pub fn self_seconds(&self, cat: Cat, rep: u32) -> f64 {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.cat == cat && s.rep == rep)
            .map(|(_, &ns)| ns as f64 * 1e-9)
            .sum()
    }

    /// The spans as a Chrome trace document.
    pub fn chrome_json(&self) -> Json {
        let selfs = self.self_times_ns();
        let events = self
            .spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(i, (s, &self_ns))| {
                let parent = match s.parent {
                    Some(p) => Json::Num(p as f64),
                    None => Json::Null,
                };
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("cat".into(), Json::Str(s.cat.as_str().into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(f64::from(s.tid))),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::Num(s.dur_ns() as f64 / 1e3)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::Num(i as f64)),
                            ("parent".into(), parent),
                            ("workload".into(), Json::Str(self.workload.into())),
                            ("rep".into(), Json::Num(f64::from(s.rep))),
                            ("self_us".into(), Json::Num(self_ns as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn off_records_nothing_and_still_runs_the_body() {
        let mut tr = Tracer::off();
        let v = tr.span("x", Cat::Sut, |_| 7);
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tr = Tracer::new("w", true);
        tr.span("rep", Cat::Harness, |tr| {
            spin(200_000);
            tr.span("call", Cat::Sut, |_| spin(500_000));
            tr.span("check", Cat::Verify, |_| spin(300_000));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let selfs = tr.self_times_ns();
        assert_eq!(
            selfs[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert_eq!(selfs[1], spans[1].dur_ns());
        assert!(selfs[0] >= 200_000 && selfs[0] < spans[0].dur_ns());
        // Self times tile the root exactly.
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].dur_ns());
        assert!(tr.self_seconds(Cat::Sut, 0) >= 500e-6);
        assert_eq!(tr.self_seconds(Cat::Sut, 1), 0.0);
    }

    #[test]
    fn forked_spans_are_adopted_but_not_subtracted() {
        let mut tr = Tracer::new("w", true);
        tr.span("round", Cat::Harness, |tr| {
            let mut client = tr.fork(1);
            client.span("job", Cat::Sut, |_| spin(100_000));
            tr.absorb(client);
        });
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].tid, 1);
        // A concurrent lane does not eat the parent's self time.
        assert_eq!(tr.self_times_ns()[0], spans[0].dur_ns());
    }

    #[test]
    fn chrome_trace_is_complete_events_with_ids() {
        let mut tr = Tracer::new("sweep_compute", true);
        tr.set_rep(2);
        tr.span("run_native", Cat::Sut, |_| spin(10_000));
        let doc = tr.chrome_json();
        let text = doc.render();
        let back = Json::parse(&text).expect("trace parses");
        let events = back
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(e.get("name").and_then(Json::as_str), Some("run_native"));
        let args = e.get("args").expect("args");
        assert_eq!(
            args.get("workload").and_then(Json::as_str),
            Some("sweep_compute")
        );
        assert_eq!(args.get("rep").and_then(Json::as_f64), Some(2.0));
        assert_eq!(args.get("parent"), Some(&Json::Null));
    }
}

//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer's public API in
//! [`Tracer::span`]. With tracing off the wrapper only calls the closure.
//! With tracing on it records name, start, end, parent span, thread and
//! workload-run id; spans stay in memory until [`Tracer::chrome`] writes
//! them out once at the end of the run.

use pevpm_obs::chrome::{ChromeTrace, Span};
use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are microseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// `layer.call`, e.g. `pevpm.batch`.
    pub name: &'static str,
    /// Start, µs since the tracer epoch.
    pub start_us: f64,
    /// End, µs since the tracer epoch.
    pub end_us: f64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Small per-thread id (0 = the thread that created the tracer).
    pub tid: u32,
    /// Workload-run id shared by every span of one run.
    pub run: u64,
}

impl SpanRec {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }

    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static TID: RefCell<Option<u32>> = const { RefCell::new(None) };
}

/// Span recorder; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    run: u64,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
    next_tid: Mutex<u32>,
}

impl Tracer {
    /// A recorder for workload run `run`; `enabled = false` makes every
    /// [`Tracer::span`] a plain call.
    pub fn new(enabled: bool, run: u64) -> Self {
        Tracer {
            enabled,
            run,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_tid: Mutex::new(0),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn tid(&self) -> u32 {
        TID.with(|t| {
            *t.borrow_mut().get_or_insert_with(|| {
                let mut next = self.next_tid.lock().expect("tid lock poisoned");
                *next += 1;
                *next - 1
            })
        })
    }

    /// Run `f` inside a span named `name`, returning its result.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let tid = self.tid();
        let parent = STACK.with(|s| s.borrow().last().copied());
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let idx = {
            let mut spans = self.spans.lock().expect("span lock poisoned");
            spans.push(SpanRec {
                name,
                start_us,
                end_us: start_us,
                parent,
                tid,
                run: self.run,
            });
            spans.len() - 1
        };
        STACK.with(|s| s.borrow_mut().push(idx));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        let end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.lock().expect("span lock poisoned")[idx].end_us = end_us;
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span lock poisoned").clone()
    }

    /// Chrome trace_event export: one `X` event per span, categorised by
    /// layer, carrying parent and run id as args.
    pub fn chrome(&self, workload: &str) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        trace.name_process(1, &format!("perfbench {workload}"));
        for (i, s) in self.spans().iter().enumerate() {
            trace.push(Span {
                pid: 1,
                tid: s.tid,
                name: s.name.to_string(),
                cat: s.layer().to_string(),
                ts_us: s.start_us,
                dur_us: s.end_us - s.start_us,
                args: vec![
                    ("id".to_string(), i.to_string()),
                    (
                        "parent".to_string(),
                        s.parent.map_or("none".to_string(), |p| p.to_string()),
                    ),
                    ("run".to_string(), s.run.to_string()),
                ],
            });
        }
        trace
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children of one span run on its thread, one at a time).
pub fn self_secs(spans: &[SpanRec]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(SpanRec::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.secs();
        }
    }
    out
}

/// Summed self time per span name, sorted by name.
pub fn self_by_name(spans: &[SpanRec]) -> Vec<(&'static str, f64, usize)> {
    let selfs = self_secs(spans);
    let mut map: std::collections::BTreeMap<&'static str, (f64, usize)> = Default::default();
    for (s, t) in spans.iter().zip(selfs) {
        let e = map.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    map.into_iter().map(|(k, (t, n))| (k, t, n)).collect()
}

/// Share of the root spans named `root` that their direct children cover:
/// summed child time over summed root time.
pub fn coverage(spans: &[SpanRec], root: &str) -> f64 {
    let mut root_secs = 0.0;
    let mut child_secs = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if s.name != root {
            continue;
        }
        root_secs += s.secs();
        child_secs += spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(SpanRec::secs)
            .sum::<f64>();
    }
    if root_secs > 0.0 {
        child_secs / root_secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        let t = Tracer::new(true, 7);
        t.span("bench.op", || {
            t.span("pevpm.batch", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].run, 7);
        let selfs = self_secs(&spans);
        assert!(selfs[0] < spans[0].secs() && selfs[0] >= 0.0);
        assert!(coverage(&spans, "bench.op") > 0.5);
        let json = t.chrome("test").to_json();
        assert_eq!(pevpm_obs::chrome::validate(&json), Ok(2));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, 0);
        assert_eq!(t.span("x.y", || 3), 3);
        assert!(t.spans().is_empty());
    }
}

//! In-memory spans around the benchmark's calls into each layer,
//! written out at exit as a Chrome trace and as JSONL.
//!
//! Spans are recorded from the benchmark's own code only: each one
//! wraps one call into a public function of a layer (an
//! `Experiment::assemble`, one fault's `Experiment::run`, a whole PPSFP
//! campaign). A disabled tracer records nothing and costs one branch.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sbst_obs::Json;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the span that caused this one (0 for a root).
    pub parent: u64,
    /// Layer call, e.g. `experiment.run_warm`.
    pub name: &'static str,
    /// Request id: `workload/experiment/fault`.
    pub request: String,
    /// Start, in microseconds since the tracer was created.
    pub start_us: f64,
    /// End, in microseconds since the tracer was created.
    pub end_us: f64,
    /// Small per-thread number (Chrome-trace `tid`).
    pub thread: u64,
}

/// Records spans when enabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(u64::MAX) };
}

fn thread_number() -> u64 {
    THREAD.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives
    /// the new span's id to parent its own children (0 when disabled);
    /// `request` is only evaluated when recording.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: impl FnOnce() -> String,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_secs_f64() * 1e6;
        let out = f(id);
        let end = self.epoch.elapsed().as_secs_f64() * 1e6;
        let span = Span {
            id,
            parent,
            name,
            request: request(),
            start_us: start,
            end_us: end,
            thread: thread_number(),
        };
        self.spans
            .lock()
            .expect("span log poisoned by a panicking recorder")
            .push(span);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        spans
    }
}

fn span_args(span: &Span) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::int(span.id)),
        ("parent".into(), Json::int(span.parent)),
        ("request".into(), Json::Str(span.request.clone())),
    ])
}

/// Chrome-trace (`chrome://tracing`, Perfetto) document: one complete
/// (`"ph":"X"`) event per span.
pub fn to_chrome_trace(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Num(s.start_us)),
                ("dur".into(), Json::Num(s.end_us - s.start_us)),
                ("pid".into(), Json::int(0)),
                ("tid".into(), Json::int(s.thread)),
                ("args".into(), span_args(s)),
            ])
        })
        .collect();
    Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]).render()
}

/// One JSON object per line: `id`, `parent`, `name`, `request`,
/// `start_us`, `end_us`, `thread`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let line = Json::Obj(vec![
            ("id".into(), Json::int(s.id)),
            ("parent".into(), Json::int(s.parent)),
            ("name".into(), Json::Str(s.name.into())),
            ("request".into(), Json::Str(s.request.clone())),
            ("start_us".into(), Json::Num(s.start_us)),
            ("end_us".into(), Json::Num(s.end_us)),
            ("thread".into(), Json::int(s.thread)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

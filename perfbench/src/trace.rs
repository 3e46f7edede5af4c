//! The traced run's span log, and the sample statistics both runs use.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer's public entry point. Each span has a name, a start, an end, a
//! parent and the ID of the request it belongs to; spans stay in memory
//! (one log per thread, no locking on the hot path) and are written out
//! as one chrome-trace file when the run ends.

use std::time::Instant;

/// One recorded span. `scheme` is the mapping scheme's index in
/// [`crate::env::SCHEMES`], or `NO_SCHEME`; `a`/`b` carry the counts
/// measured at the same boundary (their meaning depends on `name`).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub scheme: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub a: u64,
    pub b: u64,
}

pub const NO_SCHEME: usize = usize::MAX;

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A per-thread span log. Span IDs are unique across threads because each
/// log draws from its own high-bits namespace.
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, thread: u64) -> SpanLog {
        SpanLog {
            epoch,
            next_id: (thread << 40) + 1,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; finish it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, scheme: usize, parent: u64, req: u64) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            scheme,
            start_ns,
            end_ns: start_ns,
            a: 0,
            b: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, at: usize, a: u64, b: u64) {
        let end = self.now_ns();
        let s = &mut self.spans[at];
        s.end_ns = end;
        s.a = a;
        s.b = b;
    }

    pub fn id_of(&self, at: usize) -> u64 {
        self.spans[at].id
    }

    /// Record `f` as one span; `counts` turns its result into the span's
    /// two counts. Returns the result and the span's length in
    /// microseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        scheme: usize,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> R,
        counts: impl FnOnce(&R) -> (u64, u64),
    ) -> (R, f64) {
        let at = self.open(name, scheme, parent, req);
        let r = f();
        let (a, b) = counts(&r);
        self.close(at, a, b);
        (r, self.spans[at].us())
    }
}

/// `counts` for spans that carry none.
pub fn no_counts<R>(_: &R) -> (u64, u64) {
    (0, 0)
}

/// Run `f` as a top-level span when tracing (`log` is `Some`), plainly
/// otherwise, so an untraced run pays one branch per call.
pub fn span<R>(
    log: Option<&mut SpanLog>,
    name: &'static str,
    scheme: usize,
    f: impl FnOnce() -> R,
    counts: impl FnOnce(&R) -> (u64, u64),
) -> R {
    match log {
        Some(log) => log.time(name, scheme, 0, 0, f, counts).0,
        None => f(),
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals. Children are assumed not to overlap each other
/// (one thread records one request's spans in sequence).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut index = std::collections::HashMap::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        index.insert(s.id, i);
    }
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Chrome trace-event JSON of `spans` (open in `chrome://tracing` or
/// Perfetto). Each event carries its span ID, parent, request ID, scheme
/// and self time in `args`.
pub fn chrome_json(spans: &[Span], scheme_names: &[&str]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let scheme = scheme_names.get(s.scheme).copied().unwrap_or("-");
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{},\
             \"scheme\":\"{}\",\"self_us\":{:.3},\"a\":{},\"b\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(""),
            s.start_ns as f64 / 1e3,
            s.us(),
            s.id >> 40,
            s.id,
            s.parent,
            s.req,
            scheme,
            self_ns as f64 / 1e3,
            s.a,
            s.b
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Sample statistics over latencies.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

pub fn median(xs: Vec<f64>) -> f64 {
    percentile(&sorted(xs), 50.0)
}

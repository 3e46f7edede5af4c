//! `xmlrel-perfbench`: the repository's seeded benchmark.
//!
//! ```text
//! xmlrel-perfbench --workload <lookups|mixed_rw> --seed <n>
//!                  --seconds <n> --trace <0|1>
//! ```
//!
//! Sets the workload up several times (reporting the median set-up time),
//! warms it up, runs its closed loop for `--seconds`, checks every output
//! it ran,
//! runs the seed determinism self-test, prints a human-readable report
//! and, as the last line, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). The traced run
//! also writes its spans to `.bench_out/trace-<workload>-<seed>.json`.
//! See `perfbench/README.md` for the metric and workload tables.

mod cpu;
mod env;
mod gen;
mod http;
mod selftest;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use xmlrel_obs::metrics::{self, Metric};
use xmlrel_obs::timed_lock::wait_metric;

use env::{setup, Env, Layout, DEWEY, INTERVAL, SCHEMES};
use gen::Sizes;
use trace::{median, percentile, sorted, Span, SpanLog};
use workloads::{Churn, LayerSample, Tally};

/// Set-up repeats until it has taken `SETUP_BUDGET` (at least
/// `MIN_SETUPS`, at most `MAX_SETUPS` times); `setup_s` is the median, so
/// a cheap set-up is sampled often enough to be steady.
const SETUP_BUDGET: Duration = Duration::from_secs(2);
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 50;
/// A run must put at least this many reads above its `p99_ms`.
const MIN_ABOVE_P99: usize = 10;
/// The workload runs untimed this long before its window, so the window
/// starts with warm caches and, on `mixed_rw`, with the churn under way.
const WARMUP: Duration = Duration::from_secs(3);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Lookups,
    MixedRw,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "lookups" => Some(Workload::Lookups),
            "mixed_rw" => Some(Workload::MixedRw),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Lookups => "lookups",
            Workload::MixedRw => "mixed_rw",
        }
    }

    fn layout(self) -> Layout {
        match self {
            Workload::Lookups => Layout {
                sizes: Sizes::LARGE,
                durable: false,
                serve: true,
                churn_docs: 0,
            },
            Workload::MixedRw => Layout {
                sizes: Sizes::SMALL,
                durable: true,
                serve: false,
                churn_docs: 4,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Row {
    name: String,
    value: f64,
    unit: &'static str,
    /// What the value was computed from, for the human-readable report.
    basis: String,
}

fn row(name: impl Into<String>, value: f64, unit: &'static str, basis: impl Into<String>) -> Row {
    Row {
        name: name.into(),
        value,
        unit,
        basis: basis.into(),
    }
}

/// Deltas of process-wide counters across a window.
#[derive(Clone, Copy, Default)]
struct Counters {
    read_lock_wait_us: u64,
    captures: u64,
    /// WAL bytes appended, snapshot bytes written, syncs.
    io: [u64; 3],
}

impl Counters {
    fn read(env: &Env) -> Counters {
        let read_lock_wait_us = match metrics::get(&wait_metric("db", "read")) {
            Some(Metric::Histogram(h)) => h.sum,
            _ => 0,
        };
        let mut c = Counters {
            read_lock_wait_us,
            ..Counters::default()
        };
        for slot in env.slots.iter().flatten() {
            let ledger = slot.store.ledger();
            c.captures += ledger.captures().len() as u64 + ledger.evicted();
            if let Some(io) = &slot.io {
                for (total, x) in c.io.iter_mut().zip(io.get()) {
                    *total += x;
                }
            }
        }
        c
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            read_lock_wait_us: self.read_lock_wait_us - before.read_lock_wait_us,
            captures: self.captures - before.captures,
            io: [
                self.io[0] - before.io[0],
                self.io[1] - before.io[1],
                self.io[2] - before.io[2],
            ],
        }
    }
}

/// One measured window.
struct Window {
    tally: Tally,
    seconds: f64,
    counters: Counters,
}

fn measure(
    w: Workload,
    env: &Env,
    seed: u64,
    window: Duration,
    trace: Option<Instant>,
    churn: &mut Churn,
) -> Window {
    let before = Counters::read(env);
    let started = Instant::now();
    let tally = match w {
        Workload::Lookups => workloads::lookups(env, seed, window, trace),
        Workload::MixedRw => {
            let (mut reads, writes) = workloads::mixed(env, seed, window, trace, churn);
            reads.merge(writes);
            reads
        }
    };
    let seconds = started.elapsed().as_secs_f64();
    Window {
        tally,
        seconds,
        counters: Counters::read(env).since(before),
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics BENCHMARK.json names, then the ones that only
/// apply to some workloads (report only). A p99 with fewer than
/// `MIN_ABOVE_P99` samples above it is reported in `problems`.
fn end_to_end(
    env: &Env,
    churn: &Churn,
    win: &Window,
    setup_s: &[f64],
    problems: &mut Vec<String>,
) -> (Vec<Row>, Vec<Row>) {
    let t = &win.tally;
    let mut rows = vec![row(
        "setup_s",
        median(setup_s.to_vec()),
        "s",
        format!("median of n={} set-ups", setup_s.len()),
    )];
    for (s, name) in SCHEMES.iter().enumerate() {
        rows.push(row(
            format!("p50_ms.{name}"),
            t.p50_ms(s),
            "ms",
            format!(
                "n={}; geometric mean of {} per-template medians",
                t.scheme_reads(s),
                t.read_ms[s].len()
            ),
        ));
    }
    let all = sorted(t.all_read_ms());
    let p99 = percentile(&all, 99.0);
    let above = all.iter().filter(|x| **x > p99).count();
    if above < MIN_ABOVE_P99 {
        problems.push(format!(
            "only {above} of {} reads lie above p99_ms (at least {MIN_ABOVE_P99} needed)",
            all.len()
        ));
    }
    rows.push(row(
        "p99_ms",
        p99,
        "ms",
        format!("n={}, {above} samples above", all.len()),
    ));
    rows.push(row(
        "throughput_qps",
        all.len() as f64 / win.seconds,
        "1/s",
        format!("{} reads in {:.2} s", all.len(), win.seconds),
    ));
    let storage: usize = (0..SCHEMES.len()).map(|s| env.storage_bytes(s)).sum();
    let input: usize = (0..SCHEMES.len())
        .map(|s| churn.live_input_bytes(env, s))
        .sum();
    rows.push(row(
        "storage_bytes_per_input_byte",
        ratio(storage as f64, input as f64),
        "ratio",
        format!("{storage} bytes stored / {input} XML bytes over six schemes"),
    ));
    rows.push(row("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM"));

    let mut extra = Vec::new();
    let writes = sorted(t.write_ms.clone());
    if !writes.is_empty() {
        let n = format!("n={}", writes.len());
        extra.push(row("write_p50_ms", percentile(&writes, 50.0), "ms", &*n));
        extra.push(row("write_p99_ms", percentile(&writes, 99.0), "ms", &*n));
        extra.push(row(
            "writes_per_s",
            writes.len() as f64 / win.seconds,
            "1/s",
            format!("{} writes in {:.2} s", writes.len(), win.seconds),
        ));
    }
    extra.push(row(
        "error_rate",
        ratio(t.failed as f64, t.attempted as f64),
        "ratio",
        format!("{} failed of {} attempted", t.failed, t.attempted),
    ));
    (rows, extra)
}

/// Spans called `name` of scheme `scheme`; `NO_SCHEME` matches every
/// scheme.
fn spans_named<'a>(
    spans: &'a [Span],
    name: &'a str,
    scheme: usize,
) -> impl Iterator<Item = &'a Span> {
    spans
        .iter()
        .filter(move |s| s.name == name && (scheme == trace::NO_SCHEME || s.scheme == scheme))
}

fn span_p50(spans: &[Span], name: &str, scheme: usize) -> (f64, usize) {
    let durs: Vec<f64> = spans_named(spans, name, scheme).map(Span::us).collect();
    let n = durs.len();
    (median(durs), n)
}

/// µs per KiB of input over spans whose `a` is the input size in bytes.
fn us_per_kb(spans: &[Span], name: &str, scheme: usize) -> (f64, usize) {
    let (mut us, mut bytes, mut n) = (0.0, 0u64, 0);
    for s in spans_named(spans, name, scheme) {
        us += s.us();
        bytes += s.a;
        n += 1;
    }
    (ratio(us, bytes as f64 / 1024.0), n)
}

/// Per-layer metrics of the traced run: `plain` is the untraced first
/// half of the window, `traced` the second; `spans` hold set-up and the
/// traced half.
fn per_layer(
    env: &Env,
    churn: &Churn,
    plain: &Window,
    traced: &Window,
    spans: &[Span],
) -> Vec<Row> {
    let mut rows = Vec::new();
    let layers: &[LayerSample] = &traced.tally.layers;
    let of = |s: usize| layers.iter().filter(move |l| l.scheme == s);

    let parse: Vec<f64> = layers.iter().map(|l| l.parse_us).collect();
    rows.push(row(
        "xqir.parse_us",
        median(parse),
        "us",
        format!("n={}", layers.len()),
    ));
    for (s, name) in SCHEMES.iter().enumerate() {
        let n = format!("n={}", of(s).count());
        rows.push(row(
            format!("compile.translate_p50_us.{name}"),
            median(of(s).map(|l| l.translate_us).collect()),
            "us",
            &*n,
        ));
    }
    for (s, name) in SCHEMES.iter().enumerate() {
        let n = of(s).count();
        let items: u64 = of(s).map(|l| l.items).sum();
        rows.push(row(
            format!("reldb.plan_p50_us.{name}"),
            median(of(s).map(|l| l.plan_us).collect()),
            "us",
            format!("n={n}"),
        ));
        rows.push(row(
            format!("reldb.execute_p50_us.{name}"),
            median(of(s).map(|l| l.readonly_us - l.plan_us).collect()),
            "us",
            format!("n={n}; query_readonly minus plan_select"),
        ));
        rows.push(row(
            format!("reldb.comparisons_per_result.{name}"),
            ratio(
                of(s).map(|l| l.comparisons).sum::<u64>() as f64,
                items as f64,
            ),
            "count",
            format!("{items} results"),
        ));
        rows.push(row(
            format!("reldb.probes_per_request.{name}"),
            ratio(of(s).map(|l| l.probes).sum::<u64>() as f64, n as f64),
            "count",
            format!("n={n}"),
        ));
    }
    // Publish time is `run` minus `rows` of the same request. Medians over
    // requests keep a few disturbed timings from dominating where
    // publishing is nearly free; `rows` and `run` alternate order.
    for (s, name) in SCHEMES.iter().enumerate() {
        let per_item: Vec<f64> = of(s)
            .filter(|l| l.items > 0)
            .map(|l| (l.run_us - l.rows_us) / l.items as f64)
            .collect();
        let n = per_item.len();
        rows.push(row(
            format!("publish.us_per_item.{name}"),
            median(per_item),
            "us",
            format!("n={n}; median of (run - rows) / items"),
        ));
        rows.push(row(
            format!("publish.share.{name}"),
            median(
                of(s)
                    .map(|l| ratio(l.run_us - l.rows_us, l.run_us))
                    .collect(),
            ),
            "ratio",
            format!("n={}; median of (run - rows) / run", of(s).count()),
        ));
    }
    rows.push(row(
        "store.snapshot_p50_us",
        median(layers.iter().map(|l| l.snapshot_us).collect()),
        "us",
        format!("n={}", layers.len()),
    ));
    let plain_reads = plain.tally.reads();
    rows.push(row(
        "store.lock_wait_us_per_read",
        ratio(plain.counters.read_lock_wait_us as f64, plain_reads as f64),
        "us",
        format!("{plain_reads} untraced reads"),
    ));
    let served: Vec<f64> = layers
        .iter()
        .filter_map(|l| l.http_us.map(|h| h - l.run_us))
        .collect();
    let n = served.len();
    rows.push(row(
        "serve.overhead_p50_us",
        median(served),
        "us",
        format!("n={n}; HTTP round trip minus in-process run"),
    ));
    rows.push(row(
        "serve.shed",
        (plain.tally.shed + traced.tally.shed) as f64,
        "count",
        "503 replies",
    ));
    let (v, n) = us_per_kb(spans, "xmlpar.parse", trace::NO_SCHEME);
    rows.push(row("xmlpar.parse_us_per_kb", v, "us/KiB", format!("n={n}")));
    for (s, name) in SCHEMES.iter().enumerate() {
        let (v, n) = us_per_kb(spans, "shredder.load", s);
        rows.push(row(
            format!("shredder.shred_us_per_kb.{name}"),
            v,
            "us/KiB",
            format!("n={n}"),
        ));
        let (v, n) = span_p50(spans, "shredder.remove", s);
        rows.push(row(
            format!("shredder.remove_p50_us.{name}"),
            v,
            "us",
            format!("n={n}"),
        ));
        let stored = env.storage_bytes(s);
        let input = churn.live_input_bytes(env, s);
        rows.push(row(
            format!("shredder.bytes_per_input_byte.{name}"),
            ratio(stored as f64, input as f64),
            "ratio",
            format!("{stored} / {input}"),
        ));
    }
    for (s, name) in [(INTERVAL, "interval"), (DEWEY, "dewey")] {
        let (v, n) = span_p50(spans, "update.insert", s);
        rows.push(row(
            format!("update.insert_p50_us.{name}"),
            v,
            "us",
            format!("n={n}"),
        ));
        let (v, n) = span_p50(spans, "update.delete", s);
        rows.push(row(
            format!("update.delete_p50_us.{name}"),
            v,
            "us",
            format!("n={n}"),
        ));
    }
    let renumbered: Vec<u64> = spans_named(spans, "update.insert", INTERVAL)
        .map(|s| s.a)
        .collect();
    rows.push(row(
        "update.renumbered_per_insert.interval",
        ratio(
            renumbered.iter().sum::<u64>() as f64,
            renumbered.len() as f64,
        ),
        "count",
        format!("n={}", renumbered.len()),
    ));
    let io = [
        plain.counters.io[0] + traced.counters.io[0],
        plain.counters.io[2] + traced.counters.io[2],
    ];
    let input = plain.tally.written_input_bytes + traced.tally.written_input_bytes;
    let writes = plain.tally.write_ms.len() + traced.tally.write_ms.len();
    rows.push(row(
        "wal.bytes_per_input_byte",
        ratio(io[0] as f64, input as f64),
        "ratio",
        format!("{} WAL bytes / {input} XML bytes written", io[0]),
    ));
    rows.push(row(
        "wal.syncs_per_write",
        ratio(io[1] as f64, writes as f64),
        "count",
        format!("{} syncs / {writes} writes", io[1]),
    ));
    let (v, n) = span_p50(spans, "wal.checkpoint", trace::NO_SCHEME);
    rows.push(row("wal.checkpoint_p50_us", v, "us", format!("n={n}")));
    let (written, live) = spans_named(spans, "wal.checkpoint", trace::NO_SCHEME)
        .fold((0u64, 0u64), |(w, l), s| (w + s.a, l + s.b));
    rows.push(row(
        "wal.checkpoint_bytes_per_live_byte",
        ratio(written as f64, live as f64),
        "ratio",
        format!("{written} snapshot bytes / {live} live bytes"),
    ));
    rows.push(row(
        "ledger.captures",
        (plain.counters.captures + traced.counters.captures) as f64,
        "count",
        "slow-query captures during the window",
    ));
    rows.push(row(
        "check.order_mismatch",
        (plain.tally.order_mismatches() + traced.tally.order_mismatches()) as f64,
        "count",
        "same items as the other schemes, different order",
    ));
    // Tracing overhead: the per-scheme `p50_ms`, traced half against
    // untraced half.
    let sum_p50 = |t: &Tally| -> f64 { (0..SCHEMES.len()).map(|s| t.p50_ms(s)).sum() };
    rows.push(row(
        "trace.overhead_pct",
        100.0 * (ratio(sum_p50(&traced.tally), sum_p50(&plain.tally)) - 1.0),
        "%",
        "sum over schemes of p50, traced vs untraced half",
    ));
    rows.push(row(
        "trace.unaccounted_share",
        median(
            layers
                .iter()
                .map(|l| ratio(l.run_us - l.phases_us, l.run_us))
                .collect(),
        ),
        "ratio",
        "median of (run wall - sum of the run's phase times) / run wall",
    ));
    let writes = sorted(plain.tally.write_ms.clone());
    let n = format!("n={} untraced", writes.len());
    rows.push(row("write_p50_ms", percentile(&writes, 50.0), "ms", &*n));
    rows.push(row("write_p99_ms", percentile(&writes, 99.0), "ms", &*n));
    rows.push(row(
        "writes_per_s",
        writes.len() as f64 / plain.seconds,
        "1/s",
        &*n,
    ));
    rows
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let layout = w.layout();
    let epoch = Instant::now();
    let mut setup_log = args.trace.then(|| SpanLog::new(epoch, 0));
    let mut setup_s = Vec::new();
    let mut storage_per_setup = Vec::new();
    let mut env: Option<Env> = None;
    let mut clean = true;
    let setups_started = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setups_started.elapsed() < SETUP_BUDGET)
    {
        if let Some(old) = env.take() {
            clean &= old.shutdown();
        }
        let started = Instant::now();
        let fresh = setup(args.seed, layout, setup_log.as_mut())?;
        setup_s.push(started.elapsed().as_secs_f64());
        storage_per_setup.push(
            (0..SCHEMES.len())
                .map(|s| fresh.storage_bytes(s))
                .collect::<Vec<_>>(),
        );
        env = Some(fresh);
    }
    let env = env.expect("at least one set-up");
    let mut problems = Vec::new();
    if storage_per_setup.windows(2).any(|p| p[0] != p[1]) {
        problems.push("storage bytes differ between set-ups of one seed".to_string());
    }

    let window = Duration::from_secs(args.seconds);
    let mut churn = Churn::new(&env);
    let mut warmup = measure(w, &env, args.seed, WARMUP, None, &mut churn).tally;
    let served = std::mem::take(&mut warmup.served);
    workloads::check_served(&env, &served, &mut warmup);
    if warmup.failed > 0 {
        problems.push(format!(
            "{} of {} warm-up operations failed: {:?}",
            warmup.failed, warmup.attempted, warmup.errors
        ));
    }
    let (rows, extra, mut tally) = if args.trace {
        let plain = measure(w, &env, args.seed, window / 2, None, &mut churn);
        let traced = measure(w, &env, args.seed, window / 2, Some(epoch), &mut churn);
        let mut spans = setup_log.map(|l| l.spans).unwrap_or_default();
        spans.extend(traced.tally.spans.iter().cloned());
        let rows = per_layer(&env, &churn, &plain, &traced, &spans);
        write_trace(w, args.seed, &spans);
        let mut tally = plain.tally;
        tally.merge(traced.tally);
        (rows, Vec::new(), tally)
    } else {
        let win = measure(w, &env, args.seed, window, None, &mut churn);
        let (rows, extra) = end_to_end(&env, &churn, &win, &setup_s, &mut problems);
        (rows, extra, win.tally)
    };
    for (s, name) in SCHEMES.iter().enumerate() {
        if tally.scheme_reads(s) == 0 {
            problems.push(format!("{name} completed no reads"));
        }
    }
    if w == Workload::Lookups {
        let served = std::mem::take(&mut tally.served);
        workloads::check_served(&env, &served, &mut tally);
    }
    if let Err(e) = selftest::determinism(args.seed) {
        problems.push(format!("determinism self-test: {e}"));
    }
    clean &= env.shutdown();
    if !clean {
        problems.push("a server did not drain cleanly".to_string());
    }

    println!(
        "workload {}  seed {}  {} s  trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for r in rows.iter().chain(&extra) {
        println!(
            "  {:<40} {:>14.4} {:<7} ({})",
            r.name, r.value, r.unit, r.basis
        );
    }
    for ((s, template), n) in &tally.order_mismatch {
        println!(
            "  order mismatch: {} on {template}: {n} requests",
            SCHEMES[*s]
        );
    }
    for e in &tally.errors {
        println!("  failure: {e}");
    }
    for p in &problems {
        println!("  check failed: {p}");
    }
    let correct = tally.failed == 0 && problems.is_empty();
    println!(
        "  output check: {} ({} attempted, {} failed, {} order mismatches)",
        if correct { "ok" } else { "FAILED" },
        tally.attempted,
        tally.failed,
        tally.order_mismatches()
    );
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name,
                json_number(r.value),
                r.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    Ok(())
}

fn write_trace(w: Workload, seed: u64, spans: &[Span]) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-{seed}.json", w.name()));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(spans, &SCHEMES)));
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: xmlrel-perfbench --workload <lookups|mixed_rw> --seed <n> \
                 --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

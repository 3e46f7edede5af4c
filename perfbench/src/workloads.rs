//! The two closed-loop workloads and the output check on every
//! operation they time.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use reldb::Value;
use xmlpar::Document;
use xmlrel_core::update::{
    dewey_delete_subtree, dewey_insert_child, interval_delete_subtree, interval_insert_child,
};
use xmlrel_core::{CoreError, QueryOutput, QueryRequest, XmlStore};

use crate::cpu;
use crate::env::{load, parse, Env, DEWEY, INTERVAL, SCHEMES};
use crate::gen::{
    churn_doc, person_fragment, Corpus, Req, Stream, FRAGMENT_TEMPLATES, LOOKUP_TEMPLATES,
};
use crate::http::post_query;
use crate::trace::{median, no_counts, span, Span, SpanLog, NO_SCHEME};

/// Client-side deadline of every operation. A reply after it counts as
/// failed even when the store returned `Ok`; the same budget is also
/// handed to the program (`timeout_ms` / `X-Timeout-Ms`).
pub const DEADLINE_MS: u64 = 2000;
/// `lookups` client connections.
pub const CLIENTS: u64 = 2;
/// Writes to one store between two checkpoints (`persist()`).
pub const PERSIST_EVERY: u64 = 8;
/// The `mixed_rw` writer's pause between two write cycles. Removed rows
/// stay behind as tombstones that every later scan walks over, so a writer
/// running flat out would make read cost depend on how fast the machine
/// happened to be earlier in the run; a closed loop with a think time
/// churns at nearly the same rate in every run.
pub const WRITE_THINK: Duration = Duration::from_millis(40);
/// The SQL a statically-empty query compiles to; it has no plan to time.
const EMPTY_SQL: &str = "SELECT NULL LIMIT 0";

/// Layer timings of one traced read, in microseconds, plus the counts
/// measured at the same boundaries.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    pub scheme: usize,
    pub snapshot_us: f64,
    pub parse_us: f64,
    pub translate_us: f64,
    pub plan_us: f64,
    pub readonly_us: f64,
    pub rows_us: f64,
    pub run_us: f64,
    /// The sum of the phase times the program reports for the run.
    pub phases_us: f64,
    pub http_us: Option<f64>,
    pub comparisons: u64,
    pub probes: u64,
    pub items: u64,
}

/// Everything one workload thread measured.
#[derive(Default)]
pub struct Tally {
    /// Timed read latency per scheme and template, ms.
    pub read_ms: [BTreeMap<&'static str, Vec<f64>>; 6],
    /// Timed write latency (load, remove, insert, delete, checkpoint), ms.
    pub write_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Results that hold the same items as the other schemes in another
    /// order, by (scheme, template): counted, not failed.
    pub order_mismatch: BTreeMap<(usize, &'static str), u64>,
    /// `503` replies.
    pub shed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    pub layers: Vec<LayerSample>,
    pub spans: Vec<Span>,
    /// `lookups`: each request with the interval server's reply, checked
    /// against the in-process result after the window.
    pub served: Vec<(Req, Vec<String>)>,
    /// XML bytes the write stream stored (documents and subtrees).
    pub written_input_bytes: u64,
    /// Per-insert `UpdateStats::rows_renumbered`, per scheme.
    pub renumbered: [Vec<u64>; 6],
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.note(msg);
    }

    /// Keep a failure message without counting it.
    fn note(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        for (mine, theirs) in self.read_ms.iter_mut().zip(other.read_ms) {
            for (template, ms) in theirs {
                mine.entry(template).or_default().extend(ms);
            }
        }
        for (mine, theirs) in self.renumbered.iter_mut().zip(other.renumbered) {
            mine.extend(theirs);
        }
        self.write_ms.extend(other.write_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, n) in other.order_mismatch {
            *self.order_mismatch.entry(k).or_default() += n;
        }
        self.shed += other.shed;
        for e in other.errors {
            self.note(e);
        }
        self.layers.extend(other.layers);
        self.spans.extend(other.spans);
        self.served.extend(other.served);
        self.written_input_bytes += other.written_input_bytes;
    }

    pub fn order_mismatches(&self) -> u64 {
        self.order_mismatch.values().sum()
    }

    /// Timed reads of scheme `s`.
    pub fn scheme_reads(&self, s: usize) -> usize {
        self.read_ms[s].values().map(Vec::len).sum()
    }

    pub fn reads(&self) -> usize {
        (0..SCHEMES.len()).map(|s| self.scheme_reads(s)).sum()
    }

    /// Every timed read latency, all schemes and templates pooled.
    pub fn all_read_ms(&self) -> Vec<f64> {
        self.read_ms
            .iter()
            .flat_map(|by_template| by_template.values().flatten().copied())
            .collect()
    }

    /// Scheme `s`'s typical read latency: the geometric mean over
    /// templates of each template's median. Templates differ in cost by up
    /// to 10x; a median pooled over them lands between cost modes and
    /// jumps with the mix, while each template's median stays inside its
    /// own mode.
    pub fn p50_ms(&self, s: usize) -> f64 {
        let medians: Vec<f64> = self.read_ms[s]
            .values()
            .map(|ms| median(ms.clone()))
            .collect();
        if medians.is_empty() {
            return 0.0;
        }
        let log_mean = medians.iter().map(|m| m.ln()).sum::<f64>() / medians.len() as f64;
        log_mean.exp()
    }
}

static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// How a workload reaches the stores.
#[derive(Clone, Copy)]
enum Via<'a> {
    /// `XmlStore::request`, optionally scoped to one document.
    InProcess(Option<&'a str>),
    /// `POST /query` to the store's server.
    Http,
}

/// One timed read: its items (or error), its latency, and whether the
/// server shed it.
struct Outcome {
    items: Result<Vec<String>, String>,
    ms: f64,
    shed: bool,
}

/// The user's call: a request pinned to its snapshot, under the deadline.
fn request<'a>(store: &'a XmlStore, text: &'a str, scope: Option<&'a str>) -> QueryRequest<'a> {
    let mut request = store.request(text).snapshot().timeout_ms(DEADLINE_MS);
    if let Some(doc) = scope {
        request = request.doc(doc);
    }
    request
}

fn run_in_process(
    store: &XmlStore,
    text: &str,
    scope: Option<&str>,
) -> Result<QueryOutput, String> {
    request(store, text, scope).run().map_err(|e| e.to_string())
}

fn run_http(addr: SocketAddr, text: &str) -> Outcome {
    let started = Instant::now();
    let reply = post_query(addr, text, DEADLINE_MS);
    let ms = elapsed_ms(started);
    let (items, shed) = match reply {
        Ok((200, body)) => (Ok(body.lines().map(str::to_string).collect()), false),
        Ok((status, body)) => (
            Err(format!("HTTP {status}: {}", body.trim())),
            status == 503,
        ),
        Err(e) => (Err(e), false),
    };
    Outcome { items, ms, shed }
}

fn server_addr(env: &Env, s: usize, c: Corpus) -> SocketAddr {
    env.slots[s][c.idx()]
        .server
        .as_ref()
        .expect("the lookups layout starts a server per store")
        .addr()
}

/// The untraced read: only the call a user makes.
fn plain_read(env: &Env, s: usize, req: &Req, via: Via<'_>) -> Outcome {
    match via {
        Via::InProcess(scope) => {
            let started = Instant::now();
            let items = run_in_process(env.store(s, req.corpus), &req.text, scope).map(|o| o.items);
            Outcome {
                items,
                ms: elapsed_ms(started),
                shed: false,
            }
        }
        Via::Http => run_http(server_addr(env, s, req.corpus), &req.text),
    }
}

/// The traced read: one span per layer entry point, all under one
/// `request` span. The layers are reached through their public entry
/// points one after another (snapshot, parse, translate, plan, execute,
/// profile, rows without publishing), then the user's call itself
/// (`core.run`, or `serve.http` for served reads) is timed as the
/// request's latency. `rows` and `run` swap order from one read of a
/// scheme to the next (`rows_first`), so the one that runs second on
/// warmer caches does not bias the publish share.
fn traced_read(
    log: &mut SpanLog,
    env: &Env,
    s: usize,
    req: &Req,
    via: Via<'_>,
    rows_first: bool,
) -> (Outcome, Result<LayerSample, String>) {
    let store = env.store(s, req.corpus);
    let scope = match via {
        Via::InProcess(scope) => scope,
        Via::Http => None,
    };
    let rid = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
    let root = log.open("request", s, 0, rid);
    let parent = log.id_of(root);
    let mut sample = LayerSample {
        scheme: s,
        ..LayerSample::default()
    };
    let mut replay = (|| -> Result<(), String> {
        let (snap, us) = log.time(
            "store.snapshot",
            s,
            parent,
            rid,
            || store.snapshot(),
            no_counts,
        );
        sample.snapshot_us = us;
        let (parsed, us) = log.time(
            "xqir.parse",
            NO_SCHEME,
            parent,
            rid,
            || xqir::parse_query(&req.text),
            no_counts,
        );
        parsed.map_err(|e| format!("parse_query: {e}"))?;
        sample.parse_us = us;
        // The request (and the snapshot it pins) is built outside the span,
        // so the span covers translation only.
        let unsent = request(store, &req.text, scope);
        let (translated, us) = log.time(
            "compile.translate",
            s,
            parent,
            rid,
            || unsent.translated(),
            no_counts,
        );
        let sql = translated.map_err(|e| format!("translate: {e}"))?.sql;
        sample.translate_us = us;
        if sql != EMPTY_SQL {
            let (plan, us) = log.time(
                "reldb.plan",
                s,
                parent,
                rid,
                || snap.plan_select(&sql),
                no_counts,
            );
            plan.map_err(|e| format!("plan_select: {e}"))?;
            sample.plan_us = us;
            let (rows, us) = log.time(
                "reldb.execute",
                s,
                parent,
                rid,
                || snap.query_readonly(&sql),
                no_counts,
            );
            rows.map_err(|e| format!("query_readonly: {e}"))?;
            sample.readonly_us = us;
            let (profiled, _) = log.time(
                "reldb.profile",
                s,
                parent,
                rid,
                || snap.query_profiled(&sql),
                |r| {
                    r.as_ref().map_or((0, 0), |(_, p)| {
                        let rollup = p.rollup();
                        (rollup.comparisons, rollup.probes)
                    })
                },
            );
            let (_, profile) = profiled.map_err(|e| format!("query_profiled: {e}"))?;
            let rollup = profile.rollup();
            sample.comparisons = rollup.comparisons;
            sample.probes = rollup.probes;
        }
        Ok(())
    })();
    if rows_first {
        replay = replay.and_then(|()| time_rows(log, &mut sample, store, req, scope, parent, rid));
    }
    let (out, run_us) = log.time(
        "core.run",
        s,
        parent,
        rid,
        || run_in_process(store, &req.text, scope),
        |out| {
            out.as_ref()
                .map_or((0, 0), |o| (o.items.len() as u64, o.phases.accounted_us()))
        },
    );
    sample.run_us = run_us;
    if let Ok(out) = &out {
        sample.items = out.items.len() as u64;
        sample.phases_us = out.phases.accounted_us() as f64;
    }
    let items = out.map(|o| o.items);
    if !rows_first {
        replay = replay.and_then(|()| time_rows(log, &mut sample, store, req, scope, parent, rid));
    }
    let outcome = match via {
        Via::InProcess(_) => Outcome {
            items,
            ms: run_us / 1e3,
            shed: false,
        },
        Via::Http => {
            let (outcome, _) = log.time(
                "serve.http",
                s,
                parent,
                rid,
                || run_http(server_addr(env, s, req.corpus), &req.text),
                no_counts,
            );
            sample.http_us = Some(outcome.ms * 1e3);
            outcome
        }
    };
    log.close(root, 0, 0);
    (outcome, replay.map(|()| sample))
}

/// `QueryRequest::rows`: the request without publishing, as `core.rows`.
fn time_rows(
    log: &mut SpanLog,
    sample: &mut LayerSample,
    store: &XmlStore,
    req: &Req,
    scope: Option<&str>,
    parent: u64,
    rid: u64,
) -> Result<(), String> {
    let unsent = request(store, &req.text, scope);
    let (rows, us) = log.time(
        "core.rows",
        sample.scheme,
        parent,
        rid,
        || unsent.rows(),
        no_counts,
    );
    rows.map_err(|e| format!("rows: {e}"))?;
    sample.rows_us = us;
    Ok(())
}

/// Send `req` to all six schemes in turn, time each call, and check that
/// the six answers hold the same items. Returns the interval scheme's
/// items (the `lookups` served-body check compares them with the
/// in-process result later).
fn read_all_schemes(
    env: &Env,
    req: &Req,
    via: Via<'_>,
    mut log: Option<&mut SpanLog>,
    tally: &mut Tally,
) -> Option<Vec<String>> {
    let mut outs: [Result<Vec<String>, String>; 6] =
        std::array::from_fn(|_| Err("not run".to_string()));
    let mut bad = [false; 6];
    for s in req.order {
        let outcome = match log.as_deref_mut() {
            None => plain_read(env, s, req, via),
            Some(log) => {
                let rows_first = tally.scheme_reads(s).is_multiple_of(2);
                let (outcome, layers) = traced_read(log, env, s, req, via, rows_first);
                match layers {
                    Ok(sample) => tally.layers.push(sample),
                    Err(e) => {
                        bad[s] = true;
                        tally.note(format!(
                            "{} layer replay of {:?}: {e}",
                            SCHEMES[s], req.text
                        ));
                    }
                }
                outcome
            }
        };
        tally.attempted += 1;
        tally.read_ms[s]
            .entry(req.template)
            .or_default()
            .push(outcome.ms);
        if outcome.shed {
            tally.shed += 1;
        }
        if outcome.ms > DEADLINE_MS as f64 {
            bad[s] = true;
            tally.note(format!(
                "{} missed its deadline: {:?}",
                SCHEMES[s], req.text
            ));
        }
        if let Err(e) = &outcome.items {
            bad[s] = true;
            tally.note(format!("{}: {:?}: {e}", SCHEMES[s], req.text));
        }
        outs[s] = outcome.items;
    }
    if let Some(reference) = outs.iter().find_map(|o| o.as_ref().ok()) {
        let mut reference_sorted = reference.clone();
        reference_sorted.sort();
        for (s, out) in outs.iter().enumerate() {
            let Ok(items) = out else { continue };
            if items == reference {
                continue;
            }
            let mut items_sorted = items.clone();
            items_sorted.sort();
            if items_sorted == reference_sorted {
                *tally.order_mismatch.entry((s, req.template)).or_default() += 1;
            } else {
                bad[s] = true;
                tally.note(format!(
                    "{} disagrees on {:?}: {} items, expected {}",
                    SCHEMES[s],
                    req.text,
                    items.len(),
                    reference.len()
                ));
            }
        }
    }
    // A call with several problems still counts as one failure.
    tally.failed += bad.iter().filter(|b| **b).count() as u64;
    outs.into_iter().nth(INTERVAL).and_then(Result::ok)
}

/// `lookups`: two client connections in a closed loop over HTTP; every
/// request goes to all six schemes' servers in turn.
pub fn lookups(env: &Env, seed: u64, window: Duration, trace: Option<Instant>) -> Tally {
    let stream = Mutex::new(Stream::new(seed, LOOKUP_TEMPLATES, &env.profile));
    let end = Instant::now() + window;
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let stream = &stream;
                scope.spawn(move || {
                    let mut log = trace.map(|epoch| SpanLog::new(epoch, t + 1));
                    let mut tally = Tally::default();
                    while Instant::now() < end {
                        let req = stream
                            .lock()
                            .expect("no client panics while drawing a request")
                            .next()
                            .expect("the request stream is endless");
                        if let Some(items) =
                            read_all_schemes(env, &req, Via::Http, log.as_mut(), &mut tally)
                        {
                            tally.served.push((req, items));
                        }
                    }
                    tally.spans = log.map(|l| l.spans).unwrap_or_default();
                    tally
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let mut total = Tally::default();
    for t in tallies {
        total.merge(t);
    }
    total
}

/// The served-body check of `lookups`: each interval reply must equal the
/// in-process result of the same query (the other five schemes were
/// already checked against the interval reply).
pub fn check_served(env: &Env, served: &[(Req, Vec<String>)], tally: &mut Tally) {
    let mut expected: HashMap<&str, Result<Vec<String>, String>> = HashMap::new();
    for (req, items) in served {
        let want = expected.entry(&req.text).or_insert_with(|| {
            run_in_process(env.store(INTERVAL, req.corpus), &req.text, None).map(|o| o.items)
        });
        if want.as_ref() != Ok(items) {
            tally.fail(format!(
                "served body differs from in-process result: {:?}",
                req.text
            ));
        }
    }
}

/// Per-scheme state of the `mixed_rw` write stream.
pub struct Churn {
    /// Live churn documents of each scheme's auction store, oldest first.
    pub live: Vec<VecDeque<(String, usize)>>,
    next_id: Vec<u64>,
    writes_since_checkpoint: Vec<u64>,
    cycles: usize,
}

impl Churn {
    pub fn new(env: &Env) -> Churn {
        Churn {
            live: vec![env.churn.iter().cloned().collect(); SCHEMES.len()],
            next_id: vec![env.churn.len() as u64; SCHEMES.len()],
            writes_since_checkpoint: vec![0; SCHEMES.len()],
            cycles: 0,
        }
    }

    /// The writer rotates through the schemes, one cycle each.
    pub fn next_scheme(&mut self) -> usize {
        self.cycles += 1;
        (self.cycles - 1) % SCHEMES.len()
    }

    /// XML bytes scheme `s` holds: the base documents plus its live churn.
    pub fn live_input_bytes(&self, env: &Env, s: usize) -> usize {
        env.base_bytes.iter().sum::<usize>() + self.live[s].iter().map(|c| c.1).sum::<usize>()
    }
}

/// Time one write and record its latency; the span (when tracing) is
/// recorded by `op` itself. Returns `op`'s value when it succeeded.
fn timed_write<R>(
    tally: &mut Tally,
    what: &str,
    op: impl FnOnce() -> Result<R, String>,
) -> Option<R> {
    let started = Instant::now();
    let r = op();
    let ms = elapsed_ms(started);
    tally.attempted += 1;
    tally.write_ms.push(ms);
    match r {
        Ok(v) => {
            if ms > DEADLINE_MS as f64 {
                tally.fail(format!("{what} missed its deadline"));
            }
            Some(v)
        }
        Err(e) => {
            tally.fail(format!("{what}: {e}"));
            None
        }
    }
}

/// The node key `rows()` returns for a single-node path (column 1: the
/// interval `pre` or the Dewey key).
fn node_key(store: &XmlStore, path: &str, doc: &str) -> Result<Value, String> {
    let rows = store
        .request(path)
        .doc(doc)
        .rows()
        .map_err(|e| format!("{path}: {e}"))?;
    rows.first()
        .and_then(|r| r.get(1))
        .cloned()
        .ok_or_else(|| format!("{path} found no node in {doc}"))
}

fn person_names(store: &XmlStore, doc: &str, id: u64) -> Result<Vec<String>, String> {
    store
        .request(&format!(
            "/site/people/person[@id = 'bench-{id}']/name/text()"
        ))
        .doc(doc)
        .run()
        .map(|o| o.items)
        .map_err(|e| e.to_string())
}

/// One write cycle on scheme `s`'s auction store: load a new small
/// document; on interval and Dewey insert a person subtree and delete it
/// again; remove the oldest document; checkpoint every `PERSIST_EVERY`
/// writes. A read after each write checks that it took effect.
pub(crate) fn write_cycle(
    env: &Env,
    seed: u64,
    s: usize,
    churn: &mut Churn,
    mut log: Option<&mut SpanLog>,
    tally: &mut Tally,
) {
    let mut store: XmlStore = env.store(s, Corpus::Auction).clone();
    let scheme = SCHEMES[s];
    let mut writes = 0u64;

    let id = churn.next_id[s];
    churn.next_id[s] += 1;
    let name = format!("churn-{id}");
    let xml = churn_doc(seed, id);
    let loaded = timed_write(tally, "load", || {
        let doc = parse(&xml, log.as_deref_mut()).map_err(|e| e.to_string())?;
        load(&mut store, s, &name, &doc, xml.len(), log.as_deref_mut())
    });
    writes += 1;
    if loaded.is_some() {
        churn.live[s].push_back((name.clone(), xml.len()));
        tally.written_input_bytes += xml.len() as u64;
        if store.doc_id(&name).is_err() {
            tally.fail(format!("{scheme}: loaded {name} is not readable"));
        }
    }

    if loaded.is_some() && (s == INTERVAL || s == DEWEY) {
        let fragment_xml = person_fragment(id);
        let fragment = Document::parse(&fragment_xml).expect("the person fragment is well-formed");
        let person = format!("/site/people/person[@id = 'bench-{id}']");
        let doc_id = store.doc_id(&name).map_err(|e| e.to_string());
        let parent = node_key(&store, "/site/people", &name);
        let inserted = timed_write(tally, "insert", || {
            let (doc_id, parent) = (doc_id.clone()?, parent?);
            span(
                log.as_deref_mut(),
                "update.insert",
                s,
                || {
                    store.with_db_mut(|db| match &parent {
                        Value::Int(pre) if s == INTERVAL => {
                            interval_insert_child(db, doc_id, *pre, &fragment)
                        }
                        Value::Text(key) => dewey_insert_child(db, doc_id, key, &fragment),
                        other => Err(CoreError::Translate(format!("node key {other:?}"))),
                    })
                },
                |r| {
                    r.as_ref().map_or((0, 0), |stats| {
                        (stats.rows_renumbered as u64, stats.rows_inserted as u64)
                    })
                },
            )
            .map_err(|e| e.to_string())
        });
        writes += 1;
        if let Some(stats) = inserted {
            tally.renumbered[s].push(stats.rows_renumbered as u64);
            tally.written_input_bytes += fragment_xml.len() as u64;
            match person_names(&store, &name, id) {
                Ok(names) if names == [format!("Bench Person {id}")] => {}
                other => tally.fail(format!("{scheme}: inserted person not found: {other:?}")),
            }
            let victim = node_key(&store, &person, &name);
            let deleted = timed_write(tally, "delete", || {
                let (doc_id, victim) = (doc_id?, victim?);
                span(
                    log.as_deref_mut(),
                    "update.delete",
                    s,
                    || {
                        store.with_db_mut(|db| match &victim {
                            Value::Int(pre) if s == INTERVAL => {
                                interval_delete_subtree(db, doc_id, *pre)
                            }
                            Value::Text(key) => dewey_delete_subtree(db, doc_id, key),
                            other => Err(CoreError::Translate(format!("node key {other:?}"))),
                        })
                    },
                    |r| {
                        r.as_ref()
                            .map_or((0, 0), |stats| (stats.rows_deleted as u64, 0))
                    },
                )
                .map_err(|e| e.to_string())
            });
            writes += 1;
            if deleted.is_some() {
                match person_names(&store, &name, id) {
                    Ok(names) if names.is_empty() => {}
                    other => tally.fail(format!("{scheme}: deleted person still found: {other:?}")),
                }
            }
        }
    }

    if churn.live[s].len() > env.churn.len() {
        let (oldest, _) = churn.live[s]
            .pop_front()
            .expect("more live documents than the floor");
        let removed = timed_write(tally, "remove", || {
            span(
                log.as_deref_mut(),
                "shredder.remove",
                s,
                || store.remove(&oldest),
                |r| r.as_ref().map_or((0, 0), |rows| (*rows as u64, 0)),
            )
            .map_err(|e| e.to_string())
        });
        writes += 1;
        if removed.is_some() {
            match store.request("/site").doc(&oldest).count() {
                Err(CoreError::NoSuchDocument(_)) => {}
                other => tally.fail(format!(
                    "{scheme}: removed {oldest} still answers: {other:?}"
                )),
            }
        }
    }

    churn.writes_since_checkpoint[s] += writes;
    if churn.writes_since_checkpoint[s] >= PERSIST_EVERY {
        churn.writes_since_checkpoint[s] = 0;
        let io = env.slots[s][Corpus::Auction.idx()].io.clone();
        let written_before = io.as_ref().map_or(0, |io| io.get()[1]);
        let live = store.storage_stats().total_bytes() as u64;
        timed_write(tally, "checkpoint", || {
            span(
                log,
                "wal.checkpoint",
                s,
                || store.persist(),
                |_| {
                    let written = io.as_ref().map_or(0, |io| io.get()[1]) - written_before;
                    (written, live)
                },
            )
            .map_err(|e| e.to_string())
        });
    }
}

/// `mixed_rw`: a reader thread (the fragment templates, each request sent
/// to all six schemes in turn, pinned snapshots, scoped to the base
/// documents the writer never touches) beside a writer thread rotating
/// through the schemes. The reader moves to the next allowed CPU before
/// each request: on a shared host each CPU's speed drifts on its own, and
/// a single thread left where the scheduler put it would measure one
/// CPU's luck.
pub fn mixed(
    env: &Env,
    seed: u64,
    window: Duration,
    trace: Option<Instant>,
    churn: &mut Churn,
) -> (Tally, Tally) {
    let end = Instant::now() + window;
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut log = trace.map(|epoch| SpanLog::new(epoch, 1));
            let mut tally = Tally::default();
            let mut stream = Stream::new(seed, FRAGMENT_TEMPLATES, &env.profile);
            let mut cpus = cpu::allowed().into_iter().cycle();
            while Instant::now() < end {
                let req = stream.next().expect("the request stream is endless");
                if let Some(c) = cpus.next() {
                    cpu::pin(c);
                }
                let via = Via::InProcess(Some(req.corpus.doc_name()));
                read_all_schemes(env, &req, via, log.as_mut(), &mut tally);
            }
            tally.spans = log.map(|l| l.spans).unwrap_or_default();
            tally
        });
        let writer = scope.spawn(move || {
            let mut log = trace.map(|epoch| SpanLog::new(epoch, 2));
            let mut tally = Tally::default();
            while Instant::now() < end {
                write_cycle(
                    env,
                    seed,
                    churn.next_scheme(),
                    churn,
                    log.as_mut(),
                    &mut tally,
                );
                std::thread::sleep(WRITE_THINK.min(end.saturating_duration_since(Instant::now())));
            }
            tally.spans = log.map(|l| l.spans).unwrap_or_default();
            tally
        });
        let reads = reader.join().expect("reader thread");
        let writes = writer.join().expect("writer thread");
        (reads, writes)
    })
}

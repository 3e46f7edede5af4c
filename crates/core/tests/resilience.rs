//! End-to-end resilience: per-request deadlines and cancellation flow
//! from [`QueryRequest`] through the executor, trip promptly even when
//! the storage layer is slow, and leave a diagnostic in the ledger.

use std::time::{Duration, Instant};

use reldb::{CancelToken, DbError, MemBackend, SharedFiles, SlowBackend};
use shredder::{
    BinaryScheme, DeweyScheme, EdgeScheme, InlineScheme, IntervalScheme, UniversalScheme,
};
use xmlgen::{DblpConfig, DBLP_DTD};
use xmlrel_core::{CoreError, Scheme, XmlStore};

/// A store with enough rows that a query has real work to do.
fn sized_store(elems: usize) -> XmlStore {
    let mut xml = String::from("<r>");
    for i in 0..elems {
        xml.push_str(&format!("<a x=\"{i}\">v{}</a>", i % 13));
    }
    xml.push_str("</r>");
    let mut s = XmlStore::builder(Scheme::Interval(IntervalScheme::new()))
        .open()
        .unwrap();
    s.load_str("d", &xml).unwrap();
    s
}

fn is_deadline(err: &CoreError) -> bool {
    matches!(err, CoreError::Db(DbError::DeadlineExceeded(_)))
}

#[test]
fn expired_request_deadline_fails_fast_and_is_typed() {
    let s = sized_store(200);
    let started = Instant::now();
    let err = s
        .request("//a[@x = '7']/text()")
        .timeout_ms(0)
        .run()
        .unwrap_err();
    assert!(is_deadline(&err), "expected DeadlineExceeded, got {err:?}");
    // "Within ~2x the budget": a zero budget must fail in milliseconds,
    // not after executing the whole query. Allow generous CI slack.
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "a pre-expired deadline took {:?} to trip",
        started.elapsed()
    );
}

#[test]
fn deadline_trip_is_recorded_in_the_ledger_with_a_diagnostic() {
    let s = sized_store(50);
    let _ = s.request("//a/text()").timeout_ms(0).run();
    let stats = s.ledger().stats();
    let entry = stats
        .iter()
        .find(|f| f.errors > 0)
        .expect("the tripped query must be ledgered as an error");
    let diag = entry.last_error.as_deref().unwrap_or("");
    assert!(
        diag.contains("deadline exceeded"),
        "ledger diagnostic should carry the trip: {diag:?}"
    );
}

#[test]
fn cancelled_token_aborts_the_request() {
    let s = sized_store(50);
    let token = CancelToken::new();
    token.cancel();
    let err = s.request("//a/text()").cancel(&token).run().unwrap_err();
    assert!(
        matches!(err, CoreError::Db(DbError::Cancelled(_))),
        "expected Cancelled, got {err:?}"
    );
}

#[test]
fn deadline_trips_during_shred_over_a_slow_backend() {
    // Every commit sleeps inside the latency-injecting backend, so a
    // store-wide deadline set before loading trips in the shred phase —
    // proving the write path is deadline-aware, not just the executor.
    let slow = SlowBackend::new(
        MemBackend::over(SharedFiles::new()),
        Duration::from_millis(25),
    );
    let mut s = XmlStore::builder(Scheme::Interval(IntervalScheme::new()))
        .backend(Box::new(slow))
        .open()
        .unwrap();
    s.with_db_mut(|db| db.limits.deadline = Some(reldb::Deadline::after_millis(30)));
    let mut xml = String::from("<r>");
    for i in 0..300 {
        xml.push_str(&format!("<a>{i}</a>"));
    }
    xml.push_str("</r>");
    let started = Instant::now();
    let err = s.load_str("d", &xml).unwrap_err();
    assert!(
        err.to_string().contains("deadline exceeded"),
        "expected a deadline trip from the shred phase, got {err:?}"
    );
    // No hang: the trip must come orders of magnitude before the load
    // would finish (300 elements x 25ms-per-storage-op would be >>1s).
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shred-phase trip took {:?}",
        started.elapsed()
    );
}

#[test]
fn tighter_of_store_and_request_deadlines_wins() {
    let s = sized_store(50);
    // Store-wide deadline far in the future; request deadline expired.
    s.with_db_mut(|db| db.limits.deadline = Some(reldb::Deadline::after_millis(60_000)));
    let err = s.request("//a/text()").timeout_ms(0).run().unwrap_err();
    assert!(is_deadline(&err), "expected DeadlineExceeded, got {err:?}");
}

/// The default DBLP corpus under every scheme whose `//author` publish
/// (1,062 fragments) takes seconds. Interval publishes it in tens of
/// milliseconds, inside any budget these tests could set.
fn dblp_stores() -> Vec<XmlStore> {
    let doc = xmlgen::dblp::generate(&DblpConfig::default());
    [
        Scheme::Edge(EdgeScheme::new()),
        Scheme::Binary(BinaryScheme::new()),
        Scheme::Universal(UniversalScheme::new()),
        Scheme::Dewey(DeweyScheme::new()),
        Scheme::Inline(InlineScheme::from_dtd_text(DBLP_DTD).unwrap()),
    ]
    .into_iter()
    .map(|scheme| {
        let mut s = XmlStore::builder(scheme).open().unwrap();
        s.load_document("dblp", &doc).unwrap();
        s
    })
    .collect()
}

/// `//author`'s ledger row: (completed main statements, failures, last
/// diagnostic).
fn author_ledger(s: &XmlStore) -> (u64, u64, String) {
    s.ledger()
        .stats()
        .into_iter()
        .find(|f| f.exemplar == "//author")
        .map(|f| (f.count, f.errors, f.last_error.unwrap_or_default()))
        .unwrap_or_default()
}

#[test]
fn publish_honours_request_budgets() {
    // One test, so the five stores' requests never overlap another heavy
    // test: the main statement must finish well inside each budget.
    for s in dblp_stores() {
        let name = s.scheme().name();

        let started = Instant::now();
        let result = s.request("//author").timeout_ms(100).run();
        let elapsed = started.elapsed();
        let err = result
            .err()
            .unwrap_or_else(|| panic!("{name}: Ok after {elapsed:?}"));
        assert!(
            is_deadline(&err),
            "{name}: expected DeadlineExceeded, got {err:?}"
        );
        assert!(
            elapsed < Duration::from_secs(1),
            "{name}: a 100 ms budget took {elapsed:?} to trip"
        );
        // The main statement completed; the trip came while publishing,
        // and the ledger has it.
        let (count, errors, diag) = author_ledger(&s);
        assert_eq!((count, errors), (1, 1), "{name}: {diag}");
        assert!(diag.contains("deadline exceeded"), "{name}: {diag:?}");

        // A cancel fired from another thread 50 ms after the main
        // statement completed ends the request mid-publish.
        let token = CancelToken::new();
        let result = std::thread::scope(|scope| {
            let canceller = token.clone();
            let s = &s;
            scope.spawn(move || {
                let waited = Instant::now();
                while author_ledger(s).0 < 2 && waited.elapsed() < Duration::from_secs(30) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                std::thread::sleep(Duration::from_millis(50));
                canceller.cancel();
            });
            s.request("//author").cancel(&token).run()
        });
        let err = result
            .err()
            .unwrap_or_else(|| panic!("{name}: Ok despite the cancel"));
        assert!(
            matches!(err, CoreError::Db(DbError::Cancelled(_))),
            "{name}: expected Cancelled, got {err:?}"
        );
        let (count, errors, diag) = author_ledger(&s);
        assert_eq!((count, errors), (2, 2), "{name}: {diag}");
        assert!(diag.contains("cancelled"), "{name}: {diag:?}");
    }
}

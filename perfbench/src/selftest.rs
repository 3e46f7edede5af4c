//! Seed determinism self-test, run after every measured window: the
//! request stream and the counts a single writer produces must be a pure
//! function of the seed.

use crate::env::{setup, Layout, SCHEMES};
use crate::gen::{Corpora, Corpus, Req, Sizes, Stream, FRAGMENT_TEMPLATES, LOOKUP_TEMPLATES};
use crate::workloads::{write_cycle, Churn, Tally};

const STREAM_PREFIX: usize = 64;
/// Write cycles of the single-writer sequence: two per scheme.
const CYCLES: usize = 12;

/// The first requests of every workload's stream, built from scratch:
/// corpora first, since range literals come from their value profiles.
fn streams(seed: u64) -> Vec<Req> {
    let small = Corpora::generate(seed, Sizes::SMALL).profile;
    let large = Corpora::generate(seed, Sizes::LARGE).profile;
    let mut all: Vec<Req> = Stream::new(seed, FRAGMENT_TEMPLATES, &small)
        .take(STREAM_PREFIX)
        .collect();
    all.extend(Stream::new(seed, LOOKUP_TEMPLATES, &large).take(STREAM_PREFIX));
    all
}

/// Run the `mixed_rw` write stream alone on a small collection and return
/// every count that must repeat exactly: per scheme the storage bytes,
/// WAL bytes appended, snapshot bytes written and syncs, the rows each
/// insert renumbered, and the reldb profile counts of a fixed read.
fn single_writer_counts(seed: u64) -> Result<Vec<u64>, String> {
    let layout = Layout {
        sizes: Sizes {
            auction_scale: 0.02,
            dblp_entries: 20,
        },
        durable: true,
        serve: false,
        churn_docs: 1,
    };
    let env = setup(seed, layout, None)?;
    let mut churn = Churn::new(&env);
    let mut tally = Tally::default();
    for _ in 0..CYCLES {
        let s = churn.next_scheme();
        write_cycle(&env, seed, s, &mut churn, None, &mut tally);
    }
    if tally.failed > 0 {
        return Err(format!("single-writer sequence failed: {:?}", tally.errors));
    }
    let mut counts = Vec::new();
    for s in 0..SCHEMES.len() {
        counts.push(env.storage_bytes(s) as u64);
        for slot in &env.slots[s] {
            counts.extend(slot.io.as_ref().map_or([0; 3], |io| io.get()));
        }
        counts.extend(&tally.renumbered[s]);
        let store = env.store(s, Corpus::Auction);
        let sql = store
            .request("/site/people/person[profile/age > 30]/name")
            .doc("auction")
            .translated()
            .map_err(|e| e.to_string())?
            .sql;
        let (_, profile) = store
            .snapshot()
            .query_profiled(&sql)
            .map_err(|e| e.to_string())?;
        let rollup = profile.rollup();
        counts.extend([
            rollup.root_rows,
            rollup.probes,
            rollup.comparisons,
            rollup.operators,
        ]);
    }
    env.shutdown();
    Ok(counts)
}

/// `Ok` when the same seed repeats and another seed differs.
pub fn determinism(seed: u64) -> Result<(), String> {
    if streams(seed) != streams(seed) {
        return Err("the same seed gave two different request streams".into());
    }
    if streams(seed) == streams(seed.wrapping_add(1)) {
        return Err("two seeds gave the same request stream".into());
    }
    let first = single_writer_counts(seed)?;
    let second = single_writer_counts(seed)?;
    if first != second {
        return Err(format!(
            "single-writer counts differ between two runs of one seed: {first:?} vs {second:?}"
        ));
    }
    Ok(())
}

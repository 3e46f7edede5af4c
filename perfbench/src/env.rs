//! Set-up: the six mapping schemes' stores over the seeded corpora, the
//! counting storage backend `mixed_rw` opens them over, and the HTTP
//! servers `lookups` reads through.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use reldb::{MemBackend, StorageBackend};
use xmlgen::auction::AUCTION_DTD;
use xmlgen::dblp::DBLP_DTD;
use xmlpar::Document;
use xmlrel_core::{MonitorHandle, Scheme, XmlStore};

use crate::gen::{churn_doc, Corpora, Corpus, Profile, Sizes};
use crate::trace::{no_counts, span, SpanLog, NO_SCHEME};

pub const SCHEMES: [&str; 6] = ["edge", "binary", "universal", "interval", "dewey", "inline"];
pub const INTERVAL: usize = 3;
pub const DEWEY: usize = 4;

/// Scheme `s` configured for `corpus`. The inline scheme is derived from
/// the corpus DTD and maps documents of that one root element, so every
/// scheme keeps one store per corpus.
pub fn scheme(s: usize, corpus: Corpus) -> Scheme {
    match s {
        0 => Scheme::Edge(shredder::EdgeScheme::new()),
        1 => Scheme::Binary(shredder::BinaryScheme::new()),
        2 => Scheme::Universal(shredder::UniversalScheme::new()),
        3 => Scheme::Interval(shredder::IntervalScheme::new()),
        4 => Scheme::Dewey(shredder::DeweyScheme::new()),
        _ => Scheme::Inline(
            shredder::InlineScheme::from_dtd_text(dtd_text(corpus)).expect("corpus DTD maps"),
        ),
    }
}

/// Element and attribute names the corpus DTD declares, sorted.
fn dtd_labels(corpus: Corpus) -> (Vec<String>, Vec<String>) {
    let dtd = xmlpar::dtd::parse_dtd_fragment(dtd_text(corpus)).expect("corpus DTD parses");
    let elems = dtd.elements.keys().cloned().collect();
    let mut attrs: Vec<String> = dtd
        .attlists
        .values()
        .flatten()
        .map(|a| a.name.clone())
        .collect();
    attrs.sort();
    attrs.dedup();
    (elems, attrs)
}

fn dtd_text(corpus: Corpus) -> &'static str {
    match corpus {
        Corpus::Auction => AUCTION_DTD,
        Corpus::Dblp => DBLP_DTD,
    }
}

/// What one store wrote to its storage backend.
#[derive(Debug, Default)]
pub struct IoCounts {
    /// Bytes appended (the write-ahead log is the only appended file).
    pub appended: AtomicU64,
    /// Bytes written whole (checkpoint snapshots).
    pub written: AtomicU64,
    /// Sync calls.
    pub syncs: AtomicU64,
}

impl IoCounts {
    pub fn get(&self) -> [u64; 3] {
        [
            self.appended.load(Ordering::Relaxed),
            self.written.load(Ordering::Relaxed),
            self.syncs.load(Ordering::Relaxed),
        ]
    }
}

/// `MemBackend` plus counters. Syncs are counted and then dropped: the
/// program's per-statement sync never reaches a device, so shared-disk
/// fsync time cannot leak into the measurement.
#[derive(Debug)]
pub struct CountingBackend {
    inner: MemBackend,
    counts: Arc<IoCounts>,
}

impl StorageBackend for CountingBackend {
    fn read(&mut self, name: &str) -> reldb::Result<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn write(&mut self, name: &str, data: &[u8]) -> reldb::Result<()> {
        self.counts
            .written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.write(name, data)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> reldb::Result<()> {
        self.counts
            .appended
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.append(name, data)
    }

    fn truncate(&mut self, name: &str, len: u64) -> reldb::Result<()> {
        self.inner.truncate(name, len)
    }

    fn sync(&mut self, name: &str) -> reldb::Result<()> {
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync(name)
    }

    fn remove(&mut self, name: &str) -> reldb::Result<()> {
        self.inner.remove(name)
    }

    fn rename(&mut self, from: &str, to: &str) -> reldb::Result<()> {
        self.inner.rename(from, to)
    }

    fn list(&mut self) -> reldb::Result<Vec<String>> {
        self.inner.list()
    }
}

/// How a workload's stores are opened.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub sizes: Sizes,
    /// Open over the counting backend (durable, WAL on every statement).
    pub durable: bool,
    /// Start one HTTP server per store.
    pub serve: bool,
    /// Small auction documents preloaded into every auction store.
    pub churn_docs: u64,
}

/// One store of one scheme over one corpus.
pub struct Slot {
    pub store: XmlStore,
    pub io: Option<Arc<IoCounts>>,
    pub server: Option<MonitorHandle>,
}

/// Everything set-up builds.
pub struct Env {
    /// `slots[scheme][corpus]`.
    pub slots: Vec<[Slot; 2]>,
    /// Serialized size of each base document.
    pub base_bytes: [usize; 2],
    /// Value distributions of the base documents.
    pub profile: Profile,
    /// Names and sizes of the churn documents loaded into every auction
    /// store, oldest first.
    pub churn: Vec<(String, usize)>,
}

impl Env {
    pub fn store(&self, s: usize, c: Corpus) -> &XmlStore {
        &self.slots[s][c.idx()].store
    }

    /// `storage_stats()` heap plus index bytes of scheme `s`'s stores.
    pub fn storage_bytes(&self, s: usize) -> usize {
        self.slots[s]
            .iter()
            .map(|slot| slot.store.storage_stats().total_bytes())
            .sum()
    }

    /// Stop every server and wait for its threads.
    pub fn shutdown(self) -> bool {
        let mut clean = true;
        for slots in self.slots {
            for slot in slots {
                if let Some(server) = slot.server {
                    clean &= server.stop().clean();
                }
            }
        }
        clean
    }
}

/// Generate the corpora, parse them, shred them into every scheme's
/// stores and (for `lookups`) start the servers.
pub fn setup(seed: u64, layout: Layout, mut log: Option<&mut SpanLog>) -> Result<Env, String> {
    let corpora = span(
        log.as_deref_mut(),
        "xmlgen.generate",
        NO_SCHEME,
        || Corpora::generate(seed, layout.sizes),
        no_counts,
    );
    let mut docs = Vec::new();
    for c in Corpus::ALL {
        let xml = corpora.xml(c);
        docs.push(
            parse(xml, log.as_deref_mut()).map_err(|e| format!("parse {}: {e}", c.doc_name()))?,
        );
    }
    let churn: Vec<(String, String)> = (0..layout.churn_docs)
        .map(|n| (format!("churn-{n}"), churn_doc(seed, n)))
        .collect();
    let mut slots = Vec::new();
    for (s, scheme_name) in SCHEMES.iter().enumerate() {
        let mut pair = Vec::new();
        for c in Corpus::ALL {
            let mut builder = XmlStore::builder(scheme(s, c));
            let io = layout.durable.then(|| Arc::new(IoCounts::default()));
            if let Some(io) = &io {
                builder = builder.backend(Box::new(CountingBackend {
                    inner: MemBackend::new(),
                    counts: io.clone(),
                }));
            }
            let mut store = builder
                .open()
                .map_err(|e| format!("open {}: {e}", scheme_name))?;
            if let Scheme::Universal(u) = store.scheme().clone() {
                // The universal relation's columns are fixed when its table
                // is created; declare the corpus DTD's whole label set so
                // later documents of the same DTD always fit.
                let (elems, attrs) = dtd_labels(c);
                store
                    .with_db_mut(|db| u.create_for_labels(db, &elems, &attrs))
                    .map_err(|e| format!("universal labels: {e}"))?;
            }
            load(
                &mut store,
                s,
                c.doc_name(),
                &docs[c.idx()],
                corpora.xml(c).len(),
                log.as_deref_mut(),
            )?;
            if c == Corpus::Auction {
                for (name, xml) in &churn {
                    let doc =
                        parse(xml, log.as_deref_mut()).map_err(|e| format!("parse {name}: {e}"))?;
                    load(&mut store, s, name, &doc, xml.len(), log.as_deref_mut())?;
                }
            }
            let server = if layout.serve {
                Some(
                    store
                        .serve()
                        .addr("127.0.0.1:0")
                        .max_inflight(8)
                        .start()
                        .map_err(|e| format!("serve {}: {e}", scheme_name))?,
                )
            } else {
                None
            };
            pair.push(Slot { store, io, server });
        }
        slots.push(
            pair.try_into()
                .map_err(|_| "one slot per corpus".to_string())?,
        );
    }
    Ok(Env {
        slots,
        base_bytes: [corpora.auction.len(), corpora.dblp.len()],
        profile: corpora.profile,
        churn: churn.into_iter().map(|(n, x)| (n, x.len())).collect(),
    })
}

/// `Document::parse`, as the `xmlpar.parse` span (`a` = input bytes).
pub fn parse(xml: &str, log: Option<&mut SpanLog>) -> Result<Document, xmlpar::XmlError> {
    span(
        log,
        "xmlpar.parse",
        NO_SCHEME,
        || Document::parse(xml),
        |_| (xml.len() as u64, 0),
    )
}

/// `XmlStore::load_document`, as the `shredder.load` span (`a` = input
/// bytes).
pub fn load(
    store: &mut XmlStore,
    s: usize,
    name: &str,
    doc: &Document,
    bytes: usize,
    log: Option<&mut SpanLog>,
) -> Result<(), String> {
    span(
        log,
        "shredder.load",
        s,
        || store.load_document(name, doc),
        |_| (bytes as u64, 0),
    )
    .map(|_| ())
    .map_err(|e| format!("load {name} into {}: {e}", SCHEMES[s]))
}

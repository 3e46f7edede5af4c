//! The mapping-scheme abstraction.

use reldb::{Database, ExecLimits};
use xmlpar::Document;

use crate::error::{Result, ShredError};
use crate::reconstruct::{rebuild, Subtree};

/// Statistics returned by a shred operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShredStats {
    /// Rows inserted across all tables.
    pub rows: usize,
    /// Element nodes shredded.
    pub elements: usize,
    /// Attribute nodes shredded.
    pub attributes: usize,
    /// Text nodes shredded.
    pub texts: usize,
}

/// Storage accounting for a scheme's installation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Bytes in heap tables.
    pub heap_bytes: usize,
    /// Bytes in indexes.
    pub index_bytes: usize,
    /// Number of tables the scheme created.
    pub tables: usize,
    /// Total rows across tables.
    pub rows: usize,
}

impl StorageStats {
    /// Heap plus index bytes.
    pub fn total_bytes(&self) -> usize {
        self.heap_bytes + self.index_bytes
    }
}

/// Names one stored node: the root of a subtree to read back.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKey {
    /// A whole document, read with one scan per table.
    Root {
        /// Document id.
        doc: i64,
    },
    /// (doc, pre) — edge / binary / interval / universal.
    Pre {
        /// Document id.
        doc: i64,
        /// Pre-order node id.
        pre: i64,
    },
    /// (doc, dewey key).
    Dewey {
        /// Document id.
        doc: i64,
        /// Dewey key.
        key: String,
    },
    /// (doc, anchor element, surrogate id, inline path).
    Inline {
        /// Document id.
        doc: i64,
        /// Tabled anchor element name.
        anchor: String,
        /// Surrogate row id.
        id: i64,
        /// Inline path within the anchor's row.
        path: Vec<String>,
    },
}

impl NodeKey {
    /// The error for a key of another scheme's shape.
    pub(crate) fn mismatch(&self, scheme: &str) -> ShredError {
        ShredError::Unsupported(format!("{scheme} scheme cannot read node key {self:?}"))
    }
}

/// An XML-to-relational mapping scheme.
///
/// A scheme owns a naming convention for its tables inside a shared
/// [`Database`], so several schemes can coexist in one database (as the
/// comparative experiments require).
pub trait MappingScheme {
    /// Scheme identifier ("edge", "binary", ...).
    fn name(&self) -> &'static str;

    /// Create the scheme's tables and indexes.
    fn install(&self, db: &mut Database) -> Result<()>;

    /// Shred one document under `doc_id`. `install` must have run.
    fn shred(&self, db: &mut Database, doc_id: i64, doc: &Document) -> Result<ShredStats>;

    /// Read the records of the subtree rooted at `key`, every read of its
    /// rows under `limits`. The scheme's one record-fetch path: whole
    /// documents and published query results both come through here.
    fn subtree(&self, db: &Database, key: &NodeKey, limits: &ExecLimits) -> Result<Subtree>;

    /// Rebuild the full document.
    fn reconstruct(&self, db: &Database, doc_id: i64) -> Result<Document> {
        let Subtree { root, recs } =
            self.subtree(db, &NodeKey::Root { doc: doc_id }, &db.limits)?;
        rebuild(recs, root)
    }

    /// Remove a document's rows. Returns rows deleted.
    fn delete_document(&self, db: &mut Database, doc_id: i64) -> Result<usize>;

    /// Tables owned by this scheme (used for storage accounting).
    fn tables(&self, db: &Database) -> Vec<String>;

    /// Measure the scheme's storage.
    fn storage_stats(&self, db: &Database) -> StorageStats {
        let mut s = StorageStats::default();
        for name in self.tables(db) {
            if let Ok(t) = db.catalog.table(&name) {
                s.heap_bytes += t.heap_bytes();
                s.index_bytes += t.index_bytes();
                s.tables += 1;
                s.rows += t.len();
            }
        }
        s
    }
}

/// Count elements/attributes/texts in a record stream (shared by shred
/// implementations).
pub(crate) fn tally(recs: &[crate::walk::NodeRec]) -> ShredStats {
    use crate::walk::RecKind;
    let mut s = ShredStats {
        rows: recs.len(),
        ..ShredStats::default()
    };
    for r in recs {
        match r.kind {
            RecKind::Elem => s.elements += 1,
            RecKind::Attr => s.attributes += 1,
            RecKind::Text => s.texts += 1,
        }
    }
    s
}

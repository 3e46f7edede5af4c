//! Error type for the storage-and-retrieval layer.

use std::fmt;

use reldb::DbError;
use shredder::ShredError;
use xmlpar::XmlError;
use xqir::QueryError;

/// Anything that can go wrong storing, translating, or retrieving.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// XML parse error.
    Xml(XmlError),
    /// Database error.
    Db(DbError),
    /// Shredding/mapping error.
    Shred(ShredError),
    /// Query parse error.
    Query(QueryError),
    /// The query uses a feature this scheme's translator does not support.
    Translate(String),
    /// A named document does not exist.
    NoSuchDocument(String),
    /// Internal marker: the query provably selects nothing (e.g. a label
    /// that never occurs). Callers translate this into an empty result.
    EmptyResult,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Xml(e) => write!(f, "{e}"),
            CoreError::Db(e) => write!(f, "{e}"),
            CoreError::Shred(e) => write!(f, "{e}"),
            CoreError::Query(e) => write!(f, "{e}"),
            CoreError::Translate(m) => write!(f, "translation error: {m}"),
            CoreError::NoSuchDocument(n) => write!(f, "no such document {n:?}"),
            CoreError::EmptyResult => write!(f, "query selects nothing"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<XmlError> for CoreError {
    fn from(e: XmlError) -> CoreError {
        CoreError::Xml(e)
    }
}

impl From<DbError> for CoreError {
    fn from(e: DbError) -> CoreError {
        CoreError::Db(e)
    }
}

impl From<ShredError> for CoreError {
    fn from(e: ShredError) -> CoreError {
        match e {
            // A database error (a deadline or cancel trip among them) keeps
            // its type whichever layer it surfaced through.
            ShredError::Db(e) => CoreError::Db(e),
            e => CoreError::Shred(e),
        }
    }
}

impl From<QueryError> for CoreError {
    fn from(e: QueryError) -> CoreError {
        CoreError::Query(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

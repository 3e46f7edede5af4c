//! `shredder` — XML-to-relational mapping schemes.
//!
//! Implements the storage side of *Storage and Retrieval of XML Data using
//! Relational Databases*: six published mappings from XML trees to
//! relations, each behind the [`scheme::MappingScheme`] trait, plus the
//! shared flattening ([`walk`]) and publishing ([`reconstruct`])
//! machinery.
//!
//! | Scheme | Module | Source |
//! |---|---|---|
//! | Edge table | [`edge`] | Florescu & Kossmann 1999 |
//! | Binary (label-partitioned) | [`binary`] | Florescu & Kossmann 1999 |
//! | Universal relation | [`universal`] | Florescu & Kossmann 1999 |
//! | Interval (pre/size/level) | [`interval`] | Grust 2002 |
//! | Dewey order keys | [`dewey`] | Tatarinov et al. 2002 |
//! | DTD shared inlining | [`inline`] | Shanmugasundaram et al. 1999 |
//!
//! # Example
//!
//! ```
//! use shredder::{EdgeScheme, MappingScheme};
//! use xmlpar::Document;
//!
//! let mut db = reldb::Database::new();
//! let scheme = EdgeScheme::new();
//! scheme.install(&mut db).unwrap();
//! let doc = Document::parse("<a><b>x</b></a>").unwrap();
//! let stats = scheme.shred(&mut db, 1, &doc).unwrap();
//! assert_eq!(stats.elements, 2);
//! let rebuilt = scheme.reconstruct(&db, 1).unwrap();
//! assert_eq!(xmlpar::serialize::to_string(&rebuilt), "<a><b>x</b></a>");
//! ```

#![warn(missing_docs)]

pub mod binary;
pub mod dewey;
pub mod docstore;
pub mod edge;
pub mod error;
pub mod inline;
pub mod interval;
pub mod labels;
pub mod pathsummary;
pub mod reconstruct;
pub mod scheme;
pub mod universal;
pub mod walk;

pub use binary::BinaryScheme;
pub use dewey::DeweyScheme;
pub use edge::EdgeScheme;
pub use error::{Result, ShredError};
pub use inline::InlineScheme;
pub use interval::IntervalScheme;
pub use reconstruct::Subtree;
pub use scheme::{MappingScheme, NodeKey, ShredStats, StorageStats};
pub use universal::UniversalScheme;

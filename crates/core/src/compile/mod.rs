//! XPath/FLWOR → SQL compilation.
//!
//! Per-scheme knowledge is isolated behind [`StepCompiler`]; the generic
//! [`driver`] walks the query AST once and asks the compiler to emit FROM
//! items and conditions for each axis step. Schemes without a native
//! descendant encoding (edge, binary, universal) declare so, and the
//! driver *expands* `//` and `*` patterns against the scheme's stored path
//! summary into a `UNION ALL` of concrete child chains — the published
//! technique for those mappings, and the source of their characteristic
//! slowdown on recursive queries.

pub mod binary;
pub mod dewey;
pub mod driver;
pub mod edge;
pub mod inline;
pub mod interval;
pub mod universal;

use reldb::{Database, Value};
pub use shredder::NodeKey;
use xqir::ast::NodeTest;

use crate::contract::AccessContract;
use crate::error::{CoreError, Result};
use crate::sqlgen::{JoinMode, SqlBuilder};

/// A bound node variable during compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRef {
    /// SQL alias of the row representing the node (empty for virtual refs).
    pub alias: String,
    /// Scheme-specific payload.
    pub meta: NodeMeta,
}

/// Scheme-specific node metadata.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeMeta {
    /// Row-per-node schemes (edge, interval, dewey): the alias row *is*
    /// the node.
    Plain,
    /// Binary scheme: the alias row lives in the label's table.
    Labeled {
        /// The element label (names the table).
        label: String,
    },
    /// Universal scheme: the node is `t_<stem>` of the alias row.
    Universal {
        /// Column stem of the element's label.
        stem: String,
    },
    /// Inline scheme: a tabled row plus an inline path within it.
    Inline {
        /// Element name of the *tabled* anchor.
        anchor: String,
        /// Inline path from the anchor ("[]" = the anchor itself).
        path: Vec<String>,
    },
}

/// Per-scheme step compilation.
pub trait StepCompiler {
    /// Scheme name (for error messages).
    fn scheme(&self) -> &'static str;

    /// True when `//` and `*` compile natively (no path expansion needed).
    fn native_recursive(&self) -> bool;

    /// The access-path contract this scheme promises: which indexes its
    /// compiled plans may touch and how descendant steps must be realized.
    /// Checked against every chosen plan by `QueryRequest::report`.
    fn contract(&self) -> AccessContract;

    /// Concrete root-to-element label paths (`/a/b/c` strings) for
    /// expansion schemes.
    fn concrete_paths(&self, db: &Database, doc: Option<i64>) -> Result<Vec<String>> {
        let _ = (db, doc);
        Err(CoreError::Translate(format!(
            "scheme {:?} has no path summary",
            self.scheme()
        )))
    }

    /// Bind the document's root element, constrained to match `test`.
    fn root_with_test(
        &self,
        db: &Database,
        b: &mut SqlBuilder,
        doc: Option<i64>,
        test: &NodeTest,
    ) -> Result<NodeRef>;

    /// Bind element children of `ctx` matching `test`.
    fn child(
        &self,
        db: &Database,
        b: &mut SqlBuilder,
        ctx: &NodeRef,
        test: &NodeTest,
    ) -> Result<NodeRef>;

    /// Bind element descendants of `ctx` matching `test`
    /// (native schemes only).
    fn descendant(
        &self,
        db: &Database,
        b: &mut SqlBuilder,
        ctx: &NodeRef,
        test: &NodeTest,
    ) -> Result<NodeRef> {
        let _ = (db, b, ctx, test);
        Err(CoreError::Translate(format!(
            "descendant axis requires path expansion in scheme {:?}",
            self.scheme()
        )))
    }

    /// Bind any element in the document matching `test` (used for a
    /// leading `//` on native schemes).
    fn any_element(
        &self,
        db: &Database,
        b: &mut SqlBuilder,
        doc: Option<i64>,
        test: &NodeTest,
    ) -> Result<NodeRef> {
        let _ = (db, b, doc, test);
        Err(CoreError::Translate(format!(
            "leading // requires path expansion in scheme {:?}",
            self.scheme()
        )))
    }

    /// SQL expression for an attribute's value (may add joined tables).
    fn attr_value(
        &self,
        db: &Database,
        b: &mut SqlBuilder,
        ctx: &NodeRef,
        name: &str,
        mode: JoinMode,
    ) -> Result<String>;

    /// SQL expression for the element's direct text value (may add joins).
    fn text_value(
        &self,
        db: &Database,
        b: &mut SqlBuilder,
        ctx: &NodeRef,
        mode: JoinMode,
    ) -> Result<String>;

    /// Expressions identifying the node, starting with the document id.
    fn key_exprs(&self, ctx: &NodeRef) -> Result<Vec<String>>;

    /// An expression that is non-NULL exactly when the node exists (used
    /// for existence tests over LEFT-joined predicate branches).
    fn existence_expr(&self, ctx: &NodeRef) -> Result<String>;

    /// Number of key columns this scheme produces.
    fn key_width(&self) -> usize;

    /// Decode key columns from a result row.
    fn decode_key(&self, vals: &[Value]) -> Result<NodeKey>;

    /// Document-order expression for `ctx`, when the scheme has one.
    fn order_expr(&self, ctx: &NodeRef) -> Option<String>;

    /// `(parent id expr, sibling order expr)` for positional predicates.
    fn positional_exprs(&self, ctx: &NodeRef) -> Option<(String, String)>;
}

/// Helper: the label from a node test (None for wildcard/text).
pub fn test_label(test: &NodeTest) -> Option<&str> {
    match test {
        NodeTest::Name(n) => Some(n),
        _ => None,
    }
}

/// Helper: decode (doc, pre) keys shared by several schemes.
pub fn decode_pre_key(vals: &[Value]) -> Result<NodeKey> {
    match (
        vals.first().and_then(Value::as_int),
        vals.get(1).and_then(Value::as_int),
    ) {
        (Some(doc), Some(pre)) => Ok(NodeKey::Pre { doc, pre }),
        _ => Err(CoreError::Translate(format!("bad node key {vals:?}"))),
    }
}

//! Rebuilding a DOM from flat node records (the publishing direction).

use std::collections::HashMap;

use xmlpar::{Document, NodeId, QName};

use crate::error::{Result, ShredError};
use crate::walk::{NodeRec, RecKind};

/// The records of one stored subtree, as a scheme reads them back.
#[derive(Debug, Clone, PartialEq)]
pub struct Subtree {
    /// `pre` of the record the subtree hangs from.
    pub root: i64,
    /// Every record of the subtree, in any order.
    pub recs: Vec<NodeRec>,
}

/// Rebuild a document from the records of the subtree rooted at the
/// record whose `pre` is `root`.
///
/// The root record's own parent link is ignored, so a subtree cut out of
/// a larger document rebuilds without rewriting its records. Every other
/// record must be reachable from the root through parent links.
///
/// Ordering uses `(parent, ordinal)` — not global pre-order — so schemes
/// whose node identifiers are not pre-order numbers (Dewey keys, inlining
/// surrogates) can reconstruct exactly as long as they produce *unique*
/// `pre` identifiers, correct parent links, and per-parent ordinals.
/// Ties on `ordinal` fall back to `pre`.
pub fn rebuild(mut recs: Vec<NodeRec>, root: i64) -> Result<Document> {
    let mut root_at: Option<usize> = None;
    // Parent pre → indexes of its children's records.
    let mut children: HashMap<i64, Vec<usize>> = HashMap::with_capacity(recs.len());
    for (i, rec) in recs.iter().enumerate() {
        if rec.pre == root {
            if root_at.is_some() {
                return Err(ShredError::Corrupt("multiple root records".into()));
            }
            root_at = Some(i);
        } else if let Some(p) = rec.parent {
            children.entry(p).or_default().push(i);
        }
    }
    for list in children.values_mut() {
        list.sort_by_key(|&i| recs.get(i).map(|r| (r.ordinal, r.pre)));
    }
    let Some(root_rec) = root_at.and_then(|i| recs.get(i)) else {
        return Err(ShredError::Corrupt("no root record for document".into()));
    };
    if root_rec.kind != RecKind::Elem {
        return Err(ShredError::Corrupt("root record is not an element".into()));
    }
    let mut doc = Document::new_with_root(parse_name(root_rec.name.as_deref())?);
    let root_id = doc.root();
    let mut remaining = recs.len() - 1;
    attach(
        &mut doc,
        root_id,
        root,
        &children,
        &mut recs,
        &mut remaining,
        0,
    )?;
    if remaining != 0 {
        return Err(ShredError::Corrupt(format!(
            "{remaining} records unreachable from the root"
        )));
    }
    Ok(doc)
}

/// Attach the children of the record `parent_pre` under `parent_id`,
/// moving their values out of `recs`.
fn attach(
    doc: &mut Document,
    parent_id: NodeId,
    parent_pre: i64,
    children: &HashMap<i64, Vec<usize>>,
    recs: &mut [NodeRec],
    remaining: &mut usize,
    depth: usize,
) -> Result<()> {
    if depth > 100_000 {
        return Err(ShredError::Corrupt("parent links form a cycle".into()));
    }
    let Some(list) = children.get(&parent_pre) else {
        return Ok(());
    };
    for &i in list {
        let Some(rec) = recs.get_mut(i) else {
            continue;
        };
        *remaining -= 1;
        match rec.kind {
            RecKind::Elem => {
                let pre = rec.pre;
                let id = doc.add_element(parent_id, parse_name(rec.name.as_deref())?, Vec::new());
                attach(doc, id, pre, children, recs, remaining, depth + 1)?;
            }
            RecKind::Attr => {
                let name = parse_name(rec.name.as_deref())?;
                doc.add_attribute(parent_id, name, rec.value.take().unwrap_or_default());
            }
            RecKind::Text => {
                doc.add_text(parent_id, rec.value.take().unwrap_or_default());
            }
        }
    }
    Ok(())
}

fn parse_name(name: Option<&str>) -> Result<QName> {
    let n = name.ok_or_else(|| ShredError::Corrupt("element/attribute without name".into()))?;
    QName::parse(n).ok_or_else(|| ShredError::Corrupt(format!("invalid stored name {n:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::flatten;

    #[test]
    fn flatten_rebuild_round_trip() {
        let xml = r#"<book year="1967"><title>T</title><author><fn>R</fn></author></book>"#;
        let doc = Document::parse(xml).unwrap();
        let rebuilt = rebuild(flatten(&doc), 0).unwrap();
        assert_eq!(xmlpar::serialize::to_string(&rebuilt), xml);
    }

    #[test]
    fn out_of_order_records_ok() {
        let doc = Document::parse("<a><b>x</b><c/></a>").unwrap();
        let mut recs = flatten(&doc);
        recs.reverse();
        let rebuilt = rebuild(recs, 0).unwrap();
        assert_eq!(
            xmlpar::serialize::to_string(&rebuilt),
            "<a><b>x</b><c/></a>"
        );
    }

    #[test]
    fn corrupt_inputs_rejected() {
        assert!(matches!(rebuild(vec![], 0), Err(ShredError::Corrupt(_))));
        let doc = Document::parse("<a><b/></a>").unwrap();
        let mut recs = flatten(&doc);
        recs.remove(0); // drop the root: b's parent is dangling
        assert!(matches!(rebuild(recs, 0), Err(ShredError::Corrupt(_))));
    }

    #[test]
    fn subtree_root_parent_link_is_ignored() {
        let doc = Document::parse("<a><b>x<c/></b><d/></a>").unwrap();
        let recs: Vec<NodeRec> = flatten(&doc)
            .into_iter()
            .filter(|r| (1..=3).contains(&r.pre))
            .collect();
        let rebuilt = rebuild(recs, 1).unwrap();
        assert_eq!(xmlpar::serialize::to_string(&rebuilt), "<b>x<c/></b>");
    }

    #[test]
    fn mixed_content_round_trip() {
        let xml = "<p>hello <em>world</em> again</p>";
        let doc = Document::parse(xml).unwrap();
        let rebuilt = rebuild(flatten(&doc), 0).unwrap();
        assert_eq!(xmlpar::serialize::to_string(&rebuilt), xml);
    }

    #[test]
    fn synthetic_pre_values_only_need_uniqueness() {
        // Records with arbitrary unique ids and correct (parent, ordinal).
        let recs = vec![
            NodeRec {
                pre: 900,
                parent: None,
                ordinal: 0,
                size: 0,
                level: 0,
                kind: RecKind::Elem,
                name: Some("r".into()),
                value: None,
            },
            NodeRec {
                pre: -5,
                parent: Some(900),
                ordinal: 1,
                size: 0,
                level: 1,
                kind: RecKind::Text,
                name: None,
                value: Some("second".into()),
            },
            NodeRec {
                pre: 17,
                parent: Some(900),
                ordinal: 0,
                size: 0,
                level: 1,
                kind: RecKind::Elem,
                name: Some("first".into()),
                value: None,
            },
        ];
        let doc = rebuild(recs, 900).unwrap();
        assert_eq!(xmlpar::serialize::to_string(&doc), "<r><first/>second</r>");
    }
}

//! Property tests over arbitrary XML trees: every scheme round-trips any
//! tree exactly (inline up to attribute order); structural invariants
//! hold.

use proptest::prelude::*;
use xmlrel::shredder::walk::{flatten, RecKind};
use xmlrel::shredder::{
    BinaryScheme, DeweyScheme, EdgeScheme, InlineScheme, IntervalScheme, MappingScheme,
    UniversalScheme,
};
use xmlrel::xmlpar::{serialize, Document, QName};

/// A generated element tree (names from a small alphabet so labels repeat,
/// which stresses the label-partitioned schemes).
#[derive(Debug, Clone)]
enum Tree {
    Element {
        name: u8,
        attrs: Vec<(u8, String)>,
        children: Vec<Tree>,
    },
    Text(String),
}

fn name_of(i: u8) -> String {
    format!("n{}", i % 6)
}

fn attr_of(i: u8) -> String {
    format!("a{}", i % 4)
}

fn text_strategy() -> impl Strategy<Value = String> {
    // Non-empty, includes XML-hostile characters to stress escaping.
    proptest::collection::vec(
        prop_oneof![
            Just("x".to_string()),
            Just("<".to_string()),
            Just("&".to_string()),
            Just("\"".to_string()),
            Just("ü".to_string()),
            Just("]]>".to_string()),
            Just(" ".to_string()),
        ],
        1..5,
    )
    .prop_map(|v| v.concat())
    .prop_filter("whitespace-only text is normalized away", |s| {
        !s.trim().is_empty()
    })
}

fn tree_strategy() -> impl Strategy<Value = Tree> {
    let leaf = prop_oneof![
        text_strategy().prop_map(Tree::Text),
        (
            any::<u8>(),
            proptest::collection::vec((any::<u8>(), text_strategy()), 0..3)
        )
            .prop_map(|(n, attrs)| Tree::Element {
                name: n,
                attrs,
                children: vec![]
            }),
    ];
    leaf.prop_recursive(4, 24, 4, |inner| {
        (
            any::<u8>(),
            proptest::collection::vec((any::<u8>(), text_strategy()), 0..2),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(n, attrs, children)| Tree::Element {
                name: n,
                attrs,
                children,
            })
    })
}

fn build(tree: &Tree) -> Document {
    let Tree::Element {
        name,
        attrs,
        children,
    } = tree
    else {
        // Wrap a bare text in a root.
        let mut doc = Document::new_with_root(QName::local("root"));
        if let Tree::Text(t) = tree {
            let root = doc.root();
            doc.add_text(root, t.clone());
        }
        return doc;
    };
    let mut doc = Document::new_with_root(QName::local(name_of(*name)));
    let root = doc.root();
    add_attrs(&mut doc, root, attrs);
    for c in children {
        add(&mut doc, root, c);
    }
    doc
}

fn add_attrs(doc: &mut Document, id: xmlrel::xmlpar::NodeId, attrs: &[(u8, String)]) {
    let mut seen = std::collections::BTreeSet::new();
    for (n, v) in attrs {
        let name = attr_of(*n);
        if seen.insert(name.clone()) {
            doc.add_attribute(id, QName::local(name), v.clone());
        }
    }
}

fn add(doc: &mut Document, parent: xmlrel::xmlpar::NodeId, tree: &Tree) {
    match tree {
        Tree::Text(t) => {
            // Avoid adjacent text nodes: two sibling text nodes merge on
            // reparse, so round-trip comparison would differ spuriously.
            if let Some(&last) = doc.children(parent).last() {
                if matches!(doc.node(last).kind, xmlrel::xmlpar::NodeKind::Text(_)) {
                    return;
                }
            }
            doc.add_text(parent, t.clone());
        }
        Tree::Element {
            name,
            attrs,
            children,
        } => {
            let id = doc.add_element(parent, QName::local(name_of(*name)), Vec::new());
            add_attrs(doc, id, attrs);
            for c in children {
                add(doc, id, c);
            }
        }
    }
}

fn round_trips(scheme: &dyn MappingScheme, doc: &Document) {
    round_trips_to(scheme, doc, doc);
}

/// Shred `doc`, rebuild it, and compare with `expected`.
fn round_trips_to(scheme: &dyn MappingScheme, doc: &Document, expected: &Document) {
    let mut db = xmlrel::reldb::Database::new();
    scheme.install(&mut db).unwrap();
    scheme.shred(&mut db, 1, doc).unwrap();
    let rebuilt = scheme.reconstruct(&db, 1).unwrap();
    assert_eq!(
        serialize::to_string(&rebuilt),
        serialize::to_string(expected),
        "scheme {}",
        scheme.name()
    );
}

/// A fully recursive DTD over every name the generator draws: each element
/// is tabled and mixed under the inline scheme. `root` wraps bare text.
const INLINE_DTD: &str = r#"
<!ELEMENT root (#PCDATA | n0 | n1 | n2 | n3 | n4 | n5)*>
<!ELEMENT n0 (#PCDATA | n0 | n1 | n2 | n3 | n4 | n5)*>
<!ELEMENT n1 (#PCDATA | n0 | n1 | n2 | n3 | n4 | n5)*>
<!ELEMENT n2 (#PCDATA | n0 | n1 | n2 | n3 | n4 | n5)*>
<!ELEMENT n3 (#PCDATA | n0 | n1 | n2 | n3 | n4 | n5)*>
<!ELEMENT n4 (#PCDATA | n0 | n1 | n2 | n3 | n4 | n5)*>
<!ELEMENT n5 (#PCDATA | n0 | n1 | n2 | n3 | n4 | n5)*>
<!ATTLIST n0 a0 CDATA #IMPLIED a1 CDATA #IMPLIED a2 CDATA #IMPLIED a3 CDATA #IMPLIED>
<!ATTLIST n1 a0 CDATA #IMPLIED a1 CDATA #IMPLIED a2 CDATA #IMPLIED a3 CDATA #IMPLIED>
<!ATTLIST n2 a0 CDATA #IMPLIED a1 CDATA #IMPLIED a2 CDATA #IMPLIED a3 CDATA #IMPLIED>
<!ATTLIST n3 a0 CDATA #IMPLIED a1 CDATA #IMPLIED a2 CDATA #IMPLIED a3 CDATA #IMPLIED>
<!ATTLIST n4 a0 CDATA #IMPLIED a1 CDATA #IMPLIED a2 CDATA #IMPLIED a3 CDATA #IMPLIED>
<!ATTLIST n5 a0 CDATA #IMPLIED a1 CDATA #IMPLIED a2 CDATA #IMPLIED a3 CDATA #IMPLIED>
"#;

/// `tree` with each element's attributes in DTD declaration order
/// (`a0`, `a1`, ...), keeping the first of repeated names as `add_attrs`
/// does.
fn in_declaration_order(tree: &Tree) -> Tree {
    match tree {
        Tree::Text(t) => Tree::Text(t.clone()),
        Tree::Element {
            name,
            attrs,
            children,
        } => {
            let mut by_name = std::collections::BTreeMap::new();
            for (n, v) in attrs {
                by_name.entry(attr_of(*n)).or_insert((*n, v.clone()));
            }
            Tree::Element {
                name: *name,
                attrs: by_name.into_values().collect(),
                children: children.iter().map(in_declaration_order).collect(),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn edge_round_trips_arbitrary_trees(t in tree_strategy()) {
        round_trips(&EdgeScheme::new(), &build(&t));
    }

    #[test]
    fn binary_round_trips_arbitrary_trees(t in tree_strategy()) {
        round_trips(&BinaryScheme::new(), &build(&t));
    }

    #[test]
    fn universal_round_trips_arbitrary_trees(t in tree_strategy()) {
        round_trips(&UniversalScheme::new(), &build(&t));
    }

    #[test]
    fn interval_round_trips_arbitrary_trees(t in tree_strategy()) {
        round_trips(&IntervalScheme::new(), &build(&t));
    }

    #[test]
    fn dewey_round_trips_arbitrary_trees(t in tree_strategy()) {
        round_trips(&DeweyScheme::new(), &build(&t));
    }

    #[test]
    fn inline_round_trips_arbitrary_trees(t in tree_strategy()) {
        // Exact except for attribute order within an element: inline keeps
        // one column per declared attribute and writes attributes back in
        // DTD declaration order, not in document order.
        let scheme = InlineScheme::from_dtd_text(INLINE_DTD).unwrap();
        round_trips_to(&scheme, &build(&t), &build(&in_declaration_order(&t)));
    }

    #[test]
    fn serializer_parser_round_trip(t in tree_strategy()) {
        let doc = build(&t);
        let xml = serialize::to_string(&doc);
        let reparsed = Document::parse(&xml).unwrap();
        prop_assert_eq!(serialize::to_string(&reparsed), xml);
    }

    #[test]
    fn interval_invariants(t in tree_strategy()) {
        let doc = build(&t);
        let recs = flatten(&doc);
        for r in &recs {
            // Subtree containment.
            if let Some(p) = r.parent {
                let parent = &recs[p as usize];
                prop_assert!(parent.pre < r.pre);
                prop_assert!(r.pre <= parent.pre + parent.size);
                prop_assert_eq!(r.level, parent.level + 1);
            } else {
                prop_assert_eq!(r.pre, 0);
            }
            // Size counts the subtree exactly: next sibling starts after it.
            let inside = recs
                .iter()
                .filter(|x| x.pre > r.pre && x.pre <= r.pre + r.size)
                .count() as i64;
            prop_assert_eq!(inside, r.size);
        }
    }

    #[test]
    fn dewey_keys_sort_in_document_order(t in tree_strategy()) {
        let doc = build(&t);
        let recs = flatten(&doc);
        // Recompute keys the way the scheme does.
        let mut keys: Vec<String> = Vec::new();
        for r in &recs {
            let key = match r.parent {
                None => xmlrel::shredder::dewey::encode_component(0),
                Some(p) => xmlrel::shredder::dewey::child_key(&keys[p as usize], r.ordinal),
            };
            keys.push(key);
        }
        // Pre-order equals lexicographic key order.
        let mut sorted = keys.clone();
        sorted.sort();
        prop_assert_eq!(&keys, &sorted);
        // And keys are unique.
        let mut dedup = keys.clone();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), keys.len());
    }

    #[test]
    fn flatten_tallies_match_document(t in tree_strategy()) {
        let doc = build(&t);
        let recs = flatten(&doc);
        let elems = recs.iter().filter(|r| r.kind == RecKind::Elem).count();
        prop_assert_eq!(elems, doc.element_count());
    }
}

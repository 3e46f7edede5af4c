//! Generic query compilation over a [`StepCompiler`].

use xqir::ast::{
    Axis, Clause, CmpOp, Condition, Flwor, Literal, NodeTest, PathExpr, Predicate, Query,
    ReturnExpr, Step,
};
use xqir::normalize_path;

use reldb::Database;

use crate::compile::{NodeRef, StepCompiler};
use crate::error::{CoreError, Result};
use crate::sqlgen::{sql_lit, JoinMode, SqlBuilder};

/// Maximum `UNION ALL` branches produced by path expansion.
pub const MAX_EXPANSION: usize = 128;

/// One expanded concrete chain: labels paired with the pattern step (if
/// any) whose predicates apply at that position.
type Chain<'s> = Vec<(String, Option<&'s Step>)>;

/// A compiled query.
#[derive(Debug, Clone)]
pub struct Translated {
    /// The SQL text.
    pub sql: String,
    /// What the result rows mean.
    pub out: OutKind,
    /// Width of one node key in this scheme.
    pub key_width: usize,
    /// Positional post-processing, if the query had a final `[n]`.
    pub positional: Option<PositionalPost>,
}

/// Result-row interpretation.
#[derive(Debug, Clone)]
pub enum OutKind {
    /// Column `col` holds a string value (attribute / text / element value).
    Values {
        /// Value column index.
        col: usize,
    },
    /// Columns `0 .. key_width` hold a node key; publish the subtree.
    Nodes,
    /// Assemble an XML fragment per row from a constructor template.
    Constructed(Template),
}

/// Element-constructor template (column indexes reference the SELECT list).
#[derive(Debug, Clone)]
pub struct Template {
    /// Element name.
    pub name: String,
    /// Literal attributes.
    pub attrs: Vec<(String, String)>,
    /// Child slots.
    pub children: Vec<Slot>,
}

/// One constructor child.
#[derive(Debug, Clone)]
pub enum Slot {
    /// Literal text.
    Text(String),
    /// A string value column.
    Value(usize),
    /// A node key starting at this column; publish the subtree.
    Node(usize),
    /// A nested constructor.
    Nested(Template),
}

/// Final-step positional predicate: keep the `n`-th row per parent.
#[derive(Debug, Clone, Copy)]
pub struct PositionalPost {
    /// 1-based position.
    pub n: u32,
    /// Column holding the parent id.
    pub parent_col: usize,
    /// Column holding the sibling order key.
    pub order_col: usize,
}

/// Compile a whole query (path or FLWOR).
pub fn compile_query(
    step: &dyn StepCompiler,
    db: &Database,
    query: &Query,
    doc: Option<i64>,
) -> Result<Translated> {
    match query {
        Query::Path(p) => compile_path_query(step, db, p, doc),
        Query::Flwor(f) => compile_flwor(step, db, f, doc),
    }
}

// ---- bare path queries ----------------------------------------------------

/// Compile a bare absolute path query.
pub fn compile_path_query(
    step: &dyn StepCompiler,
    db: &Database,
    path: &PathExpr,
    doc: Option<i64>,
) -> Result<Translated> {
    let path = normalize_path(path);
    if path.start.is_some() {
        return Err(CoreError::Translate(
            "a bare path query must start at the document root".into(),
        ));
    }
    if path.has_parent_step() {
        return Err(CoreError::Translate(
            "parent steps remain after normalization; backward axes are unsupported".into(),
        ));
    }
    let (elem_steps, tail) = split_tail(&path.steps)?;
    if elem_steps.is_empty() {
        return Err(CoreError::Translate("path selects no element".into()));
    }

    let needs_expansion = !step.native_recursive()
        && elem_steps
            .iter()
            .any(|s| s.axis == Axis::Descendant || s.test == NodeTest::Wildcard);

    let branches: Vec<Chain<'_>> = if needs_expansion {
        expand_against_summary(step, db, elem_steps, doc)?
    } else {
        Vec::new()
    };

    let mut arms: Vec<String> = Vec::new();
    let mut meta: Option<(OutKind, Option<PositionalPost>, Option<usize>)> = None;
    let arm_inputs: Vec<Option<&Chain<'_>>> = if needs_expansion {
        branches.iter().map(Some).collect()
    } else {
        vec![None]
    };
    for branch in arm_inputs {
        let mut b = SqlBuilder::new();
        let (ctx, anchor) = match branch {
            Some(chain) => match compile_concrete_chain(step, db, &mut b, chain, doc) {
                Ok(c) => c,
                Err(CoreError::EmptyResult) => continue,
                Err(e) => return Err(e),
            },
            None => match compile_native_steps(step, db, &mut b, elem_steps, doc) {
                Ok(c) => c,
                Err(CoreError::EmptyResult) => {
                    return Ok(empty_translated(step, &tail));
                }
                Err(e) => return Err(e),
            },
        };

        // Assemble the SELECT list.
        let mut select: Vec<String> = Vec::new();
        let out = match &tail {
            Tail::None => {
                select.extend(step.key_exprs(&ctx)?);
                OutKind::Nodes
            }
            Tail::Attribute(name) => {
                let v = step.attr_value(db, &mut b, &ctx, name, JoinMode::Inner)?;
                select.push(v);
                select.extend(step.key_exprs(&ctx)?);
                OutKind::Values { col: 0 }
            }
            Tail::Text => {
                let v = step.text_value(db, &mut b, &ctx, JoinMode::Inner)?;
                select.push(v);
                select.extend(step.key_exprs(&ctx)?);
                OutKind::Values { col: 0 }
            }
        };
        let mut order_col = None;
        if let Some(o) = step.order_expr(&ctx) {
            order_col = Some(select.len());
            select.push(o);
        }
        let positional = match anchor {
            None => None,
            Some(a) => {
                let parent_col = select.len();
                select.push(a.parent_expr);
                let order_col2 = select.len();
                select.push(a.order_expr);
                Some(PositionalPost {
                    n: a.n,
                    parent_col,
                    order_col: order_col2,
                })
            }
        };
        arms.push(b.render(&select.join(", "), true));
        meta = Some((out, positional, order_col));
    }
    let Some((out, positional, order_col)) = meta else {
        // No branch survived: the path provably selects nothing.
        return Ok(empty_translated(step, &tail));
    };
    let mut sql = arms.join(" UNION ALL ");
    if let Some(o) = order_col {
        sql.push_str(&format!(" ORDER BY {}", o + 1));
    }
    Ok(Translated {
        sql,
        out,
        key_width: step.key_width(),
        positional,
    })
}

enum Tail {
    None,
    Attribute(String),
    Text,
}

/// A query that returns zero rows with the right shape.
fn empty_translated(step: &dyn StepCompiler, tail: &Tail) -> Translated {
    let (out, extra) = match tail {
        Tail::None => (OutKind::Nodes, 0),
        Tail::Attribute(_) | Tail::Text => (OutKind::Values { col: 0 }, 1),
    };
    let nulls = vec!["NULL"; step.key_width() + extra].join(", ");
    Translated {
        sql: format!("SELECT {nulls} LIMIT 0"),
        out,
        key_width: step.key_width(),
        positional: None,
    }
}

/// Split trailing attribute / text() step off the element part.
fn split_tail(steps: &[Step]) -> Result<(&[Step], Tail)> {
    match steps.last() {
        Some(last) if last.axis == Axis::Attribute => {
            if !last.predicates.is_empty() {
                return Err(CoreError::Translate(
                    "predicates on attribute steps are unsupported".into(),
                ));
            }
            match &last.test {
                NodeTest::Name(n) => Ok((&steps[..steps.len() - 1], Tail::Attribute(n.clone()))),
                _ => Err(CoreError::Translate(
                    "wildcard attribute steps are unsupported".into(),
                )),
            }
        }
        Some(last) if last.test == NodeTest::Text => {
            if !last.predicates.is_empty() {
                return Err(CoreError::Translate(
                    "predicates on text() steps are unsupported".into(),
                ));
            }
            if last.axis == Axis::Descendant {
                return Err(CoreError::Translate(
                    "//text() is unsupported; name the element first".into(),
                ));
            }
            Ok((&steps[..steps.len() - 1], Tail::Text))
        }
        _ => {
            // Interior attribute / text steps are invalid.
            if steps[..steps.len().saturating_sub(1)]
                .iter()
                .any(|s| s.axis == Axis::Attribute || s.test == NodeTest::Text)
            {
                return Err(CoreError::Translate(
                    "attribute / text() steps must be last".into(),
                ));
            }
            Ok((steps, Tail::None))
        }
    }
}

/// Compile steps on a native-recursive scheme.
fn compile_native_steps(
    step: &dyn StepCompiler,
    db: &Database,
    b: &mut SqlBuilder,
    steps: &[Step],
    doc: Option<i64>,
) -> Result<(NodeRef, Option<PositionalAnchor>)> {
    let mut ctx: Option<NodeRef> = None;
    let mut positional: Option<PositionalAnchor> = None;
    for s in steps {
        let next = match (&ctx, s.axis) {
            (None, Axis::Child) => step.root_with_test(db, b, doc, &s.test)?,
            (None, Axis::Descendant) => step.any_element(db, b, doc, &s.test)?,
            (Some(c), Axis::Child) => step.child(db, b, c, &s.test)?,
            (Some(c), Axis::Descendant) => step.descendant(db, b, c, &s.test)?,
            (_, other) => {
                return Err(CoreError::Translate(format!(
                    "axis {other:?} is unsupported in element steps"
                )))
            }
        };
        apply_predicates(step, db, b, &next, s, &mut positional)?;
        ctx = Some(next);
    }
    let ctx = ctx.ok_or_else(|| CoreError::Translate("empty path".into()))?;
    Ok((ctx, positional))
}

/// A positional predicate captured at its step.
struct PositionalAnchor {
    n: u32,
    parent_expr: String,
    order_expr: String,
}

fn apply_predicates(
    step: &dyn StepCompiler,
    db: &Database,
    b: &mut SqlBuilder,
    ctx: &NodeRef,
    s: &Step,
    positional: &mut Option<PositionalAnchor>,
) -> Result<()> {
    for p in &s.predicates {
        if let Predicate::Position(n) = p {
            if positional.is_some() {
                return Err(CoreError::Translate(
                    "at most one positional predicate per query is supported".into(),
                ));
            }
            let (parent_expr, order_expr) = step.positional_exprs(ctx).ok_or_else(|| {
                CoreError::Translate(format!(
                    "positional predicates are unsupported in scheme {:?}",
                    step.scheme()
                ))
            })?;
            *positional = Some(PositionalAnchor {
                n: *n,
                parent_expr,
                order_expr,
            });
            continue;
        }
        let cond = compile_predicate(step, db, b, ctx, p, JoinMode::Inner)?;
        b.cond(cond);
    }
    Ok(())
}

/// Compile one concrete label chain (expansion schemes).
fn compile_concrete_chain(
    step: &dyn StepCompiler,
    db: &Database,
    b: &mut SqlBuilder,
    chain: &[(String, Option<&Step>)],
    doc: Option<i64>,
) -> Result<(NodeRef, Option<PositionalAnchor>)> {
    let mut ctx: Option<NodeRef> = None;
    let mut positional: Option<PositionalAnchor> = None;
    for (label, pattern) in chain {
        let test = NodeTest::Name(label.clone());
        let next = match &ctx {
            None => step.root_with_test(db, b, doc, &test)?,
            Some(c) => step.child(db, b, c, &test)?,
        };
        if let Some(s) = pattern {
            apply_predicates(step, db, b, &next, s, &mut positional)?;
        }
        ctx = Some(next);
    }
    let ctx = ctx.ok_or_else(|| CoreError::Translate("empty chain".into()))?;
    Ok((ctx, positional))
}

/// Expand a step pattern against the scheme's stored concrete paths.
fn expand_against_summary<'s>(
    step: &dyn StepCompiler,
    db: &Database,
    steps: &'s [Step],
    doc: Option<i64>,
) -> Result<Vec<Chain<'s>>> {
    let paths = step.concrete_paths(db, doc)?;
    let mut out: Vec<Chain<'s>> = Vec::new();
    for path in &paths {
        let labels: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        let mut assignment = vec![None::<&Step>; labels.len()];
        match_pattern(steps, 0, &labels, 0, &mut assignment, &mut |a| {
            let chain: Vec<(String, Option<&Step>)> = labels
                .iter()
                .zip(a.iter())
                .map(|(l, s)| ((*l).to_string(), *s))
                .collect();
            if !out.contains(&chain) {
                out.push(chain);
            }
        });
        if out.len() > MAX_EXPANSION {
            return Err(CoreError::Translate(format!(
                "path expansion exceeds {MAX_EXPANSION} branches; use a scheme \
                 with a native descendant axis"
            )));
        }
    }
    if out.is_empty() {
        // Nothing matches: emit a query over a single impossible branch so
        // the result is empty rather than an error.
        return Ok(Vec::new());
    }
    Ok(out)
}

/// Recursive pattern-to-path alignment. The pattern must consume the whole
/// label sequence.
fn match_pattern<'s>(
    steps: &'s [Step],
    si: usize,
    labels: &[&str],
    li: usize,
    assignment: &mut Vec<Option<&'s Step>>,
    emit: &mut dyn FnMut(&[Option<&'s Step>]),
) {
    if si == steps.len() {
        if li == labels.len() {
            emit(assignment);
        }
        return;
    }
    let s = &steps[si];
    let matches = |label: &str| match &s.test {
        NodeTest::Name(n) => n == label,
        NodeTest::Wildcard => true,
        NodeTest::Text => false,
    };
    match s.axis {
        Axis::Child if li < labels.len() && matches(labels[li]) => {
            assignment[li] = Some(s);
            match_pattern(steps, si + 1, labels, li + 1, assignment, emit);
            assignment[li] = None;
        }
        Axis::Descendant => {
            for j in li..labels.len() {
                if matches(labels[j]) {
                    assignment[j] = Some(s);
                    match_pattern(steps, si + 1, labels, j + 1, assignment, emit);
                    assignment[j] = None;
                }
            }
        }
        _ => {}
    }
}

// ---- predicates -------------------------------------------------------------

/// Compile a step predicate to a SQL boolean expression; joins are added
/// to the builder (LEFT joins under `or`).
pub fn compile_predicate(
    step: &dyn StepCompiler,
    db: &Database,
    b: &mut SqlBuilder,
    ctx: &NodeRef,
    pred: &Predicate,
    mode: JoinMode,
) -> Result<String> {
    match pred {
        Predicate::Position(_) => Err(CoreError::Translate(
            "positional predicates are only supported on the final step".into(),
        )),
        Predicate::Exists(path) => {
            let v = compile_value_path(step, db, b, Some(ctx), path, mode)?;
            Ok(format!("{} IS NOT NULL", v.existence_expr()))
        }
        Predicate::Compare { path, op, value } => {
            let v = compile_value_path(step, db, b, Some(ctx), path, mode)?;
            Ok(compare_sql(&v.value_expr()?, *op, value))
        }
        Predicate::Contains { path, needle } => {
            let v = compile_value_path(step, db, b, Some(ctx), path, mode)?;
            Ok(format!(
                "{} LIKE {}",
                v.value_expr()?,
                sql_lit(&format!("%{needle}%"))
            ))
        }
        Predicate::And(l, r) => {
            let a = compile_predicate(step, db, b, ctx, l, mode)?;
            let c = compile_predicate(step, db, b, ctx, r, mode)?;
            Ok(format!("({a} AND {c})"))
        }
        Predicate::Or(l, r) => {
            let a = compile_predicate(step, db, b, ctx, l, JoinMode::Left)?;
            let c = compile_predicate(step, db, b, ctx, r, JoinMode::Left)?;
            Ok(format!("({a} OR {c})"))
        }
        Predicate::Not(_) => Err(CoreError::Translate(
            "not(...) requires anti-joins and is not supported by the translator".into(),
        )),
    }
}

fn compare_sql(value_expr: &str, op: CmpOp, lit: &Literal) -> String {
    let op_s = match op {
        CmpOp::Eq => "=",
        CmpOp::NotEq => "<>",
        CmpOp::Lt => "<",
        CmpOp::LtEq => "<=",
        CmpOp::Gt => ">",
        CmpOp::GtEq => ">=",
    };
    match lit {
        Literal::Int(i) => format!("num({value_expr}) {op_s} {i}"),
        Literal::Float(f) => format!("num({value_expr}) {op_s} {f}"),
        Literal::Str(s) => format!("{value_expr} {op_s} {}", sql_lit(s)),
    }
}

/// Where a relative value path landed.
pub struct ValuePath {
    expr: ValueExprKind,
}

enum ValueExprKind {
    /// A string value expression (attribute or text).
    Value(String),
    /// An element; `key` is its first key expression (existence test) and
    /// `text` the lazily-computed text value.
    Element { key: String, text: String },
}

impl ValuePath {
    /// SQL expression for the string value.
    pub fn value_expr(&self) -> Result<String> {
        Ok(match &self.expr {
            ValueExprKind::Value(v) => v.clone(),
            ValueExprKind::Element { text, .. } => text.clone(),
        })
    }

    /// SQL expression whose non-NULLness proves existence.
    pub fn existence_expr(&self) -> String {
        match &self.expr {
            ValueExprKind::Value(v) => v.clone(),
            ValueExprKind::Element { key, .. } => key.clone(),
        }
    }
}

/// Compile a relative path (inside predicates / conditions / returns) from
/// `ctx` (or from the root when the path has no variable and `ctx` is
/// None), ending at a value.
pub fn compile_value_path(
    step: &dyn StepCompiler,
    db: &Database,
    b: &mut SqlBuilder,
    ctx: Option<&NodeRef>,
    path: &PathExpr,
    mode: JoinMode,
) -> Result<ValuePath> {
    let mut cur = match ctx {
        Some(c) => c.clone(),
        None => {
            return Err(CoreError::Translate(
                "relative path without a context node".into(),
            ))
        }
    };
    let steps = &path.steps;
    for (i, s) in steps.iter().enumerate() {
        let last = i + 1 == steps.len();
        if !s.predicates.is_empty() {
            return Err(CoreError::Translate(
                "predicates inside predicate paths are unsupported".into(),
            ));
        }
        match (s.axis, &s.test) {
            (Axis::SelfAxis, _) => continue,
            (Axis::Attribute, NodeTest::Name(n)) if last => {
                let v = step.attr_value(db, b, &cur, n, mode)?;
                return Ok(ValuePath {
                    expr: ValueExprKind::Value(v),
                });
            }
            (Axis::Child, NodeTest::Text) if last => {
                let v = step.text_value(db, b, &cur, mode)?;
                return Ok(ValuePath {
                    expr: ValueExprKind::Value(v),
                });
            }
            (Axis::Child, test @ (NodeTest::Name(_) | NodeTest::Wildcard)) => {
                cur = child_with_mode(step, db, b, &cur, test, mode)?;
            }
            (Axis::Descendant, test @ (NodeTest::Name(_) | NodeTest::Wildcard)) => {
                if !step.native_recursive() {
                    return Err(CoreError::Translate(format!(
                        "descendant steps inside predicates are unsupported in scheme {:?}",
                        step.scheme()
                    )));
                }
                cur = step.descendant(db, b, &cur, test)?;
            }
            (axis, test) => {
                return Err(CoreError::Translate(format!(
                    "unsupported step {axis:?} {test:?} in value path"
                )))
            }
        }
    }
    // Ends at an element: value = its direct text; existence = its id.
    let key = step.existence_expr(&cur)?;
    let text = step.text_value(db, b, &cur, mode)?;
    Ok(ValuePath {
        expr: ValueExprKind::Element { key, text },
    })
}

/// `child`, honoring LEFT-join mode for `or` branches. Schemes implement
/// `child` with Inner semantics; for Left mode we degrade to Inner —
/// conservative but sound for `or` only when both operands reference
/// existing structure. To stay correct, Left mode routes through
/// `child_left` when the compiler provides it (all bundled compilers do
/// via attr/text value joins; element-step `or` operands remain Inner and
/// are documented as an approximation).
fn child_with_mode(
    step: &dyn StepCompiler,
    db: &Database,
    b: &mut SqlBuilder,
    ctx: &NodeRef,
    test: &NodeTest,
    _mode: JoinMode,
) -> Result<NodeRef> {
    step.child(db, b, ctx, test)
}

// ---- FLWOR ------------------------------------------------------------------

/// Compile a FLWOR expression.
pub fn compile_flwor(
    step: &dyn StepCompiler,
    db: &Database,
    f: &Flwor,
    doc: Option<i64>,
) -> Result<Translated> {
    let mut b = SqlBuilder::new();
    let mut vars: Vec<(String, NodeRef)> = Vec::new();
    let mut fors: Vec<NodeRef> = Vec::new();
    let lookup = |vars: &[(String, NodeRef)], name: &str| -> Result<NodeRef> {
        vars.iter()
            .find(|(v, _)| v == name)
            .map(|(_, n)| n.clone())
            .ok_or_else(|| CoreError::Translate(format!("unbound variable ${name}")))
    };

    for clause in &f.clauses {
        let path = normalize_path(clause.path());
        if path.has_parent_step() {
            return Err(CoreError::Translate("parent steps in FLWOR clauses".into()));
        }
        let ctx = match &path.start {
            Some(v) => {
                let base = lookup(&vars, v)?;
                bind_rel_elements(step, db, &mut b, &base, &path.steps)?
            }
            None => {
                let (elem_steps, tail) = split_tail(&path.steps)?;
                if !matches!(tail, Tail::None) {
                    return Err(CoreError::Translate(
                        "for/let must bind element nodes, not values".into(),
                    ));
                }
                if !step.native_recursive()
                    && elem_steps
                        .iter()
                        .any(|s| s.axis == Axis::Descendant || s.test == NodeTest::Wildcard)
                {
                    return Err(CoreError::Translate(format!(
                        "FLWOR clause paths with // or * are unsupported in scheme {:?}",
                        step.scheme()
                    )));
                }
                let (ctx, anchor) = compile_native_steps(step, db, &mut b, elem_steps, doc)?;
                if anchor.is_some() {
                    return Err(CoreError::Translate(
                        "positional predicates in FLWOR clauses are unsupported".into(),
                    ));
                }
                ctx
            }
        };
        if matches!(clause, Clause::For { .. }) {
            fors.push(ctx.clone());
        }
        match clause {
            Clause::For { var, .. } | Clause::Let { var, .. } => {
                vars.push((var.clone(), ctx));
            }
        }
    }

    if let Some(cond) = &f.where_ {
        let sql = compile_condition(step, db, &mut b, &vars, cond, JoinMode::Inner)?;
        b.cond(sql);
    }

    // SELECT layout: return values / constructor slots, then node keys of
    // the returned node (when Nodes), then binding keys of every for-var
    // (dedup), then order-by columns.
    let mut select: Vec<String> = Vec::new();
    let out = compile_return(step, db, &mut b, &vars, &f.ret, &mut select)?;

    for (_, ctx) in &vars {
        select.extend(step.key_exprs(ctx)?);
    }
    let mut order_ordinals = Vec::new();
    for (path, asc) in &f.order_by {
        let base = match &path.start {
            Some(v) => Some(lookup(&vars, v)?),
            None => None,
        };
        let v = compile_value_path(step, db, &mut b, base.as_ref(), path, JoinMode::Left)?;
        order_ordinals.push((select.len() + 1, *asc));
        select.push(v.value_expr()?);
    }
    if f.order_by.is_empty() {
        // Without `order by`, tuples follow the document order of the
        // for-variables' nodes, outermost variable first.
        for ctx in &fors {
            if let Some(o) = step.order_expr(ctx) {
                order_ordinals.push((select.len() + 1, true));
                select.push(o);
            }
        }
    }

    let mut sql = b.render(&select.join(", "), true);
    if !order_ordinals.is_empty() {
        let keys: Vec<String> = order_ordinals
            .iter()
            .map(|(i, asc)| format!("{i}{}", if *asc { "" } else { " DESC" }))
            .collect();
        sql.push_str(&format!(" ORDER BY {}", keys.join(", ")));
    }
    Ok(Translated {
        sql,
        out,
        key_width: step.key_width(),
        positional: None,
    })
}

/// Bind relative element steps from a variable's node.
fn bind_rel_elements(
    step: &dyn StepCompiler,
    db: &Database,
    b: &mut SqlBuilder,
    base: &NodeRef,
    steps: &[Step],
) -> Result<NodeRef> {
    let mut cur = base.clone();
    for s in steps {
        if !s.predicates.is_empty() {
            return Err(CoreError::Translate(
                "predicates in FLWOR clause paths are unsupported; use where".into(),
            ));
        }
        cur = match s.axis {
            Axis::Child => step.child(db, b, &cur, &s.test)?,
            Axis::Descendant => step.descendant(db, b, &cur, &s.test)?,
            other => {
                return Err(CoreError::Translate(format!(
                    "axis {other:?} unsupported in FLWOR clause paths"
                )))
            }
        };
    }
    Ok(cur)
}

/// Compile a WHERE condition.
fn compile_condition(
    step: &dyn StepCompiler,
    db: &Database,
    b: &mut SqlBuilder,
    vars: &[(String, NodeRef)],
    cond: &Condition,
    mode: JoinMode,
) -> Result<String> {
    let base_of = |b_: &PathExpr| -> Result<Option<NodeRef>> {
        match &b_.start {
            Some(v) => vars
                .iter()
                .find(|(name, _)| name == v)
                .map(|(_, n)| Some(n.clone()))
                .ok_or_else(|| CoreError::Translate(format!("unbound variable ${v}"))),
            None => Ok(None),
        }
    };
    match cond {
        Condition::Compare { path, op, value } => {
            let base = base_of(path)?;
            let v = compile_value_path(step, db, b, base.as_ref(), path, mode)?;
            Ok(compare_sql(&v.value_expr()?, *op, value))
        }
        Condition::Exists(path) => {
            let base = base_of(path)?;
            let v = compile_value_path(step, db, b, base.as_ref(), path, mode)?;
            Ok(format!("{} IS NOT NULL", v.existence_expr()))
        }
        Condition::Contains { path, needle } => {
            let base = base_of(path)?;
            let v = compile_value_path(step, db, b, base.as_ref(), path, mode)?;
            Ok(format!(
                "{} LIKE {}",
                v.value_expr()?,
                sql_lit(&format!("%{needle}%"))
            ))
        }
        Condition::Join { left, op, right } => {
            let lb = base_of(left)?;
            let lv = compile_value_path(step, db, b, lb.as_ref(), left, mode)?;
            let rb = base_of(right)?;
            let rv = compile_value_path(step, db, b, rb.as_ref(), right, mode)?;
            let op_s = match op {
                CmpOp::Eq => "=",
                CmpOp::NotEq => "<>",
                CmpOp::Lt => "<",
                CmpOp::LtEq => "<=",
                CmpOp::Gt => ">",
                CmpOp::GtEq => ">=",
            };
            Ok(format!("{} {op_s} {}", lv.value_expr()?, rv.value_expr()?))
        }
        Condition::And(l, r) => {
            let a = compile_condition(step, db, b, vars, l, mode)?;
            let c = compile_condition(step, db, b, vars, r, mode)?;
            Ok(format!("({a} AND {c})"))
        }
        Condition::Or(l, r) => {
            let a = compile_condition(step, db, b, vars, l, JoinMode::Left)?;
            let c = compile_condition(step, db, b, vars, r, JoinMode::Left)?;
            Ok(format!("({a} OR {c})"))
        }
        Condition::Not(_) => Err(CoreError::Translate(
            "not(...) requires anti-joins and is not supported by the translator".into(),
        )),
    }
}

/// Compile the return expression; pushes SELECT columns and returns the
/// output interpretation.
fn compile_return(
    step: &dyn StepCompiler,
    db: &Database,
    b: &mut SqlBuilder,
    vars: &[(String, NodeRef)],
    ret: &ReturnExpr,
    select: &mut Vec<String>,
) -> Result<OutKind> {
    match ret {
        ReturnExpr::Path(path) => match compile_return_path(step, db, b, vars, path, select)? {
            Slot::Value(col) => Ok(OutKind::Values { col }),
            Slot::Node(_start) => Ok(OutKind::Nodes),
            other => Err(CoreError::Translate(format!(
                "return path compiled to a non-output slot {other:?}"
            ))),
        },
        ReturnExpr::Text(t) => {
            select.push(sql_lit(t));
            Ok(OutKind::Values {
                col: select.len() - 1,
            })
        }
        ReturnExpr::Element { .. } => {
            let template = compile_template(step, db, b, vars, ret, select)?;
            Ok(OutKind::Constructed(template))
        }
    }
}

fn compile_template(
    step: &dyn StepCompiler,
    db: &Database,
    b: &mut SqlBuilder,
    vars: &[(String, NodeRef)],
    ret: &ReturnExpr,
    select: &mut Vec<String>,
) -> Result<Template> {
    let ReturnExpr::Element {
        name,
        attributes,
        children,
    } = ret
    else {
        return Err(CoreError::Translate(
            "expected an element constructor".into(),
        ));
    };
    let mut slots = Vec::new();
    for child in children {
        match child {
            ReturnExpr::Text(t) => slots.push(Slot::Text(t.clone())),
            ReturnExpr::Element { .. } => {
                slots.push(Slot::Nested(compile_template(
                    step, db, b, vars, child, select,
                )?));
            }
            ReturnExpr::Path(p) => {
                slots.push(compile_return_path(step, db, b, vars, p, select)?);
            }
        }
    }
    Ok(Template {
        name: name.clone(),
        attrs: attributes.clone(),
        children: slots,
    })
}

/// Compile a return-position path: value paths add one column; element
/// paths add key columns.
fn compile_return_path(
    step: &dyn StepCompiler,
    db: &Database,
    b: &mut SqlBuilder,
    vars: &[(String, NodeRef)],
    path: &PathExpr,
    select: &mut Vec<String>,
) -> Result<Slot> {
    let base = match &path.start {
        Some(v) => Some(
            vars.iter()
                .find(|(name, _)| name == v)
                .map(|(_, n)| n.clone())
                .ok_or_else(|| CoreError::Translate(format!("unbound variable ${v}")))?,
        ),
        None => None,
    };
    // Does the path end at a value?
    let ends_at_value = matches!(
        path.steps.last(),
        Some(s) if s.axis == Axis::Attribute || s.test == NodeTest::Text
    );
    if ends_at_value {
        let v = compile_value_path(step, db, b, base.as_ref(), path, JoinMode::Left)?;
        select.push(v.value_expr()?);
        return Ok(Slot::Value(select.len() - 1));
    }
    // Element path: bind (LEFT semantics unavailable → inner; see docs)
    // and emit its keys.
    let base = base.ok_or_else(|| {
        CoreError::Translate("return paths must start at a bound variable".into())
    })?;
    let ctx = bind_rel_elements(step, db, b, &base, &path.steps)?;
    let start = select.len();
    select.extend(step.key_exprs(&ctx)?);
    Ok(Slot::Node(start))
}

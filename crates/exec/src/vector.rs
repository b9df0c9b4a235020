//! Vectorized operator fragments for the executor.
//!
//! This module is the bridge between the plan IR and the kernel layer in
//! [`decorr_common::columnar`]: it *compiles* plan predicates and
//! projections into kernel form, drives the staged filter over a batch,
//! and builds bulk-hashed join sides for the hash joins.
//!
//! The scalar evaluator ([`crate::eval`]) is both the fallback for
//! whatever does not compile and the reference the kernels must match.
//! `ExecStats` parity is the design constraint throughout; every fragment
//! reproduces the scalar evaluator's observable behaviour bit-for-bit:
//!
//! * [`filter_range`] evaluates predicates in plan order over a shrinking
//!   selection and charges one predicate evaluation per *surviving* row at
//!   each stage — exactly the scalar short-circuit count.
//! * [`JoinSide`] hashes with the same `eq_key`/total-order semantics as
//!   extracted `Vec<Value>` keys, so the set of matching pairs (and with
//!   the caller's left-order probe, the output order) is identical.
//! * Anything that does not compile — arithmetic in a predicate, an
//!   `IS NULL`, a non-column output — makes the caller evaluate that
//!   whole conjunction (or projection) with the scalar evaluator, never
//!   half-way.
//!
//! `crates/exec/tests/columnar_equivalence.rs` holds the oracle: each
//! query runs against the same query spelled so no kernel compiles it
//! (`col + 0 < lit`, `SUM(col + 0)`), which on an in-memory table takes
//! the scalar path on an identical plan. (A paged scan prunes zone-map
//! pages only for a bare `col <op> expr`, so there the spelling changes
//! the rows scanned.)
//!
//! Column references that are *not* bound in the operator's local layout
//! are resolved through the enclosing [`Env`] chain, where they are
//! correlation constants for the duration of the operator, and folded into
//! literals. That is what lets the nested-iteration hot path (a correlated
//! scan re-run per outer binding) go columnar: the table's batch is built
//! once, and each re-scan compiles to a fresh `Col cmp Lit` kernel call.

use std::cmp::Ordering;

use decorr_common::columnar::{self, ColPredicate, Column, ColumnarBatch, SelVec, ValRef};
use decorr_common::{CmpOp, FxHashMap, Result, Row, Value, WorkerPool};
use decorr_qgm::{BinOp, Expr};

use crate::env::{Env, Layout};
use crate::exec::extract_join_keys;

/// Map a plan comparison operator onto a kernel operator. Logical and
/// arithmetic operators have no kernel form.
fn cmp_of(op: BinOp) -> Option<CmpOp> {
    match op {
        BinOp::Eq => Some(CmpOp::Eq),
        BinOp::NullEq => Some(CmpOp::NullEq),
        BinOp::Ne => Some(CmpOp::Ne),
        BinOp::Lt => Some(CmpOp::Lt),
        BinOp::Le => Some(CmpOp::Le),
        BinOp::Gt => Some(CmpOp::Gt),
        BinOp::Ge => Some(CmpOp::Ge),
        _ => None,
    }
}

/// A compiled comparison operand: a batch column or a constant.
enum Operand {
    Col(usize),
    Lit(Value),
}

/// Compile one side of a comparison. Local column references become batch
/// offsets; outer references (bound by an ancestor operator) are constants
/// here and fold to literals, mirroring `Env::lookup`'s resolution order.
fn operand(e: &Expr, layout: &Layout, env: Option<&Env<'_>>) -> Option<Operand> {
    match e {
        Expr::Lit(v) => Some(Operand::Lit(v.clone())),
        Expr::Col { quant, col } => match layout.offset_of(*quant) {
            Some(off) => Some(Operand::Col(off + col)),
            None => env
                .and_then(|e| e.lookup(*quant, *col))
                .map(|v| Operand::Lit(v.clone())),
        },
        _ => None,
    }
}

/// Compile a predicate into kernel form, or `None` if it needs the
/// scalar evaluator. Only `Col/Lit cmp Col/Lit` shapes compile, which
/// also guarantees the kernel can never produce an evaluation error the
/// scalar evaluator would have raised (comparisons are total at runtime).
pub(crate) fn compile_pred(
    e: &Expr,
    layout: &Layout,
    env: Option<&Env<'_>>,
) -> Option<ColPredicate> {
    let Expr::Binary { op, left, right } = e else {
        return None;
    };
    let op = cmp_of(*op)?;
    match (operand(left, layout, env)?, operand(right, layout, env)?) {
        (Operand::Col(col), Operand::Lit(lit)) => Some(ColPredicate::ColLit { col, op, lit }),
        (Operand::Lit(lit), Operand::Col(col)) => {
            Some(ColPredicate::ColLit { col, op: op.flip(), lit })
        }
        (Operand::Col(left), Operand::Col(right)) => Some(ColPredicate::ColCol { left, op, right }),
        // Constant-only predicates are consumed before any per-row filter;
        // if one reaches us (degenerate plans), the scalar path handles it.
        (Operand::Lit(_), Operand::Lit(_)) => None,
    }
}

/// Compile a conjunction, all-or-nothing: one uncompilable predicate sends
/// the whole filter to the scalar evaluator so the evaluation-order (and
/// thus error and stats) story stays simple.
pub(crate) fn compile_preds(
    preds: &[&Expr],
    layout: &Layout,
    env: Option<&Env<'_>>,
) -> Option<Vec<ColPredicate>> {
    preds.iter().map(|p| compile_pred(p, layout, env)).collect()
}

/// Compile a projection list to batch offsets — every output must be a
/// plain local column reference.
pub(crate) fn compile_projection<'a>(
    outputs: impl Iterator<Item = &'a Expr>,
    layout: &Layout,
) -> Option<Vec<usize>> {
    outputs
        .map(|e| match e {
            Expr::Col { quant, col } => layout.offset_of(*quant).map(|off| off + col),
            _ => None,
        })
        .collect()
}

/// The distinct column offsets a compiled predicate set reads, ascending.
pub(crate) fn pred_columns(preds: &[ColPredicate]) -> Vec<usize> {
    let mut cols = Vec::with_capacity(preds.len() * 2);
    for p in preds {
        match p {
            ColPredicate::ColLit { col, .. } => cols.push(*col),
            ColPredicate::ColCol { left, right, .. } => {
                cols.push(*left);
                cols.push(*right);
            }
        }
    }
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Rewrite compiled predicates onto a narrow batch holding exactly `cols`
/// (ascending), in that order.
pub(crate) fn remap_preds(preds: &mut [ColPredicate], cols: &[usize]) {
    let pos = |c: usize| {
        cols.binary_search(&c)
            .expect("predicate column is in the narrow batch")
    };
    for p in preds {
        match p {
            ColPredicate::ColLit { col, .. } => *col = pos(*col),
            ColPredicate::ColCol { left, right, .. } => {
                *left = pos(*left);
                *right = pos(*right);
            }
        }
    }
}

/// Transpose only `cols` of `rows` — the batch a compiled filter actually
/// needs. Untouched attributes (in particular wide string columns, whose
/// transpose pays dictionary interning per value) are never columnized.
pub(crate) fn narrow_batch(rows: &[Row], cols: &[usize]) -> ColumnarBatch {
    let columns = cols
        .iter()
        .map(|&c| Column::from_values(rows.iter().map(move |r| &r[c]), rows.len()))
        .collect();
    ColumnarBatch::from_columns(columns, rows.len())
}

/// Run compiled predicates over rows `lo..hi` of `batch`, narrowing the
/// selection stage by stage in plan order. Returns the survivors and the
/// number of predicate evaluations the scalar short-circuit loop would
/// have performed: each stage charges one eval per row still alive when it
/// starts (predicates past the first only see prior survivors).
pub(crate) fn filter_range(
    batch: &ColumnarBatch,
    preds: &[ColPredicate],
    lo: usize,
    hi: usize,
) -> (SelVec, u64) {
    let mut sel: SelVec = (lo as u32..hi as u32).collect();
    let mut evals = 0u64;
    for p in preds {
        if sel.is_empty() {
            break;
        }
        evals += sel.len() as u64;
        sel = columnar::filter_kernel(batch, p, &sel);
    }
    (sel, evals)
}

/// One side of a hash join, bulk-hashed.
///
/// When every key expression is a plain local column, the key columns are
/// transposed once and hashed through [`columnar::hash_kernel`] — no
/// per-row `Vec<Value>` key is ever materialized. Otherwise (computed
/// keys, correlation constants) keys are extracted by
/// [`extract_join_keys`] and bulk-hashed by the kernel-compatible [`columnar::hash_keys`].
/// Either way `hashes[i]` is `None` iff the row can never match (an `=`
/// key part was NULL or NaN), and equal keys hash equally *across* the two
/// representations, so the two sides of one join may mix them freely.
pub(crate) struct JoinSide {
    /// Per-row key hash; `None` = row excluded.
    pub hashes: Vec<Option<u64>>,
    /// Per-part `IS NOT DISTINCT FROM` flag (raw total-order matching).
    null_ok: Vec<bool>,
    repr: SideRepr,
}

enum SideRepr {
    /// Transposed key-part columns (raw values; exclusion lives in `hashes`).
    Cols(Vec<Column>),
    /// Extracted keys, `=` parts `eq_key`-normalized.
    Keys(Vec<Option<Vec<Value>>>),
}

/// Build one join side from its rows and key expressions.
pub(crate) fn join_side(
    pool: &WorkerPool,
    rows: &[Row],
    layout: &Layout,
    keys: &[(&Expr, bool)],
    env: Option<&Env<'_>>,
) -> Result<JoinSide> {
    let null_ok: Vec<bool> = keys.iter().map(|&(_, ok)| ok).collect();
    let offs: Option<Vec<usize>> = keys
        .iter()
        .map(|(k, _)| match k {
            Expr::Col { quant, col } => layout.offset_of(*quant).map(|off| off + col),
            _ => None,
        })
        .collect();
    if let Some(offs) = offs {
        let parts: Vec<Column> = offs
            .iter()
            .map(|&off| Column::from_values(rows.iter().map(move |r| &r[off]), rows.len()))
            .collect();
        let spec: Vec<(&Column, bool)> = parts.iter().zip(null_ok.iter().copied()).collect();
        let sel: SelVec = (0..rows.len() as u32).collect();
        let hashes = columnar::hash_kernel(&spec, &sel);
        return Ok(JoinSide { hashes, null_ok, repr: SideRepr::Cols(parts) });
    }
    let keyed = extract_join_keys(pool, rows, layout, keys, env)?;
    let hashes = columnar::hash_keys(&keyed);
    Ok(JoinSide { hashes, null_ok, repr: SideRepr::Keys(keyed) })
}

impl JoinSide {
    fn part(&self, row: usize, p: usize) -> ValRef<'_> {
        match &self.repr {
            SideRepr::Cols(parts) => parts[p].get(row),
            SideRepr::Keys(keys) => {
                ValRef::of(&keys[row].as_ref().expect("hashed row has a key")[p])
            }
        }
    }

    /// Do the keys of `self[i]` and `other[j]` match? Only called on rows
    /// whose hashes are present and equal (collision verification).
    ///
    /// `=` parts compare under SQL equality — valid whether the part is
    /// raw (`Cols`) or normalized (`Keys`), since exclusion already
    /// removed NULL/NaN and SQL equality folds `-0.0`/`0.0` and
    /// `Int`/`Double` the same way `eq_key` normalization does. `IS NOT
    /// DISTINCT FROM` parts compare under the total order, which both
    /// representations keep raw.
    pub fn key_eq(&self, i: usize, other: &JoinSide, j: usize) -> bool {
        (0..self.null_ok.len()).all(|p| {
            let a = self.part(i, p);
            let b = other.part(j, p);
            if self.null_ok[p] {
                a.total_cmp(b) == Ordering::Equal
            } else {
                a.sql_cmp(b) == Some(Ordering::Equal)
            }
        })
    }
}

/// Hash-partition a table's rows by one column for set-oriented nested
/// iteration: `eq_key`-normalized value → ascending row positions. Rows
/// whose value no SQL equality can select (NULL, NaN) are excluded, the
/// same discipline as hash-join build sides; probing with a binding's
/// `eq_key` therefore returns exactly the rows a per-binding scan with the
/// `col = binding` predicate would keep, in scan order.
pub fn build_corr_index(rows: &[Row], col: usize) -> FxHashMap<Value, Vec<u32>> {
    let mut idx: FxHashMap<Value, Vec<u32>> = FxHashMap::default();
    for (i, r) in rows.iter().enumerate() {
        if let Some(k) = r[col].eq_key() {
            idx.entry(k).or_default().push(i as u32);
        }
    }
    idx
}

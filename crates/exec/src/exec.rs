//! The QGM interpreter.
//!
//! Execution is morsel-driven: with `threads > 1` the executor fans
//! scans/filters, hash-join build+probe, projection and grouping out over a
//! [`WorkerPool`], cutting inputs into [`MORSEL_ROWS`]-sized chunks that
//! workers claim from a shared counter. All parallel paths are gated on
//! input size, merge their outputs in chunk/partition order, and report the
//! same [`ExecStats`] counters as the serial path; `threads == 1` never
//! enters them at all, so a single-threaded run is byte-identical to the
//! executor before parallelism existed.

use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use decorr_common::columnar::{self, CmpOp, ColumnarBatch, SelVec};
use decorr_common::{
    mix64, Budget, CancelToken, Error, ExecStats, FxHashMap, FxHashSet, FxHasher, Result, Row,
    RowBatch, Value, WorkerPool, MORSEL_ROWS,
};
use decorr_qgm::{AggFunc, BinOp, BoxId, BoxKind, Expr, Qgm, QuantId, QuantKind, UnOp};
use decorr_storage::{Database, PageIo, SpillManager, Table};

use crate::env::{Env, Layout};
use crate::eval::{eval_expr, qualifies};
use crate::subplan::{SharedSubplans, SubplanLookup, SubplanShape};
use crate::trace::{ExecTrace, JoinStrategy};
use crate::vector;

/// When nested iteration evaluates a correlated *scalar* subquery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScalarPlacement {
    /// After the outer block's joins, once per candidate row — the classic
    /// System R behaviour and the common case in the paper's experiments.
    #[default]
    PerCandidateRow,
    /// As soon as the quantifiers carrying its correlation bindings are
    /// joined (the paper's Query 2 plan: "places the subquery before the
    /// join between Parts and Lineitem").
    EarliestBinding,
}

/// Execution knobs; see the crate docs for how each maps to the paper.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Materialize uncorrelated boxes referenced by several quantifiers
    /// once (`true`) or recompute them per reference (`false`, the
    /// Starburst behaviour in the paper's experiments).
    pub memoize_cse: bool,
    /// Correlated scalar subquery placement under nested iteration.
    pub scalar_placement: ScalarPlacement,
    /// Worker threads for intra-query parallelism. `1` (the default) runs
    /// everything inline on the calling thread.
    pub threads: usize,
    /// Execution budget: operators charge it one tick per row touched and
    /// unwind with [`Error::Timeout`] at the next morsel boundary once it
    /// is exhausted. `None` (the default) never times out.
    pub timeout: Option<Budget>,
    /// Cooperative cancellation, checked at morsel boundaries; any thread
    /// may fire it and the run unwinds with [`Error::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// Memory budget in rows, and the policy for operators whose working
    /// state would exceed it:
    ///
    /// * an inner hash join whose build side exceeds it runs as a Grace
    ///   hash join when an [`ExecOptions::spill`] manager is present, and
    ///   degrades to a block nested-loop join when none is;
    /// * a grouping whose input exceeds it likewise spills (partitioned
    ///   hash aggregation) or degrades to sort-based aggregation;
    /// * an outer join whose build side exceeds it *always* degrades to a
    ///   nested-loop outer join — outer joins have no spill path, so they
    ///   degrade even when a spill manager is present;
    /// * a spill that hits a full device (ENOSPC) falls back to the
    ///   operator's degradation.
    ///
    /// Spills count in [`ExecStats::spills`], degradations in
    /// [`ExecStats::degradations`]; both are recorded in the
    /// [`ExecTrace`]. The nested-iteration memo charges its rows against
    /// the same budget. An operator whose *output* exceeds `1024 ×` the
    /// budget fails with [`Error::ResourceExhausted`] — degraded algorithms
    /// bound working state, but no algorithm can bound the result itself.
    pub mem_budget: Option<usize>,
    /// A cross-query [`ColumnarCache`] shared by a long-lived process
    /// (e.g. one per `decorr-server`). Batches are keyed by table snapshot
    /// version, so DDL / reloads / re-`ANALYZE`s invalidate by construction
    /// and a stale snapshot can never be served. `None` (the default)
    /// keeps the transpose cache private to the run.
    pub shared_cache: Option<crate::cache::ColumnarCache>,
    /// The cross-query shared-subplan cache plus this plan's marked
    /// shareable subtrees (SUPP/MAGIC/DCO/CI and multi-referenced CSEs).
    /// Marked boxes are served from — or materialized into — the cache
    /// keyed by canonical shape + table snapshot versions, so DDL /
    /// reloads / `ANALYZE` invalidate by construction. `None` (the
    /// default) disables cross-query sharing.
    pub shared_subplans: Option<SharedSubplans>,
    /// Spill manager for over-budget operators. With one present, an inner
    /// hash join whose build side — or a grouping whose input — exceeds
    /// [`ExecOptions::mem_budget`] partitions its working state to disk
    /// through the buffer pool (Grace hash join / partitioned hash
    /// aggregation) instead of degrading to the block nested-loop or
    /// sort-based fallbacks. Output rows are byte-identical either way;
    /// spilled operators are counted in [`ExecStats::spills`], not
    /// [`ExecStats::degradations`]. Outer joins never spill. `None` (the
    /// default, and always on ephemeral servers) keeps the in-memory
    /// degradations.
    pub spill: Option<Arc<SpillManager>>,
    /// The naive nested-iteration oracle, set only by
    /// [`ExecOptions::naive_ni`]. `false` (the default) is the one
    /// production configuration: correlated subtrees are memoized on their
    /// *binding tuple* — the outer values their free references resolve
    /// to, normalized like hash-join keys when every use is a SQL
    /// comparison — so repeated bindings are served from a per-run memo
    /// instead of re-executing (the paper's "3954 invocations of which
    /// only 2138 are distinct"); lateral joins group their outer batch by
    /// correlation key so each distinct binding evaluates once and results
    /// gather back in the original row order; and correlated equality
    /// scans without an index build a hash partition over the correlation
    /// column once and probe per binding (an executor-level magic-lite).
    /// Hits and misses are counted in [`ExecStats::subquery_memo_hits`] /
    /// [`ExecStats::subquery_distinct_invocations`]; memo storage is
    /// charged against [`ExecOptions::mem_budget`] and falls back to
    /// unmemoized execution when the ledger is exhausted. Rows and row
    /// order are byte-identical to the naive executor; only the work
    /// counters shrink. `true` re-executes every logical invocation — the
    /// oracle the differential tests and `harness ni-bench` compare
    /// against.
    pub naive_ni: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            memoize_cse: false,
            scalar_placement: ScalarPlacement::default(),
            threads: 1,
            timeout: None,
            cancel: None,
            mem_budget: None,
            shared_cache: None,
            shared_subplans: None,
            spill: None,
            naive_ni: false,
        }
    }
}

impl ExecOptions {
    /// The naive nested-iteration oracle: no correlation-key memo, no
    /// batched lateral joins, no correlation probe — every logical
    /// subquery invocation executes. `harness ni-bench` and the
    /// differential property tests compare the default executor against
    /// this.
    pub fn naive_ni(self) -> Self {
        ExecOptions { naive_ni: true, ..self }
    }
}

/// Check the governance knobs: cancellation first (a cancelled query should
/// not report `Timeout`), then charge `work` ticks against the budget.
/// Free function so worker closures can call it on a captured `&ExecOptions`
/// without borrowing the whole executor.
fn governor_check(opts: &ExecOptions, work: u64) -> Result<()> {
    if let Some(tok) = &opts.cancel {
        tok.check()?;
    }
    if let Some(budget) = &opts.timeout {
        budget.charge(work)?;
    }
    Ok(())
}

/// The interpreter. One instance accumulates [`ExecStats`] over a run.
pub struct Executor<'a> {
    db: &'a Database,
    opts: ExecOptions,
    stats: ExecStats,
    /// Morsel scheduler for the parallel operator paths; `threads == 1`
    /// runs everything inline.
    pool: WorkerPool,
    /// Cross-run memo for uncorrelated shared boxes (only with
    /// `memoize_cse`).
    cse_cache: FxHashMap<BoxId, RowBatch>,
    /// Lazily computed "is this subtree correlated" map.
    corr_cache: FxHashMap<BoxId, bool>,
    /// Per-box operator trace, populated when tracing is enabled.
    trace: Option<ExecTrace>,
    /// The boxes currently being evaluated (innermost last); used to
    /// attribute predicate evaluations and join decisions to a box.
    box_stack: Vec<BoxId>,
    /// Per-run cache of base tables transposed into columnar batches,
    /// keyed by `(table name, snapshot version, columns)`. The database is
    /// immutable for the duration of a run, and correlated
    /// (nested-iteration) plans re-scan the same table once per outer
    /// binding — the transpose is paid once. The version in the key makes
    /// the entries safe to promote into the cross-query
    /// [`ExecOptions::shared_cache`] of a long-lived process.
    col_cache: FxHashMap<(String, u64, Vec<usize>), Arc<ColumnarBatch>>,
    /// The per-run subquery memo, keyed `(box, scope, binding tuple)`.
    ///
    /// By default the scope is always 0 and the binding tuple is the box's
    /// correlation signature resolved under the current environment: one
    /// entry per *distinct* binding for the whole run. Under
    /// [`ExecOptions::naive_ni`], entries are keyed by the enclosing Select
    /// evaluation's scope id with an empty tuple — exactly the legacy
    /// per-`eval_select` cache for boxes uncorrelated with the block being
    /// evaluated.
    subq_memo: FxHashMap<(BoxId, u64, MemoKey), RowBatch>,
    /// Rows held by `subq_memo` entries with scope 0, charged against
    /// [`ExecOptions::mem_budget`]: once the ledger is exhausted new
    /// results are returned unmemoized (graceful fall-back, no error).
    memo_rows: usize,
    /// Plan-time correlation signatures, computed once per box.
    sig_cache: FxHashMap<BoxId, Arc<CorrSig>>,
    /// Scope id of the innermost Select evaluation (naive-oracle memo
    /// keying).
    cur_scope: u64,
    /// Scope id allocator; 0 is reserved for run-lifetime memo entries.
    scope_counter: u64,
    /// Set-oriented probe indexes: hash partition of one base-table column
    /// by `eq_key` value, keyed `(table, snapshot version, column)`.
    corr_index: FxHashMap<CorrIndexKey, Arc<FxHashMap<Value, Vec<u32>>>>,
    /// Correlated-equality scan shapes seen once already: the second scan
    /// of the same shape builds the probe index, so one-shot scans never
    /// pay the build pass.
    corr_scan_seen: FxHashSet<CorrIndexKey>,
}

/// Identity of one probe-indexable scan shape: `(table, snapshot version,
/// probed column)`.
type CorrIndexKey = (String, u64, usize);

/// A correlated subtree's plan-time correlation signature: the outer
/// columns it reads (its free references, in the deterministic
/// `Qgm::free_refs` order) plus the binding-key normalization the memo may
/// safely apply.
struct CorrSig {
    refs: Vec<(QuantId, usize)>,
    /// Every free-reference occurrence in the subtree sits under a SQL
    /// comparison operand (`= <> < <= > >=`, reached only through
    /// arithmetic), so binding classes SQL comparison cannot distinguish —
    /// NULL vs NaN (both compare to nothing) and `-0.0` vs `0.0` — provably
    /// produce identical results and the key normalizes `eq_key`-style,
    /// exactly like a hash-join key.
    /// Otherwise the key keeps raw values under [`Value`]'s total
    /// equality, which is always sound: total-equal bindings are
    /// indistinguishable to the interpreter.
    sql_norm: bool,
}

impl CorrSig {
    /// The memo key for one binding: each free reference resolved through
    /// the environment chain, normalized per `sql_norm`. `None` when a
    /// reference is unbound (the caller falls back to direct evaluation).
    fn key_under(&self, env: &Env<'_>) -> Option<MemoKey> {
        let mut key = Vec::with_capacity(self.refs.len());
        for &(q, c) in &self.refs {
            let v = env.lookup(q, c)?;
            key.push(if self.sql_norm {
                // NULL and NaN fold to one class (both match nothing under
                // SQL comparison), -0.0 folds onto 0.0.
                v.eq_key().unwrap_or(Value::Null)
            } else {
                v.clone()
            });
        }
        Some(MemoKey(key))
    }
}

/// Exact binding-tuple key for the subquery memo.
///
/// [`Value`]'s own `Eq`/`Hash` follow the total order, which unifies `Int`
/// and `Double` *numerically through `f64`* — lossy past 2^53, so two
/// distinguishable bindings could share a map slot. A memo may always
/// over-split (a missed hit just re-executes) but may never falsely merge,
/// so keys compare exactly per variant: `Int` by integer, `Double` by
/// bits. `-0.0`/`0.0` and NULL/NaN folding, where provably safe, happens
/// *before* the key is built (see [`CorrSig::sql_norm`]).
#[derive(Clone)]
struct MemoKey(Vec<Value>);

impl PartialEq for MemoKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(a, b)| match (a, b) {
                (Value::Null, Value::Null) => true,
                (Value::Bool(x), Value::Bool(y)) => x == y,
                (Value::Int(x), Value::Int(y)) => x == y,
                (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
                (Value::Str(x), Value::Str(y)) => x == y,
                _ => false,
            })
    }
}

impl Eq for MemoKey {}

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            match v {
                Value::Null => state.write_u8(0),
                Value::Bool(b) => {
                    state.write_u8(1);
                    state.write_u8(*b as u8);
                }
                Value::Int(i) => {
                    state.write_u8(2);
                    state.write_i64(*i);
                }
                Value::Double(d) => {
                    state.write_u8(3);
                    state.write_u64(d.to_bits());
                }
                Value::Str(s) => {
                    state.write_u8(4);
                    state.write(s.as_bytes());
                    state.write_u8(0xff);
                }
            }
        }
    }
}

impl MemoKey {
    /// The empty binding tuple (uncorrelated / legacy-scoped entries).
    fn empty() -> Self {
        MemoKey(Vec::new())
    }
}

/// Does every free-reference occurrence in `e` sit in a SQL-comparison
/// context? `safe` says the current position is reached only through
/// comparison operands and value-preserving arithmetic (`+ - *` and unary
/// negation — `/` is excluded because `NULL / 0` is NULL while `NaN / 0`
/// errors, so NULL~NaN folding would change behaviour). Everything else —
/// `IS [NOT] NULL`, `<=>`, `COALESCE`, aggregates, boolean structure —
/// observes the raw value and resets the context.
fn cmp_context_only(e: &Expr, is_free: &impl Fn(QuantId) -> bool, safe: bool) -> bool {
    match e {
        Expr::Col { quant, .. } => !is_free(*quant) || safe,
        Expr::Lit(_) | Expr::Param(_) => true,
        Expr::Binary { op, left, right } => {
            let inner = match op {
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => true,
                BinOp::Add | BinOp::Sub | BinOp::Mul => safe,
                _ => false,
            };
            cmp_context_only(left, is_free, inner) && cmp_context_only(right, is_free, inner)
        }
        Expr::Unary { op, expr } => {
            let inner = matches!(op, UnOp::Neg) && safe;
            cmp_context_only(expr, is_free, inner)
        }
        Expr::Func { args, .. } => args.iter().all(|a| cmp_context_only(a, is_free, false)),
        Expr::Agg { arg, .. } => arg
            .as_ref()
            .is_none_or(|a| cmp_context_only(a, is_free, false)),
    }
}

impl<'a> Executor<'a> {
    pub fn new(db: &'a Database, opts: ExecOptions) -> Self {
        let pool = WorkerPool::new(opts.threads);
        Executor {
            db,
            opts,
            stats: ExecStats::new(),
            pool,
            cse_cache: FxHashMap::default(),
            corr_cache: FxHashMap::default(),
            trace: None,
            box_stack: Vec::new(),
            col_cache: FxHashMap::default(),
            subq_memo: FxHashMap::default(),
            memo_rows: 0,
            sig_cache: FxHashMap::default(),
            cur_scope: 0,
            scope_counter: 0,
            corr_index: FxHashMap::default(),
            corr_scan_seen: FxHashSet::default(),
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Start recording a per-box operator trace (see [`ExecTrace`]).
    pub fn enable_tracing(&mut self) {
        self.trace = Some(ExecTrace::new());
    }

    /// Take the recorded trace, leaving tracing disabled.
    pub fn take_trace(&mut self) -> Option<ExecTrace> {
        self.trace.take()
    }

    /// Execute the graph's top box.
    pub fn run(&mut self, qgm: &Qgm) -> Result<Vec<Row>> {
        let rows = self.eval_box(qgm, qgm.top(), None)?;
        self.stats.output_rows += rows.len() as u64;
        Ok(rows)
    }

    fn is_correlated(&mut self, qgm: &Qgm, b: BoxId) -> bool {
        if let Some(&c) = self.corr_cache.get(&b) {
            return c;
        }
        let c = !qgm.free_refs(b).is_empty();
        self.corr_cache.insert(b, c);
        c
    }

    /// The plan-time correlation signature of the subtree rooted at `b`,
    /// computed once per box: its free references plus whether every
    /// occurrence sits in a SQL-comparison context (see [`CorrSig`]).
    fn corr_sig(&mut self, qgm: &Qgm, b: BoxId) -> Arc<CorrSig> {
        if let Some(s) = self.sig_cache.get(&b) {
            return Arc::clone(s);
        }
        let refs = qgm.free_refs(b);
        let local = qgm.subtree_quants(b);
        let is_free = |q: QuantId| !local.contains(&q);
        let mut sql_norm = !refs.is_empty();
        if sql_norm {
            for bb in qgm.reachable_boxes(b) {
                qgm.boxref(bb).for_each_expr(|e| {
                    if !cmp_context_only(e, &is_free, false) {
                        sql_norm = false;
                    }
                });
            }
        }
        let sig = Arc::new(CorrSig { refs, sql_norm });
        self.sig_cache.insert(b, Arc::clone(&sig));
        sig
    }

    /// Count one subquery invocation that executed the subtree.
    fn count_subq_exec(&mut self) {
        self.stats.subquery_invocations += 1;
        self.stats.subquery_distinct_invocations += 1;
    }

    /// Count one subquery invocation served from the memo: still a logical
    /// invocation (in stats *and* in the child's trace entry), but no
    /// execution happened.
    fn count_subq_hit(&mut self, child: BoxId) {
        self.stats.subquery_invocations += 1;
        self.stats.subquery_memo_hits += 1;
        if let Some(trace) = &mut self.trace {
            trace.note_memo_hit(child);
        }
    }

    /// Evaluate a subquery child for the current binding through the
    /// per-run correlation-key memo.
    ///
    /// `correlated_here` says the child reads columns bound by the block
    /// currently being evaluated — i.e. each candidate row is a *logical*
    /// invocation (always counted in `subquery_invocations`, hit or miss).
    /// Children correlated only to outer blocks are constants for the
    /// whole enclosing evaluation; their hits are the legacy
    /// per-evaluation cache promoted to run lifetime and stay uncounted.
    fn memoized_child(
        &mut self,
        qgm: &Qgm,
        child: BoxId,
        env2: &Env<'_>,
        correlated_here: bool,
    ) -> Result<RowBatch> {
        if self.opts.naive_ni {
            // Naive nested iteration: correlated-here children execute per
            // call; everything else caches per enclosing Select evaluation
            // — the executor exactly as it was before the memo existed.
            if correlated_here {
                self.count_subq_exec();
                return Ok(self.eval_box(qgm, child, Some(env2))?.into());
            }
            let k = (child, self.cur_scope, MemoKey::empty());
            if let Some(hit) = self.subq_memo.get(&k) {
                return Ok(RowBatch::clone(hit));
            }
            self.count_subq_exec();
            let rows: RowBatch = self.eval_box(qgm, child, Some(env2))?.into();
            self.subq_memo.insert(k, RowBatch::clone(&rows));
            return Ok(rows);
        }
        let sig = self.corr_sig(qgm, child);
        let Some(key) = sig.key_under(env2) else {
            // An unbound free reference leaves nothing sound to key on.
            self.count_subq_exec();
            return Ok(self.eval_box(qgm, child, Some(env2))?.into());
        };
        let k = (child, 0u64, key);
        if let Some(hit) = self.subq_memo.get(&k).map(RowBatch::clone) {
            if correlated_here {
                self.count_subq_hit(child);
            }
            return Ok(hit);
        }
        self.count_subq_exec();
        let rows: RowBatch = self.eval_box(qgm, child, Some(env2))?.into();
        // Charge the memo against the memory budget; once the ledger is
        // exhausted, fall back to unmemoized execution (the query keeps
        // running, later duplicates just re-execute).
        let fits = self
            .opts
            .mem_budget
            .is_none_or(|mb| self.memo_rows + rows.len() <= mb);
        if fits {
            self.memo_rows += rows.len();
            self.subq_memo.insert(k, RowBatch::clone(&rows));
        }
        Ok(rows)
    }

    // ---- box dispatch ----------------------------------------------------

    /// Evaluate a box, recording an operator-trace entry when tracing is
    /// on. Wall time is inclusive of children (the box stack has no
    /// double-counting concern: the QGM is a DAG, a box never recursively
    /// evaluates itself).
    fn eval_box(&mut self, qgm: &Qgm, b: BoxId, env: Option<&Env<'_>>) -> Result<Vec<Row>> {
        if self.trace.is_none() {
            return self.eval_box_inner(qgm, b, env);
        }
        let started = Instant::now();
        self.box_stack.push(b);
        let result = self.eval_box_inner(qgm, b, env);
        self.box_stack.pop();
        let elapsed = started.elapsed();
        if let (Some(trace), Ok(rows)) = (&mut self.trace, &result) {
            let e = trace.entry(b);
            e.invocations += 1;
            e.rows_out += rows.len() as u64;
            e.wall += elapsed;
        }
        result
    }

    /// Charge one predicate evaluation to the stats and (when tracing) to
    /// the box currently on top of the evaluation stack.
    fn note_pred(&mut self) {
        self.note_preds(1);
    }

    /// Bulk form of [`Executor::note_pred`]: parallel operators count
    /// evaluations per worker and charge the merged total here, so the
    /// counters come out identical to the serial path.
    fn note_preds(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.stats.predicate_evals += n;
        if let Some(trace) = &mut self.trace {
            if let Some(&b) = self.box_stack.last() {
                trace.entry(b).predicate_evals += n;
            }
        }
    }

    /// Should an operator over `n` input rows fan out? Small inputs stay
    /// serial: a morsel's worth of rows is cheaper to process inline than
    /// to schedule.
    fn parallel_over(&self, n: usize) -> bool {
        self.pool.is_parallel() && n > MORSEL_ROWS
    }

    /// Governance checkpoint: cancellation + budget charge of `work` rows.
    /// Operators call this on entry (charging their input size) and at
    /// morsel boundaries inside long loops (charging 0 — the work was
    /// already charged up front).
    fn checkpoint(&self, work: u64) -> Result<()> {
        governor_check(&self.opts, work)
    }

    /// Hard memory ceiling: an operator output of `n` rows beyond
    /// `1024 × mem_budget` cannot be absorbed by degrading the algorithm
    /// and fails the query with [`Error::ResourceExhausted`].
    fn check_mem(&self, n: usize, operator: &str) -> Result<()> {
        if let Some(mb) = self.opts.mem_budget {
            let ceiling = mb.saturating_mul(1024);
            if n > ceiling {
                return Err(Error::resource_exhausted(format!(
                    "{operator} output of {n} rows exceeds {ceiling} \
                     (1024 x mem_budget of {mb} rows)"
                )));
            }
        }
        Ok(())
    }

    /// Record a graceful degradation (stats counter + trace entry on the
    /// box currently being evaluated).
    fn note_degradation(&mut self, reason: &str) {
        self.stats.degradations += 1;
        if let Some(trace) = &mut self.trace {
            if let Some(&b) = self.box_stack.last() {
                trace.note_degradation(b, reason);
            }
        }
    }

    /// Record an over-budget operator that spilled to disk instead of
    /// degrading (stats counter + trace entry on the current box).
    fn note_spill(&mut self, reason: &str) {
        self.stats.spills += 1;
        if let Some(trace) = &mut self.trace {
            if let Some(&b) = self.box_stack.last() {
                trace.note_spill(b, reason);
            }
        }
    }

    /// Fold one scan's / spill pass's page-level I/O into the run stats.
    fn note_io(&mut self, io: PageIo) {
        self.stats.pool_hits += io.hits;
        self.stats.pool_misses += io.misses;
        self.stats.pages_read += io.pages_read;
        self.stats.pages_pruned += io.pages_pruned;
    }

    /// Does the memory budget force a fallback for an operator whose
    /// working state would hold `n` rows?
    fn over_mem_budget(&self, n: usize) -> bool {
        self.opts.mem_budget.is_some_and(|mb| n > mb)
    }

    /// Partition count for a spilled operator: enough that each partition's
    /// working state fits the budget, bounded to keep partition files and
    /// passes sane under extreme budgets.
    fn spill_parts(&self, n: usize) -> usize {
        let budget = self.opts.mem_budget.unwrap_or(usize::MAX).max(1);
        n.div_ceil(budget).clamp(2, 256)
    }

    /// Record a join-strategy decision for the current box.
    fn note_join(
        &mut self,
        quant: QuantId,
        strategy: JoinStrategy,
        left_rows: u64,
        right_rows: u64,
        out_rows: u64,
    ) {
        if let Some(trace) = &mut self.trace {
            if let Some(&b) = self.box_stack.last() {
                trace.note_join(b, quant, strategy, left_rows, right_rows, out_rows);
            }
        }
    }

    fn eval_box_inner(&mut self, qgm: &Qgm, b: BoxId, env: Option<&Env<'_>>) -> Result<Vec<Row>> {
        self.checkpoint(0)?;
        match &qgm.boxref(b).kind {
            BoxKind::BaseTable { table, .. } => {
                let t = self.db.table(table)?;
                self.checkpoint(t.len() as u64)?;
                self.stats.rows_scanned += t.len() as u64;
                if t.is_paged() {
                    let mut io = PageIo::default();
                    let rows = t.read_rows(&mut io)?.into_owned();
                    self.note_io(io);
                    return Ok(rows);
                }
                Ok(t.rows().to_vec())
            }
            BoxKind::Select => {
                // Each Select evaluation gets a fresh scope id; under the
                // naive oracle, outer-correlated subquery results cache per
                // enclosing evaluation (legacy scope).
                self.scope_counter += 1;
                let saved = std::mem::replace(&mut self.cur_scope, self.scope_counter);
                let r = self.eval_select(qgm, b, env);
                self.cur_scope = saved;
                r
            }
            BoxKind::Grouping { .. } => self.eval_grouping(qgm, b, env),
            BoxKind::Union { all } => self.eval_union(qgm, b, *all, env),
            BoxKind::OuterJoin => self.eval_outer_join(qgm, b, env),
        }
    }

    /// Evaluate a child box, consulting the cross-run CSE memo for
    /// uncorrelated shared boxes when enabled. The result is a shared
    /// [`RowBatch`]: consumers (and worker threads) share the one
    /// materialization by refcount instead of copying rows.
    fn eval_child(&mut self, qgm: &Qgm, b: BoxId, env: Option<&Env<'_>>) -> Result<RowBatch> {
        let memoizable = self.opts.memoize_cse
            && !matches!(qgm.boxref(b).kind, BoxKind::BaseTable { .. })
            && !self.is_correlated(qgm, b);
        if memoizable {
            if let Some(hit) = self.cse_cache.get(&b) {
                return Ok(RowBatch::clone(hit));
            }
        }
        // Cross-query shared subplans: a marked box (SUPP/MAGIC/DCO/CI or
        // a multi-referenced CSE) is served from — or materialized into —
        // the process-wide cache, single-flight across concurrent queries.
        let shared = self.opts.shared_subplans.as_ref().and_then(|ss| {
            let key = self.subplan_key(ss.marks.get(&b)?)?;
            Some((ss.cache.clone(), key))
        });
        if let Some((cache, key)) = shared {
            match cache.lookup_or_begin(&key) {
                SubplanLookup::Hit(rows) => {
                    self.checkpoint(0)?;
                    self.stats.shared_subplan_hits += 1;
                    self.stats.shared_subplan_rows += rows.len() as u64;
                    if let Some(trace) = &mut self.trace {
                        trace.note_shared_hit(b);
                    }
                    if memoizable {
                        self.cse_cache.insert(b, RowBatch::clone(&rows));
                    }
                    return Ok(rows);
                }
                SubplanLookup::Build(guard) => {
                    // An error drops the guard, un-claiming the slot so
                    // waiters fall through to their local fallback.
                    let rows: RowBatch = self.eval_box(qgm, b, env)?.into();
                    guard.finish(RowBatch::clone(&rows));
                    if memoizable {
                        self.cse_cache.insert(b, RowBatch::clone(&rows));
                    }
                    return Ok(rows);
                }
                SubplanLookup::Bypass => {}
            }
        }
        let rows: RowBatch = self.eval_box(qgm, b, env)?.into();
        if memoizable {
            self.cse_cache.insert(b, RowBatch::clone(&rows));
        }
        Ok(rows)
    }

    /// The full shared-subplan cache key for a marked subtree: canonical
    /// shape plus `table@version` for every base table it reads. `None`
    /// (skip caching) if a table is gone from this snapshot.
    fn subplan_key(&self, m: &SubplanShape) -> Option<String> {
        use std::fmt::Write as _;
        let mut key = m.shape.clone();
        for t in &m.tables {
            let version = self.db.table(t).ok()?.version();
            let _ = write!(key, ";{t}@{version}");
        }
        Some(key)
    }

    // ---- Select boxes ------------------------------------------------------

    fn eval_select(&mut self, qgm: &Qgm, b: BoxId, env: Option<&Env<'_>>) -> Result<Vec<Row>> {
        let bx = qgm.boxref(b);
        let local: FxHashSet<QuantId> = bx.quants.iter().copied().collect();
        let foreach: Vec<QuantId> = bx
            .quants
            .iter()
            .copied()
            .filter(|&q| qgm.quant(q).kind == QuantKind::Foreach)
            .collect();
        let subquants: Vec<QuantId> = bx
            .quants
            .iter()
            .copied()
            .filter(|&q| qgm.quant(q).kind != QuantKind::Foreach)
            .collect();

        // Classify predicates. `consumed[i]` marks predicates already
        // applied at a scan or join step.
        let preds: &[Expr] = &bx.preds;
        let mut consumed = vec![false; preds.len()];

        let local_refs = |e: &Expr| -> Vec<QuantId> {
            e.referenced_quants()
                .into_iter()
                .filter(|q| local.contains(q))
                .collect()
        };
        let refs_subquery =
            |e: &Expr| -> bool { local_refs(e).iter().any(|q| subquants.contains(q)) };

        // Constant predicates (no local references): check once.
        {
            let empty_layout = Layout::new();
            let empty_row = Row::empty();
            let env0 = Env::new(&empty_layout, &empty_row, env);
            for (i, p) in preds.iter().enumerate() {
                if local_refs(p).is_empty() {
                    consumed[i] = true;
                    self.note_pred();
                    if !qualifies(p, &env0)? {
                        return Ok(Vec::new());
                    }
                }
            }
        }

        // Laterality: a child referencing quantifiers of *this* box must be
        // re-evaluated per row of the quantifiers it references.
        let is_lateral: FxHashMap<QuantId, bool> = foreach
            .iter()
            .map(|&q| {
                let child = qgm.quant(q).input;
                let lateral = qgm
                    .free_refs(child)
                    .iter()
                    .any(|(fq, _)| local.contains(fq));
                (q, lateral)
            })
            .collect();

        // Evaluate non-lateral children up front, applying their
        // single-quantifier predicates (with index assistance on base
        // tables). Unfiltered base tables stay *deferred*: at join time
        // they may be driven through an index (index nested loops) instead
        // of being scanned — the access path Starburst picks when a small
        // binding set joins a large indexed table.
        let mut child_rows: FxHashMap<QuantId, RowBatch> = FxHashMap::default();
        let mut deferred: FxHashMap<QuantId, String> = FxHashMap::default();
        for &q in &foreach {
            if is_lateral[&q] {
                continue;
            }
            let mut applicable: Vec<usize> = Vec::new();
            for (i, p) in preds.iter().enumerate() {
                if consumed[i] || refs_subquery(p) {
                    continue;
                }
                let lr = local_refs(p);
                if !lr.is_empty() && lr.iter().all(|&r| r == q) {
                    applicable.push(i);
                }
            }
            if applicable.is_empty() {
                if let BoxKind::BaseTable { table, .. } = &qgm.boxref(qgm.quant(q).input).kind {
                    if !self.db.table(table)?.indexes().is_empty() {
                        deferred.insert(q, table.clone());
                        continue;
                    }
                }
            }
            let rows = self.scan_quant(qgm, q, preds, &applicable, env)?;
            for i in &applicable {
                consumed[*i] = true;
            }
            child_rows.insert(q, rows);
        }

        // Greedy join over the Foreach quantifiers.
        let mut layout = Layout::new();
        let mut rows: Vec<Row> = vec![Row::empty()];
        let mut bound: Vec<QuantId> = Vec::new();
        let mut remaining: Vec<QuantId> = foreach.clone();
        // Scalar quantifiers already materialized as row columns.
        let mut scalars_bound: FxHashSet<QuantId> = FxHashSet::default();

        // Estimated input sizes for the greedy order: materialized children
        // by their (filtered) row count, deferred base tables by table size.
        let mut sizes: FxHashMap<QuantId, usize> = FxHashMap::default();
        for (&q, r) in &child_rows {
            sizes.insert(q, r.len());
        }
        for (&q, table) in &deferred {
            sizes.insert(q, self.db.table(table)?.len());
        }

        while !remaining.is_empty() {
            let next = self.pick_next_quant(
                qgm,
                &remaining,
                &bound,
                &local,
                &is_lateral,
                &sizes,
                preds,
                &consumed,
                &local_refs,
            )?;
            remaining.retain(|&q| q != next);
            let child_arity = qgm.output_arity(qgm.quant(next).input);

            // Predicates that become applicable once `next` is bound.
            let mut applicable: Vec<usize> = Vec::new();
            for (i, p) in preds.iter().enumerate() {
                if consumed[i] || refs_subquery(p) {
                    continue;
                }
                let lr = local_refs(p);
                let ok = lr
                    .iter()
                    .all(|r| bound.contains(r) || *r == next || scalars_bound.contains(r));
                if ok && lr.contains(&next) {
                    applicable.push(i);
                }
            }

            if is_lateral[&next] {
                rows = self.join_lateral(qgm, next, rows, &layout, env)?;
                layout.push(next, child_arity);
            } else if let Some(table) = deferred.get(&next) {
                rows = self.join_deferred(
                    qgm,
                    next,
                    table,
                    rows,
                    &layout,
                    preds,
                    &mut applicable,
                    env,
                )?;
                layout.push(next, child_arity);
            } else {
                let right = RowBatch::clone(&child_rows[&next]);
                rows = self.join_step(
                    qgm,
                    next,
                    rows,
                    &layout,
                    &right,
                    preds,
                    &mut applicable,
                    env,
                )?;
                layout.push(next, child_arity);
            }
            // Residual applicable predicates (non-equi or not used as keys).
            if !applicable.is_empty() {
                let kept: Vec<&Expr> = applicable.iter().map(|&i| &preds[i]).collect();
                rows = self.filter_rows(rows, &layout, &kept, env)?;
            }
            for i in applicable {
                consumed[i] = true;
            }
            bound.push(next);

            // Early scalar-subquery placement.
            if self.opts.scalar_placement == ScalarPlacement::EarliestBinding {
                for &sq in &subquants {
                    if scalars_bound.contains(&sq) || qgm.quant(sq).kind != QuantKind::Scalar {
                        continue;
                    }
                    let child = qgm.quant(sq).input;
                    let deps: Vec<QuantId> = qgm
                        .free_refs(child)
                        .into_iter()
                        .map(|(fq, _)| fq)
                        .filter(|fq| local.contains(fq))
                        .collect();
                    if deps.iter().all(|d| bound.contains(d)) {
                        rows = self.append_scalar_column(qgm, sq, rows, &layout, env)?;
                        layout.push(sq, 1);
                        scalars_bound.insert(sq);
                    }
                }
            }
        }

        // End stage: remaining predicates (those over subquery quantifiers
        // plus anything never consumed) are evaluated per candidate row.
        let remaining_preds: Vec<&Expr> = preds
            .iter()
            .enumerate()
            .filter(|(i, _)| !consumed[*i])
            .map(|(_, p)| p)
            .collect();

        // Scalar quantifiers still unbound but referenced by remaining
        // predicates or outputs get appended per candidate row.
        let mut needed_scalars: Vec<QuantId> = Vec::new();
        let note_scalar = |e: &Expr, needed: &mut Vec<QuantId>| {
            for r in e.referenced_quants() {
                if subquants.contains(&r)
                    && qgm.quant(r).kind == QuantKind::Scalar
                    && !scalars_bound.contains(&r)
                    && !needed.contains(&r)
                {
                    needed.push(r);
                }
            }
        };
        for p in &remaining_preds {
            note_scalar(p, &mut needed_scalars);
        }
        for o in &bx.outputs {
            note_scalar(&o.expr, &mut needed_scalars);
        }

        let mut end_layout = layout.clone();
        for &sq in &needed_scalars {
            end_layout.push(sq, 1);
        }

        // Existential / All quantifier groups: map quant -> predicate
        // indices among remaining_preds.
        let mut quant_groups: Vec<(QuantId, Vec<&Expr>)> = Vec::new();
        for &sq in &subquants {
            let kind = qgm.quant(sq).kind;
            if kind == QuantKind::Existential || kind == QuantKind::All {
                quant_groups.push((sq, Vec::new()));
            }
        }
        let mut plain_preds: Vec<&Expr> = Vec::new();
        for p in &remaining_preds {
            let quantified: Vec<QuantId> = local_refs(p)
                .into_iter()
                .filter(|q| matches!(qgm.quant(*q).kind, QuantKind::Existential | QuantKind::All))
                .collect();
            match quantified.len() {
                0 => plain_preds.push(p),
                1 => {
                    let g = quant_groups
                        .iter_mut()
                        .find(|(q, _)| *q == quantified[0])
                        .expect("group exists");
                    g.1.push(p);
                }
                _ => {
                    return Err(Error::internal(
                        "predicate references multiple quantified subqueries".to_string(),
                    ))
                }
            }
        }

        // Set-oriented end stage: when no scalar subqueries or quantified
        // groups remain (the common case after decorrelation, where
        // subqueries have become joins), filtering is one selection over
        // the join output and the projection reads the survivors — plain
        // column outputs straight off the source rows, anything else
        // through the evaluator. Both fan out in morsels for large inputs.
        // The selection finishes before any output is computed, so when a
        // predicate and a computed output would fail on different rows,
        // the predicate's error is the one reported.
        if needed_scalars.is_empty() && quant_groups.is_empty() {
            let sel = self.select(&rows, None, &end_layout, &plain_preds, env)?;
            let outputs = bx.outputs.iter().map(|o| &o.expr);
            let mut out_rows: Vec<Row> = match vector::compile_projection(outputs, &end_layout) {
                Some(proj) => sel
                    .iter()
                    .map(|&i| Row::new(proj.iter().map(|&c| rows[i as usize][c].clone()).collect()))
                    .collect(),
                // Computed outputs evaluate per morsel of survivors, across
                // the pool for large selections.
                None => self.morsels(sel.len(), |lo, hi| {
                    let mut out = Vec::with_capacity(hi - lo);
                    for &i in &sel[lo..hi] {
                        let env2 = Env::new(&end_layout, &rows[i as usize], env);
                        let row: Vec<Value> = bx
                            .outputs
                            .iter()
                            .map(|o| eval_expr(&o.expr, &env2))
                            .collect::<Result<_>>()?;
                        out.push(Row(row));
                    }
                    Ok((out, 0))
                })?,
            };
            if bx.distinct {
                out_rows = dedup_rows(out_rows);
            }
            return Ok(out_rows);
        }

        let mut out_rows: Vec<Row> = Vec::with_capacity(rows.len());
        for (row_i, mut row) in rows.into_iter().enumerate() {
            if row_i % MORSEL_ROWS == 0 {
                self.checkpoint(0)?;
            }
            // Materialize needed scalar subqueries into the row.
            if !needed_scalars.is_empty() {
                let env2 = Env::new(&layout, &row, env);
                let mut extra: Vec<Value> = Vec::with_capacity(needed_scalars.len());
                for &sq in &needed_scalars {
                    extra.push(self.scalar_subquery_value(qgm, sq, &env2)?);
                }
                row.0.extend(extra);
            }
            let env2 = Env::new(&end_layout, &row, env);

            // Plain predicates.
            let mut keep = true;
            for p in &plain_preds {
                self.note_pred();
                if !qualifies(p, &env2)? {
                    keep = false;
                    break;
                }
            }
            if !keep {
                continue;
            }

            // Quantified groups.
            for (sq, group) in &quant_groups {
                let kind = qgm.quant(*sq).kind;
                let sub_rows = self.subquery_rows(qgm, *sq, &env2)?;
                let mut q_layout = Layout::new();
                q_layout.push(*sq, qgm.output_arity(qgm.quant(*sq).input));
                let sat = match kind {
                    QuantKind::Existential => {
                        if group.is_empty() {
                            !sub_rows.is_empty()
                        } else {
                            let mut any = false;
                            for r in sub_rows.iter() {
                                let env3 = Env::new(&q_layout, r, Some(&env2));
                                let mut all_true = true;
                                for p in group {
                                    self.note_pred();
                                    if !qualifies(p, &env3)? {
                                        all_true = false;
                                        break;
                                    }
                                }
                                if all_true {
                                    any = true;
                                    break;
                                }
                            }
                            any
                        }
                    }
                    QuantKind::All => {
                        let mut all = true;
                        for r in sub_rows.iter() {
                            let env3 = Env::new(&q_layout, r, Some(&env2));
                            for p in group {
                                self.note_pred();
                                if !qualifies(p, &env3)? {
                                    all = false;
                                    break;
                                }
                            }
                            if !all {
                                break;
                            }
                        }
                        all
                    }
                    _ => unreachable!(),
                };
                if !sat {
                    keep = false;
                    break;
                }
            }
            if !keep {
                continue;
            }

            // Projection.
            let env2 = Env::new(&end_layout, &row, env);
            let mut out = Row(Vec::with_capacity(bx.outputs.len()));
            for o in &bx.outputs {
                out.0.push(eval_expr(&o.expr, &env2)?);
            }
            out_rows.push(out);
        }

        if bx.distinct {
            out_rows = dedup_rows(out_rows);
        }
        Ok(out_rows)
    }

    /// Pick the next Foreach quantifier to join: among the candidates whose
    /// lateral dependencies are satisfied, prefer ones connected to the
    /// bound set by an equi-join predicate, breaking ties by smaller input
    /// cardinality (a standard greedy join order; the paper's Section 7
    /// notes magic decorrelation inherits whatever join order the optimizer
    /// picked).
    #[allow(clippy::too_many_arguments)]
    fn pick_next_quant(
        &self,
        qgm: &Qgm,
        remaining: &[QuantId],
        bound: &[QuantId],
        local: &FxHashSet<QuantId>,
        is_lateral: &FxHashMap<QuantId, bool>,
        sizes: &FxHashMap<QuantId, usize>,
        preds: &[Expr],
        consumed: &[bool],
        local_refs: &dyn Fn(&Expr) -> Vec<QuantId>,
    ) -> Result<QuantId> {
        let mut best: Option<(bool, usize, QuantId)> = None; // (connected, size)
        for &q in remaining {
            if is_lateral[&q] {
                let child = qgm.quant(q).input;
                let deps: Vec<QuantId> = qgm
                    .free_refs(child)
                    .into_iter()
                    .map(|(fq, _)| fq)
                    .filter(|fq| local.contains(fq))
                    .collect();
                if !deps.iter().all(|d| bound.contains(d)) {
                    continue;
                }
            }
            let connected = !bound.is_empty()
                && preds.iter().enumerate().any(|(i, p)| {
                    if consumed[i] {
                        return false;
                    }
                    let lr = local_refs(p);
                    lr.contains(&q)
                        && lr.iter().all(|r| *r == q || bound.contains(r))
                        && lr.iter().any(|r| bound.contains(r))
                });
            let size = sizes.get(&q).copied().unwrap_or(0);
            let cand = (connected, size, q);
            best = Some(match best {
                None => cand,
                Some(cur) => {
                    // connected beats unconnected; then smaller size wins.
                    let better = (cand.0 && !cur.0) || (cand.0 == cur.0 && cand.1 < cur.1);
                    if better {
                        cand
                    } else {
                        cur
                    }
                }
            });
        }
        best.map(|(_, _, q)| q).ok_or_else(|| {
            Error::internal("no joinable quantifier (cyclic lateral dependency?)".to_string())
        })
    }

    /// Scan/evaluate a non-lateral Foreach quantifier's input with its
    /// single-quantifier predicates, using an index when the input is a
    /// base table and a predicate binds an indexed column to a value
    /// computable before the scan.
    fn scan_quant(
        &mut self,
        qgm: &Qgm,
        q: QuantId,
        preds: &[Expr],
        applicable: &[usize],
        env: Option<&Env<'_>>,
    ) -> Result<RowBatch> {
        let child = qgm.quant(q).input;
        let mut q_layout = Layout::new();
        q_layout.push(q, qgm.output_arity(child));

        if let BoxKind::BaseTable { table, .. } = &qgm.boxref(child).kind {
            let t = self.db.table(table)?;
            return self
                .scan_table(t, q, preds, applicable, &q_layout, env)
                .map(Into::into);
        }

        let rows = self.eval_child(qgm, child, env)?;
        if applicable.is_empty() {
            // No predicates to apply: share the child's batch as-is.
            return Ok(rows);
        }
        let kept: Vec<&Expr> = applicable.iter().map(|&i| &preds[i]).collect();
        self.filter_cloned(&rows, None, &q_layout, &kept, env)
            .map(Into::into)
    }

    /// Base-table scan with optional index assistance.
    fn scan_table(
        &mut self,
        t: &Table,
        q: QuantId,
        preds: &[Expr],
        applicable: &[usize],
        q_layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        // Find an index-usable equality: Col(q, c) = <expr without local refs>.
        let empty_layout = Layout::new();
        let empty_row = Row::empty();
        let env0 = Env::new(&empty_layout, &empty_row, env);
        let mut index_probe: Option<(usize, Value, usize)> = None; // (col, key, pred idx)
        for &i in applicable {
            if let Expr::Binary { op: decorr_qgm::BinOp::Eq, left, right } = &preds[i] {
                for (a, b) in [(left, right), (right, left)] {
                    if let Expr::Col { quant, col } = a.as_ref() {
                        if *quant == q
                            && b.referenced_quants().iter().all(|r| *r != q)
                            && t.index_on(&[*col]).is_some()
                        {
                            let key = eval_expr(b, &env0)?;
                            index_probe = Some((*col, key, i));
                            break;
                        }
                    }
                }
            }
            if index_probe.is_some() {
                break;
            }
        }

        if let Some((col, key, pi)) = &index_probe {
            self.stats.index_lookups += 1;
            let idx = t.index_on(&[*col]).expect("index checked above");
            let positions = idx.lookup(std::slice::from_ref(key));
            self.stats.index_rows += positions.len() as u64;
            let probed = positions.iter().copied();
            return self.probe_residual(t, probed, *pi, preds, applicable, q_layout, env);
        }

        let kept: Vec<&Expr> = applicable.iter().map(|&i| &preds[i]).collect();
        // Paged tables scan through the buffer pool, page stripe by page
        // stripe, skipping every stripe whose zone maps refute one of the
        // sargable `col op literal` bounds. The surviving stripes then run
        // the full predicate set exactly like a resident scan, so pruning
        // can only remove rows no predicate would keep.
        if t.is_paged() {
            self.checkpoint(t.len() as u64)?;
            let bounds = self.prune_bounds(&kept, q, env)?;
            let mut io = PageIo::default();
            let rows = t.read_rows_where(&bounds, &mut io)?.into_owned();
            self.note_io(io);
            self.stats.rows_scanned += rows.len() as u64;
            return self.filter_rows(rows, q_layout, &kept, env);
        }

        // Set-oriented correlated scan: a correlated equality over a column
        // with no real index — nested iteration's hot inner loop — builds a
        // hash partition over that column on its *second* scan of the run
        // and probes it per binding thereafter (an executor-level
        // magic-lite; one-shot scans never pay the build pass). The probe
        // returns positions in scan order and the remaining predicates run
        // per surviving row, so rows and row order are byte-identical to
        // the full scan.
        if !self.opts.naive_ni {
            let mut corr_probe: Option<(usize, Value, usize)> = None;
            for &i in applicable {
                if let Expr::Binary { op: BinOp::Eq, left, right } = &preds[i] {
                    for (a, b) in [(left, right), (right, left)] {
                        if let Expr::Col { quant, col } = a.as_ref() {
                            let other_refs = b.referenced_quants();
                            if *quant == q
                                && !other_refs.is_empty()
                                && other_refs.iter().all(|r| *r != q)
                            {
                                let key = eval_expr(b, &env0)?;
                                corr_probe = Some((*col, key, i));
                                break;
                            }
                        }
                    }
                }
                if corr_probe.is_some() {
                    break;
                }
            }
            if let Some((col, key, pi)) = corr_probe {
                let ck = (t.name().to_string(), t.version(), col);
                let idx = if let Some(idx) = self.corr_index.get(&ck) {
                    Some(Arc::clone(idx))
                } else if !self.corr_scan_seen.insert(ck.clone()) {
                    // Second scan of this shape: pay one build pass over the
                    // table, then every scan is a probe.
                    self.checkpoint(t.len() as u64)?;
                    self.stats.rows_scanned += t.len() as u64;
                    self.stats.hash_build_rows += t.len() as u64;
                    let built = Arc::new(vector::build_corr_index(t.rows(), col));
                    self.corr_index.insert(ck, Arc::clone(&built));
                    Some(built)
                } else {
                    None
                };
                if let Some(idx) = idx {
                    self.stats.index_lookups += 1;
                    let positions: &[u32] = key
                        .eq_key()
                        .and_then(|k| idx.get(&k))
                        .map_or(&[], |v| v.as_slice());
                    self.stats.index_rows += positions.len() as u64;
                    let probed = positions.iter().map(|&p| p as usize);
                    return self.probe_residual(t, probed, pi, preds, applicable, q_layout, env);
                }
            }
        }

        // Full scan: a compiled filter reads the table's cached transpose
        // (paid once per run, or once per snapshot with a shared cache), so
        // nested iteration's correlated re-scans — whose outer bindings
        // compile to literals — only run the kernels.
        self.stats.rows_scanned += t.len() as u64;
        self.filter_cloned(t.rows(), Some(t), q_layout, &kept, env)
    }

    /// The rows of `t` at `positions`, in order, that pass every
    /// applicable predicate except the probed one at `probed` — the
    /// residual filter behind an index or correlation probe.
    #[allow(clippy::too_many_arguments)]
    fn probe_residual(
        &mut self,
        t: &Table,
        positions: impl Iterator<Item = usize>,
        probed: usize,
        preds: &[Expr],
        applicable: &[usize],
        q_layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        'rows: for p in positions {
            let r = &t.rows()[p];
            let env1 = Env::new(q_layout, r, env);
            for &i in applicable {
                if i == probed {
                    continue;
                }
                self.note_pred();
                if !qualifies(&preds[i], &env1)? {
                    continue 'rows;
                }
            }
            out.push(r.clone());
        }
        Ok(out)
    }

    /// Derive sargable zone-map bounds from a scan's predicates: every
    /// `Col(q, c) <op> <expr>` comparison whose other side references no
    /// local column evaluates (under the outer bindings, so correlated
    /// re-scans prune too) to a literal the per-page zone maps can test.
    /// Only a conservative *filter* for whole pages — the surviving rows
    /// still run the full predicates.
    fn prune_bounds(
        &self,
        kept: &[&Expr],
        q: QuantId,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<(usize, CmpOp, Value)>> {
        let empty_layout = Layout::new();
        let empty_row = Row::empty();
        let env0 = Env::new(&empty_layout, &empty_row, env);
        let mut bounds = Vec::new();
        for p in kept {
            let Expr::Binary { op, left, right } = &**p else {
                continue;
            };
            let Some(cmp) = zone_cmp_op(*op) else {
                continue;
            };
            for (a, b, flipped) in [(left, right, false), (right, left, true)] {
                if let Expr::Col { quant, col } = a.as_ref() {
                    if *quant == q && b.referenced_quants().iter().all(|r| *r != q) {
                        let lit = eval_expr(b, &env0)?;
                        bounds.push((*col, if flipped { flip_cmp(cmp) } else { cmp }, lit));
                        break;
                    }
                }
            }
        }
        Ok(bounds)
    }

    /// The cached transpose of the base-table columns a compiled filter
    /// reads. Keyed per column set so repeated scans of the same table —
    /// notably nested iteration's correlated re-scans — transpose once;
    /// columns the filter never touches are never columnized. With a
    /// [`ExecOptions::shared_cache`] the transpose is further shared
    /// *across* queries, keyed by the table's snapshot version so a
    /// long-lived process never reads a superseded snapshot.
    fn table_batch(&mut self, t: &Table, cols: &[usize]) -> Arc<ColumnarBatch> {
        let key = (t.name().to_string(), t.version(), cols.to_vec());
        if let Some(b) = self.col_cache.get(&key) {
            return Arc::clone(b);
        }
        let b = match &self.opts.shared_cache {
            Some(shared) => shared.get_or_build(t, cols, || vector::narrow_batch(t.rows(), cols)),
            None => Arc::new(vector::narrow_batch(t.rows(), cols)),
        };
        self.col_cache.insert(key, Arc::clone(&b));
        b
    }

    /// The ascending positions of the `rows` every predicate in `preds`
    /// accepts — the one filter behind scans, join residuals and the Select
    /// end stage. A conjunction that compiles to kernel form runs the
    /// staged columnar filter over a narrow transpose (read from the batch
    /// cache when `table` says the rows are that base table's); anything
    /// else runs the scalar evaluator. Either way large inputs fan out in
    /// morsels across the pool, and exactly the short-circuit count of
    /// predicate evaluations is charged. The caller has already charged the
    /// input against the budget; the per-morsel checkpoints charge 0.
    fn select(
        &mut self,
        rows: &[Row],
        table: Option<&Table>,
        layout: &Layout,
        preds: &[&Expr],
        env: Option<&Env<'_>>,
    ) -> Result<SelVec> {
        if let Some(mut compiled) = vector::compile_preds(preds, layout, env) {
            let cols = vector::pred_columns(&compiled);
            let batch = match table {
                Some(t) => self.table_batch(t, &cols),
                None => Arc::new(vector::narrow_batch(rows, &cols)),
            };
            vector::remap_preds(&mut compiled, &cols);
            return self.morsels(rows.len(), |lo, hi| {
                Ok(vector::filter_range(&batch, &compiled, lo, hi))
            });
        }
        self.morsels(rows.len(), |lo, hi| {
            let mut sel = SelVec::new();
            let mut evals = 0u64;
            'rows: for (i, r) in rows[lo..hi].iter().enumerate() {
                let env1 = Env::new(layout, r, env);
                for p in preds {
                    evals += 1;
                    if !qualifies(p, &env1)? {
                        continue 'rows;
                    }
                }
                sel.push((lo + i) as u32);
            }
            Ok((sel, evals))
        })
    }

    /// Run a per-morsel map over `n` items — `chunk(lo, hi)` returns the
    /// outputs of items `lo..hi` (selection survivors, projected rows) plus
    /// its predicate evaluations — serially, or across the pool for large
    /// inputs, concatenating the outputs in item order.
    fn morsels<T: Send>(
        &mut self,
        n: usize,
        chunk: impl Fn(usize, usize) -> Result<(Vec<T>, u64)> + Sync,
    ) -> Result<Vec<T>> {
        let opts = &self.opts;
        let run = |c: usize| {
            governor_check(opts, 0)?;
            let lo = c * MORSEL_ROWS;
            chunk(lo, (lo + MORSEL_ROWS).min(n))
        };
        let chunks = n.div_ceil(MORSEL_ROWS);
        let parts: Vec<(Vec<T>, u64)> = if self.parallel_over(n) {
            self.pool
                .run_indexed(chunks, run)
                .into_iter()
                .collect::<Result<_>>()?
        } else {
            (0..chunks).map(run).collect::<Result<_>>()?
        };
        let mut out = Vec::with_capacity(parts.iter().map(|(p, _)| p.len()).sum());
        let mut evals = 0u64;
        for (p, e) in parts {
            out.extend(p);
            evals += e;
        }
        self.note_preds(evals);
        Ok(out)
    }

    /// Move the rows named by `sel` (ascending) out of `rows`.
    fn take_selected(rows: Vec<Row>, sel: &[u32]) -> Vec<Row> {
        let mut out = Vec::with_capacity(sel.len());
        let mut next = sel.iter().copied();
        let mut want = next.next();
        for (i, r) in rows.into_iter().enumerate() {
            if Some(i as u32) == want {
                out.push(r);
                want = next.next();
            }
        }
        out
    }

    /// Filter owned rows, moving the survivors out.
    fn filter_rows(
        &mut self,
        rows: Vec<Row>,
        layout: &Layout,
        preds: &[&Expr],
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        if preds.is_empty() {
            return Ok(rows);
        }
        self.checkpoint(rows.len() as u64)?;
        let sel = self.select(&rows, None, layout, preds, env)?;
        Ok(Self::take_selected(rows, &sel))
    }

    /// Filter borrowed rows — a table (named by `table`, so a compiled
    /// filter reads its cached transpose) or a shared batch — cloning the
    /// survivors.
    fn filter_cloned(
        &mut self,
        rows: &[Row],
        table: Option<&Table>,
        layout: &Layout,
        preds: &[&Expr],
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        if preds.is_empty() {
            return Ok(rows.to_vec());
        }
        self.checkpoint(rows.len() as u64)?;
        let sel = self.select(rows, table, layout, preds, env)?;
        Ok(sel.iter().map(|&i| rows[i as usize].clone()).collect())
    }

    /// One join step: combine `rows` (layout `layout`) with `right`
    /// (the rows of quantifier `next`). Equi-join predicates among
    /// `applicable` become hash-join keys and are removed from the list;
    /// everything else stays for the caller's residual filter.
    #[allow(clippy::too_many_arguments)]
    fn join_step(
        &mut self,
        qgm: &Qgm,
        next: QuantId,
        rows: Vec<Row>,
        layout: &Layout,
        right: &[Row],
        preds: &[Expr],
        applicable: &mut Vec<usize>,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        let mut right_layout = Layout::new();
        right_layout.push(next, qgm.output_arity(qgm.quant(next).input));

        // Split the applicable predicates into hash keys and residuals.
        // NullEq keys match NULL against NULL (the decorrelated re-join
        // with the magic table); Eq keys drop NULLs as SQL demands.
        let mut left_keys: Vec<(&Expr, bool)> = Vec::new();
        let mut right_keys: Vec<(&Expr, bool)> = Vec::new();
        let mut residual: Vec<usize> = Vec::new();
        for &i in applicable.iter() {
            let p = &preds[i];
            let mut is_key = false;
            if let Expr::Binary {
                op: op @ (decorr_qgm::BinOp::Eq | decorr_qgm::BinOp::NullEq),
                left,
                right: r,
            } = p
            {
                let null_ok = *op == decorr_qgm::BinOp::NullEq;
                let lq: Vec<QuantId> = left.referenced_quants();
                let rq: Vec<QuantId> = r.referenced_quants();
                let l_on_left = lq
                    .iter()
                    .all(|x| layout.contains(*x) || !is_local_ref(qgm, *x, next))
                    && lq.iter().any(|x| layout.contains(*x));
                let r_on_right =
                    rq.contains(&next) && rq.iter().all(|x| *x == next || !layout.contains(*x));
                let l_on_right =
                    lq.contains(&next) && lq.iter().all(|x| *x == next || !layout.contains(*x));
                let r_on_left = rq
                    .iter()
                    .all(|x| layout.contains(*x) || !is_local_ref(qgm, *x, next))
                    && rq.iter().any(|x| layout.contains(*x));
                if l_on_left && r_on_right {
                    left_keys.push((&**left, null_ok));
                    right_keys.push((&**r, null_ok));
                    is_key = true;
                } else if l_on_right && r_on_left {
                    left_keys.push((&**r, null_ok));
                    right_keys.push((&**left, null_ok));
                    is_key = true;
                }
            }
            if !is_key {
                residual.push(i);
            }
        }
        *applicable = residual;

        if left_keys.is_empty() {
            // Cross product (with residual filtering done by the caller).
            // The output size is known up front, so the memory ceiling is
            // enforced before materializing anything.
            let projected = rows.len() * right.len();
            self.check_mem(projected, "cross join")?;
            self.checkpoint(projected as u64)?;
            let mut out = Vec::with_capacity(projected.max(1));
            self.stats.nl_comparisons += projected as u64;
            for l in &rows {
                self.checkpoint(0)?;
                for r in right.iter() {
                    out.push(l.concat(r));
                }
            }
            self.stats.join_output_rows += out.len() as u64;
            self.note_join(
                next,
                JoinStrategy::Cross,
                rows.len() as u64,
                right.len() as u64,
                out.len() as u64,
            );
            return Ok(out);
        }

        // Memory governance: a hash table over the build side would exceed
        // the budget. With a spill manager, run a Grace hash join — both
        // sides hash-partition to disk and each partition builds a table
        // that fits the budget; rows and order are byte-identical to the
        // in-memory hash join. Without one, degrade to a block nested-loop
        // join over the extracted keys — same matches, same output order,
        // O(1) extra memory beyond the already-materialized inputs.
        if self.over_mem_budget(right.len()) {
            if let Some(spill) = self.opts.spill.clone() {
                let parts = self.spill_parts(right.len());
                self.note_spill(&format!(
                    "hash-join build side of {} rows exceeds mem_budget; \
                     spilling {parts} grace partitions",
                    right.len()
                ));
                match self.spilled_hash_join(
                    &rows,
                    layout,
                    right,
                    &right_layout,
                    &left_keys,
                    &right_keys,
                    env,
                    &spill,
                    parts,
                ) {
                    Ok(out) => {
                        self.stats.join_output_rows += out.len() as u64;
                        self.note_join(
                            next,
                            JoinStrategy::GraceHash,
                            rows.len() as u64,
                            right.len() as u64,
                            out.len() as u64,
                        );
                        return Ok(out);
                    }
                    // Fail-closed ENOSPC: the spill file cannot grow, so
                    // fall back to the spill-free degradation path — same
                    // matches, same order, O(1) extra memory, no disk.
                    Err(Error::StorageFull(_)) => {
                        self.note_degradation(
                            "spill device full (ENOSPC); falling back to \
                             block nested-loop join",
                        );
                    }
                    Err(e) => return Err(e),
                }
            }
            self.note_degradation(&format!(
                "hash-join build side of {} rows exceeds mem_budget; \
                 using block nested-loop join",
                right.len()
            ));
            let out = self.nested_loop_equi_join(
                &rows,
                layout,
                right,
                &right_layout,
                &left_keys,
                &right_keys,
                env,
            )?;
            self.stats.join_output_rows += out.len() as u64;
            self.note_join(
                next,
                JoinStrategy::NestedLoop,
                rows.len() as u64,
                right.len() as u64,
                out.len() as u64,
            );
            return Ok(out);
        }

        // Hash join: build on the right (the fresh quantifier), probe with
        // the accumulated rows. Large inputs are hash-partitioned across
        // the worker pool; one worker builds and probes each partition.
        self.checkpoint((rows.len() + right.len()) as u64)?;
        self.stats.hash_build_rows += right.len() as u64;
        self.stats.hash_probes += rows.len() as u64;
        let parallel = self.parallel_over(rows.len().max(right.len()));
        let out = self.hashed_join(
            &rows,
            layout,
            right,
            &right_layout,
            &left_keys,
            &right_keys,
            env,
            parallel,
        )?;
        self.check_mem(out.len(), "hash join")?;
        self.stats.join_output_rows += out.len() as u64;
        self.note_join(
            next,
            JoinStrategy::Hash,
            rows.len() as u64,
            right.len() as u64,
            out.len() as u64,
        );
        Ok(out)
    }

    /// Memory-degraded equi-join: extract the normalized keys of both sides
    /// (exactly as the hash join would), then compare them pairwise. Rows
    /// whose Eq key is NULL/NaN (`None`) match nothing, as in the hash
    /// paths; output order equals the hash join's (probe order, then
    /// build order), so degrading never changes the result bytes.
    #[allow(clippy::too_many_arguments)]
    fn nested_loop_equi_join(
        &mut self,
        rows: &[Row],
        layout: &Layout,
        right: &[Row],
        right_layout: &Layout,
        left_keys: &[(&Expr, bool)],
        right_keys: &[(&Expr, bool)],
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        let right_keyed = extract_join_keys(&self.pool, right, right_layout, right_keys, env)?;
        let left_keyed = extract_join_keys(&self.pool, rows, layout, left_keys, env)?;
        self.checkpoint((rows.len() * right.len()) as u64)?;
        self.stats.nl_comparisons += (rows.len() * right.len()) as u64;
        // Bulk-hash both key sets once: the u64 hashes drive a counting
        // pass that pre-sizes the output (hash equality over-counts only
        // on collisions, so the capacity is a tight upper bound) and then
        // prefilter the match loop, leaving the full key comparison for
        // hash-equal pairs only.
        let right_hashes = columnar::hash_keys(&right_keyed);
        let left_hashes = columnar::hash_keys(&left_keyed);
        let mut upper = 0usize;
        for lh in left_hashes.iter().flatten() {
            for rh in right_hashes.iter().flatten() {
                if lh == rh {
                    upper += 1;
                }
            }
        }
        let mut out = Vec::with_capacity(upper);
        for ((l, lk), lh) in rows.iter().zip(&left_keyed).zip(&left_hashes) {
            self.checkpoint(0)?;
            let Some(lk) = lk else { continue };
            for ((r, rk), rh) in right.iter().zip(&right_keyed).zip(&right_hashes) {
                if rh == lh && rk.as_ref() == Some(lk) {
                    out.push(l.concat(r));
                }
            }
            self.check_mem(out.len(), "nested-loop join")?;
        }
        Ok(out)
    }

    /// Grace hash join: the disk-backed path for a build side over the
    /// memory budget. Both sides extract their normalized keys (exactly as
    /// the in-memory hash join would), hash-partition into a [`SpillSet`],
    /// and each partition independently builds a budget-sized table and
    /// probes it. Equal keys always land in the same partition and each
    /// partition preserves its side's input order, so emitting matches in
    /// partition-build order and stable-sorting the output by original
    /// probe index reproduces [`Executor::hashed_join`]'s rows byte for
    /// byte.
    #[allow(clippy::too_many_arguments)]
    fn spilled_hash_join(
        &mut self,
        rows: &[Row],
        layout: &Layout,
        right: &[Row],
        right_layout: &Layout,
        left_keys: &[(&Expr, bool)],
        right_keys: &[(&Expr, bool)],
        env: Option<&Env<'_>>,
        spill: &SpillManager,
        parts: usize,
    ) -> Result<Vec<Row>> {
        let right_keyed = extract_join_keys(&self.pool, right, right_layout, right_keys, env)?;
        let left_keyed = extract_join_keys(&self.pool, rows, layout, left_keys, env)?;
        self.checkpoint((rows.len() + right.len()) as u64)?;
        self.stats.hash_build_rows += right.len() as u64;
        self.stats.hash_probes += rows.len() as u64;
        let key_arity = right_keys.len();

        // Spilled build row: key values, then the row. NULL/NaN keys match
        // nothing in the hash paths and are never spilled at all.
        let mut rset = spill.partition_set(parts)?;
        for (r, k) in right.iter().zip(&right_keyed) {
            let Some(k) = k else { continue };
            let mut srow = Row(Vec::with_capacity(key_arity + r.0.len()));
            srow.0.extend(k.iter().cloned());
            srow.0.extend(r.0.iter().cloned());
            rset.push(key_partition(k, parts), srow)?;
        }
        rset.finish()?;
        // Spilled probe row: original index (for the final order-restoring
        // sort), key values, then the row.
        let mut lset = spill.partition_set(parts)?;
        for (i, (l, k)) in rows.iter().zip(&left_keyed).enumerate() {
            let Some(k) = k else { continue };
            let mut srow = Row(Vec::with_capacity(1 + key_arity + l.0.len()));
            srow.0.push(Value::Int(i as i64));
            srow.0.extend(k.iter().cloned());
            srow.0.extend(l.0.iter().cloned());
            lset.push(key_partition(k, parts), srow)?;
        }
        lset.finish()?;

        let mut io = PageIo::default();
        let mut tagged: Vec<(i64, Row)> = Vec::new();
        for p in 0..parts {
            self.checkpoint(0)?;
            let build = rset.read_partition(p, &mut io)?;
            let mut table: FxHashMap<Vec<Value>, Vec<u32>> = FxHashMap::default();
            for (ri, r) in build.iter().enumerate() {
                table
                    .entry(r.0[..key_arity].to_vec())
                    .or_default()
                    .push(ri as u32);
            }
            for l in lset.read_partition(p, &mut io)? {
                let orig = match l.0[0] {
                    Value::Int(i) => i,
                    _ => return Err(Error::internal("spill: bad probe-row tag")),
                };
                if let Some(matches) = table.get(&l.0[1..1 + key_arity]) {
                    for &ri in matches {
                        let r = &build[ri as usize];
                        let mut out = Row(Vec::with_capacity(
                            l.0.len() - 1 - key_arity + r.0.len() - key_arity,
                        ));
                        out.0.extend(l.0[1 + key_arity..].iter().cloned());
                        out.0.extend(r.0[key_arity..].iter().cloned());
                        tagged.push((orig, out));
                    }
                }
            }
            self.check_mem(tagged.len(), "hash join")?;
        }
        self.note_io(io);
        tagged.sort_by_key(|&(i, _)| i);
        Ok(tagged.into_iter().map(|(_, r)| r).collect())
    }

    /// Bulk-hashed equi-join — every in-budget inner equi-join, serial or
    /// hash-partitioned across the pool. Each side's keys hash in bulk
    /// through the columnar hash kernels ([`vector::join_side`]: plain
    /// column keys never materialize a `Vec<Value>` at all); the build
    /// table maps `hash → right-row indices`, and collisions verify by
    /// comparing the keyed rows *in place* — no per-probe rehash, no owned
    /// map keys. Probing emits `(left, right)` index pairs, and the output
    /// is materialized in one pass pre-sized from the match count, in
    /// probe order (left row, then build order) at every pool width.
    #[allow(clippy::too_many_arguments)]
    fn hashed_join(
        &self,
        rows: &[Row],
        layout: &Layout,
        right: &[Row],
        right_layout: &Layout,
        left_keys: &[(&Expr, bool)],
        right_keys: &[(&Expr, bool)],
        env: Option<&Env<'_>>,
        parallel: bool,
    ) -> Result<Vec<Row>> {
        let rs = vector::join_side(&self.pool, right, right_layout, right_keys, env)?;
        let ls = vector::join_side(&self.pool, rows, layout, left_keys, env)?;
        let pairs: Vec<(u32, u32)> = if parallel {
            // Same hash → same partition on both sides, so each partition
            // joins independently.
            let parts = self.pool.threads();
            let bucket = |hashes: &[Option<u64>]| -> Vec<Vec<u32>> {
                let mut b: Vec<Vec<u32>> = vec![Vec::new(); parts];
                for (i, h) in hashes.iter().enumerate() {
                    if let Some(h) = h {
                        b[(mix64(*h) % parts as u64) as usize].push(i as u32);
                    }
                }
                b
            };
            let right_parts = bucket(&rs.hashes);
            let left_parts = bucket(&ls.hashes);
            let part_pairs: Vec<Vec<(u32, u32)>> = self.pool.run_indexed(parts, |p| {
                let mut table: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
                for &ri in &right_parts[p] {
                    if let Some(h) = rs.hashes[ri as usize] {
                        table.entry(h).or_default().push(ri);
                    }
                }
                let mut pairs = Vec::new();
                for &li in &left_parts[p] {
                    let Some(h) = ls.hashes[li as usize] else {
                        continue;
                    };
                    if let Some(cands) = table.get(&h) {
                        for &ri in cands {
                            if ls.key_eq(li as usize, &rs, ri as usize) {
                                pairs.push((li, ri));
                            }
                        }
                    }
                }
                pairs
            });
            // Stitch the per-partition pair lists back into global left-row
            // order: every left row lives in exactly one partition and its
            // matches are contiguous there, so a counting sort by left
            // index restores the serial probe order exactly (down to the
            // floating-point aggregation order downstream).
            let mut counts = vec![0u32; rows.len()];
            let mut total = 0usize;
            for pp in &part_pairs {
                total += pp.len();
                for &(li, _) in pp {
                    counts[li as usize] += 1;
                }
            }
            let mut cursor = Vec::with_capacity(rows.len());
            let mut acc = 0u32;
            for c in &counts {
                cursor.push(acc);
                acc += c;
            }
            let mut merged = vec![(0u32, 0u32); total];
            for pp in part_pairs {
                for (li, ri) in pp {
                    let slot = &mut cursor[li as usize];
                    merged[*slot as usize] = (li, ri);
                    *slot += 1;
                }
            }
            merged
        } else {
            let mut table: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
            for (ri, h) in rs.hashes.iter().enumerate() {
                if let Some(h) = h {
                    table.entry(*h).or_default().push(ri as u32);
                }
            }
            let mut pairs = Vec::new();
            for (li, h) in ls.hashes.iter().enumerate() {
                let Some(h) = h else { continue };
                if let Some(cands) = table.get(h) {
                    for &ri in cands {
                        if ls.key_eq(li, &rs, ri as usize) {
                            pairs.push((li as u32, ri));
                        }
                    }
                }
            }
            pairs
        };
        let mut out = Vec::with_capacity(pairs.len());
        for (li, ri) in pairs {
            out.push(rows[li as usize].concat(&right[ri as usize]));
        }
        Ok(out)
    }

    /// Join a *deferred* base table: drive it through an index
    /// (index nested loops) when an equality predicate binds an indexed
    /// column to the already-bound rows and the bound side is small;
    /// otherwise scan it now and fall back to the hash join.
    #[allow(clippy::too_many_arguments)]
    fn join_deferred(
        &mut self,
        qgm: &Qgm,
        next: QuantId,
        table: &str,
        rows: Vec<Row>,
        layout: &Layout,
        preds: &[Expr],
        applicable: &mut Vec<usize>,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        let t = self.db.table(table)?;
        // Find `Col(next, c) = <expr over bound rows>` with an index on c.
        let mut probe: Option<(usize, usize, Expr)> = None;
        'search: for &i in applicable.iter() {
            if let Expr::Binary { op: decorr_qgm::BinOp::Eq, left, right } = &preds[i] {
                for (a, b) in [(left, right), (right, left)] {
                    if let Expr::Col { quant, col } = a.as_ref() {
                        if *quant == next && !b.references(next) && t.index_on(&[*col]).is_some() {
                            probe = Some((i, *col, (**b).clone()));
                            break 'search;
                        }
                    }
                }
            }
        }
        let use_inl = probe.is_some() && rows.len() * 2 < t.len().max(1);
        if !use_inl {
            self.stats.rows_scanned += t.len() as u64;
            if t.is_paged() {
                let mut io = PageIo::default();
                let right = t.read_rows(&mut io)?.into_owned();
                self.note_io(io);
                return self.join_step(qgm, next, rows, layout, &right, preds, applicable, env);
            }
            return self.join_step(qgm, next, rows, layout, t.rows(), preds, applicable, env);
        }
        let (pi, col, keyexpr) = probe.expect("checked above");
        applicable.retain(|&i| i != pi);
        let idx = t.index_on(&[col]).expect("checked above");
        let mut out = Vec::new();
        for l in &rows {
            self.checkpoint(1)?;
            let env1 = Env::new(layout, l, env);
            let key = eval_expr(&keyexpr, &env1)?;
            // Eq-key normalization: NULL/NaN probe nothing, -0.0 = 0.0.
            let Some(key) = key.eq_key() else { continue };
            self.stats.index_lookups += 1;
            let positions = idx.lookup(std::slice::from_ref(&key));
            self.stats.index_rows += positions.len() as u64;
            for &p in positions {
                out.push(l.concat(&t.rows()[p]));
            }
        }
        self.stats.join_output_rows += out.len() as u64;
        self.note_join(
            next,
            JoinStrategy::IndexNestedLoop,
            rows.len() as u64,
            t.len() as u64,
            out.len() as u64,
        );
        Ok(out)
    }

    /// Lateral join: evaluate the child once per distinct correlation
    /// binding of the bound rows (once per bound row under the naive
    /// oracle).
    fn join_lateral(
        &mut self,
        qgm: &Qgm,
        next: QuantId,
        rows: Vec<Row>,
        layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        let child = qgm.quant(next).input;
        let mut out = Vec::new();
        if !self.opts.naive_ni {
            // Batched lateral: group the outer rows by correlation key so
            // each distinct binding executes the subquery once per batch,
            // then gather results back in the original row order.
            let sig = self.corr_sig(qgm, child);
            let mut slot_of: FxHashMap<MemoKey, usize> = FxHashMap::default();
            let mut slot_rows: Vec<Option<RowBatch>> = Vec::new();
            let mut assignment: Vec<Option<usize>> = Vec::with_capacity(rows.len());
            for l in &rows {
                self.checkpoint(1)?;
                let env2 = Env::new(layout, l, env);
                let Some(key) = sig.key_under(&env2) else {
                    assignment.push(None);
                    continue;
                };
                match slot_of.get(&key) {
                    Some(&s) => {
                        // Logical invocation, physically shared with the
                        // first row of the group.
                        self.count_subq_hit(child);
                        assignment.push(Some(s));
                    }
                    None => {
                        let sub = self.memoized_child(qgm, child, &env2, true)?;
                        let s = slot_rows.len();
                        slot_rows.push(Some(sub));
                        slot_of.insert(key, s);
                        assignment.push(Some(s));
                    }
                }
            }
            for (l, slot) in rows.iter().zip(assignment) {
                let sub = match &slot {
                    Some(s) => RowBatch::clone(slot_rows[*s].as_ref().expect("slot filled")),
                    None => {
                        // Unkeyable binding (an unbound free ref): evaluate
                        // this row on its own, as the per-row path would.
                        let env2 = Env::new(layout, l, env);
                        self.memoized_child(qgm, child, &env2, true)?
                    }
                };
                for r in sub.iter() {
                    out.push(l.concat(r));
                }
                self.check_mem(out.len(), "lateral join")?;
            }
        } else {
            for l in &rows {
                self.checkpoint(1)?;
                let env2 = Env::new(layout, l, env);
                let sub = self.memoized_child(qgm, child, &env2, true)?;
                for r in sub.iter() {
                    out.push(l.concat(r));
                }
                self.check_mem(out.len(), "lateral join")?;
            }
        }
        self.stats.join_output_rows += out.len() as u64;
        self.note_join(
            next,
            JoinStrategy::Lateral,
            rows.len() as u64,
            rows.len() as u64,
            out.len() as u64,
        );
        Ok(out)
    }

    /// Compute the rows of a subquery quantifier for the current candidate
    /// row through the correlation-key memo: repeated bindings hit instead
    /// of re-executing; boxes correlated only to outer blocks are served
    /// once per distinct outer binding for the whole run.
    fn subquery_rows(&mut self, qgm: &Qgm, sq: QuantId, env2: &Env<'_>) -> Result<RowBatch> {
        let child = qgm.quant(sq).input;
        // A subquery is a *logical* per-candidate-row invocation only if it
        // references quantifiers of the box being evaluated — i.e. anything
        // bound in the innermost frame.
        let correlated_here = self
            .corr_sig(qgm, child)
            .refs
            .iter()
            .any(|&(fq, _)| env2.layout.contains(fq));
        self.memoized_child(qgm, child, env2, correlated_here)
    }

    fn scalar_subquery_value(&mut self, qgm: &Qgm, sq: QuantId, env2: &Env<'_>) -> Result<Value> {
        let rows = self.subquery_rows(qgm, sq, env2)?;
        match rows.len() {
            0 => Ok(Value::Null),
            1 => Ok(rows[0][0].clone()),
            n => Err(Error::eval(format!("scalar subquery returned {n} rows"))),
        }
    }

    /// EarliestBinding: append the scalar subquery's value as an extra
    /// column of every row.
    fn append_scalar_column(
        &mut self,
        qgm: &Qgm,
        sq: QuantId,
        rows: Vec<Row>,
        layout: &Layout,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(rows.len());
        for mut r in rows {
            self.checkpoint(0)?;
            let v = {
                let env2 = Env::new(layout, &r, env);
                self.scalar_subquery_value(qgm, sq, &env2)?
            };
            r.0.push(v);
            out.push(r);
        }
        Ok(out)
    }

    // ---- Grouping boxes ---------------------------------------------------

    fn eval_grouping(&mut self, qgm: &Qgm, b: BoxId, env: Option<&Env<'_>>) -> Result<Vec<Row>> {
        let bx = qgm.boxref(b);
        let q = bx.quants[0];
        let child = qgm.quant(q).input;
        let input = self.eval_child(qgm, child, env)?;
        let mut layout = Layout::new();
        layout.push(q, qgm.output_arity(child));

        let BoxKind::Grouping { group_by } = &bx.kind else {
            unreachable!()
        };

        // Aggregate output positions and their calls.
        let mut agg_slots: Vec<AggSlot<'_>> = Vec::new();
        for (i, o) in bx.outputs.iter().enumerate() {
            if let Expr::Agg { func, arg, distinct } = &o.expr {
                agg_slots.push(AggSlot {
                    func: *func,
                    arg: arg.as_deref(),
                    distinct: *distinct,
                    out_pos: i,
                });
            }
        }

        self.checkpoint(input.len() as u64)?;
        self.stats.agg_input_rows += input.len() as u64;

        // Memory governance: a hash-aggregation table over this input
        // could exceed the budget (worst case, one group per row). With a
        // spill manager, partition the input by group-key hash to disk and
        // aggregate one budget-sized partition at a time — rows, float
        // accumulation order and first-appearance emission order are all
        // identical to the in-memory hash path. Without one, degrade to
        // sort-based grouping — the stable sort keeps each group's rows in
        // input order, so per-group accumulation (and floating-point sums)
        // matches the hash path exactly; only the emission order changes
        // (key-sorted instead of first-appearance).
        let over_budget = self.over_mem_budget(input.len());
        let spilling = if over_budget {
            self.opts.spill.clone()
        } else {
            None
        };
        let degraded = over_budget && spilling.is_none();
        if let Some(_mgr) = &spilling {
            let parts = self.spill_parts(input.len());
            self.note_spill(&format!(
                "grouping input of {} rows exceeds mem_budget; \
                 spilling {parts} hash partitions",
                input.len()
            ));
        } else if degraded {
            self.note_degradation(&format!(
                "grouping input of {} rows exceeds mem_budget; \
                 using sort-based aggregation",
                input.len()
            ));
        }

        // Grand totals (no GROUP BY) whose aggregates are plain-column
        // COUNT/SUM/MIN/MAX vectorize: each argument transposes into a
        // column and the aggregate kernels reproduce the serial fold
        // exactly (Double accumulation order and Int overflow included).
        let kernel_cols = if !over_budget && group_by.is_empty() {
            grand_total_cols(&agg_slots, &layout)
        } else {
            None
        };

        // One accumulator vector per group (one accumulator per agg slot),
        // in first-appearance order. Large inputs aggregate into
        // thread-local tables over contiguous slices, merged in slice
        // order — the merge replays distinct values in first-seen order,
        // so the result is the one the serial fold produces.
        let groups: Vec<(Vec<Value>, Vec<Acc>)> = if let Some(mgr) = &spilling {
            let parts = self.spill_parts(input.len());
            match self.spilled_groups(&input, &layout, env, group_by, &agg_slots, mgr, parts) {
                Ok(groups) => groups,
                // Fail-closed ENOSPC: the spill partitions cannot grow, so
                // degrade to the spill-free sort-based path (key-sorted
                // emission, identical per-group accumulation).
                Err(Error::StorageFull(_)) => {
                    self.note_degradation(
                        "spill device full (ENOSPC); falling back to \
                         sort-based aggregation",
                    );
                    sort_groups(&input, &layout, env, group_by, &agg_slots)?
                }
                Err(e) => return Err(e),
            }
        } else if degraded {
            sort_groups(&input, &layout, env, group_by, &agg_slots)?
        } else if let (Some(cols), false) = (&kernel_cols, input.is_empty()) {
            grand_total_groups(&input, &agg_slots, cols)?
        } else if self.parallel_over(input.len()) {
            let partials = self.pool.map_worker_slices(&input, |slice| {
                build_groups(slice, &layout, env, group_by, &agg_slots, true)
            });
            let mut merged: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();
            let mut index: FxHashMap<Vec<Value>, usize> = FxHashMap::default();
            for partial in partials {
                merge_groups(&mut merged, &mut index, partial?, &agg_slots)?;
            }
            merged
        } else {
            build_groups(&input, &layout, env, group_by, &agg_slots, false)?
        };
        let mut groups = groups;

        // A grand-total aggregate (no GROUP BY) over empty input still
        // produces one row — the asymmetry behind the COUNT bug.
        if groups.is_empty() && group_by.is_empty() {
            groups.push((Vec::new(), vec![Acc::new(); agg_slots.len()]));
        }

        self.stats.agg_groups += groups.len() as u64;
        self.check_mem(groups.len(), "grouping")?;

        let mut out = Vec::with_capacity(groups.len());
        for (_key, accs) in &groups {
            let rep = accs
                .iter()
                .find_map(|a| a.rep.clone())
                .unwrap_or_else(|| Row::nulls(layout.width()));
            let env1 = Env::new(&layout, &rep, env);
            let mut row = Row(Vec::with_capacity(bx.outputs.len()));
            for (i, o) in bx.outputs.iter().enumerate() {
                if let Some(si) = agg_slots.iter().position(|s| s.out_pos == i) {
                    let acc = &accs[si];
                    let slot = &agg_slots[si];
                    let v = if acc.count == 0 {
                        slot.func.empty_value()
                    } else {
                        match slot.func {
                            AggFunc::Count => Value::Int(acc.count),
                            AggFunc::Sum => acc.sum.clone(),
                            // AVG is always a double, even when the sum
                            // divides exactly (clients should not see the
                            // result type vary with the data).
                            AggFunc::Avg => Value::Double(acc.sum.as_double()? / acc.count as f64),
                            AggFunc::Min => acc.min.clone(),
                            AggFunc::Max => acc.max.clone(),
                        }
                    };
                    row.0.push(v);
                } else {
                    row.0.push(eval_expr(&o.expr, &env1)?);
                }
            }
            out.push(row);
        }
        Ok(out)
    }

    // ---- Union and OuterJoin ------------------------------------------------

    fn eval_union(
        &mut self,
        qgm: &Qgm,
        b: BoxId,
        all: bool,
        env: Option<&Env<'_>>,
    ) -> Result<Vec<Row>> {
        let bx = qgm.boxref(b);
        let mut out = Vec::new();
        for &q in &bx.quants {
            let child = qgm.quant(q).input;
            let rows = self.eval_child(qgm, child, env)?;
            self.checkpoint(rows.len() as u64)?;
            out.extend(rows.iter().cloned());
            self.check_mem(out.len(), "union")?;
        }
        if !all {
            out = dedup_rows(out);
        }
        Ok(out)
    }

    fn eval_outer_join(&mut self, qgm: &Qgm, b: BoxId, env: Option<&Env<'_>>) -> Result<Vec<Row>> {
        let bx = qgm.boxref(b);
        let (ql, qr) = (bx.quants[0], bx.quants[1]);
        let left = self.eval_child(qgm, qgm.quant(ql).input, env)?;
        let right = self.eval_child(qgm, qgm.quant(qr).input, env)?;
        let l_arity = qgm.output_arity(qgm.quant(ql).input);
        let r_arity = qgm.output_arity(qgm.quant(qr).input);

        let mut layout = Layout::new();
        layout.push(ql, l_arity);
        layout.push(qr, r_arity);
        let mut l_layout = Layout::new();
        l_layout.push(ql, l_arity);
        let mut r_layout = Layout::new();
        r_layout.push(qr, r_arity);

        self.checkpoint((left.len() + right.len()) as u64)?;

        // Memory governance: the hash table materializes the whole right
        // side, so when it exceeds the budget treat every ON predicate as
        // residual — the keyless path below scans `all_right` per left row
        // (a block nested-loop outer join) with identical match semantics.
        let degraded = self.over_mem_budget(right.len());
        if degraded {
            self.note_degradation(&format!(
                "outer-join build side of {} rows exceeds mem_budget; \
                 using nested-loop outer join",
                right.len()
            ));
        }

        // Split ON predicates into hash keys and residuals. NullEq keys
        // (the BugRemoval join with the magic table) match NULL bindings.
        let mut l_keys: Vec<(&Expr, bool)> = Vec::new();
        let mut r_keys: Vec<(&Expr, bool)> = Vec::new();
        let mut residual: Vec<&Expr> = Vec::new();
        for p in &bx.preds {
            if degraded {
                residual.push(p);
                continue;
            }
            let mut is_key = false;
            if let Expr::Binary {
                op: op @ (decorr_qgm::BinOp::Eq | decorr_qgm::BinOp::NullEq),
                left: a,
                right: c,
            } = p
            {
                let null_ok = *op == decorr_qgm::BinOp::NullEq;
                let aq = a.referenced_quants();
                let cq = c.referenced_quants();
                if aq.iter().all(|x| *x != qr)
                    && cq.iter().all(|x| *x != ql)
                    && aq.contains(&ql)
                    && cq.contains(&qr)
                {
                    l_keys.push((&**a, null_ok));
                    r_keys.push((&**c, null_ok));
                    is_key = true;
                } else if aq.iter().all(|x| *x != ql)
                    && cq.iter().all(|x| *x != qr)
                    && aq.contains(&qr)
                    && cq.contains(&ql)
                {
                    l_keys.push((&**c, null_ok));
                    r_keys.push((&**a, null_ok));
                    is_key = true;
                }
            }
            if !is_key {
                residual.push(p);
            }
        }

        // Build hash table over the null-producing (right) side (skipped
        // under degradation — the keyless probe path never consults it).
        let mut table: FxHashMap<Vec<Value>, Vec<&Row>> = FxHashMap::default();
        if degraded {
            self.stats.nl_comparisons += (left.len() * right.len()) as u64;
        } else {
            self.stats.hash_build_rows += right.len() as u64;
        }
        if !degraded {
            'build: for r in right.iter() {
                let env1 = Env::new(&r_layout, r, env);
                let mut key = Vec::with_capacity(r_keys.len());
                for (k, null_ok) in &r_keys {
                    let v = eval_expr(k, &env1)?;
                    if *null_ok {
                        // NullEq keys keep total_cmp (= Eq/Hash) semantics.
                        key.push(v);
                    } else {
                        // Eq keys: NULL/NaN never match; -0.0 folds into 0.0.
                        match v.eq_key() {
                            Some(v) => key.push(v),
                            None => continue 'build,
                        }
                    }
                }
                table.entry(key).or_default().push(r);
            }
        }
        let all_right: Vec<&Row> = right.iter().collect();

        let nulls = Row::nulls(r_arity);
        if !degraded {
            self.stats.hash_probes += left.len() as u64;
        }

        // The probe is a pure per-left-row map (the build table is only
        // read), so the same closure serves the serial path and the
        // morsel-parallel one.
        let outputs = &bx.outputs;
        let opts = &self.opts;
        let probe = |chunk: &[Row]| -> Result<(Vec<Row>, u64)> {
            let mut out = Vec::new();
            let mut evals = 0u64;
            // The combined (left ++ right) row only feeds predicate and
            // projection evaluation — it is never stored — so one scratch
            // buffer per worker absorbs what used to be an allocation per
            // candidate pair.
            let mut combined = Row::empty();
            for (li, l) in chunk.iter().enumerate() {
                if li % MORSEL_ROWS == 0 {
                    governor_check(opts, 0)?;
                }
                let env1 = Env::new(&l_layout, l, env);
                let mut key = Vec::with_capacity(l_keys.len());
                let mut null_key = false;
                for (k, null_ok) in &l_keys {
                    let v = eval_expr(k, &env1)?;
                    if *null_ok {
                        key.push(v);
                    } else {
                        match v.eq_key() {
                            Some(v) => key.push(v),
                            None => {
                                null_key = true;
                                break;
                            }
                        }
                    }
                }
                // Candidates: hash matches, or (keyless ON) every right
                // row; a NULL key matches nothing.
                let candidate_rows: &[&Row] = if l_keys.is_empty() {
                    &all_right
                } else if null_key {
                    &[]
                } else {
                    table.get(&key).map(|v| v.as_slice()).unwrap_or_default()
                };

                let mut matched = false;
                for r in candidate_rows {
                    l.concat_into(r, &mut combined);
                    let env2 = Env::new(&layout, &combined, env);
                    let mut ok = true;
                    for p in &residual {
                        evals += 1;
                        if !qualifies(p, &env2)? {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        matched = true;
                        let mut row = Row(Vec::with_capacity(outputs.len()));
                        for o in outputs {
                            row.0.push(eval_expr(&o.expr, &env2)?);
                        }
                        out.push(row);
                    }
                }
                if !matched {
                    // Null-extended left row.
                    l.concat_into(&nulls, &mut combined);
                    let env2 = Env::new(&layout, &combined, env);
                    let mut row = Row(Vec::with_capacity(outputs.len()));
                    for o in outputs {
                        row.0.push(eval_expr(&o.expr, &env2)?);
                    }
                    out.push(row);
                }
            }
            Ok((out, evals))
        };

        let (out, evals) = if self.parallel_over(left.len()) {
            let chunks: Vec<Result<(Vec<Row>, u64)>> =
                self.pool.map_morsels(&left, MORSEL_ROWS, probe);
            let mut out = Vec::new();
            let mut evals = 0u64;
            for c in chunks {
                let (o, e) = c?;
                out.extend(o);
                evals += e;
            }
            (out, evals)
        } else {
            probe(&left)?
        };
        self.check_mem(out.len(), "outer join")?;
        self.note_preds(evals);
        self.stats.join_output_rows += out.len() as u64;
        Ok(out)
    }
}

/// Is `q` a reference that belongs to the box currently being joined (i.e.
/// is it the incoming quantifier)? Helper for key classification: outer
/// (correlated) references are constants during a join step and may appear
/// on either side of an equi-join key.
fn is_local_ref(_qgm: &Qgm, q: QuantId, next: QuantId) -> bool {
    q == next
}

// ---- grouping support ------------------------------------------------------

/// One aggregate call in a Grouping box's output list.
struct AggSlot<'e> {
    func: AggFunc,
    arg: Option<&'e Expr>,
    distinct: bool,
    out_pos: usize,
}

/// One aggregated group: its key values plus one accumulator per slot.
type Group = (Vec<Value>, Vec<Acc>);

/// Accumulator state for one aggregate over one group.
#[derive(Clone)]
struct Acc {
    count: i64,
    sum: Value,
    min: Value,
    max: Value,
    distinct: FxHashSet<Value>,
    /// Distinct values in first-seen order. Parallel merges replay a later
    /// slice's values through [`acc_update`] in this order, reproducing the
    /// exact accumulation sequence of a serial scan (sum order included).
    distinct_order: Vec<Value>,
    /// Non-distinct SUM/AVG inputs in arrival order, recorded only by
    /// parallel slice workers. Floating-point addition is not associative,
    /// so merging partial sums would produce a (slightly) different Double
    /// than the serial fold; the merge replays these values instead.
    sum_order: Vec<Value>,
    rep: Option<Row>, // representative row for group-column outputs
}

impl Acc {
    fn new() -> Self {
        Acc {
            count: 0,
            sum: Value::Null,
            min: Value::Null,
            max: Value::Null,
            distinct: FxHashSet::default(),
            distinct_order: Vec::new(),
            sum_order: Vec::new(),
            rep: None,
        }
    }
}

/// Fold a (non-NULL, distinct-deduplicated upstream of the DISTINCT check
/// here) value into an accumulator.
fn acc_update(slot: &AggSlot<'_>, acc: &mut Acc, v: Value) -> Result<()> {
    if slot.distinct {
        if !acc.distinct.insert(v.clone()) {
            return Ok(());
        }
        acc.distinct_order.push(v.clone());
    }
    acc.count += 1;
    match slot.func {
        AggFunc::Count => {}
        AggFunc::Sum | AggFunc::Avg => {
            acc.sum = if acc.sum.is_null() {
                v.clone()
            } else {
                acc.sum.add(&v)?
            };
        }
        AggFunc::Min | AggFunc::Max => {
            if acc.min.is_null() || v < acc.min {
                acc.min = v.clone();
            }
            if acc.max.is_null() || v > acc.max {
                acc.max = v;
            }
        }
    }
    Ok(())
}

/// Per-slot kernel argument offsets for a vectorizable grand total:
/// `None` inside the vec means `COUNT(*)`. `None` overall when any slot
/// needs the per-row fold (DISTINCT, computed or unbound arguments).
fn grand_total_cols(slots: &[AggSlot<'_>], layout: &Layout) -> Option<Vec<Option<usize>>> {
    slots
        .iter()
        .map(|s| {
            if s.distinct {
                return None;
            }
            match s.arg {
                None => Some(None),
                Some(Expr::Col { quant, col }) => {
                    layout.offset_of(*quant).map(|off| Some(off + col))
                }
                Some(_) => None,
            }
        })
        .collect()
}

/// Vectorized grand-total aggregation: one accumulator per slot, computed
/// by the columnar COUNT/SUM/MIN/MAX kernels over a transposed argument
/// column instead of a per-row fold. The representative row (for group
/// column outputs) is the first input row, exactly as the serial fold
/// sets it.
fn grand_total_groups(
    input: &[Row],
    slots: &[AggSlot<'_>],
    cols: &[Option<usize>],
) -> Result<Vec<(Vec<Value>, Vec<Acc>)>> {
    let rep = Some(input[0].clone());
    let mut accs = Vec::with_capacity(slots.len());
    for (slot, col) in slots.iter().zip(cols) {
        let mut acc = Acc::new();
        acc.rep = rep.clone();
        match col {
            None => acc.count = input.len() as i64, // COUNT(*): every row counts
            Some(off) => {
                let c = columnar::Column::from_values(input.iter().map(|r| &r[*off]), input.len());
                acc.count = columnar::count_kernel(&c);
                match slot.func {
                    AggFunc::Count => {}
                    AggFunc::Sum | AggFunc::Avg => acc.sum = columnar::sum_kernel(&c)?,
                    AggFunc::Min | AggFunc::Max => {
                        acc.min = columnar::min_kernel(&c);
                        acc.max = columnar::max_kernel(&c);
                    }
                }
            }
        }
        accs.push(acc);
    }
    Ok(vec![(Vec::new(), accs)])
}

/// Hash-aggregate `rows` into per-group accumulators, groups in
/// first-appearance order. Runs serially over the whole input, or as one
/// worker's thread-local aggregation over a contiguous slice.
fn build_groups(
    rows: &[Row],
    layout: &Layout,
    env: Option<&Env<'_>>,
    group_by: &[Expr],
    slots: &[AggSlot<'_>],
    record_sum_order: bool,
) -> Result<Vec<(Vec<Value>, Vec<Acc>)>> {
    let mut groups: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();
    let mut index: FxHashMap<Vec<Value>, usize> = FxHashMap::default();
    for r in rows {
        let env1 = Env::new(layout, r, env);
        let mut key = Vec::with_capacity(group_by.len());
        for g in group_by {
            key.push(eval_expr(g, &env1)?);
        }
        let gi = match index.get(&key) {
            Some(&i) => i,
            None => {
                let i = groups.len();
                index.insert(key.clone(), i);
                groups.push((key, vec![Acc::new(); slots.len()]));
                i
            }
        };
        fold_row(slots, &mut groups[gi].1, r, &env1, record_sum_order)?;
    }
    Ok(groups)
}

/// Fold one input row into a group's accumulators — the per-row body shared
/// by hash aggregation ([`build_groups`]) and sort-based aggregation
/// ([`sort_groups`]).
fn fold_row(
    slots: &[AggSlot<'_>],
    accs: &mut [Acc],
    r: &Row,
    env1: &Env<'_>,
    record_sum_order: bool,
) -> Result<()> {
    for (slot, acc) in slots.iter().zip(accs.iter_mut()) {
        if acc.rep.is_none() {
            acc.rep = Some(r.clone());
        }
        let v = match slot.arg {
            None => Value::Int(1), // COUNT(*): every row counts
            Some(a) => eval_expr(a, env1)?,
        };
        if slot.arg.is_some() && v.is_null() {
            continue; // NULLs are ignored by all aggregates
        }
        if record_sum_order && !slot.distinct && matches!(slot.func, AggFunc::Sum | AggFunc::Avg) {
            acc.sum_order.push(v.clone());
        }
        acc_update(slot, acc, v)?;
    }
    Ok(())
}

impl Executor<'_> {
    /// Partitioned (spilled) hash aggregation: the disk-backed path for a
    /// grouping input over the memory budget. Rows partition to disk by
    /// group-key hash tagged with their original index; each partition —
    /// which holds *every* row of each of its groups, in input order —
    /// then hash-aggregates exactly like the in-memory path, and groups
    /// are stable-sorted by the index of their first row to restore the
    /// global first-appearance emission order.
    #[allow(clippy::too_many_arguments)]
    fn spilled_groups(
        &mut self,
        input: &[Row],
        layout: &Layout,
        env: Option<&Env<'_>>,
        group_by: &[Expr],
        slots: &[AggSlot<'_>],
        spill: &SpillManager,
        parts: usize,
    ) -> Result<Vec<(Vec<Value>, Vec<Acc>)>> {
        let mut set = spill.partition_set(parts)?;
        for (i, r) in input.iter().enumerate() {
            let env1 = Env::new(layout, r, env);
            let mut key = Vec::with_capacity(group_by.len());
            for g in group_by {
                key.push(eval_expr(g, &env1)?);
            }
            let mut srow = Row(Vec::with_capacity(1 + r.0.len()));
            srow.0.push(Value::Int(i as i64));
            srow.0.extend(r.0.iter().cloned());
            set.push(key_partition(&key, parts), srow)?;
        }
        set.finish()?;

        let mut io = PageIo::default();
        let mut tagged: Vec<(i64, Group)> = Vec::new();
        for p in 0..parts {
            self.checkpoint(0)?;
            let spilled = set.read_partition(p, &mut io)?;
            let mut origs = Vec::with_capacity(spilled.len());
            let mut rows = Vec::with_capacity(spilled.len());
            for mut sr in spilled {
                let Value::Int(i) = sr.0.remove(0) else {
                    return Err(Error::internal("spill: bad group-row tag"));
                };
                origs.push(i);
                rows.push(sr);
            }
            let groups = build_groups(&rows, layout, env, group_by, slots, false)?;
            // The j-th group's first row is the j-th first appearance of a
            // distinct key — recover its original index for the global sort.
            let mut firsts = Vec::with_capacity(groups.len());
            let mut seen: FxHashSet<Vec<Value>> = FxHashSet::default();
            for (r, &orig) in rows.iter().zip(&origs) {
                let env1 = Env::new(layout, r, env);
                let mut key = Vec::with_capacity(group_by.len());
                for g in group_by {
                    key.push(eval_expr(g, &env1)?);
                }
                if seen.insert(key) {
                    firsts.push(orig);
                }
            }
            debug_assert_eq!(firsts.len(), groups.len());
            tagged.extend(firsts.into_iter().zip(groups));
        }
        self.note_io(io);
        tagged.sort_by_key(|&(i, _)| i);
        Ok(tagged.into_iter().map(|(_, g)| g).collect())
    }
}

/// Sort-based aggregation: the memory-budget fallback for [`build_groups`].
/// Rows are stable-sorted by group key and each run is folded in input
/// order, so every accumulator (floating-point sums included) is exactly
/// what the hash path computes for that group; only the group *emission*
/// order differs (key-sorted instead of first-appearance). Peak state is the
/// sorted key/index vector plus one group's accumulators.
fn sort_groups(
    rows: &[Row],
    layout: &Layout,
    env: Option<&Env<'_>>,
    group_by: &[Expr],
    slots: &[AggSlot<'_>],
) -> Result<Vec<(Vec<Value>, Vec<Acc>)>> {
    let mut keyed: Vec<(Vec<Value>, usize)> = Vec::with_capacity(rows.len());
    for (i, r) in rows.iter().enumerate() {
        let env1 = Env::new(layout, r, env);
        let mut key = Vec::with_capacity(group_by.len());
        for g in group_by {
            key.push(eval_expr(g, &env1)?);
        }
        keyed.push((key, i));
    }
    // Stable: rows with equal keys stay in input order.
    keyed.sort_by(|a, b| a.0.cmp(&b.0));

    let mut groups: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();
    let mut run = 0;
    while run < keyed.len() {
        let key = &keyed[run].0;
        let mut end = run + 1;
        while end < keyed.len() && keyed[end].0 == *key {
            end += 1;
        }
        let mut accs = vec![Acc::new(); slots.len()];
        for (_, ri) in &keyed[run..end] {
            let r = &rows[*ri];
            let env1 = Env::new(layout, r, env);
            fold_row(slots, &mut accs, r, &env1, false)?;
        }
        groups.push((key.clone(), accs));
        run = end;
    }
    Ok(groups)
}

/// Merge a later slice's groups into the accumulated result, preserving
/// first-appearance order across slices (slices are merged in input
/// order, so this is the serial appearance order).
fn merge_groups(
    into: &mut Vec<(Vec<Value>, Vec<Acc>)>,
    index: &mut FxHashMap<Vec<Value>, usize>,
    from: Vec<(Vec<Value>, Vec<Acc>)>,
    slots: &[AggSlot<'_>],
) -> Result<()> {
    for (key, accs) in from {
        match index.get(&key) {
            Some(&gi) => {
                for ((slot, into_acc), from_acc) in
                    slots.iter().zip(into[gi].1.iter_mut()).zip(accs)
                {
                    merge_acc(slot, into_acc, from_acc)?;
                }
            }
            None => {
                index.insert(key.clone(), into.len());
                into.push((key, accs));
            }
        }
    }
    Ok(())
}

/// Combine two accumulators for the same (group, aggregate) pair. `into`
/// comes from an earlier input slice than `from`.
fn merge_acc(slot: &AggSlot<'_>, into: &mut Acc, from: Acc) -> Result<()> {
    if into.rep.is_none() {
        into.rep = from.rep;
    }
    if slot.distinct {
        // Partial DISTINCT sets may overlap; replay the later slice's
        // values (first-seen order) through the serial update, which
        // dedups against the earlier slice's set.
        for v in from.distinct_order {
            acc_update(slot, into, v)?;
        }
        return Ok(());
    }
    match slot.func {
        AggFunc::Count => into.count += from.count,
        AggFunc::Sum | AggFunc::Avg => {
            // Adding `from.sum` here would re-associate floating-point
            // addition (slice totals instead of the serial left-to-right
            // fold) and shift Double sums by an ulp or two. Replay the
            // later slice's inputs in arrival order instead; this also
            // advances `into.count`, once per value, exactly as the
            // serial scan did.
            for v in from.sum_order {
                acc_update(slot, into, v)?;
            }
        }
        AggFunc::Min | AggFunc::Max => {
            into.count += from.count;
            if !from.min.is_null() && (into.min.is_null() || from.min < into.min) {
                into.min = from.min;
            }
            if !from.max.is_null() && (into.max.is_null() || from.max > into.max) {
                into.max = from.max;
            }
        }
    }
    Ok(())
}

// ---- hash-join support -----------------------------------------------------

/// Extract normalized join keys for every row, morsel-parallel. `None`
/// marks a row whose Eq key is NULL/NaN (it can never match); Eq key parts
/// are `eq_key`-normalized (`-0.0` folds into `0.0`), while NullEq (`IS NOT
/// DISTINCT FROM`) parts are kept raw, matching under total-order
/// equality.
pub(crate) fn extract_join_keys(
    pool: &WorkerPool,
    rows: &[Row],
    layout: &Layout,
    keys: &[(&Expr, bool)],
    env: Option<&Env<'_>>,
) -> Result<Vec<Option<Vec<Value>>>> {
    let chunks: Vec<Result<Vec<Option<Vec<Value>>>>> =
        pool.map_morsels(rows, MORSEL_ROWS, |chunk| {
            let mut out = Vec::with_capacity(chunk.len());
            'rows: for r in chunk {
                let env1 = Env::new(layout, r, env);
                let mut key = Vec::with_capacity(keys.len());
                for (k, null_ok) in keys {
                    let v = eval_expr(k, &env1)?;
                    if *null_ok {
                        key.push(v);
                    } else {
                        match v.eq_key() {
                            Some(v) => key.push(v),
                            None => {
                                out.push(None);
                                continue 'rows;
                            }
                        }
                    }
                }
                out.push(Some(key));
            }
            Ok(out)
        });
    let mut all = Vec::with_capacity(rows.len());
    for c in chunks {
        all.extend(c?);
    }
    Ok(all)
}

/// The zone-map comparison for a predicate operator, when it has one.
fn zone_cmp_op(op: decorr_qgm::BinOp) -> Option<CmpOp> {
    use decorr_qgm::BinOp;
    Some(match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::NullEq => CmpOp::NullEq,
        BinOp::Ne => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        _ => return None,
    })
}

/// Mirror a comparison whose column sat on the right (`lit op col`).
fn flip_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::NullEq | CmpOp::Ne => op,
    }
}

/// Which of `parts` partitions does a join key belong to? The Fx hash is
/// run through a murmur finalizer so small-integer keys spread across
/// partitions instead of collapsing onto the low buckets.
fn key_partition(key: &[Value], parts: usize) -> usize {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    (mix64(h.finish()) % parts as u64) as usize
}

/// Order-preserving duplicate elimination (DISTINCT, UNION, the magic
/// table's binding set). Rows are bulk-hashed with total-order semantics
/// (the same equivalence as `Row`'s `Eq`) and a row compares against
/// earlier *kept* rows only on a hash collision — no row is ever cloned
/// into a side set.
fn dedup_rows(rows: Vec<Row>) -> Vec<Row> {
    if rows.len() <= 1 {
        return rows;
    }
    let hashes = columnar::hash_rows(&rows);
    let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    let mut keep = vec![false; rows.len()];
    for (i, h) in hashes.iter().enumerate() {
        let kept = buckets.entry(*h).or_default();
        if kept.iter().any(|&j| rows[j as usize] == rows[i]) {
            continue;
        }
        kept.push(i as u32);
        keep[i] = true;
    }
    let mut out = Vec::with_capacity(buckets.values().map(Vec::len).sum());
    for (r, keep) in rows.into_iter().zip(keep) {
        if keep {
            out.push(r);
        }
    }
    out
}

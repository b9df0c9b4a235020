//! Differential property suite for batched + memoized nested iteration.
//!
//! Naive NI (`ExecOptions::naive_ni()`) is the oracle: the default
//! executor (correlation-key memo, batched lateral joins, correlation
//! probe) must return byte-identical rows in the identical order on a
//! generated family of correlated aggregate queries over databases with
//! NULL-heavy correlation bindings, mixed Int/Double keys with signed
//! zeros and NaN, empty outer sides, and DISTINCT aggregates — under
//! threads {1, 4} × {kernel spelling, scalar spelling}. The scalar
//! spelling adds `+ 0` to every outer-side comparison operand
//! (`D.num_emps + 0 < …`, `E.building = D.building + 0`), so no filter
//! compiles to a kernel while the plan stays the same. The memo counters
//! must satisfy `distinct + hits == invocations` with
//! `distinct ≤ invocations`, and the logical invocation count must match
//! the naive lane exactly.

use decorr_common::{DataType, ExecStats, Row, Schema, Value};
use decorr_exec::{execute_with, ExecOptions};
use decorr_sql::parse_and_bind;
use decorr_storage::Database;
use proptest::prelude::*;

/// One generated world: departments carry the outer correlation bindings,
/// employees the inner column the subquery aggregates.
#[derive(Debug, Clone)]
struct World {
    /// (num_emps, building): building is the correlation key. `None` is
    /// NULL; `Some(k)` maps through [`dept_building`].
    depts: Vec<(i64, Option<i64>)>,
    emps: Vec<Option<i64>>,
    /// Store buildings as Doubles (with `0 → -0.0` on the emp side and
    /// `3 → NaN` on the dept side) instead of Ints.
    mixed: bool,
}

fn world(null_weight: f64, max_depts: usize) -> impl Strategy<Value = World> {
    let dept = (0i64..6, prop::option::weighted(1.0 - null_weight, 0i64..4));
    let emp = prop::option::weighted(1.0 - null_weight, 0i64..4);
    (
        prop::collection::vec(dept, 0..max_depts),
        prop::collection::vec(emp, 0..40),
        any::<bool>(),
    )
        .prop_map(|(depts, emps, mixed)| World { depts, emps, mixed })
}

fn dept_building(w: &World, b: Option<i64>) -> Value {
    match b {
        None => Value::Null,
        // NaN binding: SQL-compares to nothing, exactly like NULL — the
        // memo may fold the two classes only under comparison contexts.
        Some(3) if w.mixed => Value::Double(f64::NAN),
        Some(b) if w.mixed => Value::Double(b as f64),
        Some(b) => Value::Int(b),
    }
}

fn emp_building(w: &World, b: Option<i64>) -> Value {
    match b {
        None => Value::Null,
        // Signed zero: equal to 0.0 under SQL `=`, distinct under the
        // total order.
        Some(0) if w.mixed => Value::Double(-0.0),
        Some(b) if w.mixed => Value::Double(b as f64),
        Some(b) => Value::Int(b),
    }
}

fn build_db(w: &World) -> Database {
    let bty = if w.mixed {
        DataType::Double
    } else {
        DataType::Int
    };
    let mut db = Database::new();
    let d = db
        .create_table(
            "dept",
            Schema::from_pairs(&[
                ("name", DataType::Str),
                ("num_emps", DataType::Int),
                ("building", bty),
            ]),
        )
        .unwrap();
    for (i, (num_emps, b)) in w.depts.iter().enumerate() {
        d.insert(Row::new(vec![
            Value::str(format!("d{i}")),
            Value::Int(*num_emps),
            dept_building(w, *b),
        ]))
        .unwrap();
    }
    let e = db
        .create_table(
            "emp",
            Schema::from_pairs(&[("name", DataType::Str), ("building", bty)]),
        )
        .unwrap();
    for (i, b) in w.emps.iter().enumerate() {
        e.insert(Row::new(vec![
            Value::str(format!("e{i}")),
            emp_building(w, *b),
        ]))
        .unwrap();
    }
    db
}

const AGGS: [&str; 6] = [
    "COUNT(*)",
    "COUNT(E.building)",
    "COUNT(DISTINCT E.building)",
    "SUM(DISTINCT E.building)",
    "MIN(E.building)",
    "MAX(E.building)",
];
const CMPS: [&str; 4] = ["<", ">=", "=", "<>"];

/// The query in the kernel spelling (`z = ""`) or the scalar spelling
/// (`z = " + 0"`).
fn spelled(agg: &str, cmp: &str, z: &str) -> String {
    format!(
        "SELECT D.name FROM dept D WHERE D.num_emps{z} {cmp} \
         (SELECT {agg} FROM emp E WHERE E.building = D.building{z})"
    )
}

fn query(agg: &str, cmp: &str) -> String {
    spelled(agg, cmp, "")
}

fn opts(threads: usize) -> ExecOptions {
    ExecOptions { threads, ..ExecOptions::default() }
}

/// Run `sql` under nested iteration (the bound QGM executes as-is) and
/// return rows in execution order — order is part of the contract.
fn run(db: &Database, sql: &str, o: ExecOptions) -> (Vec<Row>, ExecStats) {
    let qgm = parse_and_bind(sql, db).unwrap();
    execute_with(db, &qgm, o).unwrap()
}

fn check_counters(naive: &ExecStats, memo: &ExecStats, sql: &str) {
    // Memoization never changes the logical invocation count ...
    assert_eq!(
        memo.subquery_invocations, naive.subquery_invocations,
        "logical invocations diverged on {sql}"
    );
    // ... and the naive lane executes every one of them.
    assert_eq!(
        naive.subquery_distinct_invocations,
        naive.subquery_invocations
    );
    assert_eq!(naive.subquery_memo_hits, 0);
    assert!(memo.subquery_distinct_invocations <= memo.subquery_invocations);
    assert_eq!(
        memo.subquery_invocations,
        memo.subquery_distinct_invocations + memo.subquery_memo_hits,
        "counter invariant broke on {sql}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

    /// The general family: random worlds (including empty outer sides),
    /// every aggregate × comparison, both lanes, both thread counts, both
    /// spellings.
    #[test]
    fn batched_matches_naive(
        w in world(0.2, 20),
        agg_i in 0usize..AGGS.len(),
        cmp_i in 0usize..CMPS.len(),
    ) {
        let db = build_db(&w);
        let (agg, cmp) = (AGGS[agg_i], CMPS[cmp_i]);
        let (oracle, naive_stats) = run(&db, &query(agg, cmp), opts(1).naive_ni());
        for threads in [1usize, 4] {
            for z in ["", " + 0"] {
                let sql = spelled(agg, cmp, z);
                let o = opts(threads);
                let (naive, ns) = run(&db, &sql, o.clone().naive_ni());
                prop_assert_eq!(&naive, &oracle, "naive diverged: t={} {}", threads, &sql);
                prop_assert_eq!(ns.subquery_invocations, naive_stats.subquery_invocations);

                let (batched, bs) = run(&db, &sql, o);
                prop_assert_eq!(&batched, &oracle, "batched diverged: t={} {}", threads, &sql);
                check_counters(&naive_stats, &bs, &sql);
            }
        }
    }

    /// NULL-heavy regime: most correlation bindings are NULL, so the memo
    /// key is dominated by one class and almost everything after the first
    /// NULL binding is a hit.
    #[test]
    fn null_heavy_bindings_hit_the_memo(
        w in world(0.6, 15),
        agg_i in 0usize..AGGS.len(),
    ) {
        let db = build_db(&w);
        let sql = query(AGGS[agg_i], "<");
        let (oracle, naive_stats) = run(&db, &sql, opts(1).naive_ni());
        let (memo, ms) = run(&db, &sql, opts(1));
        prop_assert_eq!(&memo, &oracle, "diverged on {}", &sql);
        check_counters(&naive_stats, &ms, &sql);
        // More outer rows than distinct bindings (4 buildings + NULL class)
        // forces at least one hit.
        if naive_stats.subquery_invocations > 5 {
            prop_assert!(
                ms.subquery_memo_hits > 0,
                "expected hits: {} invocations, {} distinct",
                ms.subquery_invocations,
                ms.subquery_distinct_invocations
            );
        }
    }

    /// A binding observed outside a comparison (COALESCE) must disable the
    /// NULL~NaN folding but still memoize correctly under raw keys.
    #[test]
    fn non_comparison_context_keys_stay_exact(
        w in world(0.4, 15),
        cmp_i in 0usize..CMPS.len(),
    ) {
        let db = build_db(&w);
        let sql = format!(
            "SELECT D.name FROM dept D WHERE D.num_emps {} \
             (SELECT COUNT(*) FROM emp E WHERE COALESCE(E.building, D.building) = 1)",
            CMPS[cmp_i]
        );
        let (oracle, naive_stats) = run(&db, &sql, opts(1).naive_ni());
        let (memo, ms) = run(&db, &sql, opts(1));
        prop_assert_eq!(&memo, &oracle, "diverged on {}", &sql);
        check_counters(&naive_stats, &ms, &sql);
    }
}

/// Deterministic witness for the figure-level claim: with repeated
/// bindings, distinct < invocations, and memo rows are byte-identical.
#[test]
fn repeated_bindings_memoize() {
    let w = World {
        depts: (0..12).map(|i| (i % 4, Some(i % 2))).collect(),
        emps: (0..20).map(|i| Some(i % 3)).collect(),
        mixed: false,
    };
    let db = build_db(&w);
    let sql = query("COUNT(*)", "<");
    let (oracle, ns) = run(&db, &sql, opts(1).naive_ni());
    let (memo, ms) = run(&db, &sql, opts(1));
    assert_eq!(memo, oracle);
    assert_eq!(ns.subquery_invocations, 12);
    assert_eq!(ms.subquery_invocations, 12);
    // Two distinct buildings → two executions, ten hits.
    assert_eq!(ms.subquery_distinct_invocations, 2);
    assert_eq!(ms.subquery_memo_hits, 10);
}

/// An exhausted memory budget falls back to unmemoized execution instead
/// of failing: same rows, fewer (or zero) hits.
#[test]
fn memo_budget_exhaustion_degrades_gracefully() {
    let w = World {
        depts: (0..12).map(|i| (i % 4, Some(i % 3))).collect(),
        emps: (0..30).map(|i| Some(i % 3)).collect(),
        mixed: false,
    };
    let db = build_db(&w);
    let sql = query("COUNT(*)", "<");
    let (oracle, _) = run(&db, &sql, opts(1).naive_ni());
    // A 2-row budget admits two of the three distinct one-row subquery
    // results into the memo ledger; the third class re-executes on every
    // binding — but the query still runs and agrees.
    let o = ExecOptions { mem_budget: Some(2), ..opts(1) };
    let (rows, stats) = run(&db, &sql, o);
    assert_eq!(rows, oracle);
    assert_eq!(stats.subquery_invocations, 12);
    assert_eq!(
        stats.subquery_invocations,
        stats.subquery_distinct_invocations + stats.subquery_memo_hits
    );
    // Unmemoized fallback shows up as extra "distinct" executions beyond
    // the three key classes.
    assert!(
        stats.subquery_distinct_invocations > 3,
        "expected budget-evicted re-executions, got {} distinct",
        stats.subquery_distinct_invocations
    );
}

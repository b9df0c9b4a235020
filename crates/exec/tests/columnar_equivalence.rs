//! Columnar kernels vs the scalar evaluator: vectorization must change
//! the wall time, never anything observable.
//!
//! The oracle is the *same query spelled so no kernel compiles it*: every
//! comparison gets `+ 0` on its outer-table side (`D.budget + 0 < …`,
//! `D.num_emps + 0 <cmp> (…)`, `E.building = D.building + 0`), and so does
//! every aggregate argument (`SUM(E.building + 0)`). No rewrite folds
//! arithmetic, so on these in-memory tables the spelled query runs an
//! identical plan, but its filters, join keys, end stage and grand-total
//! aggregates all take the scalar path (`eval_expr`/`qualifies` and the
//! per-row grouping fold). The `+ 0` goes on the outer side of a
//! comparison on purpose: `E.building + 0 = …` would disable the
//! correlation probe and change the plan. (On a paged table the spelling
//! would also change the work: zone-map pruning reads only a bare
//! `col <op> expr`.)
//!
//! On random databases (NULL-heavy bindings, mixed Int/Double correlation
//! keys with `-0.0`, NaN measures and empty tables included) and the
//! generated correlated aggregate query family, the kernel spelling must
//! return **byte-identical rows in the same order** as the scalar spelling
//! — not just the same multiset — and the merged [`ExecStats`] counters
//! must be *exactly* equal, at `threads = 1` and `threads = 4`, for every
//! strategy's plan shape. The counters are the contract: the paper's
//! figures are reproduced from deterministic work, so a vectorized kernel
//! that "saves" predicate evaluations would silently change the science.

use decorr_common::{row, DataType, ExecStats, Row, Schema, Value};
use decorr_core::{apply_strategy, Strategy};
use decorr_exec::{execute_with, ExecOptions};
use decorr_sql::parse_and_bind;
use decorr_storage::Database;
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

#[derive(Debug, Clone)]
struct Dept {
    budget: i64,
    num_emps: i64,
    building: Option<i64>,
}

#[derive(Debug, Clone)]
struct World {
    depts: Vec<Dept>,
    emps: Vec<Option<i64>>, // employee buildings (NULLs allowed)
}

fn world() -> impl proptest::strategy::Strategy<Value = World> {
    let dept = (0i64..20_000, 0i64..10, prop::option::weighted(0.9, 0i64..6))
        .prop_map(|(budget, num_emps, building)| Dept { budget, num_emps, building });
    let emp = prop::option::weighted(0.9, 0i64..6);
    (
        prop::collection::vec(dept, 0..25),
        prop::collection::vec(emp, 0..60),
    )
        .prop_map(|(depts, emps)| World { depts, emps })
}

/// Half the buildings on both sides are NULL: most correlation probes
/// carry NULL, most groups are empty, and the kernels' NULL-exclusion
/// (bitmap in the filter, `None` hash in the join) is exercised rather
/// than grazed.
fn world_null_heavy() -> impl proptest::strategy::Strategy<Value = World> {
    let dept = (0i64..20_000, 0i64..4, prop::option::weighted(0.5, 0i64..3))
        .prop_map(|(budget, num_emps, building)| Dept { budget, num_emps, building });
    let emp = prop::option::weighted(0.5, 0i64..3);
    (
        prop::collection::vec(dept, 0..15),
        prop::collection::vec(emp, 0..30),
    )
        .prop_map(|(depts, emps)| World { depts, emps })
}

fn add_depts(db: &mut Database, depts: &[Dept]) {
    let d = db
        .create_table(
            "dept",
            Schema::from_pairs(&[
                ("name", DataType::Str),
                ("budget", DataType::Double),
                ("num_emps", DataType::Int),
                ("building", DataType::Int),
            ]),
        )
        .unwrap();
    for (i, dept) in depts.iter().enumerate() {
        d.insert(Row::new(vec![
            Value::str(format!("d{i}")),
            Value::Double(dept.budget as f64),
            Value::Int(dept.num_emps),
            dept.building.map(Value::Int).unwrap_or(Value::Null),
        ]))
        .unwrap();
    }
    d.set_key(&["name"]).unwrap();
}

fn build_db(w: &World) -> Database {
    let mut db = Database::new();
    add_depts(&mut db, &w.depts);
    let e = db
        .create_table(
            "emp",
            Schema::from_pairs(&[("name", DataType::Str), ("building", DataType::Int)]),
        )
        .unwrap();
    for (i, b) in w.emps.iter().enumerate() {
        e.insert(Row::new(vec![
            Value::str(format!("e{i}")),
            b.map(Value::Int).unwrap_or(Value::Null),
        ]))
        .unwrap();
    }
    e.set_key(&["name"]).unwrap();
    db
}

/// Same worlds, but `emp.building` is a Double column with 0 stored as
/// -0.0: correlation keys mix Int with Double and include a signed zero —
/// equal under SQL `=`, distinct under `total_cmp` — so `hash_kernel`'s
/// `eq_key` folding must agree with the scalar key normalization exactly.
fn build_db_mixed_keys(w: &World) -> Database {
    let mut db = Database::new();
    add_depts(&mut db, &w.depts);
    let e = db
        .create_table(
            "emp",
            Schema::from_pairs(&[("name", DataType::Str), ("building", DataType::Double)]),
        )
        .unwrap();
    for (i, b) in w.emps.iter().enumerate() {
        let building = match b {
            Some(0) => Value::Double(-0.0),
            Some(b) => Value::Double(*b as f64),
            None => Value::Null,
        };
        e.insert(Row::new(vec![Value::str(format!("e{i}")), building]))
            .unwrap();
    }
    e.set_key(&["name"]).unwrap();
    db
}

/// A `score` value: NULL, NaN, ±0.0 or a small half-integer, so the
/// aggregate kernels meet every value class the per-row fold handles.
fn score() -> impl proptest::strategy::Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Double(f64::NAN)),
        Just(Value::Double(-0.0)),
        (-8i64..8).prop_map(|x| Value::Double(x as f64 / 2.0)),
    ]
}

/// Same worlds, with two measures beside each employee's building: `pay`
/// (Int, NULLs allowed) and `score` (Double). Aggregates over the
/// correlation key see one value per group; these see many, so MIN, MAX
/// and SUM really choose and fold.
fn build_db_with_measures(w: &World, pays: &[Option<i64>], scores: &[Value]) -> Database {
    let mut db = Database::new();
    add_depts(&mut db, &w.depts);
    let e = db
        .create_table(
            "emp",
            Schema::from_pairs(&[
                ("name", DataType::Str),
                ("building", DataType::Int),
                ("pay", DataType::Int),
                ("score", DataType::Double),
            ]),
        )
        .unwrap();
    for (i, b) in w.emps.iter().enumerate() {
        e.insert(Row::new(vec![
            Value::str(format!("e{i}")),
            b.map(Value::Int).unwrap_or(Value::Null),
            pays[i].map(Value::Int).unwrap_or(Value::Null),
            scores[i].clone(),
        ]))
        .unwrap();
    }
    e.set_key(&["name"]).unwrap();
    db
}

/// The subquery aggregates; `{z}` takes the spelling suffix, so the scalar
/// spelling's computed argument (`SUM(E.building + 0)`) runs the per-row
/// grouping fold where the kernel spelling runs the grand-total COUNT/SUM/
/// MIN/MAX kernels. `COUNT(*)` has no argument to spell: it counts the
/// input length on either path.
const AGGS: [&str; 5] = [
    "COUNT(*)",
    "COUNT(E.building{z})",
    "SUM(E.building{z})",
    "MIN(E.building{z})",
    "MAX(E.building{z})",
];
const CMPS: [&str; 6] = ["<", "<=", ">", ">=", "=", "<>"];

/// A query in both spellings, `(kernel, scalar)`: `spell` receives the
/// suffix for every outer-side comparison operand — empty for the kernel
/// spelling, `" + 0"` for the scalar one.
fn spellings(spell: impl Fn(&str) -> String) -> (String, String) {
    (spell(""), spell(" + 0"))
}

fn query(agg: &str, cmp: &str, with_filter: bool) -> (String, String) {
    spellings(|z| {
        let filter = if with_filter {
            format!("D.budget{z} < 10000 AND ")
        } else {
            String::new()
        };
        let agg = agg.replace("{z}", z);
        format!(
            "SELECT D.name FROM dept D WHERE {filter}D.num_emps{z} {cmp} \
             (SELECT {agg} FROM emp E WHERE E.building = D.building{z})"
        )
    })
}

/// Rewrite with `s`, execute on the given pool width, return the rows
/// **unsorted** (order is part of the contract) and the work counters.
fn run(db: &Database, sql: &str, s: Strategy, threads: usize) -> (Vec<Row>, ExecStats) {
    let qgm = parse_and_bind(sql, db).unwrap();
    let plan = apply_strategy(&qgm, s).unwrap();
    let opts = ExecOptions { threads, ..Default::default() };
    execute_with(db, &plan, opts).unwrap()
}

/// Assert the full equivalence contract for one query on one database:
/// the kernel spelling returns identical rows in identical order and
/// identical counters to the scalar spelling, at both pool widths, for
/// every given strategy.
fn assert_kernels_match_scalar(db: &Database, sqls: &(String, String), strategies: &[Strategy]) {
    let (kernel_sql, scalar_sql) = sqls;
    for &s in strategies {
        for threads in [1usize, 4] {
            let (scalar_rows, scalar_stats) = run(db, scalar_sql, s, threads);
            let (kernel_rows, kernel_stats) = run(db, kernel_sql, s, threads);
            assert_eq!(
                kernel_rows, scalar_rows,
                "kernel rows or row order diverged for {s:?} (threads={threads}) on {kernel_sql}"
            );
            assert_eq!(
                kernel_stats, scalar_stats,
                "kernel ExecStats diverged for {s:?} (threads={threads}) on {kernel_sql}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..Default::default() })]

    #[test]
    fn kernels_match_scalar_on_generated_queries(
        w in world(),
        agg_i in 0usize..AGGS.len(),
        cmp_i in 0usize..CMPS.len(),
        with_filter in any::<bool>(),
    ) {
        let db = build_db(&w);
        let sql = query(AGGS[agg_i], CMPS[cmp_i], with_filter);
        assert_kernels_match_scalar(
            &db,
            &sql,
            &[Strategy::NestedIteration, Strategy::Magic, Strategy::OptMag],
        );
    }

    #[test]
    fn kernels_match_scalar_under_null_heavy_bindings(
        w in world_null_heavy(),
        agg_i in 0usize..AGGS.len(),
        cmp_i in 0usize..CMPS.len(),
    ) {
        let db = build_db(&w);
        let sql = query(AGGS[agg_i], CMPS[cmp_i], false);
        assert_kernels_match_scalar(&db, &sql, &[Strategy::NestedIteration, Strategy::Magic]);
    }

    #[test]
    fn kernels_match_scalar_on_mixed_key_types(
        w in world(),
        agg_i in 0usize..AGGS.len(),
        cmp_i in 0usize..CMPS.len(),
    ) {
        let db = build_db_mixed_keys(&w);
        let sql = query(AGGS[agg_i], CMPS[cmp_i], false);
        assert_kernels_match_scalar(&db, &sql, &[Strategy::Magic, Strategy::OptMag]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..Default::default() })]

    /// The grand-total aggregate kernels against the per-row fold over
    /// measures that vary within a group (under nested iteration each
    /// subquery invocation is a grand total).
    #[test]
    fn aggregate_kernels_match_fold_on_measures(
        w in world(),
        pays in prop::collection::vec(prop::option::weighted(0.8, -5i64..5), 60..61),
        scores in prop::collection::vec(score(), 60..61),
        cmp_i in 0usize..CMPS.len(),
    ) {
        let db = build_db_with_measures(&w, &pays, &scores);
        let cmp = CMPS[cmp_i];
        for func in ["COUNT", "SUM", "AVG", "MIN", "MAX"] {
            for measure in ["pay", "score"] {
                let sql = spellings(|z| {
                    format!(
                        "SELECT D.name FROM dept D WHERE D.num_emps{z} {cmp} \
                         (SELECT {func}(E.{measure}{z}) FROM emp E \
                          WHERE E.building = D.building{z})"
                    )
                });
                assert_kernels_match_scalar(
                    &db,
                    &sql,
                    &[Strategy::NestedIteration, Strategy::Magic, Strategy::OptMag],
                );
            }
        }
    }
}

/// Empty tables on either or both sides: the kernels must take their
/// zero-row short-circuits without perturbing a single counter.
#[test]
fn kernels_match_scalar_on_empty_tables() {
    let empty = World { depts: vec![], emps: vec![] };
    let no_emps =
        World { depts: vec![Dept { budget: 100, num_emps: 1, building: Some(0) }], emps: vec![] };
    let no_depts = World { depts: vec![], emps: vec![Some(0), None, Some(1)] };
    for w in [&empty, &no_emps, &no_depts] {
        let db = build_db(w);
        for agg in AGGS {
            let sql = query(agg, ">", true);
            assert_kernels_match_scalar(
                &db,
                &sql,
                &[Strategy::NestedIteration, Strategy::Magic, Strategy::OptMag],
            );
        }
    }
}

/// NaN and ±0.0 in both the filtered column and the join key. NaN never
/// matches `=` (hash excluded, SQL comparison None) and -0.0 equals 0.0 —
/// and the kernels must agree with the scalar evaluator on every
/// comparison operator, not just equality, and the aggregate kernels
/// with the per-row fold over groups mixing -0.0 and 0.0.
#[test]
fn kernels_match_scalar_on_nan_and_signed_zero() {
    let mut db = Database::new();
    let d = db
        .create_table(
            "dept",
            Schema::from_pairs(&[
                ("name", DataType::Str),
                ("budget", DataType::Double),
                ("num_emps", DataType::Int),
                ("building", DataType::Double),
            ]),
        )
        .unwrap();
    d.insert_all(vec![
        row!["d0", f64::NAN, 1, 0.0],
        row!["d1", -0.0, 0, -0.0],
        row!["d2", 0.0, 2, f64::NAN],
        row!["d3", 42.5, 1, 1.0],
        row!["d4", f64::NAN, 3, Value::Null],
    ])
    .unwrap();
    d.set_key(&["name"]).unwrap();
    let e = db
        .create_table(
            "emp",
            Schema::from_pairs(&[("name", DataType::Str), ("building", DataType::Double)]),
        )
        .unwrap();
    e.insert_all(vec![
        row!["e0", -0.0],
        row!["e1", 0.0],
        row!["e2", f64::NAN],
        row!["e3", 1.0],
        row!["e4", Value::Null],
    ])
    .unwrap();
    e.set_key(&["name"]).unwrap();

    for cmp in CMPS {
        for agg in AGGS {
            let sql = spellings(|z| {
                let agg = agg.replace("{z}", z);
                format!(
                    "SELECT D.name FROM dept D WHERE D.budget{z} {cmp} 0.0 AND D.num_emps{z} > \
                     (SELECT {agg} FROM emp E WHERE E.building = D.building{z})"
                )
            });
            assert_kernels_match_scalar(
                &db,
                &sql,
                &[Strategy::NestedIteration, Strategy::Magic, Strategy::OptMag],
            );
        }
    }
}

/// A DISTINCT projection exercises the bulk-hash dedup after both the
/// kernel and the scalar filter.
#[test]
fn kernels_match_scalar_on_distinct() {
    let w = World {
        depts: (0..12)
            .map(|i| Dept { budget: 100 * (i % 3), num_emps: i % 4, building: Some(i % 3) })
            .collect(),
        emps: (0..20).map(|i| Some(i % 3)).collect(),
    };
    let db = build_db(&w);
    let sql = spellings(|z| {
        format!("SELECT DISTINCT D.num_emps, D.building FROM dept D WHERE D.budget{z} < 10000")
    });
    assert_kernels_match_scalar(&db, &sql, &[Strategy::NestedIteration, Strategy::Magic]);
}

//! The experiment harness: regenerates every table and figure of the
//! paper as text, recording both wall time and machine-independent work
//! counters.
//!
//! ```text
//! harness [table1|fig5|fig6|fig7|fig8|fig9|parallel|countbug|ablation|accuracy|chaos
//!          |ni-bench|serve-bench|storage-bench|all]
//!         [--scale S] [--seed N] [--nodes N1,N2,...] [--threads N]
//!         [--trace] [--analyze] [--explain-cost] [--qerr-threshold Q]
//!         [--fault-seed S1,S2,...] [--replication K1,K2,...]
//!         [--timeout-ms MS] [--mem-budget ROWS] [--bench-json [PATH]]
//!         [--clients N] [--queries N]
//!         [--concurrency N] [--repeat-workload]
//!         [--pool-bytes N] [--data-dir DIR]
//!         [--disk-seed N] [--net-seed N]
//! ```
//!
//! `--threads N` runs the figure executors on a worker pool of N threads
//! (default 1 = serial). `--trace`
//! additionally emits, for each figure, the per-strategy rewrite step log
//! and a single-line JSON document with the EXPLAIN plans, rewrite traces
//! and per-box execution traces. `--analyze` prints the collected
//! `ANALYZE` statistics for each figure's database. `--explain-cost`
//! prints, per figure, the five-way strategy race (ranked estimates) and
//! the chosen plan's per-box estimated-vs-actual rows with q-error. The
//! `accuracy` experiment summarizes the race across every figure; with
//! `--qerr-threshold Q` it exits non-zero if any chosen plan's total-cost
//! q-error exceeds Q (the CI `estimator-accuracy` job). `--bench-json
//! [PATH]` records the {serial, parallel} benchmark grid plus each
//! figure's chosen strategy and q-error (failing if the parallel run's
//! rows or `ExecStats` diverge from the serial run's) to PATH, default
//! `BENCH_PR5.json`.
//!
//! The `chaos` experiment (run only when requested by name — it is not
//! part of `all`) executes the figure queries on a 4-node cluster under a
//! sweep of `--fault-seed`s × `--replication` factors, asserting that
//! every recoverable crash yields a byte-identical answer and every
//! unrecoverable one fails closed with `NodeFailed`. `--timeout-ms` and
//! `--mem-budget` apply query governance to the chaos runs; with
//! `--bench-json` the sweep's JSON report replaces the baseline document.
//! `--concurrency N` replays every chaos sweep point on N worker threads
//! at once — the recovery contract must hold for each worker
//! independently, modelling faults under a live query service.
//!
//! With `--disk-seed N` and/or `--net-seed N`, `chaos` instead runs the
//! **disk & network fault-injection suite**: a crash-point sweep that
//! power-cuts a seeded `ChaosEnv` at every storage op and requires
//! recovery onto the newest intact epoch with bit-identical rows; an
//! ENOSPC probe that must fail closed with typed `StorageFull` while
//! reads keep serving; a byte-identity check between the quiet `ChaosEnv`
//! and the real filesystem; and a live-service network-chaos phase where
//! `--concurrency` resilient clients ride injected connection drops,
//! partial lines and stalls — every request must end byte-identical to
//! the fault-free reference or in a typed error, never a hang. All four
//! phases are enforced gates; `--bench-json` records the self-describing
//! report to `BENCH_PR9.json` by default.
//!
//! The `ni-bench` experiment (opt-in by name — it is a regression gate,
//! not a paper figure) compares the two nested-iteration lanes — the
//! naive oracle (pre-memoization) and the default batched executor
//! (correlation-key memo + sorted outer batches + set-oriented
//! correlation probe) — over the baseline figures. It *enforces*
//! byte-identical rows, an unchanged logical invocation count, the
//! `invocations == distinct + hits` counter invariant, and total work
//! never above naive — strictly below wherever the memo hits (the CI
//! `ni-memo-smoke` job runs it at tiny scale); with `--bench-json` the
//! report is recorded to `BENCH_PR10.json` by default.
//!
//! The `serve-bench` experiment (also opt-in by name) boots the
//! `decorr-server` TCP service and drives it with `--clients` concurrent
//! connections, each issuing `--queries` statements from a mixed
//! figure/TPC-D set. It *enforces* byte-identical payloads against a
//! single-session serial run and a typed-errors-only overload probe, and
//! reports client-observed p50/p99 latency and aggregate QPS; with
//! `--bench-json` the report is recorded to `BENCH_PR6.json` by default.
//! With `--repeat-workload` the serve bench instead drives a Zipf-skewed
//! repeated query-shape mix through the plan cache: a paired serial phase
//! measures cold (strategy race) vs hit (template rebind) latency, a
//! concurrent phase checks every cached reply byte-for-byte against an
//! uncached serial reference, and an `ANALYZE` probe asserts the epoch
//! bump forces misses (no stale plans). It fails unless hit p50 beats
//! cold p50 with zero divergences and zero stale-epoch hits; the default
//! `--bench-json` path becomes `BENCH_PR7.json`.
//!
//! The `storage-bench` experiment (opt-in by name) measures the
//! disk-backed catalog: persist cost and segment footprint, recovery
//! (reopen) p50, cold vs warm buffer-pool scan p50, zone-map pruning, and
//! a TPC-D join forced over `mem_budget` that must spill — the same query
//! without a spill manager must fail under the paired deterministic tick
//! budget. All of those claims are *enforced* (the CI `storage-smoke`
//! job); `--pool-bytes` sizes the pool, `--data-dir` reuses a directory
//! instead of a throwaway temp dir, and `--bench-json` records the report
//! to `BENCH_PR8.json` by default.

use std::time::Instant;

use decorr_bench::{
    analyze_figure, bench_baseline, chaos_sweep, disk_net_chaos, figure_trace_json, format_table,
    ni_bench, race_figure, repeat_workload_bench, run_figure_traced, run_figure_with, serve_bench,
    storage_bench, ChaosConfig, DiskNetChaosConfig, Figure, ServeBenchConfig, StorageBenchConfig,
};
use decorr_common::Result;
use decorr_core::magic::MagicOptions;
use decorr_parallel::{run_decorrelated, run_nested_iteration, Cluster};
use decorr_sql::parse_and_bind;
use decorr_tpcd::empdept::{self, EmpDeptConfig};
use decorr_tpcd::{cardinalities, queries};

struct Args {
    what: Vec<String>,
    scale: f64,
    seed: u64,
    nodes: Vec<usize>,
    threads: usize,
    trace: bool,
    analyze: bool,
    explain_cost: bool,
    qerr_threshold: Option<f64>,
    fault_seeds: Vec<u64>,
    replications: Vec<usize>,
    timeout_ms: Option<u64>,
    mem_budget: Option<usize>,
    bench_json: Option<String>,
    clients: usize,
    queries: usize,
    concurrency: usize,
    repeat_workload: bool,
    pool_bytes: Option<usize>,
    data_dir: Option<String>,
    disk_seed: Option<u64>,
    net_seed: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        what: Vec::new(),
        scale: 0.1,
        seed: 42,
        nodes: vec![1, 2, 4, 8],
        threads: 1,
        trace: false,
        analyze: false,
        explain_cost: false,
        qerr_threshold: None,
        fault_seeds: vec![1, 2, 3, 4],
        replications: vec![1, 2],
        timeout_ms: None,
        mem_budget: None,
        bench_json: None,
        clients: 8,
        queries: 25,
        concurrency: 1,
        repeat_workload: false,
        pool_bytes: None,
        data_dir: None,
        disk_seed: None,
        net_seed: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => args.scale = it.next().expect("--scale S").parse().expect("number"),
            "--seed" => args.seed = it.next().expect("--seed N").parse().expect("number"),
            "--nodes" => {
                args.nodes = it
                    .next()
                    .expect("--nodes N1,N2")
                    .split(',')
                    .map(|s| s.parse().expect("number"))
                    .collect()
            }
            "--threads" => args.threads = it.next().expect("--threads N").parse().expect("number"),
            "--trace" => args.trace = true,
            "--analyze" => args.analyze = true,
            "--explain-cost" => args.explain_cost = true,
            "--qerr-threshold" => {
                args.qerr_threshold = Some(
                    it.next()
                        .expect("--qerr-threshold Q")
                        .parse()
                        .expect("number"),
                )
            }
            "--fault-seed" => {
                args.fault_seeds = it
                    .next()
                    .expect("--fault-seed S1,S2")
                    .split(',')
                    .map(|s| s.parse().expect("number"))
                    .collect()
            }
            "--replication" => {
                args.replications = it
                    .next()
                    .expect("--replication K1,K2")
                    .split(',')
                    .map(|s| s.parse().expect("number"))
                    .collect()
            }
            "--timeout-ms" => {
                args.timeout_ms = Some(it.next().expect("--timeout-ms MS").parse().expect("number"))
            }
            "--mem-budget" => {
                args.mem_budget = Some(
                    it.next()
                        .expect("--mem-budget ROWS")
                        .parse()
                        .expect("number"),
                )
            }
            "--clients" => args.clients = it.next().expect("--clients N").parse().expect("number"),
            "--queries" => args.queries = it.next().expect("--queries N").parse().expect("number"),
            "--concurrency" => {
                args.concurrency = it.next().expect("--concurrency N").parse().expect("number")
            }
            "--repeat-workload" => args.repeat_workload = true,
            "--pool-bytes" => {
                args.pool_bytes = Some(it.next().expect("--pool-bytes N").parse().expect("number"))
            }
            "--data-dir" => args.data_dir = Some(it.next().expect("--data-dir DIR")),
            "--disk-seed" => {
                args.disk_seed = Some(it.next().expect("--disk-seed N").parse().expect("number"))
            }
            "--net-seed" => {
                args.net_seed = Some(it.next().expect("--net-seed N").parse().expect("number"))
            }
            "--bench-json" => {
                // Optional path operand: consume the next token only if it
                // names a JSON file, else record to the experiment's
                // default path (resolved in main, once the experiment
                // selection is known).
                let path = match it.peek() {
                    Some(p) if p.ends_with(".json") => it.next().unwrap(),
                    _ => String::new(),
                };
                args.bench_json = Some(path);
            }
            other => args.what.push(other.to_string()),
        }
    }
    if args.what.is_empty() && args.bench_json.is_none() {
        args.what.push("all".to_string());
    }
    args
}

const EXPERIMENTS: [&str; 15] = [
    "table1",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "countbug",
    "ablation",
    "parallel",
    "accuracy",
    "chaos",
    "ni-bench",
    "serve-bench",
    "storage-bench",
    "all",
];

fn main() -> Result<()> {
    let args = parse_args();
    if args.scale <= 0.0 {
        eprintln!("--scale must be positive (got {})", args.scale);
        std::process::exit(2);
    }
    if args.threads == 0 {
        eprintln!("--threads must be at least 1 (got 0)");
        std::process::exit(2);
    }
    if args.clients == 0 || args.queries == 0 || args.concurrency == 0 {
        eprintln!("--clients, --queries and --concurrency must be at least 1");
        std::process::exit(2);
    }
    for w in &args.what {
        if !EXPERIMENTS.contains(&w.as_str()) {
            eprintln!("unknown experiment '{w}'; expected one of {EXPERIMENTS:?}");
            std::process::exit(2);
        }
    }
    let all = args.what.iter().any(|w| w == "all");
    let wants = |w: &str| all || args.what.iter().any(|x| x == w);

    if wants("table1") {
        table1(args.scale);
    }
    for fig in Figure::all() {
        if wants(fig.id()) {
            figure(fig, &args)?;
        }
    }
    if wants("accuracy") {
        accuracy(&args)?;
    }
    if wants("countbug") {
        countbug()?;
    }
    if wants("ablation") {
        ablation(args.scale)?;
    }
    if wants("parallel") {
        parallel(&args.nodes, args.seed)?;
    }
    // Chaos and serve-bench are opt-in by name: a fault sweep / service
    // bench is a CI gate, not a figure, so `all` does not imply them.
    let chaos_requested = args.what.iter().any(|w| w == "chaos");
    let mut chaos_json = None;
    let mut disk_net_json = None;
    // `chaos --disk-seed/--net-seed` selects the PR-9 disk & network
    // fault-injection suite (crash-point sweep, ENOSPC probe, byte
    // identity, resilient clients); plain `chaos` keeps the distributed
    // node-failure sweep.
    if chaos_requested && (args.disk_seed.is_some() || args.net_seed.is_some()) {
        let defaults = DiskNetChaosConfig::default();
        let cfg = DiskNetChaosConfig {
            disk_seed: args.disk_seed.unwrap_or(defaults.disk_seed),
            net_seed: args.net_seed.unwrap_or(defaults.net_seed),
            concurrency: args.concurrency,
            ..defaults
        };
        let (table, json) = disk_net_chaos(&cfg)?;
        println!("{table}");
        disk_net_json = Some(json);
    } else if chaos_requested {
        let cfg = ChaosConfig {
            scale: args.scale,
            seed: args.seed,
            nodes: 4,
            fault_seeds: args.fault_seeds.clone(),
            replications: args.replications.clone(),
            timeout_ms: args.timeout_ms,
            mem_budget: args.mem_budget,
            concurrency: args.concurrency,
        };
        let (table, json) = chaos_sweep(&cfg)?;
        println!("{table}");
        chaos_json = Some(json);
    }
    // ni-bench is likewise opt-in by name: it is the nested-iteration
    // memoization regression gate, not a paper figure.
    let ni_requested = args.what.iter().any(|w| w == "ni-bench");
    let mut ni_json = None;
    if ni_requested {
        let (table, json) = ni_bench(args.scale, args.seed)?;
        println!("{table}");
        ni_json = Some(json);
    }
    let serve_requested = args.what.iter().any(|w| w == "serve-bench");
    let mut serve_json = None;
    if serve_requested {
        let cfg = ServeBenchConfig {
            scale: args.scale,
            seed: args.seed,
            clients: args.clients,
            queries_per_client: args.queries,
            ..Default::default()
        };
        let (table, json) = if args.repeat_workload {
            repeat_workload_bench(&cfg)?
        } else {
            serve_bench(&cfg)?
        };
        println!("{table}");
        serve_json = Some(json);
    }
    // Storage-bench is likewise opt-in by name: it writes and re-reads a
    // data directory, which is a durability gate, not a figure.
    let storage_requested = args.what.iter().any(|w| w == "storage-bench");
    let mut storage_json = None;
    if storage_requested {
        let mut cfg = StorageBenchConfig {
            scale: args.scale,
            seed: args.seed,
            dir: args.data_dir.clone().map(Into::into),
            ..Default::default()
        };
        if let Some(bytes) = args.pool_bytes {
            cfg.pool_bytes = bytes;
        }
        let (table, json) = storage_bench(&cfg)?;
        println!("{table}");
        storage_json = Some(json);
    }
    if let Some(path) = &args.bench_json {
        let serve_default = if args.repeat_workload {
            "BENCH_PR7.json"
        } else {
            "BENCH_PR6.json"
        };
        let (json, what, default_path) =
            match (disk_net_json, storage_json, serve_json, chaos_json, ni_json) {
                (Some(json), _, _, _, _) => (
                    json,
                    format!(
                        "disk & network chaos (disk seed {}, net seed {})",
                        args.disk_seed.unwrap_or(0xD15C),
                        args.net_seed.unwrap_or(0x4E57)
                    ),
                    "BENCH_PR9.json",
                ),
                (None, Some(json), _, _, _) => {
                    (json, "storage bench".to_string(), "BENCH_PR8.json")
                }
                (None, None, Some(json), _, _) => (json, "serve bench".to_string(), serve_default),
                (None, None, None, Some(json), _) => {
                    (json, "chaos sweep".to_string(), "BENCH_PR5.json")
                }
                (None, None, None, None, Some(json)) => {
                    (json, "ni-bench lanes".to_string(), "BENCH_PR10.json")
                }
                (None, None, None, None, None) => {
                    let threads = if args.threads > 1 { args.threads } else { 4 };
                    (
                        bench_baseline(args.scale, args.seed, threads)?,
                        format!("exec baseline (threads 1 vs {threads})"),
                        "BENCH_PR5.json",
                    )
                }
            };
        let path = if path.is_empty() {
            default_path
        } else {
            path.as_str()
        };
        std::fs::write(path, json + "\n")
            .map_err(|e| decorr_common::Error::internal(format!("writing {path}: {e}")))?;
        if what.starts_with("disk & network chaos") {
            println!("{what} recorded to {path}");
        } else {
            println!("{what} (scale {}) recorded to {path}", args.scale);
        }
    }
    Ok(())
}

fn table1(scale: f64) {
    let full = cardinalities(1.0);
    let scaled = cardinalities(scale);
    println!("Table 1 - TPC-D database (paper cardinalities at scale 1.0)");
    println!(
        "{:<10} {:>10} {:>14}",
        "table",
        "paper",
        format!("scale {scale}")
    );
    for (name, paper, ours) in [
        ("customers", full.customers, scaled.customers),
        ("parts", full.parts, scaled.parts),
        ("suppliers", full.suppliers, scaled.suppliers),
        ("partsupp", full.partsupp, scaled.partsupp),
        ("lineitem", full.lineitem, scaled.lineitem),
    ] {
        println!("{name:<10} {paper:>10} {ours:>14}");
    }
    println!();
}

fn figure(fig: Figure, args: &Args) -> Result<()> {
    let (scale, seed, threads, trace) = (args.scale, args.seed, args.threads, args.trace);
    let db = fig.database(scale, seed)?;
    if args.analyze {
        println!("ANALYZE ({}, scale {scale}):", fig.id());
        print!("{}", analyze_figure(fig, scale, seed)?);
        println!();
    }
    let ms = run_figure_with(fig, &db, threads)?;
    println!("{}", format_table(fig, scale, &ms));
    if args.explain_cost {
        println!("{}", race_figure(fig, &db)?.render());
    }
    if trace {
        let runs = run_figure_traced(fig, &db)?;
        for (_, t) in &runs {
            if !t.rewrite.is_empty() {
                println!(
                    "rewrite steps [{}]:\n{}",
                    t.strategy.name(),
                    t.rewrite.render()
                );
            }
        }
        println!("{}", figure_trace_json(fig, &runs));
        println!();
    }
    Ok(())
}

/// The estimator-accuracy summary: race every figure, execute the chosen
/// plan, and report how the cost prediction held up. With
/// `--qerr-threshold Q` this is the CI smoke gate — exits non-zero when
/// any chosen plan's total-cost q-error exceeds Q.
fn accuracy(args: &Args) -> Result<()> {
    println!(
        "Estimator accuracy — cost-based race over every figure (scale {})",
        args.scale
    );
    println!(
        "{:<6} {:<8} {:>14} {:>14} {:>8} {:>10} {:>8} {:>10}",
        "figure", "chosen", "est cost", "actual work", "cost-q", "max box-q", "best", "work ratio"
    );
    let mut worst: Option<(Figure, f64)> = None;
    for fig in Figure::all() {
        let db = fig.database(args.scale, args.seed)?;
        let o = race_figure(fig, &db)?;
        println!(
            "{:<6} {:<8} {:>14.0} {:>14} {:>8.2} {:>10.2} {:>8} {:>10.2}",
            fig.id(),
            o.choice.strategy.name(),
            o.choice.estimate.cost,
            o.chosen_work,
            o.cost_q_error(),
            o.report.max_q(),
            o.best_strategy.name(),
            o.work_ratio()
        );
        if args.explain_cost {
            println!("{}", o.render());
        }
        if worst.is_none() || o.cost_q_error() > worst.unwrap().1 {
            worst = Some((fig, o.cost_q_error()));
        }
    }
    println!();
    if let (Some(q), Some((fig, got))) = (args.qerr_threshold, worst) {
        if got > q {
            eprintln!(
                "estimator accuracy regression: {} total-cost q-error {got:.2} exceeds \
                 threshold {q:.2}",
                fig.id()
            );
            std::process::exit(1);
        }
        println!(
            "worst total-cost q-error {got:.2} within threshold {q:.2} ({})",
            fig.id()
        );
    }
    Ok(())
}

/// The COUNT bug demonstration (Section 2): Kim's rewrite silently loses
/// the department in the employee-less building.
fn countbug() -> Result<()> {
    use decorr_core::Strategy;
    use decorr_exec::execute;

    let db = empdept::generate(&EmpDeptConfig {
        departments: 50,
        employees: 400,
        buildings: 8,
        seed: 7,
        with_indexes: true,
    })?;
    let qgm = parse_and_bind(queries::EMPDEPT, &db)?;
    println!("COUNT bug (Section 2) - EMP/DEPT example");
    for s in [
        Strategy::NestedIteration,
        Strategy::Kim,
        Strategy::Dayal,
        Strategy::Magic,
    ] {
        let rewritten = decorr_core::apply_strategy(&qgm, s)?;
        let (rows, _) = execute(&db, &rewritten)?;
        println!("{:<8} {:>4} result rows", s.name(), rows.len());
    }
    println!("(Kim's method returns fewer rows: departments in employee-less buildings are lost)");
    println!();
    Ok(())
}

/// Ablation over the Section 4.4 knobs: supplementary scope, CSE
/// handling, and quantified-subquery decorrelation.
fn ablation(scale: f64) -> Result<()> {
    use decorr_core::magic::{magic_decorrelate, MagicOptions, SuppScope};
    use decorr_exec::{execute_with, ExecOptions};
    use decorr_tpcd::{generate, TpcdConfig};

    let db = generate(&TpcdConfig { scale, seed: 42, with_indexes: true })?;
    println!("Ablation - magic decorrelation knobs (scale {scale})");
    println!(
        "{:<28} {:>10} {:>14} {:>12}",
        "variant", "time(ms)", "total work", "scanned"
    );

    let run = |label: &str, plan: &decorr_qgm::Qgm, opts: ExecOptions| -> Result<()> {
        let started = Instant::now();
        let (rows, stats) = execute_with(&db, plan, opts)?;
        println!(
            "{:<28} {:>10.3} {:>14} {:>12}",
            label,
            started.elapsed().as_secs_f64() * 1e3,
            stats.total_work(),
            stats.rows_scanned
        );
        let _ = rows;
        Ok(())
    };

    // Supplementary scope on Query 1.
    for (label, scope) in [
        ("q1 supp=all-foreach", SuppScope::AllForeach),
        ("q1 supp=minimal-binding", SuppScope::MinimalBinding),
    ] {
        let qgm = parse_and_bind(queries::Q1A, &db)?;
        let mut plan = qgm.clone();
        magic_decorrelate(
            &mut plan,
            &MagicOptions { supp_scope: scope, ..Default::default() },
        )?;
        run(label, &plan, ExecOptions::default())?;
    }
    // CSE recompute vs materialize on Query 1.
    {
        let qgm = parse_and_bind(queries::Q1A, &db)?;
        let mut plan = qgm.clone();
        magic_decorrelate(&mut plan, &MagicOptions::default())?;
        run("q1 cse=recompute", &plan, ExecOptions::default())?;
        run(
            "q1 cse=materialize",
            &plan,
            ExecOptions { memoize_cse: true, ..Default::default() },
        )?;
    }
    // EXISTS decorrelation.
    {
        let sql = "SELECT s.s_name FROM suppliers s WHERE s.s_region = 'EUROPE' \
                   AND EXISTS (SELECT c.c_custkey FROM customers c \
                               WHERE c.c_nation = s.s_nation)";
        let qgm = parse_and_bind(sql, &db)?;
        run("exists ni", &qgm, ExecOptions::default())?;
        let mut plan = qgm.clone();
        magic_decorrelate(
            &mut plan,
            &MagicOptions { decorrelate_quantified: true, ..Default::default() },
        )?;
        run(
            "exists decorrelated+memo",
            &plan,
            ExecOptions { memoize_cse: true, ..Default::default() },
        )?;
    }
    println!();
    Ok(())
}

/// Section 6: broadcast nested iteration vs the partitioned decorrelated
/// plan over growing clusters.
fn parallel(nodes: &[usize], seed: u64) -> Result<()> {
    let db = empdept::generate(&EmpDeptConfig {
        departments: 400,
        employees: 4000,
        buildings: 25,
        seed,
        with_indexes: true,
    })?;
    let qgm = parse_and_bind(queries::EMPDEPT, &db)?;
    println!("Section 6 - shared-nothing parallel execution (EMP/DEPT, 400 depts x 4000 emps)");
    println!(
        "{:<6} {:<14} {:>10} {:>12} {:>10} {:>12} {:>12} {:>8}",
        "nodes", "strategy", "frags", "messages", "shipped", "total work", "time(ms)", "rows"
    );
    for &n in nodes {
        let cluster = Cluster::partition_by_key(&db, n)?;
        let started = Instant::now();
        let (rows, s) = run_nested_iteration(&cluster, &qgm)?;
        let t = started.elapsed();
        println!(
            "{:<6} {:<14} {:>10} {:>12} {:>10} {:>12} {:>12.3} {:>8}",
            n,
            "NI-broadcast",
            s.fragments,
            s.messages,
            s.rows_shipped,
            s.total_work(),
            t.as_secs_f64() * 1e3,
            rows.len()
        );

        let mut cluster2 = Cluster::partition_by_key(&db, n)?;
        let started = Instant::now();
        let (rows2, s2) = run_decorrelated(
            &mut cluster2,
            &qgm,
            &[("dept", "building"), ("emp", "building")],
            &MagicOptions::default(),
        )?;
        let t2 = started.elapsed();
        assert_eq!(rows.len(), rows2.len());
        println!(
            "{:<6} {:<14} {:>10} {:>12} {:>10} {:>12} {:>12.3} {:>8}",
            n,
            "Magic",
            s2.fragments,
            s2.messages,
            s2.rows_shipped,
            s2.total_work(),
            t2.as_secs_f64() * 1e3,
            rows2.len()
        );
    }
    println!();
    Ok(())
}

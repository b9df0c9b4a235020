//! The traced half: the service phase's statements replayed in-process
//! through each layer's public functions, in the order `Session` calls
//! them, one span per call.
//!
//! The replay builds a catalog of the workload's kind, replays the
//! warm-up pass and then the measured statements in the order the clients
//! sent them, and requires every replayed statement to reproduce the TCP
//! reply's rows and work units — so the spans time the work the service
//! did. Each read is then served once more by an in-process
//! `Session::handle_line` on the same catalog, which gives the service's
//! own handling time without the wire (`server.handle_us`) and, against
//! the replay's statement span, the tracing overhead.
//!
//! Where one public call contains another layer's work, the inner call is
//! timed separately on the same input and the difference is the outer
//! layer's self time: the race's rewrites (`apply_strategy` of each raced
//! strategy) inside `choose_strategy_with`, and `Statistics::analyze`
//! inside `SharedCatalog::analyze`, whose remainder is the durable commit.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use decorr::choose::choose_strategy_with;
use decorr::plan_cache::{plan_bytes, CachedPlan};
use decorr_common::{CancelToken, Error, ExecStats, FxHashMap, Result};
use decorr_core::{apply_strategy, canonical_form, fingerprint, shared_subplan_marks, Strategy};
use decorr_exec::{execute_with, ExecOptions, SharedSubplans, SubplanShape};
use decorr_qgm::Qgm;
use decorr_server::{AdmissionControl, PoolLedger, Session, SessionSettings, SharedCatalog};
use decorr_sql::{bind, parameterize, parse};
use decorr_stats::Statistics;

use crate::service::{self, digest, payload, Outcome, Record, ScratchDir};
use crate::spans::{self_times, Span, Tracer};
use crate::stats::{median, sorted};
use crate::workload::{Item, Publish, Workload, SHAPES};
use crate::{metric, Metric};

/// The strategies `choose_strategy_with` rewrites a correlated query with,
/// besides nested iteration (`RACED` in `decorr::choose`).
const RACED: [Strategy; 4] = [
    Strategy::Kim,
    Strategy::Dayal,
    Strategy::GanskiWong,
    Strategy::Magic,
];

/// The plan-cache mode key of an `Auto` session.
const MODE: &str = "auto";

/// Share of `--seconds` the replay may spend on measured statements, after
/// replaying the warm-up pass.
const REPLAY_SHARE: f64 = 0.5;

pub struct Report {
    pub metrics: Vec<Metric>,
    /// Metrics only some workloads have (printed, not in the JSON line).
    pub extra: Vec<Metric>,
    /// Replayed statements whose rows or work differ from the TCP reply.
    pub mismatches: Vec<String>,
}

/// What the replay observed for one read, beyond its spans.
struct ReadTrace {
    stmt: u64,
    shape: usize,
    miss: bool,
    new_epoch: bool,
    stats: ExecStats,
    columnar: (u64, u64),
    pool_evictions: u64,
    rtt: Duration,
    bytes: usize,
}

struct Replayer<'a> {
    w: &'a Workload,
    catalog: Arc<SharedCatalog>,
    admission: Arc<AdmissionControl>,
    session: Session,
    t: Tracer,
    epochs_modelled: HashSet<u64>,
    reads: Vec<ReadTrace>,
    /// Per publish: its kind, its `server.publish` span and the
    /// `stats.analyze` spans timed beside it.
    publishes: Vec<(Publish, usize, Vec<usize>)>,
    mismatches: Vec<String>,
}

fn pool_evictions(catalog: &SharedCatalog) -> u64 {
    catalog.pool_stats().map_or(0, |p| p.evictions)
}

impl Replayer<'_> {
    fn statement(&mut self, stmt: u64, rec: &Record) -> Result<()> {
        self.t.set_stmt(stmt);
        match rec.item {
            Item::Read { shape, .. } => self.read(stmt, rec, shape, &rec.item.line(self.w.scale)),
            Item::Publish(p) => self.publish(rec, p),
        }
    }

    fn read(&mut self, stmt: u64, rec: &Record, shape: usize, line: &str) -> Result<()> {
        let t = &mut self.t;
        let top = t.begin("statement");
        let snap = self.catalog.snapshot();
        let ast = t.span("sql.parse", || parse(line))?;
        let (pquery, bindings) = t.span("sql.parameterize", || parameterize(&ast));
        let pqgm = t.span("sql.bind", || bind(&pquery, snap.db()))?;
        t.span("qgm.validate", || decorr_qgm::validate::validate(&pqgm))?;
        let fp = t.span("core.fingerprint", || fingerprint(&pqgm));
        let cache = self.catalog.plan_cache();
        let hit = t
            .span("plan_cache.lookup", || cache.get(&fp, snap.epoch(), MODE))
            .filter(|h| h.param_count == bindings.len());
        let mut new_epoch = false;
        let (choice, miss) = match hit {
            Some(h) => {
                let choice = t.span("qgm.rebind", || {
                    let mut c = h.choice.clone();
                    c.plan.bind_params(&bindings).map(|_| c)
                })?;
                (choice, false)
            }
            None => {
                let concrete = t.span("qgm.rebind", || {
                    let mut c = pqgm.clone();
                    c.bind_params(&bindings).map(|_| c)
                })?;
                new_epoch = self.epochs_modelled.insert(snap.epoch());
                let model = t.span("server.cost_model", || snap.cost_model());
                t.span("core.rewrite.race", || race_rewrites(&concrete));
                let choice = t.span("choose.race", || choose_strategy_with(&model, concrete))?;
                let template = t.span("core.rewrite", || match choice.strategy {
                    Strategy::NestedIteration => Ok(pqgm.clone()),
                    s => apply_strategy(&pqgm, s),
                });
                t.span("plan_cache.insert", || {
                    let Ok(template) = template else { return };
                    let mut check = template.clone();
                    let faithful = check.bind_params(&bindings).is_ok()
                        && canonical_form(&check, check.top())
                            == canonical_form(&choice.plan, choice.plan.top());
                    if faithful {
                        let bytes = plan_bytes(&template) + fp.len() + 64;
                        let mut cached = choice.clone();
                        cached.plan = template;
                        let plan =
                            CachedPlan { choice: cached, param_count: bindings.len(), bytes };
                        cache.insert(&fp, snap.epoch(), MODE, Arc::new(plan));
                    }
                });
                (choice, true)
            }
        };
        let permit = t.span("server.admission", || self.admission.admit(0))?;
        let mut opts = ExecOptions {
            cancel: Some(CancelToken::new()),
            mem_budget: Some(permit.mem_rows()),
            shared_cache: Some(self.catalog.columnar_cache().clone()),
            spill: self.catalog.spill(),
            ..ExecOptions::default()
        };
        let marks: FxHashMap<_, _> = t.span("core.subplan_marks", || {
            shared_subplan_marks(&choice.plan)
                .into_iter()
                .map(|m| (m.box_id, SubplanShape { shape: m.shape, tables: m.tables }))
                .collect()
        });
        if !marks.is_empty() {
            opts.shared_subplans =
                Some(SharedSubplans { cache: self.catalog.subplan_cache().clone(), marks });
        }
        let col = self.catalog.columnar_cache();
        let col_before = (col.hits(), col.misses());
        let evictions_before = pool_evictions(&self.catalog);
        let exec = t.begin("exec.execute");
        let result = execute_with(snap.db(), &choice.plan, opts);
        let exec_ms = t.end(exec) as f64 / 1e6;
        let (rows, stats) = result?;
        drop(permit);
        let columnar = (col.hits() - col_before.0, col.misses() - col_before.1);
        let pool_evictions = pool_evictions(&self.catalog) - evictions_before;
        let lines = t.span("server.render", || {
            let mut lines: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
            lines.push(format!(
                "-- {} rows via {} (est cost {:.0}) in {:.3} ms (epoch {}, {} subquery \
                 invocations ({} distinct, {} memo hits), {} work units, plan cache {})",
                rows.len(),
                choice.strategy.name(),
                choice.estimate.cost,
                exec_ms,
                snap.epoch(),
                stats.subquery_invocations,
                stats.subquery_distinct_invocations,
                stats.subquery_memo_hits,
                stats.total_work(),
                if miss { "miss" } else { "hit" }
            ));
            lines
        });
        t.end(top);

        let handle = t.begin("server.handle");
        let resp = self.session.handle_line(line);
        t.end(handle);
        let resp = resp?;

        if let Outcome::Ok { digest: want, footer, bytes } = &rec.outcome {
            if digest(&payload(&lines)) != *want {
                self.mismatches
                    .push(format!("replayed rows of {line:?} differ from the reply"));
            }
            if digest(&payload(&resp.lines)) != *want {
                self.mismatches.push(format!(
                    "handle_line rows of {line:?} differ from the reply"
                ));
            }
            let work = footer.map(|f| f.work);
            if work != Some(stats.total_work()) {
                self.mismatches.push(format!(
                    "replayed work of {line:?} is {} units, the reply's footer says {work:?}",
                    stats.total_work()
                ));
            }
            self.reads.push(ReadTrace {
                stmt,
                shape,
                miss,
                new_epoch,
                stats,
                columnar,
                pool_evictions,
                rtt: rec.rtt,
                bytes: *bytes,
            });
        }
        Ok(())
    }

    fn publish(&mut self, rec: &Record, p: Publish) -> Result<()> {
        let t = &mut self.t;
        let top = t.begin("statement");
        let (publish, analyze, lines) = match p {
            Publish::Analyze => {
                let snap = self.catalog.snapshot();
                let time_stats = |t: &mut Tracer| {
                    let id = t.begin("stats.analyze");
                    let stats = Statistics::analyze(snap.db());
                    t.end(id);
                    (id, stats)
                };
                // A durable publish also commits. Its statistics are timed
                // on both sides of it, so the pool's warmth cancels out of
                // the difference that is the commit.
                let mut analyze = Vec::new();
                if self.catalog.is_durable() {
                    analyze.push(time_stats(t).0);
                }
                let publish = t.begin("server.publish");
                let model = self.catalog.analyze();
                t.end(publish);
                let (after, stats) = time_stats(t);
                analyze.push(after);
                let model = model?;
                if stats.render() != model.stats().render() {
                    self.mismatches
                        .push("ANALYZE statistics differ between calls".into());
                }
                let mut lines: Vec<String> = model
                    .stats()
                    .render()
                    .lines()
                    .map(|l| l.trim_end().to_string())
                    .collect();
                lines.push(format!(
                    "-- statistics published as epoch {}",
                    self.catalog.epoch()
                ));
                (publish, analyze, lines)
            }
            Publish::Load => {
                let db = t.span("tpcd.generate", || service::generate_db(self.w))?;
                let publish = t.begin("server.publish");
                let epoch = self.catalog.replace(db);
                t.end(publish);
                let line = format!("TPC-D loaded at scale {} (epoch {})", self.w.scale, epoch?);
                (publish, Vec::new(), vec![line])
            }
        };
        t.end(top);
        self.publishes.push((p, publish, analyze));
        if let Outcome::Ok { digest: want, .. } = &rec.outcome {
            if digest(&payload(&lines)) != *want {
                self.mismatches
                    .push(format!("replayed {} reply differs", p.name()));
            }
        }
        Ok(())
    }
}

/// The rewrites `choose_strategy_with` performs for `qgm`, timed apart
/// from its estimation.
fn race_rewrites(qgm: &Qgm) {
    let correlated = qgm
        .reachable_boxes(qgm.top())
        .iter()
        .any(|&b| qgm.is_correlated(b));
    if correlated {
        for s in RACED {
            let _ = std::hint::black_box(apply_strategy(qgm, s));
        }
    }
}

/// Replay the warm-up pass and then the measured statements (in send
/// order) for up to `seconds * REPLAY_SHARE`, and derive the per-layer
/// metrics. Spans are written to `spans_path` at the end.
pub fn replay(
    w: &Workload,
    warmup: &[Record],
    records: &[Record],
    seconds: f64,
    work: &Path,
    spans_path: &Path,
) -> Result<Report> {
    let mut t = Tracer::new();
    let db = t.span("tpcd.generate", || service::generate_db(w))?;
    let dir = w
        .durable
        .then(|| ScratchDir::new(work.join("replay")))
        .transpose()?;
    let persist = t.begin("storage.persist");
    let catalog = service::open_catalog(w, db, dir.as_ref().map(|d| d.path()));
    t.end(persist);
    let catalog = Arc::new(catalog?);
    let admission = Arc::new(AdmissionControl::new(service::quotas(w)));
    catalog
        .subplan_cache()
        .set_ledger(Arc::new(PoolLedger(Arc::clone(&admission))));
    // The statistics the first planned statement's cost model will build,
    // timed on their own.
    let snap = catalog.snapshot();
    t.span("stats.analyze", || {
        std::hint::black_box(Statistics::analyze(snap.db()))
    });
    drop(snap);
    let session = Session::new(
        1,
        Arc::clone(&catalog),
        Arc::clone(&admission),
        SessionSettings::default(),
    );
    let mut r = Replayer {
        w,
        catalog,
        admission,
        session,
        t,
        epochs_modelled: HashSet::new(),
        reads: Vec::new(),
        publishes: Vec::new(),
        mismatches: Vec::new(),
    };

    let mut stmt = 0;
    for rec in warmup {
        stmt += 1;
        r.statement(stmt, rec)?;
    }
    let budget = Duration::from_secs_f64(seconds * REPLAY_SHARE);
    let started = Instant::now();
    let mut measured = 0usize;
    for rec in records.iter().take_while(|_| started.elapsed() < budget) {
        stmt += 1;
        measured += 1;
        r.statement(stmt, rec)?;
    }

    let file = std::fs::File::create(spans_path)
        .map_err(|e| Error::io(format!("create {}: {e}", spans_path.display())))?;
    let mut out = std::io::BufWriter::new(file);
    r.t.write_jsonl(&mut out)
        .and_then(|_| std::io::Write::flush(&mut out))
        .map_err(|e| Error::io(format!("write {}: {e}", spans_path.display())))?;

    let mut report = metrics(&r);
    report
        .extra
        .push(metric("trace.measured_replayed", measured as f64, "count"));
    Ok(report)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn median_of(v: impl IntoIterator<Item = f64>) -> Option<f64> {
    median(&sorted(v.into_iter().collect()))
}

fn metrics(r: &Replayer) -> Report {
    let spans = r.t.spans();
    let selfs = self_times(spans);
    // Span durations by (statement, name); a name occurs once a statement.
    let mut by_stmt: HashMap<(u64, &str), &Span> = HashMap::new();
    let mut by_name: BTreeMap<&str, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_stmt.insert((s.stmt, s.name), s);
        by_name.entry(s.name).or_default().push(s);
    }
    let dur = |stmt: u64, name: &str| by_stmt.get(&(stmt, name)).map(|s| s.duration_ns());
    let all = |name: &str| -> Vec<u64> {
        by_name
            .get(name)
            .map_or(Vec::new(), |v| v.iter().map(|s| s.duration_ns()).collect())
    };
    let mut m = Vec::new();
    let mut extra = Vec::new();
    let push = |out: &mut Vec<Metric>, name: String, v: Option<f64>, unit: &'static str| {
        if let Some(v) = v {
            out.push(metric(name, v, unit));
        }
    };

    let ms_median = |name: &str| median_of(all(name).into_iter().map(|ns| ns as f64 / 1e6));
    push(
        &mut m,
        "tpcd.generate_ms".into(),
        ms_median("tpcd.generate"),
        "ms",
    );
    push(
        &mut m,
        "stats.analyze_ms".into(),
        ms_median("stats.analyze"),
        "ms",
    );
    // A mean, not a median: epochs published by ANALYZE arrive with their
    // model built, so the wait is ~0 on those and the statistics build on
    // the others.
    let waits: Vec<f64> = r
        .reads
        .iter()
        .filter(|x| x.new_epoch)
        .filter_map(|x| dur(x.stmt, "server.cost_model"))
        .map(|ns| ns as f64 / 1e6)
        .collect();
    let mean_wait = (!waits.is_empty()).then(|| waits.iter().sum::<f64>() / waits.len() as f64);
    push(&mut m, "server.cost_model_wait_ms".into(), mean_wait, "ms");

    let misses: Vec<&ReadTrace> = r.reads.iter().filter(|x| x.miss).collect();
    let race_self = misses.iter().filter_map(|x| {
        Some(us(
            dur(x.stmt, "choose.race")?.saturating_sub(dur(x.stmt, "core.rewrite.race")?)
        ))
    });
    push(&mut m, "choose.race_us".into(), median_of(race_self), "us");
    m.push(metric("choose.races", misses.len() as f64, "count"));
    let rewrites = misses.iter().filter_map(|x| {
        Some(us(
            dur(x.stmt, "core.rewrite.race")? + dur(x.stmt, "core.rewrite")?
        ))
    });
    push(&mut m, "core.rewrite_us".into(), median_of(rewrites), "us");

    for (span, name) in [
        ("sql.parse", "sql.parse_us"),
        ("sql.parameterize", "sql.parameterize_us"),
        ("sql.bind", "sql.bind_us"),
        ("qgm.validate", "qgm.validate_us"),
        ("core.fingerprint", "core.fingerprint_us"),
        ("plan_cache.lookup", "plan_cache.lookup_us"),
        ("qgm.rebind", "qgm.rebind_us"),
        ("server.render", "server.render_us"),
        ("server.handle", "server.handle_us"),
    ] {
        push(
            &mut m,
            name.into(),
            median_of(all(span).into_iter().map(us)),
            "us",
        );
    }
    let reads = r.reads.len().max(1) as f64;
    m.push(metric(
        "plan_cache.hit_ratio",
        r.reads.iter().filter(|x| !x.miss).count() as f64 / reads,
        "ratio",
    ));

    for (s, name) in SHAPES.iter().enumerate() {
        let of_shape: Vec<&ReadTrace> = r.reads.iter().filter(|x| x.shape == s).collect();
        let exec = of_shape
            .iter()
            .filter_map(|x| dur(x.stmt, "exec.execute"))
            .map(us);
        push(
            &mut m,
            format!("exec.execute_us.{name}"),
            median_of(exec),
            "us",
        );
        let work = of_shape.iter().map(|x| x.stats.total_work() as f64);
        push(
            &mut m,
            format!("exec.total_work.{name}"),
            median_of(work),
            "units",
        );
        let nl = of_shape.iter().map(|x| x.stats.nl_comparisons as f64);
        push(
            &mut m,
            format!("exec.nl_comparisons.{name}"),
            median_of(nl),
            "count",
        );
    }
    let total = r.reads.iter().fold(ExecStats::default(), |mut acc, x| {
        acc += x.stats;
        acc
    });
    let ratio = |a: u64, b: u64| (b > 0).then(|| a as f64 / b as f64);
    // Decorrelated plans invoke no subquery, so the memo's hit ratio
    // exists only where nested iteration runs.
    push(
        &mut extra,
        "exec.memo_hit_ratio".into(),
        ratio(total.subquery_memo_hits, total.subquery_invocations),
        "ratio",
    );
    for (name, v) in [
        (
            "exec.subquery_executions",
            total.subquery_distinct_invocations,
        ),
        ("exec.hash_probes", total.hash_probes),
        ("exec.nl_comparisons", total.nl_comparisons),
        ("exec.degradations", total.degradations),
        ("exec.shared_subplan_hits", total.shared_subplan_hits),
        ("storage.pool_misses", total.pool_misses),
        (
            "storage.pool_evictions",
            r.reads.iter().map(|x| x.pool_evictions).sum(),
        ),
        ("storage.pages_pruned", total.pages_pruned),
        ("storage.spills", total.spills),
    ] {
        m.push(metric(name, v as f64 / reads, "count/stmt"));
    }
    // Paged (durable) tables bypass the columnar cache, so its hit ratio
    // exists only on the ephemeral workloads.
    let (ch, cm) = r
        .reads
        .iter()
        .fold((0, 0), |a, x| (a.0 + x.columnar.0, a.1 + x.columnar.1));
    m.push(metric(
        "exec.columnar_cache_misses",
        cm as f64 / reads,
        "count/stmt",
    ));
    push(
        &mut extra,
        "exec.columnar_cache_hit_ratio".into(),
        ratio(ch, ch + cm),
        "ratio",
    );
    push(
        &mut extra,
        "storage.pool_hit_ratio".into(),
        ratio(total.pool_hits, total.pool_hits + total.pool_misses),
        "ratio",
    );

    // The wire: the TCP round trip minus the in-process handling of the
    // same statement.
    let wire =
        |x: &&ReadTrace| dur(x.stmt, "server.handle").map(|h| us(x.rtt.as_nanos() as u64) - us(h));
    push(
        &mut m,
        "server.wire_us".into(),
        median_of(r.reads.iter().filter_map(|x| wire(&x))),
        "us",
    );
    for (s, name) in SHAPES.iter().enumerate() {
        let of_shape = || r.reads.iter().filter(move |x| x.shape == s);
        push(
            &mut m,
            format!("server.wire_us.{name}"),
            median_of(of_shape().filter_map(|x| wire(&x))),
            "us",
        );
        push(
            &mut m,
            format!("server.reply_bytes.{name}"),
            median_of(of_shape().map(|x| x.bytes as f64)),
            "bytes",
        );
    }
    // Tracing overhead: the traced statement against the untraced
    // handle_line of the same statement.
    let overhead = r
        .reads
        .iter()
        .filter_map(|x| Some(us(dur(x.stmt, "statement")?) - us(dur(x.stmt, "server.handle")?)));
    push(
        &mut m,
        "trace.overhead_us".into(),
        median_of(overhead),
        "us",
    );
    let stmt_self = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "statement")
        .map(|(_, &n)| us(n));
    push(
        &mut extra,
        "trace.statement_self_us".into(),
        median_of(stmt_self),
        "us",
    );

    // Publishing layers, on the workloads that publish.
    let ms = |id: usize| spans[id].duration_ns() as f64 / 1e6;
    for kind in [Publish::Analyze, Publish::Load] {
        let publish_ms = r.publishes.iter().filter(|x| x.0 == kind).map(|x| ms(x.1));
        push(
            &mut extra,
            format!("server.publish_ms.{}", kind.name()),
            median_of(publish_ms),
            "ms",
        );
    }
    let commits = r
        .publishes
        .iter()
        .filter(|x| !x.2.is_empty())
        .map(|(_, p, inner)| {
            ms(*p) - inner.iter().map(|&a| ms(a)).sum::<f64>() / inner.len() as f64
        });
    if r.w.durable {
        push(
            &mut extra,
            "storage.commit_ms".into(),
            median_of(commits),
            "ms",
        );
        push(
            &mut extra,
            "storage.persist_ms".into(),
            ms_median("storage.persist"),
            "ms",
        );
    }
    Report { metrics: m, extra, mismatches: r.mismatches.clone() }
}

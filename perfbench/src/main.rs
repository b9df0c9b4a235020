//! The query service benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm-mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it starts a real `decorr-server` on loopback, drives
//! it with a closed loop of [`service::CLIENTS`] connections running the
//! workload's seeded statement streams, checks every reply against an
//! uncached serial reference and prints the end-to-end metrics. With
//! `--trace 1` it runs the same service phase and then replays the same
//! statements through each layer's public functions under spans
//! ([`replay`]), printing the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Any divergent reply, failed input self-check or replay mismatch exits
//! with status 1.
//! See `perfbench/README.md` for the metric definitions.

mod replay;
mod service;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use decorr_common::{JsonWriter, Result};

use service::{Outcome, Record, Reference, Service};
use workload::{Item, Publish, Workload, PUBLISH_EVERY, SHAPES};

/// Service set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Where runs keep their scratch files and write their spans, relative to
/// the directory the benchmark runs in.
const OUT_DIR: &str = ".perfbench";

/// Replies over this many bytes span several TCP segments.
const WIDE_REPLY_BYTES: usize = 16 << 10;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        if map.insert(key.to_string(), v.clone()).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    let mut take = |k: &str| map.remove(k).ok_or_else(|| format!("missing --{k}"));
    let name = take("workload")?;
    let workload = workload::workload(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let seed = take("seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    if let Some(k) = map.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// One printed metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// What one run found.
#[derive(Default)]
struct Outcomes {
    attempted: u64,
    failed: u64,
    divergent: Vec<String>,
    errors: Vec<String>,
    failed_checks: Vec<String>,
    /// Replayed statements that did not reproduce the service's reply.
    replay_mismatches: Vec<String>,
}

impl Outcomes {
    fn count(&mut self, records: &[Record]) {
        for r in records {
            self.attempted += 1;
            match &r.outcome {
                Outcome::Ok { .. } => {}
                Outcome::Divergent(m) => {
                    self.failed += 1;
                    self.divergent.push(m.clone());
                }
                Outcome::Shed(m) | Outcome::Error(m) => {
                    self.failed += 1;
                    self.errors.push(m.clone());
                }
            }
        }
    }

    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failed_checks.push(what.into());
        }
    }

    fn correct(&self) -> bool {
        self.divergent.is_empty()
            && self.failed_checks.is_empty()
            && self.replay_mismatches.is_empty()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn read_shape(r: &Record) -> Option<usize> {
    match r.item {
        Item::Read { shape, .. } => Some(shape),
        Item::Publish(_) => None,
    }
}

/// Latency percentiles over the measured reads, plus the workload-specific
/// write and plan-miss latencies, which only appear in the text report.
fn latency_metrics(records: &[Record], out: &mut Vec<Metric>, extra: &mut Vec<Metric>) {
    let ok: Vec<&Record> = records.iter().filter(|r| r.ok()).collect();
    let reads = stats::sorted(
        ok.iter()
            .filter(|r| read_shape(r).is_some())
            .map(|r| ms(r.rtt))
            .collect(),
    );
    if let Some(p50) = stats::median(&reads) {
        out.push(metric("p50_ms", p50, "ms"));
    }
    if let Some(p99) = stats::tail_percentile(&reads, 0.99) {
        out.push(metric("p99_ms", p99, "ms"));
    }
    if let Some([q1, _, q3]) = stats::quartiles(&reads) {
        extra.push(metric("q1_ms", q1, "ms"));
        extra.push(metric("q3_ms", q3, "ms"));
    }
    for (s, name) in SHAPES.iter().enumerate() {
        let v = stats::sorted(
            ok.iter()
                .filter(|r| read_shape(r) == Some(s))
                .map(|r| ms(r.rtt))
                .collect(),
        );
        if let Some(p50) = stats::median(&v) {
            out.push(metric(format!("p50_ms.{name}"), p50, "ms"));
        }
    }
    for p in [Publish::Analyze, Publish::Load] {
        let v = stats::sorted(
            ok.iter()
                .filter(|r| r.item == Item::Publish(p))
                .map(|r| ms(r.rtt))
                .collect(),
        );
        if let Some(p50) = stats::median(&v) {
            extra.push(metric(format!("{}_p50_ms", p.name()), p50, "ms"));
        }
    }
    let misses = stats::sorted(
        ok.iter()
            .filter(|r| matches!(r.outcome, Outcome::Ok { footer: Some(f), .. } if f.cache_miss))
            .map(|r| ms(r.rtt))
            .collect(),
    );
    if let Some(p50) = stats::median(&misses) {
        extra.push(metric("miss_p50_ms", p50, "ms"));
    }
    extra.push(metric("read_samples", reads.len() as f64, "count"));
}

/// The process's resident-set high-water mark, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Input properties each workload depends on. They look only at the
/// workload's inputs — data, settings, statement streams and reference
/// replies — never at program counters.
fn self_checks(
    w: &Workload,
    reference: &Reference,
    records: &[Record],
    outcomes: &mut Outcomes,
) -> Result<()> {
    let wide = SHAPES
        .iter()
        .position(|s| *s == "wide")
        .expect("wide is a shape");
    let wide_bytes = service::wire_bytes(&reference.reads[&(wide, 0)]);
    outcomes.check(
        wide_bytes > WIDE_REPLY_BYTES,
        format!("the wide reply is {wide_bytes} bytes, not over {WIDE_REPLY_BYTES}"),
    );
    for (s, name) in SHAPES.iter().enumerate() {
        outcomes.check(
            records.iter().any(|r| read_shape(r) == Some(s)),
            format!("shape {name} was never sampled"),
        );
    }
    let reads = records.iter().filter(|r| read_shape(r).is_some()).count();
    outcomes.check(
        stats::beyond(reads, 0.99) >= 10,
        format!("{reads} reads leave fewer than 10 samples beyond p99"),
    );
    if !w.publishes.is_empty() {
        let writer: Vec<&Record> = records.iter().filter(|r| r.client == 0).collect();
        let publishes = writer
            .iter()
            .filter(|r| matches!(r.item, Item::Publish(_)))
            .count();
        outcomes.check(
            publishes >= 1 && publishes as u64 >= writer.len() as u64 / PUBLISH_EVERY,
            format!(
                "the writer published {publishes} times in {} statements",
                writer.len()
            ),
        );
    }
    if w.durable {
        let db = service::generate_db(w)?;
        let decoded = service::decoded_bytes(&db);
        outcomes.check(
            decoded > w.pool_bytes,
            format!(
                "decoded tables ({decoded} B) fit the {} B pool",
                w.pool_bytes
            ),
        );
        for t in ["lineitem", "partsupp"] {
            let rows = db.table(t)?.len();
            outcomes.check(
                w.quota_rows < rows,
                format!(
                    "the {} row quota is not below {t}'s {rows} rows",
                    w.quota_rows
                ),
            );
        }
    }
    Ok(())
}

struct RunResult {
    outcomes: Outcomes,
    metrics: Vec<Metric>,
    /// Reported in the text output only: metrics some workloads lack.
    extra: Vec<Metric>,
}

fn run(args: &Args, work: &Path) -> Result<RunResult> {
    let w = args.workload;
    let reference = service::reference(w, work)?;
    let start = |k: usize| {
        let dir = w.durable.then(|| work.join(format!("service-{k}")));
        Service::start(w, &reference, dir)
    };
    let mut service = start(0)?;
    let mut outcomes = Outcomes::default();
    outcomes.count(&service.warmup);
    let (records, elapsed) =
        service::run_clients(w, args.seed, &mut service.clients, &reference, args.seconds)?;
    outcomes.count(&records);
    self_checks(w, &reference, &records, &mut outcomes)?;
    // Read before the extra set-ups below, whose allocations land in
    // whichever allocator arenas their threads get and would make the
    // high-water mark differ by ~10 MiB from run to run.
    let peak_rss = peak_rss_mb();

    let mut metrics = Vec::new();
    let mut extra = Vec::new();
    if args.trace {
        let sheds = service.handle.admission().stats().sheds();
        let warmup = std::mem::take(&mut service.warmup);
        Service::stop(service)?;
        let spans =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        let report = replay::replay(w, &warmup, &records, args.seconds, work, &spans)?;
        outcomes.replay_mismatches = report.mismatches;
        metrics = report.metrics;
        metrics.push(metric("server.admission_shed", sheds as f64, "count"));
        extra = report.extra;
    } else {
        let mut setups = vec![service.setup.as_secs_f64()];
        Service::stop(service)?;
        for k in 1..SETUP_REPEATS {
            let again = start(k)?;
            setups.push(again.setup.as_secs_f64());
            Service::stop(again)?;
        }
        let setup = stats::median(&stats::sorted(setups)).expect("set-ups ran");
        metrics.push(metric("setup_s", setup, "s"));
        let completed = records.iter().filter(|r| r.ok()).count();
        metrics.push(metric(
            "qps",
            completed as f64 / elapsed.as_secs_f64(),
            "1/s",
        ));
        latency_metrics(&records, &mut metrics, &mut extra);
        if let Some(rss) = peak_rss {
            metrics.push(metric("peak_rss_mb", rss, "MiB"));
        }
        let rate = outcomes.failed as f64 / outcomes.attempted.max(1) as f64;
        extra.push(metric("error_rate", rate, "ratio"));
    }
    Ok(RunResult { outcomes, metrics, extra })
}

/// Identifies the code measured: the git commit when the checkout is a git
/// repository, else a digest of the sources.
fn commit() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    use std::hash::{Hash, Hasher};
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        if let Ok(rd) = std::fs::read_dir(dir) {
            for e in rd.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, files);
                } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                    files.push(p);
                }
            }
        }
    }
    let mut files = Vec::new();
    for root in ["src", "crates"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for f in &files {
        f.hash(&mut h);
        std::fs::read(f).unwrap_or_default().hash(&mut h);
    }
    format!("source-digest:{:016x}", h.finish())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let work = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    let result = service::ScratchDir::new(work.clone()).and_then(|dir| {
        let r = run(&args, dir.path());
        drop(dir);
        r
    });
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", w.name);
            return ExitCode::from(1);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_cpus={host_cpus} scale={} \
         durable={} pool_bytes={} quota_rows={} commit={}",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        w.scale,
        w.durable,
        w.pool_bytes,
        w.quota_rows,
        commit()
    );
    for m in result.metrics.iter().chain(&result.extra) {
        println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let o = &result.outcomes;
    for (label, list) in [
        ("DIVERGENCE", &o.divergent),
        ("ERROR", &o.errors),
        ("SELF-CHECK FAILED", &o.failed_checks),
        ("REPLAY MISMATCH", &o.replay_mismatches),
    ] {
        for m in list.iter().take(5) {
            println!("{label}: {m}");
        }
        if list.len() > 5 {
            println!("{label}: … {} in all", list.len());
        }
    }
    let mut j = JsonWriter::new();
    j.begin_object();
    j.key("correct").bool(o.correct());
    j.key("attempted").uint(o.attempted);
    j.key("failed").uint(o.failed);
    j.key("metrics").begin_object();
    for m in &result.metrics {
        j.key(&m.name).begin_object();
        j.key("value").float(m.value);
        j.key("unit").string(m.unit);
        j.end_object();
    }
    j.end_object();
    j.end_object();
    println!("{}", j.finish());
    if o.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

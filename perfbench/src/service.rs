//! The untraced half: a real `decorr-server` on loopback, driven by a
//! closed loop of client connections, every reply checked against an
//! uncached serial reference.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use decorr_common::{Error, Result, Value};
use decorr_server::{
    serve, AdmissionControl, LineClient, Quotas, ServerConfig, ServerHandle, Session,
    SessionSettings, SharedCatalog, Status,
};
use decorr_storage::{Database, StoreOptions};
use decorr_tpcd::{generate, TpcdConfig};

use crate::workload::{distinct_reads, sql, Item, Publish, Stream, Workload, DATA_SEED};

/// Client connections of the closed loop (one per CPU of the build host).
pub const CLIENTS: usize = 2;

pub fn quotas(w: &Workload) -> Quotas {
    Quotas { per_query_mem_rows: w.quota_rows, ..Quotas::default() }
}

pub fn store_options(w: &Workload) -> StoreOptions {
    StoreOptions { pool_bytes: w.pool_bytes, ..StoreOptions::default() }
}

pub fn generate_db(w: &Workload) -> Result<Database> {
    generate(&TpcdConfig { scale: w.scale, seed: DATA_SEED, with_indexes: !w.durable })
}

/// Decoded in-memory size of every table, counted the way the buffer pool
/// charges a decoded column page.
pub fn decoded_bytes(db: &Database) -> usize {
    db.tables()
        .flat_map(|t| t.rows().iter())
        .flat_map(|r| r.values().iter())
        .map(|v| {
            std::mem::size_of::<Value>()
                + match v {
                    Value::Str(s) => s.len(),
                    _ => 0,
                }
        })
        .sum()
}

/// A directory of the run's work area, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(path: PathBuf) -> Result<ScratchDir> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| Error::io(format!("create {}: {e}", path.display())))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A catalog of the workload's kind over `db`: ephemeral, or durable in
/// `dir` with the workload's pool budget.
pub fn open_catalog(w: &Workload, db: Database, dir: Option<&Path>) -> Result<SharedCatalog> {
    match dir {
        Some(d) => SharedCatalog::open_durable(d, store_options(w), db),
        None => Ok(SharedCatalog::new(db)),
    }
}

/// Payload lines of a reply: `--` footers dropped, and the epoch number a
/// `\load` acknowledgement carries masked (it counts publishes, which the
/// reference cannot reproduce).
pub fn payload(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| !l.starts_with("--"))
        .map(|l| match l.find("(epoch ") {
            Some(i) if l.starts_with("TPC-D loaded") => format!("{}(epoch *)", &l[..i]),
            _ => l.clone(),
        })
        .collect()
}

pub fn digest(lines: &[String]) -> u64 {
    let mut h = DefaultHasher::new();
    lines.hash(&mut h);
    h.finish()
}

/// Bytes of a reply as the wire carries it: every line plus its newline,
/// and the `;ok <n>` terminator.
pub fn wire_bytes(lines: &[String]) -> usize {
    lines.iter().map(|l| l.len() + 1).sum::<usize>() + format!(";ok {}\n", lines.len()).len()
}

/// The counters of a statement footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    pub invocations: u64,
    pub distinct: u64,
    pub memo_hits: u64,
    pub work: u64,
    pub cache_miss: bool,
}

fn num_before(s: &str, marker: &str) -> Option<u64> {
    let head = &s[..s.find(marker)?];
    head.rsplit([' ', '(']).next()?.parse().ok()
}

/// Parse `-- N rows via … (epoch E, I subquery invocations (D distinct,
/// H memo hits), W work units, plan cache S)`.
pub fn parse_footer(line: &str) -> Option<Footer> {
    let status = line.split("plan cache ").nth(1)?.trim_end_matches(')');
    Some(Footer {
        invocations: num_before(line, " subquery invocations")?,
        distinct: num_before(line, " distinct,")?,
        memo_hits: num_before(line, " memo hits)")?,
        work: num_before(line, " work units")?,
        cache_miss: status == "miss",
    })
}

/// Reference payloads from one uncached session, serially.
pub struct Reference {
    pub reads: HashMap<(usize, usize), Vec<String>>,
    pub publishes: HashMap<Publish, Vec<String>>,
}

impl Reference {
    pub fn expected(&self, item: Item) -> &[String] {
        match item {
            Item::Read { shape, variant } => &self.reads[&(shape, variant)],
            Item::Publish(p) => &self.publishes[&p],
        }
    }
}

/// Run every distinct statement once through a fresh session with the plan
/// and shared-subplan caches off, on a catalog of the workload's own kind.
pub fn reference(w: &Workload, work: &Path) -> Result<Reference> {
    let dir = w
        .durable
        .then(|| ScratchDir::new(work.join("reference")))
        .transpose()?;
    let catalog = open_catalog(w, generate_db(w)?, dir.as_ref().map(|d| d.path()))?;
    let settings =
        SessionSettings { plan_cache: false, shared_subplans: false, ..SessionSettings::default() };
    let admission = Arc::new(AdmissionControl::new(quotas(w)));
    let mut session = Session::new(0, Arc::new(catalog), admission, settings);
    let mut reads = HashMap::new();
    for (shape, variant) in distinct_reads() {
        let resp = session.handle_line(&sql(shape, variant))?;
        reads.insert((shape, variant), payload(&resp.lines));
    }
    let mut publishes = HashMap::new();
    for &p in w.publishes {
        let resp = session.handle_line(&Item::Publish(p).line(w.scale))?;
        publishes.insert(p, payload(&resp.lines));
    }
    Ok(Reference { reads, publishes })
}

/// One statement's outcome as the client saw it.
#[derive(Debug, Clone)]
pub enum Outcome {
    Ok {
        bytes: usize,
        digest: u64,
        footer: Option<Footer>,
    },
    /// Rows differ from the reference, or the footer breaks
    /// `invocations == distinct + memo hits`.
    Divergent(String),
    Shed(String),
    Error(String),
}

#[derive(Debug, Clone)]
pub struct Record {
    pub client: usize,
    pub item: Item,
    /// Send time, from the start of the phase.
    pub start: Duration,
    pub rtt: Duration,
    pub outcome: Outcome,
}

impl Record {
    pub fn ok(&self) -> bool {
        matches!(self.outcome, Outcome::Ok { .. })
    }
}

/// Send `item` and check the reply.
pub fn exchange(
    client: &mut LineClient,
    w: &Workload,
    reference: &Reference,
    item: Item,
) -> Result<(Duration, Outcome)> {
    let line = item.line(w.scale);
    let t0 = Instant::now();
    let reply = client.request(&line)?;
    let rtt = t0.elapsed();
    let outcome = match &reply.status {
        Status::Ok => {
            let got = payload(&reply.lines);
            let footer = reply.lines.iter().rev().find_map(|l| parse_footer(l));
            if got != reference.expected(item) {
                Outcome::Divergent(format!("reply to {line:?} differs from the reference"))
            } else if let Some(f) = footer.filter(|f| f.invocations != f.distinct + f.memo_hits) {
                Outcome::Divergent(format!("footer invariant broken by {line:?}: {f:?}"))
            } else {
                Outcome::Ok { bytes: wire_bytes(&reply.lines), digest: digest(&got), footer }
            }
        }
        Status::Err(m) if reply.is_shed() => Outcome::Shed(m.clone()),
        Status::Err(m) => Outcome::Error(format!("{line:?}: {m}")),
        Status::Bye => Outcome::Error(format!("{line:?}: unexpected ;bye")),
    };
    Ok((rtt, outcome))
}

/// A warm service: the server plus its connected, warmed-up clients.
pub struct Service {
    pub handle: ServerHandle,
    pub clients: Vec<LineClient>,
    /// Warm-up outcomes, in the order sent.
    pub warmup: Vec<Record>,
    pub setup: Duration,
    _dir: Option<ScratchDir>,
}

impl Service {
    /// Generate the data, start the server (persisting it when durable),
    /// connect the clients and run the warm-up pass: every distinct read
    /// once, serially, which also builds the epoch-1 statistics.
    pub fn start(w: &Workload, reference: &Reference, dir: Option<PathBuf>) -> Result<Service> {
        let t0 = Instant::now();
        let db = generate_db(w)?;
        let dir = dir.map(ScratchDir::new).transpose()?;
        let handle = serve(
            db,
            ServerConfig {
                quotas: quotas(w),
                data_dir: dir.as_ref().map(|d| d.path().to_path_buf()),
                store: store_options(w),
                ..ServerConfig::default()
            },
        )?;
        let mut clients = (0..CLIENTS)
            .map(|_| LineClient::connect(handle.local_addr()))
            .collect::<Result<Vec<_>>>()?;
        let mut warmup = Vec::new();
        let phase = Instant::now();
        for (i, (shape, variant)) in distinct_reads().into_iter().enumerate() {
            let client = i % CLIENTS;
            let item = Item::Read { shape, variant };
            let start = phase.elapsed();
            let (rtt, outcome) = exchange(&mut clients[client], w, reference, item)?;
            warmup.push(Record { client, item, start, rtt, outcome });
        }
        Ok(Service { handle, clients, warmup, setup: t0.elapsed(), _dir: dir })
    }

    /// Disconnect every client, stop the server and wait until its
    /// session threads have let go of the catalog, so the next set-up never
    /// overlaps this one's memory (`peak_rss_mb`) or data directory.
    pub fn stop(self) -> Result<()> {
        let Service { mut handle, clients, _dir, .. } = self;
        let catalog = Arc::downgrade(&handle.catalog());
        for c in clients {
            c.quit()?;
        }
        handle.shutdown();
        drop(handle);
        let deadline = Instant::now() + Duration::from_secs(10);
        while catalog.strong_count() > 0 {
            if Instant::now() > deadline {
                return Err(Error::internal("server sessions did not exit within 10 s"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

/// The measured phase: every client runs its seeded stream in a closed
/// loop until `seconds` have passed. Returns every record and the phase's
/// wall time (to the last reply).
pub fn run_clients(
    w: &Workload,
    seed: u64,
    clients: &mut [LineClient],
    reference: &Reference,
    seconds: f64,
) -> Result<(Vec<Record>, Duration)> {
    let phase = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let per_client: Vec<Result<Vec<Record>>> = std::thread::scope(|scope| {
        let joins: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(client, conn)| {
                scope.spawn(move || -> Result<Vec<Record>> {
                    let mut out = Vec::new();
                    for item in Stream::new(w, seed, client) {
                        let start = phase.elapsed();
                        if start >= deadline {
                            break;
                        }
                        let (rtt, outcome) = exchange(conn, w, reference, item)?;
                        out.push(Record { client, item, start, rtt, outcome });
                    }
                    Ok(out)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| Err(Error::internal("client thread panicked")))
            })
            .collect()
    });
    let elapsed = phase.elapsed();
    let mut records = Vec::new();
    for r in per_client {
        records.extend(r?);
    }
    records.sort_by_key(|r| r.start);
    Ok((records, elapsed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footer_parses() {
        let f = parse_footer(
            "-- 3 rows via magic (est cost 12) in 0.5 ms (epoch 4, 10 subquery invocations \
             (6 distinct, 4 memo hits), 5082 work units, plan cache miss)",
        )
        .unwrap();
        assert_eq!(
            f,
            Footer { invocations: 10, distinct: 6, memo_hits: 4, work: 5082, cache_miss: true }
        );
        assert!(parse_footer("-- statistics published as epoch 3").is_none());
    }

    #[test]
    fn payload_drops_footers_and_masks_load_epochs() {
        let lines = vec![
            "TPC-D loaded at scale 0.1 (epoch 7)".to_string(),
            "(1, 2)".to_string(),
            "-- 1 rows via NI".to_string(),
        ];
        assert_eq!(
            payload(&lines),
            vec!["TPC-D loaded at scale 0.1 (epoch *)", "(1, 2)"]
        );
    }
}

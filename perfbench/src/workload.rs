//! The four workloads, driven through the engine's public facade.
//!
//! Each workload sets up a product on the file device, measures one or two
//! closed-loop clients, checks every value it reads, and reports counts
//! taken from outside the engine: `Database::stats()`, `pool_stats()` and
//! the benchmark's own device wrapper. See `README.md` for why each
//! workload exists and how its data compares with its buffer pool.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering::SeqCst};
use std::sync::Arc;

use fame_dbms::fame_buffer::{Concurrency, PoolStats, ReplacementKind};
use fame_dbms::fame_os::FileDevice;
use fame_dbms::fame_txn::CommitPolicy;
use fame_dbms::{
    BufferConfig, Database, DbReader, DbWriter, DbmsConfig, DbmsError, StatsSnapshot, TxnConfig,
    TxnHandle, WriteBatch,
};

use crate::dev::{DevCounters, DevSnap, Role, TimedDevice};
use crate::gen::{append_base, decode, value, Keys, Rng, VALUE_LEN};
use crate::lat::{median, now_ns, LatSummary, LatWindows};
use crate::trace::{self, Kind, Span};

/// Page size of every product.
pub const PAGE_SIZE: usize = 512;
/// Key length: 4-byte big-endian.
pub const KEY_LEN: usize = 4;
/// Keys per `apply_batch` call in `batch_load`.
pub const BATCH_KEYS: u32 = 64;
/// Batches applied during `batch_load` set-up.
const WARM_BATCHES: u32 = 512;
/// Puts per `rw_mix` writer transaction (after its one get).
pub const TXN_PUTS: usize = 4;
/// Attempts per writer transaction before it counts as failed.
const TXN_ATTEMPTS: u32 = 16;
/// Uniform gets that bring the `get_cold` pool to steady state.
const COLD_WARM_GETS: u32 = 20_000;
/// Records per `apply_batch` call while preloading.
const PRELOAD_CHUNK: usize = 4_096;
/// Span buffer per client thread in a traced phase.
const SPAN_CAPACITY: usize = 300_000;

/// Workload names (fixed; later changes cite them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    GetHot,
    GetCold,
    RwMix,
    BatchLoad,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GetHot,
        Workload::GetCold,
        Workload::RwMix,
        Workload::BatchLoad,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GetHot => "get_hot",
            Workload::GetCold => "get_cold",
            Workload::RwMix => "rw_mix",
            Workload::BatchLoad => "batch_load",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Data and pool sizes of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub workload: Workload,
    /// Preloaded records (0 for `batch_load`, whose tree grows from empty).
    pub records: u32,
    /// Buffer-pool frames.
    pub frames: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Spec {
    /// The sizes the benchmark runs.
    pub fn standard(workload: Workload) -> Spec {
        let (records, frames, setup_reps) = match workload {
            Workload::GetHot => (50_000, 8_192, 5),
            Workload::GetCold => (400_000, 1_024, 3),
            Workload::RwMix => (50_000, 8_192, 5),
            Workload::BatchLoad => (0, 1_024, 5),
        };
        Spec {
            workload,
            records,
            frames,
            setup_reps,
        }
    }
}

/// How long and how a run measures.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Measured seconds (split between an untraced and a traced phase when
    /// `trace` is set).
    pub seconds: f64,
    pub trace: bool,
    /// Stop each client after this many operations instead of on time
    /// (the exact-count self-check); no traced phase then.
    pub ops: Option<u64>,
    /// Scratch directory for the database files.
    pub work: PathBuf,
}

/// When a client loop ends.
#[derive(Clone, Copy)]
struct Stop {
    end_ns: u64,
    max_ops: u64,
    on_trace_full: bool,
}

impl Stop {
    fn after(seconds: f64, max_ops: Option<u64>, on_trace_full: bool) -> Stop {
        Stop {
            end_ns: now_ns() + (seconds * 1e9) as u64,
            max_ops: max_ops.unwrap_or(u64::MAX),
            on_trace_full,
        }
    }
}

/// One client's measured phase.
#[derive(Clone, Debug, Default)]
pub struct ClientRun {
    /// Client number: the top 16 bits of its operation ids.
    pub tag: u64,
    pub ops: u64,
    pub failed: u64,
    /// Retried attempts (writer transactions only).
    pub retries: u64,
    pub elapsed_ns: u64,
    pub lat: LatSummary,
}

impl ClientRun {
    /// Throughput: the median over windows of the window's rate, or the
    /// whole phase's rate when it was too short for a window.
    pub fn ops_s(&self) -> f64 {
        if self.lat.ops_s > 0.0 {
            self.lat.ops_s
        } else {
            self.ops as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
        }
    }

    /// Mean wall time per operation, in ns.
    pub fn ns_per_op(&self) -> f64 {
        self.elapsed_ns as f64 / self.ops.max(1) as f64
    }
}

/// Spans one operation of a client records: its facade calls plus the
/// device calls they make.
fn spans_per_op(run: &ClientRun, facade_calls: f64, device_calls: u64) -> f64 {
    facade_calls + device_calls as f64 / run.ops.max(1) as f64
}

/// Sampling period that lets a client's span buffer last a traced phase of
/// `secs`, at the client's untraced rate, with room to spare.
fn sampling(run: &ClientRun, secs: f64, spans_per_op: f64) -> u64 {
    let expected = run.ops_s() * secs * spans_per_op;
    (2.0 * expected / SPAN_CAPACITY as f64).ceil().max(1.0) as u64
}

/// Closed loop: issue `op(n)` until `stop`, timing each call. The end of
/// one call is the start of the next, so one clock read per operation.
/// While tracing, spans are kept for one operation in `every`.
fn drive(stop: Stop, client: u64, every: u64, mut op: impl FnMut(u64) -> OpResult) -> ClientRun {
    trace::sample_every(every);
    let mut lat = LatWindows::new();
    let start = now_ns();
    let mut t = start;
    let mut run = ClientRun {
        tag: client,
        ..ClientRun::default()
    };
    while run.ops < stop.max_ops && t < stop.end_ns && !(stop.on_trace_full && trace::full()) {
        let r = op(client << 48 | run.ops);
        let t1 = now_ns();
        lat.record(t1 - t, t1);
        t = t1;
        run.ops += 1;
        run.failed += u64::from(!r.ok);
        run.retries += r.retries;
    }
    run.elapsed_ns = t - start;
    run.lat = lat.finish();
    run
}

struct OpResult {
    ok: bool,
    retries: u64,
}

impl OpResult {
    fn of(ok: bool) -> OpResult {
        OpResult { ok, retries: 0 }
    }
}

/// Counts of the measured phase, as deltas.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub pool: PoolStats,
    pub data: DevSnap,
    pub log: DevSnap,
    pub allocs: u64,
    pub log_syncs: u64,
    pub log_bytes: u64,
    pub commits: u64,
    pub engine_aborts: u64,
    pub lock_waits: u64,
    pub deadlock_aborts: u64,
    pub timeout_aborts: u64,
    pub commit_p50_ns: u64,
    pub commit_p99_ns: u64,
    /// Key + value bytes the clients asked to write.
    pub user_bytes: u64,
}

/// The traced phase of a run.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    pub clients: Vec<ClientRun>,
    pub spans: Vec<Span>,
    pub data: DevSnap,
    pub log: DevSnap,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub setup_samples: Vec<f64>,
    /// Tree pages after set-up, for the data-to-pool ratio.
    pub tree_pages: u32,
    /// Untraced clients: `get` / `txn` / `batch`.
    pub clients: Vec<(&'static str, ClientRun)>,
    pub counts: Counts,
    pub traced: Option<Traced>,
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    pub reopen_s: Option<f64>,
    pub recovery_redo: u64,
    /// Peak resident memory after set-up and warm-up, in MiB.
    pub rss_setup_mib: f64,
    /// Peak resident memory at the end of the measured phases, in MiB.
    pub rss_peak_mib: f64,
    /// Sampled keys the probes look up (the workload's own keys).
    pub probe_keys: Vec<u32>,
    /// The data file the probes open.
    pub data_path: PathBuf,
}

impl Outcome {
    /// Count `ops` attempted operations of which `failed` failed.
    fn tally(&mut self, ops: u64, failed: u64) {
        self.attempted += ops;
        self.failed += failed;
    }

    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.tally(1, u64::from(!ok));
        self.checks.push((name.into(), ok));
    }
}

type Result<T> = std::result::Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The product a workload runs, as a runtime configuration of the `full`
/// build.
#[derive(Clone, Copy)]
enum Product {
    /// Single product without transactions.
    Single,
    /// MultiWriter product with `Group{4}` commit.
    MultiWriter,
    /// Single product with transactions and `Force` commit.
    SingleForce,
}

/// The commit protocol of a workload's product (`Force` where it has none).
pub fn commit_policy(w: Workload) -> CommitPolicy {
    match w {
        Workload::RwMix => CommitPolicy::Group { group_size: 4 },
        _ => CommitPolicy::Force,
    }
}

fn config(product: Product, path: &Path, frames: usize) -> DbmsConfig {
    let mut c = DbmsConfig::on_file(path);
    c.page_size = PAGE_SIZE;
    c.buffer = Some(BufferConfig {
        frames,
        replacement: ReplacementKind::Lru,
        static_alloc: false,
    });
    match product {
        Product::Single => {}
        Product::MultiWriter => {
            c.concurrency = Concurrency::MultiWriter { shards: 0 };
            c.transactions = Some(TxnConfig {
                commit: commit_policy(Workload::RwMix),
            });
        }
        Product::SingleForce => {
            c.transactions = Some(TxnConfig {
                commit: commit_policy(Workload::BatchLoad),
            });
        }
    }
    c
}

/// An open database over fresh files wrapped in timing devices.
struct Opened {
    db: Database,
    data: Arc<DevCounters>,
    log: Option<Arc<DevCounters>>,
}

fn open_fresh(product: Product, path: &Path, frames: usize) -> Result<Opened> {
    let log_path = log_path(path);
    for p in [path, log_path.as_path()] {
        if p.exists() {
            std::fs::remove_file(p).map_err(err("remove old file"))?;
        }
    }
    let data_dev = FileDevice::create(path, PAGE_SIZE).map_err(err("create data file"))?;
    let (data_dev, data) = TimedDevice::new(Box::new(data_dev), Role::Data);
    let config = config(product, path, frames);
    let (log_dev, log) = if config.transactions.is_some() {
        let dev = FileDevice::create(&log_path, PAGE_SIZE).map_err(err("create log file"))?;
        let (dev, counters) = TimedDevice::new(Box::new(dev), Role::Log);
        (Some(Box::new(dev) as _), Some(counters))
    } else {
        (None, None)
    };
    let db = Database::open_with_devices(config, Box::new(data_dev), log_dev)
        .map_err(err("open_with_devices"))?;
    Ok(Opened { db, data, log })
}

/// The engine names the log `<data file>.log`.
fn log_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .expect("data path has a file name")
        .to_os_string();
    name.push(".log");
    path.with_file_name(name)
}

/// Pages in a database file: the tree plus the meta page, once synced.
fn file_pages(path: &Path) -> Result<u32> {
    let len = std::fs::metadata(path)
        .map_err(err("stat data file"))?
        .len();
    Ok((len / PAGE_SIZE as u64) as u32)
}

fn sorted_keys(keys: &Keys, records: u32) -> Vec<u32> {
    let mut ks: Vec<u32> = (0..records).map(|i| keys.key(i)).collect();
    ks.sort_unstable();
    ks
}

/// Peak resident set of this process so far, in MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn pool_delta(after: PoolStats, before: PoolStats) -> PoolStats {
    PoolStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        writebacks: after.writebacks - before.writebacks,
        latch_waits: after.latch_waits - before.latch_waits,
    }
}

/// Counters before a measured phase.
struct Marks {
    pool: PoolStats,
    data: DevSnap,
    log: DevSnap,
    stats: Option<StatsSnapshot>,
}

fn mark(o: &mut Opened, with_stats: bool) -> Result<Marks> {
    // `stats()` walks the tree; take it first so the cheap counters below
    // start after the walk.
    let stats = if with_stats {
        Some(o.db.stats().map_err(err("stats"))?)
    } else {
        None
    };
    Ok(Marks {
        pool: o.db.pool_stats(),
        data: o.data.snap(),
        log: o.log.as_ref().map(|l| l.snap()).unwrap_or_default(),
        stats,
    })
}

fn counts_since(o: &mut Opened, m: &Marks) -> Result<Counts> {
    let pool = pool_delta(o.db.pool_stats(), m.pool);
    let data = o.data.snap().since(&m.data);
    let log = o
        .log
        .as_ref()
        .map(|l| l.snap().since(&m.log))
        .unwrap_or_default();
    let mut c = Counts {
        pool,
        data,
        log,
        ..Counts::default()
    };
    if let Some(s0) = &m.stats {
        let s1 = o.db.stats().map_err(err("stats"))?;
        c.allocs = s1.pager_ops.allocs - s0.pager_ops.allocs;
        c.log_syncs = s1.log_syncs.unwrap_or(0) - s0.log_syncs.unwrap_or(0);
        c.log_bytes = s1.log_bytes.unwrap_or(0) - s0.log_bytes.unwrap_or(0);
        let (c1, a1) = s1.txn.unwrap_or((0, 0));
        let (c0, a0) = s0.txn.unwrap_or((0, 0));
        c.commits = c1 - c0;
        c.engine_aborts = a1 - a0;
        if let (Some(l1), Some(l0)) = (&s1.locks, &s0.locks) {
            c.lock_waits = l1.waits - l0.waits;
            c.deadlock_aborts = l1.deadlock_aborts - l0.deadlock_aborts;
            c.timeout_aborts = l1.timeout_aborts - l0.timeout_aborts;
        }
        if let Some(h) = &s1.commit_latency {
            c.commit_p50_ns = h.percentile_ns(50);
            c.commit_p99_ns = h.percentile_ns(99);
        }
    }
    Ok(c)
}

/// The engine's own device counters must equal what the wrapper saw.
fn check_device_counts(out: &mut Outcome, o: &Opened) {
    let engine = o.db.device_stats();
    let seen = o.data.snap();
    out.check(
        format!(
            "data device counts: wrapper {}r/{}w/{}s, engine {}r/{}w/{}s",
            seen.reads, seen.writes, seen.syncs, engine.reads, engine.writes, engine.syncs
        ),
        engine.reads == seen.reads && engine.writes == seen.writes && engine.syncs == seen.syncs,
    );
    if let (Some(log), Some(engine_syncs)) = (&o.log, o.db.log_syncs()) {
        let seen = log.snap().syncs;
        out.check(
            format!("log syncs: wrapper {seen}, engine {engine_syncs}"),
            seen == engine_syncs,
        );
    }
}

fn check_integrity(out: &mut Outcome, db: &mut Database, when: &str) {
    match db.verify_integrity() {
        Ok(report) => out.check(format!("verify_integrity {when}: {report}"), report.is_ok()),
        Err(e) => out.check(format!("verify_integrity {when}: {e}"), false),
    }
}

/// Read every key back and compare its value bytes; returns mismatches.
fn verify_all(
    db: &mut Database,
    seed: u64,
    expect: impl Iterator<Item = (u32, u32)>,
) -> (u64, u64) {
    let mut n = 0;
    let mut bad = 0;
    for (key, version) in expect {
        let want = value(seed, key, version);
        n += 1;
        if !matches!(
            db.get_with(&key.to_be_bytes(), |v| v == want),
            Ok(Some(true))
        ) {
            bad += 1;
        }
    }
    (n, bad)
}

/// Time `reps` set-ups; keep the last one open.
fn timed_setups(
    reps: usize,
    mut setup: impl FnMut() -> Result<Opened>,
) -> Result<(Opened, Vec<f64>)> {
    let mut samples = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        // Drop the previous set-up (flushing its pool) before timing.
        drop(kept.take());
        let t0 = now_ns();
        let o = setup()?;
        samples.push((now_ns() - t0) as f64 / 1e9);
        kept = Some(o);
    }
    Ok((kept.expect("at least one set-up"), samples))
}

/// Run `phase` with span recording on; returns its result and the data
/// and log device calls made meanwhile.
fn traced_phase<R>(
    data: &DevCounters,
    log: Option<&DevCounters>,
    phase: impl FnOnce() -> R,
) -> (R, DevSnap, DevSnap) {
    let snap_log = || log.map(|l| l.snap()).unwrap_or_default();
    let (d0, l0) = (data.snap(), snap_log());
    trace::enable(SPAN_CAPACITY);
    let r = phase();
    trace::disable();
    (r, data.snap().since(&d0), snap_log().since(&l0))
}

/// Split the measured seconds between an untraced and a traced phase.
fn phases(plan: &Plan) -> (f64, Option<f64>) {
    match (plan.trace, plan.ops) {
        (true, None) => (plan.seconds / 2.0, Some(plan.seconds / 2.0)),
        _ => (plan.seconds, None),
    }
}

/// Run one workload.
pub fn run(spec: &Spec, plan: &Plan) -> Result<Outcome> {
    std::fs::create_dir_all(&plan.work).map_err(err("create work dir"))?;
    let path = plan.work.join("data.db");
    let mut out = match spec.workload {
        Workload::GetHot | Workload::GetCold => run_get(spec, plan, &path)?,
        Workload::RwMix => run_rw_mix(spec, plan, &path)?,
        Workload::BatchLoad => run_batch_load(spec, plan, &path)?,
    };
    out.setup_s = median(&mut out.setup_samples.clone());
    out.data_path = path;
    Ok(out)
}

// ---- get_hot / get_cold -----------------------------------------------------

fn run_get(spec: &Spec, plan: &Plan, path: &Path) -> Result<Outcome> {
    let seed = plan.seed;
    let keys = Keys::new(seed);
    let n = spec.records;
    let sorted = sorted_keys(&keys, n);
    let (mut o, setup_samples) = timed_setups(spec.setup_reps, || {
        let mut o = open_fresh(Product::Single, path, spec.frames)?;
        for chunk in sorted.chunks(PRELOAD_CHUNK) {
            let mut b = WriteBatch::new();
            for &k in chunk {
                b.put(&k.to_be_bytes(), &value(seed, k, 0));
            }
            o.db.apply_batch(b).map_err(err("preload apply_batch"))?;
        }
        o.db.sync().map_err(err("sync"))?;
        // Warm-up: get_hot reads every record once, so every page is
        // resident; get_cold issues uniform gets until the pool is in
        // steady state (many times its frame count in misses).
        if spec.workload == Workload::GetHot {
            for i in 0..n {
                let k = keys.key(i);
                o.db.get_with(&k.to_be_bytes(), |_| ())
                    .map_err(err("warm-up get"))?;
            }
        } else {
            let mut warm = Rng::new(seed, 1);
            for _ in 0..COLD_WARM_GETS {
                let k = keys.key(warm.below(n));
                o.db.get_with(&k.to_be_bytes(), |_| ())
                    .map_err(err("warm-up get"))?;
            }
        }
        Ok(o)
    })?;
    let mut out = Outcome {
        setup_samples,
        rss_setup_mib: rss_peak_mib(),
        ..Outcome::default()
    };
    out.tree_pages = file_pages(path)?;
    match spec.workload {
        Workload::GetHot => out.check(
            format!(
                "tree of {} pages fits the {}-frame pool",
                out.tree_pages, spec.frames
            ),
            out.tree_pages as usize <= spec.frames,
        ),
        _ => out.check(
            format!(
                "{}-frame pool under 1/8 of the {}-page tree",
                spec.frames, out.tree_pages
            ),
            spec.frames * 8 < out.tree_pages as usize,
        ),
    }
    let mut rng = Rng::new(seed, 3);
    let mut get = |db: &mut Database, op: u64| {
        let key = keys.key(rng.below(n));
        let want = value(seed, key, 0);
        let r = trace::facade(Kind::Get, op, || {
            db.get_with(&key.to_be_bytes(), |v| v == want)
        });
        OpResult::of(matches!(r, Ok(Some(true))))
    };
    let (untraced_s, traced_s) = phases(plan);
    let m = mark(&mut o, false)?;
    let run = drive(Stop::after(untraced_s, plan.ops, false), 0, 1, |op| {
        get(&mut o.db, op)
    });
    out.counts = counts_since(&mut o, &m)?;
    let every = traced_s.map_or(1, |secs| {
        sampling(&run, secs, spans_per_op(&run, 1.0, out.counts.data.reads))
    });
    out.rss_peak_mib = rss_peak_mib();
    out.tally(run.ops, run.failed);
    out.clients.push(("get", run));

    if let Some(secs) = traced_s {
        let data = Arc::clone(&o.data);
        let (run, data, log) = traced_phase(&data, None, || {
            drive(Stop::after(secs, None, true), 0, every, |op| {
                get(&mut o.db, op)
            })
        });
        out.tally(run.ops, run.failed);
        out.traced = Some(Traced {
            clients: vec![run],
            spans: trace::take(),
            data,
            log,
        });
    }

    check_device_counts(&mut out, &o);
    check_integrity(&mut out, &mut o.db, "after run");
    let (checked, bad) = verify_all(&mut o.db, seed, sorted.iter().map(|&k| (k, 0)));
    out.tally(checked, bad);
    out.check(
        format!("{checked} records read back, {bad} wrong"),
        bad == 0,
    );
    out.probe_keys = sample_keys(&keys, n, seed);
    Ok(out)
}

/// A seeded sample of record keys for the probe loops.
fn sample_keys(keys: &Keys, n: u32, seed: u64) -> Vec<u32> {
    let mut r = Rng::new(seed, 9);
    (0..4_096).map(|_| keys.key(r.below(n))).collect()
}

// ---- rw_mix -----------------------------------------------------------------

/// State of the single writer: the committed version of every record.
struct WriterState {
    versions: Vec<u32>,
    rng: Rng,
}

fn writer_txn(
    w: &DbWriter,
    st: &mut WriterState,
    issued: &[AtomicU32],
    keys: &Keys,
    seed: u64,
    op: u64,
) -> OpResult {
    let n = st.versions.len() as u32;
    let read = st.rng.below(n) as usize;
    let mut puts = [0usize; TXN_PUTS];
    for i in 0..TXN_PUTS {
        puts[i] = loop {
            let c = st.rng.below(n) as usize;
            if !puts[..i].contains(&c) {
                break c;
            }
        };
    }
    let mut retries = 0;
    for _ in 0..TXN_ATTEMPTS {
        let Ok(txn) = w.begin() else {
            retries += 1;
            continue;
        };
        match txn_body(w, txn, st, read, &puts, issued, keys, seed, op) {
            Ok(read_ok) => {
                for &i in &puts {
                    st.versions[i] += 1;
                }
                return OpResult {
                    ok: read_ok,
                    retries,
                };
            }
            Err(_) => {
                let _ = w.abort(txn);
                retries += 1;
            }
        }
    }
    OpResult { ok: false, retries }
}

/// One attempt: a transactional get of `read`, a put of the next version
/// of each of `puts`, commit. Returns whether the get saw the committed
/// value.
#[allow(clippy::too_many_arguments)]
fn txn_body(
    w: &DbWriter,
    txn: TxnHandle,
    st: &WriterState,
    read: usize,
    puts: &[usize],
    issued: &[AtomicU32],
    keys: &Keys,
    seed: u64,
    op: u64,
) -> std::result::Result<bool, DbmsError> {
    let key = keys.key(read as u32);
    let got = trace::facade(Kind::TxnGet, op, || w.get(txn, &key.to_be_bytes()))?;
    let read_ok = got.as_deref() == Some(&value(seed, key, st.versions[read])[..]);
    for &i in puts {
        let key = keys.key(i as u32);
        let next = st.versions[i] + 1;
        issued[i].fetch_max(next, SeqCst);
        trace::facade(Kind::TxnPut, op, || {
            w.put(txn, &key.to_be_bytes(), &value(seed, key, next))
        })?;
    }
    trace::facade(Kind::TxnCommit, op, || w.commit(txn))?;
    Ok(read_ok)
}

fn reader_get(
    r: &mut DbReader,
    rng: &mut Rng,
    issued: &[AtomicU32],
    keys: &Keys,
    seed: u64,
    op: u64,
) -> OpResult {
    let i = rng.below(issued.len() as u32);
    let key = keys.key(i);
    let got = trace::facade(Kind::Get, op, || {
        r.get_with(&key.to_be_bytes(), |v| decode(seed, key, v))
    });
    // The value must be the preload or a version the writer wrote; the
    // writer publishes a version in `issued` before it puts it.
    OpResult::of(matches!(got, Ok(Some(Some(v))) if v <= issued[i as usize].load(SeqCst)))
}

/// Run the reader and the writer side by side until `stop`; `every` is the
/// span sampling period of each.
#[allow(clippy::too_many_arguments)]
fn mixed_phase(
    db: &Database,
    st: &mut WriterState,
    issued: &[AtomicU32],
    keys: &Keys,
    seed: u64,
    stop: Stop,
    read_stream: u64,
    every: (u64, u64),
) -> Result<(ClientRun, ClientRun, Vec<Span>)> {
    let mut reader = db.reader().map_err(err("reader"))?;
    let writer = db.writer().map_err(err("writer"))?;
    let (read_run, write_run, spans) = std::thread::scope(|s| {
        let h = s.spawn(move || {
            let mut rng = Rng::new(seed, read_stream);
            let run = drive(stop, 1, every.0, |op| {
                reader_get(&mut reader, &mut rng, issued, keys, seed, op)
            });
            (run, trace::take())
        });
        let write_run = drive(stop, 2, every.1, |op| {
            writer_txn(&writer, st, issued, keys, seed, op)
        });
        let mut spans = trace::take();
        let (read_run, reader_spans) = h.join().expect("reader thread panicked");
        spans.extend(reader_spans);
        (read_run, write_run, spans)
    });
    Ok((read_run, write_run, spans))
}

fn run_rw_mix(spec: &Spec, plan: &Plan, path: &Path) -> Result<Outcome> {
    let seed = plan.seed;
    let keys = Keys::new(seed);
    let n = spec.records;
    let sorted = sorted_keys(&keys, n);
    let (mut o, setup_samples) = timed_setups(spec.setup_reps, || {
        let mut o = open_fresh(Product::MultiWriter, path, spec.frames)?;
        // Preload outside transactions, then make it durable: the log
        // starts empty and holds only the measured writer's transactions.
        for &k in &sorted {
            o.db.put(&k.to_be_bytes(), &value(seed, k, 0))
                .map_err(err("preload put"))?;
        }
        o.db.sync().map_err(err("sync"))?;
        let mut r = o.db.reader().map_err(err("reader"))?;
        let mut warm = Rng::new(seed, 1);
        for _ in 0..100_000 {
            let k = keys.key(warm.below(n));
            r.get_with(&k.to_be_bytes(), |_| ())
                .map_err(err("warm-up get"))?;
        }
        Ok(o)
    })?;
    let mut out = Outcome {
        setup_samples,
        rss_setup_mib: rss_peak_mib(),
        ..Outcome::default()
    };
    let issued: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let mut st = WriterState {
        versions: vec![0; n as usize],
        rng: Rng::new(seed, 4),
    };
    let (untraced_s, traced_s) = phases(plan);
    let m = mark(&mut o, true)?;
    out.tree_pages = m.stats.as_ref().map_or(0, |s| s.allocated_pages);
    out.check(
        format!(
            "tree of {} pages fits the {}-frame pool",
            out.tree_pages, spec.frames
        ),
        out.tree_pages as usize <= spec.frames,
    );
    let stop = Stop::after(untraced_s, plan.ops, false);
    let (read_run, write_run, _) =
        mixed_phase(&o.db, &mut st, &issued, &keys, seed, stop, 5, (1, 1))?;
    out.counts = counts_since(&mut o, &m)?;
    let c = &out.counts;
    // The pool holds the whole tree, so device calls are the writer's.
    let device_calls = c.data.reads + c.data.writes + c.data.syncs + c.log.writes + c.log.syncs;
    let facade_per_txn = (2 + TXN_PUTS) as f64;
    let every = traced_s.map_or((1, 1), |secs| {
        (
            sampling(&read_run, secs, 1.0),
            sampling(
                &write_run,
                secs,
                spans_per_op(&write_run, facade_per_txn, device_calls),
            ),
        )
    });
    out.counts.user_bytes = write_run.ops * (TXN_PUTS * (KEY_LEN + VALUE_LEN)) as u64;
    out.rss_peak_mib = rss_peak_mib();
    for run in [&read_run, &write_run] {
        out.tally(run.ops, run.failed);
    }
    out.clients.push(("get", read_run));
    out.clients.push(("txn", write_run));

    if let Some(secs) = traced_s {
        let stop = Stop::after(secs, None, true);
        let (phase, data, log) = traced_phase(&o.data, o.log.as_deref(), || {
            mixed_phase(&o.db, &mut st, &issued, &keys, seed, stop, 6, every)
        });
        let (read_run, write_run, spans) = phase?;
        for run in [&read_run, &write_run] {
            out.tally(run.ops, run.failed);
        }
        out.traced = Some(Traced {
            clients: vec![read_run, write_run],
            spans,
            data,
            log,
        });
    }

    check_device_counts(&mut out, &o);
    check_integrity(&mut out, &mut o.db, "after run");
    let expect = |versions: &[u32]| {
        let versions = versions.to_vec();
        (0..n).map(move |i| (keys.key(i), versions[i as usize]))
    };
    let (checked, bad) = verify_all(&mut o.db, seed, expect(&st.versions));
    out.tally(checked, bad);
    out.check(
        format!("{checked} records hold their last committed value, {bad} wrong"),
        bad == 0,
    );

    reopen(
        &mut out,
        o,
        Product::MultiWriter,
        path,
        spec.frames,
        seed,
        expect(&st.versions),
    )?;
    out.probe_keys = sample_keys(&keys, n, seed);
    Ok(out)
}

/// Drop the database without a checkpoint, time `Database::open` on the
/// files it left (recovery), and read every acknowledged key back.
fn reopen(
    out: &mut Outcome,
    o: Opened,
    product: Product,
    path: &Path,
    frames: usize,
    seed: u64,
    expect: impl Iterator<Item = (u32, u32)>,
) -> Result<()> {
    drop(o);
    let t0 = now_ns();
    let mut db = Database::open(config(product, path, frames)).map_err(err("reopen"))?;
    out.reopen_s = Some((now_ns() - t0) as f64 / 1e9);
    out.recovery_redo = db.last_recovery().map_or(0, |r| r.redo_applied as u64);
    let (checked, bad) = verify_all(&mut db, seed, expect);
    out.tally(checked, bad);
    out.check(
        format!("after reopen {checked} acknowledged keys read back, {bad} wrong"),
        bad == 0,
    );
    check_integrity(out, &mut db, "after reopen");
    db.sync().map_err(err("sync after reopen"))?;
    Ok(())
}

// ---- batch_load -------------------------------------------------------------

fn run_batch_load(spec: &Spec, plan: &Plan, path: &Path) -> Result<Outcome> {
    let seed = plan.seed;
    let base = append_base(seed);
    let mut next_key = 0u32;
    let batch = |first: u32| {
        let mut b = WriteBatch::new();
        for k in first..first + BATCH_KEYS {
            b.put(&(base + k).to_be_bytes(), &value(seed, base + k, 0));
        }
        b
    };
    let (mut o, setup_samples) = timed_setups(spec.setup_reps, || {
        let mut o = open_fresh(Product::SingleForce, path, spec.frames)?;
        o.db.sync().map_err(err("sync"))?;
        for i in 0..WARM_BATCHES {
            o.db.apply_batch(batch(i * BATCH_KEYS))
                .map_err(err("warm-up batch"))?;
        }
        Ok(o)
    })?;
    next_key += WARM_BATCHES * BATCH_KEYS;
    let mut out = Outcome {
        setup_samples,
        rss_setup_mib: rss_peak_mib(),
        ..Outcome::default()
    };
    let mut load = |db: &mut Database, op: u64| {
        let b = batch(next_key);
        let r = trace::facade(Kind::Batch, op, || db.apply_batch(b));
        // A key counts as loaded (acknowledged) once its batch returned Ok.
        if r.is_ok() {
            next_key += BATCH_KEYS;
        }
        OpResult::of(r.is_ok())
    };
    let (untraced_s, traced_s) = phases(plan);
    let m = mark(&mut o, true)?;
    let run = drive(Stop::after(untraced_s, plan.ops, false), 0, 1, |op| {
        load(&mut o.db, op)
    });
    out.counts = counts_since(&mut o, &m)?;
    let c = &out.counts;
    let device_calls = c.data.reads + c.data.writes + c.data.syncs + c.log.writes + c.log.syncs;
    let every = traced_s.map_or(1, |secs| {
        sampling(&run, secs, spans_per_op(&run, 1.0, device_calls))
    });
    out.counts.user_bytes = run.ops * u64::from(BATCH_KEYS) * (KEY_LEN + VALUE_LEN) as u64;
    out.rss_peak_mib = rss_peak_mib();
    out.tally(run.ops, run.failed);
    out.clients.push(("batch", run));

    if let Some(secs) = traced_s {
        let (data, log) = (Arc::clone(&o.data), o.log.clone());
        let (run, data, log) = traced_phase(&data, log.as_deref(), || {
            drive(Stop::after(secs, None, true), 0, every, |op| {
                load(&mut o.db, op)
            })
        });
        out.tally(run.ops, run.failed);
        out.traced = Some(Traced {
            clients: vec![run],
            spans: trace::take(),
            data,
            log,
        });
    }
    out.tree_pages = o.db.stats().map_err(err("stats"))?.allocated_pages;

    check_device_counts(&mut out, &o);
    check_integrity(&mut out, &mut o.db, "after run");
    let loaded = next_key;
    reopen(
        &mut out,
        o,
        Product::SingleForce,
        path,
        spec.frames,
        seed,
        (0..loaded).map(|k| (base + k, 0)),
    )?;
    let mut r = Rng::new(seed, 9);
    out.probe_keys = (0..4_096).map(|_| base + r.below(loaded)).collect();
    Ok(out)
}

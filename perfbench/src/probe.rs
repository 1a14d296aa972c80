//! Per-call costs of single layers, measured by calling each layer crate's
//! public functions directly on the workload's own pages and keys.
//!
//! Probes run after the workload, on the data file it left and on keys it
//! used. Each probe loop runs a fixed number of calls and reports the mean
//! wall time per call.

use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

use fame_dbms::fame_buffer::{BufferPool, ReplacementKind, SharedBufferPool, DEFAULT_SHARDS};
use fame_dbms::fame_obs::{OpKind, TraceRing};
use fame_dbms::fame_os::{AllocPolicy, BlockDevice, FileDevice, InMemoryDevice};
use fame_dbms::fame_storage::{BTree, Pager};
use fame_dbms::fame_txn::{CommitPolicy, LockMode, LockTable, LogRecord, LogWriter, TxnManager};

use crate::gen::{value, Rng};
use crate::lat::{now_ns, quantile_sorted};
use crate::workload::PAGE_SIZE;

/// Calls per hit-path probe.
const HIT_CALLS: u64 = 400_000;
/// Calls per miss-path probe.
const MISS_CALLS: u64 = 40_000;
/// Frames of the miss probe's pool: far below any probed file.
const MISS_FRAMES: usize = 64;
/// Pages the hit probes keep resident.
const HOT_PAGES: u32 = 4_096;
/// Root slot of the facade's key-value tree.
const KV_ROOT_SLOT: usize = 0;
/// Log records per `append_many` call.
const MANY: usize = 64;
/// Lock acquisitions per probed transaction: one shared, four exclusive.
const LOCKS_PER_TXN: u64 = 5;
/// Calls per sync and commit probe.
const DURABLE_CALLS: usize = 400;

/// Mean per-call costs, in ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    /// `BufferPool::with_page` on a resident page (exclusive pool).
    pub hit_ns: f64,
    /// `SharedBufferPool::with_page` on a resident page.
    pub shared_hit_ns: f64,
    /// `BufferPool::with_page` on a non-resident page, eviction included.
    pub miss_ns: f64,
    /// `FileDevice::read_page` of the same pages, the device part of a miss.
    pub device_read_ns: f64,
    /// `BTree::get_with` over a fully resident `Pager`.
    pub descent_ns: f64,
    /// Pager page reads per lookup.
    pub pages_per_lookup: f64,
    /// `LogWriter::append` of one put record (in-memory device).
    pub append_ns: f64,
    /// `LogWriter::append_many` of 64 put records (in-memory device).
    pub append_many_ns: f64,
    /// Log bytes one of those calls appends.
    pub append_many_bytes: f64,
    /// Uncontended `LockTable::acquire`, with `release_all` spread over the
    /// acquisitions of one transaction.
    pub lock_acquire_ns: f64,
    /// `TraceRing::record`.
    pub trace_record_ns: f64,
    /// `FileDevice::sync` after a one-page write, median and p99.
    pub sync_ns_p50: f64,
    pub sync_ns_p99: f64,
    /// `TxnManager::commit` of a one-put transaction on a file log under
    /// the workload's commit policy, median and p99.
    pub commit_ns_p50: f64,
    pub commit_ns_p99: f64,
}

type Result<T> = std::result::Result<T, String>;

fn open_file(path: &Path) -> Result<Box<dyn BlockDevice>> {
    FileDevice::open(path, PAGE_SIZE)
        .map(|d| Box::new(d) as Box<dyn BlockDevice>)
        .map_err(|e| format!("probe open {}: {e}", path.display()))
}

fn per_call(calls: u64, f: impl FnOnce()) -> f64 {
    let t0 = now_ns();
    f();
    (now_ns() - t0) as f64 / calls as f64
}

/// Run every probe against `data_path` and `keys`, with scratch files in
/// `work` and `policy` as the commit protocol.
pub fn run(
    data_path: &Path,
    keys: &[u32],
    seed: u64,
    work: &Path,
    policy: CommitPolicy,
) -> Result<Probes> {
    let pages = open_file(data_path)?.num_pages();
    let hot = pages.min(HOT_PAGES);
    let mut rng = Rng::new(seed, 11);
    let hot_seq: Vec<u32> = (0..4_096).map(|_| rng.below(hot)).collect();
    let cold_seq: Vec<u32> = (0..4_096).map(|_| rng.below(pages)).collect();
    let mut p = Probes::default();
    let io_at = |what: &'static str| move |e: fame_dbms::fame_os::OsError| format!("{what}: {e}");
    let io = io_at("probe I/O");

    // Exclusive pool, hit path.
    let mut pool = BufferPool::new(
        open_file(data_path)?,
        ReplacementKind::Lru,
        AllocPolicy::Dynamic {
            max_frames: Some(hot as usize),
        },
    );
    for pg in 0..hot {
        pool.with_page(pg, |b| black_box(b[0])).map_err(io)?;
    }
    let mut sink = 0u64;
    p.hit_ns = per_call(HIT_CALLS, || {
        for i in 0..HIT_CALLS {
            let pg = hot_seq[i as usize % hot_seq.len()];
            sink += u64::from(pool.with_page(pg, |b| b[7]).unwrap_or(0));
        }
    });
    drop(pool);

    // Shared pool, hit path.
    let shared = SharedBufferPool::new(
        open_file(data_path)?,
        ReplacementKind::Lru,
        AllocPolicy::Dynamic {
            max_frames: Some(hot as usize),
        },
        DEFAULT_SHARDS,
    );
    for pg in 0..hot {
        shared.with_page(pg, |b| black_box(b[0])).map_err(io)?;
    }
    p.shared_hit_ns = per_call(HIT_CALLS, || {
        for i in 0..HIT_CALLS {
            let pg = hot_seq[i as usize % hot_seq.len()];
            sink += u64::from(shared.with_page(pg, |b| b[7]).unwrap_or(0));
        }
    });
    drop(shared);

    // Exclusive pool, miss path: a tiny pool over the whole file.
    let mut pool = BufferPool::new(
        open_file(data_path)?,
        ReplacementKind::Lru,
        AllocPolicy::Dynamic {
            max_frames: Some(MISS_FRAMES),
        },
    );
    let misses0 = pool.stats().misses;
    let miss_total = per_call(1, || {
        for i in 0..MISS_CALLS {
            let pg = cold_seq[i as usize % cold_seq.len()];
            sink += u64::from(pool.with_page(pg, |b| b[7]).unwrap_or(0));
        }
    });
    let misses = (pool.stats().misses - misses0).max(1);
    p.miss_ns = miss_total / misses as f64;
    drop(pool);
    let mut dev = open_file(data_path)?;
    let mut buf = vec![0u8; PAGE_SIZE];
    p.device_read_ns = per_call(MISS_CALLS, || {
        for i in 0..MISS_CALLS {
            let pg = cold_seq[i as usize % cold_seq.len()];
            if dev.read_page(pg, &mut buf).is_ok() {
                sink += u64::from(buf[7]);
            }
        }
    });
    drop(dev);

    // Index descent over a fully resident pager.
    let pool = BufferPool::new(
        open_file(data_path)?,
        ReplacementKind::Lru,
        AllocPolicy::Dynamic {
            max_frames: Some(pages as usize + 16),
        },
    );
    let mut pager = Pager::open(pool).map_err(|e| format!("probe pager: {e}"))?;
    let tree = BTree::open(&mut pager, KV_ROOT_SLOT).map_err(|e| format!("probe tree: {e}"))?;
    let key_bytes: Vec<[u8; 4]> = keys.iter().map(|k| k.to_be_bytes()).collect();
    for k in &key_bytes {
        tree.get_with(&mut pager, k, |v| black_box(v.len()))
            .map_err(|e| format!("probe get: {e}"))?;
    }
    let reads0 = pager.ops().page_reads;
    p.descent_ns = per_call(HIT_CALLS, || {
        for i in 0..HIT_CALLS {
            let k = &key_bytes[i as usize % key_bytes.len()];
            if let Ok(Some(b)) = tree.get_with(&mut pager, k, |v| v[15]) {
                sink += u64::from(b);
            }
        }
    });
    p.pages_per_lookup = (pager.ops().page_reads - reads0) as f64 / HIT_CALLS as f64;
    drop(pager);

    // WAL encode and append, on an in-memory device so no file I/O is in it.
    let records: Vec<LogRecord> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| LogRecord::Put {
            txn: i as u64 + 1,
            index: 0,
            key: k.to_be_bytes().to_vec(),
            old: Some(value(seed, k, 0).to_vec()),
            new: value(seed, k, 1).to_vec(),
        })
        .collect();
    let mut log = LogWriter::new(Box::new(InMemoryDevice::new(PAGE_SIZE)), 0).map_err(io)?;
    let appends = HIT_CALLS / 4;
    p.append_ns = per_call(appends, || {
        for i in 0..appends {
            sink += log
                .append(&records[i as usize % records.len()])
                .unwrap_or(0);
        }
    });
    drop(log);
    let mut log = LogWriter::new(Box::new(InMemoryDevice::new(PAGE_SIZE)), 0).map_err(io)?;
    let runs = appends / MANY as u64;
    let chunks: Vec<&[LogRecord]> = records.chunks(MANY).collect();
    p.append_many_ns = per_call(runs, || {
        for i in 0..runs {
            sink += log
                .append_many(chunks[i as usize % chunks.len()])
                .unwrap_or(0);
        }
    });
    p.append_many_bytes = log.tail() as f64 / runs as f64;
    drop(log);

    // Uncontended lock table: one transaction's pattern at a time.
    let locks = LockTable::new(Duration::from_secs(1));
    let txns = HIT_CALLS / LOCKS_PER_TXN;
    let total = per_call(1, || {
        for t in 0..txns {
            let base = (t as usize * LOCKS_PER_TXN as usize) % key_bytes.len();
            let txn = t + 1;
            let _ = locks.acquire(txn, &key_bytes[base], LockMode::Shared);
            for j in 1..LOCKS_PER_TXN as usize {
                let k = &key_bytes[(base + j) % key_bytes.len()];
                let _ = locks.acquire(txn, k, LockMode::Exclusive);
            }
            locks.release_all(txn);
        }
    });
    p.lock_acquire_ns = total / (txns * LOCKS_PER_TXN) as f64;

    // The statistics op-trace ring every facade call records into.
    let ring = TraceRing::new(256);
    p.trace_record_ns = per_call(HIT_CALLS, || {
        for i in 0..HIT_CALLS {
            ring.record(OpKind::Get, 4, i & 1);
        }
    });
    // Durability: device syncs and commits on scratch files.
    let mut dev =
        FileDevice::create(work.join("probe.sync"), PAGE_SIZE).map_err(io_at("probe sync file"))?;
    dev.ensure_pages(1).map_err(io_at("probe sync file"))?;
    let mut lat = Vec::with_capacity(DURABLE_CALLS);
    for i in 0..DURABLE_CALLS {
        buf[0] = i as u8;
        dev.write_page(0, &buf).map_err(io_at("probe write"))?;
        let t0 = now_ns();
        dev.sync().map_err(io_at("probe sync"))?;
        lat.push(now_ns() - t0);
    }
    drop(dev);
    lat.sort_unstable();
    p.sync_ns_p50 = quantile_sorted(&lat, 0.50);
    p.sync_ns_p99 = quantile_sorted(&lat, 0.99);

    let log_dev =
        FileDevice::create(work.join("probe.log"), PAGE_SIZE).map_err(io_at("probe log file"))?;
    let log = LogWriter::new(Box::new(log_dev), 0).map_err(io)?;
    let mut mgr = TxnManager::new(log, policy);
    lat.clear();
    for i in 0..DURABLE_CALLS {
        let k = &key_bytes[i % key_bytes.len()];
        let v = value(seed, keys[i % keys.len()], 1);
        let txn = mgr.begin().map_err(|e| format!("probe begin: {e}"))?;
        mgr.log_put(txn, 0, k, None, &v)
            .map_err(|e| format!("probe log_put: {e}"))?;
        let t0 = now_ns();
        mgr.commit(txn).map_err(|e| format!("probe commit: {e}"))?;
        lat.push(now_ns() - t0);
    }
    lat.sort_unstable();
    p.commit_ns_p50 = quantile_sorted(&lat, 0.50);
    p.commit_ns_p99 = quantile_sorted(&lat, 0.99);
    black_box(sink);
    Ok(p)
}

//! The [`Database`] facade: one product instance.

use fame_buffer::BufferPool;
use fame_os::BlockDevice;
use fame_storage::Pager;

use std::ops::{Deref, DerefMut};
#[cfg(all(
    feature = "concurrency-multi",
    feature = "statistics",
    not(feature = "concurrency-multi-writer")
))]
use std::sync::Arc;
#[cfg(feature = "concurrency-multi-writer")]
use std::sync::{Arc, Mutex};

#[cfg(feature = "index-btree")]
use fame_storage::BTree;
#[cfg(feature = "index-hash")]
use fame_storage::HashIndex;
#[cfg(feature = "index-list")]
use fame_storage::ListIndex;
#[cfg(feature = "concurrency-multi")]
use fame_storage::SharedPager;

use crate::config::{DbmsConfig, IndexKind, OsTarget};
use crate::error::{DbmsError, Result};

/// Root slot of the primary key/value index.
const KV_ROOT_SLOT: usize = 0;
/// Root slot of the optional queue.
#[cfg(feature = "index-queue")]
const QUEUE_ROOT_SLOT: usize = 1;

/// The primary index, dispatching over the composed access methods.
enum Kv {
    #[cfg(feature = "index-btree")]
    BTree(BTree),
    #[cfg(feature = "index-list")]
    List(ListIndex),
    #[cfg(feature = "index-hash")]
    Hash(HashIndex),
}

/// The storage half of a product: the pager plus the composed primary
/// index. Single products own it inline inside [`Database`]; MultiWriter
/// products share one instance behind a mutex so [`DbWriter`] handles can
/// reach it from other threads.
struct StorageCore {
    pager: Pager,
    kv: Kv,
}

impl StorageCore {
    #[cfg(any(feature = "api-put", feature = "api-update", feature = "transactions"))]
    fn kv_put(&mut self, key: &[u8], value: &[u8]) -> Result<bool> {
        match &mut self.kv {
            #[cfg(feature = "index-btree")]
            Kv::BTree(t) => {
                #[cfg(feature = "btree-update")]
                {
                    Ok(t.insert(&mut self.pager, key, value)?)
                }
                #[cfg(not(feature = "btree-update"))]
                {
                    let _ = (t, key, value);
                    Err(DbmsError::FeatureNotCompiled("btree-update"))
                }
            }
            #[cfg(feature = "index-list")]
            Kv::List(l) => Ok(l.insert(&mut self.pager, key, value)?),
            #[cfg(feature = "index-hash")]
            Kv::Hash(h) => Ok(h.insert(&mut self.pager, key, value)?),
        }
    }

    fn kv_get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match &self.kv {
            #[cfg(feature = "index-btree")]
            Kv::BTree(t) => Ok(t.get(&mut self.pager, key)?),
            #[cfg(feature = "index-list")]
            Kv::List(l) => Ok(l.get(&mut self.pager, key)?),
            #[cfg(feature = "index-hash")]
            Kv::Hash(h) => Ok(h.get(&mut self.pager, key)?),
        }
    }

    #[cfg(any(feature = "api-remove", feature = "transactions"))]
    fn kv_remove(&mut self, key: &[u8]) -> Result<bool> {
        match &mut self.kv {
            #[cfg(feature = "index-btree")]
            Kv::BTree(t) => {
                #[cfg(feature = "btree-remove")]
                {
                    Ok(t.remove(&mut self.pager, key)?)
                }
                #[cfg(not(feature = "btree-remove"))]
                {
                    let _ = (t, key);
                    Err(DbmsError::FeatureNotCompiled("btree-remove"))
                }
            }
            #[cfg(feature = "index-list")]
            Kv::List(l) => Ok(l.remove(&mut self.pager, key)?),
            #[cfg(feature = "index-hash")]
            Kv::Hash(h) => Ok(h.remove(&mut self.pager, key)?),
        }
    }

    /// Bulk dispatch of a normalized `(key, Some(value) | None)` run to
    /// the composed index (feature `api-batch`). Returns how many keys
    /// were newly created.
    #[cfg(feature = "api-batch")]
    fn kv_apply_bulk(&mut self, ops: Vec<ResolvedOp>) -> Result<usize> {
        match &mut self.kv {
            #[cfg(feature = "index-btree")]
            Kv::BTree(t) => {
                #[cfg(feature = "btree-update")]
                {
                    #[cfg(not(feature = "btree-remove"))]
                    if ops.iter().any(|(_, v)| v.is_none()) {
                        return Err(DbmsError::FeatureNotCompiled("btree-remove"));
                    }
                    Ok(t.apply_sorted(&mut self.pager, ops)?)
                }
                #[cfg(not(feature = "btree-update"))]
                {
                    let _ = (t, ops);
                    Err(DbmsError::FeatureNotCompiled("btree-update"))
                }
            }
            #[cfg(feature = "index-list")]
            Kv::List(l) => Ok(l.insert_many(&mut self.pager, ops)?),
            #[cfg(feature = "index-hash")]
            Kv::Hash(h) => Ok(h.insert_many(&mut self.pager, ops)?),
        }
    }

    fn len(&mut self) -> Result<usize> {
        Ok(match &self.kv {
            #[cfg(feature = "index-btree")]
            Kv::BTree(t) => t.len(&mut self.pager)?,
            #[cfg(feature = "index-list")]
            Kv::List(l) => l.len(&mut self.pager)?,
            #[cfg(feature = "index-hash")]
            Kv::Hash(h) => h.len(&mut self.pager)?,
        })
    }
}

/// Where the storage core lives (*Concurrency* alternative, Fig. 2
/// extension): owned inline for `Single`/`MultiReader` products — the seed
/// layout, zero indirection — or behind `Arc<Mutex>` for `MultiWriter` so
/// clone-cheap [`DbWriter`] handles share it across threads.
///
/// One instance per `Database`; boxing `Own` to shrink the enum would put
/// a pointer chase on every sequential-product operation for no memory win.
#[allow(clippy::large_enum_variant)]
enum StorageCell {
    /// The facade owns storage exclusively (`&mut` everywhere).
    Own(StorageCore),
    /// Shared with [`DbWriter`] handles (`Concurrency::MultiWriter`).
    #[cfg(feature = "concurrency-multi-writer")]
    Shared(Arc<Mutex<StorageCore>>),
}

impl StorageCell {
    /// Mutable access to the core; locks the storage mutex in MultiWriter
    /// products, a plain reborrow otherwise.
    fn get(&mut self) -> CoreGuard<'_> {
        match self {
            StorageCell::Own(core) => CoreGuard::Own(core),
            #[cfg(feature = "concurrency-multi-writer")]
            StorageCell::Shared(arc) => {
                CoreGuard::Shared(arc.lock().expect("storage mutex poisoned"))
            }
        }
    }

    /// Read access from `&self` receivers (stats, `reader()`).
    fn peek(&self) -> CorePeek<'_> {
        match self {
            StorageCell::Own(core) => CorePeek::Own(core),
            #[cfg(feature = "concurrency-multi-writer")]
            StorageCell::Shared(arc) => {
                CorePeek::Shared(arc.lock().expect("storage mutex poisoned"))
            }
        }
    }
}

/// Mutable storage-core guard (see [`StorageCell::get`]).
enum CoreGuard<'a> {
    Own(&'a mut StorageCore),
    #[cfg(feature = "concurrency-multi-writer")]
    Shared(std::sync::MutexGuard<'a, StorageCore>),
}

impl Deref for CoreGuard<'_> {
    type Target = StorageCore;
    fn deref(&self) -> &StorageCore {
        match self {
            CoreGuard::Own(c) => c,
            #[cfg(feature = "concurrency-multi-writer")]
            CoreGuard::Shared(g) => g,
        }
    }
}

impl DerefMut for CoreGuard<'_> {
    fn deref_mut(&mut self) -> &mut StorageCore {
        match self {
            CoreGuard::Own(c) => c,
            #[cfg(feature = "concurrency-multi-writer")]
            CoreGuard::Shared(g) => g,
        }
    }
}

/// Shared storage-core peek (see [`StorageCell::peek`]). In MultiWriter
/// products this still takes the mutex — `&self` facade methods are rare
/// (stats, reader setup) and exclusive access keeps snapshots coherent.
enum CorePeek<'a> {
    Own(&'a StorageCore),
    #[cfg(feature = "concurrency-multi-writer")]
    Shared(std::sync::MutexGuard<'a, StorageCore>),
}

impl Deref for CorePeek<'_> {
    type Target = StorageCore;
    fn deref(&self) -> &StorageCore {
        match self {
            CorePeek::Own(c) => c,
            #[cfg(feature = "concurrency-multi-writer")]
            CorePeek::Shared(g) => g,
        }
    }
}

/// Which transaction manager the product composed (*Transaction →
/// Concurrency*): none at runtime, the single-writer manager owned inline
/// with its no-wait key locks (the seed path), or the shareable
/// blocking-lock + group-commit manager of MultiWriter products. Each
/// product runs exactly one lock manager, and every key is locked once.
///
/// One instance per `Database`; see [`StorageCell`] for why `Own` stays
/// unboxed.
#[cfg(feature = "transactions")]
#[allow(clippy::large_enum_variant)]
enum TxnSlot {
    /// Transactions not configured at runtime.
    None,
    /// Single-writer manager owned inline, with its no-wait key locks.
    Own(fame_txn::TxnManager, fame_txn::LockManager),
    /// Block-lock table + cross-writer group commit, shared with
    /// [`DbWriter`] handles.
    #[cfg(feature = "concurrency-multi-writer")]
    Shared(Arc<fame_txn::SharedTxnManager>),
}

#[cfg(feature = "transactions")]
impl TxnSlot {
    fn is_configured(&self) -> bool {
        !matches!(self, TxnSlot::None)
    }

    /// `true` when the shared MultiWriter manager drives this product —
    /// it emits its own transaction spans, so the facade must not.
    #[cfg(feature = "obs-trace")]
    fn is_shared(&self) -> bool {
        #[cfg(feature = "concurrency-multi-writer")]
        {
            matches!(self, TxnSlot::Shared(_))
        }
        #[cfg(not(feature = "concurrency-multi-writer"))]
        {
            false
        }
    }

    /// The single-writer manager, for paths the shared product reaches
    /// through [`SharedTxnManager::with_inner`] instead.
    fn own_mut(&mut self) -> &mut fame_txn::TxnManager {
        match self {
            TxnSlot::Own(m, _) => m,
            _ => panic!("transactions not configured (caller must check)"),
        }
    }

    fn begin(&mut self) -> TxnResult<fame_txn::TxnId> {
        match self {
            #[cfg(feature = "concurrency-multi-writer")]
            TxnSlot::Shared(s) => s.begin(),
            _ => self.own_mut().begin(),
        }
    }

    /// Lock `key` for `txn`: the blocking block lock in MultiWriter
    /// products, the no-wait key lock otherwise (a conflict fails at once
    /// with [`fame_txn::TxnError::Conflict`]). Writers lock *before*
    /// reading the old value: the lock is what makes the read-log-apply
    /// sequence atomic.
    fn lock(
        &mut self,
        txn: fame_txn::TxnId,
        key: &[u8],
        mode: fame_txn::LockMode,
    ) -> TxnResult<()> {
        match self {
            TxnSlot::None => panic!("transactions not configured (caller must check)"),
            TxnSlot::Own(m, locks) => {
                m.check_active(txn)?;
                Ok(locks.acquire(txn, key, mode)?)
            }
            #[cfg(feature = "concurrency-multi-writer")]
            TxnSlot::Shared(s) => match mode {
                fame_txn::LockMode::Shared => s.lock_read(txn, key),
                fame_txn::LockMode::Exclusive => s.lock_write(txn, key),
            },
        }
    }

    /// Run `f` on the manager (the shared one under its mutex): WAL
    /// appends — before the storage apply, with every key already locked
    /// — and the recovery seal.
    fn manager<R>(&mut self, f: impl FnOnce(&mut fame_txn::TxnManager) -> R) -> R {
        match self {
            #[cfg(feature = "concurrency-multi-writer")]
            TxnSlot::Shared(s) => s.with_inner(f),
            _ => f(self.own_mut()),
        }
    }

    /// Commit, releasing the locks on success; on failure the transaction
    /// stays active with its locks held. In MultiWriter products this
    /// rides the cross-transaction group-commit channel.
    fn commit(&mut self, txn: fame_txn::TxnId) -> TxnResult<()> {
        match self {
            #[cfg(feature = "concurrency-multi-writer")]
            TxnSlot::Shared(s) => s.commit(txn),
            _ => {
                self.own_mut().commit(txn)?;
                self.release_locks(txn);
                Ok(())
            }
        }
    }

    fn abort(&mut self, txn: fame_txn::TxnId) -> TxnResult<Vec<fame_txn::UndoAction>> {
        match self {
            #[cfg(feature = "concurrency-multi-writer")]
            TxnSlot::Shared(s) => s.abort(txn),
            _ => self.own_mut().abort(txn),
        }
    }

    /// Drop `txn`'s locks *after* its undo has been applied to storage.
    fn release_locks(&mut self, txn: fame_txn::TxnId) {
        match self {
            TxnSlot::None => {}
            TxnSlot::Own(_, locks) => locks.release_all(txn),
            #[cfg(feature = "concurrency-multi-writer")]
            TxnSlot::Shared(s) => s.release_locks(txn),
        }
    }

    fn flush(&mut self) -> TxnResult<()> {
        match self {
            TxnSlot::None => Ok(()),
            TxnSlot::Own(m, _) => m.flush(),
            #[cfg(feature = "concurrency-multi-writer")]
            TxnSlot::Shared(s) => s.flush(),
        }
    }

    /// Read from the transaction manager (the shared one under its
    /// mutex); `None` when transactions are not configured.
    fn read<R>(&self, f: impl FnOnce(&fame_txn::TxnManager) -> R) -> Option<R> {
        match self {
            TxnSlot::None => None,
            TxnSlot::Own(m, _) => Some(f(m)),
            #[cfg(feature = "concurrency-multi-writer")]
            TxnSlot::Shared(s) => Some(s.with_inner(|m| f(m))),
        }
    }

    /// Block-lock counters of the MultiWriter product.
    #[cfg(all(feature = "concurrency-multi-writer", feature = "statistics"))]
    fn lock_stats(&self) -> Option<LockStats> {
        match self {
            TxnSlot::Shared(s) => {
                let obs = s.lock_table().obs();
                Some(LockStats {
                    waits: obs.waits.get(),
                    wait_time: obs.wait_time.snapshot(),
                    deadlock_aborts: obs.deadlock_aborts.get(),
                    timeout_aborts: obs.timeout_aborts.get(),
                })
            }
            _ => None,
        }
    }
}

/// A running FAME-DBMS instance.
///
/// The API surface follows the feature diagram: `put`/`get`/`remove`/
/// `update` exist only when the corresponding `api-*` cargo feature is
/// composed; SQL, transactions, replication, and the queue likewise.
pub struct Database {
    storage: StorageCell,
    config: DbmsConfig,
    #[cfg(feature = "transactions")]
    txn: TxnSlot,
    #[cfg(feature = "transactions")]
    txn_pending_ship: std::collections::BTreeMap<fame_txn::TxnId, Vec<ShipOpBuf>>,
    #[cfg(feature = "transactions")]
    last_recovery: Option<fame_txn::RecoveryStats>,
    #[cfg(feature = "replication")]
    replication: Option<fame_repl::Primary>,
    #[cfg(feature = "sql")]
    sql: Option<fame_query::SqlEngine>,
    /// I/O latency histograms of the data device (feature `statistics`).
    #[cfg(feature = "statistics")]
    io: std::sync::Arc<fame_os::IoTiming>,
    /// Fixed-capacity op-trace ring (feature `statistics`).
    #[cfg(feature = "statistics")]
    trace: fame_obs::TraceRing,
    /// Causal span flight recorder (feature `obs-trace`). Owns the span
    /// sink every probed layer holds an `Arc` of.
    #[cfg(feature = "obs-trace")]
    recorder: fame_obs::FlightRecorder,
    /// Aggregate of dropped [`DbReader`] handles' local counters.
    #[cfg(all(feature = "concurrency-multi", feature = "statistics"))]
    reader_acc: std::sync::Arc<ReaderAccum>,
    /// What the last [`Database::verify_integrity`] walk found.
    #[cfg(feature = "statistics")]
    last_integrity: Option<IntegritySummary>,
    /// Batched-write counters + latency histogram (features `api-batch`
    /// and `statistics`).
    #[cfg(all(feature = "api-batch", feature = "statistics"))]
    batch_obs: BatchObs,
}

/// Counters of the batched write path.
#[cfg(all(feature = "api-batch", feature = "statistics"))]
#[derive(Debug, Default)]
struct BatchObs {
    /// Batches applied.
    batches: fame_obs::Counter,
    /// Operations submitted across those batches.
    batch_ops: fame_obs::Counter,
    /// Whole-batch apply latency.
    latency: fame_obs::Histogram,
}

#[cfg(feature = "transactions")]
type ShipOpBuf = (Vec<u8>, Option<Vec<u8>>); // (key, Some(value)=put / None=remove)

/// What the transaction slot's operations return.
#[cfg(feature = "transactions")]
type TxnResult<T> = std::result::Result<T, fame_txn::TxnError>;

impl Database {
    /// Open (or create) a database per the configuration.
    pub fn open(config: DbmsConfig) -> Result<Database> {
        config.check().map_err(DbmsError::Config)?;
        let device = make_device(&config)?;
        #[cfg(feature = "transactions")]
        let log_device = match &config.transactions {
            Some(_) => Some(make_log_device(&config)?),
            None => None,
        };
        #[cfg(not(feature = "transactions"))]
        let log_device = None;
        Self::open_inner(config, device, log_device)
    }

    /// Open over caller-supplied devices, bypassing [`make_device`].
    ///
    /// The crash-torture harness uses this to hand the engine clones of a
    /// [`fame_os::SharedDevice`]-wrapped fault injector while keeping side
    /// handles for tripping, healing, and counter inspection. `log_device`
    /// must be `Some` iff the configuration enables transactions.
    pub fn open_with_devices(
        config: DbmsConfig,
        device: Box<dyn BlockDevice>,
        log_device: Option<Box<dyn BlockDevice>>,
    ) -> Result<Database> {
        config.check().map_err(DbmsError::Config)?;
        Self::open_inner(config, device, log_device)
    }

    fn open_inner(
        config: DbmsConfig,
        device: Box<dyn BlockDevice>,
        log_device: Option<Box<dyn BlockDevice>>,
    ) -> Result<Database> {
        // Statistics: interpose the timing wrapper between pool and device
        // so page-I/O latencies land in histograms. Outermost wrapper, so
        // crypto cost (when composed inside) is part of the measured read.
        #[cfg(feature = "statistics")]
        let (device, io) = {
            let observed = fame_os::ObservedDevice::new(device);
            let io = observed.timing();
            (Box::new(observed) as Box<dyn BlockDevice>, io)
        };
        let pool = make_pool(&config, device);
        let mut pager = Pager::open(pool)?;

        let kv = match &config.index {
            #[cfg(feature = "index-btree")]
            IndexKind::BTree => Kv::BTree(match pager.root(KV_ROOT_SLOT)? {
                Some(_) => BTree::open(&mut pager, KV_ROOT_SLOT)?,
                None => BTree::create(&mut pager, KV_ROOT_SLOT)?,
            }),
            #[cfg(feature = "index-list")]
            IndexKind::List => Kv::List(match pager.root(KV_ROOT_SLOT)? {
                Some(_) => ListIndex::open(&mut pager, KV_ROOT_SLOT)?,
                None => ListIndex::create(&mut pager, KV_ROOT_SLOT)?,
            }),
            #[cfg(feature = "index-hash")]
            IndexKind::Hash { buckets } => Kv::Hash(match pager.root(KV_ROOT_SLOT)? {
                Some(_) => HashIndex::open(&mut pager, KV_ROOT_SLOT)?,
                None => HashIndex::create(&mut pager, KV_ROOT_SLOT, *buckets)?,
            }),
        };

        // Read the surviving log back *before* attaching the writer: the
        // records both position the writer's resume LSN and drive recovery
        // once the facade is assembled.
        #[cfg(feature = "transactions")]
        let (txn, replay) = match (&config.transactions, log_device) {
            (Some(tc), Some(log_dev)) => {
                let mut reader = fame_txn::LogReader::new(log_dev);
                let (records, resume) = reader.read_all()?;
                let writer = fame_txn::LogWriter::new(reader.into_device(), resume)?;
                (
                    Some(fame_txn::TxnManager::new(writer, tc.commit)),
                    Some((records, resume)),
                )
            }
            (Some(_), None) => {
                return Err(DbmsError::Config(
                    "transactions enabled but no log device supplied".into(),
                ))
            }
            (None, _) => (None, None),
        };
        #[cfg(not(feature = "transactions"))]
        drop(log_device);

        #[cfg(feature = "replication")]
        let replication = config.replication.map(fame_repl::Primary::new);

        #[cfg(feature = "sql")]
        let sql = None; // lazily initialized: not every instance uses SQL

        #[cfg(feature = "statistics")]
        let trace = fame_obs::TraceRing::new(config.stats.trace_capacity);

        #[cfg(feature = "obs-trace")]
        let recorder = fame_obs::FlightRecorder::new(
            config.stats.span_rings,
            config.stats.span_capacity,
            config.stats.window_ms.max(1).saturating_mul(1_000_000),
            fame_obs::AnomalyThresholds {
                deadlocks_per_sec: config.stats.anomaly_deadlocks_per_sec,
                lock_wait_p99_ns: config.stats.anomaly_lock_wait_p99_ns,
            },
        );

        // MultiWriter products wrap storage and the transaction manager in
        // their shareable forms *before* recovery: recovery then runs
        // through the same cells (single-threaded at open, so the mutexes
        // are uncontended) and `writer()` can clone out handles afterwards.
        #[cfg(feature = "concurrency-multi-writer")]
        let multi_writer = matches!(
            config.concurrency,
            fame_buffer::Concurrency::MultiWriter { .. }
        );
        let core = StorageCore { pager, kv };
        #[cfg(feature = "concurrency-multi-writer")]
        let storage = if multi_writer {
            StorageCell::Shared(Arc::new(Mutex::new(core)))
        } else {
            StorageCell::Own(core)
        };
        #[cfg(not(feature = "concurrency-multi-writer"))]
        let storage = StorageCell::Own(core);

        #[cfg(feature = "transactions")]
        let txn = match txn {
            #[cfg(feature = "concurrency-multi-writer")]
            Some(mgr) if multi_writer => {
                TxnSlot::Shared(Arc::new(fame_txn::SharedTxnManager::new(
                    mgr,
                    std::time::Duration::from_millis(config.lock_timeout_ms),
                )))
            }
            Some(mgr) => TxnSlot::Own(mgr, fame_txn::LockManager::new()),
            None => TxnSlot::None,
        };

        let mut db = Database {
            storage,
            config,
            #[cfg(feature = "transactions")]
            txn,
            #[cfg(feature = "transactions")]
            txn_pending_ship: std::collections::BTreeMap::new(),
            #[cfg(feature = "transactions")]
            last_recovery: None,
            #[cfg(feature = "replication")]
            replication,
            #[cfg(feature = "sql")]
            sql,
            #[cfg(feature = "statistics")]
            io,
            #[cfg(feature = "statistics")]
            trace,
            #[cfg(feature = "obs-trace")]
            recorder,
            #[cfg(all(feature = "concurrency-multi", feature = "statistics"))]
            reader_acc: std::sync::Arc::new(ReaderAccum::default()),
            #[cfg(feature = "statistics")]
            last_integrity: None,
            #[cfg(all(feature = "api-batch", feature = "statistics"))]
            batch_obs: BatchObs::default(),
        };
        // Install the span sink into every probed layer before recovery
        // runs, so even the open-time recovery replay is traced.
        #[cfg(feature = "obs-trace")]
        {
            let sink = db.recorder.sink();
            #[cfg(feature = "concurrency-multi")]
            if let Some(pool) = db.storage.peek().pager.pool().shared_handle() {
                pool.set_trace_sink(std::sync::Arc::clone(sink));
            }
            #[cfg(feature = "concurrency-multi-writer")]
            if let TxnSlot::Shared(mgr) = &db.txn {
                mgr.set_trace_sink(std::sync::Arc::clone(sink));
            }
            #[cfg(feature = "replication")]
            if let Some(p) = &mut db.replication {
                p.set_trace_sink(std::sync::Arc::clone(sink));
            }
            let _ = sink;
        }
        // Snapshot feature: apply the configured chain cap and wire the
        // version-install hook into the group-commit leader, so every
        // drained batch publishes its page versions at a fresh commit
        // timestamp. Installed before recovery so replayed commits (which
        // run single-threaded through the same manager) stay consistent.
        #[cfg(feature = "concurrency-snapshot")]
        if let TxnSlot::Shared(mgr) = &db.txn {
            if let Some(pool) = db.storage.peek().pager.pool().shared_handle() {
                pool.set_version_chain_cap(db.config.snapshot_chain_cap);
                let hook_pool = pool.clone();
                mgr.set_install_hook(Box::new(move |batch, ts| {
                    hook_pool.install_commits(batch, ts);
                }));
            }
        }
        #[cfg(feature = "transactions")]
        if let Some((records, resume)) = replay {
            db.recover_from_records(&records, resume)?;
        }
        let _ = &mut db; // silence "unused mut" when transactions are off
        Ok(db)
    }

    /// The configuration this instance runs with.
    pub fn config(&self) -> &DbmsConfig {
        &self.config
    }

    /// Flush everything and issue a durability barrier.
    ///
    /// Order matters: the WAL rule requires the log to be durable *before*
    /// the data pages it describes. Flushing the pager first would let a
    /// crash between the two barriers leave unlogged page images on disk —
    /// uncommitted effects recovery can no longer undo.
    pub fn sync(&mut self) -> Result<()> {
        #[cfg(feature = "transactions")]
        self.txn.flush()?;
        self.storage.get().pager.sync()?;
        #[cfg(feature = "statistics")]
        self.trace.record(fame_obs::OpKind::Sync, 0, 0);
        Ok(())
    }

    /// Walk the whole storage image and report every violated structural
    /// invariant (meta page, free list, index structures). The crash-torture
    /// harness runs this after every simulated crash + recovery.
    pub fn verify_integrity(&mut self) -> Result<fame_storage::IntegrityReport> {
        let report = fame_storage::check_pager(&mut self.storage.get().pager)?;
        #[cfg(feature = "statistics")]
        {
            self.last_integrity = Some(IntegritySummary {
                violations: report.violations.len(),
                leaked_pages: report.leaked_pages,
            });
        }
        Ok(report)
    }

    /// A shared read handle (feature `concurrency-multi`).
    ///
    /// The handle clones cheaply (an `Arc` bump), is `Send`, and answers
    /// point lookups against the sharded pool without the writer — spawn
    /// one clone per reader thread. Readers are safe alongside each other
    /// and alongside buffer churn (evictions, write-backs); structural
    /// *mutations* still belong to the single writer, so interleave them
    /// with reads only at quiescent points.
    ///
    /// Errors when this instance runs `Concurrency::Single`: the product
    /// then owns an exclusive pool with no latches to share.
    #[cfg(feature = "concurrency-multi")]
    pub fn reader(&self) -> Result<DbReader> {
        let core = self.storage.peek();
        let pager = core.pager.shared().ok_or_else(|| {
            DbmsError::Config(
                "reader() needs Concurrency::MultiReader in the runtime configuration".into(),
            )
        })?;
        let kv = match &core.kv {
            #[cfg(feature = "index-btree")]
            Kv::BTree(_) => ReaderKv::BTree {
                root_slot: KV_ROOT_SLOT,
            },
            #[cfg(feature = "index-list")]
            Kv::List(l) => ReaderKv::List(*l),
            #[cfg(feature = "index-hash")]
            Kv::Hash(h) => ReaderKv::Hash(*h),
        };
        Ok(DbReader {
            pager,
            kv,
            #[cfg(feature = "statistics")]
            obs: ReaderObs {
                acc: Arc::clone(&self.reader_acc),
                gets: 0,
                hits: 0,
            },
        })
    }

    /// A concurrent write handle (feature `concurrency-multi-writer`).
    ///
    /// The handle clones cheaply (two `Arc` bumps) and is `Send` — spawn
    /// one clone per writer thread. Each handle runs full transactions
    /// (`begin`/`put`/`get`/`remove`/`commit`/`abort`): conflicting key
    /// accesses serialize through the blocking S/X block-lock table, the
    /// product's only lock manager (a request whose wait would close a
    /// deadlock cycle fails at once; the lock timeout is a backstop), and
    /// every commit rides the cross-transaction group channel — concurrent
    /// committers share one coalesced WAL append and one protocol sync per
    /// drain.
    ///
    /// Errors unless this instance runs `Concurrency::MultiWriter` with
    /// transactions configured.
    #[cfg(feature = "concurrency-multi-writer")]
    pub fn writer(&self) -> Result<DbWriter> {
        let storage = match &self.storage {
            StorageCell::Shared(arc) => Arc::clone(arc),
            StorageCell::Own(_) => {
                return Err(DbmsError::Config(
                    "writer() needs Concurrency::MultiWriter in the runtime configuration".into(),
                ))
            }
        };
        let txn = match &self.txn {
            TxnSlot::Shared(s) => Arc::clone(s),
            _ => {
                return Err(DbmsError::Config(
                    "writer() needs transactions configured alongside MultiWriter".into(),
                ))
            }
        };
        #[cfg(feature = "concurrency-snapshot")]
        let pool = self.storage.peek().pager.pool().shared_handle();
        Ok(DbWriter {
            storage,
            txn,
            #[cfg(feature = "concurrency-snapshot")]
            pool,
        })
    }

    /// A wait-free point-in-time read view (feature
    /// `concurrency-snapshot`).
    ///
    /// The snapshot is pinned to the newest *stable* commit timestamp: it
    /// observes every transaction whose group-commit drain completed
    /// before the call and nothing that commits after. Its lookups run
    /// the same optimistic B+-tree descent as [`Database::reader`] but
    /// resolve every page through the pool's copy-on-write version
    /// chains — they never touch the block-lock table and never write a
    /// shared cache line, so snapshot throughput is independent of writer
    /// contention (benchmark E14).
    ///
    /// The handle deregisters itself on drop; while it lives, the
    /// versions it may still need survive pruning. A snapshot held across
    /// more than `snapshot_chain_cap` commits to one page can be
    /// stranded: its lookups then fail with a "too old" I/O error.
    ///
    /// Errors unless this instance runs `Concurrency::MultiWriter` with
    /// transactions configured (versions are installed by the writers'
    /// group commit).
    #[cfg(feature = "concurrency-snapshot")]
    pub fn snapshot(&self) -> Result<DbSnapshot> {
        if !matches!(&self.txn, TxnSlot::Shared(_)) {
            return Err(DbmsError::Config(
                "snapshot() needs transactions configured alongside MultiWriter".into(),
            ));
        }
        let core = self.storage.peek();
        let shared = core.pager.shared().ok_or_else(|| {
            DbmsError::Config(
                "snapshot() needs Concurrency::MultiWriter in the runtime configuration".into(),
            )
        })?;
        let kv = match &core.kv {
            #[cfg(feature = "index-btree")]
            Kv::BTree(_) => ReaderKv::BTree {
                root_slot: KV_ROOT_SLOT,
            },
            #[cfg(feature = "index-list")]
            Kv::List(l) => ReaderKv::List(*l),
            #[cfg(feature = "index-hash")]
            Kv::Hash(h) => ReaderKv::Hash(*h),
        };
        let ts = shared.pool().snapshot_begin();
        Ok(DbSnapshot {
            pager: shared.snapshot_at(ts),
            kv,
        })
    }

    /// Pager / buffer-pool statistics.
    pub fn pool_stats(&self) -> fame_buffer::PoolStats {
        self.storage.peek().pager.pool().stats()
    }

    /// Device statistics of the data device.
    pub fn device_stats(&self) -> fame_os::DeviceStats {
        self.storage.peek().pager.pool().device_stats()
    }

    // ---- raw byte-string API (Fig. 2: Access -> API, or-group) ----------

    /// Insert or overwrite a key (feature `api-put`).
    #[cfg(feature = "api-put")]
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.kv_put(key, value)?;
        #[cfg(feature = "replication")]
        self.ship_put(key, value)?;
        #[cfg(feature = "statistics")]
        self.trace
            .record(fame_obs::OpKind::Put, key.len() as u64, value.len() as u64);
        Ok(())
    }

    /// Look up a key (feature `api-get`).
    #[cfg(feature = "api-get")]
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_with(key, |v| v.to_vec())
    }

    /// Allocation-free lookup: run `f` over the value bytes in place,
    /// without copying them out of the frame (feature `api-get`).
    /// [`get`](Self::get) is the `to_vec` wrapper over this.
    #[cfg(feature = "api-get")]
    pub fn get_with<R>(&mut self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Result<Option<R>> {
        let mut core = self.storage.get();
        let core = &mut *core;
        let found = match &core.kv {
            #[cfg(feature = "index-btree")]
            Kv::BTree(t) => t.get_with(&mut core.pager, key, f)?,
            #[cfg(feature = "index-list")]
            Kv::List(l) => l.get_with(&mut core.pager, key, f)?,
            #[cfg(feature = "index-hash")]
            Kv::Hash(h) => h.get_with(&mut core.pager, key, f)?,
        };
        #[cfg(feature = "statistics")]
        self.trace.record(
            fame_obs::OpKind::Get,
            key.len() as u64,
            found.is_some() as u64,
        );
        Ok(found)
    }

    /// Remove a key; returns whether it existed (feature `api-remove`).
    #[cfg(feature = "api-remove")]
    pub fn remove(&mut self, key: &[u8]) -> Result<bool> {
        let removed = self.kv_remove(key)?;
        #[cfg(feature = "replication")]
        if removed {
            self.ship_remove(key)?;
        }
        #[cfg(feature = "statistics")]
        self.trace
            .record(fame_obs::OpKind::Remove, key.len() as u64, removed as u64);
        Ok(removed)
    }

    /// Overwrite an existing key; `false` if absent (feature `api-update`).
    #[cfg(feature = "api-update")]
    pub fn update(&mut self, key: &[u8], value: &[u8]) -> Result<bool> {
        if self.kv_get(key)?.is_none() {
            return Ok(false);
        }
        self.kv_put(key, value)?;
        #[cfg(feature = "replication")]
        self.ship_put(key, value)?;
        #[cfg(feature = "statistics")]
        self.trace.record(
            fame_obs::OpKind::Update,
            key.len() as u64,
            value.len() as u64,
        );
        Ok(true)
    }

    // ---- batched writes (Fig. 2: Access -> API -> Batch) -----------------

    /// Apply a [`WriteBatch`] as one unit (feature `api-batch`).
    ///
    /// The batch is normalized (last write per key wins) and pushed
    /// through the bulk storage path ([`fame_storage::BTree::apply_sorted`]
    /// / `insert_many`). With transactions configured the batch is one
    /// transaction: every record is encoded into a single WAL frame run
    /// (`LogWriter::append_many`) and committed with exactly one log sync,
    /// so recovery observes the batch entirely or not at all. Without
    /// transactions, record sizes are validated before any page is touched
    /// but crash atomicity is — as for single-record writes — not provided.
    ///
    /// `update` entries fail the whole batch (nothing applied, nothing
    /// logged) when their key does not exist at that point in the batch;
    /// `remove` entries of absent keys are dropped, mirroring
    /// [`remove`](Self::remove) returning `false`.
    #[cfg(feature = "api-batch")]
    pub fn apply_batch(&mut self, batch: WriteBatch) -> Result<()> {
        #[cfg(feature = "statistics")]
        let start = fame_obs::monotonic_ns();
        let submitted = batch.ops.len() as u64;
        if submitted == 0 {
            return Ok(());
        }
        let resolved = self.resolve_batch(batch)?;
        #[cfg(feature = "replication")]
        let ship = resolved.clone();
        #[cfg(feature = "transactions")]
        {
            if self.txn.is_configured() {
                self.apply_batch_txn(&resolved)?;
            } else {
                self.kv_apply_bulk(resolved)?;
            }
        }
        #[cfg(not(feature = "transactions"))]
        self.kv_apply_bulk(resolved)?;
        #[cfg(feature = "replication")]
        for (key, op) in ship {
            match op {
                Some(value) => self.ship_put(&key, &value)?,
                None => self.ship_remove(&key)?,
            }
        }
        #[cfg(feature = "statistics")]
        {
            self.batch_obs.batches.inc();
            self.batch_obs.batch_ops.add(submitted);
            self.batch_obs
                .latency
                .record_ns(fame_obs::monotonic_ns().saturating_sub(start));
            self.trace.record(fame_obs::OpKind::Batch, submitted, 0);
        }
        Ok(())
    }

    /// Turn the submitted op sequence into the batch's *net* effect: one
    /// `(key, Some(value) | None)` per distinct key. Update/remove
    /// existence checks run against the pre-batch state overlaid with the
    /// batch's own earlier ops — the same outcome as issuing the calls one
    /// at a time — and happen before anything is logged or applied.
    #[cfg(feature = "api-batch")]
    fn resolve_batch(&mut self, batch: WriteBatch) -> Result<Vec<ResolvedOp>> {
        let mut resolved: Vec<ResolvedOp> = Vec::with_capacity(batch.ops.len());
        // key -> does it exist after the ops seen so far?
        let mut overlay: std::collections::BTreeMap<Vec<u8>, bool> =
            std::collections::BTreeMap::new();
        for op in batch.ops {
            match op {
                BatchOp::Put { key, value } => {
                    overlay.insert(key.clone(), true);
                    resolved.push((key, Some(value)));
                }
                #[cfg(feature = "api-update")]
                BatchOp::Update { key, value } => {
                    let exists = match overlay.get(&key) {
                        Some(e) => *e,
                        None => self.kv_get(&key)?.is_some(),
                    };
                    if !exists {
                        return Err(DbmsError::Config(
                            "batch update of a missing key (batch not applied)".into(),
                        ));
                    }
                    overlay.insert(key.clone(), true);
                    resolved.push((key, Some(value)));
                }
                #[cfg(feature = "api-remove")]
                BatchOp::Remove { key } => {
                    let exists = match overlay.get(&key) {
                        Some(e) => *e,
                        None => self.kv_get(&key)?.is_some(),
                    };
                    overlay.insert(key.clone(), false);
                    if exists {
                        resolved.push((key, None));
                    }
                }
            }
        }
        // Last write per key wins. The bulk appliers re-normalize, but the
        // WAL must carry the same net op set as storage receives.
        resolved.sort_by(|a, b| a.0.cmp(&b.0));
        resolved.dedup_by(|next, prev| {
            if next.0 == prev.0 {
                prev.1 = next.1.take();
                true
            } else {
                false
            }
        });
        Ok(resolved)
    }

    /// Transactional arm of [`apply_batch`](Self::apply_batch): one txn,
    /// one coalesced WAL append, one commit (= one sync under Force).
    #[cfg(all(feature = "api-batch", feature = "transactions"))]
    fn apply_batch_txn(&mut self, resolved: &[ResolvedOp]) -> Result<()> {
        if resolved.is_empty() {
            return Ok(());
        }
        let txn_id = self.txn.begin()?;
        let staged = self
            .log_batch_locked(txn_id, resolved)
            .and_then(|apply| self.kv_apply_bulk(apply));
        if let Err(e) = staged {
            // Undo whatever part of the batch reached the index.
            let _ = self.roll_back(txn_id);
            return Err(e);
        }
        self.txn.commit(txn_id)?;
        Ok(())
    }

    /// Abort `txn_id`: undo its writes in the index, then release its
    /// locks — never the other way round, or a concurrent writer granted
    /// early would read the un-undone value. Stops at the first failed
    /// undo step; the locks are released either way.
    #[cfg(feature = "transactions")]
    fn roll_back(&mut self, txn_id: fame_txn::TxnId) -> Result<()> {
        let undone = self
            .txn
            .abort(txn_id)
            .map_err(DbmsError::from)
            .and_then(|undo| {
                undo.into_iter()
                    .try_for_each(|action| match action.restore {
                        Some(old) => self.kv_put(&action.key, &old).map(|_| ()),
                        None => self.kv_remove(&action.key).map(|_| ()),
                    })
            });
        self.txn.release_locks(txn_id);
        undone
    }

    /// Lock each key of the batch and read its before-image, then log the
    /// whole batch — the order single writes follow, so a lock conflict
    /// fails the batch before a single record reaches the log. Removes
    /// whose key no longer exists have no net effect and are dropped from
    /// both the log and the returned apply set.
    #[cfg(all(feature = "api-batch", feature = "transactions"))]
    fn log_batch_locked(
        &mut self,
        txn_id: fame_txn::TxnId,
        resolved: &[ResolvedOp],
    ) -> Result<Vec<ResolvedOp>> {
        let mut writes = Vec::with_capacity(resolved.len());
        let mut apply = Vec::with_capacity(resolved.len());
        for (key, op) in resolved {
            self.txn.lock(txn_id, key, fame_txn::LockMode::Exclusive)?;
            let old = self.kv_get(key)?;
            match op {
                Some(value) => {
                    writes.push(fame_txn::BatchWrite::Put {
                        index: 0,
                        key: key.clone(),
                        old,
                        new: value.clone(),
                    });
                    apply.push((key.clone(), Some(value.clone())));
                }
                None => {
                    let Some(old) = old else { continue };
                    writes.push(fame_txn::BatchWrite::Remove {
                        index: 0,
                        key: key.clone(),
                        old,
                    });
                    apply.push((key.clone(), None));
                }
            }
        }
        self.txn.manager(|m| m.log_batch(txn_id, &writes))?;
        Ok(apply)
    }

    /// Number of live keys.
    pub fn len(&mut self) -> Result<usize> {
        self.storage.get().len()
    }

    /// `true` when no keys exist.
    pub fn is_empty(&mut self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Ordered range scan (B+-tree only; other indexes return
    /// [`DbmsError::FeatureNotCompiled`]-style config errors).
    #[cfg(all(feature = "api-get", feature = "index-btree"))]
    pub fn scan(
        &mut self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut core = self.storage.get();
        let core = &mut *core;
        match &core.kv {
            Kv::BTree(t) => Ok(t.scan(&mut core.pager, start, end)?),
            #[allow(unreachable_patterns)]
            _ => Err(DbmsError::Config(
                "range scans need the B+-tree index".into(),
            )),
        }
    }

    // ---- internal index dispatch (delegates to [`StorageCore`]) ---------

    #[cfg(any(feature = "api-put", feature = "api-update", feature = "transactions"))]
    fn kv_put(&mut self, key: &[u8], value: &[u8]) -> Result<bool> {
        self.storage.get().kv_put(key, value)
    }

    fn kv_get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.storage.get().kv_get(key)
    }

    #[cfg(any(feature = "api-remove", feature = "transactions"))]
    fn kv_remove(&mut self, key: &[u8]) -> Result<bool> {
        self.storage.get().kv_remove(key)
    }

    #[cfg(feature = "api-batch")]
    fn kv_apply_bulk(&mut self, ops: Vec<ResolvedOp>) -> Result<usize> {
        self.storage.get().kv_apply_bulk(ops)
    }

    // ---- statistics (Berkeley DB STATISTICS, §2.2) ------------------------

    /// A full statistics report of the running product (feature
    /// `statistics` — the Berkeley DB `->stat()` analog).
    ///
    /// The snapshot is *coherent* under concurrent readers: every counter
    /// is read once from its atomic, so repeated calls observe each field
    /// monotonically non-decreasing and never torn.
    #[cfg(feature = "statistics")]
    pub fn stats(&mut self) -> Result<StatsSnapshot> {
        let mut core = self.storage.get();
        let keys = core.len()?;
        let pool = core.pager.pool().stats();
        let device = core.pager.pool().device_stats();
        let frames = core.pager.pool().frame_count();
        let page_size = core.pager.page_size();
        let index = match &core.kv {
            #[cfg(feature = "index-btree")]
            Kv::BTree(_) => "B+-Tree",
            #[cfg(feature = "index-list")]
            Kv::List(_) => "List",
            #[cfg(feature = "index-hash")]
            Kv::Hash(_) => "Hash",
        };
        let allocated_pages = core.pager.allocated_pages()?;
        let pager_ops = core.pager.ops();
        #[cfg(feature = "concurrency-snapshot")]
        let versions = core.pager.pool().shared_handle().map(|p| p.version_stats());
        drop(core);
        Ok(StatsSnapshot {
            keys,
            index,
            allocated_pages,
            page_size,
            pool,
            device,
            pager_ops,
            io: self.io.snapshot(),
            frames,
            frame_bytes: frames * page_size,
            ops_traced: self.trace.recorded(),
            #[cfg(feature = "obs-trace")]
            windows: self.recorder.sink().windows(),
            #[cfg(feature = "concurrency-multi")]
            reader_gets: self
                .reader_acc
                .gets
                .load(std::sync::atomic::Ordering::Relaxed),
            #[cfg(feature = "concurrency-multi")]
            reader_hits: self
                .reader_acc
                .hits
                .load(std::sync::atomic::Ordering::Relaxed),
            integrity: self.last_integrity,
            #[cfg(feature = "api-batch")]
            batches: self.batch_obs.batches.get(),
            #[cfg(feature = "api-batch")]
            batch_ops: self.batch_obs.batch_ops.get(),
            #[cfg(feature = "api-batch")]
            batch_latency: self.batch_obs.latency.snapshot(),
            #[cfg(feature = "transactions")]
            txn: self.txn.read(fame_txn::TxnManager::stats),
            #[cfg(feature = "transactions")]
            log_syncs: self.txn.read(fame_txn::TxnManager::log_syncs),
            #[cfg(feature = "transactions")]
            log_bytes: self.txn.read(fame_txn::TxnManager::log_bytes),
            #[cfg(feature = "transactions")]
            commit_latency: self.txn.read(|m| m.obs().commit_latency.snapshot()),
            #[cfg(feature = "concurrency-multi-writer")]
            locks: self.txn.lock_stats(),
            #[cfg(feature = "concurrency-snapshot")]
            versions,
            #[cfg(feature = "transactions")]
            recovery_redo: self.last_recovery.as_ref().map_or(0, |r| r.redo_applied),
            #[cfg(feature = "transactions")]
            recovery_undo: self.last_recovery.as_ref().map_or(0, |r| r.undo_applied),
            #[cfg(feature = "sql")]
            query: self.sql.as_ref().map(|e| e.obs()),
            #[cfg(feature = "replication")]
            replication_lag: self.replication_lag(),
        })
    }

    /// The op-trace ring, oldest first (feature `statistics`). At most
    /// [`crate::config::StatsConfig::trace_capacity`] most-recent events.
    #[cfg(feature = "statistics")]
    pub fn op_trace(&self) -> Vec<fame_obs::TraceEvent> {
        self.trace.dump()
    }

    // ---- causal tracing (feature `obs-trace`) -----------------------------

    /// Dump the flight recorder: every retained span event plus the
    /// current windowed metrics, ready for
    /// [`fame_obs::TraceDump::to_chrome_json`] / `to_tsv` export.
    #[cfg(feature = "obs-trace")]
    pub fn dump_trace(&self) -> fame_obs::TraceDump {
        self.recorder.dump(None)
    }

    /// Check the anomaly thresholds (see
    /// [`crate::config::StatsConfig`]); returns `Some` exactly once per
    /// not-crossed → crossed transition. Callers typically follow up with
    /// [`Database::dump_trace`] stamped with the anomaly's reason.
    #[cfg(feature = "obs-trace")]
    pub fn trace_anomaly(&self) -> Option<fame_obs::Anomaly> {
        self.recorder.observe()
    }

    /// Current windowed metrics (merge-on-read snapshot of the rotating
    /// histogram windows).
    #[cfg(feature = "obs-trace")]
    pub fn trace_windows(&self) -> fame_obs::WindowsSnapshot {
        self.recorder.sink().windows()
    }

    /// The flight recorder itself (sink installation for embedders that
    /// probe their own layers, anomaly-stamped dumps).
    #[cfg(feature = "obs-trace")]
    pub fn flight_recorder(&self) -> &fame_obs::FlightRecorder {
        &self.recorder
    }

    // ---- queue access method (Berkeley DB QUEUE, §2.2) -------------------

    /// Create or open the fixed-record queue (feature `index-queue`).
    #[cfg(feature = "index-queue")]
    pub fn queue(&mut self, record_len: usize) -> Result<QueueHandle<'_>> {
        let mut core = self.storage.get();
        let q = match core.pager.root(QUEUE_ROOT_SLOT)? {
            Some(_) => fame_storage::Queue::open(&mut core.pager, QUEUE_ROOT_SLOT)?,
            None => fame_storage::Queue::create(&mut core.pager, QUEUE_ROOT_SLOT, record_len)?,
        };
        if q.record_len() != record_len {
            return Err(DbmsError::Config(format!(
                "queue exists with record length {}, requested {}",
                q.record_len(),
                record_len
            )));
        }
        Ok(QueueHandle { queue: q, core })
    }

    // ---- SQL (Fig. 2: Access -> SQL Engine) ------------------------------

    /// Execute a SQL statement (feature `sql`).
    #[cfg(feature = "sql")]
    pub fn sql(&mut self, statement: &str) -> Result<fame_query::QueryOutput> {
        let mut core = self.storage.get();
        if self.sql.is_none() {
            self.sql = Some(fame_query::SqlEngine::open_default(&mut core.pager)?);
        }
        let engine = self.sql.as_mut().expect("just initialized");
        let out = engine.execute(&mut core.pager, statement)?;
        drop(core);
        #[cfg(feature = "statistics")]
        self.trace
            .record(fame_obs::OpKind::Query, statement.len() as u64, 0);
        Ok(out)
    }

    /// Access path chosen by the last SQL row-sourcing statement
    /// (optimizer diagnostics).
    #[cfg(feature = "sql")]
    pub fn last_access_path(&self) -> Option<&'static str> {
        self.sql.as_ref().and_then(|e| e.last_access_path())
    }

    // ---- transactions (Fig. 2: Transaction) -----------------------------

    /// Begin a transaction (feature `transactions`).
    #[cfg(feature = "transactions")]
    pub fn begin(&mut self) -> Result<TxnHandle> {
        if !self.txn.is_configured() {
            return Err(DbmsError::Config(
                "transactions not enabled in config".into(),
            ));
        }
        let id = self.txn.begin()?;
        self.txn_pending_ship.insert(id, Vec::new());
        #[cfg(feature = "statistics")]
        self.trace.record(fame_obs::OpKind::TxnBegin, id, 0);
        #[cfg(feature = "obs-trace")]
        if !self.txn.is_shared() {
            self.recorder
                .sink()
                .emit(fame_obs::SpanKind::TxnBegin, id, 0, 0, 0);
        }
        Ok(TxnHandle { id })
    }

    /// Transactional put: exclusive lock, read the old value, log, then
    /// apply. The lock taken up front (blocking in MultiWriter products) is
    /// what makes the read-log-apply sequence atomic against concurrent
    /// transactions.
    #[cfg(all(feature = "transactions", feature = "api-put"))]
    pub fn txn_put(&mut self, txn: TxnHandle, key: &[u8], value: &[u8]) -> Result<()> {
        self.txn.lock(txn.id, key, fame_txn::LockMode::Exclusive)?;
        let old = self.kv_get(key)?;
        self.txn
            .manager(|m| m.log_put(txn.id, 0, key, old, value))?;
        self.kv_put(key, value)?;
        if let Some(pending) = self.txn_pending_ship.get_mut(&txn.id) {
            pending.push((key.to_vec(), Some(value.to_vec())));
        }
        Ok(())
    }

    /// Transactional get (takes a read lock).
    #[cfg(all(feature = "transactions", feature = "api-get"))]
    pub fn txn_get(&mut self, txn: TxnHandle, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.txn.lock(txn.id, key, fame_txn::LockMode::Shared)?;
        self.kv_get(key)
    }

    /// Transactional remove.
    #[cfg(all(feature = "transactions", feature = "api-remove"))]
    pub fn txn_remove(&mut self, txn: TxnHandle, key: &[u8]) -> Result<bool> {
        self.txn.lock(txn.id, key, fame_txn::LockMode::Exclusive)?;
        let old = self.kv_get(key)?;
        let Some(old) = old else {
            return Ok(false);
        };
        self.txn.manager(|m| m.log_remove(txn.id, 0, key, old))?;
        self.kv_remove(key)?;
        if let Some(pending) = self.txn_pending_ship.get_mut(&txn.id) {
            pending.push((key.to_vec(), None));
        }
        Ok(true)
    }

    /// Commit (durability per the composed commit protocol); ships the
    /// transaction's effects to replicas. MultiWriter products commit
    /// through the cross-transaction group channel.
    #[cfg(feature = "transactions")]
    pub fn commit(&mut self, txn: TxnHandle) -> Result<()> {
        #[cfg(feature = "obs-trace")]
        let t0 = fame_obs::monotonic_ns();
        self.txn.commit(txn.id)?;
        #[cfg(feature = "obs-trace")]
        if !self.txn.is_shared() {
            self.recorder.sink().emit(
                fame_obs::SpanKind::TxnCommit,
                txn.id,
                0,
                fame_obs::monotonic_ns() - t0,
                0,
            );
        }
        let pending = self.txn_pending_ship.remove(&txn.id).unwrap_or_default();
        #[cfg(feature = "replication")]
        for (key, op) in pending {
            match op {
                Some(value) => self.ship_put(&key, &value)?,
                None => self.ship_remove(&key)?,
            }
        }
        #[cfg(not(feature = "replication"))]
        drop(pending);
        #[cfg(feature = "statistics")]
        self.trace.record(fame_obs::OpKind::TxnCommit, txn.id, 0);
        Ok(())
    }

    /// Abort: applies compensating actions to the index, then releases the
    /// transaction's locks.
    #[cfg(feature = "transactions")]
    pub fn abort(&mut self, txn: TxnHandle) -> Result<()> {
        self.txn_pending_ship.remove(&txn.id);
        self.roll_back(txn.id)?;
        #[cfg(feature = "statistics")]
        self.trace.record(fame_obs::OpKind::TxnAbort, txn.id, 0);
        #[cfg(feature = "obs-trace")]
        if !self.txn.is_shared() {
            self.recorder
                .sink()
                .emit(fame_obs::SpanKind::TxnAbort, txn.id, 0, 0, 0);
        }
        Ok(())
    }

    /// Transaction statistics `(committed, aborted)`.
    #[cfg(feature = "transactions")]
    pub fn txn_stats(&self) -> Option<(u64, u64)> {
        self.txn.read(fame_txn::TxnManager::stats)
    }

    /// Log-device sync count (commit-protocol comparison metric).
    #[cfg(feature = "transactions")]
    pub fn log_syncs(&self) -> Option<u64> {
        self.txn.read(fame_txn::TxnManager::log_syncs)
    }

    /// Replay captured WAL records against the store (run at open).
    #[cfg(feature = "transactions")]
    fn recover_from_records(
        &mut self,
        records: &[(fame_txn::Lsn, fame_txn::LogRecord)],
        resume: u64,
    ) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let stats = {
            let mut core = self.storage.get();
            let mut target = RecoverInto {
                core: &mut core,
                error: None,
            };
            let stats = fame_txn::recover_records(records, resume, &mut target);
            if let Some(e) = target.error {
                return Err(e);
            }
            // Seal the recovery: force the replayed pages to disk, then
            // append terminal Aborts for the losers plus a checkpoint so
            // the *next* open replays nothing. Without this, every reopen
            // redoes winners and re-undoes losers — on a log that only
            // grows, recovery time grows without bound.
            core.pager.sync()?;
            stats
        };
        let sealed = matches!(records.last(), Some((_, fame_txn::LogRecord::Checkpoint)))
            && stats.losers.is_empty();
        if !sealed {
            self.txn.manager(|m| m.seal_recovery(&stats.losers))?;
        }
        #[cfg(feature = "statistics")]
        self.trace.record(
            fame_obs::OpKind::Recovery,
            stats.redo_applied as u64,
            stats.undo_applied as u64,
        );
        #[cfg(feature = "obs-trace")]
        self.recorder.sink().emit(
            fame_obs::SpanKind::Recovery,
            0,
            0,
            stats.redo_applied as u64,
            stats.undo_applied as u64,
        );
        self.last_recovery = Some(stats);
        Ok(())
    }

    /// What recovery did at open, if a non-empty log was replayed.
    #[cfg(feature = "transactions")]
    pub fn last_recovery(&self) -> Option<&fame_txn::RecoveryStats> {
        self.last_recovery.as_ref()
    }

    // ---- replication (Berkeley DB REPLICATION, §2.2) ----------------------

    /// Attach a replica; pump it with `poll()` or run it with `spawn()`
    /// (feature `replication`).
    #[cfg(feature = "replication")]
    pub fn attach_replica(&mut self) -> Result<fame_repl::Replica> {
        let r = self
            .replication
            .as_mut()
            .ok_or_else(|| DbmsError::Config("replication not enabled in config".into()))?;
        Ok(r.add_replica())
    }

    /// Replication lag: shipped minus acknowledged sequence numbers.
    #[cfg(feature = "replication")]
    pub fn replication_lag(&mut self) -> Option<u64> {
        self.replication
            .as_mut()
            .map(|p| p.last_seq() - p.commit_horizon())
    }

    /// Digest of the primary's KV state; compare with
    /// [`fame_repl::ReplicaState::digest`] to verify convergence
    /// (B+-tree index only — the digest needs a deterministic order).
    #[cfg(all(feature = "replication", feature = "index-btree"))]
    pub fn state_digest(&mut self) -> Result<u64> {
        let mut core = self.storage.get();
        let core = &mut *core;
        match &core.kv {
            Kv::BTree(t) => {
                let entries = t.scan(&mut core.pager, None, None)?;
                Ok(fame_repl::digest_of(
                    entries
                        .iter()
                        .map(|(k, v)| (0u8, k.as_slice(), v.as_slice())),
                ))
            }
            #[allow(unreachable_patterns)]
            _ => Err(DbmsError::Config("state digest needs the B+-tree".into())),
        }
    }

    #[cfg(feature = "replication")]
    fn ship_put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if let Some(p) = &mut self.replication {
            p.ship(fame_repl::ShipOp::Put {
                index: 0,
                key: key.to_vec(),
                value: value.to_vec(),
            })?;
        }
        Ok(())
    }

    #[cfg(feature = "replication")]
    fn ship_remove(&mut self, key: &[u8]) -> Result<()> {
        if let Some(p) = &mut self.replication {
            p.ship(fame_repl::ShipOp::Remove {
                index: 0,
                key: key.to_vec(),
            })?;
        }
        Ok(())
    }
}

/// Summary of the last [`Database::verify_integrity`] walk, kept for the
/// statistics report (feature `statistics`).
#[cfg(feature = "statistics")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegritySummary {
    /// Structural invariants found violated.
    pub violations: usize,
    /// Allocated pages neither reachable nor free.
    pub leaked_pages: u32,
}

/// Product statistics report (feature `statistics`).
///
/// Coherent point-in-time copy: every field is a plain value read once
/// from its atomic source, safe to take while concurrent [`DbReader`]s
/// run.
#[cfg(feature = "statistics")]
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Live keys in the primary index.
    pub keys: usize,
    /// Name of the composed index.
    pub index: &'static str,
    /// Pages the pager has handed out (including meta and free list).
    pub allocated_pages: u32,
    /// Page size in bytes.
    pub page_size: usize,
    /// Buffer-pool counters (hits/misses/evictions/writebacks/latch waits).
    pub pool: fame_buffer::PoolStats,
    /// Device counters.
    pub device: fame_os::DeviceStats,
    /// Logical pager operations (page reads/writes, allocs/frees).
    pub pager_ops: fame_storage::PagerOpsSnapshot,
    /// Data-device I/O latency histograms.
    pub io: fame_os::IoTimingSnapshot,
    /// Buffer frames currently resident.
    pub frames: usize,
    /// Bytes those frames pin (`frames * page_size`) — the `ram` NFP of
    /// the buffer.
    pub frame_bytes: usize,
    /// Events recorded into the op-trace ring since open.
    pub ops_traced: u64,
    /// Windowed span metrics of the flight recorder (feature `obs-trace`):
    /// per-window lock-wait / commit percentiles plus deadlock and
    /// restart rates over the last rotation windows, not since boot.
    #[cfg(feature = "obs-trace")]
    pub windows: fame_obs::WindowsSnapshot,
    /// Lookups served by dropped [`DbReader`] handles (handle-local
    /// counters, merged when a handle drops — live handles' in-flight
    /// counts are not included).
    #[cfg(feature = "concurrency-multi")]
    pub reader_gets: u64,
    /// How many of those lookups found the key.
    #[cfg(feature = "concurrency-multi")]
    pub reader_hits: u64,
    /// What the last [`Database::verify_integrity`] found; `None` until
    /// it has been run on this instance.
    pub integrity: Option<IntegritySummary>,
    /// Batches applied via [`Database::apply_batch`].
    #[cfg(feature = "api-batch")]
    pub batches: u64,
    /// Operations submitted across those batches.
    #[cfg(feature = "api-batch")]
    pub batch_ops: u64,
    /// Whole-batch apply latency (resolve + log + bulk apply + commit).
    #[cfg(feature = "api-batch")]
    pub batch_latency: fame_obs::HistogramSnapshot,
    /// `(committed, aborted)`, when transactions are configured.
    #[cfg(feature = "transactions")]
    pub txn: Option<(u64, u64)>,
    /// Log-device sync count, when transactions are configured.
    #[cfg(feature = "transactions")]
    pub log_syncs: Option<u64>,
    /// Bytes appended to the WAL (the log tail offset).
    #[cfg(feature = "transactions")]
    pub log_bytes: Option<u64>,
    /// Commit-latency histogram of successful commits.
    #[cfg(feature = "transactions")]
    pub commit_latency: Option<fame_obs::HistogramSnapshot>,
    /// Block-lock counters, when the instance runs MultiWriter.
    #[cfg(feature = "concurrency-multi-writer")]
    pub locks: Option<LockStats>,
    /// Copy-on-write version-chain counters (feature
    /// `concurrency-snapshot`): chain high-water, live snapshots,
    /// reclaimed versions.
    #[cfg(feature = "concurrency-snapshot")]
    pub versions: Option<fame_buffer::VersionStats>,
    /// Redo operations applied by recovery at open (0 = clean open).
    #[cfg(feature = "transactions")]
    pub recovery_redo: usize,
    /// Undo operations applied by recovery at open.
    #[cfg(feature = "transactions")]
    pub recovery_undo: usize,
    /// SQL executor counters; `None` until the engine has been used.
    #[cfg(feature = "sql")]
    pub query: Option<fame_query::QueryObsSnapshot>,
    /// Shipped-minus-acknowledged, when replication is configured.
    #[cfg(feature = "replication")]
    pub replication_lag: Option<u64>,
}

#[cfg(feature = "statistics")]
impl StatsSnapshot {
    /// Flat `metric<TAB>value` export, one line per scalar — the format
    /// the E9 probe and external collectors scrape. Histogram fields
    /// export count/mean/p50/p99/max.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        let mut put = |k: &str, v: u64| {
            out.push_str(k);
            out.push('\t');
            out.push_str(&v.to_string());
            out.push('\n');
        };
        put("keys", self.keys as u64);
        put("allocated_pages", u64::from(self.allocated_pages));
        put("page_size", self.page_size as u64);
        put("pool.hits", self.pool.hits);
        put("pool.misses", self.pool.misses);
        put("pool.evictions", self.pool.evictions);
        put("pool.writebacks", self.pool.writebacks);
        put("pool.latch_waits", self.pool.latch_waits);
        put("pool.frames", self.frames as u64);
        put("pool.frame_bytes", self.frame_bytes as u64);
        put("device.reads", self.device.reads);
        put("device.writes", self.device.writes);
        put("device.syncs", self.device.syncs);
        put("device.erases", self.device.erases);
        put("pager.page_reads", self.pager_ops.page_reads);
        put("pager.page_writes", self.pager_ops.page_writes);
        put("pager.allocs", self.pager_ops.allocs);
        put("pager.frees", self.pager_ops.frees);
        for (name, h) in [
            ("io.read", &self.io.read),
            ("io.write", &self.io.write),
            ("io.sync", &self.io.sync),
        ] {
            put(&format!("{name}.count"), h.count);
            put(&format!("{name}.mean_ns"), h.mean_ns());
            put(&format!("{name}.p50_ns"), h.percentile_ns(50));
            put(&format!("{name}.p99_ns"), h.percentile_ns(99));
            put(&format!("{name}.max_ns"), h.max_ns);
        }
        put("ops_traced", self.ops_traced);
        #[cfg(feature = "concurrency-multi")]
        {
            put("reader.gets", self.reader_gets);
            put("reader.hits", self.reader_hits);
        }
        #[cfg(feature = "obs-trace")]
        {
            let w = &self.windows;
            put("trace.spans.recorded", w.recorded);
            put("trace.spans.dropped", w.dropped);
            put("trace.lock_wait.p99_ns", w.lock_wait_p99_ns());
            put("trace.commit.p99_ns", w.commit_p99_ns());
            put("trace.deadlocks.total", w.deadlocks.total());
            put("trace.restarts.total", w.restarts.total());
            // Rates as fixed-point thousandths: `put` (and the scrapers
            // downstream) speak integers only.
            put(
                "trace.deadlocks_per_sec_x1000",
                (w.deadlocks_per_sec() * 1000.0) as u64,
            );
            put(
                "trace.restarts_per_sec_x1000",
                (w.restarts_per_sec() * 1000.0) as u64,
            );
        }
        if let Some(i) = &self.integrity {
            put("integrity.violations", i.violations as u64);
            put("integrity.leaked_pages", u64::from(i.leaked_pages));
        }
        #[cfg(feature = "api-batch")]
        {
            put("batch.batches", self.batches);
            put("batch.ops", self.batch_ops);
            put("batch.latency.count", self.batch_latency.count);
            put("batch.latency.mean_ns", self.batch_latency.mean_ns());
            put("batch.latency.p50_ns", self.batch_latency.percentile_ns(50));
            put("batch.latency.p99_ns", self.batch_latency.percentile_ns(99));
            put("batch.latency.max_ns", self.batch_latency.max_ns);
        }
        #[cfg(feature = "transactions")]
        {
            if let Some((c, a)) = self.txn {
                put("txn.committed", c);
                put("txn.aborted", a);
            }
            if let Some(s) = self.log_syncs {
                put("txn.log_syncs", s);
            }
            if let Some(b) = self.log_bytes {
                put("txn.log_bytes", b);
            }
            if let Some(h) = &self.commit_latency {
                put("txn.commit.count", h.count);
                put("txn.commit.mean_ns", h.mean_ns());
                put("txn.commit.p50_ns", h.percentile_ns(50));
                put("txn.commit.p99_ns", h.percentile_ns(99));
                put("txn.commit.max_ns", h.max_ns);
            }
            put("recovery.redo", self.recovery_redo as u64);
            put("recovery.undo", self.recovery_undo as u64);
        }
        #[cfg(feature = "concurrency-multi-writer")]
        if let Some(l) = &self.locks {
            put("lock.waits", l.waits);
            put("lock.wait.count", l.wait_time.count);
            put("lock.wait.mean_ns", l.wait_time.mean_ns());
            put("lock.wait.p50_ns", l.wait_time.percentile_ns(50));
            put("lock.wait.p99_ns", l.wait_time.percentile_ns(99));
            put("lock.wait.max_ns", l.wait_time.max_ns);
            put("lock.deadlock_aborts", l.deadlock_aborts);
            put("lock.timeout_aborts", l.timeout_aborts);
        }
        #[cfg(feature = "concurrency-snapshot")]
        if let Some(v) = &self.versions {
            put("snapshot.chain_max", v.chain_max);
            put("snapshot.active", v.active);
            put("snapshot.pruned", v.pruned);
            put("snapshot.live_entries", v.live_entries);
            put("snapshot.pending_pages", v.pending_pages);
        }
        #[cfg(feature = "sql")]
        if let Some(q) = &self.query {
            put("query.rows_scanned", q.rows_scanned);
            put("query.full_scans", q.full_scans);
            put("query.point_lookups", q.point_lookups);
            put("query.range_scans", q.range_scans);
        }
        #[cfg(feature = "replication")]
        if let Some(lag) = self.replication_lag {
            put("replication.lag", lag);
        }
        out
    }
}

#[cfg(feature = "statistics")]
impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "index:            {} ({} keys)", self.index, self.keys)?;
        writeln!(
            f,
            "pages:            {} x {} bytes",
            self.allocated_pages, self.page_size
        )?;
        writeln!(
            f,
            "buffer:           {:.1}% hits ({} accesses, {} evictions, {} writebacks, {} latch waits)",
            self.pool.hit_ratio() * 100.0,
            self.pool.hits + self.pool.misses,
            self.pool.evictions,
            self.pool.writebacks,
            self.pool.latch_waits
        )?;
        writeln!(
            f,
            "frames:           {} resident ({} bytes)",
            self.frames, self.frame_bytes
        )?;
        writeln!(
            f,
            "pager:            {} page reads, {} page writes, {} allocs, {} frees",
            self.pager_ops.page_reads,
            self.pager_ops.page_writes,
            self.pager_ops.allocs,
            self.pager_ops.frees
        )?;
        writeln!(
            f,
            "device:           {} reads, {} writes, {} syncs, {} erases",
            self.device.reads, self.device.writes, self.device.syncs, self.device.erases
        )?;
        write!(f, "io read:          {}", self.io.read)?;
        write!(f, "\nio write:         {}", self.io.write)?;
        write!(f, "\nio sync:          {}", self.io.sync)?;
        write!(f, "\nops traced:       {}", self.ops_traced)?;
        #[cfg(feature = "concurrency-multi")]
        if self.reader_gets > 0 {
            write!(
                f,
                "\nreaders:          {} gets ({} hits, from dropped handles)",
                self.reader_gets, self.reader_hits
            )?;
        }
        #[cfg(feature = "obs-trace")]
        {
            let w = &self.windows;
            write!(
                f,
                "\nspans:            {} recorded, {} dropped",
                w.recorded, w.dropped
            )?;
            write!(
                f,
                "\nwindows:          lock-wait p99 {}ns, commit p99 {}ns, {:.1} deadlocks/s, {:.1} restarts/s",
                w.lock_wait_p99_ns(),
                w.commit_p99_ns(),
                w.deadlocks_per_sec(),
                w.restarts_per_sec()
            )?;
        }
        if let Some(i) = &self.integrity {
            write!(
                f,
                "\nintegrity:        {} violations, {} leaked pages",
                i.violations, i.leaked_pages
            )?;
        }
        #[cfg(feature = "api-batch")]
        if self.batches > 0 {
            write!(
                f,
                "\nbatches:          {} applied ({} ops), latency {}",
                self.batches, self.batch_ops, self.batch_latency
            )?;
        }
        #[cfg(feature = "transactions")]
        {
            if let Some((c, a)) = self.txn {
                write!(f, "\ntransactions:     {c} committed, {a} aborted")?;
            }
            if let (Some(s), Some(b)) = (self.log_syncs, self.log_bytes) {
                write!(f, "\nwal:              {s} syncs, {b} bytes")?;
            }
            if let Some(h) = &self.commit_latency {
                write!(f, "\ncommit latency:   {h}")?;
            }
            if self.recovery_redo + self.recovery_undo > 0 {
                write!(
                    f,
                    "\nrecovery:         {} redo, {} undo",
                    self.recovery_redo, self.recovery_undo
                )?;
            }
        }
        #[cfg(feature = "concurrency-multi-writer")]
        if let Some(l) = &self.locks {
            write!(
                f,
                "\nlocks:            {} waits ({} deadlock aborts, {} timeouts), wait time {}",
                l.waits, l.deadlock_aborts, l.timeout_aborts, l.wait_time
            )?;
        }
        #[cfg(feature = "sql")]
        if let Some(q) = &self.query {
            write!(
                f,
                "\nquery:            {} rows scanned ({} point, {} range, {} full)",
                q.rows_scanned, q.point_lookups, q.range_scans, q.full_scans
            )?;
        }
        #[cfg(feature = "replication")]
        if let Some(lag) = self.replication_lag {
            write!(f, "\nreplication lag:  {lag}")?;
        }
        Ok(())
    }
}

/// A batch's net effect on one key: `Some(value)` writes, `None` removes.
#[cfg(feature = "api-batch")]
type ResolvedOp = (Vec<u8>, Option<Vec<u8>>);

/// An ordered set of writes applied as one unit by
/// [`Database::apply_batch`] (feature `api-batch`).
///
/// Later operations on the same key supersede earlier ones — the same net
/// effect as issuing the calls one at a time, but applied through the bulk
/// storage path and (with transactions) committed with one log sync.
#[cfg(feature = "api-batch")]
#[derive(Debug, Default, Clone)]
pub struct WriteBatch {
    ops: Vec<BatchOp>,
}

/// One queued batch operation.
#[cfg(feature = "api-batch")]
#[derive(Debug, Clone)]
enum BatchOp {
    Put {
        key: Vec<u8>,
        value: Vec<u8>,
    },
    #[cfg(feature = "api-update")]
    Update {
        key: Vec<u8>,
        value: Vec<u8>,
    },
    #[cfg(feature = "api-remove")]
    Remove {
        key: Vec<u8>,
    },
}

#[cfg(feature = "api-batch")]
impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Queue an insert-or-overwrite.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.ops.push(BatchOp::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        });
        self
    }

    /// Queue an overwrite of an existing key (feature `api-update`).
    /// Applying the batch fails — and applies nothing — if the key does
    /// not exist at that point in the batch.
    #[cfg(feature = "api-update")]
    pub fn update(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.ops.push(BatchOp::Update {
            key: key.to_vec(),
            value: value.to_vec(),
        });
        self
    }

    /// Queue a removal (feature `api-remove`); removing an absent key is
    /// a no-op, as in [`Database::remove`].
    #[cfg(feature = "api-remove")]
    pub fn remove(&mut self, key: &[u8]) -> &mut Self {
        self.ops.push(BatchOp::Remove { key: key.to_vec() });
        self
    }

    /// Queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drop all queued operations.
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

/// An open transaction (copyable token; the manager owns the state).
#[cfg(feature = "transactions")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnHandle {
    id: fame_txn::TxnId,
}

#[cfg(feature = "transactions")]
impl TxnHandle {
    /// The raw transaction id.
    pub fn id(&self) -> fame_txn::TxnId {
        self.id
    }
}

/// Read-only dispatch state of a [`DbReader`]: which index to search and
/// where its root lives. All three handles are `Copy`; only the B+-tree's
/// root page can move (splits), so the reader re-resolves it per lookup.
#[cfg(feature = "concurrency-multi")]
#[derive(Clone, Copy)]
enum ReaderKv {
    #[cfg(feature = "index-btree")]
    BTree { root_slot: usize },
    #[cfg(feature = "index-list")]
    List(ListIndex),
    #[cfg(feature = "index-hash")]
    Hash(HashIndex),
}

/// Shared accumulator for dropped [`DbReader`] handles' local counters
/// (feature `statistics`). Live handles count into plain handle-local
/// `u64`s — the read path writes no shared cache line, which is what
/// keeps `fig1b_mt` scaling intact — and flush here exactly once, on
/// drop.
#[cfg(all(feature = "concurrency-multi", feature = "statistics"))]
#[derive(Debug, Default)]
struct ReaderAccum {
    gets: std::sync::atomic::AtomicU64,
    hits: std::sync::atomic::AtomicU64,
}

/// The handle-local half: plain counters plus the `Arc` they flush into.
/// Cloning a handle starts the clone's counts at zero (the parent keeps
/// its own); dropping flushes with two Relaxed `fetch_add`s.
#[cfg(all(feature = "concurrency-multi", feature = "statistics"))]
#[derive(Debug)]
struct ReaderObs {
    acc: Arc<ReaderAccum>,
    gets: u64,
    hits: u64,
}

#[cfg(all(feature = "concurrency-multi", feature = "statistics"))]
impl Clone for ReaderObs {
    fn clone(&self) -> Self {
        ReaderObs {
            acc: Arc::clone(&self.acc),
            gets: 0,
            hits: 0,
        }
    }
}

#[cfg(all(feature = "concurrency-multi", feature = "statistics"))]
impl Drop for ReaderObs {
    fn drop(&mut self) {
        use std::sync::atomic::Ordering::Relaxed;
        if self.gets > 0 {
            self.acc.gets.fetch_add(self.gets, Relaxed);
            self.acc.hits.fetch_add(self.hits, Relaxed);
        }
    }
}

/// A concurrent read handle obtained from [`Database::reader`] (feature
/// `concurrency-multi`).
///
/// Internally an `Arc` over the sharded pool: cloning is cheap and each
/// clone serves lookups independently, taking only per-shard read latches
/// on cache hits. The `&mut self` receivers are a formality of the
/// [`fame_storage::PageRead`] trait — no writer lock exists on this path.
#[cfg(feature = "concurrency-multi")]
#[derive(Clone)]
pub struct DbReader {
    pager: SharedPager,
    kv: ReaderKv,
    /// Handle-local lookup counters (feature `statistics`), merged into
    /// [`Database::stats`]'s `reader_gets`/`reader_hits` when this handle
    /// drops.
    #[cfg(feature = "statistics")]
    obs: ReaderObs,
}

#[cfg(feature = "concurrency-multi")]
impl DbReader {
    /// Look up a key.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_with(key, |v| v.to_vec())
    }

    /// Allocation-free lookup: run `f` over the value bytes in place.
    pub fn get_with<R>(&mut self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Result<Option<R>> {
        let found = self.lookup(key, f)?;
        #[cfg(feature = "statistics")]
        {
            self.obs.gets += 1;
            self.obs.hits += u64::from(found.is_some());
        }
        Ok(found)
    }

    fn lookup<R>(&mut self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Result<Option<R>> {
        match self.kv {
            #[cfg(feature = "index-btree")]
            ReaderKv::BTree { root_slot } => {
                // Optimistic lock coupling: the descent resolves the
                // root itself and chases child pointers on page-version
                // checks, restarting if a concurrent split moves a node
                // underneath it. No latch is taken on the hit path.
                Ok(BTree::get_olc(&mut self.pager, root_slot, key, f)?)
            }
            #[cfg(feature = "index-list")]
            ReaderKv::List(l) => Ok(l.get_with(&mut self.pager, key, f)?),
            #[cfg(feature = "index-hash")]
            ReaderKv::Hash(h) => Ok(h.get_with(&mut self.pager, key, f)?),
        }
    }

    /// `true` when the key exists.
    pub fn contains(&mut self, key: &[u8]) -> Result<bool> {
        Ok(self.get_with(key, |_| ())?.is_some())
    }

    /// Counters of the shared pool (aggregated over all handles).
    pub fn pool_stats(&self) -> fame_buffer::PoolStats {
        self.pager.pool().stats()
    }
}

/// A wait-free point-in-time read view obtained from
/// [`Database::snapshot`] (feature `concurrency-snapshot`).
///
/// Every lookup resolves pages to the newest committed version ≤ the
/// snapshot's timestamp: concurrent writers are invisible, the lock
/// table is never consulted, and the read path writes no shared cache
/// line. The versions a live snapshot may need are protected from
/// pruning; dropping the handle deregisters it and lets them go.
///
/// Not `Clone` — each snapshot registers exactly once. Take another
/// [`Database::snapshot`] for a second (possibly newer) view.
#[cfg(feature = "concurrency-snapshot")]
pub struct DbSnapshot {
    pager: fame_storage::SnapshotPager,
    kv: ReaderKv,
}

#[cfg(feature = "concurrency-snapshot")]
impl DbSnapshot {
    /// The commit timestamp this view is pinned to.
    pub fn ts(&self) -> u64 {
        self.pager.ts()
    }

    /// Re-pin to the newest stable commit timestamp — equivalent to
    /// dropping this handle and taking a fresh [`Database::snapshot`],
    /// but callable from the owning thread (the handle is `Send`, the
    /// facade is not): polling readers advance themselves without a
    /// round-trip through `&Database`. Old versions only this snapshot
    /// kept alive are pruned on the way.
    pub fn refresh(&mut self) {
        let pool = self.pager.pool().clone();
        pool.snapshot_end(self.pager.ts());
        self.pager.repin(pool.snapshot_begin());
    }

    /// Look up a key as of this snapshot.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_with(key, |v| v.to_vec())
    }

    /// Allocation-free snapshot lookup: run `f` over the value bytes.
    pub fn get_with<R>(&mut self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Result<Option<R>> {
        match self.kv {
            #[cfg(feature = "index-btree")]
            ReaderKv::BTree { root_slot } => {
                // Same optimistic descent as `DbReader`, but over the
                // timestamp-pinned pager: every page token is the
                // always-valid sentinel because the observed tree is
                // frozen (see `SnapshotPager`).
                Ok(BTree::get_olc(&mut self.pager, root_slot, key, f)?)
            }
            #[cfg(feature = "index-list")]
            ReaderKv::List(l) => Ok(l.get_with(&mut self.pager, key, f)?),
            #[cfg(feature = "index-hash")]
            ReaderKv::Hash(h) => Ok(h.get_with(&mut self.pager, key, f)?),
        }
    }

    /// `true` when the key exists in this snapshot.
    pub fn contains(&mut self, key: &[u8]) -> Result<bool> {
        Ok(self.get_with(key, |_| ())?.is_some())
    }
}

#[cfg(feature = "concurrency-snapshot")]
impl Drop for DbSnapshot {
    fn drop(&mut self) {
        // Deregister and let the pool prune whatever only this snapshot
        // kept alive.
        self.pager.pool().snapshot_end(self.pager.ts());
    }
}

/// A concurrent transactional write handle obtained from
/// [`Database::writer`] (feature `concurrency-multi-writer`).
///
/// Clones share the same storage core and transaction manager; one clone
/// per thread is the intended pattern. Every data access first takes the
/// key's block lock (S for reads, X for writes) from the blocking lock
/// table — transactions touching disjoint key ranges proceed in parallel,
/// conflicting ones wait in FIFO order, and the request that would close a
/// wait cycle fails with [`fame_txn::LockError::Deadlock`]; its
/// transaction must abort. Each key is locked once, in that table, and
/// writes follow the facade's order: lock, read old value, log, apply.
/// Commits funnel through the cross-transaction group channel: one WAL
/// append and one protocol sync cover every transaction in a drain.
///
/// Lock order (deadlock-free by construction): block-lock table, then the
/// storage mutex, then the manager mutex — never the reverse.
#[cfg(feature = "concurrency-multi-writer")]
#[derive(Clone)]
pub struct DbWriter {
    storage: Arc<Mutex<StorageCore>>,
    txn: Arc<fame_txn::SharedTxnManager>,
    /// Snapshot feature: shared pool handle for tagging page writes with
    /// the owning transaction (pre-image capture) and releasing the
    /// versions of aborted transactions. `None` only if the pool somehow
    /// isn't shared — impossible under `Concurrency::MultiWriter`.
    #[cfg(feature = "concurrency-snapshot")]
    pool: Option<fame_buffer::SharedBufferPool>,
}

#[cfg(feature = "concurrency-multi-writer")]
impl DbWriter {
    fn storage(&self) -> std::sync::MutexGuard<'_, StorageCore> {
        self.storage.lock().expect("storage mutex poisoned")
    }

    /// Start a transaction.
    pub fn begin(&self) -> Result<TxnHandle> {
        Ok(TxnHandle {
            id: self.txn.begin()?,
        })
    }

    /// Start a transaction that retries aborted transaction `parent`
    /// (deadlock victim or lock timeout). Behaviorally identical to
    /// [`DbWriter::begin`]; with the `obs-trace` feature the new
    /// transaction's causal span chain is spliced onto the aborted one's
    /// via a `retry` event — the link E13 asserts on when reconstructing
    /// `lock-wait → deadlock-victim → retry → txn-commit`.
    pub fn begin_retry(&self, parent: TxnHandle) -> Result<TxnHandle> {
        Ok(TxnHandle {
            id: self.txn.begin_retry(parent.id)?,
        })
    }

    /// Transactional put: block lock, WAL, then apply.
    #[cfg(feature = "api-put")]
    pub fn put(&self, txn: TxnHandle, key: &[u8], value: &[u8]) -> Result<()> {
        self.txn.lock_write(txn.id, key)?;
        let mut core = self.storage();
        let old = core.kv_get(key)?;
        self.txn.log_put(txn.id, 0, key, old, value)?;
        // Snapshot feature: tag the apply with the owning transaction so
        // the pool captures pre-images for the version chains.
        #[cfg(feature = "concurrency-snapshot")]
        let _vscope = fame_buffer::TxnWriteScope::new(txn.id);
        core.kv_put(key, value)?;
        Ok(())
    }

    /// Transactional get (takes the shared block lock).
    #[cfg(feature = "api-get")]
    pub fn get(&self, txn: TxnHandle, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.txn.lock_read(txn.id, key)?;
        self.storage().kv_get(key)
    }

    /// Transactional remove; `false` if the key was absent.
    #[cfg(feature = "api-remove")]
    pub fn remove(&self, txn: TxnHandle, key: &[u8]) -> Result<bool> {
        self.txn.lock_write(txn.id, key)?;
        let mut core = self.storage();
        let Some(old) = core.kv_get(key)? else {
            return Ok(false);
        };
        self.txn.log_remove(txn.id, 0, key, old)?;
        #[cfg(feature = "concurrency-snapshot")]
        let _vscope = fame_buffer::TxnWriteScope::new(txn.id);
        core.kv_remove(key)?;
        Ok(true)
    }

    /// Commit through the group channel. On success the transaction's
    /// block locks are released; on failure it stays active with locks
    /// held, so the caller can retry the commit or abort.
    pub fn commit(&self, txn: TxnHandle) -> Result<()> {
        Ok(self.txn.commit(txn.id)?)
    }

    /// Run `body` inside `txn`, commit, and retry the whole transaction
    /// on lock conflicts: a deadlock-victim or timeout abort rolls the
    /// transaction back, sleeps a bounded exponential backoff (50 µs
    /// doubling up to ~3.2 ms), and replays `body` under a fresh
    /// transaction spliced onto the aborted one's span chain via
    /// [`DbWriter::begin_retry`] — so E13's
    /// `lock-wait → deadlock-victim → retry → txn-commit` causal
    /// reconstruction keeps working across retries.
    ///
    /// Returns the handle of the transaction that finally committed.
    /// After `max_retries` retries the last lock error is returned; any
    /// non-lock error aborts and returns immediately. In every error
    /// case the transaction has been rolled back and its locks released.
    ///
    /// `body` must be idempotent in the usual transactional sense: it is
    /// re-run from scratch against the rolled-back state on each retry.
    pub fn commit_with_retry(
        &self,
        txn: TxnHandle,
        max_retries: u32,
        mut body: impl FnMut(&DbWriter, TxnHandle) -> Result<()>,
    ) -> Result<TxnHandle> {
        let mut txn = txn;
        let mut attempt = 0u32;
        loop {
            match body(self, txn).and_then(|()| self.commit(txn)) {
                Ok(()) => return Ok(txn),
                Err(e @ DbmsError::Txn(fame_txn::TxnError::Lock(_))) => {
                    let _ = self.abort(txn);
                    if attempt >= max_retries {
                        return Err(e);
                    }
                    // Cap the shift so the backoff stays bounded (and the
                    // shift defined) for any retry budget.
                    std::thread::sleep(std::time::Duration::from_micros(50u64 << attempt.min(6)));
                    txn = self.begin_retry(txn)?;
                    attempt += 1;
                }
                Err(e) => {
                    let _ = self.abort(txn);
                    return Err(e);
                }
            }
        }
    }

    /// Abort: applies the undo under the storage mutex, then releases the
    /// block locks (never the other way round — a waiter granted early
    /// would read the un-undone value).
    pub fn abort(&self, txn: TxnHandle) -> Result<()> {
        let undo = self.txn.abort(txn.id)?;
        let mut core = self.storage();
        // Snapshot feature: undo writes stay tagged with the aborting
        // transaction — pages the undo touches for the first time (e.g. a
        // split during the rollback) capture their pre-image under the
        // same pending streak, released below in one step.
        #[cfg(feature = "concurrency-snapshot")]
        let vscope = fame_buffer::TxnWriteScope::new(txn.id);
        let mut first_err = None;
        for action in undo {
            let applied = match action.restore {
                Some(old) => core.kv_put(&action.key, &old).map(|_| ()),
                None => core.kv_remove(&action.key).map(|_| ()),
            };
            if let Err(e) = applied {
                first_err = Some(e);
                break;
            }
        }
        drop(core);
        #[cfg(feature = "concurrency-snapshot")]
        drop(vscope);
        // The heads now hold the restored pre-state; mark the pages
        // committed again so snapshot reads stop detouring to the chains.
        #[cfg(feature = "concurrency-snapshot")]
        if let Some(pool) = &self.pool {
            pool.release_aborted_txn(txn.id);
        }
        self.txn.release_locks(txn.id);
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// `(committed, aborted)` counters of the shared manager.
    pub fn txn_stats(&self) -> (u64, u64) {
        self.txn.stats()
    }

    /// Log-device sync count (group-commit comparison metric).
    pub fn log_syncs(&self) -> u64 {
        self.txn.log_syncs()
    }
}

/// Block-lock counters of a MultiWriter product (feature `statistics`):
/// how often writers park, for how long, and why transactions died.
#[cfg(all(feature = "concurrency-multi-writer", feature = "statistics"))]
#[derive(Debug, Clone)]
pub struct LockStats {
    /// Acquisitions that had to park (at least one condvar wait).
    pub waits: u64,
    /// Time spent parked, per blocking acquisition.
    pub wait_time: fame_obs::HistogramSnapshot,
    /// Lock requests refused because their wait would close a deadlock
    /// cycle.
    pub deadlock_aborts: u64,
    /// Acquisitions that gave up on timeout.
    pub timeout_aborts: u64,
}

/// Borrowed handle to the queue access method. Holds the storage guard
/// for its lifetime, so in MultiWriter products concurrent writers block
/// until the handle is dropped.
#[cfg(feature = "index-queue")]
pub struct QueueHandle<'a> {
    queue: fame_storage::Queue,
    core: CoreGuard<'a>,
}

#[cfg(feature = "index-queue")]
impl QueueHandle<'_> {
    /// Append a record; returns its record number.
    pub fn push(&mut self, record: &[u8]) -> Result<u64> {
        Ok(self.queue.push(&mut self.core.pager, record)?)
    }

    /// Remove and return the oldest record.
    pub fn pop(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(self.queue.pop(&mut self.core.pager)?)
    }

    /// Read the oldest record without consuming it.
    pub fn peek(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(self.queue.peek(&mut self.core.pager)?)
    }

    /// Random access by record number.
    pub fn get(&mut self, recno: u64) -> Result<Option<Vec<u8>>> {
        Ok(self.queue.get(&mut self.core.pager, recno)?)
    }

    /// Live records.
    pub fn len(&mut self) -> Result<u64> {
        Ok(self.queue.len(&mut self.core.pager)?)
    }

    /// `true` when empty.
    pub fn is_empty(&mut self) -> Result<bool> {
        Ok(self.queue.is_empty(&mut self.core.pager)?)
    }
}

/// Adapter implementing the recovery callback over the storage core.
#[cfg(feature = "transactions")]
struct RecoverInto<'a> {
    core: &'a mut StorageCore,
    error: Option<DbmsError>,
}

#[cfg(feature = "transactions")]
impl fame_txn::RecoveryTarget for RecoverInto<'_> {
    fn apply_put(&mut self, _index: u8, key: &[u8], value: &[u8]) {
        if self.error.is_none() {
            if let Err(e) = self.core.kv_put(key, value) {
                self.error = Some(e);
            }
        }
    }

    fn apply_remove(&mut self, _index: u8, key: &[u8]) {
        if self.error.is_none() {
            if let Err(e) = self.core.kv_remove(key) {
                self.error = Some(e);
            }
        }
    }
}

// ---- device construction ---------------------------------------------------

fn make_device(config: &DbmsConfig) -> Result<Box<dyn BlockDevice>> {
    let dev: Box<dyn BlockDevice> = match &config.os {
        #[cfg(feature = "os-inmem")]
        OsTarget::InMemory { capacity_pages } => match capacity_pages {
            Some(cap) => Box::new(fame_os::InMemoryDevice::with_capacity(
                config.page_size,
                *cap,
            )),
            None => Box::new(fame_os::InMemoryDevice::new(config.page_size)),
        },
        #[cfg(feature = "os-std")]
        OsTarget::File { path } => {
            if path.exists() {
                Box::new(fame_os::FileDevice::open(path, config.page_size)?)
            } else {
                Box::new(fame_os::FileDevice::create(path, config.page_size)?)
            }
        }
        #[cfg(feature = "os-flash")]
        OsTarget::Flash(fc) => Box::new(fame_os::FlashDevice::new(*fc)),
    };

    #[cfg(feature = "crypto")]
    if let Some(key) = &config.crypto_key {
        return Ok(Box::new(WrapCrypto::new(dev, key)));
    }
    Ok(dev)
}

/// The log lives next to the data: `<path>.log` for file targets, a fresh
/// in-memory device otherwise.
#[cfg(feature = "transactions")]
fn make_log_device(config: &DbmsConfig) -> Result<Box<dyn BlockDevice>> {
    Ok(match &config.os {
        #[cfg(feature = "os-std")]
        OsTarget::File { path } => {
            let mut log_path = path.clone();
            let mut name = log_path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "fame".to_string());
            name.push_str(".log");
            log_path.set_file_name(name);
            if log_path.exists() {
                Box::new(fame_os::FileDevice::open(&log_path, config.page_size)?)
            } else {
                Box::new(fame_os::FileDevice::create(&log_path, config.page_size)?)
            }
        }
        #[allow(unreachable_patterns)]
        _ => Box::new(new_inmem_log(config.page_size)),
    })
}

#[cfg(feature = "transactions")]
fn new_inmem_log(page_size: usize) -> impl BlockDevice {
    // Volatile log: commit protocols still run (and are measured), but a
    // process restart starts from a clean log. In-memory products are
    // volatile as a whole, so this is consistent.
    #[cfg(feature = "os-inmem")]
    {
        fame_os::InMemoryDevice::new(page_size)
    }
    #[cfg(not(feature = "os-inmem"))]
    {
        // Fall back to a flash-simulated log on flash-only builds.
        fame_os::FlashDevice::new(fame_os::FlashConfig {
            page_size,
            pages_per_block: 16,
            capacity_pages: 16 * 256,
            erase_endurance: None,
        })
    }
}

/// Crypto wrapper over a boxed device (the generic
/// `fame_storage::CryptoDevice<D>` needs a concrete `D`; products hold
/// devices as trait objects).
#[cfg(feature = "crypto")]
struct WrapCrypto {
    inner: Box<dyn BlockDevice>,
    cipher: fame_storage::crypto::PageCipher,
}

#[cfg(feature = "crypto")]
impl WrapCrypto {
    fn new(inner: Box<dyn BlockDevice>, key: &[u8; 16]) -> Self {
        WrapCrypto {
            inner,
            cipher: fame_storage::crypto::PageCipher::new(key),
        }
    }
}

#[cfg(feature = "crypto")]
impl BlockDevice for WrapCrypto {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }
    fn read_page(
        &mut self,
        page: u32,
        buf: &mut [u8],
    ) -> std::result::Result<(), fame_os::OsError> {
        self.inner.read_page(page, buf)?;
        if buf.iter().any(|&b| b != 0) {
            self.cipher.decrypt_page(page, buf);
        }
        Ok(())
    }
    fn write_page(&mut self, page: u32, buf: &[u8]) -> std::result::Result<(), fame_os::OsError> {
        let mut ct = buf.to_vec();
        self.cipher.encrypt_page(page, &mut ct);
        self.inner.write_page(page, &ct)
    }
    fn ensure_pages(&mut self, pages: u32) -> std::result::Result<(), fame_os::OsError> {
        self.inner.ensure_pages(pages)
    }
    fn sync(&mut self) -> std::result::Result<(), fame_os::OsError> {
        self.inner.sync()
    }
    fn stats(&self) -> fame_os::DeviceStats {
        self.inner.stats()
    }
}

fn make_pool(config: &DbmsConfig, device: Box<dyn BlockDevice>) -> BufferPool {
    #[cfg(feature = "buffer")]
    {
        #[cfg(feature = "concurrency-multi")]
        {
            let shared_shards = match config.concurrency {
                fame_buffer::Concurrency::MultiReader { shards } => Some(shards),
                // MultiWriter runs on the same sharded pool; the writer
                // coordination lives above it (block locks, group commit).
                #[cfg(feature = "concurrency-multi-writer")]
                fame_buffer::Concurrency::MultiWriter { shards } => Some(shards),
                #[allow(unreachable_patterns)]
                _ => None,
            };
            if let Some(shards) = shared_shards {
                let shards = if shards == 0 {
                    fame_buffer::DEFAULT_SHARDS
                } else {
                    shards
                };
                return match &config.buffer {
                    Some(b) => BufferPool::new_shared(device, b.replacement, b.policy(), shards),
                    None => BufferPool::unbuffered_shared(device),
                };
            }
        }
        match &config.buffer {
            Some(b) => BufferPool::new(device, b.replacement, b.policy()),
            None => BufferPool::unbuffered(device),
        }
    }
    #[cfg(not(feature = "buffer"))]
    {
        let _ = config;
        BufferPool::unbuffered(device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database::open(DbmsConfig::default_for_build()).unwrap()
    }

    #[cfg(all(feature = "api-put", feature = "api-get", feature = "api-remove"))]
    #[test]
    fn put_get_remove_round_trip() {
        let mut d = db();
        d.put(b"k1", b"v1").unwrap();
        d.put(b"k2", b"v2").unwrap();
        assert_eq!(d.get(b"k1").unwrap(), Some(b"v1".to_vec()));
        assert_eq!(d.len().unwrap(), 2);
        assert!(d.remove(b"k1").unwrap());
        assert!(!d.remove(b"k1").unwrap());
        assert_eq!(d.get(b"k1").unwrap(), None);
    }

    #[cfg(all(feature = "api-put", feature = "api-update", feature = "api-get"))]
    #[test]
    fn update_only_touches_existing() {
        let mut d = db();
        assert!(!d.update(b"ghost", b"x").unwrap());
        d.put(b"k", b"v1").unwrap();
        assert!(d.update(b"k", b"v2").unwrap());
        assert_eq!(d.get(b"k").unwrap(), Some(b"v2".to_vec()));
    }

    #[cfg(all(feature = "api-put", feature = "api-get", feature = "index-btree"))]
    #[test]
    fn scan_is_ordered() {
        let mut d = db();
        for i in [5u32, 1, 9, 3] {
            d.put(&i.to_be_bytes(), b"x").unwrap();
        }
        let all = d.scan(None, None).unwrap();
        let keys: Vec<u32> = all
            .iter()
            .map(|(k, _)| u32::from_be_bytes(k[..4].try_into().unwrap()))
            .collect();
        assert_eq!(keys, [1, 3, 5, 9]);
    }

    #[cfg(all(feature = "sql", feature = "api-put"))]
    #[test]
    fn sql_end_to_end() {
        let mut d = db();
        d.sql("CREATE TABLE t (id U32, v TEXT)").unwrap();
        d.sql("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
            .unwrap();
        let out = d.sql("SELECT v FROM t WHERE id = 2").unwrap();
        let rows = out.rows().unwrap();
        assert_eq!(rows[0][0], fame_storage::Value::Str("two".into()));
    }

    #[cfg(all(
        feature = "transactions",
        feature = "commit-force",
        feature = "api-put",
        feature = "api-get",
        feature = "api-remove"
    ))]
    #[test]
    fn transaction_commit_and_abort() {
        use crate::config::TxnConfig;
        let mut cfg = DbmsConfig::default_for_build();
        cfg.transactions = Some(TxnConfig {
            commit: fame_txn::CommitPolicy::Force,
        });
        let mut d = Database::open(cfg).unwrap();

        let t = d.begin().unwrap();
        d.txn_put(t, b"a", b"1").unwrap();
        d.commit(t).unwrap();
        assert_eq!(d.get(b"a").unwrap(), Some(b"1".to_vec()));

        let t = d.begin().unwrap();
        d.txn_put(t, b"a", b"2").unwrap();
        d.txn_put(t, b"b", b"new").unwrap();
        d.txn_remove(t, b"a").unwrap();
        d.abort(t).unwrap();
        assert_eq!(d.get(b"a").unwrap(), Some(b"1".to_vec()), "abort restored");
        assert_eq!(d.get(b"b").unwrap(), None, "created key rolled back");
        assert_eq!(d.txn_stats(), Some((1, 1)));
    }

    /// Single-writer products lock each key once, in the no-wait
    /// `LockManager` their transaction slot owns.
    #[cfg(all(
        feature = "transactions",
        feature = "commit-force",
        feature = "api-put",
        feature = "api-get",
        feature = "api-remove"
    ))]
    mod no_wait_locks {
        use super::*;

        /// A single-writer product with Force-commit transactions.
        fn txn_config() -> DbmsConfig {
            let mut cfg = DbmsConfig::default_for_build();
            cfg.transactions = Some(crate::config::TxnConfig {
                commit: fame_txn::CommitPolicy::Force,
            });
            cfg
        }

        fn txn_db() -> Database {
            Database::open(txn_config()).unwrap()
        }

        fn is_conflict<T: std::fmt::Debug>(r: Result<T>) -> bool {
            matches!(r, Err(DbmsError::Txn(fame_txn::TxnError::Conflict(_))))
        }

        #[test]
        fn single_writer_conflict_then_abort_and_retry() {
            let mut d = txn_db();
            d.put(b"k", b"old").unwrap();
            let t1 = d.begin().unwrap();
            let t2 = d.begin().unwrap();
            d.txn_put(t1, b"k", b"t1").unwrap();
            assert!(is_conflict(d.txn_put(t2, b"k", b"t2")));
            assert!(is_conflict(d.txn_remove(t2, b"k")));
            d.abort(t1).unwrap();
            assert_eq!(
                d.get(b"k").unwrap(),
                Some(b"old".to_vec()),
                "abort restored"
            );
            d.txn_put(t2, b"k", b"t2").unwrap();
            d.commit(t2).unwrap();
            assert_eq!(d.get(b"k").unwrap(), Some(b"t2".to_vec()));
            assert_eq!(d.txn_stats(), Some((1, 1)));
        }

        #[test]
        fn write_conflict_between_transactions() {
            let mut d = txn_db();
            let t1 = d.begin().unwrap();
            let t2 = d.begin().unwrap();
            d.txn_put(t1, b"k", b"v1").unwrap();
            assert!(is_conflict(d.txn_put(t2, b"k", b"v2")));
            // After t1 commits, t2 can proceed.
            d.commit(t1).unwrap();
            d.txn_put(t2, b"k", b"v2").unwrap();
            d.commit(t2).unwrap();
        }

        #[test]
        fn readers_share_then_block_writer() {
            let mut d = txn_db();
            let t1 = d.begin().unwrap();
            let t2 = d.begin().unwrap();
            d.txn_get(t1, b"k").unwrap();
            d.txn_get(t2, b"k").unwrap();
            let t3 = d.begin().unwrap();
            assert!(is_conflict(d.txn_put(t3, b"k", b"v")));
        }

        #[cfg(feature = "api-batch")]
        #[test]
        fn batch_conflict_fails_before_logging_anything() {
            let mut d = txn_db();
            let log_bytes = |d: &Database| d.txn.read(fame_txn::TxnManager::log_bytes).unwrap();
            // What a transaction that logs nothing leaves: Begin and Abort.
            let before = log_bytes(&d);
            let t = d.begin().unwrap();
            d.abort(t).unwrap();
            let empty_txn = log_bytes(&d) - before;

            let t1 = d.begin().unwrap();
            d.txn_put(t1, b"bk2", b"v").unwrap();
            let mut b = WriteBatch::new();
            for i in 0..4 {
                b.put(format!("bk{i}").as_bytes(), b"batch");
            }
            let before = log_bytes(&d);
            assert!(is_conflict(d.apply_batch(b)));
            assert_eq!(
                log_bytes(&d) - before,
                empty_txn,
                "a conflicting batch logs no records"
            );
            assert_eq!(d.len().unwrap(), 1, "only t1's key reached the index");
        }

        #[test]
        fn failed_commit_sync_keeps_locks() {
            use fame_os::{FaultDevice, FaultPlan, InMemoryDevice, SharedDevice};
            let plan = FaultPlan {
                fail_after_syncs: Some(0),
                ..Default::default()
            };
            let log = SharedDevice::new(FaultDevice::new(InMemoryDevice::new(512), plan));
            let handle = log.clone();
            let cfg = txn_config();
            let data = Box::new(InMemoryDevice::new(cfg.page_size));
            let mut d = Database::open_with_devices(cfg, data, Some(Box::new(log))).unwrap();

            let t = d.begin().unwrap();
            d.txn_put(t, b"k", b"v").unwrap();
            assert!(d.commit(t).is_err(), "sync fails");

            // Once the device recovers, t still holds its exclusive lock, and
            // the retried commit releases it.
            handle.with(|dev| dev.heal());
            let t2 = d.begin().unwrap();
            assert!(
                is_conflict(d.txn_put(t2, b"k", b"x")),
                "t still holds its exclusive lock after the failed commit"
            );
            d.commit(t).unwrap();
            d.txn_put(t2, b"k", b"x").unwrap();
            d.commit(t2).unwrap();
        }
    }

    #[cfg(all(
        feature = "concurrency-multi-writer",
        feature = "commit-force",
        feature = "api-put",
        feature = "api-get",
        feature = "api-remove"
    ))]
    #[test]
    fn multi_writer_handles_commit_concurrently() {
        use crate::config::TxnConfig;
        fn assert_send<T: Send>(_: &T) {}

        let mut cfg = DbmsConfig::default_for_build();
        cfg.concurrency = fame_buffer::Concurrency::MultiWriter { shards: 0 };
        cfg.transactions = Some(TxnConfig {
            commit: fame_txn::CommitPolicy::Force,
        });
        let mut d = Database::open(cfg).unwrap();
        let w = d.writer().unwrap();
        assert_send(&w);

        let threads = 4;
        let per = 20;
        std::thread::scope(|s| {
            for t in 0..threads {
                let w = w.clone();
                s.spawn(move || {
                    for i in 0..per {
                        let txn = w.begin().unwrap();
                        let key = format!("w{t}-{i}").into_bytes();
                        w.put(txn, &key, b"v").unwrap();
                        assert_eq!(w.get(txn, &key).unwrap(), Some(b"v".to_vec()));
                        w.commit(txn).unwrap();
                    }
                });
            }
        });
        assert_eq!(w.txn_stats(), (threads * per, 0));
        assert_eq!(d.len().unwrap(), (threads * per) as usize);

        // The facade's own transactional API rides the same shared path.
        let t = d.begin().unwrap();
        d.txn_put(t, b"facade", b"1").unwrap();
        d.commit(t).unwrap();
        assert_eq!(d.get(b"facade").unwrap(), Some(b"1".to_vec()));

        // Abort through a writer handle restores the old value.
        let t = w.begin().unwrap();
        let w2 = w.clone();
        w2.put(t, b"facade", b"2").unwrap();
        assert!(w2.remove(t, b"facade").unwrap());
        w2.abort(t).unwrap();
        assert_eq!(d.get(b"facade").unwrap(), Some(b"1".to_vec()));

        assert!(d.verify_integrity().unwrap().violations.is_empty());
    }

    #[cfg(all(
        feature = "concurrency-multi-writer",
        feature = "api-put",
        feature = "api-get"
    ))]
    #[test]
    fn writer_requires_multi_writer_concurrency() {
        let d = db();
        assert!(d.writer().is_err(), "Single product has no write handles");
    }

    #[cfg(all(feature = "api-batch", feature = "api-get", feature = "api-remove"))]
    #[test]
    fn batch_applies_net_effect() {
        let mut d = db();
        d.put(b"keep", b"0").unwrap();
        d.put(b"gone", b"0").unwrap();
        let mut b = WriteBatch::new();
        b.put(b"a", b"1")
            .put(b"b", b"2")
            .remove(b"gone")
            .put(b"a", b"3") // last write wins
            .put(b"c", b"4")
            .remove(b"c"); // net effect: nothing
        assert_eq!(b.len(), 6);
        d.apply_batch(b).unwrap();
        assert_eq!(d.get(b"a").unwrap(), Some(b"3".to_vec()));
        assert_eq!(d.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(d.get(b"gone").unwrap(), None);
        assert_eq!(d.get(b"c").unwrap(), None);
        assert_eq!(d.get(b"keep").unwrap(), Some(b"0".to_vec()));
        assert_eq!(d.len().unwrap(), 3);
    }

    #[cfg(all(feature = "api-batch", feature = "api-update", feature = "api-get"))]
    #[test]
    fn batch_update_of_missing_key_applies_nothing() {
        let mut d = db();
        let mut b = WriteBatch::new();
        b.put(b"x", b"1").update(b"ghost", b"2");
        assert!(d.apply_batch(b).is_err());
        assert_eq!(d.get(b"x").unwrap(), None, "all-or-nothing");
        // An update of a key created earlier in the same batch succeeds.
        let mut b = WriteBatch::new();
        b.put(b"y", b"1").update(b"y", b"2");
        d.apply_batch(b).unwrap();
        assert_eq!(d.get(b"y").unwrap(), Some(b"2".to_vec()));
    }

    #[cfg(all(
        feature = "api-batch",
        feature = "transactions",
        feature = "commit-force",
        feature = "api-get",
        feature = "api-remove",
        feature = "statistics"
    ))]
    #[test]
    fn batch_commit_is_one_sync_and_counted() {
        use crate::config::TxnConfig;
        let mut cfg = DbmsConfig::default_for_build();
        cfg.transactions = Some(TxnConfig {
            commit: fame_txn::CommitPolicy::Force,
        });
        let mut d = Database::open(cfg).unwrap();
        let syncs0 = d.log_syncs().unwrap();
        let mut b = WriteBatch::new();
        for i in 0u32..64 {
            b.put(&i.to_be_bytes(), &[7u8; 8]);
        }
        d.apply_batch(b).unwrap();
        assert_eq!(
            d.log_syncs().unwrap() - syncs0,
            1,
            "64 writes, one log sync"
        );
        assert_eq!(d.len().unwrap(), 64);
        let s = d.stats().unwrap();
        assert_eq!(s.batches, 1);
        assert_eq!(s.batch_ops, 64);
        assert_eq!(s.batch_latency.count, 1);
        let tsv = s.to_tsv();
        assert!(tsv.contains("batch.batches\t1"), "{tsv}");
        assert!(tsv.contains("batch.ops\t64"), "{tsv}");
        // The batch is one committed transaction.
        assert_eq!(d.txn_stats(), Some((1, 0)));
    }

    #[cfg(all(
        feature = "api-batch",
        feature = "replication",
        feature = "api-get",
        feature = "api-remove",
        feature = "index-btree"
    ))]
    #[test]
    fn batch_ships_to_replicas() {
        let mut cfg = DbmsConfig::default_for_build();
        cfg.replication = Some(fame_repl::AckPolicy::Asynchronous);
        let mut d = Database::open(cfg).unwrap();
        let mut replica = d.attach_replica().unwrap();
        d.put(b"x", b"1").unwrap();
        let mut b = WriteBatch::new();
        b.put(b"y", b"2").remove(b"x");
        d.apply_batch(b).unwrap();
        replica.poll();
        assert_eq!(replica.state().digest(), d.state_digest().unwrap());
    }

    #[cfg(all(
        feature = "replication",
        feature = "api-put",
        feature = "api-remove",
        feature = "index-btree"
    ))]
    #[test]
    fn replication_converges() {
        let mut cfg = DbmsConfig::default_for_build();
        cfg.replication = Some(fame_repl::AckPolicy::Asynchronous);
        let mut d = Database::open(cfg).unwrap();
        let mut replica = d.attach_replica().unwrap();
        d.put(b"x", b"1").unwrap();
        d.put(b"y", b"2").unwrap();
        d.remove(b"x").unwrap();
        replica.poll();
        assert_eq!(replica.state().get(0, b"y"), Some(&b"2".to_vec()));
        assert_eq!(replica.state().get(0, b"x"), None);
        assert_eq!(replica.state().digest(), d.state_digest().unwrap());
    }

    #[cfg(feature = "index-queue")]
    #[test]
    fn queue_handle_works() {
        let mut d = db();
        let mut q = d.queue(8).unwrap();
        q.push(&[1u8; 8]).unwrap();
        q.push(&[2u8; 8]).unwrap();
        assert_eq!(q.peek().unwrap(), Some(vec![1u8; 8]));
        assert_eq!(q.pop().unwrap(), Some(vec![1u8; 8]));
        assert_eq!(q.len().unwrap(), 1);
    }

    #[cfg(all(feature = "statistics", feature = "api-put"))]
    #[test]
    fn stats_report_reflects_activity() {
        let mut d = db();
        for i in 0u32..50 {
            d.put(&i.to_be_bytes(), &[1u8; 8]).unwrap();
        }
        let s = d.stats().unwrap();
        assert_eq!(s.keys, 50);
        assert!(s.allocated_pages >= 2);
        assert!(s.pool.hits + s.pool.misses > 0);
        let rendered = s.to_string();
        assert!(rendered.contains("50 keys"), "{rendered}");
        assert!(rendered.contains("buffer:"), "{rendered}");
    }

    #[cfg(all(feature = "statistics", feature = "api-put", feature = "api-get"))]
    #[test]
    fn stats_snapshot_covers_all_layers() {
        let mut d = db();
        for i in 0u32..100 {
            d.put(&i.to_be_bytes(), &[7u8; 16]).unwrap();
        }
        for i in 0u32..100 {
            assert!(d.get(&i.to_be_bytes()).unwrap().is_some());
        }
        d.sync().unwrap();

        let s = d.stats().unwrap();
        assert!(s.pager_ops.page_reads > 0, "pager reads counted");
        assert!(s.pager_ops.allocs > 0, "pager allocs counted");
        assert!(s.frames > 0);
        assert_eq!(s.frame_bytes, s.frames * s.page_size);
        // 100 puts + 100 gets + 1 sync flowed through the trace ring.
        assert_eq!(s.ops_traced, 201);
        let trace = d.op_trace();
        assert!(!trace.is_empty());
        assert!(trace.len() <= d.config().stats.trace_capacity.max(1));
        // Ring holds the most recent events: the last one is the sync.
        assert_eq!(trace.last().unwrap().op, fame_obs::OpKind::Sync);

        // Integrity findings are absent until verified, cached afterwards.
        assert!(s.integrity.is_none());
        d.verify_integrity().unwrap();
        let s2 = d.stats().unwrap();
        let integ = s2.integrity.expect("cached after verify_integrity");
        assert_eq!(integ.violations, 0);

        let tsv = s2.to_tsv();
        for key in [
            "pool.hits\t",
            "pool.latch_waits\t",
            "pager.page_reads\t",
            "io.read.count\t",
            "ops_traced\t",
            "integrity.violations\t0",
        ] {
            assert!(tsv.contains(key), "missing {key:?} in:\n{tsv}");
        }
    }

    #[cfg(all(feature = "statistics", feature = "api-put", feature = "api-get"))]
    #[test]
    fn stats_counters_never_decrease() {
        let mut d = db();
        let mut prev = d.stats().unwrap();
        for round in 0u32..20 {
            for i in 0..50u32 {
                d.put(&(round * 50 + i).to_be_bytes(), &[3u8; 8]).unwrap();
                d.get(&i.to_be_bytes()).unwrap();
            }
            let s = d.stats().unwrap();
            assert!(s.pool.hits >= prev.pool.hits);
            assert!(s.pool.misses >= prev.pool.misses);
            assert!(s.pool.evictions >= prev.pool.evictions);
            assert!(s.pool.writebacks >= prev.pool.writebacks);
            assert!(s.pager_ops.page_reads >= prev.pager_ops.page_reads);
            assert!(s.ops_traced > prev.ops_traced);
            prev = s;
        }
    }

    #[test]
    fn pool_stats_available() {
        let mut d = db();
        let _ = d.len().unwrap();
        let s = d.pool_stats();
        assert!(s.hits + s.misses > 0 || d.device_stats().reads > 0);
    }
}

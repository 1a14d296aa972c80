//! Blocking S/X block-level lock table (MultiWriter concurrency).
//!
//! Where [`crate::locks::LockManager`] rejects conflicts immediately
//! (no-wait), this table *parks* the requester on a condvar in a FIFO wait
//! queue until the lock is grantable, a configurable timeout expires, or
//! waiting would close a deadlock cycle. It is the concurrency backbone of
//! the `Concurrency → MultiWriter` product: independent transactions on
//! disjoint blocks proceed in parallel; conflicting ones serialize by
//! waiting instead of aborting.
//!
//! Keys are hashed (FNV-1a) to a 64-bit [`BlockId`] so the table size is
//! bounded by live locks, not key length. A hash collision merges two keys
//! into one lock — strictly conservative: colliding transactions wait for
//! each other where they did not need to, but serializability is never
//! weakened (more blocking, never less).
//!
//! Deadlock policy: detection runs when a request joins a wait queue
//! (DFS over the waits-for graph: waiter → current holders and earlier
//! queued waiters of its block). Only an enqueue adds wait-for edges, so a
//! new cycle always runs through the requester; the requester is aborted
//! on the spot with [`LockError::Deadlock`], which breaks every cycle the
//! moment it forms. No other transaction is ever chosen, so nothing has
//! to be flagged across threads. The requester must abort its
//! transaction (releasing all locks); the lock timeout stays as a
//! backstop and never fires on a deadlock.
//!
//! Lock-order discipline: the table's internal mutex is *leaf-level* — it
//! is never held while acquiring any other lock (condvar waits release it),
//! and callers acquire table locks **before** the storage mutex, never
//! while holding it.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::locks::LockMode;
use crate::wal::TxnId;

/// Hashed block identity a lock protects.
pub type BlockId = u64;

/// Hash a key to its lock block (FNV-1a, 64-bit).
pub fn block_of(key: &[u8]) -> BlockId {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a blocking acquisition failed. Both variants carry the holders the
/// requester was waiting on, so aborts are diagnosable in traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// The wait exceeded the configured timeout.
    Timeout {
        /// Block that could not be locked.
        block: BlockId,
        /// The waiting transaction.
        requester: TxnId,
        /// Transactions holding the block when the wait gave up.
        holders: Vec<TxnId>,
    },
    /// The requester's wait would have closed a cycle in the waits-for
    /// graph; it was not queued.
    Deadlock {
        /// Block that could not be locked.
        block: BlockId,
        /// The aborted transaction.
        requester: TxnId,
        /// Transactions holding the block when the cycle was found.
        holders: Vec<TxnId>,
    },
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Timeout {
                block,
                requester,
                holders,
            } => write!(
                f,
                "lock timeout on block {block:#x} for txn {requester} (held by {holders:?})"
            ),
            LockError::Deadlock {
                block,
                requester,
                holders,
            } => write!(
                f,
                "deadlock: txn {requester} aborted waiting on block {block:#x} (held by {holders:?})"
            ),
        }
    }
}

impl std::error::Error for LockError {}

/// Lock-wait observations (Statistics feature).
#[cfg(feature = "obs")]
#[derive(Debug, Default)]
pub struct LockObs {
    /// Acquisitions that had to park (at least one condvar wait).
    pub waits: fame_obs::Counter,
    /// Time spent parked, per blocking acquisition.
    pub wait_time: fame_obs::Histogram,
    /// Lock requests refused because their wait would close a deadlock
    /// cycle.
    pub deadlock_aborts: fame_obs::Counter,
    /// Acquisitions that gave up on timeout.
    pub timeout_aborts: fame_obs::Counter,
}

#[derive(Debug, Default)]
struct BlockEntry {
    /// Holders in shared mode (or exactly one in exclusive mode).
    holders: Vec<TxnId>,
    exclusive: bool,
    /// FIFO wait queue; grants go to the head first.
    queue: VecDeque<(TxnId, LockMode)>,
}

#[derive(Debug, Default)]
struct TableState {
    table: HashMap<BlockId, BlockEntry>,
    /// Reverse index: blocks held per transaction (O(own) release).
    owned: HashMap<TxnId, Vec<BlockId>>,
}

/// Did [`LockTable::try_grant`] grant, and how? The distinction feeds the
/// Tracing feature (upgrade edges are their own span kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Grant {
    Denied,
    Granted,
    Upgraded,
}

/// Blocking S/X lock table keyed by hashed block.
#[derive(Debug)]
pub struct LockTable {
    state: Mutex<TableState>,
    /// One table-wide condvar: grants are rare relative to waits being
    /// empty, and `notify_all` keeps FIFO re-checks simple and sound.
    cv: Condvar,
    timeout: Duration,
    #[cfg(feature = "obs")]
    obs: LockObs,
    /// Tracing feature: causal span sink, installed once by the facade
    /// after open (the table is constructed deep inside the manager).
    /// Emissions are lock-free, so holding `state` across them is fine.
    #[cfg(feature = "trace")]
    sink: std::sync::OnceLock<std::sync::Arc<fame_obs::TraceSink>>,
}

impl LockTable {
    /// Create a table whose waits give up after `timeout`.
    pub fn new(timeout: Duration) -> Self {
        LockTable {
            state: Mutex::new(TableState::default()),
            cv: Condvar::new(),
            timeout,
            #[cfg(feature = "obs")]
            obs: LockObs::default(),
            #[cfg(feature = "trace")]
            sink: std::sync::OnceLock::new(),
        }
    }

    /// Install the span sink (Tracing feature). Later calls are no-ops —
    /// the first sink wins, matching `OnceLock` semantics.
    #[cfg(feature = "trace")]
    pub fn set_trace_sink(&self, sink: std::sync::Arc<fame_obs::TraceSink>) {
        let _ = self.sink.set(sink);
    }

    #[cfg(feature = "trace")]
    fn emit(&self, kind: fame_obs::SpanKind, txn: TxnId, parent: u64, a: u64, b: u64) {
        if let Some(s) = self.sink.get() {
            s.emit(kind, txn, parent, a, b);
        }
    }

    /// Block until `txn` holds `key`'s block in `mode`, the timeout
    /// expires, or waiting would close a deadlock cycle.
    pub fn acquire(&self, txn: TxnId, key: &[u8], mode: LockMode) -> Result<(), LockError> {
        self.acquire_block(txn, block_of(key), mode)
    }

    /// [`LockTable::acquire`] on a pre-hashed block.
    pub fn acquire_block(
        &self,
        txn: TxnId,
        block: BlockId,
        mode: LockMode,
    ) -> Result<(), LockError> {
        let mut state = self.state.lock().expect("lock table poisoned");
        // When the request joined the block's wait queue.
        let mut enqueued: Option<Instant> = None;

        loop {
            match Self::try_grant(&mut state, block, txn, mode, enqueued.is_some()) {
                Grant::Denied => {}
                granted => {
                    if let Some(since) = enqueued {
                        // The next queued waiter may now be grantable too
                        // (e.g. shared readers draining behind us).
                        self.cv.notify_all();
                        #[cfg(feature = "obs")]
                        {
                            let waited = nanos_since(since);
                            self.obs.wait_time.record_ns(waited);
                            // Grant-after-park: the wait edge resolves. Fresh
                            // uncontended grants (the hot path) emit nothing.
                            #[cfg(feature = "trace")]
                            self.emit(fame_obs::SpanKind::LockGrant, txn, 0, waited, block);
                        }
                        #[cfg(not(feature = "obs"))]
                        let _ = since;
                    }
                    #[cfg(feature = "trace")]
                    if granted == Grant::Upgraded {
                        self.emit(fame_obs::SpanKind::LockUpgrade, txn, 0, block, 0);
                    }
                    #[cfg(not(feature = "trace"))]
                    let _ = granted;
                    return Ok(());
                }
            }

            let since = match enqueued {
                Some(since) => since,
                None => {
                    let since = Instant::now();
                    state
                        .table
                        .entry(block)
                        .or_default()
                        .queue
                        .push_back((txn, mode));
                    enqueued = Some(since);
                    #[cfg(feature = "obs")]
                    self.obs.waits.inc();
                    // The wait-for edge: requester behind the current holders.
                    #[cfg(feature = "trace")]
                    {
                        let holders = &state.table[&block].holders;
                        let first = holders.first().copied().unwrap_or(0);
                        let n = holders.len() as u64;
                        self.emit(fame_obs::SpanKind::LockWait, txn, first, block, n);
                    }
                    // Detect at enqueue time: this edge is the only way a
                    // cycle can form, so aborting the requester breaks it.
                    if Self::closes_cycle(&state, txn, block) {
                        return Err(self.give_up(&mut state, block, txn, since, true));
                    }
                    since
                }
            };

            let remaining = (since + self.timeout).saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(self.give_up(&mut state, block, txn, since, false));
            }
            let (guard, _timed_out) = self
                .cv
                .wait_timeout(state, remaining)
                .expect("lock table poisoned");
            state = guard;
        }
    }

    /// Withdraw `txn`'s queued request on `block` (dropping the entry if
    /// it becomes empty) and build its error, naming the current holders: a
    /// deadlock abort when `deadlock`, else a timeout. Waiters behind the
    /// withdrawn request are woken, since it may have been all that stood
    /// between them and a grant.
    fn give_up(
        &self,
        state: &mut TableState,
        block: BlockId,
        txn: TxnId,
        since: Instant,
        deadlock: bool,
    ) -> LockError {
        let mut holders = Vec::new();
        if let Some(e) = state.table.get_mut(&block) {
            e.queue.retain(|&(t, _)| t != txn);
            holders.clone_from(&e.holders);
            if e.holders.is_empty() && e.queue.is_empty() {
                state.table.remove(&block);
            }
        }
        self.cv.notify_all();
        #[cfg(feature = "obs")]
        {
            if deadlock {
                self.obs.deadlock_aborts.inc();
            } else {
                self.obs.timeout_aborts.inc();
            }
            self.obs.wait_time.record_ns(nanos_since(since));
        }
        #[cfg(not(feature = "obs"))]
        let _ = since;
        #[cfg(feature = "trace")]
        self.emit(
            if deadlock {
                fame_obs::SpanKind::DeadlockVictim
            } else {
                fame_obs::SpanKind::TimeoutAbort
            },
            txn,
            holders.first().copied().unwrap_or(0),
            block,
            holders.len() as u64,
        );
        if deadlock {
            LockError::Deadlock {
                block,
                requester: txn,
                holders,
            }
        } else {
            LockError::Timeout {
                block,
                requester: txn,
                holders,
            }
        }
    }

    /// Release every block `txn` holds and wake all waiters. O(blocks held
    /// by `txn`) via the reverse index.
    pub fn release_all(&self, txn: TxnId) {
        let mut state = self.state.lock().expect("lock table poisoned");
        let Some(blocks) = state.owned.remove(&txn) else {
            return;
        };
        let mut woke = false;
        for block in blocks {
            if let Some(e) = state.table.get_mut(&block) {
                e.holders.retain(|&h| h != txn);
                woke = true;
                if e.holders.is_empty() && e.queue.is_empty() {
                    state.table.remove(&block);
                } else if e.holders.is_empty() {
                    e.exclusive = false;
                } else {
                    e.exclusive = e.exclusive && e.holders.len() == 1;
                }
            }
        }
        drop(state);
        if woke {
            self.cv.notify_all();
        }
    }

    /// Who currently holds a key's block (tests/diagnostics).
    pub fn holders(&self, key: &[u8]) -> Vec<TxnId> {
        let state = self.state.lock().expect("lock table poisoned");
        state
            .table
            .get(&block_of(key))
            .map(|e| e.holders.clone())
            .unwrap_or_default()
    }

    /// Transactions queued on a key's block, in grant order.
    #[cfg(test)]
    pub(crate) fn waiters(&self, key: &[u8]) -> Vec<TxnId> {
        let state = self.state.lock().expect("lock table poisoned");
        state
            .table
            .get(&block_of(key))
            .map(|e| e.queue.iter().map(|&(t, _)| t).collect())
            .unwrap_or_default()
    }

    /// Number of blocks with live locks or waiters.
    pub fn locked_blocks(&self) -> usize {
        self.state.lock().expect("lock table poisoned").table.len()
    }

    /// Lock-wait observations (Statistics feature).
    #[cfg(feature = "obs")]
    pub fn obs(&self) -> &LockObs {
        &self.obs
    }

    /// Grant check under FIFO fairness. Re-entrant grants and upgrades
    /// bypass the queue (a holder queueing behind its own waiters would
    /// deadlock trivially); fresh grants require being first in line.
    fn try_grant(
        state: &mut TableState,
        block: BlockId,
        txn: TxnId,
        mode: LockMode,
        queued: bool,
    ) -> Grant {
        let Some(entry) = state.table.get_mut(&block) else {
            // No entry at all: fresh uncontended grant.
            let e = state.table.entry(block).or_default();
            e.holders.push(txn);
            e.exclusive = mode == LockMode::Exclusive;
            state.owned.entry(txn).or_default().push(block);
            return Grant::Granted;
        };
        let held_by_me = entry.holders.contains(&txn);

        // Already compatible: re-entrant no-op.
        if held_by_me && (mode == LockMode::Shared || entry.exclusive) {
            if queued {
                entry.queue.retain(|&(t, _)| t != txn);
            }
            return Grant::Granted;
        }
        // Upgrade: sole holder S → X jumps the queue.
        if held_by_me && mode == LockMode::Exclusive {
            if entry.holders.len() == 1 {
                entry.exclusive = true;
                if queued {
                    entry.queue.retain(|&(t, _)| t != txn);
                }
                return Grant::Upgraded;
            }
            return Grant::Denied;
        }
        // Fresh grant: must be compatible AND first in line (or not queued
        // yet with an empty queue).
        let fifo_ok = match entry.queue.front() {
            None => true,
            Some(&(head, _)) => queued && head == txn,
        };
        if !fifo_ok {
            return Grant::Denied;
        }
        let compatible = match mode {
            LockMode::Shared => !entry.exclusive,
            LockMode::Exclusive => entry.holders.is_empty(),
        };
        if !compatible {
            return Grant::Denied;
        }
        entry.holders.push(txn);
        entry.exclusive = mode == LockMode::Exclusive;
        if queued {
            entry.queue.retain(|&(t, _)| t != txn);
        }
        state.owned.entry(txn).or_default().push(block);
        Grant::Granted
    }

    /// DFS over the waits-for graph from `start` (just queued on
    /// `start_block`): does a path lead back to `start`? Edges: waiter →
    /// holders of its block and earlier queued waiters (FIFO: they will be
    /// granted first). Conservative: a collision-merged block or an
    /// earlier compatible waiter can produce a false cycle — the cost is an
    /// unnecessary abort, never a missed deadlock.
    fn closes_cycle(state: &TableState, start: TxnId, start_block: BlockId) -> bool {
        // waits_on: txn → block it is queued on (a txn waits on one block
        // at a time: acquire is synchronous).
        let mut waits_on: HashMap<TxnId, BlockId> = HashMap::new();
        for (&block, e) in &state.table {
            for &(t, _) in &e.queue {
                waits_on.insert(t, block);
            }
        }
        waits_on.insert(start, start_block);

        let blocked_by = |t: TxnId| -> Vec<TxnId> {
            let Some(e) = waits_on.get(&t).and_then(|b| state.table.get(b)) else {
                return Vec::new();
            };
            let mut out: Vec<TxnId> = e.holders.iter().copied().filter(|&h| h != t).collect();
            out.extend(e.queue.iter().map(|&(q, _)| q).take_while(|&q| q != t));
            out
        };

        let mut stack: Vec<TxnId> = blocked_by(start);
        let mut seen: Vec<TxnId> = Vec::new();
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if !seen.contains(&t) {
                seen.push(t);
                stack.extend(blocked_by(t));
            }
        }
        false
    }
}

/// Nanoseconds elapsed since `since` (Statistics feature).
#[cfg(feature = "obs")]
fn nanos_since(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn table() -> Arc<LockTable> {
        Arc::new(LockTable::new(Duration::from_millis(200)))
    }

    #[test]
    fn shared_locks_coexist() {
        let lt = table();
        lt.acquire(1, b"k", LockMode::Shared).unwrap();
        lt.acquire(2, b"k", LockMode::Shared).unwrap();
        assert_eq!(lt.holders(b"k").len(), 2);
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lt = table();
        lt.acquire(1, b"k", LockMode::Shared).unwrap();
        lt.acquire(1, b"k", LockMode::Shared).unwrap();
        lt.acquire(1, b"k", LockMode::Exclusive).unwrap(); // sole-holder upgrade
        lt.acquire(1, b"k", LockMode::Shared).unwrap(); // X covers S
        assert_eq!(lt.holders(b"k"), vec![1]);
        lt.release_all(1);
        assert_eq!(lt.locked_blocks(), 0);
    }

    #[test]
    fn conflicting_writer_waits_until_release() {
        let lt = table();
        lt.acquire(1, b"k", LockMode::Exclusive).unwrap();
        let lt2 = Arc::clone(&lt);
        let h = std::thread::spawn(move || lt2.acquire(2, b"k", LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(lt.holders(b"k"), vec![1], "2 must still be parked");
        lt.release_all(1);
        h.join().unwrap().unwrap();
        assert_eq!(lt.holders(b"k"), vec![2]);
    }

    #[test]
    fn timeout_names_holders() {
        let lt = Arc::new(LockTable::new(Duration::from_millis(50)));
        lt.acquire(7, b"k", LockMode::Exclusive).unwrap();
        let err = lt.acquire(9, b"k", LockMode::Shared).unwrap_err();
        match err {
            LockError::Timeout {
                requester, holders, ..
            } => {
                assert_eq!(requester, 9);
                assert_eq!(holders, vec![7]);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        // The failed waiter must leave no queue residue.
        lt.release_all(7);
        assert_eq!(lt.locked_blocks(), 0);
    }

    #[test]
    fn fifo_prevents_writer_starvation() {
        // 1 holds S; 2 queues for X; a later S request (3) must queue
        // behind 2 rather than overtaking it.
        let lt = table();
        lt.acquire(1, b"k", LockMode::Shared).unwrap();
        let lt2 = Arc::clone(&lt);
        let writer = std::thread::spawn(move || lt2.acquire(2, b"k", LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(30));
        let lt3 = Arc::clone(&lt);
        let reader = std::thread::spawn(move || lt3.acquire(3, b"k", LockMode::Shared));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(lt.holders(b"k"), vec![1], "both must be parked");
        lt.release_all(1);
        writer.join().unwrap().unwrap();
        // Writer got it first; reader proceeds only after writer releases.
        lt.release_all(2);
        reader.join().unwrap().unwrap();
        lt.release_all(3);
        assert_eq!(lt.locked_blocks(), 0);
    }

    /// Spin until `txn` sits in `key`'s wait queue.
    fn wait_until_queued(lt: &LockTable, key: &[u8], txn: TxnId) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !lt.waiters(key).contains(&txn) {
            assert!(Instant::now() < deadline, "txn {txn} never queued");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn deadlock_aborts_requester() {
        // T1 holds a, T2 holds b; T2 blocks on a, then T1 blocks on b →
        // cycle {1, 2}. T1's request closed it, so T1 is the one aborted,
        // even though it is the older transaction.
        let lt = Arc::new(LockTable::new(Duration::from_secs(5)));
        lt.acquire(1, b"a", LockMode::Exclusive).unwrap();
        lt.acquire(2, b"b", LockMode::Exclusive).unwrap();
        let lt2 = Arc::clone(&lt);
        let h = std::thread::spawn(move || lt2.acquire(2, b"a", LockMode::Exclusive));
        wait_until_queued(&lt, b"a", 2);
        let err = lt.acquire(1, b"b", LockMode::Exclusive).unwrap_err();
        assert!(
            matches!(err, LockError::Deadlock { requester: 1, .. }),
            "got {err:?}"
        );
        // The requester aborts: releasing a unblocks T2.
        lt.release_all(1);
        h.join().unwrap().unwrap();
        lt.release_all(2);
        assert_eq!(lt.locked_blocks(), 0);
    }

    #[test]
    fn off_cycle_waiter_is_not_the_victim() {
        // 62 holds A, 64 holds B, 63 holds C. 62 waits on B, 64 waits on
        // C, and 68 (the youngest, holding nothing) queues on A. Then 63
        // queues on A behind 68, closing 63 → 62 → 64 → 63. Its walk also
        // passes 68, which waits ahead of it but lies off the cycle:
        // aborting 68 would leave the cycle to the timeout.
        let timeout = Duration::from_secs(5);
        let lt = Arc::new(LockTable::new(timeout));
        lt.acquire(62, b"A", LockMode::Exclusive).unwrap();
        lt.acquire(64, b"B", LockMode::Exclusive).unwrap();
        lt.acquire(63, b"C", LockMode::Exclusive).unwrap();
        let wait = |txn: TxnId, key: &'static [u8]| {
            let waiter = Arc::clone(&lt);
            let h = std::thread::spawn(move || waiter.acquire(txn, key, LockMode::Exclusive));
            wait_until_queued(&lt, key, txn);
            h
        };
        let w62 = wait(62, b"B");
        let w64 = wait(64, b"C");
        let w68 = wait(68, b"A");

        let t0 = Instant::now();
        let err = lt.acquire(63, b"A", LockMode::Exclusive).unwrap_err();
        assert!(
            matches!(err, LockError::Deadlock { requester: 63, .. }),
            "got {err:?}"
        );
        assert!(
            t0.elapsed() < timeout / 5,
            "deadlock reported after {:?}",
            t0.elapsed()
        );

        // Unwind: each release grants the next waiter in turn.
        lt.release_all(63);
        w64.join().unwrap().unwrap();
        lt.release_all(64);
        w62.join().unwrap().unwrap();
        lt.release_all(62);
        w68.join().unwrap().unwrap();
        lt.release_all(68);
        assert_eq!(lt.locked_blocks(), 0);
    }

    #[test]
    fn deadlock_when_requester_is_youngest() {
        // T2 (youngest) closes the cycle itself → immediate error, no wait.
        let lt = Arc::new(LockTable::new(Duration::from_secs(5)));
        lt.acquire(1, b"a", LockMode::Exclusive).unwrap();
        lt.acquire(2, b"b", LockMode::Exclusive).unwrap();
        let lt1 = Arc::clone(&lt);
        let h = std::thread::spawn(move || lt1.acquire(1, b"b", LockMode::Exclusive));
        wait_until_queued(&lt, b"b", 1);
        let err = lt.acquire(2, b"a", LockMode::Exclusive).unwrap_err();
        assert!(
            matches!(err, LockError::Deadlock { requester: 2, .. }),
            "got {err:?}"
        );
        lt.release_all(2);
        h.join().unwrap().unwrap();
        lt.release_all(1);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn obs_counts_waits_and_aborts() {
        let lt = Arc::new(LockTable::new(Duration::from_millis(40)));
        lt.acquire(1, b"k", LockMode::Exclusive).unwrap();
        let _ = lt.acquire(2, b"k", LockMode::Exclusive).unwrap_err();
        assert_eq!(lt.obs().waits.get(), 1);
        assert_eq!(lt.obs().timeout_aborts.get(), 1);
        assert_eq!(lt.obs().wait_time.count(), 1);
    }
}

//! Transaction manager of FAME-DBMS (feature *Transaction* in Figure 2).
//!
//! The paper deliberately keeps this feature *coarse-grained* (§2.3):
//! transactions are either in the product or not, and the only subfeature
//! axis is the commit protocol — [`CommitPolicy::Force`] (sync the log on
//! every commit; smallest code, worst throughput) vs
//! [`CommitPolicy::Group`] (batch commits and sync once per group; the
//! cargo features `commit-force` / `commit-group` gate them).
//!
//! Architecture:
//!
//! * [`wal`] — logical log records (`Begin`/`Put`/`Remove`/`Commit`/...)
//!   with per-record checksums;
//! * [`log`] — an append-only log over any [`fame_os::BlockDevice`], with
//!   torn-tail detection on read-back;
//! * [`manager`] — [`manager::TxnManager`]: transaction table, undo
//!   tracking, commit protocols. It takes no locks: each product runs
//!   exactly one of the two lock managers below, chosen by its
//!   `Concurrency` alternative;
//! * [`locks`] — a no-wait key-level lock manager (shared/exclusive), the
//!   single-writer products' choice. No-wait means a conflicting request
//!   fails immediately — the classic deadlock-*avoidance* choice for
//!   embedded engines, where blocking an interrupt-driven task is worse
//!   than retrying;
//! * [`lock_table`] — the *blocking* S/X block-lock table behind the
//!   `Concurrency → MultiWriter` alternative: FIFO condvar parking, lock
//!   timeout, waits-for deadlock detection aborting the requester whose
//!   wait would close a cycle;
//! * [`shared`] (feature `multi-writer`) — [`shared::SharedTxnManager`]:
//!   `&self` transaction API over interior mutability plus leader-based
//!   cross-transaction group commit;
//! * [`recovery`] — redo winners / undo losers against a
//!   [`recovery::RecoveryTarget`] (implemented by the database facade in
//!   `fame-dbms`), so this crate stays independent of the storage layer.

// The commit protocol is a mandatory alternative: at least one variant
// must be composed in.
#[cfg(not(any(feature = "commit-force", feature = "commit-group")))]
compile_error!("fame-txn needs a commit protocol feature: commit-force or commit-group");

pub mod lock_table;
pub mod locks;
pub mod log;
pub mod manager;
pub mod recovery;
#[cfg(feature = "multi-writer")]
pub mod shared;
pub mod wal;

#[cfg(all(feature = "multi-writer", feature = "obs"))]
pub use lock_table::LockObs;
pub use lock_table::{block_of, BlockId, LockError, LockTable};
pub use locks::{LockManager, LockMode};
pub use log::{LogReader, LogWriter, Lsn};
#[cfg(feature = "obs")]
pub use manager::TxnObs;
pub use manager::{BatchWrite, CommitPolicy, TxnError, TxnId, TxnManager, UndoAction};
pub use recovery::{recover, recover_records, RecoveryStats, RecoveryTarget};
#[cfg(feature = "multi-writer")]
pub use shared::SharedTxnManager;
pub use wal::LogRecord;

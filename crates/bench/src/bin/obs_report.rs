//! Experiment E13 — causal span tracing under the E12 contended workload.
//!
//! E12 *measured* the contended-writer collapse (deadlock retry storms at
//! 64 shared keys) but could only report it as aggregate counters:
//! deadlock aborts happened, yet no record said *which* transaction died,
//! whom it was waiting on, or whether its retry made it through. E13
//! replays that workload with the `obs-trace` feature composed in and
//! asserts the flight recorder can answer exactly those questions: the
//! exported chrome://tracing JSON must contain at least one **complete
//! causal chain**
//!
//! ```text
//! lock-wait (holder txn id) → deadlock-victim → txn-abort
//!     → retry (parent = victim) → … → txn-commit
//! ```
//!
//! with matching transaction ids end to end, and the rotating windowed
//! metrics must carry non-empty lock-wait/commit percentiles plus a
//! non-zero deadlock rate. No lock wait may end in a timeout: deadlock
//! detection breaks every cycle when it forms.
//!
//! The replay has two phases:
//!
//! 1. *storm* — the E12 contended cell verbatim: N writers, 64 shared
//!    keys, random order, deadlock victims aborted and retried through
//!    [`DbWriter::begin_retry`] so each retry splices onto its aborted
//!    predecessor's span chain;
//! 2. *rendezvous* — two writers acquire the same two keys in opposite
//!    order across a barrier. This manufactures one deadlock
//!    deterministically *at the end of the run*, so the asserted chain is
//!    guaranteed to still be in the (overwrite-oldest) rings on any host,
//!    any core count, even under `--quick`.
//!
//! Exports: `bench-results/obs_trace.json` (chrome://tracing, load via
//! about:tracing or ui.perfetto.dev), `obs_trace_spans.tsv`,
//! `obs_trace_windows.tsv`, and the summary `obs_report.tsv`.
//!
//! Usage: `cargo run --release -p fame-bench --bin obs_report [--quick]`

use std::sync::Barrier;
use std::time::Instant;

use fame_bench::Table;
use fame_dbms::fame_obs::{SpanEvent, SpanKind};
use fame_dbms::fame_txn::CommitPolicy;
use fame_dbms::{BufferConfig, Concurrency, Database, DbWriter, DbmsConfig, TxnConfig, TxnHandle};

const WRITERS: usize = 8;
const TOTAL_TXNS: u32 = 2_048;
const PUTS_PER_TXN: u32 = 4;
const GROUP_SIZE: u32 = 4;
const CONTENDED_KEYS: u32 = 64;
const MAX_ATTEMPTS: u32 = 1_000;

fn open(label: &str) -> (Database, std::path::PathBuf) {
    let path = std::env::temp_dir().join(format!("fame_e13_{label}_{}.db", std::process::id()));
    let log_path = path.with_extension("db.log");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&log_path);

    let mut config = DbmsConfig::on_file(&path);
    config.page_size = 512;
    config.buffer = Some(BufferConfig {
        frames: 512,
        replacement: fame_dbms::fame_buffer::ReplacementKind::Lru,
        static_alloc: false,
    });
    config.concurrency = Concurrency::MultiWriter { shards: 0 };
    config.transactions = Some(TxnConfig {
        commit: CommitPolicy::Group {
            group_size: GROUP_SIZE,
        },
    });
    // Flight recorder sized to retain the tail of the storm; the anomaly
    // trigger is what a server embedding would poll (deadlocks/s is the
    // E12 collapse signal).
    config.stats.span_rings = 8;
    config.stats.span_capacity = 4_096;
    config.stats.window_ms = 1_000;
    config.stats.anomaly_deadlocks_per_sec = Some(0.5);
    (Database::open(config).expect("open"), path)
}

/// One transaction with the retry protocol: a deadlock-victim or timeout
/// abort is followed by [`DbWriter::begin_retry`], which splices the new
/// transaction onto the aborted one's causal chain. Returns
/// `(commits, retries)`.
fn run_txn(w: &DbWriter, keys: &[[u8; 4]], values: &[[u8; 16]]) -> u64 {
    let mut retries = 0u64;
    let mut prior: Option<TxnHandle> = None;
    for _attempt in 0..MAX_ATTEMPTS {
        let handle = match prior {
            None => w.begin().expect("begin"),
            Some(victim) => w.begin_retry(victim).expect("begin_retry"),
        };
        let mut failed = false;
        for (key, value) in keys.iter().zip(values) {
            if w.put(handle, key, value).is_err() {
                // Deadlock victim or timeout: abort, splice, retry.
                w.abort(handle).expect("abort victim");
                prior = Some(handle);
                retries += 1;
                failed = true;
                break;
            }
        }
        if !failed {
            w.commit(handle).expect("commit");
            return retries;
        }
    }
    panic!("transaction starved after {MAX_ATTEMPTS} attempts");
}

/// Phase 1: the E12 contended storm. Every writer draws keys from one
/// 64-key universe in xorshift order.
fn storm(writer0: &DbWriter, txns: u32) -> u64 {
    let per_writer = txns / WRITERS as u32;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|t| {
                let w = writer0.clone();
                s.spawn(move || {
                    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ ((t as u64 + 1) << 32);
                    let mut retries = 0u64;
                    for n in 0..per_writer {
                        let mut keys = [[0u8; 4]; PUTS_PER_TXN as usize];
                        let mut values = [[0u8; 16]; PUTS_PER_TXN as usize];
                        for (k, (key, value)) in keys.iter_mut().zip(&mut values).enumerate() {
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            *key = ((rng as u32) % CONTENDED_KEYS).to_be_bytes();
                            value[..4].copy_from_slice(&((t as u32) << 16 | n).to_be_bytes());
                            value[4..8].copy_from_slice(&(k as u32).to_be_bytes());
                        }
                        retries += run_txn(&w, &keys, &values);
                    }
                    retries
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("writer")).sum()
    })
}

/// Phase 2: the deterministic rendezvous deadlock. Two writers take the
/// same two keys in opposite order across a barrier: one of them *must*
/// be chosen as the deadlock victim, abort, and retry through
/// `begin_retry` — manufacturing, at the very end of the run, the exact
/// causal chain the export assertions reconstruct.
fn rendezvous(writer0: &DbWriter) -> u64 {
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        let handles: Vec<_> = [(b"DLA\0", b"DLB\0"), (b"DLB\0", b"DLA\0")]
            .into_iter()
            .map(|(first, second)| {
                let w = writer0.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    let mut retries = 0u64;
                    let mut prior: Option<TxnHandle> = None;
                    let mut rendezvous = true;
                    loop {
                        let handle = match prior {
                            None => w.begin().expect("begin"),
                            Some(v) => w.begin_retry(v).expect("begin_retry"),
                        };
                        let r = w.put(handle, first, b"rendezvous").and_then(|()| {
                            if rendezvous {
                                // Both writers hold their first key before
                                // either requests its second.
                                barrier.wait();
                                rendezvous = false;
                            }
                            w.put(handle, second, b"rendezvous")
                        });
                        match r {
                            Ok(()) => {
                                w.commit(handle).expect("commit");
                                return retries;
                            }
                            Err(_) => {
                                w.abort(handle).expect("abort victim");
                                prior = Some(handle);
                                retries += 1;
                            }
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("writer")).sum()
    })
}

/// Walk the exported events for a complete causal chain
/// `lock-wait(V) → deadlock-victim(V) → txn-abort(V) → retry(parent=V)
/// → … → txn-commit`, following transitive retries. Returns the victim
/// and committing transaction ids of the first complete chain.
fn find_complete_chain(events: &[SpanEvent]) -> Option<(u64, u64)> {
    let committed: std::collections::HashSet<u64> = events
        .iter()
        .filter(|e| e.kind == SpanKind::TxnCommit)
        .map(|e| e.txn)
        .collect();
    // retry child: aborted txn id -> retrying txn id
    let retry_of: std::collections::HashMap<u64, u64> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Retry)
        .map(|e| (e.parent, e.txn))
        .collect();
    for victim in events.iter().filter(|e| e.kind == SpanKind::DeadlockVictim) {
        let v = victim.txn;
        let waited = events
            .iter()
            .any(|e| e.kind == SpanKind::LockWait && e.txn == v && e.at_ns <= victim.at_ns);
        let aborted = events
            .iter()
            .any(|e| e.kind == SpanKind::TxnAbort && e.txn == v && e.at_ns >= victim.at_ns);
        if !waited || !aborted {
            continue;
        }
        // Follow the retry splice transitively to a committed descendant.
        let mut cur = v;
        for _ in 0..events.len() {
            let Some(&next) = retry_of.get(&cur) else {
                break;
            };
            if committed.contains(&next) {
                return Some((v, next));
            }
            cur = next;
        }
    }
    None
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let txns = if quick { TOTAL_TXNS / 8 } else { TOTAL_TXNS };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "E13 — causal span tracing over the E12 contended workload\n\
         ({WRITERS} writers x {txns} txns over {CONTENDED_KEYS} shared keys, \
         {cores} cores available)\n"
    );

    let (mut db, path) = open(if quick { "quick" } else { "full" });
    let writer0 = db.writer().expect("MultiWriter configured");

    let start = Instant::now();
    let storm_retries = storm(&writer0, txns);
    let rendezvous_retries = rendezvous(&writer0);
    let elapsed = start.elapsed().as_secs_f64();
    drop(writer0);

    // The anomaly poll a server embedding would run: the rendezvous
    // deadlock just landed in the newest window, so with the 0.5/s
    // threshold the edge-triggered observation must fire exactly here.
    let anomaly = db.trace_anomaly();
    let dump = db.dump_trace();

    let report = db.verify_integrity().expect("verify_integrity");
    assert!(report.is_ok(), "integrity after contended replay: {report}");
    let stats = db.stats().expect("stats");
    let locks = stats.locks.clone().expect("MultiWriter lock stats");

    let dir = std::path::Path::new("bench-results");
    let _ = std::fs::create_dir_all(dir);
    std::fs::write(dir.join("obs_trace.json"), dump.to_chrome_json()).expect("write json");
    std::fs::write(dir.join("obs_trace_spans.tsv"), dump.to_tsv()).expect("write spans tsv");
    std::fs::write(dir.join("obs_trace_windows.tsv"), dump.windows_tsv()).expect("write windows");

    let w = &dump.windows;
    let chain = find_complete_chain(&dump.events);
    let kind_count = |k: SpanKind| dump.events.iter().filter(|e| e.kind == k).count() as u64;

    let mut table = Table::new(["metric", "value"]);
    let mut put = |name: &str, value: String| {
        println!("  {name:28} {value}");
        table.row([name.to_string(), value]);
    };
    put("txns/s", format!("{:.0}", f64::from(txns) / elapsed));
    put("storm retries", storm_retries.to_string());
    put("rendezvous retries", rendezvous_retries.to_string());
    put("lock waits", locks.waits.to_string());
    put("deadlock aborts", locks.deadlock_aborts.to_string());
    put("timeout aborts", locks.timeout_aborts.to_string());
    put("spans recorded", w.recorded.to_string());
    put("spans retained", dump.events.len().to_string());
    put("spans dropped", w.dropped.to_string());
    put(
        "lock-wait events",
        kind_count(SpanKind::LockWait).to_string(),
    );
    put(
        "deadlock-victim events",
        kind_count(SpanKind::DeadlockVictim).to_string(),
    );
    put("retry events", kind_count(SpanKind::Retry).to_string());
    put("window lock-wait p99 ns", w.lock_wait_p99_ns().to_string());
    put("window commit p99 ns", w.commit_p99_ns().to_string());
    put(
        "window deadlocks/s",
        format!("{:.2}", w.deadlocks_per_sec()),
    );
    put(
        "anomaly",
        anomaly
            .as_ref()
            .map_or_else(|| "none".into(), |a| a.reason.clone()),
    );
    put(
        "causal chain",
        chain.map_or_else(
            || "MISSING".into(),
            |(v, c)| format!("victim txn {v} -> committed txn {c}"),
        ),
    );

    let _ = std::fs::write(dir.join("obs_report.tsv"), table.to_tsv());
    println!(
        "\nresults written to bench-results/obs_report.tsv \
         (+ obs_trace.json / obs_trace_spans.tsv / obs_trace_windows.tsv)"
    );

    drop(db);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("db.log"));

    // ---- gates (deterministic on any host: the rendezvous phase
    // manufactures the chain the assertions need) ------------------------
    let (victim, committed) = chain.expect(
        "exported trace must contain a complete causal chain \
         lock-wait -> deadlock-victim -> txn-abort -> retry -> txn-commit",
    );
    assert_ne!(victim, committed, "retry must be a fresh transaction");
    assert!(
        w.commit_p99_ns() > 0,
        "windowed commit p99 must be populated"
    );
    assert!(
        w.lock_wait.merged().count > 0,
        "windowed lock-wait histogram must have samples"
    );
    assert!(
        w.deadlocks.total() >= 1,
        "windowed deadlock counter must have counted the rendezvous victim"
    );
    assert!(
        locks.deadlock_aborts >= 1,
        "LockStats must agree at least one deadlock abort happened"
    );
    // Deadlock detection breaks every cycle when it forms, so no wait may
    // run into the lock-timeout backstop.
    assert_eq!(
        locks.timeout_aborts, 0,
        "lock timeouts while deadlock detection is live: a cycle went unbroken"
    );
    let a = anomaly.expect("deadlocks/s threshold crossing must fire the anomaly trigger");
    assert!(a.reason.contains("deadlocks/s"), "{}", a.reason);
    // The chrome export must round-trip the chain's ids (the schema the
    // golden test pins).
    let json = dump.to_chrome_json();
    assert!(json.contains("\"name\":\"deadlock-victim\""));
    assert!(json.contains(&format!("\"parent\":{victim}")));
    println!("\nall gates passed (complete causal chain: txn {victim} -> txn {committed})");
}

//! Exact-count self-check of the single-client workloads.
//!
//! With one client and a fixed number of operations, every count the
//! benchmark takes from outside the engine must repeat exactly for the same
//! seed, and the device wrapper must agree with the engine's own device
//! counters (a check every run makes). Sizes are scaled down so the test is
//! short; run it with `cargo test --release` from `perfbench/`.

use std::path::PathBuf;

use perfbench::workload::{run, Plan, Spec, Workload};

fn small(workload: Workload) -> Spec {
    let (records, frames) = match workload {
        Workload::GetHot => (5_000, 1_024),
        Workload::GetCold => (20_000, 64),
        Workload::RwMix => (5_000, 1_024),
        Workload::BatchLoad => (0, 64),
    };
    Spec {
        workload,
        records,
        frames,
        setup_reps: 1,
    }
}

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("self_check-{name}"))
}

/// Run `ops` operations and return every count the ledger uses.
fn counts(workload: Workload, ops: u64, run_name: &str) -> Vec<(&'static str, u64)> {
    let work = work_dir(&format!("{}-{run_name}", workload.name()));
    let plan = Plan {
        seed: 42,
        seconds: 600.0,
        trace: false,
        ops: Some(ops),
        work: work.clone(),
    };
    let out = run(&small(workload), &plan).expect("workload runs");
    let _ = std::fs::remove_dir_all(&work);
    for (name, ok) in &out.checks {
        assert!(*ok, "{}: check failed: {name}", workload.name());
    }
    assert_eq!(out.failed, 0, "{}: failed operations", workload.name());
    let client = &out.clients[0].1;
    assert_eq!(
        client.ops,
        ops,
        "{}: fixed operation count",
        workload.name()
    );
    let c = &out.counts;
    vec![
        ("pool.hits", c.pool.hits),
        ("pool.misses", c.pool.misses),
        ("pool.evictions", c.pool.evictions),
        ("pool.writebacks", c.pool.writebacks),
        ("data.reads", c.data.reads),
        ("data.writes", c.data.writes),
        ("data.syncs", c.data.syncs),
        ("log.writes", c.log.writes),
        ("log.syncs", c.log.syncs),
        ("engine.log_syncs", c.log_syncs),
        ("engine.log_bytes", c.log_bytes),
        ("pager.allocs", c.allocs),
    ]
}

fn assert_repeats(workload: Workload, ops: u64) -> Vec<(&'static str, u64)> {
    let a = counts(workload, ops, "a");
    let b = counts(workload, ops, "b");
    assert_eq!(
        a,
        b,
        "{}: counts differ between identical runs",
        workload.name()
    );
    a
}

#[test]
fn get_hot_counts_repeat_exactly() {
    let c = assert_repeats(Workload::GetHot, 20_000);
    let get = |name| c.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    assert_eq!(get("pool.misses"), Some(0), "get_hot data fits the pool");
}

#[test]
fn get_cold_counts_repeat_exactly() {
    let c = assert_repeats(Workload::GetCold, 20_000);
    let get = |name| c.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    assert!(get("pool.misses") > Some(0), "get_cold misses the pool");
    assert_eq!(
        get("pool.misses"),
        get("data.reads"),
        "every miss reads the device"
    );
}

#[test]
fn batch_load_counts_repeat_exactly() {
    let c = assert_repeats(Workload::BatchLoad, 200);
    let get = |name| c.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    assert_eq!(
        get("log.syncs"),
        Some(200),
        "Force commit: one log sync per batch"
    );
    assert_eq!(get("engine.log_syncs"), get("log.syncs"));
    assert!(get("pager.allocs") > Some(0), "the tree grows");
}

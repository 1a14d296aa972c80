//! Metrics, the per-layer ledger, and the printed report.

use std::fmt::Write as _;

use crate::lat::quantile_sorted;
use crate::probe::Probes;
use crate::trace::{self_times, SelfTimes};
use crate::workload::{ClientRun, Outcome, Workload, BATCH_KEYS, PAGE_SIZE, TXN_PUTS};

/// Host parallelism as delivered, not as advertised.
#[derive(Clone, Copy, Debug)]
pub struct Host {
    pub nproc: usize,
    /// Two threads' spin-loop throughput over one thread's.
    pub spin_speedup: f64,
}

/// Spin `iters` dependent multiply-adds.
fn spin(iters: u64) -> u64 {
    let mut x = 1u64;
    for i in 0..iters {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    std::hint::black_box(x)
}

/// Measure what two threads deliver over one on a pure CPU loop.
pub fn probe_host() -> Host {
    const ITERS: u64 = 40_000_000;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t0 = crate::lat::now_ns();
    spin(ITERS);
    let one = crate::lat::now_ns() - t0;
    let t0 = crate::lat::now_ns();
    std::thread::scope(|s| {
        let h = s.spawn(|| spin(ITERS));
        spin(ITERS);
        h.join().expect("spin thread panicked");
    });
    let two = crate::lat::now_ns() - t0;
    Host {
        nproc,
        spin_speedup: 2.0 * one as f64 / two.max(1) as f64,
    }
}

/// One metric as printed in the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn client<'a>(out: &'a Outcome, role: &str) -> Option<&'a ClientRun> {
    out.clients.iter().find(|(r, _)| *r == role).map(|(_, c)| c)
}

/// The workload's primary client: the one per-op figures refer to.
fn primary(w: Workload, out: &Outcome) -> &ClientRun {
    let role = match w {
        Workload::GetHot | Workload::GetCold => "get",
        Workload::RwMix => "txn",
        Workload::BatchLoad => "batch",
    };
    client(out, role).expect("workload ran its primary client")
}

fn geo(a: f64, b: f64) -> f64 {
    (a * b).sqrt()
}

/// Write amplification: device bytes written per user byte written.
fn write_amp(out: &Outcome) -> f64 {
    let c = &out.counts;
    (c.data.writes + c.log.writes) as f64 * PAGE_SIZE as f64 / c.user_bytes.max(1) as f64
}

/// The end-to-end metrics every workload reports in its result line.
///
/// `ops_s`, `p50_us` and `p90_us` are the workload's client operation: a
/// get on `get_hot`/`get_cold`, a key made durable (throughput) and an
/// `apply_batch` call (latency) on `batch_load`. `rw_mix` has two clients:
/// its latencies are the geometric mean of the reader's get and the
/// writer's transaction, so either side slowing by a factor moves them by
/// its square root. Its `ops_s` is the reader's alone, because the writer's
/// rate follows the host's fsync latency (it halved between runs of one
/// build); the writer's CPU path shows in its p50 and its fsync in its p90.
pub fn end_to_end(w: Workload, out: &Outcome) -> Vec<Metric> {
    let (ops_s, p50, p90) = match w {
        Workload::RwMix => {
            let g = client(out, "get").expect("reader ran");
            let t = client(out, "txn").expect("writer ran");
            (
                g.ops_s(),
                geo(g.lat.p50_ns, t.lat.p50_ns),
                geo(g.lat.p90_ns, t.lat.p90_ns),
            )
        }
        Workload::BatchLoad => {
            let b = primary(w, out);
            (
                b.ops_s() * f64::from(BATCH_KEYS),
                b.lat.p50_ns,
                b.lat.p90_ns,
            )
        }
        _ => {
            let g = primary(w, out);
            (g.ops_s(), g.lat.p50_ns, g.lat.p90_ns)
        }
    };
    vec![
        m("setup_s", out.setup_s, "s"),
        m("ops_s", ops_s, "1/s"),
        m("p50_us", p50 / 1e3, "us"),
        m("p90_us", p90 / 1e3, "us"),
        m("rss_mib", out.rss_setup_mib, "MiB"),
    ]
}

/// The named end-to-end metrics of each workload, printed for people.
pub fn named(w: Workload, out: &Outcome) -> Vec<Metric> {
    let mut v = vec![m("setup_s", out.setup_s, "s")];
    if let Some(g) = client(out, "get") {
        v.push(m("get_ops_s", g.ops_s(), "1/s"));
        v.push(m("get_p50_us", g.lat.p50_ns / 1e3, "us"));
        v.push(m("get_p90_us", g.lat.p90_ns / 1e3, "us"));
        v.push(m("get_p99_us", g.lat.p99_ns / 1e3, "us"));
    }
    if let Some(t) = client(out, "txn") {
        v.push(m("txn_ops_s", t.ops_s(), "1/s"));
        v.push(m("txn_p50_us", t.lat.p50_ns / 1e3, "us"));
        v.push(m("txn_p90_us", t.lat.p90_ns / 1e3, "us"));
        v.push(m("txn_p99_us", t.lat.p99_ns / 1e3, "us"));
    }
    if let Some(b) = client(out, "batch") {
        v.push(m("load_ops_s", b.ops_s() * f64::from(BATCH_KEYS), "1/s"));
        v.push(m("batch_p50_us", b.lat.p50_ns / 1e3, "us"));
        v.push(m("batch_p90_us", b.lat.p90_ns / 1e3, "us"));
        v.push(m("batch_p99_us", b.lat.p99_ns / 1e3, "us"));
    }
    if let Some(r) = out.reopen_s {
        v.push(m("reopen_s", r, "s"));
    }
    if matches!(w, Workload::RwMix | Workload::BatchLoad) {
        v.push(m("write_amp", write_amp(out), "B/B"));
    }
    v.push(m("rss_mib", out.rss_setup_mib, "MiB"));
    v.push(m("rss_peak_mib", out.rss_peak_mib, "MiB"));
    v.push(m(
        "error_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    ));
    v
}

/// Estimated time per primary operation, split by layer (ns).
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    pub e2e: f64,
    pub os: f64,
    pub buffer: f64,
    pub storage: f64,
    pub txn: f64,
    pub obs: f64,
}

impl Ledger {
    pub fn residual(&self) -> f64 {
        self.e2e - self.os - self.buffer - self.storage - self.txn - self.obs
    }
}

fn mean(sum: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// Per-call device costs seen by the wrapper in the traced phase.
struct DeviceCost {
    data_read: f64,
    data_write: f64,
    log_write: f64,
    log_sync: f64,
    log_sync_p50: f64,
    log_sync_p99: f64,
}

fn device_cost(out: &Outcome, p: &Probes) -> DeviceCost {
    let t = out.traced.as_ref();
    let data = t.map(|t| &t.data);
    let log = t.map(|t| &t.log);
    let mut syncs: Vec<u64> = log.map(|l| l.sync_lat.clone()).unwrap_or_default();
    syncs.sort_unstable();
    let data_read = data.map_or(0.0, |d| mean(d.read_ns, d.timed_reads));
    DeviceCost {
        // Without traced reads (every page resident) fall back to the
        // probe's direct device read.
        data_read: if data_read > 0.0 {
            data_read
        } else {
            p.device_read_ns
        },
        data_write: data.map_or(0.0, |d| mean(d.write_ns, d.timed_writes)),
        log_write: log.map_or(0.0, |l| mean(l.write_ns, l.timed_writes)),
        log_sync: mean(syncs.iter().sum(), syncs.len() as u64),
        // Without traced log syncs (no log) report the probe's device sync.
        log_sync_p50: if syncs.is_empty() {
            p.sync_ns_p50
        } else {
            quantile_sorted(&syncs, 0.50)
        },
        log_sync_p99: if syncs.is_empty() {
            p.sync_ns_p99
        } else {
            quantile_sorted(&syncs, 0.99)
        },
    }
}

/// The ledger row of the workload's primary client, and for `rw_mix` also
/// the reader's.
pub fn ledgers(w: Workload, out: &Outcome, p: &Probes) -> Vec<(&'static str, Ledger)> {
    let d = device_cost(out, p);
    let c = &out.counts;
    let descent_self = (p.descent_ns - p.pages_per_lookup * p.hit_ns).max(0.0);
    let miss_self = (p.miss_ns - p.device_read_ns).max(0.0);
    let main = primary(w, out);
    let n = main.ops.max(1) as f64;
    let per = |x: u64| x as f64 / n;
    let device = per(c.data.reads) * d.data_read
        + per(c.data.writes) * d.data_write
        + per(c.log.writes) * d.log_write
        + per(c.log.syncs) * d.log_sync;
    let append_byte_ns = p.append_many_ns / p.append_many_bytes.max(1.0);
    let mut rows = Vec::new();
    match w {
        Workload::GetHot | Workload::GetCold => rows.push((
            "get",
            Ledger {
                e2e: main.ns_per_op(),
                os: device,
                buffer: per(c.pool.hits) * p.hit_ns + per(c.pool.misses) * miss_self,
                storage: descent_self,
                txn: 0.0,
                // `Database::get_with` records one op-trace event per call.
                obs: p.trace_record_ns,
            },
        )),
        Workload::RwMix => {
            // A transaction descends the tree for its get and, per put, for
            // the before-image read and the insert; it takes one lock per key.
            let descents = (1 + 2 * TXN_PUTS) as f64;
            let locks = (1 + TXN_PUTS) as f64;
            rows.push((
                "txn",
                Ledger {
                    e2e: main.ns_per_op(),
                    os: device,
                    buffer: descents * p.pages_per_lookup * p.shared_hit_ns,
                    storage: descents * descent_self,
                    txn: per(c.log_bytes) * append_byte_ns + locks * p.lock_acquire_ns,
                    obs: 0.0,
                },
            ));
            if let Some(g) = client(out, "get") {
                rows.push((
                    "get",
                    Ledger {
                        e2e: g.ns_per_op(),
                        os: 0.0,
                        buffer: p.pages_per_lookup * p.shared_hit_ns,
                        storage: descent_self,
                        txn: 0.0,
                        obs: 0.0,
                    },
                ));
            }
        }
        Workload::BatchLoad => rows.push((
            "batch",
            Ledger {
                e2e: main.ns_per_op(),
                os: device,
                buffer: per(c.pool.hits) * p.hit_ns + per(c.pool.misses) * miss_self,
                // Each key's before-image read is one descent; the sorted
                // bulk insert itself is left in the residual.
                storage: f64::from(BATCH_KEYS) * descent_self,
                txn: per(c.log_bytes) * append_byte_ns,
                obs: p.trace_record_ns,
            },
        )),
    }
    rows
}

/// The per-layer metrics of a traced run.
pub fn per_layer(w: Workload, out: &Outcome, p: &Probes, host: &Host) -> Vec<Metric> {
    let c = &out.counts;
    let d = device_cost(out, p);
    let main = primary(w, out);
    let n = main.ops.max(1) as f64;
    let per = |x: u64| x as f64 / n;
    let accesses = c.pool.hits + c.pool.misses;
    let ledger = ledgers(w, out, p)[0].1;
    let st = out
        .traced
        .as_ref()
        .map(|t| self_times(&t.spans, main.tag))
        .unwrap_or_default();
    vec![
        m("os.data.reads_per_op", per(c.data.reads), "count/op"),
        m("os.data.read_ns", d.data_read, "ns"),
        m("os.data.writes_per_op", per(c.data.writes), "count/op"),
        m(
            "os.log.bytes_per_op",
            per(c.log.writes * PAGE_SIZE as u64),
            "B/op",
        ),
        m("os.log.syncs_per_op", per(c.log.syncs), "count/op"),
        m("os.log.sync_ns_p50", d.log_sync_p50, "ns"),
        m("os.log.sync_ns_p99", d.log_sync_p99, "ns"),
        m("buffer.hit_ratio", mean(c.pool.hits, accesses), "ratio"),
        m("buffer.misses_per_op", per(c.pool.misses), "count/op"),
        m("buffer.evictions_per_op", per(c.pool.evictions), "count/op"),
        m(
            "buffer.writebacks_per_op",
            per(c.pool.writebacks),
            "count/op",
        ),
        m("buffer.latch_waits", c.pool.latch_waits as f64, "count"),
        m("buffer.hit_ns", p.hit_ns, "ns"),
        m("buffer.shared_hit_ns", p.shared_hit_ns, "ns"),
        m("buffer.miss_ns", p.miss_ns, "ns"),
        m("storage.pager_reads_per_op", p.pages_per_lookup, "count/op"),
        m("storage.descent_ns", p.descent_ns, "ns"),
        m("storage.allocs_per_op", per(c.allocs), "count/op"),
        m("txn.append_ns", p.append_ns, "ns"),
        m("txn.append_many_ns", p.append_many_ns, "ns"),
        m(
            "txn.commits_per_sync",
            mean(c.commits, c.log_syncs),
            "ratio",
        ),
        m("txn.commit_ns_p50", p.commit_ns_p50, "ns"),
        m("txn.commit_ns_p99", p.commit_ns_p99, "ns"),
        m("txn.lock_acquire_ns", p.lock_acquire_ns, "ns"),
        m("txn.lock_waits", c.lock_waits as f64, "count"),
        m("txn.deadlock_aborts", c.deadlock_aborts as f64, "count"),
        m("txn.timeout_aborts", c.timeout_aborts as f64, "count"),
        m(
            "txn.abort_ratio",
            mean(c.engine_aborts, c.commits + c.engine_aborts),
            "ratio",
        ),
        m("txn.log_bytes_total", c.log_bytes as f64, "B"),
        m("txn.recovery_redo", out.recovery_redo as f64, "count"),
        m("obs.trace_record_ns", p.trace_record_ns, "ns"),
        m("core.residual_ns", ledger.residual(), "ns"),
        m("ledger.e2e_ns", ledger.e2e, "ns"),
        m("trace.facade_self_ns", st.facade_self_ns, "ns"),
        m(
            "trace.device_share",
            st.device_self_ns / (st.device_self_ns + st.facade_self_ns).max(f64::MIN_POSITIVE),
            "ratio",
        ),
        m("tracing_overhead", tracing_overhead(w, out), "x"),
        m("host.nproc", host.nproc as f64, "count"),
        m("host.spin_speedup", host.spin_speedup, "x"),
    ]
}

/// The traced run of the client tagged `tag`.
fn traced_client(out: &Outcome, tag: u64) -> Option<&ClientRun> {
    out.traced.as_ref()?.clients.iter().find(|c| c.tag == tag)
}

/// Untraced over traced throughput of the primary client.
fn tracing_overhead(w: Workload, out: &Outcome) -> f64 {
    let main = primary(w, out);
    traced_client(out, main.tag).map_or(0.0, |t| main.ops_s() / t.ops_s().max(f64::MIN_POSITIVE))
}

fn share(part: f64, whole: f64) -> String {
    format!(
        "{part:.1} ({:.1}%)",
        100.0 * part / whole.max(f64::MIN_POSITIVE)
    )
}

/// The ledger reconciliation rows, one per client, every ratio with its
/// base.
pub fn ledger_text(w: Workload, out: &Outcome, p: &Probes) -> String {
    let mut s = String::new();
    for (role, l) in ledgers(w, out, p) {
        let _ = writeln!(
            s,
            "ledger {} [{role}]: {:.1} ns/op = os {} + buffer {} + storage {} + txn {} + obs {} + core.residual {}",
            w.name(),
            l.e2e,
            share(l.os, l.e2e),
            share(l.buffer, l.e2e),
            share(l.storage, l.e2e),
            share(l.txn, l.e2e),
            share(l.obs, l.e2e),
            share(l.residual(), l.e2e),
        );
    }
    for (role, untraced) in &out.clients {
        let (Some(t), Some(traced)) = (&out.traced, traced_client(out, untraced.tag)) else {
            continue;
        };
        let st: SelfTimes = self_times(&t.spans, untraced.tag);
        let _ = writeln!(
            s,
            "traced {} [{role}]: {} ops, {} facade and {} device spans; per op facade self {:.1} ns, device {:.1} ns; \
             tracing_overhead {:.3} = untraced {:.1} / traced {:.1} ops/s",
            w.name(),
            st.ops,
            st.facade_spans,
            st.device_spans,
            st.facade_self_ns,
            st.device_self_ns,
            untraced.ops_s() / traced.ops_s().max(f64::MIN_POSITIVE),
            untraced.ops_s(),
            traced.ops_s(),
        );
    }
    s
}

/// The bases of the per-layer ratios, one line each.
pub fn ratio_bases(w: Workload, out: &Outcome) -> String {
    let c = &out.counts;
    let main = primary(w, out);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "base per_op: {} {} ops of the primary client, untraced phase",
        main.ops,
        w.name()
    );
    let _ = writeln!(
        s,
        "base buffer.hit_ratio: {} hits / {} accesses",
        c.pool.hits,
        c.pool.hits + c.pool.misses
    );
    let _ = writeln!(
        s,
        "base txn.commits_per_sync: {} commits / {} log syncs; txn.abort_ratio: {} aborts / {} ends",
        c.commits,
        c.log_syncs,
        c.engine_aborts,
        c.commits + c.engine_aborts
    );
    let _ = writeln!(
        s,
        "base write_amp: ({} data + {} log page writes) x {PAGE_SIZE} B / {} user B",
        c.data.writes, c.log.writes, c.user_bytes
    );
    s
}

/// JSON number text for a finite value.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                num(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

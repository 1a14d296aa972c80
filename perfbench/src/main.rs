//! Run one workload and print its metrics.
//!
//! Usage: `perfbench --workload <get_hot|get_cold|rw_mix|batch_load>
//! --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]`
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Everything above it
//! is for people: every named metric with its unit, the checks, and the
//! ledger.

use std::path::PathBuf;

use perfbench::report::{self, Host};
use perfbench::workload::{self, Outcome, Plan, Spec, Workload};
use perfbench::{probe, trace};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut workdir = PathBuf::from(".bench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {val} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: expected 0 or 1")),
                }
            }
            "--workdir" => workdir = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        workdir,
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn print_report(args: &Args, spec: &Spec, out: &Outcome, host: &Host) {
    let w = args.workload;
    println!(
        "workload {} seed {} seconds {} trace {}: {} records, {} frames of {} B, tree {} pages, {} set-ups {:?} s",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.records,
        spec.frames,
        workload::PAGE_SIZE,
        out.tree_pages,
        out.setup_samples.len(),
        out.setup_samples,
    );
    println!(
        "host: nproc {} (available_parallelism), 2-thread spin speedup {:.3}x",
        host.nproc, host.spin_speedup
    );
    for (role, c) in &out.clients {
        println!(
            "client {role}: {} ops in {:.3} s, {} failed, {} retries; latency over {} samples in {} windows",
            c.ops,
            c.elapsed_ns as f64 / 1e9,
            c.failed,
            c.retries,
            c.lat.samples,
            c.lat.windows
        );
        let w: Vec<String> = c
            .lat
            .per_window
            .iter()
            .map(|(r, p50, p99)| format!("{r:.0}/s p50 {p50:.0} p99 {p99:.0} ns"))
            .collect();
        println!("client {role} windows: {}", w.join(" | "));
    }
    let c = &out.counts;
    if c.commits > 0 {
        println!(
            "engine: {} commits, {} log syncs, {} log bytes, {} lock waits, {} deadlock / {} timeout aborts; \
             commit_latency p50 <= {} ns, p99 <= {} ns (power-of-two buckets)",
            c.commits,
            c.log_syncs,
            c.log_bytes,
            c.lock_waits,
            c.deadlock_aborts,
            c.timeout_aborts,
            c.commit_p50_ns,
            c.commit_p99_ns
        );
    }
    for (name, ok) in &out.checks {
        println!("check {}: {name}", if *ok { "ok" } else { "FAILED" });
    }
    for x in report::named(w, out) {
        println!("metric {} = {} {}", x.name, x.value, x.unit);
    }
    println!(
        "error_ratio base: {} failed / {} attempted",
        out.failed, out.attempted
    );
}

fn run(args: &Args) -> Result<(), String> {
    let host = report::probe_host();
    let spec = Spec::standard(args.workload);
    let scratch = Scratch(args.workdir.join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    )));
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        ops: None,
        work: scratch.0.clone(),
    };
    let out = workload::run(&spec, &plan)?;
    print_report(args, &spec, &out, &host);
    let metrics = if args.trace {
        let policy = workload::commit_policy(args.workload);
        let probes = probe::run(
            &out.data_path,
            &out.probe_keys,
            args.seed,
            &scratch.0,
            policy,
        )?;
        print!("{}", report::ledger_text(args.workload, &out, &probes));
        print!("{}", report::ratio_bases(args.workload, &out));
        if let Some(t) = &out.traced {
            let path = args
                .workdir
                .join(format!("spans-{}.tsv", args.workload.name()));
            trace::write_tsv(&path, &t.spans).map_err(|e| format!("write spans: {e}"))?;
            println!("spans: {} written to {}", t.spans.len(), path.display());
        }
        let metrics = report::per_layer(args.workload, &out, &probes, &host);
        for x in &metrics {
            println!("layer {} = {} {}", x.name, x.value, x.unit);
        }
        metrics
    } else {
        report::end_to_end(args.workload, &out)
    };
    drop(scratch);
    println!(
        "{}",
        report::json_line(out.failed == 0, out.attempted, out.failed, &metrics)
    );
    Ok(())
}

fn main() {
    let result = parse().and_then(|args| run(&args));
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

//! FAME-DBMS benchmark: four workloads against the engine's public facade,
//! end-to-end metrics from untraced runs, and a per-layer ledger from a
//! traced run, all measured from outside the engine. See `README.md`.

pub mod dev;
pub mod gen;
pub mod lat;
pub mod probe;
pub mod report;
pub mod trace;
pub mod workload;

//! In-memory spans recorded by the benchmark around its own calls.
//!
//! A traced phase records one span per facade call (`get_with`, the
//! writer's `get`/`put`/`commit`, `apply_batch`) and a child span for every
//! device read, write and sync the timing device wrapper sees while that
//! call runs. Each client samples one operation in `n` (all spans of a
//! sampled operation are kept), with `n` chosen so its buffer lasts the
//! phase. The choice hashes the operation number, so a sample never locks
//! onto a periodic pattern such as every fourth commit syncing. Spans live in a per-thread buffer with a fixed capacity; should
//! any thread fill it anyway, [`full`] turns true and the clients end the
//! traced phase. Nothing is recorded while tracing is off, and the only
//! cost left on the untraced path is one relaxed atomic load per call.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

use crate::lat::now_ns;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    TxnGet,
    TxnPut,
    TxnCommit,
    Batch,
    DataRead,
    DataWrite,
    DataSync,
    LogRead,
    LogWrite,
    LogSync,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Get => "get_with",
            Kind::TxnGet => "txn_get",
            Kind::TxnPut => "txn_put",
            Kind::TxnCommit => "commit",
            Kind::Batch => "apply_batch",
            Kind::DataRead => "data.read",
            Kind::DataWrite => "data.write",
            Kind::DataSync => "data.sync",
            Kind::LogRead => "log.read",
            Kind::LogWrite => "log.write",
            Kind::LogSync => "log.sync",
        }
    }

    pub fn is_device(self) -> bool {
        matches!(
            self,
            Kind::DataRead
                | Kind::DataWrite
                | Kind::DataSync
                | Kind::LogRead
                | Kind::LogWrite
                | Kind::LogSync
        )
    }
}

/// One recorded interval. `parent` is 0 for a facade span and the facade
/// span's `id` for a device span; `op` is the client operation (a get, a
/// transaction, a batch) both belong to.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static FULL: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(0);
static THREADS: AtomicU64 = AtomicU64::new(1);

struct Local {
    spans: Vec<Span>,
    tag: u64,
    next: u64,
    /// Innermost open facade span and its operation.
    cur: (u64, u64),
    /// Record spans of every `every`-th operation of this thread.
    every: u64,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        spans: Vec::new(),
        tag: THREADS.fetch_add(1, Relaxed) << 48,
        next: 0,
        cur: (0, 0),
        every: 1,
    });
}

/// Low 48 bits of an operation id: the operation's number in its client.
const OP_NUMBER: u64 = (1 << 48) - 1;

/// Sample one in `every` operations of the calling thread (at least 1).
pub fn sample_every(every: u64) {
    LOCAL.with(|l| l.borrow_mut().every = every.max(1));
}

/// Start recording, at most `capacity` spans per thread.
pub fn enable(capacity: usize) {
    CAPACITY.store(capacity, Relaxed);
    FULL.store(false, Relaxed);
    ENABLED.store(true, Relaxed);
}

/// Stop recording.
pub fn disable() {
    ENABLED.store(false, Relaxed);
}

/// Is a traced phase running?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Has some thread filled its span buffer?
pub fn full() -> bool {
    FULL.load(Relaxed)
}

fn push(l: &mut Local, span: Span) {
    if l.spans.len() >= CAPACITY.load(Relaxed) {
        FULL.store(true, Relaxed);
        return;
    }
    if l.spans.capacity() == 0 {
        l.spans.reserve_exact(CAPACITY.load(Relaxed));
    }
    l.spans.push(span);
}

/// Run facade call `f` of client operation `op` inside a span.
#[inline]
pub fn facade<R>(kind: Kind, op: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let Some((id, outer)) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !crate::gen::mix(op & OP_NUMBER).is_multiple_of(l.every) {
            return None;
        }
        l.next += 1;
        let id = l.tag | l.next;
        let outer = l.cur;
        l.cur = (id, op);
        Some((id, outer))
    }) else {
        return f();
    };
    let start_ns = now_ns();
    let r = f();
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.cur = outer;
        push(
            &mut l,
            Span {
                id,
                parent: 0,
                op,
                kind,
                start_ns,
                end_ns,
            },
        );
    });
    r
}

/// Record a device call that ran from `start_ns` to `end_ns` as a child of
/// the open facade span, if there is one.
pub fn device(kind: Kind, start_ns: u64, end_ns: u64) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let (parent, op) = l.cur;
        if parent == 0 {
            return;
        }
        l.next += 1;
        let id = l.tag | l.next;
        push(
            &mut l,
            Span {
                id,
                parent,
                op,
                kind,
                start_ns,
                end_ns,
            },
        );
    });
}

/// Take this thread's recorded spans.
pub fn take() -> Vec<Span> {
    LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans))
}

/// Self times per client operation, derived from spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTimes {
    /// Client operations with at least one facade span.
    pub ops: u64,
    /// Facade spans.
    pub facade_spans: u64,
    /// Device child spans.
    pub device_spans: u64,
    /// Facade self time (span minus its device children) per operation.
    pub facade_self_ns: f64,
    /// Device time per operation.
    pub device_self_ns: f64,
}

/// Client number of an operation id (its top 16 bits).
pub fn client_of(op: u64) -> u64 {
    op >> 48
}

/// Facade and device self time per operation of client `client`.
pub fn self_times(spans: &[Span], client: u64) -> SelfTimes {
    let mut facade_ns = 0u64;
    let mut device_ns = 0u64;
    let mut facade_spans = 0u64;
    let mut device_spans = 0u64;
    let mut ops: Vec<u64> = Vec::new();
    for s in spans.iter().filter(|s| client_of(s.op) == client) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        if s.kind.is_device() {
            device_spans += 1;
            device_ns += dur;
        } else {
            facade_spans += 1;
            facade_ns += dur;
            ops.push(s.op);
        }
    }
    ops.sort_unstable();
    ops.dedup();
    let n = ops.len().max(1) as f64;
    SelfTimes {
        ops: ops.len() as u64,
        facade_spans,
        device_spans,
        // Device children never overlap each other and lie inside their
        // facade span (one thread, sequential calls), so the facade's
        // self time is its total minus the device total.
        facade_self_ns: facade_ns.saturating_sub(device_ns) as f64 / n,
        device_self_ns: device_ns as f64 / n,
    }
}

/// Write spans as TSV: `id parent op kind start_ns end_ns`.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\top\tkind\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{:x}\t{:x}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.op,
            s.kind.label(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                id: 1,
                parent: 0,
                op: 7,
                kind: Kind::Get,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                op: 7,
                kind: Kind::DataRead,
                start_ns: 10,
                end_ns: 40,
            },
        ];
        let t = self_times(&spans, 0);
        assert_eq!(t.ops, 1);
        assert_eq!(t.facade_self_ns, 70.0);
        assert_eq!(t.device_self_ns, 30.0);
    }
}

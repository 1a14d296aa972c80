//! The benchmark's timing `BlockDevice`, wrapped around the data and log
//! files and handed to the engine through `Database::open_with_devices`.
//!
//! It counts every call into the device layer (`fame-os`) from outside the
//! engine. While a traced phase runs it also times each call, keeps sync
//! latencies, and records a device span under the open facade span.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use fame_dbms::fame_os::{BlockDevice, DeviceStats, PageId, Result};

use crate::lat::now_ns;
use crate::trace::{self, Kind};

/// Which file a device wrapper sits on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Data,
    Log,
}

/// Live counters of one wrapped device, shared with the benchmark.
#[derive(Default)]
pub struct DevCounters {
    reads: AtomicU64,
    writes: AtomicU64,
    syncs: AtomicU64,
    read_ns: AtomicU64,
    write_ns: AtomicU64,
    timed_reads: AtomicU64,
    timed_writes: AtomicU64,
    sync_lat: Mutex<Vec<u64>>,
}

/// A copy of [`DevCounters`]; `timed_*` and the `*_ns` sums cover only
/// calls made while tracing was on.
#[derive(Clone, Debug, Default)]
pub struct DevSnap {
    pub reads: u64,
    pub writes: u64,
    pub syncs: u64,
    pub read_ns: u64,
    pub write_ns: u64,
    pub timed_reads: u64,
    pub timed_writes: u64,
    pub sync_lat: Vec<u64>,
}

impl DevCounters {
    pub fn snap(&self) -> DevSnap {
        DevSnap {
            reads: self.reads.load(Relaxed),
            writes: self.writes.load(Relaxed),
            syncs: self.syncs.load(Relaxed),
            read_ns: self.read_ns.load(Relaxed),
            write_ns: self.write_ns.load(Relaxed),
            timed_reads: self.timed_reads.load(Relaxed),
            timed_writes: self.timed_writes.load(Relaxed),
            sync_lat: self
                .sync_lat
                .lock()
                .expect("sync latency list poisoned")
                .clone(),
        }
    }
}

impl DevSnap {
    /// Counts accrued since `before`.
    pub fn since(&self, before: &DevSnap) -> DevSnap {
        DevSnap {
            reads: self.reads - before.reads,
            writes: self.writes - before.writes,
            syncs: self.syncs - before.syncs,
            read_ns: self.read_ns - before.read_ns,
            write_ns: self.write_ns - before.write_ns,
            timed_reads: self.timed_reads - before.timed_reads,
            timed_writes: self.timed_writes - before.timed_writes,
            sync_lat: self.sync_lat[before.sync_lat.len()..].to_vec(),
        }
    }
}

/// Counting and (while tracing) timing wrapper over a block device.
pub struct TimedDevice {
    inner: Box<dyn BlockDevice>,
    counters: Arc<DevCounters>,
    role: Role,
}

impl TimedDevice {
    pub fn new(inner: Box<dyn BlockDevice>, role: Role) -> (TimedDevice, Arc<DevCounters>) {
        let counters = Arc::new(DevCounters::default());
        let dev = TimedDevice {
            inner,
            counters: Arc::clone(&counters),
            role,
        };
        (dev, counters)
    }

    fn kind(&self, data: Kind, log: Kind) -> Kind {
        match self.role {
            Role::Data => data,
            Role::Log => log,
        }
    }

    fn read_done(&self, start: Option<u64>) {
        self.counters.reads.fetch_add(1, Relaxed);
        if let Some(t0) = start {
            let t1 = now_ns();
            self.counters.read_ns.fetch_add(t1 - t0, Relaxed);
            self.counters.timed_reads.fetch_add(1, Relaxed);
            trace::device(self.kind(Kind::DataRead, Kind::LogRead), t0, t1);
        }
    }
}

fn start() -> Option<u64> {
    trace::enabled().then(now_ns)
}

impl BlockDevice for TimedDevice {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<()> {
        let t0 = start();
        self.inner.read_page(page, buf)?;
        self.read_done(t0);
        Ok(())
    }

    fn supports_shared_read(&self) -> bool {
        self.inner.supports_shared_read()
    }

    fn read_page_at(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        let t0 = start();
        self.inner.read_page_at(page, buf)?;
        self.read_done(t0);
        Ok(())
    }

    fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<()> {
        let t0 = start();
        self.inner.write_page(page, buf)?;
        self.counters.writes.fetch_add(1, Relaxed);
        if let Some(t0) = t0 {
            let t1 = now_ns();
            self.counters.write_ns.fetch_add(t1 - t0, Relaxed);
            self.counters.timed_writes.fetch_add(1, Relaxed);
            trace::device(self.kind(Kind::DataWrite, Kind::LogWrite), t0, t1);
        }
        Ok(())
    }

    fn ensure_pages(&mut self, pages: u32) -> Result<()> {
        self.inner.ensure_pages(pages)
    }

    fn sync(&mut self) -> Result<()> {
        let t0 = start();
        self.inner.sync()?;
        self.counters.syncs.fetch_add(1, Relaxed);
        if let Some(t0) = t0 {
            let t1 = now_ns();
            self.counters
                .sync_lat
                .lock()
                .expect("sync latency list poisoned")
                .push(t1 - t0);
            trace::device(self.kind(Kind::DataSync, Kind::LogSync), t0, t1);
        }
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}

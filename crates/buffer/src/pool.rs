//! The buffer pool: frames, page table, eviction, write-back.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use fame_os::{AllocPolicy, BlockDevice, DeviceStats, FrameAllocator, OsError, PageId};

use crate::replacement::{FrameIdx, ReplacementKind, ReplacementPolicy};
use crate::stats::AtomicPoolStats;
pub use crate::stats::PoolStats;

/// Fibonacci hashing multiplier, `2^64 / φ` rounded to odd.
pub(crate) const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative hasher for `PageId` keys. Page ids are dense small
/// integers the pager allocates, and a page map holds at most one entry
/// per frame or versioned page, so SipHash's flooding resistance buys
/// little. One multiply spreads the page into the high bits (the table's
/// tag byte), but leaves the low bits a permutation of the page's low
/// bits; a shard of the latched pool holds only pages with equal low bits,
/// so `finish` folds the high half into the low half (the bucket index).
#[derive(Default)]
pub(crate) struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(FIBONACCI);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(FIBONACCI);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Every `PageId`-keyed map in the crate.
pub(crate) type PageMap<V> = HashMap<PageId, V, BuildHasherDefault<PageHasher>>;

#[derive(Debug)]
struct Frame {
    page: Option<PageId>,
    data: Box<[u8]>,
    dirty: bool,
}

/// State of the caching mode: frame arena, page table, eviction machinery.
struct Cached {
    frames: Vec<Frame>,
    map: PageMap<FrameIdx>,
    policy: Box<dyn ReplacementPolicy>,
    allocator: FrameAllocator,
    /// Frames currently holding no page (pre-allocated or discarded).
    free: Vec<FrameIdx>,
}

impl Cached {
    /// Locate (or load) the frame holding `page`.
    fn frame_for(
        &mut self,
        device: &mut dyn BlockDevice,
        stats: &mut AtomicPoolStats,
        page: PageId,
    ) -> Result<FrameIdx, OsError> {
        if let Some(&idx) = self.map.get(&page) {
            stats.hits.bump();
            self.policy.on_access(idx);
            return Ok(idx);
        }
        stats.misses.bump();

        // Find a frame: an empty pre-allocated one, a fresh allocation, or
        // an eviction victim.
        let idx = if let Some(idx) = self.free.pop() {
            idx
        } else if self.allocator.try_acquire() {
            let idx = self.frames.len();
            self.frames.push(Frame {
                page: None,
                data: vec![0u8; device.page_size()].into_boxed_slice(),
                dirty: false,
            });
            self.policy.resize(self.frames.len());
            idx
        } else {
            let victim = self
                .policy
                .victim()
                .ok_or_else(|| OsError::Io("buffer pool has no evictable frame".to_string()))?;
            let fr = &mut self.frames[victim];
            if fr.dirty {
                let old = fr.page.expect("victim frame holds a page");
                device.write_page(old, &fr.data)?;
                stats.writebacks.bump();
            }
            if let Some(old) = fr.page.take() {
                self.map.remove(&old);
            }
            fr.dirty = false;
            self.policy.on_remove(victim);
            stats.evictions.bump();
            victim
        };

        device.read_page(page, &mut self.frames[idx].data)?;
        self.frames[idx].page = Some(page);
        self.map.insert(page, idx);
        self.policy.on_insert(idx);
        Ok(idx)
    }
}

enum Mode {
    /// No Buffer Manager feature: every access goes to the device through
    /// one scratch buffer.
    Unbuffered { scratch: Box<[u8]> },
    /// Caching pool.
    Cached(Cached),
}

/// Single-threaded pool: exclusive device, no synchronization. The stat
/// counters are atomics only so `stats()` can read them through `&self`;
/// every update here holds `&mut` and bumps them without an atomic
/// read-modify-write.
struct Exclusive {
    device: Box<dyn BlockDevice>,
    mode: Mode,
    stats: AtomicPoolStats,
}

impl Exclusive {
    fn with_page<R>(&mut self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R, OsError> {
        match &mut self.mode {
            Mode::Unbuffered { scratch } => {
                self.stats.misses.bump();
                self.device.read_page(page, scratch)?;
                Ok(f(scratch))
            }
            Mode::Cached(c) => {
                let idx = c.frame_for(&mut *self.device, &mut self.stats, page)?;
                Ok(f(&c.frames[idx].data))
            }
        }
    }

    fn with_page_mut<R>(
        &mut self,
        page: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, OsError> {
        match &mut self.mode {
            Mode::Unbuffered { scratch } => {
                // One access, one miss — the read+write pair is a single
                // logical page touch.
                self.stats.misses.bump();
                self.device.read_page(page, scratch)?;
                let r = f(scratch);
                self.device.write_page(page, scratch)?;
                Ok(r)
            }
            Mode::Cached(c) => {
                let idx = c.frame_for(&mut *self.device, &mut self.stats, page)?;
                c.frames[idx].dirty = true;
                Ok(f(&mut c.frames[idx].data))
            }
        }
    }

    fn flush(&mut self) -> Result<(), OsError> {
        if let Mode::Cached(c) = &mut self.mode {
            // Write back in page-number order, not frame order: a batch
            // of dirty pages leaves the pool as one sequential pass over
            // the device instead of the random order eviction history
            // happened to leave in the frame table.
            let mut dirty: Vec<(PageId, usize)> = c
                .frames
                .iter()
                .enumerate()
                .filter(|(_, fr)| fr.dirty)
                .map(|(idx, fr)| (fr.page.expect("dirty frame holds a page"), idx))
                .collect();
            dirty.sort_unstable();
            for (page, idx) in dirty {
                let fr = &mut c.frames[idx];
                self.device.write_page(page, &fr.data)?;
                fr.dirty = false;
                self.stats.writebacks.bump();
            }
        }
        Ok(())
    }
}

enum Repr {
    Exclusive(Exclusive),
    /// Feature *Concurrency → MultiReader*: sharded latched pool.
    #[cfg(feature = "shared")]
    Shared(crate::shared::SharedBufferPool),
}

/// A page cache in front of a [`BlockDevice`]. See crate docs for the
/// access model.
pub struct BufferPool {
    repr: Repr,
}

impl BufferPool {
    /// Create a caching pool with the given replacement policy and frame
    /// allocation policy. Static allocation pre-faults the whole arena.
    pub fn new(device: Box<dyn BlockDevice>, kind: ReplacementKind, alloc: AllocPolicy) -> Self {
        let page_size = device.page_size();
        let prealloc = alloc.preallocate();
        let mut allocator = FrameAllocator::new(alloc);
        let mut frames = Vec::with_capacity(prealloc);
        for _ in 0..prealloc {
            let ok = allocator.try_acquire();
            debug_assert!(ok, "preallocation within static arena");
            frames.push(Frame {
                page: None,
                data: vec![0u8; page_size].into_boxed_slice(),
                dirty: false,
            });
        }
        let policy = kind.build(frames.len());
        let free = (0..frames.len()).rev().collect();
        BufferPool {
            repr: Repr::Exclusive(Exclusive {
                device,
                mode: Mode::Cached(Cached {
                    frames,
                    map: PageMap::default(),
                    policy,
                    allocator,
                    free,
                }),
                stats: AtomicPoolStats::default(),
            }),
        }
    }

    /// Create a pass-through pool (product without the Buffer Manager
    /// feature).
    pub fn unbuffered(device: Box<dyn BlockDevice>) -> Self {
        let page_size = device.page_size();
        BufferPool {
            repr: Repr::Exclusive(Exclusive {
                device,
                mode: Mode::Unbuffered {
                    scratch: vec![0u8; page_size].into_boxed_slice(),
                },
                stats: AtomicPoolStats::default(),
            }),
        }
    }

    /// Create a sharded caching pool usable from many reader threads; see
    /// [`crate::shared::SharedBufferPool`]. `shards` must be a power of two.
    #[cfg(feature = "shared")]
    pub fn new_shared(
        device: Box<dyn BlockDevice>,
        kind: ReplacementKind,
        alloc: AllocPolicy,
        shards: usize,
    ) -> Self {
        BufferPool {
            repr: Repr::Shared(crate::shared::SharedBufferPool::new(
                device, kind, alloc, shards,
            )),
        }
    }

    /// Create a pass-through pool whose reads may run concurrently.
    #[cfg(feature = "shared")]
    pub fn unbuffered_shared(device: Box<dyn BlockDevice>) -> Self {
        BufferPool {
            repr: Repr::Shared(crate::shared::SharedBufferPool::unbuffered(device)),
        }
    }

    /// A cheap clonable `Send + Sync` handle onto this pool, when it was
    /// built in a shared mode ([`BufferPool::new_shared`] /
    /// [`BufferPool::unbuffered_shared`]); `None` for exclusive pools.
    #[cfg(feature = "shared")]
    pub fn shared_handle(&self) -> Option<crate::shared::SharedBufferPool> {
        match &self.repr {
            Repr::Exclusive(_) => None,
            Repr::Shared(s) => Some(s.clone()),
        }
    }

    /// Page size of the underlying device.
    pub fn page_size(&self) -> usize {
        match &self.repr {
            Repr::Exclusive(x) => x.device.page_size(),
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.page_size(),
        }
    }

    /// Number of addressable pages.
    pub fn num_pages(&self) -> u32 {
        match &self.repr {
            Repr::Exclusive(x) => x.device.num_pages(),
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.num_pages(),
        }
    }

    /// Grow the device (see [`BlockDevice::ensure_pages`]).
    pub fn ensure_pages(&mut self, pages: u32) -> Result<(), OsError> {
        match &mut self.repr {
            Repr::Exclusive(x) => x.device.ensure_pages(pages),
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.ensure_pages(pages),
        }
    }

    /// Run `f` over an immutable view of the page.
    pub fn with_page<R>(&mut self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R, OsError> {
        match &mut self.repr {
            Repr::Exclusive(x) => x.with_page(page, f),
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.with_page(page, f),
        }
    }

    /// Run `f` over a mutable view of the page; the page is marked dirty
    /// and written back on eviction, [`BufferPool::flush`], or drop.
    pub fn with_page_mut<R>(
        &mut self,
        page: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, OsError> {
        match &mut self.repr {
            Repr::Exclusive(x) => x.with_page_mut(page, f),
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.with_page_mut(page, f),
        }
    }

    /// Write back every dirty frame (without a device sync).
    pub fn flush(&mut self) -> Result<(), OsError> {
        match &mut self.repr {
            Repr::Exclusive(x) => x.flush(),
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.flush(),
        }
    }

    /// Flush and issue a durability barrier on the device.
    pub fn sync(&mut self) -> Result<(), OsError> {
        match &mut self.repr {
            Repr::Exclusive(x) => {
                x.flush()?;
                x.device.sync()
            }
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.sync(),
        }
    }

    /// Drop `page` from the cache (without write-back); used by the pager
    /// when a page is freed.
    pub fn discard(&mut self, page: PageId) {
        match &mut self.repr {
            Repr::Exclusive(x) => {
                if let Mode::Cached(c) = &mut x.mode {
                    if let Some(idx) = c.map.remove(&page) {
                        c.frames[idx].page = None;
                        c.frames[idx].dirty = false;
                        c.policy.on_remove(idx);
                        c.free.push(idx);
                    }
                }
            }
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.discard(page),
        }
    }

    /// Is the page currently resident?
    pub fn contains(&self, page: PageId) -> bool {
        match &self.repr {
            Repr::Exclusive(x) => match &x.mode {
                Mode::Unbuffered { .. } => false,
                Mode::Cached(c) => c.map.contains_key(&page),
            },
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.contains(page),
        }
    }

    /// Number of frames currently allocated.
    pub fn frame_count(&self) -> usize {
        match &self.repr {
            Repr::Exclusive(x) => match &x.mode {
                Mode::Unbuffered { .. } => 0,
                Mode::Cached(c) => c.frames.len(),
            },
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.frame_count(),
        }
    }

    /// Pool counters.
    pub fn stats(&self) -> PoolStats {
        match &self.repr {
            Repr::Exclusive(x) => x.stats.snapshot(),
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.stats(),
        }
    }

    /// Device counters (I/O actually performed).
    pub fn device_stats(&self) -> DeviceStats {
        match &self.repr {
            Repr::Exclusive(x) => x.device.stats(),
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.device_stats(),
        }
    }

    /// Name of the replacement policy, or `"none"` in pass-through mode.
    pub fn policy_name(&self) -> &'static str {
        match &self.repr {
            Repr::Exclusive(x) => match &x.mode {
                Mode::Unbuffered { .. } => "none",
                Mode::Cached(c) => c.policy.name(),
            },
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.policy_name(),
        }
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        // Best-effort write-back; errors cannot be surfaced from drop.
        let _ = self.flush();
    }
}

#[cfg(all(test, feature = "lru"))]
mod tests {
    use super::*;
    use fame_os::InMemoryDevice;

    fn pool(frames: usize) -> BufferPool {
        let mut dev = InMemoryDevice::new(128);
        dev.ensure_pages(16).unwrap();
        BufferPool::new(
            Box::new(dev),
            ReplacementKind::Lru,
            AllocPolicy::Static { frames },
        )
    }

    #[test]
    fn read_your_writes() {
        let mut p = pool(4);
        p.with_page_mut(3, |b| b[0] = 42).unwrap();
        let v = p.with_page(3, |b| b[0]).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn hits_and_misses_counted() {
        let mut p = pool(4);
        p.with_page(0, |_| ()).unwrap();
        p.with_page(0, |_| ()).unwrap();
        p.with_page(1, |_| ()).unwrap();
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert!((s.hit_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let mut p = pool(2);
        p.with_page_mut(0, |b| b[0] = 10).unwrap();
        p.with_page_mut(1, |b| b[0] = 11).unwrap();
        // Touch two more pages: 0 and 1 get evicted.
        p.with_page(2, |_| ()).unwrap();
        p.with_page(3, |_| ()).unwrap();
        assert!(!p.contains(0));
        let s = p.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.writebacks, 2);
        // Data survived the round trip through the device.
        assert_eq!(p.with_page(0, |b| b[0]).unwrap(), 10);
        assert_eq!(p.with_page(1, |b| b[0]).unwrap(), 11);
    }

    #[test]
    fn lru_evicts_coldest_page() {
        let mut p = pool(2);
        p.with_page(0, |_| ()).unwrap();
        p.with_page(1, |_| ()).unwrap();
        p.with_page(0, |_| ()).unwrap(); // 1 is now coldest
        p.with_page(2, |_| ()).unwrap(); // evicts 1
        assert!(p.contains(0));
        assert!(!p.contains(1));
        assert!(p.contains(2));
    }

    #[test]
    fn static_pool_never_exceeds_arena() {
        let mut p = pool(3);
        for page in 0..10 {
            p.with_page(page, |_| ()).unwrap();
        }
        assert_eq!(p.frame_count(), 3);
    }

    #[test]
    fn dynamic_pool_grows_to_cap() {
        let mut dev = InMemoryDevice::new(128);
        dev.ensure_pages(16).unwrap();
        let mut p = BufferPool::new(
            Box::new(dev),
            ReplacementKind::Lru,
            AllocPolicy::Dynamic {
                max_frames: Some(5),
            },
        );
        assert_eq!(p.frame_count(), 0);
        for page in 0..10 {
            p.with_page(page, |_| ()).unwrap();
        }
        assert_eq!(p.frame_count(), 5);
    }

    #[test]
    fn flush_clears_dirt_once() {
        let mut p = pool(4);
        p.with_page_mut(0, |b| b[0] = 1).unwrap();
        p.flush().unwrap();
        p.flush().unwrap(); // second flush writes nothing
        assert_eq!(p.stats().writebacks, 1);
    }

    #[test]
    fn flush_writes_dirty_pages_in_page_order() {
        use std::sync::{Arc, Mutex};

        struct OrderRecorder {
            inner: InMemoryDevice,
            order: Arc<Mutex<Vec<PageId>>>,
        }
        impl fame_os::BlockDevice for OrderRecorder {
            fn page_size(&self) -> usize {
                self.inner.page_size()
            }
            fn num_pages(&self) -> u32 {
                self.inner.num_pages()
            }
            fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<(), OsError> {
                self.inner.read_page(page, buf)
            }
            fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<(), OsError> {
                self.order.lock().unwrap().push(page);
                self.inner.write_page(page, buf)
            }
            fn ensure_pages(&mut self, pages: u32) -> Result<(), OsError> {
                self.inner.ensure_pages(pages)
            }
            fn sync(&mut self) -> Result<(), OsError> {
                self.inner.sync()
            }
            fn stats(&self) -> fame_os::DeviceStats {
                self.inner.stats()
            }
        }

        let order = Arc::new(Mutex::new(Vec::new()));
        let mut dev = InMemoryDevice::new(128);
        dev.ensure_pages(16).unwrap();
        let mut p = BufferPool::new(
            Box::new(OrderRecorder {
                inner: dev,
                order: Arc::clone(&order),
            }),
            ReplacementKind::Lru,
            AllocPolicy::Static { frames: 8 },
        );
        // Dirty pages in shuffled order so frame order != page order.
        for page in [11u32, 2, 7, 0, 14, 5] {
            p.with_page_mut(page, |b| b[0] = page as u8).unwrap();
        }
        order.lock().unwrap().clear(); // ignore any loads/evictions so far
        p.flush().unwrap();
        let flushed = order.lock().unwrap().clone();
        assert_eq!(flushed, vec![0, 2, 5, 7, 11, 14], "one sequential pass");
    }

    #[test]
    fn sync_reaches_device() {
        let mut p = pool(2);
        p.with_page_mut(0, |b| b[0] = 9).unwrap();
        p.sync().unwrap();
        assert_eq!(p.device_stats().syncs, 1);
        assert_eq!(p.device_stats().writes, 1);
    }

    #[test]
    fn discard_drops_without_writeback() {
        let mut p = pool(2);
        p.with_page_mut(0, |b| b[0] = 7).unwrap();
        p.discard(0);
        assert!(!p.contains(0));
        p.flush().unwrap();
        assert_eq!(p.stats().writebacks, 0);
        // The write never reached the device.
        assert_eq!(p.with_page(0, |b| b[0]).unwrap(), 0);
    }

    #[test]
    fn unbuffered_mode_passes_through() {
        let mut dev = InMemoryDevice::new(128);
        dev.ensure_pages(4).unwrap();
        let mut p = BufferPool::unbuffered(Box::new(dev));
        p.with_page_mut(1, |b| b[0] = 5).unwrap();
        assert_eq!(p.with_page(1, |b| b[0]).unwrap(), 5);
        assert_eq!(p.frame_count(), 0);
        assert!(!p.contains(1));
        assert_eq!(p.policy_name(), "none");
        // Every access is a device I/O.
        assert_eq!(p.device_stats().reads, 2);
        assert_eq!(p.device_stats().writes, 1);
    }

    #[test]
    fn unbuffered_mutation_counts_one_access() {
        let mut dev = InMemoryDevice::new(128);
        dev.ensure_pages(4).unwrap();
        let mut p = BufferPool::unbuffered(Box::new(dev));
        p.with_page_mut(0, |b| b[0] = 1).unwrap();
        p.with_page(0, |_| ()).unwrap();
        // One miss per logical access, even though the mutation issued a
        // device read *and* a device write.
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (0, 2));
    }

    #[test]
    fn drop_flushes_dirty_frames() {
        let mut dev = InMemoryDevice::new(128);
        dev.ensure_pages(2).unwrap();
        // We can't reclaim the device after drop, so observe via a reopen
        // pattern: write through pool A, drop it, read through pool B
        // backed by the same file-like device. InMemoryDevice can't be
        // shared, so instead assert that flush happens by counting writes
        // before drop through stats() — covered by flush_clears_dirt_once —
        // and here simply ensure drop does not panic with dirty frames.
        let mut p = BufferPool::new(
            Box::new(dev),
            ReplacementKind::Lru,
            AllocPolicy::Static { frames: 2 },
        );
        p.with_page_mut(0, |b| b[0] = 1).unwrap();
        drop(p);
    }

    #[cfg(feature = "lfu")]
    #[test]
    fn lfu_pool_keeps_hot_page() {
        let mut dev = InMemoryDevice::new(128);
        dev.ensure_pages(16).unwrap();
        let mut p = BufferPool::new(
            Box::new(dev),
            ReplacementKind::Lfu,
            AllocPolicy::Static { frames: 2 },
        );
        for _ in 0..5 {
            p.with_page(0, |_| ()).unwrap(); // hot
        }
        p.with_page(1, |_| ()).unwrap();
        p.with_page(2, |_| ()).unwrap(); // evicts 1 (cold), not 0
        assert!(p.contains(0));
        assert!(!p.contains(1));
    }
}

//! A page hit in the exclusive pool allocates nothing: the LRU recency
//! list, the page table and the counters are all updated in place.
#![cfg(feature = "lru")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use fame_buffer::{BufferPool, ReplacementKind};
use fame_os::{AllocPolicy, BlockDevice, InMemoryDevice};

/// Counts heap allocations made by threads that opted in.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the bookkeeping around the
// calls touches only a thread-local flag and an atomic, never the heap.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn resident_page_hits_do_not_allocate() {
    const FRAMES: u32 = 64;
    let mut dev = InMemoryDevice::new(128);
    dev.ensure_pages(FRAMES).unwrap();
    let mut pool = BufferPool::new(
        Box::new(dev),
        ReplacementKind::Lru,
        AllocPolicy::Static {
            frames: FRAMES as usize,
        },
    );
    for page in 0..FRAMES {
        pool.with_page_mut(page, |b| b[0] = page as u8).unwrap();
    }
    let before = pool.stats();

    let mut sum = 0u64;
    let n = allocations(|| {
        for i in 0..100_000u32 {
            // Strided so most hits move a frame that is not at the head.
            let page = i.wrapping_mul(37) % FRAMES;
            sum += pool.with_page(page, |b| u64::from(b[0])).unwrap();
        }
    });

    assert_eq!(n, 0, "heap allocations during 100,000 page hits");
    let after = pool.stats();
    assert_eq!(after.hits - before.hits, 100_000);
    assert_eq!(after.misses, before.misses);
    assert_eq!(after.evictions, 0);
    assert!(sum > 0);
}

//! A relaxed atomic event counter.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonically increasing event counter.
///
/// All operations use `Relaxed` ordering: counters are statistics, not
/// synchronization. A reader concurrent with writers sees some recent
/// value — never a torn one (the load is a single atomic op) and never a
/// *decreasing* one when polling the same counter, because the underlying
/// value only grows.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one through an exclusive borrow: a plain add, no atomic
    /// read-modify-write. Readers through `&self` still see every bump.
    #[inline]
    pub fn bump(&mut self) {
        *self.0.get_mut() += 1;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clone for Counter {
    /// Cloning snapshots the current value into a fresh counter.
    fn clone(&self) -> Self {
        Counter(AtomicU64::new(self.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counts_and_reads() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn bump_adds_one_and_mixes_with_shared_adds() {
        let mut c = Counter::new();
        for _ in 0..1_000 {
            c.bump();
        }
        c.add(5);
        c.bump();
        c.inc();
        assert_eq!(c.get(), 1_007);
    }

    #[test]
    fn clone_snapshots_value() {
        let c = Counter::new();
        c.add(7);
        let d = c.clone();
        c.inc();
        assert_eq!(d.get(), 7);
        assert_eq!(c.get(), 8);
    }
}

//! Seeded input generation: keys, values and the value check.
//!
//! Every input of a run is a pure function of `--seed`, so two runs with
//! the same seed issue the same operations in the same order. Keys are
//! 4-byte big-endian `u32`s; values are 16 bytes that encode their own key
//! and version plus a seeded check word, so a reader can tell a correct
//! value from a stale, torn or foreign one without a lookup table.

/// Value length in bytes.
pub const VALUE_LEN: usize = 16;

/// SplitMix64 step: a bijective 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic pseudo-random stream (SplitMix64).
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams of the same seed
    /// by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; `n` > 0).
    pub fn below(&mut self, n: u32) -> u32 {
        ((u128::from(self.next_u64() as u32) * u128::from(n)) >> 32) as u32
    }
}

/// The key space of one run: record `i` has key `i * mul + add (mod 2^32)`
/// with `mul` odd, a bijection, so record keys are distinct and scattered
/// over the whole 4-byte space in a seed-dependent order.
#[derive(Clone, Copy)]
pub struct Keys {
    mul: u32,
    add: u32,
}

impl Keys {
    pub fn new(seed: u64) -> Keys {
        let r = mix(seed ^ 0x4B45_5953);
        Keys {
            mul: (r as u32) | 1,
            add: (r >> 32) as u32,
        }
    }

    /// Key of record `i`.
    pub fn key(&self, i: u32) -> u32 {
        i.wrapping_mul(self.mul).wrapping_add(self.add)
    }
}

/// Base of the ascending key run of an append workload: low enough that
/// `base + appended` never wraps for any run the benchmark can make.
pub fn append_base(seed: u64) -> u32 {
    (mix(seed ^ 0x4150_5044) as u32) >> 2
}

fn check_word(seed: u64, key: u32, version: u32) -> u64 {
    mix(seed ^ (u64::from(key) << 32 | u64::from(version)))
}

/// The value record `key` holds at `version` (0 = preloaded).
pub fn value(seed: u64, key: u32, version: u32) -> [u8; VALUE_LEN] {
    let mut v = [0u8; VALUE_LEN];
    v[..4].copy_from_slice(&key.to_be_bytes());
    v[4..8].copy_from_slice(&version.to_be_bytes());
    v[8..].copy_from_slice(&check_word(seed, key, version).to_be_bytes());
    v
}

/// The version `bytes` encodes for `key`, or `None` when the bytes are not
/// a value this run could have written for that key.
pub fn decode(seed: u64, key: u32, bytes: &[u8]) -> Option<u32> {
    if bytes.len() != VALUE_LEN || bytes[..4] != key.to_be_bytes() {
        return None;
    }
    let version = u32::from_be_bytes(bytes[4..8].try_into().ok()?);
    (bytes[8..] == check_word(seed, key, version).to_be_bytes()).then_some(version)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_distinct_and_seeded() {
        let k = Keys::new(7);
        let mut seen: Vec<u32> = (0..10_000).map(|i| k.key(i)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 10_000);
        assert_ne!(Keys::new(7).key(1), Keys::new(8).key(1));
    }

    #[test]
    fn values_round_trip_and_reject_foreign_bytes() {
        let v = value(3, 42, 9);
        assert_eq!(decode(3, 42, &v), Some(9));
        assert_eq!(decode(3, 43, &v), None);
        assert_eq!(decode(4, 42, &v), None);
        let mut torn = v;
        torn[15] ^= 1;
        assert_eq!(decode(3, 42, &torn), None);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(1, 2);
        assert!((0..1000).all(|_| r.below(17) < 17));
    }
}

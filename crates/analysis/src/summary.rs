//! Content hashing primitives.
//!
//! Every content key in the workspace — per-function diagnostic keys,
//! query content keys, persist keys, source digests — is built from these
//! two functions, so their output is pinned: changing either rewrites
//! every key on disk and every digest a test pins.

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Mixes a value into an existing hash (order-sensitive).
pub fn mix(hash: u64, value: u64) -> u64 {
    let mut h = hash ^ value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

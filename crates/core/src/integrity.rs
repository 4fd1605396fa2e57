//! One shared digest module — the integrity plane's primitives.
//!
//! Every plane that moves or stores bits verifies them with a digest from
//! this module, each over its own domain:
//!
//! * [`payload_digest`] — the in-flight domain: every native-fabric
//!   message carries a digest of its payload's [`Scalar::bit_pattern`]
//!   words, computed at send over the intact payload and verified at
//!   recv before the sequence cursor advances;
//! * [`grids_digest`] — the in-memory *and* on-disk domain:
//!   [`CheckpointStore`](crate::checkpoint::CheckpointStore) snapshots
//!   carry a digest of their full padded storage (halos included),
//!   verified before any rollback target or durable spill trusts them;
//!   [`copy_grids_digest`] takes the snapshot and its digest in one pass.
//!   A spill writes that same digest into the epoch file
//!   ([`crate::durable`]), and recovery re-derives it while it decodes,
//!   so one 64-bit fact covers a snapshot from deposit to restore;
//! * [`run_digest`] — the result domain: two runs digest equal iff their
//!   interior points are bitwise identical (the job service's parity
//!   check).
//!
//! The payload and snapshot digests run on one kernel: storage is cut
//! into chunks, each chunk's words are dealt across eight independent
//! FNV-1a lanes, and the chunk digests are chained.
//!
//! The FNV-1a step `h ← (h ⊕ w) · PRIME` is a bijection of the state for
//! any fixed word `w` (the prime is odd, so multiplication is invertible
//! mod 2⁶⁴), and for a fixed state it is a bijection of the word. Two
//! equal-length word streams differing in even a single bit therefore
//! *always* digest differently — single-bit flips are rejected exactly,
//! not probabilistically. That property is what lets the fault plane's
//! corruption tests sweep every bit position and assert detection, and
//! it is tested here the same way.

use gpaw_grid::grid3::Grid3;
use gpaw_grid::gridset::GridSet;
use gpaw_grid::scalar::Scalar;

/// The reflected IEEE 802.3 (zlib) polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the table-driven CRC.
const CRC_SLICE: usize = 16;

/// Slice-by-16 lookup tables: `CRC_TABLES[k][b]` is the CRC state after
/// byte `b` followed by `k` zero bytes, so sixteen input bytes fold into
/// the state with sixteen independent loads instead of 128 dependent
/// shift-and-mask steps.
static CRC_TABLES: [[u32; 256]; CRC_SLICE] = crc_tables();

const fn crc_tables() -> [[u32; 256]; CRC_SLICE] {
    let mut t = [[0u32; 256]; CRC_SLICE];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < CRC_SLICE {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, the zlib polynomial) of `bytes`, slice-by-16.
/// Kept because the benchmark package pins this name; no code in the
/// workspace checks anything with it.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(CRC_SLICE);
    for block in &mut blocks {
        let mut acc = 0u32;
        for (w, word) in block.chunks_exact(4).enumerate() {
            let mut v = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            if w == 0 {
                v ^= crc;
            }
            let top = CRC_SLICE - 1 - 4 * w;
            acc ^= t[top][(v & 0xFF) as usize]
                ^ t[top - 1][((v >> 8) & 0xFF) as usize]
                ^ t[top - 2][((v >> 16) & 0xFF) as usize]
                ^ t[top - 3][(v >> 24) as usize];
        }
        crc = acc;
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn mix(h: &mut u64, w: u64) {
    *h ^= w;
    *h = h.wrapping_mul(FNV_PRIME);
}

/// FNV-1a digest of a run's grids: every interior point's raw bit
/// pattern, walked in rank order, grid order, then row-major index
/// order, with the set and grid shapes folded in. Two runs digest equal
/// iff their results are bitwise identical.
pub fn run_digest<T: Scalar>(sets: &[GridSet<T>]) -> u64 {
    let mut h = FNV_OFFSET;
    mix(&mut h, sets.len() as u64);
    for set in sets {
        mix(&mut h, set.len() as u64);
        for g in 0..set.len() {
            for ([_, _, _], v) in set.grid(g).iter_interior() {
                let [a, b] = v.bit_pattern();
                mix(&mut h, a);
                mix(&mut h, b);
            }
        }
    }
    h
}

/// Digest of one message payload: its length, then the lane digest of
/// each storage chunk — the same kernel a snapshot's storage runs
/// through. Computed by the fabric at send over the intact payload;
/// verified at recv before the per-tag sequence cursor advances, so a
/// flipped bit is detected before it can influence any grid.
pub fn payload_digest<T: Scalar>(payload: &[T]) -> u64 {
    let mut h = FNV_OFFSET;
    mix_storage(&mut h, payload);
    h
}

/// FNV-1a chain of `words` from the offset basis — the fold the durable
/// format applies to its header fields and to a record's key and
/// snapshot digest.
pub(crate) fn words_digest(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for &w in words {
        mix(&mut h, w);
    }
    h
}

/// Independent FNV-1a lanes a chunk's storage words are dealt across.
/// One FNV stream is a chain of dependent multiplies (one word per
/// multiply latency, 5.6 GB/s here); eight lanes keep the multiplier's
/// pipeline full (18 GB/s), which is what lets a deposit digest at
/// close to copy speed.
const LANES: usize = 8;

/// Elements digested (and, in [`fill_grids_digest`], filled) per step:
/// small enough that the digest reads the chunk from L1 right after the
/// fill wrote it.
const CHUNK_ELEMS: usize = 1024;

/// Lane-parallel digest of one storage chunk: word `i` goes to lane
/// `i mod LANES`, each lane an FNV-1a chain from the offset basis, the
/// lanes folded by one more chain at the end. Every step is a bijection
/// of its lane for a fixed word, and the fold is injective in each lane
/// for fixed others, so the single-bit-flip guarantee of the module docs
/// carries over unchanged. Self-contained per chunk — lanes that start
/// from constants inside the loop's own function are what keeps the
/// compiler on scalar multiplies (its SSE2 emulation of a 64-bit
/// multiply is a third slower).
fn chunk_digest<T: Scalar>(chunk: &[T]) -> u64 {
    let words = T::BYTES / 8;
    let mut lanes = [FNV_OFFSET; LANES];
    let mut rounds = chunk.chunks_exact(LANES / words);
    for round in &mut rounds {
        absorb_round(&mut lanes, round);
    }
    absorb_round(&mut lanes, rounds.remainder());
    let mut h = FNV_OFFSET;
    for lane in lanes {
        mix(&mut h, lane);
    }
    h
}

/// Deal one round's words (at most [`LANES`] of them) across the lanes.
#[inline(always)]
fn absorb_round<T: Scalar>(lanes: &mut [u64; LANES], round: &[T]) {
    let words = T::BYTES / 8;
    for (v, pair) in round.iter().zip(lanes.chunks_exact_mut(words)) {
        let pattern = v.bit_pattern();
        for (lane, &word) in pair.iter_mut().zip(&pattern) {
            mix(lane, word);
        }
    }
}

/// Digest of one checkpoint snapshot: per grid the shape, halo and the
/// *full padded storage* (halos included — exactly the words a restore
/// copies back), after the grid count. This is what
/// [`CheckpointStore`](crate::checkpoint::CheckpointStore) records at
/// deposit and re-derives before trusting a snapshot at rollback or
/// durable spill, and what an epoch file carries to disk.
pub fn grids_digest<T: Scalar>(grids: &[Grid3<T>]) -> u64 {
    let mut h = FNV_OFFSET;
    mix(&mut h, grids.len() as u64);
    for g in grids {
        mix_shape(&mut h, g);
        mix_storage(&mut h, g.data());
    }
    h
}

/// Copy `src`'s storage into the same-shaped grids of `dst` and return
/// `grids_digest(src)`, touching memory once: each chunk is digested
/// while the copy still has it in cache. This is the deposit path —
/// snapshot and witness in one pass.
///
/// # Panics
/// Panics when `dst` and `src` differ in grid count or grid shape.
pub fn copy_grids_digest<T: Scalar>(dst: &mut [Grid3<T>], src: &[Grid3<T>]) -> u64 {
    assert_eq!(
        dst.len(),
        src.len(),
        "snapshot buffer has the wrong grid count"
    );
    for (d, s) in dst.iter().zip(src) {
        assert!(
            d.n() == s.n() && d.halo() == s.halo(),
            "snapshot buffer has the wrong grid shape"
        );
    }
    fill_grids_digest(dst, |g, at, chunk| {
        chunk.copy_from_slice(&src[g].data()[at..at + chunk.len()]);
    })
}

/// [`grids_digest`] of `grids` after `fill(grid, offset, chunk)` has
/// written each storage chunk in place, one chunk at a time: every chunk
/// is digested while the fill still has it in cache. The deposit copy and
/// the durable decode are both this one pass.
pub(crate) fn fill_grids_digest<T: Scalar>(
    grids: &mut [Grid3<T>],
    mut fill: impl FnMut(usize, usize, &mut [T]),
) -> u64 {
    let mut h = FNV_OFFSET;
    mix(&mut h, grids.len() as u64);
    for (gi, g) in grids.iter_mut().enumerate() {
        mix_shape(&mut h, g);
        let data = g.data_mut();
        mix(&mut h, data.len() as u64);
        for (c, chunk) in data.chunks_mut(CHUNK_ELEMS).enumerate() {
            fill(gi, c * CHUNK_ELEMS, chunk);
            mix(&mut h, chunk_digest(chunk));
        }
    }
    h
}

/// Fold a grid's extents and halo into `h`.
fn mix_shape<T: Scalar>(h: &mut u64, g: &Grid3<T>) {
    let [n0, n1, n2] = g.n();
    for d in [n0, n1, n2, g.halo()] {
        mix(h, d as u64);
    }
}

/// Fold `data`'s length, then each chunk's lane digest, into `h`.
fn mix_storage<T: Scalar>(h: &mut u64, data: &[T]) {
    mix(h, data.len() as u64);
    for chunk in data.chunks(CHUNK_ELEMS) {
        mix(h, chunk_digest(chunk));
    }
}

/// Flip exactly one bit of `payload`, selected by `raw` modulo the
/// payload's occupied bit count. This is the corruption the fault
/// plane's `CorruptPayload` injector applies — a pure function of its
/// seeded draw, so the same injection reproduces the same flipped bit.
/// Empty payloads are left untouched (there is nothing to corrupt).
pub fn flip_bit<T: Scalar>(payload: &mut [T], raw: u64) {
    let words = (T::BYTES / 8) as u64;
    let total_bits = payload.len() as u64 * words * 64;
    if total_bits == 0 {
        return;
    }
    let b = raw % total_bits;
    let elem = (b / (words * 64)) as usize;
    let word = ((b / 64) % words) as usize;
    let mut pattern = payload[elem].bit_pattern();
    pattern[word] ^= 1u64 << (b % 64);
    payload[elem] = T::from_bit_pattern(pattern);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpaw_grid::scalar::C64;

    /// Deterministic pseudo-random payload, no `rand` dependency.
    fn seeded_payload(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                f64::from_bits((state >> 12) | 0x3FF0_0000_0000_0000) - 1.0
            })
            .collect()
    }

    /// The bit-at-a-time definition the table form replaced — kept as
    /// the oracle every table-driven result is compared against.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_equals_the_bitwise_oracle_at_every_short_length() {
        let bytes = seeded_bytes(7, 64);
        for len in 0..=64 {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_bitwise(&bytes[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn crc32_equals_the_bitwise_oracle_at_every_alignment() {
        // Seeded lengths up to 64 KiB, each started at every offset 0..8
        // into the buffer so the 16-byte blocks straddle every alignment.
        let bytes = seeded_bytes(11, (64 << 10) + 8);
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for round in 0..6 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let len = (state >> 33) as usize % ((64 << 10) + 1);
            for start in 0..8 {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "round {round}: length {len} at alignment {start}"
                );
            }
        }
    }

    #[test]
    fn payload_digest_accepts_every_valid_payload() {
        for seed in 0..32u64 {
            let p = seeded_payload(seed, 1 + (seed as usize % 7));
            assert_eq!(payload_digest(&p), payload_digest(&p.clone()));
        }
    }

    #[test]
    fn flip_bit_wraps_and_ignores_empty() {
        let mut empty: Vec<f64> = Vec::new();
        flip_bit(&mut empty, 17); // must not panic
        let mut p = seeded_payload(1, 2);
        let q = p.clone();
        flip_bit(&mut p, 128); // wraps to bit 0
        assert_ne!(p[0].to_bits(), q[0].to_bits());
        assert_eq!(p[1].to_bits(), q[1].to_bits());
    }

    #[test]
    fn grids_digest_sees_every_stored_word() {
        let mut g = Grid3::<f64>::zeros([3, 3, 3], 1);
        for (i, v) in g.data_mut().iter_mut().enumerate() {
            *v = i as f64 * 0.25 - 3.0;
        }
        let grids = vec![g];
        let digest = grids_digest(&grids);
        // Flip one bit of a *halo* word: still detected, because the
        // digest covers the full padded storage a restore copies back.
        let mut tampered = grids.clone();
        let d = tampered[0].data_mut();
        let w = d[0].to_bits() ^ 1;
        d[0] = f64::from_bits(w);
        assert_ne!(grids_digest(&tampered), digest);
        // Shape is folded in: same words, different halo digests apart.
        let other = vec![Grid3::<f64>::zeros([3, 3, 3], 2)];
        let same = vec![Grid3::<f64>::zeros([3, 3, 3], 2)];
        assert_eq!(grids_digest(&other), grids_digest(&same));
        assert_ne!(grids_digest(&other), grids_digest(&grids));
    }

    /// The core single-bit-flip property of the one chunk kernel: every
    /// bit of every word changes the digest — payloads of both scalar
    /// widths (one of them past a chunk boundary) and grid storage,
    /// halos included, with lengths that leave a short last round — and
    /// flipping it back restores it. Detection is exact, not
    /// probabilistic.
    #[test]
    fn every_digest_rejects_any_single_bit_flip() {
        fn sweep<T: Scalar>(what: &str, clean: &[T], digest: impl Fn(&[T]) -> u64) {
            let want = digest(clean);
            let mut bad = clean.to_vec();
            for bit in 0..clean.len() as u64 * T::BYTES as u64 * 8 {
                flip_bit(&mut bad, bit);
                assert_ne!(
                    digest(&bad),
                    want,
                    "{what}: flipping bit {bit} went undetected"
                );
                flip_bit(&mut bad, bit);
            }
            assert_eq!(digest(&bad), want, "{what}: flips did not undo");
        }
        let values = seeded_payload(5, CHUNK_ELEMS + 5);
        sweep("payload", &values[..5], payload_digest);
        sweep("payload across chunks", &values, payload_digest);
        let complex: Vec<C64> = values[..8]
            .chunks(2)
            .map(|c| C64::new(c[0], c[1]))
            .collect();
        sweep("C64 payload", &complex, payload_digest);

        let mut a = Grid3::<f64>::zeros([1, 1, 3], 1); // 45 words: 45 % 4 == 1
        a.data_mut().copy_from_slice(&values[..45]);
        let mut b = Grid3::<f64>::zeros([2, 1, 1], 1); // 36 words
        b.data_mut().copy_from_slice(&values[45..81]);
        let grids = vec![a, b];
        for gi in 0..grids.len() {
            sweep(&format!("grid {gi}"), grids[gi].data(), |data| {
                let mut g = grids.clone();
                g[gi].data_mut().copy_from_slice(data);
                grids_digest(&g)
            });
        }
        let mut c = Grid3::<C64>::zeros([1, 1, 1], 1); // 27 points, 54 words
        for (v, pair) in c.data_mut().iter_mut().zip(values.chunks(2)) {
            *v = C64::new(pair[0], pair[1]);
        }
        sweep("C64 grid", c.data(), |data| {
            let mut g = vec![c.clone()];
            g[0].data_mut().copy_from_slice(data);
            grids_digest(&g)
        });
    }

    #[test]
    fn copy_grids_digest_copies_bitwise_and_digests_like_grids_digest() {
        // Larger than one chunk, and not a whole number of chunks.
        let mut big = Grid3::<f64>::zeros([20, 11, 9], 2);
        let n = big.data().len();
        assert!(n > CHUNK_ELEMS && !n.is_multiple_of(CHUNK_ELEMS));
        big.data_mut().copy_from_slice(&seeded_payload(9, n));
        big.data_mut()[17] = f64::NAN;
        big.data_mut()[18] = -0.0;
        let mut small = Grid3::<f64>::zeros([2, 3, 1], 1);
        let m = small.data().len();
        small.data_mut().copy_from_slice(&seeded_payload(10, m));
        let src = vec![big, small];
        let mut dst = vec![
            Grid3::<f64>::zeros([20, 11, 9], 2),
            Grid3::<f64>::zeros([2, 3, 1], 1),
        ];
        assert_eq!(copy_grids_digest(&mut dst, &src), grids_digest(&src));
        assert_eq!(grids_digest(&dst), grids_digest(&src));
        for (d, s) in dst.iter().zip(&src) {
            assert!(d
                .data()
                .iter()
                .zip(s.data())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}

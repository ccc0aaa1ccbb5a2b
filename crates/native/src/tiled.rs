//! Structured (BMMC) plans on a real CPU, executed as **one tiled
//! sweep**.
//!
//! The three-sweep form ([`crate::scheduled`]) is optimal for an
//! *arbitrary* permutation. A plan that carries affine descriptors
//! realises an affine bit map, and for those a single pass can be tiled
//! so that both its reads and its writes cover whole contiguous runs
//! (Bouverot-Dupuis & Sheeran, "Efficient GPU Implementation of Affine
//! Index Permutations on Arrays", PAPERS.md).
//!
//! Let `s(y) = S·y ⊕ c` be the plan's source map (`dst[y] = src[s(y)]`,
//! [`hmm_plan::PlanIr::source_bmmc`]) and `A = S⁻¹` the forward linear
//! part. A *run* is `2^t` consecutive elements, with `t` chosen so a run
//! is 256 bytes ([`run_bits`]). The output-side tile subspace is
//!
//! ```text
//! U = span(e_0..e_{t-1}, A·e_0..A·e_{t-1})   (padded with low output bits to 2t dims)
//! ```
//!
//! A *tile* is a coset `y0 ⊕ U`. `U` contains the low `t` output bits, so
//! a tile's outputs are `2^d` aligned runs (`d = dim U − t`); `S·U`
//! contains the low `t` input bits (`S·A·e_k = e_k`), so its inputs are
//! `2^d` aligned runs too. Per tile the kernel
//!
//! 1. copies the `2^d` input runs into the thread-local staging arena
//!    ([`crate::stage`]), then
//! 2. writes each output run in ascending order, gathering from the
//!    arena at a fixed per-plan lane table XORed with the run's arena
//!    offset and the tile's low source bits — one table serves every
//!    run of every tile because the whole map is affine.
//!
//! Memory traffic is one read and one write of the array, each in
//! 256-byte runs, against the three reads, three writes and (on the
//! map-load path) three index streams of the three-sweep form. The
//! arena holds at most `2^{2t}` elements (16 KiB for u32), so it stays
//! in L1; the per-plan tables are `O(2^t)` words.
//!
//! Tiles are distributed over the worker pool in contiguous ranges of
//! the coset enumeration. The cosets partition `0..n`, so every output
//! element is written exactly once, by one worker, through the one
//! shared output pointer ([`TileTarget`]).

use crate::par::par_ranges;
use crate::simd::{self, Tier};
use crate::stage;
use core::mem::size_of;
use hmm_perm::Bmmc;
use std::sync::OnceLock;

/// Bytes in one contiguous run a tile reads or writes: four whole
/// 64-byte cache lines (two adjacent-line prefetch pairs), while a tile
/// of `2^t` runs still fits L1.
const RUN_BYTES: usize = 256;

/// Largest run exponent: one-byte elements (`log2 RUN_BYTES`).
const MAX_RUN_BITS: usize = RUN_BYTES.ilog2() as usize;

/// Minimum elements per worker task; below this the pool dispatch costs
/// more than the work.
const MIN_TASK: usize = 1 << 14;

/// log₂ of the run length for `elem_bytes`-byte elements: as many
/// elements as fill [`RUN_BYTES`] (6 for u32, 5 for u64, 4 for 16-byte
/// elements), capped at `bits = log₂ n` so a run never exceeds the
/// array.
pub(crate) fn run_bits(elem_bytes: usize, bits: u32) -> u32 {
    (RUN_BYTES / elem_bytes.max(1)).max(1).ilog2().min(bits)
}

/// A structured plan's one-sweep form: its source map, plus the tile
/// tables for each run length, built on first use at that element width
/// (`O(2^t + log² n)` work and words, independent of `n`).
#[derive(Debug, Clone)]
pub(crate) struct TiledPlan {
    source: Bmmc,
    tilings: [OnceLock<Tiling>; MAX_RUN_BITS + 1],
}

impl TiledPlan {
    /// The one-sweep form of the plan with source map `source`.
    pub(crate) fn new(source: Bmmc) -> Self {
        TiledPlan {
            source,
            tilings: Default::default(),
        }
    }

    /// Execute `dst[y] = src[s(y)]` in one tiled sweep. `tier` is the
    /// gather tier the output runs are written with.
    ///
    /// # Panics
    /// Panics if `src` or `dst` does not hold exactly `2^bits` elements.
    pub(crate) fn run<T: Copy + Send + Sync>(&self, src: &[T], dst: &mut [T], tier: Tier) {
        let n = self.source.len();
        assert_eq!(src.len(), n, "src length mismatch");
        assert_eq!(dst.len(), n, "dst length mismatch");
        let t = run_bits(size_of::<T>(), self.source.bits());
        self.tilings[t as usize]
            .get_or_init(|| Tiling::new(&self.source, t))
            .run(src, dst, tier);
    }
}

/// The tile tables of one plan at one run length (see module docs).
#[derive(Debug, Clone)]
struct Tiling {
    /// log₂ of the run length.
    t: u32,
    /// Output and source images of the coset-enumeration bits: tile `k`
    /// starts at output `fold(tile_out, k)` and reads around source
    /// `fold(tile_src, k) ⊕ c`.
    tile_out: Vec<usize>,
    tile_src: Vec<usize>,
    /// The source map's offset `c`.
    src_offset: usize,
    /// Input run starts relative to the tile's first source run; run `ρ`
    /// is staged at arena offset `ρ · 2^t`.
    in_runs: Vec<usize>,
    /// Per output run, in ascending address order: its start relative to
    /// the tile's first output, and the arena offset XORed into
    /// [`lanes`](Self::lanes) to address its elements.
    out_runs: Vec<(usize, u32)>,
    /// `lanes[l]`: the arena slot feeding lane `l` of the tile's first
    /// output run, before the XOR with the tile's low source bits.
    lanes: Vec<u32>,
}

impl Tiling {
    fn new(source: &Bmmc, t: u32) -> Self {
        let bits = source.bits();
        let forward = source.inverse();
        let low = (1usize << t) - 1;

        // U in reduced echelon form; the low bits are pivots 0..t.
        let mut out_basis = Echelon::default();
        for k in 0..t {
            out_basis.insert(1 << k);
        }
        for k in 0..t {
            out_basis.insert(forward.col(k));
        }
        // Pad small tiles with the lowest output bits outside U, so the
        // per-tile overhead is amortised over 2^{2t} elements.
        for j in t..bits {
            if out_basis.dim() >= 2 * t as usize {
                break;
            }
            out_basis.insert(1 << j);
        }
        let d = out_basis.dim() - t as usize;
        debug_assert!(out_basis.vecs[..t as usize]
            .iter()
            .enumerate()
            .all(|(k, &v)| v == 1 << k));
        let out_high = &out_basis.vecs[t as usize..];

        // The free bits (non-pivots) index the cosets: every output
        // splits uniquely into a free-bit part and a member of U.
        let free: Vec<u32> = (t..bits).filter(|&j| !out_basis.is_pivot(j)).collect();
        let tile_out = free.iter().map(|&j| 1usize << j).collect();
        let tile_src = free.iter().map(|&j| source.col(j)).collect();

        // S·U = (low t input bits) ⊕ span(in_basis).
        let mut in_basis = Echelon::default();
        for &v in &out_basis.vecs {
            in_basis.insert(source.apply_linear(v) & !low);
        }
        debug_assert_eq!(in_basis.dim(), d, "S·U has the dimension of U");

        // Arena slot of input offset `v ∈ S·U`: its run coordinate over
        // `in_basis`, then its low bits. The slot of output offset `u ∈ U`
        // is `slot(S·u)`, linear in `u`, so it splits into a lane part
        // (the low bits of `u`) and a run part (its `out_high`
        // coordinates) that combine by XOR — one lane table serves every
        // run of every tile.
        let slot = |v: usize| (in_basis.coords(v & !low) << t | (v & low)) as u32;
        let image = |v: usize| slot(source.apply_linear(v));
        let lane_cols: Vec<u32> = (0..t).map(|k| image(1 << k)).collect();
        let run_cols: Vec<u32> = out_high.iter().map(|&v| image(v)).collect();
        let mut out_runs: Vec<(usize, u32)> = gray_fold(out_high, 1 << d)
            .into_iter()
            .zip(gray_fold(&run_cols, 1 << d))
            .collect();
        out_runs.sort_unstable_by_key(|&(start, _)| start);
        Tiling {
            t,
            tile_out,
            tile_src,
            src_offset: source.offset(),
            in_runs: gray_fold(&in_basis.vecs, 1 << d),
            out_runs,
            lanes: gray_fold(&lane_cols, 1 << t),
        }
    }

    fn run<T: Copy + Send + Sync>(&self, src: &[T], dst: &mut [T], tier: Tier) {
        let target = TileTarget {
            base: dst.as_mut_ptr(),
            len: dst.len(),
        };
        self.sweep(src, |start, staged, lanes, xor| {
            // SAFETY: `sweep` names each output run exactly once (see
            // `TileTarget`), so no other live slice overlaps this one.
            #[allow(unsafe_code)]
            let out = unsafe { target.run(start, lanes.len()) };
            simd::gather_row(tier, staged, lanes, xor, out);
        });
    }

    /// The tile walk: for every tile, stage its input runs, then call
    /// `write(start, arena, lanes, xor)` once per output run in ascending
    /// order — the run `start..start + 2^t` must receive
    /// `arena[lanes[l] ^ xor]` at lane `l`. Tiles run in parallel.
    fn sweep<T, W>(&self, src: &[T], write: W)
    where
        T: Copy + Send + Sync,
        W: Fn(usize, &[T], &[u32], u32) + Sync,
    {
        let run = 1usize << self.t;
        let low = run - 1;
        let tile = self.in_runs.len() << self.t;
        let min_tiles = (MIN_TASK / tile).max(1);
        par_ranges(1 << self.tile_out.len(), min_tiles, |first, last| {
            stage::with_stage(tile, src[0], |arena| {
                for k in first..last {
                    let y0 = fold(&self.tile_out, k);
                    let sy = self.src_offset ^ fold(&self.tile_src, k);
                    let (hi, lo) = (sy & !low, (sy & low) as u32);
                    for (staged, &r) in arena.chunks_exact_mut(run).zip(&self.in_runs) {
                        let start = hi ^ r;
                        staged.copy_from_slice(&src[start..start + run]);
                    }
                    for &(r, x) in &self.out_runs {
                        write(y0 ^ r, arena, &self.lanes, x ^ lo);
                    }
                }
            });
        });
    }
}

/// The output array, shared by the tile workers.
///
/// # Safety contract
/// Every run handed out must be disjoint from every other run alive at
/// the same time. The only constructor is [`Tiling::run`], whose tile
/// walk ([`Tiling::sweep`]) names each output run exactly once: the
/// tiles are the cosets of `U`, which partition `0..n`; each tile index
/// is claimed by exactly one `par_ranges` range; and within a tile the
/// runs are distinct cosets of the low-bit subspace. `dst` is borrowed
/// mutably for the whole sweep, so nothing else reads or writes it
/// meanwhile.
struct TileTarget<T> {
    base: *mut T,
    len: usize,
}

// SAFETY: `base` is only dereferenced through `run`, whose callers hand
// each thread disjoint runs (the contract above), so sharing the pointer
// moves `T` values between threads but never aliases one: `T: Send`
// suffices. `len` is immutable.
unsafe impl<T: Send> Sync for TileTarget<T> {}

impl<T> TileTarget<T> {
    /// The output run `start..start + len` (bounds-checked).
    ///
    /// # Safety
    /// No other slice of the run may be alive at the same time.
    #[allow(clippy::mut_from_ref)]
    unsafe fn run(&self, start: usize, len: usize) -> &mut [T] {
        assert!(start + len <= self.len, "output run out of bounds");
        // SAFETY: in bounds (asserted); exclusive per the caller.
        unsafe { core::slice::from_raw_parts_mut(self.base.add(start), len) }
    }
}

/// A GF(2) subspace basis in reduced echelon form: each vector has a
/// pivot bit (its lowest set bit) that is clear in every other vector.
#[derive(Default)]
struct Echelon {
    vecs: Vec<usize>,
}

impl Echelon {
    fn dim(&self) -> usize {
        self.vecs.len()
    }

    fn is_pivot(&self, bit: u32) -> bool {
        self.vecs.iter().any(|&v| v.trailing_zeros() == bit)
    }

    /// Add `v` to the span (a no-op when it is already inside).
    fn insert(&mut self, mut v: usize) {
        for &b in &self.vecs {
            if v >> b.trailing_zeros() & 1 == 1 {
                v ^= b;
            }
        }
        if v == 0 {
            return;
        }
        let pivot = v.trailing_zeros();
        for b in &mut self.vecs {
            if *b >> pivot & 1 == 1 {
                *b ^= v;
            }
        }
        self.vecs.push(v);
    }

    /// Coordinates of `v` (which must lie in the span) over the basis:
    /// bit `i` is `v`'s pivot bit of vector `i`.
    fn coords(&self, v: usize) -> usize {
        self.vecs
            .iter()
            .enumerate()
            .map(|(i, &b)| (v >> b.trailing_zeros() & 1) << i)
            .fold(0, |acc, c| acc | c)
    }
}

/// XOR of `vecs[b]` over the set bits `b` of `k`.
#[inline]
fn fold(vecs: &[usize], mut k: usize) -> usize {
    let mut v = 0;
    while k != 0 {
        v ^= vecs[k.trailing_zeros() as usize];
        k &= k - 1;
    }
    v
}

/// `[fold(vecs, i) for i in 0..len]` by a Gray-style walk: each step XORs
/// the vectors of the bits that changed.
fn gray_fold<V: Copy + Default + core::ops::BitXorAssign>(vecs: &[V], len: usize) -> Vec<V> {
    let mut out = Vec::with_capacity(len);
    let mut acc = V::default();
    for i in 0..len {
        if i > 0 {
            let mut changed = (i - 1) ^ i;
            while changed != 0 {
                acc ^= vecs[changed.trailing_zeros() as usize];
                changed &= changed - 1;
            }
        }
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_perm::families;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// Run the sweep over `src` at every tier and compare with the map.
    fn check<T>(source: &Bmmc, make: impl Fn(usize) -> T)
    where
        T: Copy + Send + Sync + PartialEq + std::fmt::Debug,
    {
        let src: Vec<T> = (0..source.len()).map(make).collect();
        let want: Vec<T> = (0..source.len()).map(|y| src[source.apply(y)]).collect();
        let plan = TiledPlan::new(source.clone());
        for simd_on in [false, true] {
            let mut dst = src.clone();
            plan.run(&src, &mut dst, simd::select::<T>(simd_on));
            assert!(dst == want, "bits={} simd={simd_on}", source.bits());
        }
    }

    #[test]
    fn run_bits_give_256_byte_runs() {
        assert_eq!(run_bits(4, 22), 6);
        assert_eq!(run_bits(8, 22), 5);
        assert_eq!(run_bits(16, 22), 4);
        assert_eq!(run_bits(12, 22), 4);
        assert_eq!(run_bits(1, 22), 8);
        assert_eq!(run_bits(1024, 22), 0);
        assert_eq!(run_bits(4, 3), 3, "capped at log2 n");
    }

    #[test]
    fn tiles_reproduce_the_affine_map_at_every_width() {
        for bits in [0, 1, 3, 6, 9, 12, 15] {
            let n = 1usize << bits;
            for seed in 0..3 {
                let m = families::random_bmmc_matrix(n, seed).unwrap();
                check(&m, |i| i as u32 ^ 0xa5a5);
                check(&m, |i| (i as u64) << 32 | i as u64);
                check(&m, |i| (i as u128 * 0x0123_4567_89ab_cdef).to_le_bytes());
                let linear = Bmmc::from_cols((0..bits).map(|b| m.col(b)).collect(), 0).unwrap();
                check(&linear, |i| i as u32);
            }
        }
    }

    #[test]
    fn tables_stay_within_two_run_lengths() {
        let n = 1 << 16;
        for seed in 0..4 {
            let m = families::random_bmmc_matrix(n, seed).unwrap();
            for t in [4, 5, 6] {
                let tiling = Tiling::new(&m, t);
                assert_eq!(tiling.lanes.len(), 1 << t);
                assert_eq!(tiling.in_runs.len(), 1 << t, "padded to 2t dims");
                assert_eq!(tiling.out_runs.len(), 1 << t);
                assert!(tiling.out_runs.windows(2).all(|w| w[0].0 < w[1].0));
            }
        }
    }

    /// Every output index is written exactly once, under the global
    /// pool, for linear and offset maps at every tested width: the
    /// sweep's own tile walk, with each output run's writes counted
    /// instead of stored.
    #[test]
    fn every_output_is_written_exactly_once() {
        fn count<T: Copy + Send + Sync + Default>(m: &Bmmc) {
            let n = m.len();
            let tiling = Tiling::new(m, run_bits(size_of::<T>(), m.bits()));
            let hits: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
            tiling.sweep(&vec![T::default(); n], |start, _, lanes, _| {
                for h in &hits[start..start + lanes.len()] {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            });
            let once = hits.iter().filter(|h| h.load(Ordering::Relaxed) == 1);
            assert_eq!(once.count(), n, "{}-byte elements", size_of::<T>());
        }
        let n = 1 << 16;
        let offset = families::random_bmmc_matrix(n, 5).unwrap();
        assert!(!offset.is_linear());
        let linear = families::bit_reversal(n).unwrap().as_bmmc().unwrap();
        assert!(linear.is_linear());
        for m in [&offset, &linear] {
            count::<u32>(m);
            count::<u64>(m);
            count::<[u8; 16]>(m);
        }
    }
}

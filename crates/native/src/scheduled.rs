//! The scheduled permutation on a real CPU, executed as **three fused
//! memory sweeps** — the path of every König-colored plan, and of
//! structured plans when [`KernelConfig::computed_index`] is off (the
//! map-load reference). Structured plans otherwise run as one tiled
//! sweep (`crate::tiled`); [`NativeScheduled`] holds both forms and the
//! config picks one per run.
//!
//! The GPU implementation (and the simulator) run five passes: row gather,
//! transpose, row gather, transpose, row gather. On the CPU the transposes
//! are pure data movement, so each one is fused into the row gather that
//! precedes it: a single *gather-transpose* sweep reads each input row in
//! the gather order and writes the result transposed. That turns
//!
//! ```text
//! row(g1); transpose; row(g2); transpose; row(g3)     (5 sweeps, 2 scratch)
//! ```
//!
//! into
//!
//! ```text
//! gather_transpose(g1); gather_transpose(g2); row(g3) (3 sweeps, 1 scratch)
//! ```
//!
//! Every sweep still writes memory sequentially (within a blocked tile),
//! and reads stay within one matrix row at a time — a row of a √n-sided
//! matrix fits in L1/L2 — so cache-line and TLB behaviour remains the CPU
//! analog of coalesced access.
//!
//! # The two-stage, double-buffered block pipeline
//!
//! Each gather-transpose worker processes its output band in *input-row
//! blocks* through per-thread staging buffers (`crate::stage` — pooled
//! for the life of the worker, replacing the seed's per-band
//! `to_vec()` copy-allocation):
//!
//! ```text
//!           ┌── gather block k+1 ──► staging buffer B ──┐
//! input ────┤                                           ├──► output band
//!           └── staging buffer A ──► transpose block k ─┘
//! ```
//!
//! 1. **Gather stage**: block *k+1*'s rows are gathered into the idle
//!    staging buffer (reads stay inside one contiguous row — L1-resident
//!    for √n-sided shapes — and buffer writes are sequential), while the
//!    next block's slice of the gather map is software-prefetched;
//! 2. **Transpose stage**: block *k* is transposed out of the other
//!    buffer into the output band (buffer reads hit L2; output writes are
//!    contiguous runs).
//!
//! Issuing block *k+1*'s cache-missing gathers *before* block *k*'s
//! transpose stores gives the out-of-order core a full block of
//! independent work to overlap the misses with. With
//! [`KernelConfig::depth`] `= 1` the pipeline degenerates to the seed's
//! strict gather-then-transpose alternation over a single buffer — a
//! config point the differential suite pins against the default.
//!
//! Determinism and parallel safety are unchanged from the seed: workers
//! own **disjoint output bands** (whole output rows), every output
//! element is written exactly once, and which buffer a value stages
//! through cannot affect the value written — so every config point
//! (SIMD on/off, any depth, any block size) produces byte-identical
//! output.
//!
//! The inner loops are vectorized per [`KernelConfig::simd`]: clamped,
//! unrolled width-specialized paths by default and `core::arch` AVX2
//! gathers/tile-transposes behind runtime detection, with the scalar
//! loops kept as the always-available reference (`crate::simd` — the
//! only module that touches `core::arch`). The unfused five-step form
//! lives in `hmm-backend`'s `interp` backend, which executes it literally
//! and is the oracle these sweeps are tested against
//! (`tests/backend_interp.rs`).

use crate::config::KernelConfig;
use crate::par::{par_chunks_mut, par_chunks_mut_exact, worker_threads};
use crate::simd::{self, Tier};
use crate::stage;
use crate::tiled::TiledPlan;
use core::mem::size_of;
use hmm_perm::{MatrixShape, Permutation};
use hmm_plan::{PassLayout, PlanIr, Result};
use std::time::{Duration, Instant};

/// A CPU-executable scheduled permutation: the three-step decomposition
/// with per-row *gather* maps (destination-ordered) precomputed, plus
/// the kernel tuning the sweeps run with.
#[derive(Debug, Clone)]
pub struct NativeScheduled {
    shape: MatrixShape,
    /// Per-pass geometry, derived from the plan (`PlanIr::pass_layouts`).
    layouts: [PassLayout; 3],
    /// Sweep 1 gather map, flattened `r × c`: row `i` of the intermediate
    /// is `in[i][g1[i*c + k]]` for `k` in `0..c`.
    g1: Vec<u32>,
    /// Sweep 2 gather map on the transposed matrix, flattened `c × r`.
    g2: Vec<u32>,
    /// Sweep 3 gather map, flattened `r × c`.
    g3: Vec<u32>,
    /// The one-sweep form of a structured plan (`crate::tiled`),
    /// present exactly when the plan carries affine descriptors. With
    /// [`KernelConfig::computed_index`] set, runs take it instead of the
    /// three sweeps — the maps are still kept (the map-load config point
    /// executes them), so the flag alone decides the kernel at run time.
    tiled: Option<TiledPlan>,
    /// Kernel tuning (block size, staging depth, SIMD, prefetch).
    config: KernelConfig,
}

impl NativeScheduled {
    /// Build from a permutation; `width` is the tiling constraint handed to
    /// the decomposition (any power of two dividing both matrix dimensions
    /// — 32 matches the GPU schedule and is always safe here). Kernels run
    /// with the process-wide [`KernelConfig::global`].
    pub fn build(p: &Permutation, width: usize) -> Result<Self> {
        let ir = PlanIr::build_par(p, width, worker_threads())?;
        Self::from_plan(&ir)
    }

    /// Build from an existing plan IR (shared with a simulator run, or
    /// loaded from the on-disk plan store) with the process-wide
    /// [`KernelConfig::global`]. The IR already carries the flat gather
    /// maps, so this is a validation pass plus three copies — no
    /// coloring, no per-row inversion.
    pub fn from_plan(ir: &PlanIr) -> Result<Self> {
        Self::from_plan_with(ir, KernelConfig::global())
    }

    /// Build from an existing plan IR with an explicit kernel config —
    /// the seam the engines ([`crate::plan::SharedEngine`]), the bench's
    /// SIMD on/off rows, and the differential suite thread their configs
    /// through.
    ///
    /// The plan contract is checked here (`PlanIr::validate`): the SIMD
    /// gather tiers *clamp* indices instead of bounds-checking them
    /// (`crate::simd`), so a corrupted plan that got past the codec and
    /// store front doors would otherwise mis-gather silently. A violated
    /// contract is a typed [`PlanError::Invalid`](hmm_plan::PlanError)
    /// error, never wrong output.
    pub fn from_plan_with(ir: &PlanIr, config: KernelConfig) -> Result<Self> {
        ir.validate()?;
        Ok(NativeScheduled {
            shape: ir.shape(),
            layouts: ir.pass_layouts(),
            g1: ir.gather1().to_vec(),
            g2: ir.gather2().to_vec(),
            g3: ir.gather3().to_vec(),
            tiled: ir.source_bmmc().map(TiledPlan::new),
            config,
        })
    }

    /// True when runs take the one tiled sweep, with indices computed
    /// from the plan's affine map instead of loaded from the three
    /// gather maps: the plan carries verified affine descriptors *and*
    /// the config has [`KernelConfig::computed_index`] enabled.
    pub fn computed_index(&self) -> bool {
        self.tiled().is_some()
    }

    /// The one-sweep kernel, when this run takes it.
    fn tiled(&self) -> Option<&TiledPlan> {
        self.tiled.as_ref().filter(|_| self.config.computed_index)
    }

    /// This schedule with a different kernel config.
    pub fn with_config(mut self, config: KernelConfig) -> Self {
        self.config = config;
        self
    }

    /// The kernel config the sweeps run with.
    pub fn kernel_config(&self) -> KernelConfig {
        self.config
    }

    /// The matrix shape of the passes.
    pub fn shape(&self) -> MatrixShape {
        self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// True for a zero-element schedule (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Required scratch length for [`run_with_scratch`](Self::run_with_scratch)
    /// (the three-sweep path's intermediate; the one tiled sweep leaves it
    /// untouched).
    pub fn scratch_len(&self) -> usize {
        self.len()
    }

    /// Execute `dst[P[i]] = src[i]`, allocating one scratch buffer.
    ///
    /// # Panics
    /// Panics if `src` or `dst` length differs from the schedule's `n`.
    pub fn run<T: Copy + Send + Sync + Default>(&self, src: &[T], dst: &mut [T]) {
        let mut scratch = vec![T::default(); self.scratch_len()];
        self.run_with_scratch(src, dst, &mut scratch);
    }

    /// Execute with a caller-provided scratch buffer of length `n`,
    /// allocation-free after worker warm-up: one tiled sweep `src → dst`
    /// for structured plans under [`computed_index`](Self::computed_index),
    /// otherwise three fused sweeps, `src → dst → scratch → dst`.
    pub fn run_with_scratch<T: Copy + Send + Sync>(
        &self,
        src: &[T],
        dst: &mut [T],
        scratch: &mut [T],
    ) {
        self.run_sweeps_timed(src, dst, scratch);
    }

    /// [`run_with_scratch`](Self::run_with_scratch), timing each sweep:
    /// `[gather-transpose 1, gather-transpose 2, row pass]` on the
    /// three-sweep path, `[tiled sweep, 0, 0]` on the one-sweep path. The
    /// output is identical; the bench's per-sweep rows come from here.
    pub fn run_sweeps_timed<T: Copy + Send + Sync>(
        &self,
        src: &[T],
        dst: &mut [T],
        scratch: &mut [T],
    ) -> [Duration; 3] {
        self.check_lengths(src, dst, scratch);
        let tier = simd::select::<T>(self.config.simd);
        let t0 = Instant::now();
        if let Some(tiled) = self.tiled() {
            tiled.run(src, dst, tier);
            return [t0.elapsed(), Duration::ZERO, Duration::ZERO];
        }
        // Sweep 1: row gather (g1) fused with transpose; r×c -> c×r in dst.
        gather_transpose(src, &self.g1, self.layouts[0], dst, &self.config);
        let t1 = Instant::now();
        // Sweep 2: row gather (g2) fused with transpose; c×r -> r×c.
        gather_transpose(dst, &self.g2, self.layouts[1], scratch, &self.config);
        let t2 = Instant::now();
        // Sweep 3: plain row gather (g3) on the r×c matrix.
        row_pass(scratch, &self.g3, self.layouts[2], dst, &self.config);
        [t1 - t0, t2 - t1, t2.elapsed()]
    }

    fn check_lengths<T>(&self, src: &[T], dst: &[T], scratch: &[T]) {
        let n = self.len();
        assert_eq!(src.len(), n, "src length mismatch");
        assert_eq!(dst.len(), n, "dst length mismatch");
        assert_eq!(scratch.len(), n, "scratch length mismatch");
    }
}

/// Row-local gather: `out[row][k] = in[row][g[row*cols + k]]`, parallel
/// over bands of rows.
///
/// Band chunks are always whole rows (the band length is a multiple of
/// `cols`), so the row base is hoisted out of the inner loop — the seed
/// computed `pos % cols` per element. The inner gather runs the
/// config-selected kernel tier, and the next row's slice of the gather
/// map is prefetched while the current row is gathered.
fn row_pass<T: Copy + Send + Sync>(
    input: &[T],
    g: &[u32],
    layout: PassLayout,
    out: &mut [T],
    cfg: &KernelConfig,
) {
    debug_assert_eq!(input.len(), out.len());
    debug_assert_eq!(g.len(), out.len());
    debug_assert!(!layout.fused_transpose);
    let cols = layout.cols;
    let rows = out.len() / cols;
    debug_assert_eq!(rows, layout.rows);
    let tier = simd::select::<T>(cfg.simd);
    let band = rows_per_band(rows) * cols;
    par_chunks_mut(out, band, |start, chunk| {
        debug_assert_eq!(start % cols, 0);
        debug_assert_eq!(chunk.len() % cols, 0);
        for (rr, out_row) in chunk.chunks_exact_mut(cols).enumerate() {
            let base = start + rr * cols;
            if cfg.prefetch {
                if let Some(next_map) = g.get(base + cols..base + 2 * cols) {
                    simd::prefetch_lines(next_map);
                }
            }
            simd::gather_row(
                tier,
                &input[base..base + cols],
                &g[base..base + cols],
                0,
                out_row,
            );
        }
    });
}

/// Fused row-gather + transpose: for a `rows × cols` input,
/// `out[j*rows + i] = input[i*cols + g[i*cols + j]]` — i.e. apply the
/// per-row gather `g` and store the result transposed (`cols × rows`), in
/// one sweep over memory, through the double-buffered block pipeline
/// described in the module docs.
///
/// The input and the gather map are streamed from memory exactly once and
/// the output is written exactly once; the staging buffers
/// (≤ `cfg.stage_bytes` each) never leave the cache.
fn gather_transpose<T: Copy + Send + Sync>(
    input: &[T],
    g: &[u32],
    layout: PassLayout,
    out: &mut [T],
    cfg: &KernelConfig,
) {
    let (rows, cols) = (layout.rows, layout.cols);
    debug_assert!(layout.fused_transpose);
    debug_assert_eq!(input.len(), rows * cols);
    debug_assert_eq!(out.len(), rows * cols);
    debug_assert_eq!(g.len(), rows * cols);
    if input.is_empty() {
        return;
    }
    let tile = cfg.tile.max(8);
    let tier = simd::select::<T>(cfg.simd);
    // Each worker owns a band of output rows that is a multiple of the
    // tile (or the ragged tail), so tile boundaries never straddle two
    // workers.
    let band_rows = rows_per_band(cols).next_multiple_of(tile);
    let seed = input[0];
    par_chunks_mut_exact(out, band_rows * rows, |start, chunk| {
        let out_row0 = start / rows;
        let out_rows = chunk.len() / rows;
        // Input rows staged per block: block × out_rows elements, sized
        // by the plan's layout hint against the staging budget.
        let block = layout.staging_rows(size_of::<T>(), cfg.stage_bytes, out_rows);
        let buf_len = block * out_rows;
        // A single block needs no second buffer regardless of depth.
        let depth = if block >= rows {
            1
        } else {
            cfg.depth.clamp(1, 2)
        };
        stage::with_stage(buf_len * depth, seed, |stage_buf| {
            if depth == 2 {
                // Double-buffered: gather block k+1 into the idle buffer
                // *before* transposing block k out of the other, so the
                // core overlaps the next block's gather misses with this
                // block's transpose stores.
                gather_block(GatherArgs {
                    input,
                    g,
                    rows,
                    cols,
                    out_row0,
                    out_rows,
                    i0: 0,
                    imax: block.min(rows),
                    tier,
                    prefetch: cfg.prefetch,
                    temp: &mut stage_buf[..buf_len],
                });
                let mut parity = 0usize;
                let mut i0 = 0;
                while i0 < rows {
                    let imax = (i0 + block).min(rows);
                    let (a, b) = stage_buf.split_at_mut(buf_len);
                    let (cur, next) = if parity == 0 { (a, b) } else { (b, a) };
                    if imax < rows {
                        let nmax = (imax + block).min(rows);
                        gather_block(GatherArgs {
                            input,
                            g,
                            rows,
                            cols,
                            out_row0,
                            out_rows,
                            i0: imax,
                            imax: nmax,
                            tier,
                            prefetch: cfg.prefetch,
                            temp: &mut next[..(nmax - imax) * out_rows],
                        });
                    }
                    transpose_block(
                        &cur[..(imax - i0) * out_rows],
                        out_rows,
                        i0,
                        rows,
                        tile,
                        tier,
                        chunk,
                    );
                    parity ^= 1;
                    i0 = imax;
                }
            } else {
                // Single buffer: the seed's strict alternation.
                let mut i0 = 0;
                while i0 < rows {
                    let imax = (i0 + block).min(rows);
                    let blk = imax - i0;
                    gather_block(GatherArgs {
                        input,
                        g,
                        rows,
                        cols,
                        out_row0,
                        out_rows,
                        i0,
                        imax,
                        tier,
                        prefetch: cfg.prefetch,
                        temp: &mut stage_buf[..blk * out_rows],
                    });
                    transpose_block(
                        &stage_buf[..blk * out_rows],
                        out_rows,
                        i0,
                        rows,
                        tile,
                        tier,
                        chunk,
                    );
                    i0 = imax;
                }
            }
        });
    });
}

/// Arguments for one gather stage: rows `i0..imax` of the band into the
/// staging buffer (a struct, because nine positional parameters invite
/// transposition bugs).
struct GatherArgs<'a, T> {
    input: &'a [T],
    g: &'a [u32],
    rows: usize,
    cols: usize,
    out_row0: usize,
    out_rows: usize,
    i0: usize,
    imax: usize,
    tier: Tier,
    prefetch: bool,
    temp: &'a mut [T],
}

/// Gather stage: stage rows `i0..imax` (this worker's `out_rows`-wide
/// slice of each) into `temp`, row-major. While row `i` is gathered the
/// same row of the *next* block's gather-map slice is prefetched — the
/// map is the one stream the hardware prefetcher cannot anticipate
/// across the block-strided access pattern.
fn gather_block<T: Copy>(args: GatherArgs<'_, T>) {
    let GatherArgs {
        input,
        g,
        rows,
        cols,
        out_row0,
        out_rows,
        i0,
        imax,
        tier,
        prefetch,
        temp,
    } = args;
    debug_assert_eq!(temp.len(), (imax - i0) * out_rows);
    let block = imax - i0;
    for i in i0..imax {
        if prefetch {
            let pi = i + block;
            if pi < rows {
                simd::prefetch_lines(&g[pi * cols + out_row0..pi * cols + out_row0 + out_rows]);
            }
        }
        let in_row = &input[i * cols..(i + 1) * cols];
        let g_row = &g[i * cols + out_row0..i * cols + out_row0 + out_rows];
        let t_row = &mut temp[(i - i0) * out_rows..(i - i0 + 1) * out_rows];
        simd::gather_row(tier, in_row, g_row, 0, t_row);
    }
}

/// Transpose stage: `blk × out_rows` staging buffer `temp` out into the
/// band's columns `i0..i0+blk` — vector tiles when the tier has them,
/// the seed's tile loop otherwise.
fn transpose_block<T: Copy>(
    temp: &[T],
    out_rows: usize,
    i0: usize,
    rows: usize,
    tile: usize,
    tier: Tier,
    chunk: &mut [T],
) {
    let blk = temp.len() / out_rows.max(1);
    if simd::transpose_strided(tier, temp, 0, out_rows, chunk, i0, rows, blk, out_rows) {
        return;
    }
    let mut jj0 = 0;
    while jj0 < out_rows {
        let jjmax = (jj0 + tile).min(out_rows);
        for jj in jj0..jjmax {
            let run = &mut chunk[jj * rows + i0..jj * rows + i0 + blk];
            for (k, slot) in run.iter_mut().enumerate() {
                *slot = temp[k * out_rows + jj];
            }
        }
        jj0 = jjmax;
    }
}

/// Rows per parallel band: enough rows that each worker gets a contiguous,
/// reasonably large piece.
fn rows_per_band(rows: usize) -> usize {
    rows.div_ceil(worker_threads()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_perm::families;

    const W: usize = 32;

    fn reference(p: &Permutation, src: &[u32]) -> Vec<u32> {
        let mut out = vec![0; src.len()];
        p.permute(src, &mut out).unwrap();
        out
    }

    fn fused_layout(rows: usize, cols: usize) -> PassLayout {
        PassLayout {
            rows,
            cols,
            fused_transpose: true,
        }
    }

    #[test]
    fn correct_for_all_families() {
        let n = 1 << 12;
        let src: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(2654435761)).collect();
        for fam in families::Family::ALL {
            let p = fam.build(n, 71).unwrap();
            let sched = NativeScheduled::build(&p, W).unwrap();
            let mut dst = vec![0u32; n];
            sched.run(&src, &mut dst);
            assert_eq!(dst, reference(&p, &src), "{}", fam.name());
        }
    }

    #[test]
    fn correct_for_rectangular_sizes() {
        for n in [1 << 11, 1 << 13] {
            let p = families::random(n, 72);
            let src: Vec<u32> = (0..n as u32).collect();
            let sched = NativeScheduled::build(&p, W).unwrap();
            let mut dst = vec![0u32; n];
            sched.run(&src, &mut dst);
            assert_eq!(dst, reference(&p, &src), "n = {n}");
        }
    }

    #[test]
    fn agrees_with_scatter_backend() {
        let n = 1 << 14;
        let p = families::random(n, 73);
        let src: Vec<u32> = (0..n as u32).collect();
        let sched = NativeScheduled::build(&p, W).unwrap();
        let mut via_sched = vec![0u32; n];
        sched.run(&src, &mut via_sched);
        let mut via_scatter = vec![0u32; n];
        crate::scatter::scatter_permute(&src, &p, &mut via_scatter);
        assert_eq!(via_sched, via_scatter);
    }

    #[test]
    fn run_with_scratch_reuses_buffers() {
        let n = 1 << 12;
        let p = families::bit_reversal(n).unwrap();
        let sched = NativeScheduled::build(&p, W).unwrap();
        let src: Vec<u64> = (0..n as u64).collect();
        let mut dst = vec![0u64; n];
        let mut scratch = vec![0u64; sched.scratch_len()];
        for _ in 0..3 {
            sched.run_with_scratch(&src, &mut dst, &mut scratch);
        }
        assert_eq!(dst, reference_u64(&p, &src));
    }

    fn reference_u64(p: &Permutation, src: &[u64]) -> Vec<u64> {
        let mut out = vec![0; src.len()];
        p.permute(src, &mut out).unwrap();
        out
    }

    #[test]
    fn from_plan_matches_direct_build() {
        let n = 1 << 10;
        let p = families::random(n, 6);
        let ir = PlanIr::build(&p, W).unwrap();
        let via_plan = NativeScheduled::from_plan(&ir).unwrap();
        let src: Vec<u32> = (0..n as u32).collect();
        let mut a = vec![0u32; n];
        let mut b = vec![0u32; n];
        via_plan.run(&src, &mut a);
        NativeScheduled::build(&p, W).unwrap().run(&src, &mut b);
        assert_eq!(a, b);
        assert_eq!(a, reference(&p, &src));
    }

    #[test]
    fn every_config_point_is_byte_identical() {
        let n = 1 << 12;
        let p = families::random(n, 77);
        let ir = PlanIr::build(&p, W).unwrap();
        let src: Vec<u32> = (0..n as u32).map(|v| v ^ 0x5a5a).collect();
        let want = reference(&p, &src);
        let configs = [
            KernelConfig::scalar(),
            KernelConfig::default(),
            KernelConfig {
                depth: 1,
                ..Default::default()
            },
            KernelConfig {
                stage_bytes: 4096, // many block tails
                tile: 8,
                ..Default::default()
            },
            KernelConfig {
                simd: false,
                depth: 2,
                prefetch: true,
                ..Default::default()
            },
        ];
        for cfg in configs {
            let sched = NativeScheduled::from_plan_with(&ir, cfg).unwrap();
            assert_eq!(sched.kernel_config(), cfg);
            let mut dst = vec![0u32; n];
            sched.run(&src, &mut dst);
            assert_eq!(dst, want, "{cfg:?}");
        }
    }

    #[test]
    fn computed_index_is_byte_identical_across_configs_and_widths() {
        // The full computed-index differential: for every structured
        // family that carries descriptors, the one tiled sweep (every
        // tier; the staging knobs of the three-sweep path must not
        // matter) must reproduce the map-loaded scalar reference byte
        // for byte, at u32 and u64.
        let n = 1 << 13;
        let src32: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(2654435761)).collect();
        let src64: Vec<u64> = (0..n as u64).map(|v| v << 32 | v ^ 0xabcd).collect();
        let configs = [
            KernelConfig::default(),
            KernelConfig {
                simd: false,
                ..KernelConfig::default()
            },
            KernelConfig {
                depth: 1,
                stage_bytes: 4096,
                tile: 8,
                ..KernelConfig::default()
            },
        ];
        for fam in families::Family::ALL {
            let p = fam.build(n, 13).unwrap();
            let ir = PlanIr::build(&p, W).unwrap();
            let reference = NativeScheduled::from_plan_with(&ir, KernelConfig::scalar()).unwrap();
            assert!(!reference.computed_index(), "scalar forces map loads");
            let mut want32 = vec![0u32; n];
            reference.run(&src32, &mut want32);
            let mut want64 = vec![0u64; n];
            reference.run(&src64, &mut want64);
            for cfg in configs {
                let sched = NativeScheduled::from_plan_with(&ir, cfg).unwrap();
                assert_eq!(sched.computed_index(), ir.affine().is_some());
                let mut got32 = vec![0u32; n];
                sched.run(&src32, &mut got32);
                assert_eq!(got32, want32, "{} {cfg:?}", fam.name());
                let mut got64 = vec![0u64; n];
                sched.run(&src64, &mut got64);
                assert_eq!(got64, want64, "{} {cfg:?}", fam.name());
            }
        }
    }

    #[test]
    fn computed_index_flag_is_config_driven() {
        let p = families::bit_reversal(1 << 10).unwrap();
        let ir = PlanIr::build(&p, W).unwrap();
        assert!(ir.affine().is_some());
        let on = NativeScheduled::from_plan_with(&ir, KernelConfig::default()).unwrap();
        assert!(on.computed_index());
        let off = on.clone().with_config(KernelConfig {
            computed_index: false,
            ..KernelConfig::default()
        });
        assert!(!off.computed_index());
        // Random plans have no descriptors: the flag alone is not enough.
        let pr = families::random(1 << 10, 3);
        let irr = PlanIr::build(&pr, W).unwrap();
        let sched = NativeScheduled::from_plan_with(&irr, KernelConfig::default()).unwrap();
        assert!(!sched.computed_index());
    }

    #[test]
    fn computed_index_handles_ragged_worker_bands() {
        // Rectangular shape (r != c): the tiled sweep ignores the
        // staging budget, so every budget gives the same bytes.
        let n = 1 << 11;
        let p = families::shuffle(n).unwrap();
        let ir = PlanIr::build(&p, W).unwrap();
        let src: Vec<u32> = (0..n as u32).collect();
        let want = reference(&p, &src);
        for stage_bytes in [1 << 9, 1 << 12, 1 << 18] {
            let cfg = KernelConfig {
                stage_bytes,
                ..KernelConfig::default()
            };
            let sched = NativeScheduled::from_plan_with(&ir, cfg).unwrap();
            let mut dst = vec![0u32; n];
            sched.run(&src, &mut dst);
            assert_eq!(dst, want, "stage_bytes={stage_bytes}");
        }
    }

    #[test]
    fn run_sweeps_timed_matches_run() {
        let n = 1 << 12;
        let p = families::random(n, 78);
        let sched = NativeScheduled::build(&p, W).unwrap();
        let src: Vec<u32> = (0..n as u32).collect();
        let mut dst = vec![0u32; n];
        let mut scratch = vec![0u32; n];
        let sweeps = sched.run_sweeps_timed(&src, &mut dst, &mut scratch);
        assert_eq!(dst, reference(&p, &src));
        assert!(sweeps.iter().all(|d| *d > Duration::ZERO));
    }

    #[test]
    fn gather_transpose_with_identity_gather_is_transpose() {
        for cfg in [KernelConfig::scalar(), KernelConfig::default()] {
            for (r, c) in [(64, 64), (64, 128), (192, 320)] {
                let input: Vec<u32> = (0..(r * c) as u32).collect();
                let identity: Vec<u32> = (0..r).flat_map(|_| 0..c as u32).collect();
                let mut fused = vec![0u32; r * c];
                gather_transpose(&input, &identity, fused_layout(r, c), &mut fused, &cfg);
                let mut plain = vec![0u32; r * c];
                for i in 0..r {
                    for j in 0..c {
                        plain[j * r + i] = input[i * c + j];
                    }
                }
                assert_eq!(fused, plain, "r={r} c={c} {cfg:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn size_mismatch_panics() {
        let p = families::random(1 << 10, 1);
        let sched = NativeScheduled::build(&p, W).unwrap();
        let src = vec![0u32; 1 << 10];
        let mut dst = vec![0u32; 512];
        sched.run(&src, &mut dst);
    }

    #[test]
    fn accessors() {
        let p = families::random(1 << 10, 2);
        let sched = NativeScheduled::build(&p, W).unwrap();
        assert_eq!(sched.len(), 1 << 10);
        assert!(!sched.is_empty());
        assert_eq!(sched.shape().len(), 1 << 10);
        assert_eq!(sched.scratch_len(), 1 << 10);
        let cfg = sched.kernel_config();
        let scalar = sched.clone().with_config(KernelConfig::scalar());
        assert_eq!(scalar.kernel_config(), KernelConfig::scalar());
        assert_eq!(cfg.tile, KernelConfig::global().tile);
    }
}

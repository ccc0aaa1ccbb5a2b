//! The backend-neutral plan IR: the offline decomposition of one
//! permutation as a first-class, reusable artifact.
//!
//! The paper's premise is that schedule construction is *offline*: the
//! expensive part of the scheduled permutation — edge-coloring the
//! `c`-regular bipartite transfer multigraph so the three passes are
//! conflict-free — is paid once and the result reused for every
//! application of the permutation. [`PlanIr`] is that result, decoupled
//! from any executor:
//!
//! * the matrix shape `r × c` and the machine width `w` the plan was
//!   built for;
//! * the three **pass permutations** (flat destination maps): step 1
//!   routes each element to the column named by its edge color, step 2
//!   to its destination row, step 3 to its destination column (the
//!   Figure 6 argument);
//! * the derived flat **gather maps** (per-row inverses) that map-loading
//!   sweep executors consume;
//! * the distribution `γ_w(P)` (the scatter/scheduled crossover input)
//!   and the permutation's 64-bit fingerprint (the cache identity).
//!
//! A plan holds its passes in one of two forms. A König-colored plan
//! holds the six flat maps. A structured (BMMC) plan holds only three
//! [`AffineStep`] descriptors, O(log² n) words, and derives the maps from
//! them on first request. Building, decoding, validating and fusing a
//! structured plan therefore never touches an `n`-length array.
//!
//! The simulator (`hmm-offperm`) stages the pass permutations into its
//! row/column schedules. The CPU backend (`hmm-native`) runs a structured
//! plan as one tiled sweep over [`PlanIr::source_bmmc`] and copies the
//! gather maps only for the three map-loading sweeps (König plans, or
//! `computed_index` off). The codec (`crate::codec`) serialises either
//! form for the cross-process store (`crate::store`). None of them
//! re-runs the coloring.

use crate::affine::AffineStep;
use crate::error::{PlanError, Result};
use hmm_graph::{edge_color_par, edge_color_with, Parallelism, RegularBipartite, Strategy};
use hmm_perm::distribution::{affine_distribution, distribution};
use hmm_perm::{scheduled_shape, Bmmc, MatrixShape, Permutation};
use std::sync::OnceLock;

/// A built, backend-neutral permutation plan (see the module docs).
///
/// Plans compare by logical content: shape, width, γ, fingerprint and
/// descriptors, and the maps wherever both sides hold them (always, for
/// König-colored plans). A structured plan equals its own clone whether
/// or not either has materialized its maps.
#[derive(Debug, Clone)]
pub struct PlanIr {
    shape: MatrixShape,
    width: usize,
    /// Distribution γ_w(P) at `width`.
    gamma: f64,
    /// `Permutation::fingerprint()` of the source permutation.
    fingerprint: u64,
    /// Closed-form descriptors of the three gather maps, present exactly
    /// when the plan came out of the BMMC emitter. They are the whole
    /// plan: its maps are derived from them, so computed-index executors
    /// are byte-equivalent to map-loading ones by construction. `None`
    /// for König-colored plans (their gathers are not affine).
    affine: Option<[AffineStep; 3]>,
    /// The six flat maps: set at construction for König-colored plans,
    /// materialized from `affine` on first request otherwise.
    maps: OnceLock<PassMaps>,
}

/// The flat step and gather maps of a plan.
#[derive(Debug, Clone, PartialEq)]
struct PassMaps {
    /// Step 1 destination maps, flattened `r × c`: entry `i·c + j` is the
    /// color (column) element `(i, j)` moves to. Each row is a permutation
    /// of `0..c`.
    step1: Vec<u32>,
    /// Step 2 destination maps, flattened `c × r`: entry `k·r + i` is the
    /// destination row of the color-`k` element in row `i`. Each row is a
    /// permutation of `0..r`.
    step2: Vec<u32>,
    /// Step 3 destination maps, flattened `r × c`: entry `i'·c + k` is the
    /// destination column of the color-`k` element now in row `i'`. Each
    /// row is a permutation of `0..c`.
    step3: Vec<u32>,
    /// Gather map for pass 1 (`r × c`): per-row inverse of `step1`.
    g1: Vec<u32>,
    /// Gather map for pass 2 (`c × r`): per-row inverse of `step2`.
    g2: Vec<u32>,
    /// Gather map for pass 3 (`r × c`): per-row inverse of `step3`.
    g3: Vec<u32>,
}

impl PassMaps {
    /// Complete three step maps with their per-row inverses.
    fn from_steps(shape: MatrixShape, step1: Vec<u32>, step2: Vec<u32>, step3: Vec<u32>) -> Self {
        let (r, c) = (shape.rows, shape.cols);
        PassMaps {
            g1: invert_rows(&step1, c),
            g2: invert_rows(&step2, r),
            g3: invert_rows(&step3, c),
            step1,
            step2,
            step3,
        }
    }

    /// The map half of the plan contract: all six arrays sized to the
    /// shape, every row a permutation of its row, and every gather map
    /// the exact per-row inverse of its step.
    fn check(&self, shape: MatrixShape) -> std::result::Result<(), String> {
        let (r, c) = (shape.rows, shape.cols);
        let n = shape.len();
        let arrays: [(&str, &[u32], usize); 6] = [
            ("step1", &self.step1, c),
            ("step2", &self.step2, r),
            ("step3", &self.step3, c),
            ("gather1", &self.g1, c),
            ("gather2", &self.g2, r),
            ("gather3", &self.g3, c),
        ];
        for (name, flat, cols) in arrays {
            if flat.len() != n {
                return Err(format!(
                    "{name} has {} entries, shape needs {n}",
                    flat.len()
                ));
            }
            if !rows_are_permutations(flat, cols) {
                return Err(format!("{name} rows are not permutations of 0..{cols}"));
            }
        }
        for (name, step, gather, cols) in [
            ("gather1", &self.step1, &self.g1, c),
            ("gather2", &self.step2, &self.g2, r),
            ("gather3", &self.step3, &self.g3, c),
        ] {
            for (row_idx, row) in step.chunks_exact(cols).enumerate() {
                let base = row_idx * cols;
                for (j, &d) in row.iter().enumerate() {
                    if gather[base + d as usize] as usize != j {
                        return Err(format!(
                            "{name} is not the row inverse of its step at row {row_idx}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl PartialEq for PlanIr {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape
            && self.width == other.width
            && self.gamma == other.gamma
            && self.fingerprint == other.fingerprint
            && self.affine == other.affine
            && match (self.maps.get(), other.maps.get()) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

impl PlanIr {
    /// Build the plan for `p` on a width-`width` machine. Consults the
    /// BMMC recognizer first: structured permutations (transpose,
    /// bit-reversal, shuffle/omega, hypercube, ...) get their three pass
    /// descriptors emitted in closed form — pure GF(2) algebra, no
    /// transfer multigraph, no König coloring, no `n`-length map — so
    /// the recognizer's O(n) check is the whole cold build. Everything
    /// else falls back to the general coloring pipeline with the default
    /// strategy. Use [`PlanIr::build_with`] to force the general pipeline.
    pub fn build(p: &Permutation, width: usize) -> Result<Self> {
        if let Some(plan) = Self::build_structured(p, width) {
            return plan;
        }
        Self::build_with(p, width, Strategy::Hybrid)
    }

    /// [`PlanIr::build`] with an explicit coloring strategy.
    pub fn build_with(p: &Permutation, width: usize, strategy: Strategy) -> Result<Self> {
        let shape = scheduled_shape(p.len(), width)?;
        Self::build_for_shape(p, shape, width, strategy)
    }

    /// The parallel plan compiler: [`PlanIr::build`] fanned out over a
    /// scoped-thread budget of `threads`. Every stage of the König
    /// pipeline parallelises — the coloring forks its split tree (and
    /// colors connected components of the transfer graph independently),
    /// and the step fills, row inversions, and γ_w measurement chunk over
    /// rows. The result is **byte-identical** to the sequential builder
    /// at any thread count: the budget relocates work, it never reorders
    /// the deterministic partitions (pinned by `tests/parallel.rs` and
    /// the `hmm-graph` determinism suite). `threads <= 1` *is* the
    /// sequential builder.
    /// Like [`PlanIr::build`], the recognizer runs first: structured
    /// permutations take the closed-form path and skip the coloring.
    pub fn build_par(p: &Permutation, width: usize, threads: usize) -> Result<Self> {
        if let Some(plan) = Self::build_structured(p, width) {
            return plan;
        }
        let shape = scheduled_shape(p.len(), width)?;
        Self::build_for_shape_par(p, shape, width, Strategy::Hybrid, threads)
    }

    /// The structured fast path alone: `Some(plan)` when `p` is a BMMC
    /// (affine bit-matrix) permutation, `None` otherwise. The plan's
    /// three pass descriptors are emitted in closed form from the bit
    /// matrix — see [`PlanIr::build_bmmc`] for the construction — so no
    /// transfer multigraph or König coloring is ever built. Exposed so
    /// engines can count structured builds separately from colorings.
    pub fn build_structured(p: &Permutation, width: usize) -> Option<Result<Self>> {
        let bmmc = p.as_bmmc()?;
        Some(Self::build_bmmc(p, &bmmc, width))
    }

    /// [`PlanIr::build_structured`] for callers that thread a budget
    /// through: after the recognizer's O(n) check the closed form has no
    /// O(n) work left to fan out, so `threads` is unused.
    pub fn build_structured_par(
        p: &Permutation,
        width: usize,
        _threads: usize,
    ) -> Option<Result<Self>> {
        Self::build_structured(p, width)
    }

    /// Emit the closed-form plan of a recognized BMMC permutation
    /// (`bmmc` must realise `p`; pass the recognizer's output). O(log² n)
    /// after `p`'s fingerprint, which [`Permutation`] caches.
    ///
    /// Split each index into `ρ = log r` row bits and `γ = log c` column
    /// bits, partitioning the bit matrix `M` into blocks `[A B; C D]`
    /// (`A`: row→row, `B`: col→row). Element `(i, j)` is colored
    /// `k = G·i ⊕ j`, where the γ×ρ mixer `G` is completed greedily so
    /// that `A ⊕ B·G` is invertible — such a `G` always exists because
    /// `[A B]` has full row rank (`M` is invertible). Then for a fixed
    /// color `k`, the destination row of row `i`'s color-`k` element is
    /// `(A ⊕ B·G)·i ⊕ B·k ⊕ b_hi`: affine in `i` with invertible linear
    /// part, i.e. each step-2 row is a permutation — exactly the
    /// conflict-freedom the König coloring buys for general
    /// permutations, obtained here by index arithmetic alone. For the
    /// square transpose `G = I`, recovering the classic diagonal
    /// staging of the paper's Figure 4.
    ///
    /// Every step is affine in its flat position, so each pass's gather
    /// descriptor comes from O(log n) probes of the step and one GF(2)
    /// inverse, and γ_w from one rank ([`affine_distribution`]). No map
    /// is filled.
    pub fn build_bmmc(p: &Permutation, bmmc: &Bmmc, width: usize) -> Result<Self> {
        let n = p.len();
        if bmmc.len() != n {
            return Err(PlanError::SizeMismatch {
                expected: n,
                got: bmmc.len(),
            });
        }
        let shape = scheduled_shape(n, width)?;
        let (r, c) = (shape.rows, shape.cols);
        let (rb, cb) = (r.trailing_zeros(), c.trailing_zeros());
        let bits = rb + cb;
        let (rmask, cmask) = (r - 1, c - 1);
        let g = color_mixer(bmmc, rb, cb);
        // The color mix `G·i` of row `i`.
        let mix = |i: usize| fold(&g, i);
        // Destination of row `i`'s color-`k` element, at column `k ⊕ G·i`.
        let dest = |i: usize, k: usize| bmmc.apply(i << cb | (k ^ mix(i)));

        // Step 1 (`r × c`) routes element (i, j) to color `G·i ⊕ j`.
        let g1 = gather_descriptor(bits, c, |p| mix(p >> cb) ^ (p & cmask))?;
        // Step 2 (`c × r`): the destination row of row i's color-k element.
        let g2 = gather_descriptor(bits, r, |q| dest(q & rmask, q >> rb) >> cb)?;
        // Step 3 (`r × c`): the color-k element now in row di came from
        // row `g2(k·r + di)`; emit its destination column.
        let g3 = gather_descriptor(bits, c, |q| {
            let (di, k) = (q >> cb, q & cmask);
            dest(g2.eval(k << rb | di) as usize, k) & cmask
        })?;
        let gamma = affine_distribution(bmmc, width)
            .expect("scheduled_shape admits only power-of-two widths");
        Ok(PlanIr {
            shape,
            width,
            gamma,
            fingerprint: p.fingerprint(),
            affine: Some([g1, g2, g3]),
            maps: OnceLock::new(),
        })
    }

    /// The plan of the composite permutation "apply `first`, then
    /// `self`" — plan fusion. A fused chain costs one 3-sweep memory
    /// round trip where executing the plans back to back costs one per
    /// link. When both plans carry descriptors the composite is their
    /// GF(2) matrix product, emitted closed-form: the composite
    /// permutation is built once, for its fingerprint. Otherwise the
    /// permutations are recomposed and the composite planned once (at
    /// most one König build per fused chain). The result is keyed by the
    /// composite permutation's own fingerprint, so engine caches treat
    /// it like any other plan.
    pub fn compose(&self, first: &PlanIr) -> Result<PlanIr> {
        self.compose_par(first, 1)
    }

    /// [`PlanIr::compose`] over a scoped-thread budget.
    pub fn compose_par(&self, first: &PlanIr, threads: usize) -> Result<PlanIr> {
        if first.len() != self.len() {
            return Err(PlanError::SizeMismatch {
                expected: self.len(),
                got: first.len(),
            });
        }
        if let (Some(s2), Some(s1)) = (self.source_bmmc(), first.source_bmmc()) {
            let fused = s2.inverse().compose(&s1.inverse());
            return Self::build_bmmc(&fused.to_permutation(), &fused, self.width);
        }
        Self::build_par(
            &self.recompose().compose(&first.recompose()),
            self.width,
            threads,
        )
    }

    /// [`PlanIr::build_par`] on an explicit shape with an explicit
    /// strategy — the parallel analogue of [`PlanIr::build_for_shape`].
    pub fn build_for_shape_par(
        p: &Permutation,
        shape: MatrixShape,
        width: usize,
        strategy: Strategy,
        threads: usize,
    ) -> Result<Self> {
        if threads <= 1 {
            return Self::build_for_shape(p, shape, width, strategy);
        }
        let n = p.len();
        if shape.len() != n {
            return Err(PlanError::SizeMismatch {
                expected: n,
                got: shape.len(),
            });
        }
        let (r, c) = (shape.rows, shape.cols);
        let par = Parallelism::threads(threads);

        let mut edges: Vec<(usize, usize)> = vec![(0, 0); n];
        par.run_rows(&mut edges, c, |first_row, chunk| {
            let base = first_row * c;
            for (off, e) in chunk.iter_mut().enumerate() {
                let idx = base + off;
                *e = (idx / c, p.apply(idx) / c);
            }
        });
        let graph = RegularBipartite::new(r, edges)?;
        let coloring = edge_color_par(&graph, strategy, par)?;
        debug_assert_eq!(coloring.num_colors, c);

        // The sequential fill scatters into step2 (`c × r`) and step3
        // (`r × c`) from a single walk of the source rows. To keep the
        // parallel fill free of cross-chunk writes (and of `unsafe`), it
        // instead stages two row-major `r × c` temporaries — `s2t[i][k] =
        // destination row` and `dcol[i][k] = destination column` of row
        // `i`'s color-`k` element — whose writes stay inside the walked
        // row (each row's colors are a permutation of `0..c`), then
        // derives step2/step3 with chunk-owned transposing passes.
        let mut step1 = vec![0u32; n];
        let mut s2t = vec![0u32; n];
        let mut dcol = vec![0u32; n];
        let colors = &coloring.colors;
        par_rows3(
            par,
            0,
            c,
            &mut step1,
            &mut s2t,
            &mut dcol,
            &|first_row, s1, s2, dc| {
                let rows = s1.len() / c;
                for rr in 0..rows {
                    let i = first_row + rr;
                    for j in 0..c {
                        let idx = i * c + j;
                        let dest = p.apply(idx);
                        let k = colors[idx];
                        s1[rr * c + j] = k as u32;
                        s2[rr * c + k] = (dest / c) as u32;
                        dc[rr * c + k] = (dest % c) as u32;
                    }
                }
            },
        );

        let mut step2 = vec![0u32; n];
        {
            let s2t = &s2t;
            par.run_rows(&mut step2, r, |first_k, chunk| {
                for (kk, row) in chunk.chunks_exact_mut(r).enumerate() {
                    let k = first_k + kk;
                    for (i, slot) in row.iter_mut().enumerate() {
                        *slot = s2t[i * c + k];
                    }
                }
            });
        }
        drop(s2t);
        let g2 = invert_rows_par(&step2, r, par);

        let mut step3 = vec![0u32; n];
        {
            let (g2, dcol) = (&g2, &dcol);
            par.run_rows(&mut step3, c, |first_di, chunk| {
                for (dd, row) in chunk.chunks_exact_mut(c).enumerate() {
                    let di = first_di + dd;
                    for (k, slot) in row.iter_mut().enumerate() {
                        let i = g2[k * r + di] as usize;
                        *slot = dcol[i * c + k];
                    }
                }
            });
        }
        drop(dcol);
        let g1 = invert_rows_par(&step1, c, par);
        let g3 = invert_rows_par(&step3, c, par);

        let maps = PassMaps {
            step1,
            step2,
            step3,
            g1,
            g2,
            g3,
        };
        let gamma = distribution_par(p, width, par);
        Ok(Self::with_maps(shape, width, maps, gamma, p.fingerprint()))
    }

    /// Build on an explicit matrix shape (exposed for tests with
    /// non-default shapes; `shape.len()` must equal `p.len()`).
    pub fn build_for_shape(
        p: &Permutation,
        shape: MatrixShape,
        width: usize,
        strategy: Strategy,
    ) -> Result<Self> {
        let n = p.len();
        if shape.len() != n {
            return Err(PlanError::SizeMismatch {
                expected: n,
                got: shape.len(),
            });
        }
        let (r, c) = (shape.rows, shape.cols);

        // Bipartite multigraph: source row -> destination row, one edge per
        // element; c-regular since each row holds c elements and receives c.
        let edges: Vec<(usize, usize)> = (0..n).map(|idx| (idx / c, p.apply(idx) / c)).collect();
        let graph = RegularBipartite::new(r, edges)?;
        let coloring = edge_color_with(&graph, strategy)?;
        debug_assert_eq!(coloring.num_colors, c);

        let mut step1 = vec![0u32; n];
        let mut step2 = vec![0u32; n];
        let mut step3 = vec![0u32; n];
        for (idx, slot1) in step1.iter_mut().enumerate() {
            let i = idx / c;
            let dest = p.apply(idx);
            let (di, dj) = (dest / c, dest % c);
            let k = coloring.colors[idx];
            *slot1 = k as u32;
            step2[k * r + i] = di as u32;
            step3[di * c + k] = dj as u32;
        }
        let maps = PassMaps::from_steps(shape, step1, step2, step3);
        let gamma = distribution(p, width);
        Ok(Self::with_maps(shape, width, maps, gamma, p.fingerprint()))
    }

    /// Reassemble a plan from raw parts — the codec's decode path. The
    /// gather maps are re-derived (they are redundant with the steps, so
    /// the wire format does not carry them), and every step row is
    /// validated to be a permutation of its row: hostile bytes yield
    /// [`PlanError::Codec`], never a panic or an out-of-range gather.
    pub(crate) fn from_steps(
        shape: MatrixShape,
        width: usize,
        step1: Vec<u32>,
        step2: Vec<u32>,
        step3: Vec<u32>,
        gamma: f64,
        fingerprint: u64,
    ) -> Result<Self> {
        let (r, c) = (shape.rows, shape.cols);
        let n = shape.len();
        for (name, flat, cols) in [
            ("step1", &step1, c),
            ("step2", &step2, r),
            ("step3", &step3, c),
        ] {
            if flat.len() != n {
                return Err(PlanError::Codec {
                    reason: format!("{name} has {} entries, shape needs {n}", flat.len()),
                });
            }
            if !rows_are_permutations(flat, cols) {
                return Err(PlanError::Codec {
                    reason: format!("{name} rows are not permutations of 0..{cols}"),
                });
            }
        }
        let maps = PassMaps::from_steps(shape, step1, step2, step3);
        Ok(Self::with_maps(shape, width, maps, gamma, fingerprint))
    }

    /// Reassemble a structured plan from its compact descriptor form —
    /// the codec's decode path for structured plan files, which carry
    /// only the three [`AffineStep`]s (O(log² n) bytes). The plan stays
    /// descriptor-only: nothing `n`-sized is allocated. Each descriptor
    /// must fit its pass's geometry and have an invertible low-mask
    /// block (so every row it gathers is a permutation of the row);
    /// hostile descriptor bytes yield [`PlanError::Codec`], never a panic
    /// or an out-of-range gather. The descriptors are the canonical form
    /// the encoder wrote, so the reconstruction equals the plan that was
    /// encoded.
    pub(crate) fn from_affine(
        shape: MatrixShape,
        width: usize,
        affine: [AffineStep; 3],
        gamma: f64,
        fingerprint: u64,
    ) -> Result<Self> {
        check_descriptors(shape, &affine).map_err(|reason| PlanError::Codec { reason })?;
        Ok(PlanIr {
            shape,
            width,
            gamma,
            fingerprint,
            affine: Some(affine),
            maps: OnceLock::new(),
        })
    }

    /// A plan that holds its six maps from the start (König-colored).
    fn with_maps(
        shape: MatrixShape,
        width: usize,
        maps: PassMaps,
        gamma: f64,
        fingerprint: u64,
    ) -> Self {
        PlanIr {
            shape,
            width,
            gamma,
            fingerprint,
            affine: None,
            maps: OnceLock::from(maps),
        }
    }

    /// The six flat maps, materialized from the descriptors on the first
    /// call for a structured plan: each gather map by one Gray-style walk
    /// of its descriptor, each step map by row inversion (an involution).
    fn maps(&self) -> &PassMaps {
        self.maps.get_or_init(|| {
            let [a1, a2, a3] = self
                .affine
                .as_ref()
                .expect("a plan without maps carries descriptors");
            let (r, c) = (self.shape.rows, self.shape.cols);
            let (g1, g2, g3) = (a1.materialize(), a2.materialize(), a3.materialize());
            PassMaps {
                step1: invert_rows(&g1, c),
                step2: invert_rows(&g2, r),
                step3: invert_rows(&g3, c),
                g1,
                g2,
                g3,
            }
        })
    }

    /// Test seam: true once the plan holds its six flat maps — always
    /// for König-colored plans, and for a structured plan only after a
    /// consumer asked for a map.
    #[doc(hidden)]
    pub fn maps_materialized(&self) -> bool {
        self.maps.get().is_some()
    }

    /// The matrix shape of the three passes.
    pub fn shape(&self) -> MatrixShape {
        self.shape
    }

    /// The machine width the plan was built for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of elements the plan permutes.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// True for a zero-element plan (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distribution γ_w(P) recorded at build time.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The 64-bit fingerprint of the source permutation.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Step 1 flat destination map (`r × c`; entry = color).
    /// Materializes a structured plan's maps.
    pub fn step1(&self) -> &[u32] {
        &self.maps().step1
    }

    /// Step 2 flat destination map (`c × r`; entry = destination row).
    /// Materializes a structured plan's maps.
    pub fn step2(&self) -> &[u32] {
        &self.maps().step2
    }

    /// Step 3 flat destination map (`r × c`; entry = destination column).
    /// Materializes a structured plan's maps.
    pub fn step3(&self) -> &[u32] {
        &self.maps().step3
    }

    /// Pass 1 gather map (`r × c`): `out[i][k] = in[i][g1[i·c + k]]`.
    /// Materializes a structured plan's maps.
    pub fn gather1(&self) -> &[u32] {
        &self.maps().g1
    }

    /// Pass 2 gather map (`c × r`), on the transposed matrix.
    /// Materializes a structured plan's maps.
    pub fn gather2(&self) -> &[u32] {
        &self.maps().g2
    }

    /// Pass 3 gather map (`r × c`). Materializes a structured plan's maps.
    pub fn gather3(&self) -> &[u32] {
        &self.maps().g3
    }

    /// Closed-form descriptors of the three gather maps (pass order), or
    /// `None` for König-colored plans. When present they define the
    /// maps: `affine[k].eval(p) == gather(p)` for every flat position,
    /// so computed-index executors are byte-equivalent to map-loading
    /// ones by construction.
    pub fn affine(&self) -> Option<&[AffineStep; 3]> {
        self.affine.as_ref()
    }

    /// Per-pass geometry hints for sweep executors: the matrix view each
    /// of the three passes runs over, in execution order (pass 2 runs on
    /// the transposed matrix), and whether a fused executor folds a
    /// transpose into the pass's write side.
    ///
    /// The layouts are **derived** from the stored shape — like the
    /// gather maps, they are never serialised, so exposing them changes
    /// no wire byte and a decoded plan reports exactly the layouts of
    /// the plan that was encoded.
    pub fn pass_layouts(&self) -> [PassLayout; 3] {
        let MatrixShape { rows: r, cols: c } = self.shape;
        [
            PassLayout {
                rows: r,
                cols: c,
                fused_transpose: true,
            },
            PassLayout {
                rows: c,
                cols: r,
                fused_transpose: true,
            },
            PassLayout {
                rows: r,
                cols: c,
                fused_transpose: false,
            },
        ]
    }

    /// The plan's whole source map as one affine bit map `s`, with
    /// `dst[y] = src[s(y)]` — the inverse of the realised permutation —
    /// or `None` for König-colored plans (no descriptors).
    ///
    /// **Derived**, never serialised: each descriptor pass maps an output
    /// position to its input position in closed form, so chaining pass
    /// 3 → 2 → 1 at `y = 0` (the offset) and at each `y = 2^b` (the
    /// columns) costs O(log² n) — no O(n) walk — and a plan loaded from
    /// the store derives exactly the map of the plan that was saved.
    pub fn source_bmmc(&self) -> Option<Bmmc> {
        let steps = self.affine.as_ref()?;
        let layouts = self.pass_layouts();
        let source = |y: usize| {
            steps
                .iter()
                .zip(layouts)
                .rev()
                .fold(y, |q, (step, layout)| layout.source_of(step, q))
        };
        let offset = source(0);
        let bits = self.len().trailing_zeros();
        let cols = (0..bits).map(|b| source(1 << b) ^ offset).collect();
        Bmmc::from_cols(cols, offset).ok()
    }

    /// Flat destination of source index `idx` under the composed three
    /// steps.
    #[inline]
    fn dest_of(&self, idx: usize) -> usize {
        let (r, c) = (self.shape.rows, self.shape.cols);
        let maps = self.maps();
        let (i, j) = (idx / c, idx % c);
        let k = maps.step1[i * c + j] as usize;
        let di = maps.step2[k * r + i] as usize;
        let dj = maps.step3[di * c + k] as usize;
        di * c + dj
    }

    /// Compose the three steps back into the flat permutation the plan
    /// realises: for a structured plan, the inverse of its source map,
    /// walked once.
    pub fn recompose(&self) -> Permutation {
        if let Some(source) = self.source_bmmc() {
            return source.inverse().to_permutation();
        }
        let map: Vec<usize> = (0..self.len()).map(|idx| self.dest_of(idx)).collect();
        Permutation::from_vec_unchecked(map)
    }

    /// True iff this plan realises exactly `p` — the collision check every
    /// store hit runs before a decoded plan is trusted. An O(n) walk with
    /// no allocation: of the forward affine map for a structured plan, of
    /// the three step maps otherwise.
    pub fn matches(&self, p: &Permutation) -> bool {
        if self.len() != p.len() {
            return false;
        }
        if self.affine.is_some() {
            return self
                .source_bmmc()
                .is_some_and(|source| source.inverse().realises(p));
        }
        (0..self.len()).all(|idx| self.dest_of(idx) == p.apply(idx))
    }

    /// Check the plan's internal contract; violations yield
    /// [`PlanError::Invalid`].
    ///
    /// * A structured plan: every descriptor fits its pass's geometry
    ///   and has an invertible low-mask block (each gathered row is a
    ///   permutation), and the three compose to an invertible source map
    ///   ([`PlanIr::source_bmmc`]). O(log² n).
    /// * Any plan holding maps (always a König-colored plan; a
    ///   structured plan once materialized): all six arrays sized to the
    ///   shape, every row a permutation of its row, every gather map the
    ///   exact per-row inverse of its step, and each descriptor, if any,
    ///   reproducing its gather map entry by entry.
    ///
    /// This is the one-time guard between a `PlanIr` of unknown
    /// provenance and the sweep executors: the SIMD gather tiers clamp
    /// indices instead of bounds-checking them (`hmm-native`'s
    /// `simd.rs`), so a plan with out-of-range or colliding entries
    /// would produce **wrong output silently**. Every front door that
    /// admits foreign plan state — `codec::decode`, `PlanStore::load`,
    /// `NativeScheduled::from_plan` — runs this check so corruption
    /// surfaces as a typed error, never as wrong data.
    pub fn validate(&self) -> Result<()> {
        let invalid = |reason: String| PlanError::Invalid { reason };
        if let Some(affine) = &self.affine {
            check_descriptors(self.shape, affine).map_err(invalid)?;
            if self.source_bmmc().is_none() {
                return Err(invalid(
                    "descriptors do not compose to an invertible source map".into(),
                ));
            }
        }
        let Some(maps) = self.maps.get() else {
            return Ok(());
        };
        maps.check(self.shape).map_err(invalid)?;
        if let Some(affine) = &self.affine {
            for (name, step, gather) in [
                ("affine1", &affine[0], &maps.g1),
                ("affine2", &affine[1], &maps.g2),
                ("affine3", &affine[2], &maps.g3),
            ] {
                if !step.matches_map(gather) {
                    return Err(invalid(format!(
                        "{name} descriptor does not reproduce its gather map"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Test seam: flip one bit of a gather-map entry (materializing a
    /// structured plan's maps first), violating the plan contract the way
    /// in-memory corruption would (the codec cannot produce this state —
    /// gather maps are re-derived on decode). Pass is 1-based;
    /// out-of-range arguments are clamped.
    #[doc(hidden)]
    pub fn corrupt_gather_entry_for_tests(&mut self, pass: usize, idx: usize) {
        self.maps();
        let maps = self.maps.get_mut().expect("materialized above");
        let map = match pass {
            1 => &mut maps.g1,
            2 => &mut maps.g2,
            _ => &mut maps.g3,
        };
        let idx = idx.min(map.len().saturating_sub(1));
        map[idx] ^= 1;
    }

    /// The step-1 destination maps as one [`Permutation`] per row — the
    /// staging form the simulator's row-wise schedules consume.
    pub fn step1_row_perms(&self) -> Vec<Permutation> {
        rows_to_perms(self.step1(), self.shape.cols)
    }

    /// The step-2 destination maps as one [`Permutation`] per column.
    pub fn step2_col_perms(&self) -> Vec<Permutation> {
        rows_to_perms(self.step2(), self.shape.rows)
    }

    /// The step-3 destination maps as one [`Permutation`] per row.
    pub fn step3_row_perms(&self) -> Vec<Permutation> {
        rows_to_perms(self.step3(), self.shape.cols)
    }
}

/// Geometry of one executor sweep, derived from the plan shape (see
/// [`PlanIr::pass_layouts`]): the `rows × cols` matrix view the pass
/// iterates, where every gather map indexes within one `cols`-element
/// row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassLayout {
    /// Input rows of this pass's matrix view.
    pub rows: usize,
    /// Row length — the range the pass's gather indices live in.
    pub cols: usize,
    /// True when a fused executor writes this pass's output transposed
    /// (passes 1 and 2 of the three-sweep CPU executor).
    pub fused_transpose: bool,
}

impl PassLayout {
    /// How many of this pass's input rows a staging buffer of
    /// `stage_bytes` holds, when each staged row carries `band_cols`
    /// elements of `elem_bytes` bytes (a fused executor stages only its
    /// worker's band of the row): as many as fit, clamped to
    /// `1..=rows`.
    pub fn staging_rows(&self, elem_bytes: usize, stage_bytes: usize, band_cols: usize) -> usize {
        (stage_bytes / (band_cols * elem_bytes).max(1)).clamp(1, self.rows.max(1))
    }

    /// The input position this pass reads for output position `q`, with
    /// `step` the pass's gather descriptor: a fused pass writes its
    /// `rows × cols` view transposed, so `q = j·rows + i` reads row `i`
    /// at `g[i·cols + j]`; an unfused pass reads row `q / cols`.
    fn source_of(&self, step: &AffineStep, q: usize) -> usize {
        let p = if self.fused_transpose {
            (q % self.rows) * self.cols + q / self.rows
        } else {
            q
        };
        p - p % self.cols + step.eval(p) as usize
    }
}

/// Derive the γ×ρ color mixer `G` of the closed-form BMMC plan (see
/// [`PlanIr::build_bmmc`]): one γ-bit column per row bit, chosen so that
/// `A ⊕ B·G` is invertible, where `A`/`B` are the row-part blocks of the
/// bit matrix over the row/column bits.
///
/// Greedy GF(2) rank completion: columns of `A` that extend the running
/// basis keep `g_t = 0`; each dependent column is repaired with the first
/// column of `B` that restores independence (`g_t = e_u`). `[A B]` has
/// full row rank ρ because the whole matrix is invertible, so while the
/// basis is deficient some unused `B` column is always independent —
/// `col_a[t] ⊕ col_b[u]` extends the basis exactly when `col_b[u]` does,
/// since `col_a[t]` already lies in its span.
fn color_mixer(bmmc: &Bmmc, row_bits: u32, col_bits: u32) -> Vec<usize> {
    let rb = row_bits as usize;
    let col_a: Vec<usize> = (0..row_bits)
        .map(|t| bmmc.col(col_bits + t) >> col_bits)
        .collect();
    let col_b: Vec<usize> = (0..col_bits).map(|u| bmmc.col(u) >> col_bits).collect();
    // Leading-bit echelon basis of GF(2)^ρ: by_msb[b] is the inserted
    // vector whose highest set bit is b (or 0 when that slot is free).
    let mut by_msb = vec![0usize; rb.max(1)];
    fn reduce(by_msb: &[usize], mut v: usize) -> usize {
        while v != 0 {
            let b = by_msb[v.ilog2() as usize];
            if b == 0 {
                return v;
            }
            v ^= b;
        }
        0
    }
    let mut g = vec![0usize; rb];
    let mut deferred = Vec::new();
    for (t, &ca) in col_a.iter().enumerate() {
        let red = reduce(&by_msb, ca);
        if red != 0 {
            by_msb[red.ilog2() as usize] = red;
        } else {
            deferred.push(t);
        }
    }
    let mut u = 0usize;
    for t in deferred {
        loop {
            debug_assert!(u < col_b.len(), "invertible BMMC always completes");
            let red = reduce(&by_msb, col_a[t] ^ col_b[u]);
            u += 1;
            if red != 0 {
                by_msb[red.ilog2() as usize] = red;
                g[t] = 1usize << (u - 1);
                break;
            }
        }
    }
    g
}

/// The descriptor half of the plan contract, O(log² n): each descriptor
/// fits its pass's geometry, and its low-mask block is invertible, so
/// every row it gathers is a permutation of the row.
fn check_descriptors(
    shape: MatrixShape,
    affine: &[AffineStep; 3],
) -> std::result::Result<(), String> {
    let (r, c) = (shape.rows, shape.cols);
    for (name, step, cols) in [
        ("affine1", &affine[0], c),
        ("affine2", &affine[1], r),
        ("affine3", &affine[2], c),
    ] {
        step.check_geometry(name, shape.len(), cols)?;
        if !step.rows_are_permutations() {
            return Err(format!(
                "{name}: singular low masks gather rows that are not permutations of 0..{cols}"
            ));
        }
    }
    Ok(())
}

/// The gather descriptor of one pass of `2^bits` elements in rows of
/// `cols`, from its closed-form step (`step(p) < cols`, the in-row
/// destination of flat position `p`).
///
/// The flat step map `p ↦ row(p)·cols + step(p)` is affine and, since
/// each row is a permutation, invertible: O(log n) probes fix it, one
/// GF(2) inverse sends every output slot back to its input, and the
/// inverse's low bits are the gather. Offset and masks are the gather's
/// values at 0 and at each `2^b` (XOR the offset) — the canonical form
/// [`AffineStep::fit`] reads off a materialized gather map.
fn gather_descriptor(bits: u32, cols: usize, step: impl Fn(usize) -> usize) -> Result<AffineStep> {
    let flat = |p: usize| (p & !(cols - 1)) | step(p);
    let offset = flat(0);
    let forward = Bmmc::from_cols((0..bits).map(|b| flat(1 << b) ^ offset).collect(), offset)?;
    let inverse = forward.inverse();
    let low = |v: usize| (v & (cols - 1)) as u32;
    Ok(AffineStep::from_parts(
        cols.trailing_zeros(),
        (0..bits).map(|b| low(inverse.col(b))).collect(),
        low(inverse.offset()),
    ))
}

/// `XOR of cols[t] over the set bits t of x`.
fn fold(cols: &[usize], mut x: usize) -> usize {
    let mut v = 0;
    while x != 0 {
        v ^= cols[x.trailing_zeros() as usize];
        x &= x - 1;
    }
    v
}

/// Per-row inverse of a flat destination map: `out[row·cols + flat[row·cols
/// + j]] = j`. Requires each row to be a permutation of `0..cols`.
fn invert_rows(flat: &[u32], cols: usize) -> Vec<u32> {
    let mut out = vec![0u32; flat.len()];
    for (row_idx, row) in flat.chunks_exact(cols).enumerate() {
        let base = row_idx * cols;
        for (j, &d) in row.iter().enumerate() {
            out[base + d as usize] = j as u32;
        }
    }
    out
}

/// Per-row inverse over a thread budget: identical output to
/// [`invert_rows`] (each output row is owned by exactly one chunk).
fn invert_rows_par(flat: &[u32], cols: usize, par: Parallelism) -> Vec<u32> {
    let mut out = vec![0u32; flat.len()];
    par.run_rows(&mut out, cols, |first_row, chunk| {
        for (rr, orow) in chunk.chunks_exact_mut(cols).enumerate() {
            let base = (first_row + rr) * cols;
            for (j, &d) in flat[base..base + cols].iter().enumerate() {
                orow[d as usize] = j as u32;
            }
        }
    });
    out
}

/// The filler a [`par_rows3`] pass runs on each aligned three-buffer row
/// chunk: `(first_row, rows_of_a, rows_of_b, rows_of_c)`.
type Rows3Fill<'a> = &'a (dyn Fn(usize, &mut [u32], &mut [u32], &mut [u32]) + Sync);

/// Fork/join three equally-shaped row-major buffers into aligned row
/// chunks, so one pass can fill all three without cross-thread writes.
fn par_rows3(
    par: Parallelism,
    first_row: usize,
    cols: usize,
    a: &mut [u32],
    b: &mut [u32],
    c: &mut [u32],
    f: Rows3Fill<'_>,
) {
    let rows = a.len() / cols;
    debug_assert!(b.len() == a.len() && c.len() == a.len());
    if !par.is_parallel() || rows <= 1 {
        if rows > 0 {
            f(first_row, a, b, c);
        }
        return;
    }
    let cut = (rows / 2) * cols;
    let (a1, a2) = a.split_at_mut(cut);
    let (b1, b2) = b.split_at_mut(cut);
    let (c1, c2) = c.split_at_mut(cut);
    let mid = first_row + rows / 2;
    par.join(
        |p| par_rows3(p, first_row, cols, a1, b1, c1, f),
        |p| par_rows3(p, mid, cols, a2, b2, c2, f),
    );
}

/// γ_w(P) over a thread budget: per-warp distinct-group counts are
/// independent, so chunk sums (integers, summed in range order) combine
/// into exactly the sequential [`distribution`] value.
fn distribution_par(p: &Permutation, width: usize, par: Parallelism) -> f64 {
    let n = p.len();
    if n == 0 {
        return 0.0;
    }
    let warps = n.div_ceil(width);
    let slice = p.as_slice();
    let parts = par.map_ranges(warps, 256, |w0, w1| {
        let mut groups = 0usize;
        let mut scratch: Vec<usize> = Vec::with_capacity(width);
        for w in w0..w1 {
            let warp = &slice[w * width..((w + 1) * width).min(n)];
            scratch.clear();
            scratch.extend(warp.iter().map(|&d| d / width));
            scratch.sort_unstable();
            scratch.dedup();
            groups += scratch.len();
        }
        groups
    });
    let total: usize = parts.iter().sum();
    total as f64 / warps as f64
}

/// True iff every `cols`-chunk of `flat` is a permutation of `0..cols`.
fn rows_are_permutations(flat: &[u32], cols: usize) -> bool {
    let mut seen = vec![false; cols];
    for row in flat.chunks_exact(cols) {
        seen.iter_mut().for_each(|s| *s = false);
        for &d in row {
            let d = d as usize;
            if d >= cols || seen[d] {
                return false;
            }
            seen[d] = true;
        }
    }
    true
}

fn rows_to_perms(flat: &[u32], cols: usize) -> Vec<Permutation> {
    flat.chunks_exact(cols)
        .map(|chunk| Permutation::from_vec_unchecked(chunk.iter().map(|&d| d as usize).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_perm::families;

    const W: usize = 8;

    #[test]
    fn plan_recomposes_for_all_families() {
        let n = 1 << 10;
        for fam in families::Family::ALL {
            let p = fam.build(n, 21).unwrap();
            let ir = PlanIr::build(&p, W).unwrap();
            assert_eq!(ir.recompose(), p, "{}", fam.name());
            assert!(ir.matches(&p), "{}", fam.name());
            assert_eq!(ir.fingerprint(), p.fingerprint());
            assert_eq!(ir.width(), W);
        }
    }

    #[test]
    fn parallel_builder_equals_sequential_for_all_families() {
        let n = 1 << 10;
        for fam in families::Family::ALL {
            let p = fam.build(n, 5).unwrap();
            let seq = PlanIr::build(&p, W).unwrap();
            for t in [2usize, 3, 8] {
                let par = PlanIr::build_par(&p, W, t).unwrap();
                assert_eq!(par, seq, "{} threads={t}", fam.name());
            }
        }
    }

    #[test]
    fn parallel_builder_with_one_thread_is_the_sequential_builder() {
        let p = families::random(1 << 10, 44);
        assert_eq!(
            PlanIr::build_par(&p, W, 1).unwrap(),
            PlanIr::build(&p, W).unwrap()
        );
    }

    #[test]
    fn matches_rejects_other_permutations() {
        let n = 1 << 10;
        let ir = PlanIr::build(&families::random(n, 1), W).unwrap();
        assert!(!ir.matches(&families::random(n, 2)));
        assert!(!ir.matches(&families::random(n * 2, 1)));
    }

    #[test]
    fn gather_maps_invert_the_steps() {
        let n = 1 << 10;
        let p = families::random(n, 9);
        let ir = PlanIr::build(&p, W).unwrap();
        let (r, c) = (ir.shape().rows, ir.shape().cols);
        for i in 0..r {
            for j in 0..c {
                let k = ir.step1()[i * c + j] as usize;
                assert_eq!(ir.gather1()[i * c + k] as usize, j);
            }
        }
        for k in 0..c {
            for i in 0..r {
                let di = ir.step2()[k * r + i] as usize;
                assert_eq!(ir.gather2()[k * r + di] as usize, i);
            }
        }
    }

    #[test]
    fn row_perm_staging_matches_flat_steps() {
        let n = 1 << 10;
        let p = families::bit_reversal(n).unwrap();
        let ir = PlanIr::build(&p, W).unwrap();
        let (r, c) = (ir.shape().rows, ir.shape().cols);
        let s1 = ir.step1_row_perms();
        assert_eq!(s1.len(), r);
        for (i, q) in s1.iter().enumerate() {
            assert_eq!(q.len(), c);
            for j in 0..c {
                assert_eq!(q.apply(j), ir.step1()[i * c + j] as usize);
            }
        }
        assert_eq!(ir.step2_col_perms().len(), c);
        assert_eq!(ir.step3_row_perms().len(), r);
    }

    #[test]
    fn explicit_shape_must_match_length() {
        let p = families::random(64, 6);
        let shape = MatrixShape::new(4, 8).unwrap();
        assert!(matches!(
            PlanIr::build_for_shape(&p, shape, W, Strategy::Hybrid),
            Err(PlanError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn unsupported_sizes_are_rejected() {
        assert!(PlanIr::build(&families::random(100, 7), W).is_err());
        assert!(PlanIr::build(&families::random(32, 8), W).is_err());
    }

    #[test]
    fn from_steps_validates_rows() {
        let p = families::random(256, 3);
        let ir = PlanIr::build(&p, W).unwrap();
        let shape = ir.shape();
        // A duplicated entry breaks the permutation property.
        let mut bad = ir.step1().to_vec();
        bad[1] = bad[0];
        let err = PlanIr::from_steps(
            shape,
            W,
            bad,
            ir.step2().to_vec(),
            ir.step3().to_vec(),
            ir.gamma(),
            ir.fingerprint(),
        );
        assert!(matches!(err, Err(PlanError::Codec { .. })));
        // An out-of-range entry is caught, not indexed.
        let mut oob = ir.step2().to_vec();
        oob[0] = u32::MAX;
        let err = PlanIr::from_steps(
            shape,
            W,
            ir.step1().to_vec(),
            oob,
            ir.step3().to_vec(),
            ir.gamma(),
            ir.fingerprint(),
        );
        assert!(matches!(err, Err(PlanError::Codec { .. })));
    }

    #[test]
    fn pass_layouts_follow_the_shape() {
        let p = families::random(1 << 11, 41); // rectangular (odd exponent)
        let ir = PlanIr::build(&p, W).unwrap();
        let MatrixShape { rows: r, cols: c } = ir.shape();
        let [l1, l2, l3] = ir.pass_layouts();
        assert_eq!((l1.rows, l1.cols, l1.fused_transpose), (r, c, true));
        assert_eq!((l2.rows, l2.cols, l2.fused_transpose), (c, r, true));
        assert_eq!((l3.rows, l3.cols, l3.fused_transpose), (r, c, false));
    }

    #[test]
    fn pass_layouts_are_codec_stable() {
        // Derived hints must neither change the wire bytes nor differ
        // between a built plan and its decoded round-trip.
        let p = families::random(1 << 10, 42);
        let ir = PlanIr::build(&p, W).unwrap();
        let bytes = crate::codec::encode(&ir);
        let layouts = ir.pass_layouts();
        assert_eq!(crate::codec::encode(&ir), bytes, "pass_layouts mutated");
        let decoded = crate::codec::decode(&bytes).unwrap();
        assert_eq!(decoded.pass_layouts(), layouts);
    }

    #[test]
    fn structured_plans_realise_their_permutations() {
        let n = 1 << 12;
        let cases: Vec<(&str, hmm_perm::Permutation)> = vec![
            ("identity", hmm_perm::Permutation::identity(n)),
            ("shuffle", families::shuffle(n).unwrap()),
            ("bit_reversal", families::bit_reversal(n).unwrap()),
            ("transpose", families::transpose_square(n).unwrap()),
            ("butterfly", families::butterfly(n, 5).unwrap()),
            ("gray", families::gray_code(n).unwrap()),
        ];
        for (name, p) in cases {
            let ir = PlanIr::build_structured(&p, W)
                .unwrap_or_else(|| panic!("{name} not structured"))
                .unwrap();
            assert!(ir.matches(&p), "{name}");
            assert_eq!(ir.recompose(), p, "{name}");
            assert_eq!(ir.fingerprint(), p.fingerprint(), "{name}");
            ir.validate().unwrap();
            // Same derived identity as the general König plan.
            let shape = scheduled_shape(n, W).unwrap();
            let general = PlanIr::build_for_shape(&p, shape, W, Strategy::Hybrid).unwrap();
            assert_eq!(ir.shape(), general.shape(), "{name}");
            assert_eq!(ir.width(), general.width(), "{name}");
            assert_eq!(ir.gamma(), general.gamma(), "{name}");
            assert_eq!(ir.fingerprint(), general.fingerprint(), "{name}");
            assert_eq!(general.recompose(), ir.recompose(), "{name}");
        }
    }

    #[test]
    fn structured_plans_carry_exact_affine_descriptors() {
        let n = 1 << 12;
        for (name, p) in [
            ("shuffle", families::shuffle(n).unwrap()),
            ("bit_reversal", families::bit_reversal(n).unwrap()),
            ("transpose", families::transpose_square(n).unwrap()),
        ] {
            let ir = PlanIr::build(&p, W).unwrap();
            let aff = ir
                .affine()
                .unwrap_or_else(|| panic!("{name} has no descriptors"));
            let (r, c) = (ir.shape().rows, ir.shape().cols);
            for (which, step, map, cols) in [
                ("g1", &aff[0], ir.gather1(), c),
                ("g2", &aff[1], ir.gather2(), r),
                ("g3", &aff[2], ir.gather3(), c),
            ] {
                assert!(step.matches_map(map), "{name}/{which}");
                assert_eq!(step.materialize().as_slice(), map, "{name}/{which}");
                assert_eq!(step.col_bits(), cols.trailing_zeros(), "{name}/{which}");
                for p in [0usize, 1, 7, n / 2, n - 1] {
                    assert_eq!(step.eval(p), map[p], "{name}/{which} at {p}");
                    assert_eq!(
                        step.row_base(p / cols) ^ step.eval(p % cols) ^ step.offset(),
                        map[p],
                        "{name}/{which} split at {p}"
                    );
                }
            }
        }
        // König-colored plans carry none.
        let ir = PlanIr::build(&families::random(n, 3), W).unwrap();
        assert!(ir.affine().is_none());
    }

    #[test]
    fn validate_catches_descriptor_gather_drift() {
        let p = families::shuffle(1 << 10).unwrap();
        let ir = PlanIr::build(&p, W).unwrap();
        assert!(ir.affine().is_some());
        ir.validate().unwrap();
        for pass in 1..=3 {
            let mut bad = ir.clone();
            bad.corrupt_gather_entry_for_tests(pass, 3);
            assert!(
                matches!(bad.validate(), Err(PlanError::Invalid { .. })),
                "pass {pass}"
            );
        }
    }

    #[test]
    fn structured_detection_skips_random_permutations() {
        assert!(PlanIr::build_structured(&families::random(1 << 10, 3), W).is_none());
        // Rectangular shapes (odd exponent) take the fast path too.
        let p = families::shuffle(1 << 11).unwrap();
        let ir = PlanIr::build_structured(&p, W).unwrap().unwrap();
        assert!(ir.matches(&p));
        assert_ne!(ir.shape().rows, ir.shape().cols);
    }

    #[test]
    fn structured_builder_is_thread_invariant() {
        for n in [1 << 10, 1 << 13] {
            let p = families::bit_reversal(n).unwrap();
            let seq = PlanIr::build(&p, W).unwrap();
            for t in [2usize, 5, 16] {
                assert_eq!(PlanIr::build_par(&p, W, t).unwrap(), seq, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn bmmc_builder_rejects_mismatched_sizes() {
        let p = families::shuffle(1 << 10).unwrap();
        let small = families::shuffle(1 << 8).unwrap().as_bmmc().unwrap();
        assert!(matches!(
            PlanIr::build_bmmc(&p, &small, W),
            Err(PlanError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn compose_fuses_two_plans_into_one() {
        let n = 1 << 10;
        // BMMC ∘ BMMC: matrix-product path.
        let p1 = families::shuffle(n).unwrap();
        let p2 = families::bit_reversal(n).unwrap();
        let plan1 = PlanIr::build(&p1, W).unwrap();
        let plan2 = PlanIr::build(&p2, W).unwrap();
        let fused = plan2.compose(&plan1).unwrap();
        let expect = p2.compose(&p1);
        assert!(fused.matches(&expect));
        assert_eq!(fused.fingerprint(), expect.fingerprint());
        // General ∘ general: compose-then-plan-once path.
        let q1 = families::random(n, 61);
        let q2 = families::random(n, 62);
        let fused = PlanIr::build(&q2, W)
            .unwrap()
            .compose(&PlanIr::build(&q1, W).unwrap())
            .unwrap();
        assert!(fused.matches(&q2.compose(&q1)));
        // Mixed structured/general works through the general path.
        let fused = PlanIr::build(&q2, W).unwrap().compose(&plan1).unwrap();
        assert!(fused.matches(&q2.compose(&p1)));
        // Size mismatch is a typed error.
        let other = PlanIr::build(&families::random(1 << 12, 8), W).unwrap();
        assert!(matches!(
            other.compose(&plan1),
            Err(PlanError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn compose_applied_once_equals_applying_both() {
        let n = 1 << 10;
        let p1 = families::random(n, 71);
        let p2 = families::bit_reversal(n).unwrap();
        let fused = PlanIr::build(&p2, W)
            .unwrap()
            .compose_par(&PlanIr::build(&p1, W).unwrap(), 4)
            .unwrap();
        let src: Vec<u32> = (0..n as u32).collect();
        let mut mid = vec![0u32; n];
        let mut two_step = vec![0u32; n];
        p1.permute(&src, &mut mid).unwrap();
        p2.permute(&mid, &mut two_step).unwrap();
        let mut one_step = vec![0u32; n];
        fused.recompose().permute(&src, &mut one_step).unwrap();
        assert_eq!(one_step, two_step);
    }

    #[test]
    fn validate_accepts_built_plans_and_catches_corruption() {
        let p = families::random(1 << 10, 17);
        let ir = PlanIr::build(&p, W).unwrap();
        ir.validate().unwrap();
        // A flipped gather entry breaks row bijectivity or inverse
        // consistency — either way validate reports it.
        for pass in 1..=3 {
            let mut bad = ir.clone();
            bad.corrupt_gather_entry_for_tests(pass, 5);
            assert!(
                matches!(bad.validate(), Err(PlanError::Invalid { .. })),
                "pass {pass}"
            );
        }
    }

    #[test]
    fn staging_rows_fills_the_budget() {
        let layout = PassLayout {
            rows: 2048,
            cols: 2048,
            fused_transpose: true,
        };
        // 256 KB of 1024-element u32 band rows: 64 fit.
        assert_eq!(layout.staging_rows(4, 262_144, 1024), 64);
        // Never more rows than the pass has...
        assert_eq!(layout.staging_rows(4, usize::MAX, 1), 2048);
        // ...and always at least one, even when a row outsizes the budget.
        assert_eq!(layout.staging_rows(8, 1024, 1 << 20), 1);
    }
}

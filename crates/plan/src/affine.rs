//! Per-pass affine index descriptors: the closed form of a structured
//! plan's gather maps.
//!
//! For a BMMC (GF(2)-affine) permutation, every pass of the closed-form
//! plan (`PlanIr::build_bmmc`) gathers through a map that is itself
//! affine over the bits of the flat element position: there is a mask
//! `cols[b]` per position bit and an offset such that
//!
//! ```text
//! g[p] = offset ⊕ (XOR over set bits b of p) cols[b]
//! ```
//!
//! An [`AffineStep`] is that function as data — `O(log n)` words instead
//! of the `O(n)` materialized map — and for a structured plan the three
//! descriptors *are* the plan. The interpreter and the WGSL kernels
//! evaluate it per element instead of loading `g[p]` from memory; the
//! native backend chains all three into the plan's whole source map
//! ([`crate::PlanIr::source_bmmc`]) and runs that as one tiled sweep. The
//! map itself is materialized ([`AffineStep::materialize`]) only for a
//! consumer that asks for it.
//!
//! The builder solves each descriptor from O(log n) probes of the pass's
//! closed-form step and one GF(2) inverse; it is the canonical form that
//! [`AffineStep::fit`] reads off (and verifies against) a materialized
//! map, so both routes yield the same descriptor and the same encoded
//! bytes.
//!
//! Geometry: a descriptor belongs to one pass whose matrix view has
//! `2^col_bits` columns. Gather indices live in `0..2^col_bits`, and the
//! flat position `p = row · 2^col_bits + j` splits cleanly: masks
//! `cols[..col_bits]` belong to the in-row coordinate `j` (the per-lane
//! part a SIMD kernel folds), masks `cols[col_bits..]` belong to the row
//! index (folded once per row into [`AffineStep::row_base`]). Every row
//! gathers a permutation of `0..2^col_bits` exactly when the low masks
//! are linearly independent ([`AffineStep::rows_are_permutations`]).

use hmm_perm::Bmmc;

/// The affine closed form of one pass's gather map (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineStep {
    /// log₂ of the pass's row length; indices are `< 2^col_bits`.
    col_bits: u32,
    /// One mask per flat-position bit: `cols[b]` is XORed into the index
    /// when bit `b` of the position is set. `cols.len()` is log₂ of the
    /// pass's element count.
    cols: Vec<u32>,
    /// The index of flat position 0.
    offset: u32,
}

impl AffineStep {
    /// Fit a descriptor to a materialized gather map over rows of
    /// `cols` entries, verifying it reproduces **every** entry: `None`
    /// means the map is not affine (or the geometry is not a power of
    /// two), never a wrong descriptor.
    pub fn fit(map: &[u32], cols: usize) -> Option<Self> {
        let n = map.len();
        if n == 0 || !n.is_power_of_two() || cols == 0 || !cols.is_power_of_two() {
            return None;
        }
        let bits = n.trailing_zeros();
        let offset = map[0];
        let masks: Vec<u32> = (0..bits).map(|b| map[1usize << b] ^ offset).collect();
        let step = AffineStep {
            col_bits: cols.trailing_zeros(),
            cols: masks,
            offset,
        };
        if step.matches_map(map) {
            Some(step)
        } else {
            None
        }
    }

    /// Reassemble from raw parts — the codec's decode path. Callers must
    /// run [`AffineStep::check_geometry`] before trusting the result.
    pub(crate) fn from_parts(col_bits: u32, cols: Vec<u32>, offset: u32) -> Self {
        AffineStep {
            col_bits,
            cols,
            offset,
        }
    }

    /// log₂ of the pass's row length.
    #[inline]
    pub fn col_bits(&self) -> u32 {
        self.col_bits
    }

    /// The per-bit masks, low (in-row) bits first.
    #[inline]
    pub fn masks(&self) -> &[u32] {
        &self.cols
    }

    /// Masks of the in-row coordinate bits — what a per-lane kernel
    /// folds for each `j` within a row.
    #[inline]
    pub fn lo_masks(&self) -> &[u32] {
        &self.cols[..self.col_bits as usize]
    }

    /// The index of flat position 0.
    #[inline]
    pub fn offset(&self) -> u32 {
        self.offset
    }

    /// The row-constant part of the fold: `offset` XOR the masks of the
    /// row bits — so `eval(row · 2^col_bits + j) = row_base(row) ⊕
    /// fold(lo_masks, j)`.
    #[inline]
    pub fn row_base(&self, row: usize) -> u32 {
        let mut v = self.offset;
        let mut bits = row;
        while bits != 0 {
            v ^= self.cols[self.col_bits as usize + bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        v
    }

    /// Evaluate the fold at flat position `p`.
    #[inline]
    pub fn eval(&self, p: usize) -> u32 {
        let mut v = self.offset;
        let mut bits = p;
        while bits != 0 {
            v ^= self.cols[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        v
    }

    /// True iff the descriptor reproduces `map` exactly — an O(n)
    /// incremental Gray-style walk (each step XORs only the masks of the
    /// changed bits).
    pub fn matches_map(&self, map: &[u32]) -> bool {
        if self.cols.len() >= usize::BITS as usize || map.len() != 1usize << self.cols.len() {
            return false;
        }
        let limit = 1u64 << self.col_bits.min(32);
        if u64::from(self.offset) >= limit || self.cols.iter().any(|&m| u64::from(m) >= limit) {
            return false;
        }
        let mut val = self.offset;
        if map[0] != val {
            return false;
        }
        for (i, &entry) in map.iter().enumerate().skip(1) {
            let mut changed = (i - 1) ^ i;
            while changed != 0 {
                val ^= self.cols[changed.trailing_zeros() as usize];
                changed &= changed - 1;
            }
            if entry != val {
                return false;
            }
        }
        true
    }

    /// Materialize the full gather map — the lazy-rebuild path for
    /// consumers that need the `O(n)` array (same Gray-style walk as the
    /// verifier).
    pub fn materialize(&self) -> Vec<u32> {
        let n = 1usize << self.cols.len();
        let mut out = vec![0u32; n];
        let mut val = self.offset;
        out[0] = val;
        for (i, slot) in out.iter_mut().enumerate().skip(1) {
            let mut changed = (i - 1) ^ i;
            while changed != 0 {
                val ^= self.cols[changed.trailing_zeros() as usize];
                changed &= changed - 1;
            }
            *slot = val;
        }
        out
    }

    /// True iff every row gathers a permutation of its row: the low
    /// (in-row) masks are linearly independent over GF(2). O(log² n); the
    /// row-constant part of the fold only relabels a row's indices.
    pub fn rows_are_permutations(&self) -> bool {
        self.cols
            .get(..self.col_bits as usize)
            .is_some_and(|lo| Bmmc::from_cols(lo.iter().map(|&m| m as usize).collect(), 0).is_ok())
    }

    /// Validate the descriptor's geometry against the pass it claims to
    /// describe: `n` elements in rows of `cols` entries, every mask and
    /// the offset in range. Hostile bytes surface here, as a reason the
    /// caller wraps in its error, before any `1 << cols.len()`
    /// allocation.
    pub(crate) fn check_geometry(
        &self,
        name: &str,
        n: usize,
        cols: usize,
    ) -> std::result::Result<(), String> {
        if !n.is_power_of_two() || !cols.is_power_of_two() {
            return Err(format!(
                "{name}: affine descriptor over non-power-of-two geometry {n}/{cols}"
            ));
        }
        if self.cols.len() != n.trailing_zeros() as usize {
            return Err(format!(
                "{name}: {} masks, {n} elements need {}",
                self.cols.len(),
                n.trailing_zeros()
            ));
        }
        if self.col_bits != cols.trailing_zeros() {
            return Err(format!(
                "{name}: col_bits {} does not match row length {cols}",
                self.col_bits
            ));
        }
        if self.offset as usize >= cols || self.cols.iter().any(|&m| m as usize >= cols) {
            return Err(format!("{name}: mask or offset out of range 0..{cols}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_and_reproduces_affine_maps() {
        // g[p] = 0b101 ^ fold of masks — 32 positions, rows of 8.
        let masks = [0b001u32, 0b110, 0b010, 0b100, 0b011];
        let map: Vec<u32> = (0..32usize)
            .map(|p| {
                let mut v = 0b101u32;
                for (b, &m) in masks.iter().enumerate() {
                    if p >> b & 1 == 1 {
                        v ^= m;
                    }
                }
                v
            })
            .collect();
        let step = AffineStep::fit(&map, 8).expect("affine map must fit");
        assert_eq!(step.offset(), 0b101);
        assert_eq!(step.masks(), &masks);
        assert_eq!(step.col_bits(), 3);
        assert_eq!(step.lo_masks(), &masks[..3]);
        assert!(step.matches_map(&map));
        assert_eq!(step.materialize(), map);
        for (p, &expect) in map.iter().enumerate() {
            assert_eq!(step.eval(p), expect);
            assert_eq!(
                step.row_base(p / 8) ^ step.eval(p & 7) ^ step.offset(),
                expect
            );
        }
        step.check_geometry("g", 32, 8).unwrap();
    }

    #[test]
    fn rejects_non_affine_maps() {
        // One flipped entry away from affine.
        let mut map: Vec<u32> = (0..16u32).map(|p| p ^ 3).collect();
        assert!(AffineStep::fit(&map, 16).is_some());
        map[9] ^= 1;
        assert!(AffineStep::fit(&map, 16).is_none());
        // Non-power-of-two geometry never fits.
        assert!(AffineStep::fit(&[0u32; 12], 4).is_none());
        assert!(AffineStep::fit(&(0..16u32).collect::<Vec<_>>(), 12).is_none());
        assert!(AffineStep::fit(&[], 4).is_none());
    }

    #[test]
    fn geometry_violations_are_typed_errors() {
        let id: Vec<u32> = (0..16).collect();
        let step = AffineStep::fit(&id, 16).unwrap();
        step.check_geometry("g", 16, 16).unwrap();
        assert!(step.check_geometry("g", 32, 16).is_err()); // wrong element count
        assert!(step.check_geometry("g", 16, 8).is_err()); // wrong row length
        assert!(step.check_geometry("g", 12, 16).is_err()); // not a power of two
        let oob = AffineStep::from_parts(2, vec![0, 1, 4, 0], 0);
        assert!(oob.check_geometry("g", 16, 4).is_err()); // mask ≥ row length
    }

    #[test]
    fn rows_are_permutations_exactly_when_low_masks_are_independent() {
        // Rows of 4 (two low masks), 16 positions: the high masks and the
        // offset only relabel a row, so they never matter.
        for (lo, ok) in [
            ([1u32, 2], true),
            ([3, 1], true),
            ([1, 1], false),
            ([0, 2], false),
        ] {
            let step = AffineStep::from_parts(2, vec![lo[0], lo[1], 3, 1], 2);
            step.check_geometry("g", 16, 4).unwrap();
            assert_eq!(step.rows_are_permutations(), ok, "{lo:?}");
            let map = step.materialize();
            let rows_ok = map.chunks_exact(4).all(|row| {
                let mut seen = [false; 4];
                row.iter()
                    .all(|&v| !std::mem::replace(&mut seen[v as usize], true))
            });
            assert_eq!(rows_ok, ok, "{lo:?} materialized");
        }
        // Fewer masks than the row needs is never a permutation.
        assert!(!AffineStep::from_parts(3, vec![1, 2], 0).rows_are_permutations());
    }

    #[test]
    fn matches_map_rejects_out_of_range_descriptors() {
        // A descriptor whose masks exceed the row length cannot claim to
        // match any in-range map.
        let step = AffineStep::from_parts(2, vec![0, 1, 8, 0], 0);
        let map = step.materialize();
        assert!(!step.matches_map(&map));
        // And a length mismatch is a clean false, not a panic.
        let id = AffineStep::fit(&(0..16u32).collect::<Vec<_>>(), 16).unwrap();
        assert!(!id.matches_map(&[0, 1, 2]));
    }
}

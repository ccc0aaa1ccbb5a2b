//! Row-major matrix views of flat arrays.
//!
//! The scheduled permutation algorithm treats the arrays `a` and `b` as
//! matrices of shape `√n × √n` (Section VII assumes square for simplicity;
//! for odd powers of two we use the natural `r × 2r` rectangle). Both
//! dimensions must be multiples of the machine width `w` so that rows tile
//! into full warps and `w × w` transpose tiles.

use crate::error::{PermError, Result};
use crate::permutation::Permutation;

/// A `rows × cols` row-major shape over `rows*cols` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixShape {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl MatrixShape {
    /// Build a shape, checking that it is non-degenerate.
    pub fn new(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(PermError::BadShape {
                n: rows * cols,
                rows,
                cols,
            });
        }
        Ok(MatrixShape { rows, cols })
    }

    /// Total elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True when the shape covers no elements (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat index of `(row, col)`.
    #[inline]
    pub fn index(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// `(row, col)` of a flat index.
    #[inline]
    pub fn coords(&self, index: usize) -> (usize, usize) {
        debug_assert!(index < self.len());
        (index / self.cols, index % self.cols)
    }

    /// The transposed shape.
    #[inline]
    pub fn transposed(&self) -> MatrixShape {
        MatrixShape {
            rows: self.cols,
            cols: self.rows,
        }
    }

    /// True when both dimensions are multiples of `w`.
    pub fn tiles_by(&self, w: usize) -> bool {
        w > 0 && self.rows.is_multiple_of(w) && self.cols.is_multiple_of(w)
    }
}

/// Choose the matrix shape the scheduled algorithm uses for an `n`-element
/// array on a width-`w` machine: the most-square power-of-two factorization
/// `r × c` with `r ≤ c` and both multiples of `w`.
///
/// Requires `n` to be a power of two with `n ≥ w²` (smaller arrays fit in a
/// single DMM and don't need the three-pass algorithm).
pub fn scheduled_shape(n: usize, w: usize) -> Result<MatrixShape> {
    if !n.is_power_of_two() {
        return Err(PermError::NotPowerOfTwo { n });
    }
    if w == 0 || !w.is_power_of_two() {
        return Err(PermError::NotPowerOfTwo { n: w });
    }
    let k = n.trailing_zeros();
    let rows = 1usize << (k / 2);
    let cols = n / rows;
    let shape = MatrixShape { rows, cols };
    if !shape.tiles_by(w) {
        return Err(PermError::NoValidShape { n, width: w });
    }
    Ok(shape)
}

/// An affine bit-matrix (BMMC) permutation on `2^bits` indices:
/// `dest(x) = M·x ⊕ b` over GF(2), with `M` an invertible `bits × bits`
/// bit matrix and `b` a `bits`-bit offset.
///
/// This family covers every structured permutation the paper benchmarks —
/// transpose, bit-reversal, shuffle/unshuffle (and their powers), hypercube
/// exchange (`butterfly`), Gray code — and is closed under composition and
/// inversion, which is what makes closed-form plan emission and plan fusion
/// possible (see "Efficient GPU Implementation of Affine Index Permutations
/// on Arrays", PAPERS.md).
///
/// The matrix is stored column-major as bit masks: `col(j)` is the image
/// `M·e_j` of index bit `j`, so `M·x` is the XOR of `col(j)` over the set
/// bits of `x`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bmmc {
    bits: u32,
    /// `cols[j] = M·e_j`, each a `bits`-bit mask.
    cols: Vec<usize>,
    /// The affine offset `b`.
    offset: usize,
}

impl Bmmc {
    /// Build from the matrix columns (images of the index bits) and the
    /// affine offset. Fails with [`PermError::SingularMatrix`] when the
    /// columns are linearly dependent (the map would not be a bijection),
    /// and with [`PermError::NotABijection`] when a column or the offset
    /// has bits outside the `bits`-bit domain.
    pub fn from_cols(cols: Vec<usize>, offset: usize) -> Result<Self> {
        let bits = cols.len() as u32;
        // bits < usize::BITS so that 1 << bits (the domain size) is
        // representable; a 2^64-element permutation is not.
        if bits >= usize::BITS {
            return Err(PermError::NotPowerOfTwo { n: usize::MAX });
        }
        let mask = (1usize << bits) - 1;
        if offset & !mask != 0 || cols.iter().any(|&c| c & !mask != 0) {
            return Err(PermError::NotABijection {
                len: mask + 1,
                offender: offset | cols.iter().fold(0, |a, &c| a | c),
            });
        }
        if gf2_rank(&cols) != bits as usize {
            return Err(PermError::SingularMatrix { bits });
        }
        Ok(Bmmc { bits, cols, offset })
    }

    /// The identity map on `2^bits` indices.
    pub fn identity(bits: u32) -> Result<Self> {
        Self::from_cols((0..bits).map(|j| 1usize << j).collect(), 0)
    }

    /// Number of index bits (`log2` of the domain size).
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Domain size `2^bits`.
    #[inline]
    pub fn len(&self) -> usize {
        1usize << self.bits
    }

    /// True when the domain is the single index 0.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Image `M·e_j` of index bit `j` under the linear part.
    #[inline]
    pub fn col(&self, j: u32) -> usize {
        self.cols[j as usize]
    }

    /// The affine offset `b` (`dest(0)`).
    #[inline]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// True when the map is purely linear (`b = 0`).
    #[inline]
    pub fn is_linear(&self) -> bool {
        self.offset == 0
    }

    /// The linear part `M·x` (no offset).
    #[inline]
    pub fn apply_linear(&self, mut x: usize) -> usize {
        let mut out = 0;
        while x != 0 {
            out ^= self.cols[x.trailing_zeros() as usize];
            x &= x - 1;
        }
        out
    }

    /// The full map `M·x ⊕ b`.
    #[inline]
    pub fn apply(&self, x: usize) -> usize {
        self.apply_linear(x) ^ self.offset
    }

    /// Composition `self ∘ other`: the map sending `x` to
    /// `self.apply(other.apply(x))` — apply `other` first, like
    /// [`Permutation::compose`]. Computed as the matrix product
    /// `M_self · M_other` with offset `M_self·b_other ⊕ b_self`.
    ///
    /// # Panics
    ///
    /// Panics when the two maps have different bit widths.
    pub fn compose(&self, other: &Bmmc) -> Bmmc {
        assert_eq!(
            self.bits, other.bits,
            "cannot compose BMMC maps on different domains"
        );
        Bmmc {
            bits: self.bits,
            cols: other.cols.iter().map(|&c| self.apply_linear(c)).collect(),
            offset: self.apply(other.offset),
        }
    }

    /// The inverse map `x ↦ M⁻¹·(x ⊕ b)`, via Gauss–Jordan elimination
    /// over GF(2). Always succeeds: `M` is invertible by construction.
    pub fn inverse(&self) -> Bmmc {
        let b = self.bits as usize;
        // Row-reduce [M | I] column-wise: work[j] holds column j of M in the
        // low half and column j of the accumulating inverse in the high
        // half conceptually; easier as two parallel column sets.
        let mut m = self.cols.clone();
        let mut inv: Vec<usize> = (0..b).map(|j| 1usize << j).collect();
        // Forward elimination with column pivoting into position.
        for row in 0..b {
            let bit = 1usize << row;
            let pivot = (row..b)
                .find(|&j| m[j] & bit != 0)
                .expect("invertible matrix has a pivot in every row");
            m.swap(row, pivot);
            inv.swap(row, pivot);
            for j in 0..b {
                if j != row && m[j] & bit != 0 {
                    m[j] ^= m[row];
                    inv[j] ^= inv[row];
                }
            }
        }
        // Now m is the identity and inv holds M⁻¹'s columns.
        let offset = {
            let mut out = 0;
            let mut x = self.offset;
            while x != 0 {
                out ^= inv[x.trailing_zeros() as usize];
                x &= x - 1;
            }
            out
        };
        Bmmc {
            bits: self.bits,
            cols: inv,
            offset,
        }
    }

    /// True iff `p` is exactly this map (`p.apply(x) == self.apply(x)`
    /// for every `x`): one incremental Gray-style walk over the domain,
    /// allocation-free.
    pub fn realises(&self, p: &Permutation) -> bool {
        let map = p.as_slice();
        if map.len() != self.len() || map[0] != self.offset {
            return false;
        }
        let mut val = self.offset;
        map.iter().enumerate().skip(1).all(|(i, &dest)| {
            let mut changed = (i - 1) ^ i;
            while changed != 0 {
                val ^= self.cols[changed.trailing_zeros() as usize];
                changed &= changed - 1;
            }
            dest == val
        })
    }

    /// Materialize the map as a [`Permutation`] (destination convention:
    /// the returned table sends source index `i` to `self.apply(i)`).
    ///
    /// Walks the domain maintaining the image incrementally (each step
    /// XORs the columns of the bits that changed), so the fill is O(n)
    /// amortized rather than O(n log n).
    pub fn to_permutation(&self) -> Permutation {
        let n = self.len();
        let mut map = vec![0usize; n];
        let mut val = self.offset;
        for (i, slot) in map.iter_mut().enumerate() {
            if i > 0 {
                let mut changed = (i - 1) ^ i;
                while changed != 0 {
                    val ^= self.cols[changed.trailing_zeros() as usize];
                    changed &= changed - 1;
                }
            }
            *slot = val;
        }
        Permutation::from_vec_unchecked(map)
    }
}

/// Rank of a set of GF(2) column vectors (bit masks), by incremental
/// insertion into a leading-bit echelon basis.
pub(crate) fn gf2_rank(cols: &[usize]) -> usize {
    let mut basis: Vec<usize> = Vec::with_capacity(cols.len());
    let mut rank = 0;
    for &c in cols {
        let mut v = c;
        for &b in &basis {
            v = v.min(v ^ b);
        }
        if v != 0 {
            basis.push(v);
            // Keep the basis sorted descending by leading bit so the
            // reduction loop above always makes progress.
            basis.sort_unstable_by(|a, b| b.cmp(a));
            rank += 1;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_coords_roundtrip() {
        let s = MatrixShape::new(4, 8).unwrap();
        for i in 0..s.len() {
            let (r, c) = s.coords(i);
            assert_eq!(s.index(r, c), i);
        }
        assert_eq!(s.len(), 32);
        assert!(!s.is_empty());
    }

    #[test]
    fn transposed_swaps_dims() {
        let s = MatrixShape::new(4, 8).unwrap();
        let t = s.transposed();
        assert_eq!((t.rows, t.cols), (8, 4));
    }

    #[test]
    fn zero_dims_rejected() {
        assert!(MatrixShape::new(0, 5).is_err());
        assert!(MatrixShape::new(5, 0).is_err());
    }

    #[test]
    fn scheduled_shape_even_power() {
        // n = 2^20, w = 32: 1024 x 1024.
        let s = scheduled_shape(1 << 20, 32).unwrap();
        assert_eq!((s.rows, s.cols), (1024, 1024));
        assert!(s.tiles_by(32));
    }

    #[test]
    fn scheduled_shape_odd_power() {
        // n = 2^21: 1024 x 2048 (r <= c).
        let s = scheduled_shape(1 << 21, 32).unwrap();
        assert_eq!((s.rows, s.cols), (1024, 2048));
    }

    #[test]
    fn scheduled_shape_minimum_size() {
        // n = w^2 = 1024: 32 x 32 just tiles.
        let s = scheduled_shape(1024, 32).unwrap();
        assert_eq!((s.rows, s.cols), (32, 32));
        // n = 512 = 16 x 32: rows=16 not a multiple of 32.
        assert!(matches!(
            scheduled_shape(512, 32),
            Err(PermError::NoValidShape { .. })
        ));
    }

    #[test]
    fn scheduled_shape_rejects_non_power_of_two() {
        assert!(scheduled_shape(1000, 32).is_err());
        assert!(scheduled_shape(1024, 24).is_err());
    }

    #[test]
    fn tiles_by_edge_cases() {
        let s = MatrixShape::new(64, 64).unwrap();
        assert!(s.tiles_by(32));
        assert!(!s.tiles_by(48));
        assert!(!s.tiles_by(0));
    }

    #[test]
    fn bmmc_identity_and_offset() {
        let id = Bmmc::identity(4).unwrap();
        assert!(id.is_linear());
        for x in 0..16 {
            assert_eq!(id.apply(x), x);
        }
        // Pure-offset map: x ⊕ 0b101.
        let cols: Vec<usize> = (0..4).map(|j| 1usize << j).collect();
        let m = Bmmc::from_cols(cols, 0b101).unwrap();
        assert!(!m.is_linear());
        assert_eq!(m.apply(0), 0b101);
        assert_eq!(m.apply(0b101), 0);
        assert_eq!(m.offset(), 0b101);
        assert_eq!(m.len(), 16);
        assert!(!m.is_empty());
    }

    #[test]
    fn bmmc_rejects_singular_and_out_of_range() {
        // Two equal columns: singular.
        assert!(matches!(
            Bmmc::from_cols(vec![1, 1], 0),
            Err(PermError::SingularMatrix { bits: 2 })
        ));
        // Column with a bit outside the 2-bit domain.
        assert!(Bmmc::from_cols(vec![1, 4], 0).is_err());
        // Offset outside the domain.
        assert!(Bmmc::from_cols(vec![1, 2], 4).is_err());
    }

    #[test]
    fn bmmc_compose_matches_pointwise_composition() {
        // Bit-reversal then shuffle on 3 bits, composed both ways.
        let rev = Bmmc::from_cols(vec![4, 2, 1], 0).unwrap();
        let shuf = Bmmc::from_cols(vec![2, 4, 1], 0b011).unwrap();
        let c = shuf.compose(&rev);
        for x in 0..8 {
            assert_eq!(c.apply(x), shuf.apply(rev.apply(x)), "x = {x}");
        }
        let p = c.to_permutation();
        assert_eq!(p, shuf.to_permutation().compose(&rev.to_permutation()));
    }

    #[test]
    fn bmmc_inverse_round_trips() {
        let m = Bmmc::from_cols(vec![0b011, 0b110, 0b100], 0b010).unwrap();
        let inv = m.inverse();
        for x in 0..8 {
            assert_eq!(inv.apply(m.apply(x)), x);
            assert_eq!(m.apply(inv.apply(x)), x);
        }
        let composed = m.compose(&inv);
        assert_eq!(composed, Bmmc::identity(3).unwrap());
    }

    #[test]
    fn bmmc_to_permutation_matches_apply() {
        let m = Bmmc::from_cols(vec![0b0001, 0b0011, 0b0100, 0b1100], 0b0111).unwrap();
        let p = m.to_permutation();
        for x in 0..16 {
            assert_eq!(p.apply(x), m.apply(x));
        }
    }

    #[test]
    fn bmmc_zero_bits_domain() {
        let m = Bmmc::identity(0).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.apply(0), 0);
        assert_eq!(m.to_permutation().len(), 1);
    }

    #[test]
    fn gf2_rank_counts_independent_columns() {
        assert_eq!(gf2_rank(&[]), 0);
        assert_eq!(gf2_rank(&[0]), 0);
        assert_eq!(gf2_rank(&[1, 2, 4]), 3);
        assert_eq!(gf2_rank(&[1, 2, 3]), 2);
        assert_eq!(gf2_rank(&[0b111, 0b011, 0b100, 0b001]), 3);
    }
}

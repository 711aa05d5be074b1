//! Row-major `f32` matrices with the operations the NN stack needs.

use tango_types::TangoError;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major vector. Errors on length mismatch.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TangoError> {
        if data.len() != rows * cols {
            return Err(TangoError::NnShape(format!(
                "from_vec: {}x{} needs {} values, got {}",
                rows,
                cols,
                rows * cols,
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// A 1×n row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Matrix {
            rows: 1,
            cols,
            data,
        }
    }

    /// Element at (r, c).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Set element at (r, c).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Flat row-major view.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row, mutable.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · other` (rows×cols · cols×k). Panics on shape mismatch.
    ///
    /// Each output element starts at `+0.0` and adds `a[i][p]·b[p][j]`
    /// in ascending `p`, skipping terms whose `a[i][p] == 0.0`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        if self.rows <= 3 {
            return axpy_rows(self.rows, self.entries(), other);
        }
        let row = |i| self.row(i).iter().copied();
        gemm::<true, _>(self.rows, row, &pack(other), 0.0)
    }

    /// `selfᵀ · other`: the float sequence of [`Matrix::matmul`] on the
    /// transposed left operand (`+0.0`, ascending, zero terms skipped).
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul shape mismatch: {}x{} ᵀ· {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        if self.rows <= 3 {
            return axpy_rows(self.cols, self.entries().map(|(r, i, x)| (i, r, x)), other);
        }
        let column = |i| self.data.iter().skip(i).step_by(self.cols).copied();
        gemm::<true, _>(self.cols, column, &pack(other), 0.0)
    }

    /// `self · otherᵀ`. Each output element is the dot product of two
    /// rows as `Iterator::sum` folds it: it starts at `-0.0` and adds
    /// every term in ascending order, zero terms included.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t shape mismatch: {}x{} · {}x{}ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        if self.rows <= 3 {
            // A row or three (the critic's pooled row): packing `other`
            // would cost as much as the product, so take the dots directly.
            let mut out = Matrix::zeros(self.rows, other.rows);
            for i in 0..self.rows {
                for j in 0..other.rows {
                    let terms = self.row(i).iter().zip(other.row(j));
                    let dot = terms.fold(-0.0, |acc, (&a, &b)| acc + a * b);
                    out.set(i, j, dot);
                }
            }
            return out;
        }
        let row = |i| self.row(i).iter().copied();
        gemm::<false, _>(self.rows, row, &pack_t(other), -0.0)
    }

    /// Every `(row, column, value)`, row-major.
    fn entries(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        let rows = self.data.chunks_exact(self.cols.max(1)).enumerate();
        rows.flat_map(|(r, row)| row.iter().enumerate().map(move |(c, &x)| (r, c, x)))
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Element-wise sum; panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place element-wise add.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Add a row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(self.cols, bias.len());
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scale all elements.
    pub fn scale(&self, s: f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| a * s).collect(),
        }
    }

    /// Apply a function element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Mean of each column → 1×cols row vector.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
        }
        for r in 0..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                out.data[c] += v;
            }
        }
        let inv = 1.0 / self.rows as f32;
        for v in &mut out.data {
            *v *= inv;
        }
        out
    }

    /// Row-wise numerically stable softmax.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }
}

/// `out[i] += x · b[p]` for every `(i, p, x)` with `x != 0.0`, into a
/// zeroed `m×b.cols` output: the [`Matrix::matmul`] float sequence as
/// long as each `i`'s terms come in ascending `p`. Serves left operands
/// of 1–3 rows, where packing `b` or setting up a strip per output row
/// would cost as much as the product (the critic's pooled row).
fn axpy_rows(m: usize, terms: impl Iterator<Item = (usize, usize, f32)>, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m, b.cols);
    for (i, p, x) in terms.filter(|&(_, _, x)| x != 0.0) {
        for (o, &y) in out.row_mut(i).iter_mut().zip(b.row(p)) {
            *o += x * y;
        }
    }
    out
}

/// A `k×n` right-hand operand in strip-major order: the columns of
/// each strip (see [`strips_of`]) form one contiguous `k×w` block, so a
/// strip's panel has unit stride whatever `n` is.
struct Packed {
    k: usize,
    n: usize,
    data: Vec<f32>,
}

/// Pack `b` as the right-hand operand.
fn pack(b: &Matrix) -> Packed {
    let mut data = Vec::with_capacity(b.rows * b.cols);
    for (j0, w) in strips_of(b.cols) {
        for row in b.data.chunks_exact(b.cols) {
            data.extend_from_slice(&row[j0..j0 + w]);
        }
    }
    Packed {
        k: b.rows,
        n: b.cols,
        data,
    }
}

/// Pack `bᵀ` as the right-hand operand.
fn pack_t(b: &Matrix) -> Packed {
    let mut data = Vec::with_capacity(b.rows * b.cols);
    for (j0, w) in strips_of(b.rows) {
        let rows = &b.data[j0 * b.cols..(j0 + w) * b.cols];
        for p in 0..b.cols {
            data.extend(rows.iter().skip(p).step_by(b.cols));
        }
    }
    Packed {
        k: b.cols,
        n: b.rows,
        data,
    }
}

/// `(first column, width)` of each strip over `n` output columns: 32
/// wide, then narrower strips for the remainder.
fn strips_of(n: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut j0 = 0;
    std::iter::from_fn(move || {
        let w = match n - j0 {
            0 => return None,
            32.. => 32,
            16.. => 16,
            8.. => 8,
            4.. => 4,
            _ => 1,
        };
        j0 += w;
        Some((j0 - w, w))
    })
}

/// `init + Σ_p a[i][p]·b[p][j]` for every output element, `p`
/// ascending; with `SKIP`, terms whose `a[i][p] == 0.0` are left out.
/// `a(i)` yields row `i` of the `m×k` left operand.
///
/// Each chunk of output rows first lists its rows' terms `(p, a[i][p])`
/// (so the zero test is paid once per term, not once per strip). Then,
/// one strip at a time, a strip of one output row stays in registers
/// while its terms run, and every inner loop is a contiguous axpy over
/// the strip's panel, which stays cache-hot while the chunk's rows
/// stream past it. Output rows are independent, so they fan out over the
/// global pool; no element's float sequence depends on the partition,
/// hence bit-identical results at any thread count.
fn gemm<const SKIP: bool, R: Iterator<Item = f32>>(
    m: usize,
    a: impl Fn(usize) -> R + Sync,
    b: &Packed,
    init: f32,
) -> Matrix {
    let n = b.n;
    let mut out = Matrix::zeros(m, n);
    let pool = tango_par::global().limit(m * b.k * n, 1 << 17);
    pool.par_chunks_mut(&mut out.data, n, |first_row, out_rows| {
        let mut ends = Vec::with_capacity(out_rows.len() / n);
        let mut terms = Vec::new();
        for i in first_row..first_row + out_rows.len() / n {
            terms.extend(a(i).enumerate().filter(|&(_, x)| !(SKIP && x == 0.0)));
            ends.push(terms.len());
        }
        for (j0, w) in strips_of(n) {
            let panel = &b.data[j0 * b.k..(j0 + w) * b.k];
            let strip: Strip = match w {
                32 => strip::<32>,
                16 => strip::<16>,
                8 => strip::<8>,
                4 => strip::<4>,
                _ => strip::<1>,
            };
            strip(&terms, &ends, panel, init, out_rows, n, j0);
        }
    });
    out
}

/// [`strip`] at one width.
type Strip = fn(&[(usize, f32)], &[usize], &[f32], f32, &mut [f32], usize, usize);

/// Columns `j0..j0 + W` of every row of an output chunk (row stride
/// `n`) from the strip's `k×W` panel. Row `r`'s terms are
/// `terms[ends[r - 1]..ends[r]]`.
fn strip<const W: usize>(
    terms: &[(usize, f32)],
    ends: &[usize],
    panel: &[f32],
    init: f32,
    out_rows: &mut [f32],
    n: usize,
    j0: usize,
) {
    let mut start = 0;
    for (out_row, &end) in out_rows.chunks_exact_mut(n).zip(ends) {
        let mut acc = [init; W];
        for &(p, x) in &terms[start..end] {
            let bs: &[f32; W] = panel[p * W..(p + 1) * W].try_into().expect("W columns");
            for (o, &y) in acc.iter_mut().zip(bs) {
                *o += x * y;
            }
        }
        out_row[j0..j0 + W].copy_from_slice(&acc);
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_variants_agree() {
        let a = m(2, 3, &[1.0, -2.0, 3.0, 0.5, 4.0, -1.0]);
        let b = m(2, 4, &[2.0, 0.0, 1.0, -1.0, 3.0, 1.0, 0.0, 2.0]);
        // aᵀ·b  via t_matmul vs explicit transpose
        let t1 = a.t_matmul(&b);
        let t2 = a.transpose().matmul(&b);
        assert_eq!(t1, t2);
        // a·cᵀ via matmul_t vs explicit
        let c = m(
            4,
            3,
            &[1.0, 0.0, 2.0, 0.0, 1.0, 0.0, 2.0, 2.0, 2.0, -1.0, 0.0, 1.0],
        );
        let u1 = a.matmul_t(&c);
        let u2 = a.matmul(&c.transpose());
        assert_eq!(u1, u2);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.map(|x| x * x).as_slice(), &[1.0, 4.0, 9.0]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.as_slice(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn bias_broadcast_adds_to_each_row() {
        let mut a = Matrix::zeros(2, 2);
        a.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn mean_rows_averages() {
        let a = m(2, 2, &[1.0, 10.0, 3.0, 20.0]);
        let mu = a.mean_rows();
        assert_eq!(mu.as_slice(), &[2.0, 15.0]);
        // empty matrix -> zeros
        let e = Matrix::zeros(0, 3);
        assert_eq!(e.mean_rows().as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn softmax_rows_is_a_distribution_and_stable() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // big logits don't overflow
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
        // ordering preserved
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn norm_is_frobenius() {
        let a = m(1, 2, &[3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    /// The exact float sequence of [`Matrix::matmul`]: `+0.0`, then
    /// `a[i][p]·b[p][j]` for ascending `p`, skipping `a[i][p] == 0.0`.
    fn ref_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for j in 0..b.cols {
                let mut acc = 0.0f32;
                for p in 0..a.cols {
                    if a.get(i, p) != 0.0 {
                        acc += a.get(i, p) * b.get(p, j);
                    }
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// The exact float sequence of [`Matrix::t_matmul`]: `+0.0`, then
    /// `a[r][i]·b[r][j]` for ascending `r`, skipping `a[r][i] == 0.0`.
    fn ref_t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols, b.cols);
        for i in 0..a.cols {
            for j in 0..b.cols {
                let mut acc = 0.0f32;
                for r in 0..a.rows {
                    if a.get(r, i) != 0.0 {
                        acc += a.get(r, i) * b.get(r, j);
                    }
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// The exact float sequence of [`Matrix::matmul_t`]: `-0.0`, then
    /// every `a[i][p]·b[j][p]` for ascending `p`.
    fn ref_matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.rows);
        for i in 0..a.rows {
            for j in 0..b.rows {
                let mut acc = -0.0f32;
                for p in 0..a.cols {
                    acc += a.get(i, p) * b.get(j, p);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(
            (got.rows, got.cols),
            (want.rows, want.cols),
            "{what}: shape"
        );
        for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{idx}]: {g} vs {w}");
        }
    }

    /// A seeded `rows×cols` matrix in the shapes the kernels meet: row
    /// `r % 4 == 1` is ReLU-sparse (about half exact zeros), row
    /// `r % 4 == 2` is all `-0.0` and `+0.0`, the rest are dense with
    /// scattered `-0.0` entries.
    fn awkward(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / 16_777_216.0 - 0.5
        };
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let v = next();
                let v = match r % 4 {
                    1 => v.max(0.0),
                    2 if c % 2 == 0 => -0.0,
                    2 => 0.0,
                    _ if c % 7 == 3 => -0.0,
                    _ => v,
                };
                m.set(r, c, v);
            }
        }
        m
    }

    /// All three kernels equal their reference float sequences bit for
    /// bit, over empty, one-row, few-row and wide shapes, strip widths
    /// on and around 32, and inputs with signed zeros. Depth index 1 of
    /// the right operand is infinite, so a kernel that multiplied a
    /// zero left term instead of skipping it would produce NaN.
    #[test]
    fn kernels_match_their_float_sequences_bitwise() {
        for m in [0usize, 1, 3, 183] {
            for k in [0usize, 1, 16, 256] {
                for n in [1usize, 31, 32, 33, 257] {
                    let a = awkward(m, k, (m * 1000 + k) as u64);
                    let mut b = awkward(k, n, (k * 1000 + n + 7) as u64);
                    if k > 1 {
                        b.row_mut(1).fill(f32::INFINITY);
                    }
                    let what = format!("{m}x{k}·{k}x{n}");
                    assert_bits_eq(
                        &a.matmul(&b),
                        &ref_matmul(&a, &b),
                        &format!("matmul {what}"),
                    );
                    let at = awkward(k, m, (m * 31 + k) as u64);
                    assert_bits_eq(
                        &at.t_matmul(&b),
                        &ref_t_matmul(&at, &b),
                        &format!("t_matmul {what}"),
                    );
                    let mut bt = awkward(n, k, (n * 31 + k + 3) as u64);
                    if k > 1 {
                        (0..n).for_each(|j| bt.set(j, 1, f32::INFINITY));
                    }
                    assert_bits_eq(
                        &a.matmul_t(&bt),
                        &ref_matmul_t(&a, &bt),
                        &format!("matmul_t {what}"),
                    );
                }
            }
        }
    }

    /// With nothing to add, `matmul` and `t_matmul` give `+0.0` and
    /// `matmul_t` gives `-0.0`, the neutral element of `Iterator::sum`.
    #[test]
    fn empty_depth_gives_the_initial_zero() {
        for m in [1usize, 3, 5] {
            let a = Matrix::zeros(m, 0);
            assert!(a
                .matmul(&Matrix::zeros(0, 4))
                .as_slice()
                .iter()
                .all(|v| v.to_bits() == 0));
            assert!(Matrix::zeros(0, m)
                .t_matmul(&Matrix::zeros(0, 4))
                .as_slice()
                .iter()
                .all(|v| v.to_bits() == 0));
            let t = a.matmul_t(&Matrix::zeros(4, 0));
            assert!(t
                .as_slice()
                .iter()
                .all(|v| v.to_bits() == (-0.0f32).to_bits()));
        }
    }

    /// No element's float sequence depends on how rows are chunked, so
    /// any thread count must match the single-thread result bit for bit
    /// (the tango-par determinism contract).
    #[test]
    fn kernels_are_thread_count_invariant() {
        let a = awkward(67, 130, 11);
        let b = awkward(130, 41, 12);
        let c = awkward(67, 41, 13);
        let run = || (a.matmul(&b), a.t_matmul(&c), a.matmul_t(&b.transpose()));
        let saved = tango_par::threads();
        tango_par::set_threads(1);
        let (m1, t1, u1) = run();
        for t in [2usize, 4, 8] {
            tango_par::set_threads(t);
            let (mt, tt, ut) = run();
            assert_bits_eq(&mt, &m1, &format!("matmul, threads = {t}"));
            assert_bits_eq(&tt, &t1, &format!("t_matmul, threads = {t}"));
            assert_bits_eq(&ut, &u1, &format!("matmul_t, threads = {t}"));
        }
        tango_par::set_threads(saved);
    }
}

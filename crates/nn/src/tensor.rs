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
        self.matmul_on(Kernel::detect(), other)
    }

    /// [`Matrix::matmul`] with its strips on `kernel`.
    fn matmul_on(&self, kernel: Kernel, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        if self.rows <= 3 {
            axpy_rows(&mut out, self.entries(), other);
        } else {
            let row = |i| self.row(i).iter().copied();
            gemm::<true, _>(kernel, row, &pack(other), 0.0, &mut out.data);
        }
        out
    }

    /// `selfᵀ · other`: the float sequence of [`Matrix::matmul`] on the
    /// transposed left operand (`+0.0`, ascending, zero terms skipped).
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.t_matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::t_matmul`] written over `out`, which takes the
    /// product's shape and keeps its buffer: every element is
    /// overwritten, whatever `out` held before.
    pub(crate) fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.t_matmul_on(Kernel::detect(), other, out);
    }

    /// [`Matrix::t_matmul_into`] with its strips on `kernel`.
    fn t_matmul_on(&self, kernel: Kernel, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul shape mismatch: {}x{} ᵀ· {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        (out.rows, out.cols) = (self.cols, other.cols);
        out.data.resize(self.cols * other.cols, 0.0);
        if self.rows <= 3 {
            out.data.fill(0.0);
            axpy_rows(out, self.entries().map(|(r, i, x)| (i, r, x)), other);
            return;
        }
        let column = |i| self.data.iter().skip(i).step_by(self.cols).copied();
        gemm::<true, _>(kernel, column, &pack(other), 0.0, &mut out.data);
    }

    /// `self · otherᵀ`. Each output element is the dot product of two
    /// rows as `Iterator::sum` folds it: it starts at `-0.0` and adds
    /// every term in ascending order, zero terms included.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        self.matmul_t_on(Kernel::detect(), other)
    }

    /// [`Matrix::matmul_t`] with its strips on `kernel`.
    fn matmul_t_on(&self, kernel: Kernel, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t shape mismatch: {}x{} · {}x{}ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        if self.rows <= 3 {
            // A row or three (the critic's pooled row): packing `other`
            // would cost as much as the product, so take the dots
            // directly, eight at a time so that their chains overlap.
            for i in 0..self.rows {
                let a = self.row(i);
                for (j0, dots) in (0..).step_by(8).zip(out.row_mut(i).chunks_mut(8)) {
                    if let Ok(dots) = <&mut [f32; 8]>::try_from(&mut *dots) {
                        *dots = interleaved_dots(a, other, j0);
                    } else {
                        for (j, d) in (j0..).zip(dots) {
                            [*d] = interleaved_dots(a, other, j);
                        }
                    }
                }
            }
        } else {
            let row = |i| self.row(i).iter().copied();
            gemm::<false, _>(kernel, row, &pack_t(other), -0.0, &mut out.data);
        }
        out
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
/// zeroed output of `b.cols` columns: the [`Matrix::matmul`] float
/// sequence as long as each `i`'s terms come in ascending `p`. Serves
/// left operands of 1–3 rows, where packing `b` or setting up a strip
/// per output row would cost as much as the product (the critic's
/// pooled row).
fn axpy_rows(out: &mut Matrix, terms: impl Iterator<Item = (usize, usize, f32)>, b: &Matrix) {
    for (i, p, x) in terms.filter(|&(_, _, x)| x != 0.0) {
        for (o, &y) in out.row_mut(i).iter_mut().zip(b.row(p)) {
            *o += x * y;
        }
    }
}

/// The dots of `a` with rows `j0..j0 + C` of `b`, each folded like
/// `Iterator::sum`: `-0.0`, then every term in ascending order. The `C`
/// chains advance together, so an add waits only on its own chain.
fn interleaved_dots<const C: usize>(a: &[f32], b: &Matrix, j0: usize) -> [f32; C] {
    let rows: [&[f32]; C] = std::array::from_fn(|c| &b.row(j0 + c)[..a.len()]);
    let mut acc = [-0.0; C];
    for (p, &x) in a.iter().enumerate() {
        for (o, row) in acc.iter_mut().zip(rows) {
            *o += x * row[p];
        }
    }
    acc
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

/// Output rows per block: [`gemm`] lists one block's terms at a time.
const ROW_BLOCK: usize = 8;

/// `init + Σ_p a[i][p]·b[p][j]` for every element of the row-major
/// output `out` (row length `b.n`), `p` ascending; with `SKIP`, terms
/// whose `a[i][p] == 0.0` are left out. `a(i)` yields row `i` of the
/// left operand. Every element is overwritten.
///
/// Output rows go in blocks of [`ROW_BLOCK`]. A block first lists its
/// rows' terms `(p, a[i][p])` into one buffer, reused for every block
/// and written without a branch: each term is stored, and the write
/// position moves past it unless it is skipped, so the zero test is paid
/// once per term, not once per strip. Then every strip (see
/// [`strips_of`]) runs over the block while its terms sit in L1: a strip
/// of one output row stays in registers while its terms run, and every
/// inner loop is a contiguous axpy over the strip's panel. The strip
/// loop runs on `kernel`, [`Kernel::detect`]'s choice outside the tests;
/// both builds give each element the same float sequence.
fn gemm<const SKIP: bool, R: Iterator<Item = f32>>(
    kernel: Kernel,
    a: impl Fn(usize) -> R,
    b: &Packed,
    init: f32,
    out: &mut [f32],
) {
    let n = b.n;
    assert!(u32::try_from(b.k).is_ok(), "depth overflows the term index");
    if out.is_empty() {
        return;
    }
    let mut terms = vec![(0, 0.0); ROW_BLOCK * b.k];
    let mut ends = [0; ROW_BLOCK];
    for (block, i0) in out.chunks_mut(ROW_BLOCK * n).zip((0..).step_by(ROW_BLOCK)) {
        let ends = &mut ends[..block.len() / n];
        let mut l = 0;
        for (i, end) in (i0..).zip(ends.iter_mut()) {
            for (p, x) in a(i).enumerate() {
                terms[l] = (p as u32, x);
                l += usize::from(!(SKIP && x == 0.0));
            }
            *end = l;
        }
        kernel.strips(&terms, ends, b, init, block);
    }
}

/// Which build of the strip loop a product runs. Both compile the one
/// [`strips`] body and give every output element the same float
/// sequence: AVX2 adds wider registers, and with no `fma` enabled (and
/// no `mul_add` written) each lane still rounds its product and its sum
/// apart, as the scalar loop does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// Built for the compilation target (SSE2 on a default x86_64 build).
    Generic,
    /// Built with AVX2 enabled (eight `f32` lanes per register).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// The widest build the running CPU supports.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Generic
    }

    /// Run every strip of one row block on this build.
    fn strips(
        self,
        terms: &[(u32, f32)],
        ends: &[usize],
        b: &Packed,
        init: f32,
        block: &mut [f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if self == Kernel::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `strips_avx2` is `strips` compiled with the `avx2`
            // target feature and nothing else, and the guard has just
            // found that feature on the running CPU, so no instruction
            // it may contain is unsupported.
            return unsafe { strips_avx2(terms, ends, b, init, block) };
        }
        strips(terms, ends, b, init, block);
    }
}

/// [`strips`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn strips_avx2(terms: &[(u32, f32)], ends: &[usize], b: &Packed, init: f32, block: &mut [f32]) {
    strips(terms, ends, b, init, block);
}

/// Columns of every strip of a row block (row stride `b.n`): the one
/// body behind both [`Kernel`] builds. Row `r`'s terms are
/// `terms[ends[r - 1]..ends[r]]`.
#[inline(always)]
fn strips(terms: &[(u32, f32)], ends: &[usize], b: &Packed, init: f32, block: &mut [f32]) {
    for (j0, w) in strips_of(b.n) {
        let panel = &b.data[j0 * b.k..(j0 + w) * b.k];
        match w {
            32 => strip::<32>(terms, ends, panel, init, block, b.n, j0),
            16 => strip::<16>(terms, ends, panel, init, block, b.n, j0),
            8 => strip::<8>(terms, ends, panel, init, block, b.n, j0),
            4 => strip::<4>(terms, ends, panel, init, block, b.n, j0),
            _ => strip::<1>(terms, ends, panel, init, block, b.n, j0),
        }
    }
}

/// Columns `j0..j0 + W` of every row of a block (row stride `n`) from
/// the strip's `k×W` panel.
#[inline(always)]
fn strip<const W: usize>(
    terms: &[(u32, f32)],
    ends: &[usize],
    panel: &[f32],
    init: f32,
    block: &mut [f32],
    n: usize,
    j0: usize,
) {
    let mut start = 0;
    for (out_row, &end) in block.chunks_exact_mut(n).zip(ends) {
        let mut acc = [init; W];
        for &(p, x) in &terms[start..end] {
            let p = p as usize;
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

    /// A seeded `rows×cols` matrix: `shape(r, c, v)` gives element
    /// `(r, c)` from a uniform draw `v` in `[-0.5, 0.5)`.
    fn seeded(
        rows: usize,
        cols: usize,
        seed: u64,
        shape: impl Fn(usize, usize, f32) -> f32,
    ) -> Matrix {
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
                m.set(r, c, shape(r, c, next()));
            }
        }
        m
    }

    /// A seeded `rows×cols` matrix in the shapes the kernels meet: row
    /// `r % 4 == 1` is ReLU-sparse (about half exact zeros), row
    /// `r % 4 == 2` is all `-0.0` and `+0.0`, the rest are dense with
    /// scattered `-0.0` entries.
    fn awkward(rows: usize, cols: usize, seed: u64) -> Matrix {
        seeded(rows, cols, seed, |r, c, v| match r % 4 {
            1 => v.max(0.0),
            2 if c % 2 == 0 => -0.0,
            2 => 0.0,
            _ if c % 7 == 3 => -0.0,
            _ => v,
        })
    }

    /// A seeded dense `rows×cols` matrix whose rows `r % 8 == 5` are all
    /// `-0.0` and `+0.0`: an all-zero row inside each row block of dense
    /// ones.
    fn zero_row_in_dense(rows: usize, cols: usize, seed: u64) -> Matrix {
        seeded(rows, cols, seed, |r, c, v| match (r % 8, c % 2) {
            (5, 0) => -0.0,
            (5, _) => 0.0,
            _ => v,
        })
    }

    /// Every build of the strip loop this host runs: the generic one,
    /// and AVX2 where the CPU has it. Prints which ones `test` runs.
    fn kernels(test: &str) -> Vec<Kernel> {
        let mut kernels = vec![Kernel::Generic];
        if Kernel::detect() != Kernel::Generic {
            kernels.push(Kernel::detect());
        }
        println!("{test}: kernel builds {kernels:?}");
        kernels
    }

    /// All three kernels equal their reference float sequences bit for
    /// bit on every build, over empty, one-row, few-row and wide shapes,
    /// row counts on both sides of the row block, strip widths on and
    /// around 32, and inputs with signed zeros. Depth index 1 of the
    /// right operand is infinite, so a kernel that multiplied a zero
    /// left term instead of skipping it would produce NaN. The shapes
    /// around the row block also run with all-zero output rows inside
    /// blocks of dense ones, and `t_matmul_into` writes over a
    /// NaN-filled buffer of the wrong shape.
    #[test]
    fn kernels_match_their_float_sequences_bitwise() {
        let kernels = kernels("kernels_match_their_float_sequences_bitwise");
        for m in [0usize, 1, 3, 7, 8, 9, 17, 183] {
            for k in [0usize, 1, 16, 256] {
                for n in [1usize, 31, 32, 33, 257] {
                    let mut b = awkward(k, n, (k * 1000 + n + 7) as u64);
                    if k > 1 {
                        b.row_mut(1).fill(f32::INFINITY);
                    }
                    let mut bt = awkward(n, k, (n * 31 + k + 3) as u64);
                    if k > 1 {
                        (0..n).for_each(|j| bt.set(j, 1, f32::INFINITY));
                    }
                    let mut lefts = vec![(
                        awkward(m, k, (m * 1000 + k) as u64),
                        awkward(k, m, (m * 31 + k) as u64),
                    )];
                    if (7..=17).contains(&m) {
                        lefts.push((
                            zero_row_in_dense(m, k, (m * 1000 + k) as u64),
                            zero_row_in_dense(m, k, (m * 31 + k) as u64).transpose(),
                        ));
                    }
                    for (a, at) in &lefts {
                        let want_mm = ref_matmul(a, &b);
                        let want_tm = ref_t_matmul(at, &b);
                        let want_mt = ref_matmul_t(a, &bt);
                        let what = format!("{m}x{k}·{k}x{n}");
                        assert_bits_eq(&a.matmul(&b), &want_mm, &format!("matmul {what}"));
                        assert_bits_eq(&at.t_matmul(&b), &want_tm, &format!("t_matmul {what}"));
                        assert_bits_eq(&a.matmul_t(&bt), &want_mt, &format!("matmul_t {what}"));
                        for &kernel in &kernels {
                            let what = format!("{what} on {kernel:?}");
                            let mm = a.matmul_on(kernel, &b);
                            assert_bits_eq(&mm, &want_mm, &format!("matmul {what}"));
                            let mut tm = Matrix::from_vec(2, 3, vec![f32::NAN; 6]).unwrap();
                            at.t_matmul_on(kernel, &b, &mut tm);
                            assert_bits_eq(&tm, &want_tm, &format!("t_matmul_into {what}"));
                            let mt = a.matmul_t_on(kernel, &bt);
                            assert_bits_eq(&mt, &want_mt, &format!("matmul_t {what}"));
                        }
                    }
                }
            }
        }
    }

    /// With nothing to add, `matmul` and `t_matmul` give `+0.0` and
    /// `matmul_t` gives `-0.0`, the neutral element of `Iterator::sum`,
    /// on every build.
    #[test]
    fn empty_depth_gives_the_initial_zero() {
        for kernel in kernels("empty_depth_gives_the_initial_zero") {
            for m in [1usize, 3, 5, 9] {
                let a = Matrix::zeros(m, 0);
                assert!(a
                    .matmul_on(kernel, &Matrix::zeros(0, 4))
                    .as_slice()
                    .iter()
                    .all(|v| v.to_bits() == 0));
                let mut t = Matrix::from_vec(1, 1, vec![f32::NAN]).unwrap();
                Matrix::zeros(0, m).t_matmul_on(kernel, &Matrix::zeros(0, 4), &mut t);
                assert_eq!((t.rows, t.cols), (m, 4));
                assert!(t.as_slice().iter().all(|v| v.to_bits() == 0));
                let t = a.matmul_t_on(kernel, &Matrix::zeros(4, 0));
                assert!(t
                    .as_slice()
                    .iter()
                    .all(|v| v.to_bits() == (-0.0f32).to_bits()));
            }
        }
    }
}

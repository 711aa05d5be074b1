//! A fully-connected layer with manual backprop.

use crate::init::he_normal;
use crate::tensor::{Matrix, Packed};
use std::cell::OnceCell;
use tango_simcore::SimRng;

/// `y = x·W + b` with cached activations for the backward pass.
///
/// The layer keeps `W` and `Wᵀ` packed for the product kernel, each
/// built on its first use after a write, so weights that change once
/// per optimiser step are packed once per step, not once per product.
/// `W` is private so that every write goes through a method that drops
/// both packs: a stale pack would give wrong products and raise no
/// error.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weights, `in_dim × out_dim`.
    w: Matrix,
    /// Bias, length `out_dim`.
    pub b: Vec<f32>,
    /// ∂L/∂W accumulated by `backward`.
    pub grad_w: Matrix,
    /// ∂L/∂b accumulated by `backward`.
    pub grad_b: Vec<f32>,
    cached_input: Option<Matrix>,
    /// `W` packed as a right operand, for the forward product.
    packed_w: OnceCell<Packed>,
    /// `Wᵀ` packed as a right operand, for ∂X.
    packed_wt: OnceCell<Packed>,
}

impl Linear {
    /// He-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut SimRng) -> Self {
        Linear {
            w: he_normal(in_dim, out_dim, rng),
            b: vec![0.0; out_dim],
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: vec![0.0; out_dim],
            cached_input: None,
            packed_w: OnceCell::new(),
            packed_wt: OnceCell::new(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols
    }

    /// Weights, `in_dim × out_dim`.
    pub fn w(&self) -> &Matrix {
        &self.w
    }

    /// Weights, to write. Drops the packs; the next product rebuilds them.
    pub fn w_mut(&mut self) -> &mut Matrix {
        self.packed_w.take();
        self.packed_wt.take();
        &mut self.w
    }

    /// Forward pass on a batch (`batch × in_dim`), caching the input.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let y = self.forward_inference(x);
        let cached = self.cached_input.get_or_insert_with(|| Matrix::zeros(0, 0));
        cached.copy_from(x);
        y
    }

    /// Forward without caching (inference only).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols, self.w.rows, "linear forward dim mismatch");
        let mut y = x.matmul(self.packed_w.get_or_init(|| Packed::new(&self.w)));
        y.add_row_broadcast(&self.b);
        y
    }

    /// Backward pass: given ∂L/∂y, accumulate ∂L/∂W and ∂L/∂b and return
    /// ∂L/∂x. Must follow a `forward` call.
    ///
    /// ∂X = ∂Y·Wᵀ runs on the cached `Wᵀ` pack with the forward
    /// product's float sequence: `+0.0`, ascending, zero ∂Y terms
    /// skipped. That equals adding every term from `-0.0`, as
    /// `Iterator::sum` does, in every element but an all-zero one, whose
    /// zero may change sign: a `±0` product added to a nonzero partial
    /// sum leaves it unchanged, and a zero partial sum plus a nonzero
    /// term is that term. (A `0·∞` term, were a weight ever infinite,
    /// would give NaN only in the every-term sum.) No consumer tells
    /// `+0` from `-0`: ReLU masks multiply, the next ∂X skips zeros, and
    /// `grad_w`, `grad_b` and the encoder's aggregation transpose start
    /// at `+0.0`, which `±0` terms never change.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        self.accumulate_grads(grad_out);
        self.grad_input(grad_out)
    }

    /// The parameter half of [`Linear::backward`], for a layer whose
    /// ∂L/∂x nothing reads (a first layer: its input has no parameters).
    /// Adds ∂L/∂W = xᵀ·∂Y and ∂L/∂b, the column sums of ∂Y, to the
    /// gradients; each element of `grad_w` takes its call's whole sum in
    /// one add. Must follow a `forward` call.
    pub fn accumulate_grads(&mut self, grad_out: &Matrix) {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        assert_eq!(grad_out.rows, x.rows, "batch size mismatch in backward");
        x.add_t_matmul(grad_out, &mut self.grad_w);
        for r in 0..grad_out.rows {
            for (b, &g) in self.grad_b.iter_mut().zip(grad_out.row(r)) {
                *b += g;
            }
        }
    }

    /// The input half of [`Linear::backward`]: ∂L/∂x = ∂Y·Wᵀ.
    pub fn grad_input(&self, grad_out: &Matrix) -> Matrix {
        grad_out.matmul(self.packed_wt.get_or_init(|| Packed::transposed(&self.w)))
    }

    /// The input cached by the last [`Linear::forward`].
    pub(crate) fn cached_input(&self) -> &Matrix {
        self.cached_input
            .as_ref()
            .expect("backward called before forward")
    }

    /// Clear accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.as_mut_slice().fill(0.0);
        self.grad_b.fill(0.0);
    }

    /// (parameter, gradient) slices for the optimizer: weights then bias.
    /// Drops the packs, as [`Linear::w_mut`] does.
    pub fn params_and_grads(&mut self) -> [(&mut [f32], &[f32]); 2] {
        self.w_mut();
        let Linear {
            w,
            b,
            grad_w,
            grad_b,
            ..
        } = self;
        [
            (w.as_mut_slice(), grad_w.as_slice()),
            (b.as_mut_slice(), grad_b.as_slice()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of dW, db and dX.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SimRng::new(11);
        let mut layer = Linear::new(4, 3, &mut rng);
        let x = Matrix::from_vec(2, 4, vec![0.5, -1.0, 2.0, 0.1, 1.5, 0.3, -0.7, 0.9]).unwrap();

        // loss = sum(y^2)/2 so dL/dy = y
        let loss = |layer: &Linear, x: &Matrix| -> f64 {
            let y = layer.forward_inference(x);
            y.as_slice()
                .iter()
                .map(|&v| (v as f64).powi(2))
                .sum::<f64>()
                / 2.0
        };

        let y = layer.forward(&x);
        let grad_in = layer.backward(&y);

        let eps = 1e-3f32;
        // check dW entries
        for idx in [0usize, 5, 11] {
            let orig = layer.w().as_slice()[idx];
            layer.w_mut().as_mut_slice()[idx] = orig + eps;
            let lp = loss(&layer, &x);
            layer.w_mut().as_mut_slice()[idx] = orig - eps;
            let lm = loss(&layer, &x);
            layer.w_mut().as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps as f64);
            let ana = layer.grad_w.as_slice()[idx] as f64;
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "dW[{idx}]: num {num} vs ana {ana}"
            );
        }
        // check db entries
        for idx in 0..3 {
            let orig = layer.b[idx];
            layer.b[idx] = orig + eps;
            let lp = loss(&layer, &x);
            layer.b[idx] = orig - eps;
            let lm = loss(&layer, &x);
            layer.b[idx] = orig;
            let num = (lp - lm) / (2.0 * eps as f64);
            let ana = layer.grad_b[idx] as f64;
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "db[{idx}]: num {num} vs ana {ana}"
            );
        }
        // check dX entries
        let mut x2 = x.clone();
        for idx in [0usize, 3, 7] {
            let orig = x2.as_slice()[idx];
            x2.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&layer, &x2);
            x2.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&layer, &x2);
            x2.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps as f64);
            let ana = grad_in.as_slice()[idx] as f64;
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "dX[{idx}]: num {num} vs ana {ana}"
            );
        }
    }

    #[test]
    fn forward_inference_matches_forward() {
        let mut rng = SimRng::new(3);
        let mut layer = Linear::new(5, 2, &mut rng);
        let x = Matrix::from_vec(1, 5, vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(layer.forward(&x), layer.forward_inference(&x));
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = SimRng::new(7);
        let mut layer = Linear::new(2, 2, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]).unwrap();
        let g = Matrix::from_vec(1, 2, vec![1.0, 1.0]).unwrap();
        layer.forward(&x);
        layer.backward(&g);
        let once = layer.grad_w.as_slice().to_vec();
        layer.forward(&x);
        layer.backward(&g);
        for (a, b) in layer.grad_w.as_slice().iter().zip(&once) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
        layer.zero_grad();
        assert!(layer.grad_w.as_slice().iter().all(|&v| v == 0.0));
        assert!(layer.grad_b.iter().all(|&v| v == 0.0));
    }

    /// `backward` adds each call's whole `xᵀ·dY` to `grad_w`, one add
    /// per element per call, whatever the batch size.
    #[test]
    fn backward_adds_each_calls_product_once() {
        let mut rng = SimRng::new(5);
        let mut layer = Linear::new(6, 4, &mut rng);
        let mut want = Matrix::zeros(6, 4);
        for (rows, seed) in [(5usize, 1u64), (1, 2), (9, 3)] {
            let mut r = SimRng::new(seed);
            let mut draw = |cols| {
                let v = (0..rows * cols).map(|_| r.standard_normal() as f32);
                Matrix::from_vec(rows, cols, v.collect()).unwrap()
            };
            let (x, g) = (draw(6), draw(4));
            layer.forward(&x);
            layer.backward(&g);
            want.add_assign(&x.transpose().matmul(&Packed::new(&g)));
            let (got, want) = (layer.grad_w.as_slice(), want.as_slice());
            assert!(got
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    /// After a write through `params_and_grads` or `w_mut`, the layer's
    /// products equal those of a fresh layer holding the same weights,
    /// which has never packed: no product runs on a stale pack.
    #[test]
    fn writes_drop_the_packs() {
        let mut rng = SimRng::new(13);
        let mut layer = Linear::new(6, 5, &mut rng);
        let x = Matrix::from_vec(3, 6, (0..18).map(|v| v as f32 * 0.1 - 0.7).collect()).unwrap();
        let g = Matrix::from_vec(3, 5, (0..15).map(|v| v as f32 * 0.2 - 1.3).collect()).unwrap();
        let writes: [fn(&mut Linear); 2] = [
            |l| {
                l.params_and_grads()[0]
                    .0
                    .iter_mut()
                    .for_each(|w| *w *= -1.5)
            },
            |l| l.w_mut().as_mut_slice()[7] += 0.25,
        ];
        for write in writes {
            layer.forward(&x);
            layer.backward(&g);
            layer.zero_grad();
            write(&mut layer);
            let mut fresh = Linear::new(6, 5, &mut rng);
            fresh.w_mut().clone_from(layer.w());
            fresh.b.clone_from(&layer.b);
            assert_eq!(layer.forward_inference(&x), fresh.forward_inference(&x));
            assert_eq!(layer.forward(&x), fresh.forward(&x));
            assert_eq!(layer.backward(&g), fresh.backward(&g));
            assert_eq!(layer.grad_w, fresh.grad_w);
        }
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut rng = SimRng::new(1);
        let mut layer = Linear::new(2, 2, &mut rng);
        let g = Matrix::zeros(1, 2);
        layer.backward(&g);
    }
}

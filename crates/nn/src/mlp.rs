//! Multi-layer perceptron: Linear→ReLU stacks with a linear output layer.
//!
//! The paper's actor and critic are "three-layer ReLU NN with 256, 128 and
//! 32 hidden units per layer" (§5.3.2); [`Mlp::paper_head`] builds exactly
//! that shape.

use crate::adam::Adam;
use crate::linear::Linear;
use crate::tensor::Matrix;
use tango_simcore::SimRng;

/// An MLP with ReLU hidden activations, a linear output, and an embedded
/// Adam optimizer.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    adam: Adam,
    /// (weight slot, bias slot) per layer.
    slots: Vec<(usize, usize)>,
}

impl Mlp {
    /// Build an MLP with the given layer dimensions, e.g. `[in, 256, 128,
    /// 32, out]`, and an Adam optimizer at `lr`.
    pub fn new(dims: &[usize], lr: f32, rng: &mut SimRng) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        let mut adam = Adam::new(lr);
        let mut slots = Vec::new();
        for w in dims.windows(2) {
            let layer = Linear::new(w[0], w[1], rng);
            let ws = adam.register(w[0] * w[1]);
            let bs = adam.register(w[1]);
            slots.push((ws, bs));
            layers.push(layer);
        }
        Mlp {
            layers,
            adam,
            slots,
        }
    }

    /// The paper's 256/128/32 head with the paper's learning rate.
    pub fn paper_head(in_dim: usize, out_dim: usize, rng: &mut SimRng) -> Self {
        Mlp::new(&[in_dim, 256, 128, 32, out_dim], 2e-4, rng)
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("nonempty").out_dim()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.in_dim() * l.out_dim() + l.b.len())
            .sum()
    }

    /// Training forward pass (caches activations for backward).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let (first, rest) = self.layers.split_first_mut().expect("nonempty");
        let mut h = first.forward(x);
        for layer in rest {
            relu(&mut h);
            h = layer.forward(&h);
        }
        h
    }

    /// Inference forward pass (no caches touched).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let (first, rest) = self.layers.split_first().expect("nonempty");
        let mut h = first.forward_inference(x);
        for layer in rest {
            relu(&mut h);
            h = layer.forward_inference(&h);
        }
        h
    }

    /// Backward pass from ∂L/∂output; accumulates layer gradients and
    /// returns ∂L/∂input.
    ///
    /// A hidden unit's ReLU was active iff its output, which the next
    /// layer cached as input, is `> 0`; inactive units pass `g · 0.0`,
    /// the signed zero an explicit 0/1 mask product gives.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let n = self.layers.len();
        let mut g = self.layers[n - 1].backward(grad_out);
        for i in (0..n - 1).rev() {
            let next_input = self.layers[i + 1].cached_input();
            for (gv, &x) in g.as_mut_slice().iter_mut().zip(next_input.as_slice()) {
                *gv *= if x > 0.0 { 1.0 } else { 0.0 };
            }
            g = self.layers[i].backward(&g);
        }
        g
    }

    /// Apply one Adam step from the accumulated gradients, then zero them.
    pub fn step(&mut self) {
        self.adam.begin_step();
        for (layer, &(ws, bs)) in self.layers.iter_mut().zip(&self.slots) {
            let [(w, gw), (b, gb)] = layer.params_and_grads();
            self.adam.update(ws, w, gw);
            self.adam.update(bs, b, gb);
            layer.zero_grad();
        }
    }

    /// Zero gradients without stepping.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Copy all parameters from another identically-shaped MLP (target
    /// network sync in SAC).
    pub fn copy_params_from(&mut self, other: &Mlp) {
        assert_eq!(self.layers.len(), other.layers.len());
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.w_mut().copy_from(b.w());
            a.b.clone_from(&b.b);
        }
    }

    /// Write every layer's weights and biases, then the embedded Adam
    /// state. Gradients and cached activations are transient (zeroed or
    /// rebuilt on the next training pass at any snapshot boundary) and
    /// are excluded so re-encoding restored state is byte-stable.
    pub fn snap_write(&self, w: &mut tango_snap::SnapWriter) {
        crate::snap_impls::write_layers(&self.layers, w);
        self.adam.snap_write(w);
    }

    /// Overwrite parameters and optimizer state from a
    /// [`Mlp::snap_write`] encoding. This MLP must have been constructed
    /// with the same layer dimensions; anything else is rejected as
    /// `SnapError::Corrupt`. Gradients are zeroed.
    pub fn snap_read(
        &mut self,
        r: &mut tango_snap::SnapReader<'_>,
    ) -> Result<(), tango_snap::SnapError> {
        crate::snap_impls::read_layers(&mut self.layers, r)?;
        self.adam.snap_read(r)
    }

    /// Soft-update parameters: θ ← τ·θ_src + (1−τ)·θ (Polyak averaging).
    pub fn polyak_from(&mut self, other: &Mlp, tau: f32) {
        assert_eq!(self.layers.len(), other.layers.len());
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            for (x, &y) in a.w_mut().as_mut_slice().iter_mut().zip(b.w().as_slice()) {
                *x = tau * y + (1.0 - tau) * *x;
            }
            for (x, &y) in a.b.iter_mut().zip(&b.b) {
                *x = tau * y + (1.0 - tau) * *x;
            }
        }
    }
}

/// In-place ReLU.
fn relu(h: &mut Matrix) {
    for v in h.as_mut_slice() {
        *v = v.max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_head_shape() {
        let mut rng = SimRng::new(1);
        let mlp = Mlp::paper_head(16, 4, &mut rng);
        assert_eq!(mlp.in_dim(), 16);
        assert_eq!(mlp.out_dim(), 4);
        // params: 16*256+256 + 256*128+128 + 128*32+32 + 32*4+4
        assert_eq!(
            mlp.param_count(),
            16 * 256 + 256 + 256 * 128 + 128 + 128 * 32 + 32 + 32 * 4 + 4
        );
    }

    #[test]
    fn inference_matches_training_forward() {
        let mut rng = SimRng::new(2);
        let mut mlp = Mlp::new(&[3, 8, 2], 1e-3, &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.5, 2.0, 1.0, 1.0, -1.0]).unwrap();
        let a = mlp.forward(&x);
        let b = mlp.forward_inference(&x);
        assert_eq!(a, b);
    }

    /// End-to-end gradient check through ReLU layers.
    #[test]
    fn mlp_gradient_matches_finite_differences() {
        let mut rng = SimRng::new(9);
        let mut mlp = Mlp::new(&[4, 6, 3], 1e-3, &mut rng);
        let x = Matrix::from_vec(2, 4, vec![0.3, -0.2, 0.8, 1.1, -0.6, 0.4, 0.9, -1.2]).unwrap();
        let loss = |m: &Mlp, x: &Matrix| -> f64 {
            let y = m.forward_inference(x);
            y.as_slice()
                .iter()
                .map(|&v| (v as f64).powi(2))
                .sum::<f64>()
                / 2.0
        };
        let y = mlp.forward(&x);
        mlp.backward(&y);
        let eps = 1e-3f32;
        // probe a few weights in each layer
        for li in 0..2 {
            for idx in [0usize, 3, 7] {
                let orig = mlp.layers[li].w().as_slice()[idx];
                mlp.layers[li].w_mut().as_mut_slice()[idx] = orig + eps;
                let lp = loss(&mlp, &x);
                mlp.layers[li].w_mut().as_mut_slice()[idx] = orig - eps;
                let lm = loss(&mlp, &x);
                mlp.layers[li].w_mut().as_mut_slice()[idx] = orig;
                let num = (lp - lm) / (2.0 * eps as f64);
                let ana = mlp.layers[li].grad_w.as_slice()[idx] as f64;
                assert!(
                    (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                    "layer {li} w[{idx}]: num {num} ana {ana}"
                );
            }
        }
    }

    /// Train a tiny MLP to fit XOR — exercises forward/backward/step
    /// together.
    #[test]
    fn learns_xor() {
        let mut rng = SimRng::new(77);
        let mut mlp = Mlp::new(&[2, 16, 1], 0.02, &mut rng);
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        let t = [0.0f32, 1.0, 1.0, 0.0];
        for _ in 0..800 {
            let y = mlp.forward(&x);
            // MSE grad
            let mut g = Matrix::zeros(4, 1);
            for (r, &want) in t.iter().enumerate() {
                g.set(r, 0, (y.get(r, 0) - want) / 4.0);
            }
            mlp.backward(&g);
            mlp.step();
        }
        let y = mlp.forward_inference(&x);
        for (r, &want) in t.iter().enumerate() {
            assert!(
                (y.get(r, 0) - want).abs() < 0.25,
                "xor[{r}] = {} want {want}",
                y.get(r, 0)
            );
        }
    }

    #[test]
    fn copy_and_polyak_sync_parameters() {
        let mut rng = SimRng::new(5);
        let src = Mlp::new(&[2, 4, 1], 1e-3, &mut rng);
        let mut dst = Mlp::new(&[2, 4, 1], 1e-3, &mut rng);
        dst.copy_params_from(&src);
        assert_eq!(dst.layers[0].w(), src.layers[0].w());
        // polyak with tau=1 equals copy
        let mut dst2 = Mlp::new(&[2, 4, 1], 1e-3, &mut rng);
        dst2.polyak_from(&src, 1.0);
        assert_eq!(dst2.layers[1].w(), src.layers[1].w());
        // tau=0 is a no-op
        let before = dst.layers[0].w().clone();
        dst.polyak_from(&dst2, 0.0);
        assert_eq!(dst.layers[0].w(), &before);
    }

    /// A seeded `rows×cols` matrix of standard normal draws passed
    /// through `f`.
    fn drawn(rows: usize, cols: usize, rng: &mut SimRng, f: fn(f32) -> f32) -> Matrix {
        let data = (0..rows * cols).map(|_| f(rng.standard_normal() as f32));
        Matrix::from_vec(rows, cols, data.collect()).unwrap()
    }

    /// A reference backward pass from `mlp`'s cached inputs and weights:
    /// each layer adds its whole `xᵀ·∂Y` sums (`+0.0`, ascending, zero
    /// `x` skipped) and ∂Y's column sums to `grads`, and takes ∂X as
    /// `Iterator::sum` would: from `-0.0`, with every term
    /// `∂Y[r][j]·W[p][j]` added in ascending `j`.
    fn every_term_backward(
        mlp: &Mlp,
        grad_out: &Matrix,
        grads: &mut [(Matrix, Vec<f32>)],
    ) -> Matrix {
        let mut g = grad_out.clone();
        for (layer, (gw, gb)) in mlp.layers.iter().zip(grads).rev() {
            let (x, w) = (layer.cached_input(), layer.w());
            for i in 0..w.rows {
                for j in 0..w.cols {
                    let mut acc = 0.0f32;
                    for r in (0..x.rows).filter(|&r| x.get(r, i) != 0.0) {
                        acc += x.get(r, i) * g.get(r, j);
                    }
                    gw.set(i, j, gw.get(i, j) + acc);
                }
            }
            for r in 0..g.rows {
                for (b, &v) in gb.iter_mut().zip(g.row(r)) {
                    *b += v;
                }
            }
            let mut dx = Matrix::zeros(g.rows, w.rows);
            for r in 0..g.rows {
                for p in 0..w.rows {
                    let mut acc = -0.0f32;
                    for j in 0..w.cols {
                        acc += g.get(r, j) * w.get(p, j);
                    }
                    dx.set(r, p, acc);
                }
            }
            g = dx;
            // the ReLU mask of the layer below, as `Mlp::backward` applies it
            if !std::ptr::eq(layer, &mlp.layers[0]) {
                for (v, &x) in g.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    *v *= if x > 0.0 { 1.0 } else { 0.0 };
                }
            }
        }
        g
    }

    /// ∂X skips the zero terms of ∂Y and starts at `+0.0`; adding every
    /// term from `-0.0` instead gives the same gradients. On the paper's
    /// head over ReLU-sparse batches, with output gradients holding an
    /// all-`+0.0` row and a row of `-0.0`, every layer's `grad_w` and
    /// `grad_b` equals the every-term reference's bit for bit,
    /// accumulated over batches of 1, 3, 9 and 183 rows, and ∂X equals
    /// it under `==`.
    #[test]
    fn skipping_zero_terms_of_the_output_gradient_moves_no_gradient() {
        let mut rng = SimRng::new(31);
        let mut mlp = Mlp::new(&[16, 256, 128, 32, 1], 2e-4, &mut rng);
        let mut grads: Vec<_> = mlp
            .layers
            .iter()
            .map(|l| {
                (
                    Matrix::zeros(l.in_dim(), l.out_dim()),
                    vec![0.0; l.out_dim()],
                )
            })
            .collect();
        for (rows, zero_rows) in [
            (1, &[][..]),
            (3, &[(1, 0.0)]),
            (9, &[(4, -0.0)]),
            (183, &[(17, -0.0), (100, 0.0)]),
        ] {
            let x = drawn(rows, 16, &mut rng, |v| v.max(0.0));
            let mut grad_out = drawn(rows, 1, &mut rng, |v| v);
            for &(r, zero) in zero_rows {
                grad_out.row_mut(r).fill(zero);
            }
            mlp.forward(&x);
            let want = every_term_backward(&mlp, &grad_out, &mut grads);
            let got = mlp.backward(&grad_out);
            assert_eq!(got, want, "∂X of {rows} rows");
            for (l, (layer, (gw, gb))) in mlp.layers.iter().zip(&grads).enumerate() {
                let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(layer.grad_w.as_slice()),
                    bits(gw.as_slice()),
                    "layer {l} grad_w at {rows} rows"
                );
                assert_eq!(
                    bits(&layer.grad_b),
                    bits(gb),
                    "layer {l} grad_b at {rows} rows"
                );
            }
        }
    }

    /// After each writer (an Adam step, `polyak_from`, `copy_params_from`
    /// and a snapshot restore), whose products run on packs built before
    /// it, the MLP's products equal those of a fresh MLP holding the same
    /// parameters, which has never packed.
    #[test]
    fn writers_drop_the_packs() {
        use tango_snap::{SnapReader, SnapWriter};
        let mut rng = SimRng::new(23);
        let dims = [3, 8, 5, 2];
        let other = Mlp::new(&dims, 1e-2, &mut rng);
        let mut w = SnapWriter::new();
        Mlp::new(&dims, 1e-2, &mut rng).snap_write(&mut w);
        let saved = w.into_bytes();
        let writes: [&dyn Fn(&mut Mlp); 4] = [
            &|m| m.step(),
            &|m| m.polyak_from(&other, 0.3),
            &|m| m.copy_params_from(&other),
            &|m| m.snap_read(&mut SnapReader::new(&saved)).unwrap(),
        ];
        let x = drawn(4, 3, &mut rng, |v| v);
        let g = drawn(4, 2, &mut rng, |v| v);
        let mut mlp = Mlp::new(&dims, 1e-2, &mut rng);
        for write in writes {
            mlp.forward(&x);
            mlp.backward(&g);
            write(&mut mlp);
            mlp.zero_grad();
            let mut fresh = Mlp::new(&dims, 1e-2, &mut rng);
            for (f, l) in fresh.layers.iter_mut().zip(&mlp.layers) {
                f.w_mut().clone_from(l.w());
                f.b.clone_from(&l.b);
            }
            assert_eq!(mlp.forward_inference(&x), fresh.forward_inference(&x));
            assert_eq!(mlp.forward(&x), fresh.forward(&x));
            assert_eq!(mlp.backward(&g), fresh.backward(&g));
            for (a, b) in mlp.layers.iter().zip(&fresh.layers) {
                assert_eq!(a.grad_w, b.grad_w);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn degenerate_dims_panic() {
        let mut rng = SimRng::new(1);
        let _ = Mlp::new(&[4], 1e-3, &mut rng);
    }
}

//! The three encoder variants behind one interface.
//!
//! Every variant is expressed as: per layer, an *aggregation operator* A
//! (a sparse row-normalized matrix in CSR layout) and a linear map W with
//! ReLU. For SAGE and GCN the layer is `H' = ReLU((A·H)·W)`; for GAT the
//! attention weights live in A but are computed from `H·W`, so the layer
//! is `H' = ReLU(A·(H·W))`. Backward is uniform because Aᵀ routes
//! gradients.
//!
//! Topology-independent operators (GCN, Native, and SAGE when no node
//! exceeds the sampling budget p) are cached keyed on
//! [`FeatureGraph::topo_version`] and rebuilt only when the edge set
//! actually changes — the encoder runs every decision round on a
//! cluster graph that changes rarely, so in steady state the forward
//! pass skips operator construction entirely.

use crate::graph::FeatureGraph;
use std::sync::Arc;
use tango_nn::{Linear, Matrix};
use tango_simcore::SimRng;

/// Which GNN structure (Fig. 11(d) compares all of these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderKind {
    /// GraphSAGE with p-neighbor sampling and mean aggregation (Eq. 9).
    Sage {
        /// Number of neighbors sampled per node.
        p: usize,
    },
    /// GCN with symmetric normalization over A + I.
    Gcn,
    /// Single-head GAT (attention constants in backward; see crate docs).
    Gat,
    /// No aggregation at all — each node sees only its own features
    /// (the "Native-A2C" baseline).
    Native,
}

/// A sparse row-normalized aggregation operator in CSR layout: one flat
/// entry vector plus row offsets. Flat storage keeps the apply loops on
/// contiguous memory (one allocation, no per-row pointer chasing).
#[derive(Debug, Clone, Default)]
struct AggOp {
    /// `offsets[i]..offsets[i+1]` indexes row i's entries.
    offsets: Vec<usize>,
    /// Flat `(source node, weight)` entries, row-major.
    entries: Vec<(usize, f32)>,
}

impl AggOp {
    fn identity(n: usize) -> Self {
        AggOp {
            offsets: (0..=n).collect(),
            entries: (0..n).map(|i| (i, 1.0)).collect(),
        }
    }

    /// Start building with `n` rows expected.
    fn builder(n: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        AggOp {
            offsets,
            entries: Vec::new(),
        }
    }

    /// Append one entry to the row currently being built.
    fn push_entry(&mut self, src: usize, w: f32) {
        self.entries.push((src, w));
    }

    /// Seal the row currently being built.
    fn finish_row(&mut self) {
        self.offsets.push(self.entries.len());
    }

    /// Number of rows.
    fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row i's `(source, weight)` entries.
    fn row(&self, i: usize) -> &[(usize, f32)] {
        &self.entries[self.offsets[i]..self.offsets[i + 1]]
    }

    /// out = A · h
    ///
    /// Row i reads only row i's CSR entries and accumulates them in CSR
    /// order.
    fn apply(&self, h: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.n_rows(), h.cols);
        for i in 0..self.n_rows() {
            let out_row = out.row_mut(i);
            for &(src, w) in self.row(i) {
                for (o, &v) in out_row.iter_mut().zip(h.row(src)) {
                    *o += w * v;
                }
            }
        }
        out
    }

    /// out = Aᵀ · g
    ///
    /// Row i *scatters* into `out.row_mut(src)`, so each output row sums
    /// its terms in input-row order.
    fn apply_transpose(&self, g: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.n_rows(), g.cols);
        for i in 0..self.n_rows() {
            let g_row = g.row(i);
            for &(src, w) in self.row(i) {
                let out_row = out.row_mut(src);
                for (o, &v) in out_row.iter_mut().zip(g_row) {
                    *o += w * v;
                }
            }
        }
        out
    }
}

/// Object-safe encoder interface used by the RL agents.
pub trait Encoder {
    /// Encode a graph into N×out_dim embeddings, caching for backward.
    fn forward(&mut self, g: &FeatureGraph) -> Matrix;
    /// Backward from ∂L/∂embeddings; accumulates parameter gradients.
    fn backward(&mut self, grad: &Matrix);
    /// Apply accumulated gradients with the embedded optimizer.
    fn step(&mut self, lr: f32);
    /// Embedding dimensionality.
    fn out_dim(&self) -> usize;
}

#[derive(Debug, Clone)]
struct LayerCache {
    agg: Arc<AggOp>,
    relu_mask: Matrix,
}

/// A cached topology-independent aggregation operator, valid as long as
/// the observed [`FeatureGraph::topo_version`] is unchanged.
#[derive(Debug, Clone)]
struct TopoCache {
    version: u64,
    op: Arc<AggOp>,
}

/// The concrete encoder.
#[derive(Debug, Clone)]
pub struct GnnEncoder {
    kind: EncoderKind,
    layers: Vec<Linear>,
    /// GAT attention vectors (a_left, a_right) per layer.
    attn: Vec<(Vec<f32>, Vec<f32>)>,
    rng: SimRng,
    caches: Vec<LayerCache>,
    /// Cached operator for topology-independent kinds (GCN, Native, SAGE
    /// below the sampling threshold). GAT operators depend on activations
    /// and are never cached.
    topo_cache: Option<TopoCache>,
}

const LEAKY_SLOPE: f32 = 0.2;

impl GnnEncoder {
    /// Build an encoder with `dims = [in, h1, ..., out]`; the paper uses
    /// L = 2 aggregation rounds, i.e. `dims.len() == 3`.
    pub fn new(kind: EncoderKind, dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least one layer");
        let mut rng = SimRng::new(seed);
        let mut layers = Vec::new();
        let mut attn = Vec::new();
        for w in dims.windows(2) {
            layers.push(Linear::new(w[0], w[1], &mut rng));
            let mk = |rng: &mut SimRng, d: usize| -> Vec<f32> {
                (0..d)
                    .map(|_| (rng.standard_normal() * 0.1) as f32)
                    .collect()
            };
            attn.push((mk(&mut rng, w[1]), mk(&mut rng, w[1])));
        }
        GnnEncoder {
            kind,
            layers,
            attn,
            rng,
            caches: Vec::new(),
            topo_cache: None,
        }
    }

    /// The paper's shape: 2 aggregation layers from `in_dim` to `out_dim`
    /// through one hidden width.
    pub fn paper_shape(
        kind: EncoderKind,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        seed: u64,
    ) -> Self {
        GnnEncoder::new(kind, &[in_dim, hidden, out_dim], seed)
    }

    /// Whether this forward pass's operator is a pure function of the
    /// topology (no randomness, no activations): GCN and Native always;
    /// SAGE when no node exceeds the sampling budget p, since sampling
    /// then keeps every neighbor and draws no randomness. GAT attention
    /// depends on H·W, so it is never topology-determined.
    fn topology_determined(&self, g: &FeatureGraph) -> bool {
        match self.kind {
            EncoderKind::Gcn | EncoderKind::Native => true,
            EncoderKind::Sage { p } => g.max_degree() <= p,
            EncoderKind::Gat => false,
        }
    }

    /// The aggregation operator for the next layer, served from the
    /// topology cache when valid.
    fn agg_for_layer(&mut self, g: &FeatureGraph, h: &Matrix) -> Arc<AggOp> {
        if !self.topology_determined(g) {
            return Arc::new(self.build_agg(g, h));
        }
        if let Some(tc) = &self.topo_cache {
            if tc.version == g.topo_version() {
                return Arc::clone(&tc.op);
            }
        }
        let op = Arc::new(self.build_agg(g, h));
        self.topo_cache = Some(TopoCache {
            version: g.topo_version(),
            op: Arc::clone(&op),
        });
        op
    }

    /// Build this layer's aggregation operator.
    fn build_agg(&mut self, g: &FeatureGraph, h: &Matrix) -> AggOp {
        let n = g.len();
        match self.kind {
            EncoderKind::Native => AggOp::identity(n),
            EncoderKind::Sage { p } => {
                // MEAN over self ∪ ≤ p neighbors sampled without
                // replacement (Eq. 9, §5.3.2 "Sampling"): a node over
                // budget keeps the first p of its shuffled neighbors
                let mut op = AggOp::builder(n);
                let mut pool = Vec::new();
                for v in 0..n {
                    let mut sampled = g.neighbors(v);
                    if sampled.len() > p {
                        pool.clear();
                        pool.extend_from_slice(sampled);
                        self.rng.shuffle(&mut pool);
                        sampled = &pool[..p];
                    }
                    let w = 1.0 / (sampled.len() + 1) as f32;
                    op.push_entry(v, w);
                    for &s in sampled {
                        op.push_entry(s, w);
                    }
                    op.finish_row();
                }
                op
            }
            EncoderKind::Gcn => {
                // D^{-1/2}(A+I)D^{-1/2}
                let mut op = AggOp::builder(n);
                let deg = |v: usize| (g.degree(v) + 1) as f32;
                for v in 0..n {
                    let dv = deg(v).sqrt();
                    op.push_entry(v, 1.0 / (dv * dv));
                    for &u in g.neighbors(v) {
                        op.push_entry(u, 1.0 / (dv * deg(u).sqrt()));
                    }
                    op.finish_row();
                }
                op
            }
            EncoderKind::Gat => {
                // attention over self ∪ neighbors computed from h (which
                // is already H·W for GAT ordering)
                let li = self.caches.len();
                let (al, ar) = &self.attn[li];
                let score =
                    |v: usize| -> f32 { h.row(v).iter().zip(al).map(|(&x, &a)| x * a).sum() };
                let score_r =
                    |v: usize| -> f32 { h.row(v).iter().zip(ar).map(|(&x, &a)| x * a).sum() };
                let leaky = |x: f32| if x > 0.0 { x } else { LEAKY_SLOPE * x };
                let mut op = AggOp::builder(n);
                let mut cand: Vec<usize> = Vec::new();
                let mut exps: Vec<f32> = Vec::new();
                for v in 0..n {
                    cand.clear();
                    cand.push(v);
                    cand.extend_from_slice(g.neighbors(v));
                    let sv = score(v);
                    exps.clear();
                    exps.extend(cand.iter().map(|&u| leaky(sv + score_r(u))));
                    let max = exps.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let mut sum = 0.0;
                    for e in exps.iter_mut() {
                        *e = (*e - max).exp();
                        sum += *e;
                    }
                    for (&u, &e) in cand.iter().zip(&exps) {
                        op.push_entry(u, e / sum.max(1e-12));
                    }
                    op.finish_row();
                }
                op
            }
        }
    }

    /// Whether this kind applies the linear map before aggregation.
    fn linear_first(&self) -> bool {
        matches!(self.kind, EncoderKind::Gat)
    }

    /// The encoder kind.
    pub fn kind(&self) -> EncoderKind {
        self.kind
    }

    /// Write layer weights, attention vectors and the sampling RNG
    /// stream. Aggregation/ReLU caches and the topology cache are
    /// rebuildable scratch keyed on process-local topology versions and
    /// are excluded; the RNG *is* state (SAGE over-budget sampling draws
    /// from it), so it round-trips exactly.
    pub fn snap_write(&self, w: &mut tango_snap::SnapWriter) {
        use tango_snap::SnapEncode;
        tango_nn::snap_impls::write_layers(&self.layers, w);
        self.attn.encode(w);
        self.rng.state().encode(w);
    }

    /// Overwrite weights, attention vectors and the RNG stream from a
    /// [`GnnEncoder::snap_write`] encoding. The encoder must have been
    /// constructed with the same kind and layer dims. Caches are
    /// dropped; they rebuild on the next forward pass.
    pub fn snap_read(
        &mut self,
        r: &mut tango_snap::SnapReader<'_>,
    ) -> Result<(), tango_snap::SnapError> {
        use tango_snap::{SnapDecode, SnapError};
        tango_nn::snap_impls::read_layers(&mut self.layers, r)?;
        let attn = Vec::<(Vec<f32>, Vec<f32>)>::decode(r)?;
        let attn_ok = attn.len() == self.attn.len()
            && attn
                .iter()
                .zip(&self.attn)
                .all(|(a, b)| a.0.len() == b.0.len() && a.1.len() == b.1.len());
        if !attn_ok {
            return Err(SnapError::Corrupt("encoder attention shape mismatch"));
        }
        self.attn = attn;
        self.rng = SimRng::from_state(SnapDecode::decode(r)?);
        self.caches.clear();
        self.topo_cache = None;
        Ok(())
    }
}

impl Encoder for GnnEncoder {
    fn forward(&mut self, g: &FeatureGraph) -> Matrix {
        assert_eq!(
            g.feature_dim(),
            self.layers[0].in_dim(),
            "feature dim mismatch"
        );
        self.caches.clear();
        let mut h = g.features.clone();
        let n_layers = self.layers.len();
        for li in 0..n_layers {
            let (pre, agg) = if self.linear_first() {
                // GAT: H·W then attention-aggregate
                let hw = self.layers[li].forward(&h);
                let agg = self.agg_for_layer(g, &hw);
                (agg.apply(&hw), agg)
            } else {
                // SAGE/GCN/Native: aggregate then W
                let agg = self.agg_for_layer(g, &h);
                let ah = agg.apply(&h);
                (self.layers[li].forward(&ah), agg)
            };
            let relu_mask = pre.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
            h = pre.map(|v| v.max(0.0));
            self.caches.push(LayerCache { agg, relu_mask });
        }
        h
    }

    /// Layer 0's input is the graph's features, which have no
    /// parameters, so its ∂L/∂input (and for SAGE, GCN and Native the
    /// aggregation transpose after it) is never computed.
    fn backward(&mut self, grad: &Matrix) {
        let linear_first = self.linear_first();
        let mut g = grad.clone();
        for li in (0..self.layers.len()).rev() {
            let cache = &self.caches[li];
            let layer = &mut self.layers[li];
            g = g.hadamard(&cache.relu_mask);
            if linear_first {
                // forward was: pre = A · (layer.forward(h))
                let g_hw = cache.agg.apply_transpose(&g);
                layer.accumulate_grads(&g_hw);
                if li > 0 {
                    g = layer.grad_input(&g_hw);
                }
            } else {
                // forward was: pre = layer.forward(A · h)
                layer.accumulate_grads(&g);
                if li > 0 {
                    g = cache.agg.apply_transpose(&layer.grad_input(&g));
                }
            }
        }
    }

    fn step(&mut self, lr: f32) {
        // plain SGD on the encoder (the RL heads carry Adam); simple and
        // adequate for these small layers.
        for layer in &mut self.layers {
            let [(w, gw), (b, gb)] = layer.params_and_grads();
            for (p, &g) in w.iter_mut().zip(gw.iter()) {
                *p -= lr * g;
            }
            for (p, &g) in b.iter_mut().zip(gb.iter()) {
                *p -= lr * g;
            }
            layer.zero_grad();
        }
    }

    fn out_dim(&self) -> usize {
        self.layers.last().expect("nonempty").out_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_graph(n: usize, f: usize) -> FeatureGraph {
        let data: Vec<f32> = (0..n * f).map(|i| (i % 7) as f32 * 0.1).collect();
        let mut g = FeatureGraph::new(Matrix::from_vec(n, f, data).unwrap());
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn all_kinds_produce_right_shape() {
        let g = chain_graph(6, 4);
        for kind in [
            EncoderKind::Sage { p: 3 },
            EncoderKind::Gcn,
            EncoderKind::Gat,
            EncoderKind::Native,
        ] {
            let mut enc = GnnEncoder::paper_shape(kind, 4, 16, 8, 42);
            let h = enc.forward(&g);
            assert_eq!((h.rows, h.cols), (6, 8), "{kind:?}");
            assert_eq!(enc.out_dim(), 8);
        }
    }

    #[test]
    fn native_ignores_edges() {
        let f = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let mut g_edges = FeatureGraph::new(f.clone());
        g_edges.add_edge(0, 1);
        g_edges.add_edge(1, 2);
        let g_none = FeatureGraph::new(f);
        let mut enc = GnnEncoder::paper_shape(EncoderKind::Native, 2, 8, 4, 1);
        let a = enc.forward(&g_edges);
        let b = enc.forward(&g_none);
        assert_eq!(a, b);
    }

    #[test]
    fn sage_aggregates_neighbor_information() {
        // two isolated nodes vs two connected nodes: embeddings differ
        let f = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let mut connected = FeatureGraph::new(f.clone());
        connected.add_edge(0, 1);
        let isolated = FeatureGraph::new(f);
        // ReLU can zero a particular seed's output; require that *some*
        // seed shows the difference and produces non-trivial embeddings.
        let mut distinguished = false;
        for seed in 0..5 {
            let mut enc = GnnEncoder::paper_shape(EncoderKind::Sage { p: 5 }, 2, 8, 4, seed);
            let a = enc.forward(&connected);
            let b = enc.forward(&isolated);
            if a != b && a.norm() > 0.0 {
                distinguished = true;
                break;
            }
        }
        assert!(
            distinguished,
            "no seed distinguished connected from isolated"
        );
    }

    #[test]
    fn sage_sampling_caps_neighbor_count() {
        // star graph: center has many neighbors; p=2 samples only 2.
        let n = 10;
        let f = Matrix::zeros(n, 2);
        let mut g = FeatureGraph::new(f);
        for i in 1..n {
            g.add_edge(0, i);
        }
        let mut enc = GnnEncoder::new(EncoderKind::Sage { p: 2 }, &[2, 4], 5);
        enc.forward(&g);
        let agg = &enc.caches[0].agg;
        assert_eq!(agg.row(0).len(), 3); // self + 2 sampled
                                         // leaf nodes: self + 1 neighbor
        assert_eq!(agg.row(1).len(), 2);
    }

    #[test]
    fn gcn_weights_are_symmetric_normalized() {
        let g = chain_graph(3, 2);
        let mut enc = GnnEncoder::new(EncoderKind::Gcn, &[2, 4], 7);
        enc.forward(&g);
        let agg = &enc.caches[0].agg;
        // node 0: deg 1 -> self weight 1/2; edge to node 1 (deg 2):
        // 1/(sqrt2 * sqrt3)
        let self_w = agg.row(0).iter().find(|&&(s, _)| s == 0).unwrap().1;
        assert!((self_w - 0.5).abs() < 1e-6);
        let edge_w = agg.row(0).iter().find(|&&(s, _)| s == 1).unwrap().1;
        assert!((edge_w - 1.0 / (2.0f32.sqrt() * 3.0f32.sqrt())).abs() < 1e-6);
    }

    #[test]
    fn gat_attention_rows_sum_to_one() {
        let g = chain_graph(5, 3);
        let mut enc = GnnEncoder::new(EncoderKind::Gat, &[3, 6], 9);
        enc.forward(&g);
        let agg = &enc.caches[0].agg;
        for i in 0..agg.n_rows() {
            let sum: f32 = agg.row(i).iter().map(|&(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    /// Numerical gradient check through a 2-layer GCN (deterministic
    /// aggregation, so finite differences are exact).
    #[test]
    fn gcn_gradient_matches_finite_differences() {
        let g = chain_graph(4, 3);
        let mut enc = GnnEncoder::new(EncoderKind::Gcn, &[3, 5, 2], 13);
        let loss = |enc: &mut GnnEncoder, g: &FeatureGraph| -> f64 {
            let h = enc.forward(g);
            h.as_slice()
                .iter()
                .map(|&v| (v as f64).powi(2))
                .sum::<f64>()
                / 2.0
        };
        let h = enc.forward(&g);
        enc.backward(&h);
        let analytic: Vec<f32> = enc.layers[0].grad_w.as_slice().to_vec();
        let eps = 1e-3f32;
        for idx in [0usize, 4, 9, 14] {
            let orig = enc.layers[0].w().as_slice()[idx];
            enc.layers[0].w_mut().as_mut_slice()[idx] = orig + eps;
            let lp = loss(&mut enc, &g);
            enc.layers[0].w_mut().as_mut_slice()[idx] = orig - eps;
            let lm = loss(&mut enc, &g);
            enc.layers[0].w_mut().as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps as f64);
            let ana = analytic[idx] as f64;
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "w0[{idx}]: num {num} ana {ana}"
            );
        }
    }

    #[test]
    fn step_changes_parameters_and_clears_grads() {
        let g = chain_graph(4, 3);
        let mut enc = GnnEncoder::new(EncoderKind::Sage { p: 2 }, &[3, 4], 21);
        let h = enc.forward(&g);
        enc.backward(&h);
        let before = enc.layers[0].w().clone();
        enc.step(0.05);
        assert_ne!(enc.layers[0].w(), &before);
        assert!(enc.layers[0].grad_w.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "feature dim mismatch")]
    fn wrong_feature_dim_panics() {
        let g = chain_graph(3, 2);
        let mut enc = GnnEncoder::new(EncoderKind::Gcn, &[5, 4], 1);
        enc.forward(&g);
    }

    /// Topology-determined kinds share one cached operator across layers
    /// and across forward passes on an unchanged graph.
    #[test]
    fn topology_cache_is_shared_and_reused() {
        let g = chain_graph(5, 3);
        let mut enc = GnnEncoder::new(EncoderKind::Gcn, &[3, 4, 2], 3);
        enc.forward(&g);
        assert!(
            Arc::ptr_eq(&enc.caches[0].agg, &enc.caches[1].agg),
            "both layers should share the cached operator"
        );
        let first = Arc::clone(&enc.caches[0].agg);
        enc.forward(&g);
        assert!(
            Arc::ptr_eq(&first, &enc.caches[0].agg),
            "second forward on the same topology should not rebuild"
        );
    }

    /// Editing the graph invalidates the cache: a warm encoder matches a
    /// cold one on the edited graph (GCN is deterministic).
    #[test]
    fn topology_cache_invalidates_on_edge_edit() {
        let mut g = chain_graph(5, 3);
        let mut warm = GnnEncoder::new(EncoderKind::Gcn, &[3, 4, 2], 17);
        let mut cold = GnnEncoder::new(EncoderKind::Gcn, &[3, 4, 2], 17);
        warm.forward(&g); // populate the cache on the old topology
        g.add_edge(0, 4);
        assert_eq!(warm.forward(&g), cold.forward(&g));
    }

    /// SAGE only uses the cache when no node exceeds the sampling budget;
    /// its embeddings match the uncached (rebuild-every-pass) behavior
    /// because sub-budget sampling draws no randomness.
    #[test]
    fn sage_cache_matches_uncached_below_budget() {
        let g = chain_graph(6, 3); // max degree 2
        let mut a = GnnEncoder::new(EncoderKind::Sage { p: 3 }, &[3, 4, 2], 29);
        let mut b = GnnEncoder::new(EncoderKind::Sage { p: 3 }, &[3, 4, 2], 29);
        let h1a = a.forward(&g);
        let h2a = a.forward(&g); // cached
        let h1b = b.forward(&g);
        assert_eq!(h1a, h1b);
        assert_eq!(h1a, h2a, "deterministic sub-budget SAGE is stable");
        // over budget: operators are re-sampled, never cached
        let mut dense = FeatureGraph::new(Matrix::zeros(5, 3));
        for i in 1..5 {
            dense.add_edge(0, i);
        }
        let mut enc = GnnEncoder::new(EncoderKind::Sage { p: 2 }, &[3, 4], 31);
        enc.forward(&dense);
        let first = Arc::clone(&enc.caches[0].agg);
        enc.forward(&dense);
        assert!(
            !Arc::ptr_eq(&first, &enc.caches[0].agg),
            "over-budget SAGE must re-sample per pass"
        );
    }
}

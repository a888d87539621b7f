use crate::adam::Adam;
use crate::linear::{Linear, LinearGrads};
use crate::math::matvec_columns;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Element-wise activation functions used by the SimSub networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `max(0, x)` — hidden layer of the Q-network (paper §6.1).
    Relu,
    /// `1 / (1 + e^-x)` — output layer of the Q-network (paper §6.1).
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// No-op.
    Identity,
}

impl Activation {
    #[inline]
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *output* value `y = f(x)`,
    /// which is what the cached forward pass stores.
    #[inline]
    fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }
}

/// A multi-layer perceptron: alternating [`Linear`] layers and activations.
/// Every pass runs on the layers' column-major weights; only
/// [`Mlp::flat_params`] and [`Mlp::set_flat_params`] speak row-major order.
///
/// The SimSub Q-network is `Mlp::new(rng, &[3, 20, 2 + k],
/// &[Activation::Relu, Activation::Sigmoid])` per Section 6.1 of the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    activations: Vec<Activation>,
}

/// Per-layer post-activation values of one sample, written by
/// [`Mlp::forward_cached`]. Reusable across calls without reallocating.
#[derive(Debug, Clone, Default)]
pub struct MlpCache {
    /// `outputs[l]` is the post-activation output of layer `l`.
    outputs: Vec<Vec<f64>>,
}

/// Activations of a whole minibatch for [`Mlp::forward_batch`] and
/// [`Mlp::backward_batch`], stored feature-major: value `r` of sample `s`
/// sits at `[r * batch + s]`, so each weight meets a contiguous run of
/// samples. Sized on first use and reusable across calls of one shape
/// without reallocating.
#[derive(Debug, Clone, Default)]
pub struct MlpBatch {
    batch: usize,
    /// `outputs[l]` is the post-activation output of layer `l`.
    outputs: Vec<Vec<f64>>,
    /// The loss gradient being pulled back through a layer, and the one it
    /// yields for the layer below.
    delta: Vec<f64>,
    dx: Vec<f64>,
    /// One row of a layer's weights, gathered from its columns.
    row: Vec<f64>,
}

/// Gradients for every layer of an [`Mlp`].
#[derive(Debug, Clone, Default)]
pub struct MlpGrads {
    /// One gradient accumulator per layer.
    pub layers: Vec<LinearGrads>,
}

impl Mlp {
    /// Builds an MLP with `dims = [in, hidden..., out]` and one activation
    /// per layer (`activations.len() == dims.len() - 1`).
    pub fn new<R: Rng>(rng: &mut R, dims: &[usize], activations: &[Activation]) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        assert_eq!(
            activations.len(),
            dims.len() - 1,
            "one activation per layer"
        );
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(rng, w[0], w[1]))
            .collect();
        Self {
            layers,
            activations: activations.to_vec(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map(|l| l.in_dim).unwrap_or(0)
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map(|l| l.out_dim).unwrap_or(0)
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Convenience forward pass allocating a fresh output vector.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut cache = MlpCache::default();
        self.forward_cached(x, &mut cache);
        cache.outputs.last().cloned().unwrap_or_default()
    }

    /// Forward pass that records every layer's output in `cache`;
    /// returns the final output slice. Each output sums its products in
    /// column order from the `-0.0` seed ([`matvec_columns`]), adds the
    /// bias, then applies the activation.
    pub fn forward_cached<'c>(&self, x: &[f64], cache: &'c mut MlpCache) -> &'c [f64] {
        cache.outputs.resize(self.layers.len(), Vec::new());
        for (l, (layer, act)) in self.layers.iter().zip(&self.activations).enumerate() {
            let (done, rest) = cache.outputs.split_at_mut(l);
            let out = &mut rest[0];
            let input: &[f64] = if l == 0 { x } else { &done[l - 1] };
            out.resize(layer.out_dim, 0.0);
            matvec_columns(&layer.w, input, out);
            for (o, b) in out.iter_mut().zip(&layer.b) {
                *o = act.apply(*o + b);
            }
        }
        cache.outputs.last().map(Vec::as_slice).unwrap_or(&[])
    }

    /// Forward pass over a minibatch of `batch` samples: `x[c * batch + s]`
    /// is input `c` of sample `s`, and the returned slice holds output `r`
    /// of sample `s` at `[r * batch + s]`. Each `(sample, row)` sums its
    /// products over the columns in ascending order from `f64::sum`'s
    /// `-0.0` seed, then adds the bias and applies the activation — what
    /// [`Mlp::forward`] computes for that sample, bit for bit — while the
    /// samples of a row sit side by side and vectorise.
    pub fn forward_batch<'c>(&self, x: &[f64], batch: usize, cache: &'c mut MlpBatch) -> &'c [f64] {
        assert_eq!(
            x.len(),
            self.in_dim() * batch,
            "one input column per sample"
        );
        cache.batch = batch;
        let MlpBatch { outputs, row, .. } = cache;
        outputs.resize_with(self.layers.len(), Vec::new);
        for (l, (layer, act)) in self.layers.iter().zip(&self.activations).enumerate() {
            let (done, rest) = outputs.split_at_mut(l);
            let input: &[f64] = if l == 0 { x } else { &done[l - 1] };
            let out = &mut rest[0];
            out.resize(layer.out_dim * batch, 0.0);
            for r in 0..layer.out_dim {
                // The batch's samples are the output lanes: column `c` of
                // the input times weight `c` of the row (a product's bits
                // do not depend on its operands' order).
                row.clear();
                row.extend(layer.w[r..].iter().step_by(layer.out_dim));
                let out_row = &mut out[r * batch..(r + 1) * batch];
                matvec_columns(input, row, out_row);
                for o in out_row.iter_mut() {
                    *o = act.apply(*o + layer.b[r]);
                }
            }
        }
        outputs.last().map(Vec::as_slice).unwrap_or(&[])
    }

    /// Backward pass over the minibatch of the last [`Mlp::forward_batch`]
    /// on `cache`: `x` is that call's input and `dloss_dout[r * batch + s]`
    /// the loss gradient w.r.t. output `r` of sample `s`. Accumulates
    /// parameter gradients into `grads`. Every gradient element takes the
    /// samples in batch order, and every pulled-back input gradient takes
    /// the rows in order from `+0.0` — the sums one per-sample backward
    /// pass after another would make.
    pub fn backward_batch(
        &self,
        x: &[f64],
        cache: &mut MlpBatch,
        dloss_dout: &[f64],
        grads: &mut MlpGrads,
    ) {
        let n = cache.batch;
        assert_eq!(cache.outputs.len(), self.layers.len(), "cache mismatch");
        assert_eq!(x.len(), self.in_dim() * n, "one input column per sample");
        assert_eq!(
            dloss_dout.len(),
            self.out_dim() * n,
            "one output gradient column per sample"
        );
        grads.ensure_shape(self);
        let MlpBatch {
            outputs, delta, dx, ..
        } = cache;
        delta.clear();
        delta.extend_from_slice(dloss_dout);
        for l in (0..self.layers.len()).rev() {
            let layer = &self.layers[l];
            // Chain through the activation.
            for (d, y) in delta.iter_mut().zip(&outputs[l]) {
                *d *= self.activations[l].derivative_from_output(*y);
            }
            let input: &[f64] = if l == 0 { x } else { &outputs[l - 1] };
            let g = &mut grads.layers[l];
            // Element `k` of `gw` is `(row k % rows, column k / rows)`; it
            // sums its samples in batch order onto what it holds. Four
            // elements at a time, so that their chains overlap.
            let rows = layer.out_dim;
            let operands = |k: usize| (&delta[k % rows * n..][..n], &input[k / rows * n..][..n]);
            let tail = g.gw.len() / 4 * 4;
            let mut blocks = g.gw.chunks_exact_mut(4);
            for (k, block) in (0..).step_by(4).zip(&mut blocks) {
                let [(d0, x0), (d1, x1), (d2, x2), (d3, x3)] = [
                    operands(k),
                    operands(k + 1),
                    operands(k + 2),
                    operands(k + 3),
                ];
                let [mut a0, mut a1, mut a2, mut a3] = [block[0], block[1], block[2], block[3]];
                for s in 0..n {
                    a0 += d0[s] * x0[s];
                    a1 += d1[s] * x1[s];
                    a2 += d2[s] * x2[s];
                    a3 += d3[s] * x3[s];
                }
                block.copy_from_slice(&[a0, a1, a2, a3]);
            }
            for (k, gw) in (tail..).zip(blocks.into_remainder()) {
                let (d_row, x_row) = operands(k);
                for (&d, &xv) in d_row.iter().zip(x_row) {
                    *gw += d * xv;
                }
            }
            for (r, gb) in g.gb.iter_mut().enumerate() {
                for &d in &delta[r * n..(r + 1) * n] {
                    *gb += d;
                }
            }
            if l > 0 {
                dx.clear();
                dx.resize(layer.in_dim * n, 0.0);
                for c in 0..layer.in_dim {
                    let dx_col = &mut dx[c * n..(c + 1) * n];
                    for (r, &w) in layer.w[c * rows..(c + 1) * rows].iter().enumerate() {
                        for (v, &d) in dx_col.iter_mut().zip(&delta[r * n..(r + 1) * n]) {
                            *v += d * w;
                        }
                    }
                }
                std::mem::swap(delta, dx);
            }
        }
    }

    /// Applies an Adam update using accumulated gradients.
    pub fn apply_grads(&mut self, grads: &MlpGrads, adam: &mut Adam) {
        adam.begin_step();
        for (layer, g) in self.layers.iter_mut().zip(&grads.layers) {
            adam.update(&mut layer.w, &g.gw);
            adam.update(&mut layer.b, &g.gb);
        }
    }

    /// Copies all parameters from `other` — the DQN target-network sync.
    pub fn copy_from(&mut self, other: &Mlp) {
        assert_eq!(self.layers.len(), other.layers.len());
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.copy_from(b);
        }
    }

    /// Flattens all parameters layer by layer, each layer's weights row by
    /// row and then its bias (for tests and checksums).
    pub fn flat_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for l in &self.layers {
            out.extend(l.row_major());
            out.extend_from_slice(&l.b);
        }
        out
    }

    /// Borrow of the constituent layers and activations (persistence).
    pub fn parts(&self) -> (&[Linear], &[Activation]) {
        (&self.layers, &self.activations)
    }

    /// Rebuilds an MLP from layers and activations, validating that
    /// consecutive layer shapes chain and counts match.
    pub fn from_parts(
        layers: Vec<Linear>,
        activations: Vec<Activation>,
    ) -> Result<Self, &'static str> {
        if layers.is_empty() {
            return Err("need at least one layer");
        }
        if layers.len() != activations.len() {
            return Err("one activation per layer");
        }
        for w in layers.windows(2) {
            if w[0].out_dim != w[1].in_dim {
                return Err("layer shapes do not chain");
            }
        }
        Ok(Self {
            layers,
            activations,
        })
    }

    /// Loads parameters from a flat vector produced by [`Mlp::flat_params`].
    pub fn set_flat_params(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.param_count());
        let mut off = 0;
        for l in &mut self.layers {
            let wl = l.w.len();
            l.set_row_major(&flat[off..off + wl]);
            off += wl;
            let bl = l.b.len();
            l.b.copy_from_slice(&flat[off..off + bl]);
            off += bl;
        }
    }
}

impl MlpGrads {
    /// Zeroed gradients shaped like `mlp`.
    pub fn zeros(mlp: &Mlp) -> Self {
        Self {
            layers: mlp.layers.iter().map(LinearGrads::zeros).collect(),
        }
    }

    fn ensure_shape(&mut self, mlp: &Mlp) {
        // Every layer's every dimension: a layer count, or `gw` alone,
        // cannot tell (in 4, out 2) from (in 2, out 4).
        let fits = self.layers.len() == mlp.layers.len()
            && self.layers.iter().zip(&mlp.layers).all(|(g, l)| g.fits(l));
        if !fits {
            *self = Self::zeros(mlp);
        }
    }

    /// Resets all gradients to zero.
    pub fn zero(&mut self) {
        self.layers.iter_mut().for_each(LinearGrads::zero);
    }

    /// Scales all gradients (minibatch averaging).
    pub fn scale(&mut self, s: f64) {
        self.layers.iter_mut().for_each(|l| l.scale(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_qnet(n_actions: usize) -> Mlp {
        let mut rng = StdRng::seed_from_u64(11);
        Mlp::new(
            &mut rng,
            &[3, 20, n_actions],
            &[Activation::Relu, Activation::Sigmoid],
        )
    }

    /// Sample-major rows to the feature-major layout of the batch passes.
    fn feature_major(samples: &[Vec<f64>]) -> Vec<f64> {
        let dim = samples.first().map_or(0, Vec::len);
        (0..dim)
            .flat_map(|c| samples.iter().map(move |x| x[c]))
            .collect()
    }

    /// Gradients in [`Mlp::flat_params`] order.
    fn flat_grads(net: &Mlp, grads: &MlpGrads) -> Vec<f64> {
        net.layers
            .iter()
            .zip(&grads.layers)
            .flat_map(|(layer, g)| layer.row_major_order().map(|i| g.gw[i]).chain(g.gb.clone()))
            .collect()
    }

    #[test]
    fn shapes_match_paper_qnet() {
        let net = paper_qnet(2);
        assert_eq!(net.in_dim(), 3);
        assert_eq!(net.out_dim(), 2);
        assert_eq!(net.param_count(), 3 * 20 + 20 + 20 * 2 + 2);
        let out = net.forward(&[0.1, 0.2, 0.3]);
        assert_eq!(out.len(), 2);
        // Sigmoid outputs live in (0, 1).
        assert!(out.iter().all(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    fn forward_cached_equals_forward() {
        let net = paper_qnet(5);
        let x = [0.4, -0.2, 0.9];
        let mut cache = MlpCache::default();
        let cached = net.forward_cached(&x, &mut cache).to_vec();
        assert_eq!(cached, net.forward(&x));
    }

    /// `net`'s output at `x` from [`Mlp::flat_params`] alone: each layer
    /// a row-major matrix, each output a row-by-row dot product (`f64::sum`,
    /// so seeded with `-0.0`) plus the bias, through the activation.
    fn row_major_reference(net: &Mlp, x: &[f64]) -> Vec<f64> {
        let flat = net.flat_params();
        let mut params = flat.as_slice();
        let mut values = x.to_vec();
        for (layer, act) in net.layers.iter().zip(&net.activations) {
            let (rows, cols) = (layer.out_dim, layer.in_dim);
            let (w, rest) = params.split_at(rows * cols);
            let (b, rest) = rest.split_at(rows);
            params = rest;
            values = (0..rows)
                .map(|r| {
                    let dot: f64 = w[r * cols..][..cols]
                        .iter()
                        .zip(&values)
                        .map(|(a, b)| a * b)
                        .sum();
                    act.apply(dot + b[r])
                })
                .collect();
        }
        values
    }

    #[test]
    fn forward_equals_a_row_major_reference_bit_for_bit() {
        // 20 and 33 hidden lanes run a block of 16 plus a tail; 5 and 2
        // are all tail. Every activation, and inputs with signed zeros.
        let mut rng = StdRng::seed_from_u64(41);
        let nets = [
            paper_qnet(2),
            Mlp::new(
                &mut rng,
                &[2, 33, 5],
                &[Activation::Tanh, Activation::Identity],
            ),
            Mlp::new(
                &mut rng,
                &[4, 5, 16, 1],
                &[Activation::Sigmoid, Activation::Relu, Activation::Tanh],
            ),
        ];
        let mut cache = MlpCache::default();
        for net in &nets {
            for s in 0..300 {
                let x: Vec<f64> = (0..net.in_dim())
                    .map(|c| match (s + c) % 5 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-2.0..2.0),
                    })
                    .collect();
                let want: Vec<u64> = row_major_reference(net, &x)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let got: Vec<u64> = net
                    .forward_cached(&x, &mut cache)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(got, want, "x = {x:?}");
            }
        }
    }

    #[test]
    fn forward_batch_equals_forward_per_sample() {
        let net = paper_qnet(4);
        let samples: Vec<Vec<f64>> = (0..5)
            .map(|s| (0..3).map(|c| 0.3 * s as f64 - 0.2 * c as f64).collect())
            .collect();
        let mut batch = MlpBatch::default();
        let out = net.forward_batch(&feature_major(&samples), samples.len(), &mut batch);
        for (s, x) in samples.iter().enumerate() {
            let want = net.forward(x);
            let got: Vec<f64> = (0..4).map(|r| out[r * samples.len() + s]).collect();
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "sample {s}"
            );
        }
    }

    #[test]
    fn backward_batch_matches_finite_difference() {
        let net = paper_qnet(4);
        let samples = vec![vec![0.25, -0.5, 0.75], vec![-0.1, 0.6, 0.05]];
        let x = feature_major(&samples);
        // Loss: Σ over samples and outputs of c ⊙ y (covers every output).
        let c = [1.0, -0.3, -2.0, 0.8, 0.5, 0.1, 0.25, -1.2];

        let mut batch = MlpBatch::default();
        net.forward_batch(&x, 2, &mut batch);
        let mut grads = MlpGrads::zeros(&net);
        net.backward_batch(&x, &mut batch, &c, &mut grads);

        let mut params = net.flat_params();
        let err = crate::gradient_check(
            &mut params,
            &flat_grads(&net, &grads),
            |p| {
                let mut probe = net.clone();
                probe.set_flat_params(p);
                let mut scratch = MlpBatch::default();
                let y = probe.forward_batch(&x, 2, &mut scratch);
                y.iter().zip(&c).map(|(a, b)| a * b).sum()
            },
            1e-5,
        );
        assert!(err < 1e-5, "MLP gradient error {err}");
    }

    #[test]
    fn backward_batch_accumulates_until_zeroed() {
        let net = paper_qnet(2);
        let x = [0.3, -0.4, 0.9];
        let mut batch = MlpBatch::default();
        net.forward_batch(&x, 1, &mut batch);
        let mut grads = MlpGrads::zeros(&net);
        net.backward_batch(&x, &mut batch, &[1.0, -1.0], &mut grads);
        let once = flat_grads(&net, &grads);
        net.backward_batch(&x, &mut batch, &[1.0, -1.0], &mut grads);
        assert_eq!(
            flat_grads(&net, &grads),
            once.iter().map(|g| g + g).collect::<Vec<_>>()
        );
        grads.zero();
        assert!(flat_grads(&net, &grads).iter().all(|&g| g == 0.0));
    }

    #[test]
    fn grads_are_reshaped_when_only_the_products_of_the_dims_agree() {
        // (in 4, out 2) and (in 2, out 4) share `gw.len() == 8`; what one
        // accumulated must not leak into the other's gradient.
        let mut rng = StdRng::seed_from_u64(29);
        let wide_in = Mlp::new(&mut rng, &[4, 2], &[Activation::Tanh]);
        let wide_out = Mlp::new(&mut rng, &[2, 4], &[Activation::Tanh]);
        let accumulate = |net: &Mlp, grads: &mut MlpGrads| {
            let x: Vec<f64> = (0..net.in_dim()).map(|c| 0.5 - 0.3 * c as f64).collect();
            let mut batch = MlpBatch::default();
            net.forward_batch(&x, 1, &mut batch);
            net.backward_batch(&x, &mut batch, &vec![1.0; net.out_dim()], grads);
        };
        for (stale, net) in [(&wide_in, &wide_out), (&wide_out, &wide_in)] {
            let mut fresh = MlpGrads::zeros(net);
            accumulate(net, &mut fresh);
            let mut reused = MlpGrads::zeros(stale);
            accumulate(stale, &mut reused);
            accumulate(net, &mut reused);
            assert_eq!(flat_grads(net, &reused), flat_grads(net, &fresh));
            assert_eq!(reused.layers[0].gb.len(), net.out_dim());
        }
    }

    #[test]
    fn training_reduces_mse_on_regression_task() {
        // Fit y = sigmoid(2x0 - x1) with a small net; loss must drop.
        let mut rng = StdRng::seed_from_u64(42);
        let mut net = Mlp::new(
            &mut rng,
            &[2, 16, 1],
            &[Activation::Tanh, Activation::Sigmoid],
        );
        let mut adam = Adam::new(0.01);
        let (inputs, targets): (Vec<Vec<f64>>, Vec<f64>) = (0..128)
            .map(|i| {
                let x0 = ((i * 37) % 64) as f64 / 32.0 - 1.0;
                let x1 = ((i * 13) % 64) as f64 / 32.0 - 1.0;
                (vec![x0, x1], 1.0 / (1.0 + (-(2.0 * x0 - x1)).exp()))
            })
            .unzip();
        let x = feature_major(&inputs);
        let n = targets.len();

        let mse = |net: &Mlp| -> f64 {
            inputs
                .iter()
                .zip(&targets)
                .map(|(x, y)| {
                    let p = net.forward(x)[0];
                    (p - y) * (p - y)
                })
                .sum::<f64>()
                / n as f64
        };

        let before = mse(&net);
        let mut batch = MlpBatch::default();
        let mut grads = MlpGrads::zeros(&net);
        let mut dout = vec![0.0; n];
        for _ in 0..300 {
            grads.zero();
            let out = net.forward_batch(&x, n, &mut batch);
            for ((d, p), y) in dout.iter_mut().zip(out).zip(&targets) {
                *d = 2.0 * (p - y);
            }
            net.backward_batch(&x, &mut batch, &dout, &mut grads);
            grads.scale(1.0 / n as f64);
            net.apply_grads(&grads, &mut adam);
        }
        let after = mse(&net);
        assert!(
            after < before / 10.0,
            "training failed to reduce loss: {before} -> {after}"
        );
    }

    #[test]
    fn copy_from_syncs_parameters() {
        let a = paper_qnet(3);
        let mut b = paper_qnet(3);
        // Perturb b.
        let mut p = b.flat_params();
        p.iter_mut().for_each(|v| *v += 1.0);
        b.set_flat_params(&p);
        assert_ne!(a.flat_params(), b.flat_params());
        b.copy_from(&a);
        assert_eq!(a.flat_params(), b.flat_params());
    }

    #[test]
    #[should_panic(expected = "one activation per layer")]
    fn mismatched_activations_panic() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Mlp::new(&mut rng, &[2, 3, 1], &[Activation::Relu]);
    }
}

use crate::adam::Adam;
use crate::linear::{Linear, LinearGrads};
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
///
/// The SimSub Q-network is `Mlp::new(rng, &[3, 20, 2 + k],
/// &[Activation::Relu, Activation::Sigmoid])` per Section 6.1 of the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    activations: Vec<Activation>,
}

/// Per-layer post-activation values cached by [`Mlp::forward_cached`] for
/// use by [`Mlp::backward`]. Reusable across calls without reallocating.
#[derive(Debug, Clone, Default)]
pub struct MlpCache {
    /// `outputs[l]` is the post-activation output of layer `l`.
    outputs: Vec<Vec<f64>>,
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
    /// returns the final output slice.
    pub fn forward_cached<'c>(&self, x: &[f64], cache: &'c mut MlpCache) -> &'c [f64] {
        cache.outputs.resize(self.layers.len(), Vec::new());
        // Split borrows: walk layer by layer writing into cache.outputs[l].
        for l in 0..self.layers.len() {
            let (done, rest) = cache.outputs.split_at_mut(l);
            let out = &mut rest[0];
            let layer_in: &[f64] = if l == 0 { x } else { &done[l - 1] };
            self.layers[l].forward(layer_in, out);
            for v in out.iter_mut() {
                *v = self.activations[l].apply(*v);
            }
        }
        cache.outputs.last().map(Vec::as_slice).unwrap_or(&[])
    }

    /// Backward pass: given the input `x` of the recorded forward pass and
    /// the loss gradient w.r.t. the network output, accumulates parameter
    /// gradients into `grads`.
    pub fn backward(&self, x: &[f64], cache: &MlpCache, dloss_dout: &[f64], grads: &mut MlpGrads) {
        assert_eq!(cache.outputs.len(), self.layers.len(), "cache mismatch");
        grads.ensure_shape(self);
        let n = self.layers.len();
        // delta starts at the output and is pulled back layer by layer.
        let mut delta: Vec<f64> = dloss_dout.to_vec();
        for l in (0..n).rev() {
            // Chain through the activation.
            for (d, y) in delta.iter_mut().zip(&cache.outputs[l]) {
                *d *= self.activations[l].derivative_from_output(*y);
            }
            let layer_in: &[f64] = if l == 0 { x } else { &cache.outputs[l - 1] };
            if l == 0 {
                self.layers[l].backward(layer_in, &delta, &mut grads.layers[l], None);
            } else {
                let mut dx = vec![0.0; self.layers[l].in_dim];
                self.layers[l].backward(layer_in, &delta, &mut grads.layers[l], Some(&mut dx));
                delta = dx;
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

    /// Flattens all parameters (for tests and checksums).
    pub fn flat_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for l in &self.layers {
            out.extend_from_slice(&l.w);
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
            l.w.copy_from_slice(&flat[off..off + wl]);
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
        if self.layers.len() != mlp.layers.len() {
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

    #[test]
    fn backward_matches_finite_difference() {
        let net = paper_qnet(4);
        let x = [0.25, -0.5, 0.75];
        // Loss: weighted sum of outputs (covers all output coordinates).
        let c = [1.0, -2.0, 0.5, 0.25];

        let mut cache = MlpCache::default();
        net.forward_cached(&x, &mut cache);
        let mut grads = MlpGrads::zeros(&net);
        net.backward(&x, &cache, &c, &mut grads);

        // Flatten analytic grads in the same order as flat_params.
        let mut analytic = Vec::new();
        for g in &grads.layers {
            analytic.extend_from_slice(&g.gw);
            analytic.extend_from_slice(&g.gb);
        }

        let mut params = net.flat_params();
        let err = crate::gradient_check(
            &mut params,
            &analytic,
            |p| {
                let mut probe = net.clone();
                probe.set_flat_params(p);
                probe.forward(&x).iter().zip(&c).map(|(a, b)| a * b).sum()
            },
            1e-5,
        );
        assert!(err < 1e-5, "MLP gradient error {err}");
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
        let data: Vec<([f64; 2], f64)> = (0..128)
            .map(|i| {
                let x0 = ((i * 37) % 64) as f64 / 32.0 - 1.0;
                let x1 = ((i * 13) % 64) as f64 / 32.0 - 1.0;
                ([x0, x1], 1.0 / (1.0 + (-(2.0 * x0 - x1)).exp()))
            })
            .collect();

        let mse = |net: &Mlp| -> f64 {
            data.iter()
                .map(|(x, y)| {
                    let p = net.forward(x)[0];
                    (p - y) * (p - y)
                })
                .sum::<f64>()
                / data.len() as f64
        };

        let before = mse(&net);
        let mut cache = MlpCache::default();
        let mut grads = MlpGrads::zeros(&net);
        for _ in 0..300 {
            grads.zero();
            for (x, y) in &data {
                let out = net.forward_cached(x, &mut cache);
                let d = [2.0 * (out[0] - y)];
                net.backward(x, &cache, &d, &mut grads);
            }
            grads.scale(1.0 / data.len() as f64);
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

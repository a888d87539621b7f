use crate::init::xavier_uniform;
use crate::math::matvec;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense layer `y = W x + b` with row-major `W` of shape
/// `(out_dim, in_dim)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    /// Input dimensionality.
    pub in_dim: usize,
    /// Output dimensionality.
    pub out_dim: usize,
    /// Row-major weights, `w[r * in_dim + c]`.
    pub w: Vec<f64>,
    /// Per-output bias.
    pub b: Vec<f64>,
}

/// Gradient accumulator matching a [`Linear`] layer's shape.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LinearGrads {
    /// Gradient of the weights.
    pub gw: Vec<f64>,
    /// Gradient of the bias.
    pub gb: Vec<f64>,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new<R: Rng>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        Self {
            in_dim,
            out_dim,
            w: xavier_uniform(rng, in_dim, out_dim, in_dim * out_dim),
            b: vec![0.0; out_dim],
        }
    }

    /// Forward pass into a caller-provided output buffer
    /// (resized as needed).
    pub fn forward(&self, x: &[f64], y: &mut Vec<f64>) {
        y.resize(self.out_dim, 0.0);
        matvec(&self.w, self.out_dim, self.in_dim, x, y);
        for (yi, bi) in y.iter_mut().zip(&self.b) {
            *yi += bi;
        }
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Copies all parameters from `other` (same shape required).
    pub fn copy_from(&mut self, other: &Linear) {
        assert_eq!(self.in_dim, other.in_dim);
        assert_eq!(self.out_dim, other.out_dim);
        self.w.copy_from_slice(&other.w);
        self.b.copy_from_slice(&other.b);
    }
}

impl LinearGrads {
    /// Zeroed gradients shaped like `layer`.
    pub fn zeros(layer: &Linear) -> Self {
        Self {
            gw: vec![0.0; layer.w.len()],
            gb: vec![0.0; layer.b.len()],
        }
    }

    /// True when these accumulators are shaped like `layer`: `gb` fixes
    /// the output count and then `gw` the input count.
    pub(crate) fn fits(&self, layer: &Linear) -> bool {
        self.gw.len() == layer.w.len() && self.gb.len() == layer.b.len()
    }

    /// Resets accumulated gradients to zero.
    pub fn zero(&mut self) {
        self.gw.iter_mut().for_each(|g| *g = 0.0);
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Scales all gradients, e.g. to average over a minibatch.
    pub fn scale(&mut self, s: f64) {
        self.gw.iter_mut().for_each(|g| *g *= s);
        self.gb.iter_mut().for_each(|g| *g *= s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let layer = Linear {
            in_dim: 2,
            out_dim: 2,
            w: vec![1.0, 2.0, 3.0, 4.0],
            b: vec![0.5, -0.5],
        };
        let mut y = Vec::new();
        layer.forward(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.5, 6.5]);
    }
}

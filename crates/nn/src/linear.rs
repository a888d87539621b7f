use crate::init::xavier_uniform;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense layer `y = W x + b` with `W` of shape `(out_dim, in_dim)`,
/// stored column-major: the one layout that the forward and backward
/// passes, the gradients and Adam share. Row-major order — Xavier's draw
/// order, [`crate::Mlp::flat_params`] and the file — is met only in
/// [`Linear::new`], the flat-parameter calls and the codec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    /// Input dimensionality.
    pub in_dim: usize,
    /// Output dimensionality.
    pub out_dim: usize,
    /// Column-major weights: `w[c * out_dim + r]` is `W[r][c]`.
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
    /// Xavier-initialized layer, its weights drawn row by row.
    pub fn new<R: Rng>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        let w = xavier_uniform(rng, in_dim, out_dim, in_dim * out_dim);
        Self::from_row_major(in_dim, out_dim, &w, vec![0.0; out_dim])
    }

    /// The layer whose weights `w` are given row by row,
    /// `w[r * in_dim + c]`.
    pub(crate) fn from_row_major(in_dim: usize, out_dim: usize, w: &[f64], b: Vec<f64>) -> Self {
        let mut layer = Self {
            in_dim,
            out_dim,
            w: vec![0.0; in_dim * out_dim],
            b,
        };
        layer.set_row_major(w);
        layer
    }

    /// Position in `w` of each weight in row-major order.
    pub(crate) fn row_major_order(&self) -> impl Iterator<Item = usize> {
        let (rows, cols) = (self.out_dim, self.in_dim);
        (0..rows).flat_map(move |r| (0..cols).map(move |c| c * rows + r))
    }

    /// The weights row by row.
    pub(crate) fn row_major(&self) -> impl Iterator<Item = f64> + '_ {
        self.row_major_order().map(|i| self.w[i])
    }

    /// Loads weights given row by row.
    pub(crate) fn set_row_major(&mut self, w: &[f64]) {
        assert_eq!(w.len(), self.w.len());
        for (i, &v) in self.row_major_order().zip(w) {
            self.w[i] = v;
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
    use crate::{Activation, Mlp};

    #[test]
    fn forward_known_values() {
        // W = [[1, 2], [3, 4]], column by column.
        let layer = Linear {
            in_dim: 2,
            out_dim: 2,
            w: vec![1.0, 3.0, 2.0, 4.0],
            b: vec![0.5, -0.5],
        };
        let net = Mlp::from_parts(vec![layer], vec![Activation::Identity]).unwrap();
        assert_eq!(net.forward(&[1.0, 1.0]), vec![3.5, 6.5]);
    }

    #[test]
    fn row_major_order_is_the_transpose() {
        // W = [[1, 2, 3], [4, 5, 6]].
        let rows = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let layer = Linear::from_row_major(3, 2, &rows, vec![0.0; 2]);
        assert_eq!(layer.w, [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(layer.row_major().collect::<Vec<_>>(), rows);
    }
}

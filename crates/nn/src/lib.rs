#![warn(missing_docs)]
// DP recurrences and BPTT update several arrays in lockstep per index;
// explicit index loops keep those kernels aligned with the paper's
// equations, which iterator chains would obscure.
#![allow(clippy::needless_range_loop)]

//! Minimal from-scratch neural-network substrate for the SimSub reproduction.
//!
//! The paper's learned components are small: a 2-layer feed-forward Q-network
//! (3 inputs → 20 ReLU → `2 + k` sigmoid outputs, Section 6.1) and a GRU
//! encoder for the t2vec similarity measure. The offline crate set contains
//! no tensor library, so this crate implements exactly what those components
//! need — dense layers, ReLU/sigmoid/tanh activations, a GRU cell with
//! truncated-BPTT gradients, and the Adam optimizer — with hand-derived
//! backward passes validated against finite differences in the test suite.
//!
//! Everything is `f64` and allocation-conscious: forward/backward passes
//! reuse caller-provided caches, and the MLP trains a whole minibatch per
//! pass (`Mlp::forward_batch` / `Mlp::backward_batch`), so neither the RL
//! training loop nor t2vec's BPTT allocates per step.

mod adam;
mod gru;
mod init;
mod linear;
mod math;
mod mlp;
mod persist;

pub use adam::Adam;
pub use gru::{GruCache, GruCell, GruGrads, GruScratch};
pub use init::xavier_uniform;
pub use linear::{Linear, LinearGrads};
pub use math::{matvec_columns, squared_distance};
pub use mlp::{Activation, Mlp, MlpBatch, MlpCache, MlpGrads};
pub use persist::{BinaryCodec, CodecError, Decoder, Encoder};

/// Numerically checks an analytic gradient against central finite
/// differences. `f` evaluates the scalar loss as a function of the parameter
/// vector; `analytic` is the gradient produced by a backward pass.
/// Returns the maximum relative error over all coordinates.
///
/// Used throughout the test suites of this crate; exposed publicly so
/// dependent crates (e.g. the t2vec trainer) can gradient-check their own
/// composite losses.
pub fn gradient_check<F: FnMut(&[f64]) -> f64>(
    params: &mut [f64],
    analytic: &[f64],
    mut f: F,
    eps: f64,
) -> f64 {
    assert_eq!(params.len(), analytic.len());
    let mut worst: f64 = 0.0;
    for i in 0..params.len() {
        let orig = params[i];
        params[i] = orig + eps;
        let up = f(params);
        params[i] = orig - eps;
        let down = f(params);
        params[i] = orig;
        let numeric = (up - down) / (2.0 * eps);
        let denom = numeric.abs().max(analytic[i].abs()).max(1e-8);
        worst = worst.max((numeric - analytic[i]).abs() / denom);
    }
    worst
}

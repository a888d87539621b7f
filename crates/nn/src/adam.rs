use serde::{Deserialize, Serialize};

/// Adam optimizer (Kingma & Ba, 2015) — the paper trains both the DQN and
/// the learned measure with "Adam stochastic gradient descent with an
/// initial learning rate of 0.001" (Section 6.1).
///
/// Moment buffers are positional: every [`Adam::begin_step`] rewinds a
/// cursor, the `i`-th [`Adam::update`] of a step uses the `i`-th buffers
/// (sized on its first call), and so the calls must touch parameter
/// tensors in a stable order (which the `Mlp`/`GruCell` drivers
/// guarantee).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Step size α.
    pub learning_rate: f64,
    /// First-moment decay β₁ (default 0.9).
    pub beta1: f64,
    /// Second-moment decay β₂ (default 0.999).
    pub beta2: f64,
    /// Denominator fuzz ε (default 1e-8).
    pub eps: f64,
    /// Global step count `t` (shared across tensors, incremented once per
    /// optimizer step).
    t: u64,
    /// Bias corrections `1 − β₁ᵗ` and `1 − β₂ᵗ` of the current step, set by
    /// [`Adam::begin_step`] and shared by every tensor it updates.
    bias_correction: (f64, f64),
    cursor: usize,
    moments: Vec<Moments>,
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Moments {
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates an optimizer with the standard β/ε defaults.
    pub fn new(learning_rate: f64) -> Self {
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            bias_correction: (0.0, 0.0),
            cursor: 0,
            moments: Vec::new(),
        }
    }

    /// Marks the start of an optimizer step: increments the bias-correction
    /// counter, computes this step's corrections and rewinds the tensor
    /// cursor.
    pub fn begin_step(&mut self) {
        self.t += 1;
        self.bias_correction = (
            1.0 - self.beta1.powi(self.t as i32),
            1.0 - self.beta2.powi(self.t as i32),
        );
        self.cursor = 0;
    }

    /// Applies one Adam update to `params` given `grads`.
    /// Must be called between `begin_step` calls in a stable tensor order.
    pub fn update(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len());
        assert!(self.t > 0, "call begin_step before update");
        if self.cursor == self.moments.len() {
            self.moments.push(Moments {
                m: vec![0.0; params.len()],
                v: vec![0.0; params.len()],
            });
        }
        let mom = &mut self.moments[self.cursor];
        assert_eq!(
            mom.m.len(),
            params.len(),
            "tensor order changed between steps"
        );
        self.cursor += 1;

        let (bc1, bc2) = self.bias_correction;
        for i in 0..params.len() {
            let g = grads[i];
            mom.m[i] = self.beta1 * mom.m[i] + (1.0 - self.beta1) * g;
            mom.v[i] = self.beta2 * mom.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = mom.m[i] / bc1;
            let v_hat = mom.v[i] / bc2;
            params[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    /// Number of optimizer steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        // f(x) = (x - 3)^2; Adam should converge to 3.
        let mut adam = Adam::new(0.1);
        let mut x = vec![0.0];
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            adam.begin_step();
            adam.update(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "x = {}", x[0]);
    }

    #[test]
    fn first_step_is_learning_rate_sized() {
        // With bias correction, the first Adam step has magnitude ~lr.
        let mut adam = Adam::new(0.001);
        let mut x = vec![10.0];
        adam.begin_step();
        adam.update(&mut x, &[123.0]);
        assert!((10.0 - x[0] - 0.001).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "tensor order changed")]
    fn unstable_tensor_order_detected() {
        let mut adam = Adam::new(0.01);
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 5];
        adam.begin_step();
        adam.update(&mut a, &[0.0; 3]);
        adam.update(&mut b, &[0.0; 5]);
        adam.begin_step();
        adam.update(&mut b, &[0.0; 5]); // wrong order
    }
}

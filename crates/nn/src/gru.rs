use crate::adam::Adam;
use crate::init::xavier_uniform;
use crate::math::{add_products, add_transposed, matvec_columns};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A gated recurrent unit (Cho et al., 2014) — the encoder architecture of
/// t2vec. For input `x_t` and previous hidden state `h_{t-1}`:
///
/// ```text
/// z_t = σ(W_z x_t + U_z h_{t-1} + b_z)          (update gate)
/// r_t = σ(W_r x_t + U_r h_{t-1} + b_r)          (reset gate)
/// ĥ_t = tanh(W_h x_t + U_h (r_t ⊙ h_{t-1}) + b_h)
/// h_t = (1 - z_t) ⊙ h_{t-1} + z_t ⊙ ĥ_t
/// ```
///
/// The incremental property the SimSub paper exploits (`Φinc = O(1)` for
/// t2vec, Table 1) falls directly out of this recurrence: extending a
/// subtrajectory by one point is a single [`GruCell::step_with`] from the
/// cached hidden state.
///
/// The weights are stored in the one layout that the forward pass, BPTT,
/// the gradients and Adam share: column-major, so that `W x` is a sum of
/// columns scaled by `x[c]` whose output lanes sit side by side, and
/// stacked, so that gates sharing an input share one such sum — `W_z |
/// W_r | W_h` as `[in_dim][3d]`, `U_z | U_r` as `[d][2d]`, `U_h` as
/// `[d][d]`, and the biases `b_z | b_r | b_h`. Row-major order, one tensor
/// after another (`W_z W_r W_h U_z U_r U_h b_z b_r b_h`, each matrix row by
/// row), is met only in [`GruCell::new`]'s Xavier draws and in
/// [`GruCell::flat_params`] / [`GruCell::set_flat_params`] — hence the
/// on-disk format. Beside the weights the cell keeps the products
/// `U_z · 0` and `U_h · 0` that a step from the fresh all-`+0.0` state adds
/// in place of its recurrent products (see [`GruCell::step_with`]); every
/// field is private so they can only change with `U`
/// ([`GruCell::apply_grads`], [`GruCell::set_flat_params`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GruCell {
    in_dim: usize,
    hidden_dim: usize,
    /// `[in_dim][3d]`: column `c` of `W_z | W_r | W_h`.
    wx: Vec<f64>,
    /// `[d][2d]`: column `c` of `U_z | U_r`.
    uzr: Vec<f64>,
    /// `[d][d]`: column `c` of `U_h`.
    uh: Vec<f64>,
    /// `[3d]`: `b_z | b_r | b_h`.
    b: Vec<f64>,
    /// `[d]`: `U_z · 0`, summed as [`matvec_columns`] sums it against the
    /// fresh state: `-0.0`, then `+ w * 0.0` column by column. A lane is
    /// `-0.0` when every weight of its row is negative, `+0.0` when one is
    /// not, and NaN when one is not finite.
    uz0: Vec<f64>,
    /// `[d]`: `U_h · 0`, summed the same way.
    uh0: Vec<f64>,
}

/// Caller-owned activations of one forward step; sized on first use and
/// reusable across steps and cells of the same shape without reallocating.
#[derive(Debug, Clone, Default)]
pub struct GruScratch {
    /// `W x` stacked `z | r | ĥ`, turned into the gate values in place.
    gates: Vec<f64>,
    /// `U_z h | U_r h | U_h (r ⊙ h)`, the middle turned into `r ⊙ h` in
    /// place; untouched by a fresh-state step.
    rec: Vec<f64>,
}

/// Forward-pass records of a sequence for BPTT. Step `t` is recorded as
/// `x | h_prev | z r ĥ` at `[t * stride..(t + 1) * stride]` of one buffer,
/// `stride = in_dim + 4 · hidden_dim`, so recording allocates only when
/// the buffer grows, and never for a sequence no longer than one already
/// recorded or reserved.
#[derive(Debug, Clone, Default)]
pub struct GruCache {
    steps: usize,
    records: Vec<f64>,
    scratch: GruScratch,
}

impl GruCache {
    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.steps == 0
    }

    /// Forgets the recorded steps and keeps their buffer, so the next
    /// sequence records over it in place.
    pub fn clear(&mut self) {
        self.steps = 0;
        self.records.clear();
    }

    /// Makes room for `steps` more steps of `cell` beyond those recorded,
    /// so that recording them allocates nothing.
    pub fn reserve(&mut self, cell: &GruCell, steps: usize) {
        self.records.reserve(steps * cell.record_len());
    }
}

/// Gradient accumulator matching a [`GruCell`], in its stacked,
/// column-major layout.
#[derive(Debug, Clone, Default)]
pub struct GruGrads {
    /// Gradient of `W_z | W_r | W_h`, `[in_dim][3d]`.
    pub wx: Vec<f64>,
    /// Gradient of `U_z | U_r`, `[d][2d]`.
    pub uzr: Vec<f64>,
    /// Gradient of `U_h`, `[d][d]`.
    pub uh: Vec<f64>,
    /// Gradient of `b_z | b_r | b_h`.
    pub b: Vec<f64>,
    bptt: BpttScratch,
}

/// The per-step vectors of [`GruCell::backward`], kept with the
/// accumulator so that a backward pass allocates nothing once they are
/// sized.
#[derive(Debug, Clone, Default)]
struct BpttScratch {
    /// Gradient w.r.t. the hidden state after the step being pulled back,
    /// and the one it yields for the state before it.
    dh: Vec<f64>,
    dh_prev: Vec<f64>,
    dz: Vec<f64>,
    drh: Vec<f64>,
    /// The gates' pre-activation gradients, stacked `z | r | ĥ` like `b`.
    dpre: Vec<f64>,
    /// `r ⊙ h_prev`.
    rh: Vec<f64>,
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Where each parameter of the row-major order sits in the stored tensors
/// `[wx, uzr, uh, b]`, as `(tensor, index)`: the one conversion between the
/// two orders, for the cell and its gradients alike.
fn row_major_order(n: usize, d: usize) -> impl Iterator<Item = (usize, usize)> {
    // `gates` matrices of `cols` columns stacked in tensor `t`, each row by row.
    let stacked = move |t: usize, gates: usize, cols: usize| {
        (0..gates).flat_map(move |g| {
            (0..d).flat_map(move |r| (0..cols).map(move |c| (t, c * gates * d + g * d + r)))
        })
    };
    stacked(0, 3, n)
        .chain(stacked(1, 2, d))
        .chain(stacked(2, 1, d))
        .chain((0..3 * d).map(|k| (3, k)))
}

/// The tensors `[wx, uzr, uh, b]` in row-major order.
fn gather_row_major(n: usize, d: usize, tensors: [&[f64]; 4]) -> Vec<f64> {
    row_major_order(n, d).map(|(t, i)| tensors[t][i]).collect()
}

impl GruCell {
    /// Xavier-initialized GRU cell, its weights drawn tensor by tensor and
    /// row by row; the biases start at zero.
    pub fn new<R: Rng>(rng: &mut R, in_dim: usize, hidden_dim: usize) -> Self {
        let d = hidden_dim;
        let count = 3 * (d * in_dim + d * d + d);
        let mut flat = Vec::with_capacity(count);
        for _ in 0..3 {
            flat.extend(xavier_uniform(rng, in_dim, d, d * in_dim));
        }
        for _ in 0..3 {
            flat.extend(xavier_uniform(rng, d, d, d * d));
        }
        flat.resize(count, 0.0);
        Self::from_flat(in_dim, hidden_dim, &flat)
    }

    /// The cell whose parameters are `flat`, in [`GruCell::flat_params`]
    /// order.
    pub(crate) fn from_flat(in_dim: usize, hidden_dim: usize, flat: &[f64]) -> Self {
        let d = hidden_dim;
        let mut cell = Self {
            in_dim,
            hidden_dim,
            wx: vec![0.0; in_dim * 3 * d],
            uzr: vec![0.0; d * 2 * d],
            uh: vec![0.0; d * d],
            b: vec![0.0; 3 * d],
            uz0: vec![0.0; d],
            uh0: vec![0.0; d],
        };
        cell.set_flat_params(flat);
        cell
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Hidden-state dimensionality (= embedding size).
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Recomputes the `U · 0` rows after `U` changed.
    fn refresh_zero_rows(&mut self) {
        let d = self.hidden_dim;
        let times_zero = |u: &[f64], stride: usize, r: usize| {
            u[r..]
                .iter()
                .step_by(stride)
                .fold(-0.0, |acc, w| acc + w * 0.0)
        };
        for r in 0..d {
            self.uz0[r] = times_zero(&self.uzr, 2 * d, r);
            self.uh0[r] = times_zero(&self.uh, d, r);
        }
    }

    /// The all-zeros initial hidden state `h_0`.
    pub fn initial_state(&self) -> Vec<f64> {
        vec![0.0; self.hidden_dim]
    }

    /// One recurrence step on freshly allocated scratch: writes `h_t` into
    /// `h` (in place over `h_{t-1}`). Loops should own a [`GruScratch`] and
    /// call [`GruCell::step_with`].
    pub fn step(&self, h: &mut [f64], x: &[f64]) {
        self.step_with(h, x, &mut GruScratch::default());
    }

    /// One recurrence step: writes `h_t` into `h` (in place over
    /// `h_{t-1}`), leaving its activations in `scratch`. This is the
    /// O(1)-per-point incremental primitive (constant in the trajectory
    /// length; the constant is `O(hidden_dim²)`), and it does not allocate
    /// once `scratch` has seen this cell's shape.
    ///
    /// A step from the fresh state — every lane of `h` is `+0.0`, as
    /// [`GruCell::initial_state`] and `fill(0.0)` leave it — reads no
    /// recurrent product: `U_z h` and `U_h (r ⊙ h)` are the `U · 0` rows
    /// the cell keeps, and the reset gate `r`, which only scales `h`, is
    /// never computed. That skips the step's two `U` products and its `d`
    /// reset sigmoids, and gives the full body's `h_t` bit for bit: with
    /// `r ∈ [0, 1]`, `r ⊙ h` is all `+0.0`, so `U_h (r ⊙ h)` is the same
    /// `-0.0`-seeded sum of `w * 0.0` the kept row holds. (Only a NaN
    /// reset pre-activation, from a non-finite input or `W_r`/`U_r`/`b_r`
    /// weight, would tell the two apart.)
    pub fn step_with(&self, h: &mut [f64], x: &[f64], scratch: &mut GruScratch) {
        let fresh = h.iter().all(|v| v.to_bits() == 0);
        self.forward(h, x, scratch, fresh);
    }

    /// `h ← (1 − z) ⊙ h + z ⊙ ĥ` over the gates of [`GruCell::gates`].
    fn forward(&self, h: &mut [f64], x: &[f64], s: &mut GruScratch, fresh: bool) {
        let d = self.hidden_dim;
        self.gates(h, x, s, fresh);
        let (z, hhat) = (&s.gates[..d], &s.gates[2 * d..]);
        for i in 0..d {
            h[i] = (1.0 - z[i]) * h[i] + z[i] * hhat[i];
        }
    }

    /// The one forward body: fills `s.gates` with `z | r | ĥ` for
    /// `(h_prev, x)`. Each pre-activation is `(W x + U h) + b` with both
    /// products summed left to right from `f64::sum`'s `-0.0` seed, as a
    /// row-by-row dot product would — only across output lanes at once.
    /// `fresh` (the caller has checked that `h_prev` is all `+0.0`) takes
    /// the kept `U · 0` rows for `U_z h` and `U_h (r ⊙ h)` and leaves the
    /// `r` lanes holding `W_r x`.
    fn gates(&self, h_prev: &[f64], x: &[f64], s: &mut GruScratch, fresh: bool) {
        let d = self.hidden_dim;
        debug_assert_eq!(h_prev.len(), d);
        debug_assert_eq!(x.len(), self.in_dim);
        s.gates.resize(3 * d, 0.0);
        s.rec.resize(3 * d, 0.0);
        matvec_columns(&self.wx, x, &mut s.gates);
        let (z, rest) = s.gates.split_at_mut(d);
        let (r, hhat) = rest.split_at_mut(d);
        let (bz, rest) = self.b.split_at(d);
        let (br, bh) = rest.split_at(d);
        let (uz_h, uh_rh): (&[f64], &[f64]) = if fresh {
            (&self.uz0, &self.uh0)
        } else {
            let (uzr_h, uh_rh) = s.rec.split_at_mut(2 * d);
            matvec_columns(&self.uzr, h_prev, uzr_h);
            // `ur_h` becomes `r ⊙ h`.
            let (uz_h, ur_h) = uzr_h.split_at_mut(d);
            for i in 0..d {
                r[i] = sigmoid(r[i] + ur_h[i] + br[i]);
                ur_h[i] = r[i] * h_prev[i];
            }
            matvec_columns(&self.uh, ur_h, uh_rh);
            (uz_h, uh_rh)
        };
        for i in 0..d {
            z[i] = sigmoid(z[i] + uz_h[i] + bz[i]);
        }
        for i in 0..d {
            hhat[i] = (hhat[i] + uh_rh[i] + bh[i]).tanh();
        }
    }

    /// Forward step that records intermediates for BPTT into `cache`.
    /// Always the full body, fresh state or not: BPTT reads `r`.
    pub fn step_cached(&self, h: &mut [f64], x: &[f64], cache: &mut GruCache) {
        cache.records.extend_from_slice(x);
        cache.records.extend_from_slice(h);
        self.forward(h, x, &mut cache.scratch, false);
        cache.records.extend_from_slice(&cache.scratch.gates);
        cache.steps += 1;
    }

    /// Length of one step's record in a [`GruCache`]: `x | h_prev | z r ĥ`.
    fn record_len(&self) -> usize {
        self.in_dim + 4 * self.hidden_dim
    }

    /// Encodes a full sequence, returning the final hidden state.
    pub fn encode(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        let mut h = self.initial_state();
        let mut scratch = GruScratch::default();
        for x in xs {
            self.step_with(&mut h, x, &mut scratch);
        }
        h
    }

    /// Backpropagation through time over the steps recorded in `cache`.
    ///
    /// `dh_final` is the loss gradient w.r.t. the final hidden state.
    /// Parameter gradients are *accumulated* into `grads`; the function
    /// returns the gradient w.r.t. the initial hidden state (rarely needed,
    /// but cheap to expose). Runs on buffers `grads` keeps, so it
    /// allocates nothing once they are sized.
    pub fn backward<'g>(
        &self,
        cache: &GruCache,
        dh_final: &[f64],
        grads: &'g mut GruGrads,
    ) -> &'g [f64] {
        let (d, n) = (self.hidden_dim, self.in_dim);
        let stride = self.record_len();
        assert_eq!(
            cache.records.len(),
            cache.steps * stride,
            "cache recorded by a cell of another shape"
        );
        grads.ensure_shape(self);
        let BpttScratch {
            dh,
            dh_prev,
            dz,
            drh,
            dpre,
            rh,
        } = &mut grads.bptt;
        for v in [&mut *dh_prev, dz, drh, rh] {
            v.resize(d, 0.0);
        }
        dpre.resize(3 * d, 0.0);
        dh.clear();
        dh.extend_from_slice(dh_final);

        for t in (0..cache.steps).rev() {
            let (x, rest) = cache.records[t * stride..(t + 1) * stride].split_at(n);
            let (h_prev, rest) = rest.split_at(d);
            let (z, rest) = rest.split_at(d);
            let (r, hhat) = rest.split_at(d);
            let (dz_pre, rest) = dpre.split_at_mut(d);
            let (dr_pre, dhhat_pre) = rest.split_at_mut(d);
            dh_prev.fill(0.0);

            for i in 0..d {
                // h = (1 - z) ⊙ h_prev + z ⊙ ĥ
                dh_prev[i] += dh[i] * (1.0 - z[i]);
                dz[i] = dh[i] * (hhat[i] - h_prev[i]);
                // dĥ chained through tanh.
                dhhat_pre[i] = dh[i] * z[i] * (1.0 - hhat[i] * hhat[i]);
                rh[i] = r[i] * h_prev[i];
            }
            // ĥ_pre = W_h x + U_h (r ⊙ h_prev) + b_h
            drh.fill(0.0);
            add_transposed(&self.uh, d, dhhat_pre, drh);
            for i in 0..d {
                dh_prev[i] += drh[i] * r[i];
                // r gate: chained through sigmoid.
                dr_pre[i] = drh[i] * h_prev[i] * r[i] * (1.0 - r[i]);
                // z gate.
                dz_pre[i] = dz[i] * z[i] * (1.0 - z[i]);
            }
            // r_pre = W_r x + U_r h_prev + b_r, then the z gate likewise.
            add_transposed(&self.uzr[d..], 2 * d, dr_pre, dh_prev);
            add_transposed(&self.uzr, 2 * d, dz_pre, dh_prev);

            // Each weight takes one product a step, so the stacked gates
            // share one outer product per input.
            add_products(&mut grads.wx, 3 * d, dpre, x);
            add_products(&mut grads.uzr, 2 * d, &dpre[..2 * d], h_prev);
            add_products(&mut grads.uh, d, &dpre[2 * d..], rh);
            for (gb, &g) in grads.b.iter_mut().zip(dpre.iter()) {
                *gb += g;
            }

            std::mem::swap(dh, dh_prev);
        }
        dh
    }

    /// Applies an Adam update with accumulated gradients.
    pub fn apply_grads(&mut self, grads: &GruGrads, adam: &mut Adam) {
        adam.begin_step();
        adam.update(&mut self.wx, &grads.wx);
        adam.update(&mut self.uzr, &grads.uzr);
        adam.update(&mut self.uh, &grads.uh);
        adam.update(&mut self.b, &grads.b);
        self.refresh_zero_rows();
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        3 * self.hidden_dim * self.in_dim
            + 3 * self.hidden_dim * self.hidden_dim
            + 3 * self.hidden_dim
    }

    /// Flattens all parameters in the row-major order of the file:
    /// `W_z W_r W_h U_z U_r U_h b_z b_r b_h`, each matrix row by row.
    pub fn flat_params(&self) -> Vec<f64> {
        gather_row_major(
            self.in_dim,
            self.hidden_dim,
            [&self.wx, &self.uzr, &self.uh, &self.b],
        )
    }

    /// Loads from [`GruCell::flat_params`] order.
    pub fn set_flat_params(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.param_count());
        let tensors = [&mut self.wx, &mut self.uzr, &mut self.uh, &mut self.b];
        for ((t, i), &v) in row_major_order(self.in_dim, self.hidden_dim).zip(flat) {
            tensors[t][i] = v;
        }
        self.refresh_zero_rows();
    }
}

impl GruGrads {
    /// Zeroed gradients shaped like `cell`.
    pub fn zeros(cell: &GruCell) -> Self {
        Self {
            wx: vec![0.0; cell.wx.len()],
            uzr: vec![0.0; cell.uzr.len()],
            uh: vec![0.0; cell.uh.len()],
            b: vec![0.0; cell.b.len()],
            bptt: BpttScratch::default(),
        }
    }

    fn ensure_shape(&mut self, cell: &GruCell) {
        // `wx` alone cannot tell (in 4, hidden 2) from (in 2, hidden 4).
        if self.wx.len() != cell.wx.len() || self.uh.len() != cell.uh.len() {
            *self = Self::zeros(cell);
        }
    }

    fn tensors_mut(&mut self) -> [&mut Vec<f64>; 4] {
        [&mut self.wx, &mut self.uzr, &mut self.uh, &mut self.b]
    }

    /// Resets all gradients to zero.
    pub fn zero(&mut self) {
        for t in self.tensors_mut() {
            t.fill(0.0);
        }
    }

    /// Scales all gradients (minibatch averaging).
    pub fn scale(&mut self, s: f64) {
        for t in self.tensors_mut() {
            t.iter_mut().for_each(|g| *g *= s);
        }
    }

    /// Flattened gradients in [`GruCell::flat_params`] order.
    pub fn flat(&self) -> Vec<f64> {
        let d = self.b.len() / 3;
        let n = if d == 0 { 0 } else { self.wx.len() / (3 * d) };
        gather_row_major(n, d, [&self.wx, &self.uzr, &self.uh, &self.b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinaryCodec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seq(rng: &mut StdRng, len: usize, dim: usize) -> Vec<Vec<f64>> {
        use rand::Rng;
        (0..len)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn step_and_step_cached_agree() {
        let mut rng = StdRng::seed_from_u64(5);
        let cell = GruCell::new(&mut rng, 2, 8);
        let xs = seq(&mut rng, 12, 2);

        let mut h1 = cell.initial_state();
        for x in &xs {
            cell.step(&mut h1, x);
        }
        let mut h2 = cell.initial_state();
        let mut cache = GruCache::default();
        for x in &xs {
            cell.step_cached(&mut h2, x, &mut cache);
        }
        assert_eq!(h1, h2);
        assert_eq!(cache.len(), 12);
        assert_eq!(h1, cell.encode(&xs));
    }

    /// `z | ĥ` of one step from the fresh state, as bits: by the zero-state
    /// branch (`step_with`) and by the full body (`step_cached`'s record).
    fn fresh_gates(cell: &GruCell, x: &[f64]) -> (Vec<u64>, Vec<u64>) {
        let d = cell.hidden_dim;
        let z_and_hhat = |g: &[f64]| -> Vec<u64> {
            g[..d]
                .iter()
                .chain(&g[2 * d..3 * d])
                .map(|v| v.to_bits())
                .collect()
        };
        let mut scratch = GruScratch::default();
        cell.step_with(&mut cell.initial_state(), x, &mut scratch);
        let mut cache = GruCache::default();
        cell.step_cached(&mut cell.initial_state(), x, &mut cache);
        (
            z_and_hhat(&scratch.gates),
            z_and_hhat(&cache.records[cell.in_dim + d..]),
        )
    }

    #[test]
    fn a_fresh_step_skips_the_reset_gate_and_keeps_every_gate_bit() {
        // W x = -0.0 on x = -0.0 with positive W, and b_h = -0.0, so ĥ is
        // tanh(U_h · 0): `-0.0` for row 0 (every weight negative), `+0.0`
        // for row 1 (mixed) — the sign a dropped or stale zero row loses.
        let (n, d) = (2, 2);
        let mut rng = StdRng::seed_from_u64(37);
        let mut cell = GruCell::new(&mut rng, n, d);
        let all_negative = [-0.01, -0.02];
        let mixed = [0.01, -0.02];
        let flat = |uh_row0: [f64; 2]| -> Vec<f64> {
            let mut flat = vec![0.25; 3 * d * n];
            flat.extend([0.1, -0.3, 0.2, 0.4]); // U_z
            flat.extend([0.3, 0.1, -0.2, 0.5]); // U_r
            flat.extend(uh_row0.iter().chain(&mixed)); // U_h
            flat.extend([-0.0; 3 * 2]); // b_z, b_r, b_h
            flat
        };
        cell.set_flat_params(&flat(all_negative));
        let x = [-0.0, -0.0];
        let hhat = |gates: &[u64]| gates[d..].to_vec();
        let (branch, full) = fresh_gates(&cell, &x);
        assert_eq!(branch, full);
        assert_eq!(hhat(&branch), [(-0.0f64).to_bits(), 0.0f64.to_bits()]);

        // The branch ran: the `r` lanes still hold `W_r x`, ungated.
        let mut scratch = GruScratch::default();
        cell.step_with(&mut cell.initial_state(), &x, &mut scratch);
        assert!(scratch.gates[d..2 * d]
            .iter()
            .all(|v| v.to_bits() == (-0.0f64).to_bits()));
        // A `-0.0` state is not the fresh one: its reset gate is computed.
        cell.step_with(&mut vec![-0.0; d], &x, &mut scratch);
        assert!(scratch.gates[d..2 * d].iter().all(|&r| r > 0.0 && r < 1.0));

        // The kept rows follow every weight change.
        cell.set_flat_params(&flat(mixed));
        let (branch, full) = fresh_gates(&cell, &x);
        assert_eq!(branch, full, "after set_flat_params");
        assert_eq!(hhat(&branch), [0.0f64.to_bits(); 2]);
        cell.set_flat_params(&flat(all_negative));
        let mut grads = GruGrads::zeros(&cell);
        // Row 0 of `U_h`: column-major, one weight every `d`.
        grads.uh[0] = -1.0;
        grads.uh[d] = -1.0;
        cell.apply_grads(&grads, &mut Adam::new(0.05));
        assert!([cell.uh[0], cell.uh[d]].iter().all(|&w| w > 0.0));
        let (branch, full) = fresh_gates(&cell, &x);
        assert_eq!(branch, full, "after apply_grads");
        assert_eq!(hhat(&branch), [0.0f64.to_bits(); 2]);
        cell.set_flat_params(&flat(all_negative));
        let reloaded = GruCell::from_bytes(&cell.to_bytes()).expect("round trip");
        let (branch, full) = fresh_gates(&reloaded, &x);
        assert_eq!(branch, full, "after a round trip");
        assert_eq!(hhat(&branch)[0], (-0.0f64).to_bits());
    }

    #[test]
    fn a_cleared_cache_records_over_its_buffer() {
        let mut rng = StdRng::seed_from_u64(13);
        let cell = GruCell::new(&mut rng, 2, 6);
        let (long, short) = (seq(&mut rng, 9, 2), seq(&mut rng, 4, 2));
        let record = |xs: &[Vec<f64>], cache: &mut GruCache| {
            let mut h = cell.initial_state();
            cache.clear();
            for x in xs {
                cell.step_cached(&mut h, x, cache);
            }
        };
        let (mut reused, mut fresh) = (GruCache::default(), GruCache::default());
        record(&long, &mut reused);
        let capacity = reused.records.capacity();
        record(&short, &mut reused);
        record(&short, &mut fresh);
        assert_eq!(reused.len(), 4);
        assert_eq!(reused.records.capacity(), capacity);

        let dh = vec![0.5; 6];
        let (mut a, mut b) = (GruGrads::zeros(&cell), GruGrads::zeros(&cell));
        let dh0 = cell.backward(&reused, &dh, &mut a).to_vec();
        assert_eq!(dh0, cell.backward(&fresh, &dh, &mut b));
        assert_eq!(a.flat(), b.flat());
    }

    #[test]
    fn grads_are_reshaped_when_only_the_products_of_the_dims_agree() {
        // (in 4, hidden 2) and (in 2, hidden 4) share `wx.len() == 24`;
        // accumulators left over from one must not be fed to the other.
        let mut rng = StdRng::seed_from_u64(29);
        let wide_in = GruCell::new(&mut rng, 4, 2);
        let wide_hidden = GruCell::new(&mut rng, 2, 4);
        for (stale, cell) in [(&wide_in, &wide_hidden), (&wide_hidden, &wide_in)] {
            let xs = seq(&mut rng, 3, cell.in_dim());
            let mut h = cell.initial_state();
            let mut cache = GruCache::default();
            for x in &xs {
                cell.step_cached(&mut h, x, &mut cache);
            }
            let dh = vec![1.0; cell.hidden_dim()];
            let mut fresh = GruGrads::zeros(cell);
            cell.backward(&cache, &dh, &mut fresh);
            let mut reused = GruGrads::zeros(stale);
            cell.backward(&cache, &dh, &mut reused);
            assert_eq!(reused.flat(), fresh.flat());
            assert_eq!(reused.uh.len(), cell.hidden_dim() * cell.hidden_dim());
            assert_eq!(reused.b.len(), 3 * cell.hidden_dim());
        }
    }

    #[test]
    fn hidden_state_is_bounded() {
        // GRU hidden state is a convex combination of tanh outputs and the
        // initial state, so it stays in (-1, 1) from h0 = 0.
        let mut rng = StdRng::seed_from_u64(9);
        let cell = GruCell::new(&mut rng, 3, 16);
        let xs = seq(&mut rng, 200, 3);
        let h = cell.encode(&xs);
        assert!(h.iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn bptt_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(17);
        let cell = GruCell::new(&mut rng, 2, 5);
        let xs = seq(&mut rng, 7, 2);
        // Loss = c · h_T.
        let c: Vec<f64> = (0..5).map(|i| 0.5 - 0.25 * i as f64).collect();

        let mut h = cell.initial_state();
        let mut cache = GruCache::default();
        for x in &xs {
            cell.step_cached(&mut h, x, &mut cache);
        }
        let mut grads = GruGrads::zeros(&cell);
        cell.backward(&cache, &c, &mut grads);

        let mut params = cell.flat_params();
        let analytic = grads.flat();
        let err = crate::gradient_check(
            &mut params,
            &analytic,
            |p| {
                let mut probe = cell.clone();
                probe.set_flat_params(p);
                let h = probe.encode(&xs);
                h.iter().zip(&c).map(|(a, b)| a * b).sum()
            },
            1e-5,
        );
        assert!(err < 1e-4, "GRU BPTT gradient error {err}");
    }

    #[test]
    fn backward_returns_initial_state_gradient() {
        // For a 1-step sequence, dL/dh0 is easy to check numerically by
        // shifting h0 (which requires a custom encode-from-h0 helper). From
        // the fresh state it is the one gradient that reads the recorded
        // reset gate, which a zero-state `step_with` never computes.
        let mut rng = StdRng::seed_from_u64(23);
        let cell = GruCell::new(&mut rng, 2, 4);
        let x = vec![0.3, -0.7];
        let c = [1.0, -1.0, 0.5, 0.25];

        for h0 in [vec![0.1, -0.2, 0.05, 0.4], cell.initial_state()] {
            let mut h = h0.clone();
            let mut cache = GruCache::default();
            cell.step_cached(&mut h, &x, &mut cache);
            let mut grads = GruGrads::zeros(&cell);
            let dh0 = cell.backward(&cache, &c, &mut grads);

            let mut h0_probe = h0.clone();
            let err = crate::gradient_check(
                &mut h0_probe,
                dh0,
                |p| {
                    let mut h = p.to_vec();
                    cell.step(&mut h, &x);
                    h.iter().zip(&c).map(|(a, b)| a * b).sum()
                },
                1e-5,
            );
            assert!(err < 1e-6, "dh0 error {err} from h0 {h0:?}");
        }
    }

    #[test]
    fn training_pulls_embeddings_together() {
        // Minimal sanity: gradient steps on ||h(a) - h(b)||² shrink the
        // distance between two fixed sequences' embeddings.
        let mut rng = StdRng::seed_from_u64(31);
        let mut cell = GruCell::new(&mut rng, 2, 8);
        let a = seq(&mut rng, 10, 2);
        let b = seq(&mut rng, 10, 2);
        let mut adam = Adam::new(0.01);

        let dist = |cell: &GruCell| crate::squared_distance(&cell.encode(&a), &cell.encode(&b));
        let before = dist(&cell);
        for _ in 0..60 {
            let mut ha = cell.initial_state();
            let mut ca = GruCache::default();
            for x in &a {
                cell.step_cached(&mut ha, x, &mut ca);
            }
            let mut hb = cell.initial_state();
            let mut cb = GruCache::default();
            for x in &b {
                cell.step_cached(&mut hb, x, &mut cb);
            }
            // d||ha-hb||²/dha = 2(ha-hb); /dhb = -2(ha-hb).
            let da: Vec<f64> = ha.iter().zip(&hb).map(|(x, y)| 2.0 * (x - y)).collect();
            let db: Vec<f64> = da.iter().map(|v| -v).collect();
            let mut grads = GruGrads::zeros(&cell);
            cell.backward(&ca, &da, &mut grads);
            cell.backward(&cb, &db, &mut grads);
            cell.apply_grads(&grads, &mut adam);
        }
        let after = dist(&cell);
        assert!(after < before * 0.5, "distance {before} -> {after}");
    }
}

//! The GRU forward pass of `crates/nn` — column-major, gate-stacked,
//! register-blocked — held bit for bit to the row-major reference of
//! `tests/common/scalar.rs`, which shares no code with it. Run in release
//! too: the forward pass's vector lanes only exist there.

mod common;

use common::scalar::{matvec, ScalarGru};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simsub::nn::{matvec_columns, Adam, BinaryCodec, GruCache, GruCell, GruGrads, GruScratch};

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Inputs in `[-1, 1)` with exact `0.0` / `-0.0` coordinates mixed in.
fn gru_inputs(rng: &mut StdRng, steps: usize, in_dim: usize) -> Vec<Vec<f64>> {
    (0..steps)
        .map(|t| {
            (0..in_dim)
                .map(|c| match (t + c) % 7 {
                    0 => 0.0,
                    3 => -0.0,
                    _ => rng.gen_range(-1.0..1.0),
                })
                .collect()
        })
        .collect()
}

/// Every forward entry of `cell` against the reference over `xs`, chained
/// from the all-zero state; returns the BPTT cache of the walk.
fn assert_forward_matches_reference(cell: &GruCell, xs: &[Vec<f64>], context: &str) -> GruCache {
    let reference = ScalarGru::from_flat(cell.in_dim(), cell.hidden_dim(), &cell.flat_params());
    let mut want = cell.initial_state();
    let (mut owned, mut fresh, mut cached) = (want.clone(), want.clone(), want.clone());
    let mut scratch = GruScratch::default();
    let mut cache = GruCache::default();
    for (t, x) in xs.iter().enumerate() {
        reference.step(&mut want, x);
        cell.step_with(&mut owned, x, &mut scratch);
        cell.step(&mut fresh, x);
        cell.step_cached(&mut cached, x, &mut cache);
        assert_eq!(bits(&owned), bits(&want), "step_with, {context} step {t}");
        assert_eq!(bits(&fresh), bits(&want), "step, {context} step {t}");
        assert_eq!(
            bits(&cached),
            bits(&want),
            "step_cached, {context} step {t}"
        );
    }
    assert_eq!(bits(&cell.encode(xs)), bits(&want), "encode, {context}");
    cache
}

#[test]
fn gru_forward_matches_the_row_major_reference_bit_for_bit() {
    for in_dim in [2, 3] {
        // The forward pass runs 3d, 2d and d output lanes through blocks
        // of 16 plus a ragged tail: 1, 4 and 5 are all tail, 16 is all
        // blocks, 33 has both.
        for hidden_dim in [1, 4, 5, 16, 33] {
            let context = format!("in {in_dim} hidden {hidden_dim}");
            let mut rng = StdRng::seed_from_u64(7 + (in_dim * 100 + hidden_dim) as u64);
            let mut cell = GruCell::new(&mut rng, in_dim, hidden_dim);
            // Fresh cells have zero biases; give every tensor a value.
            let params: Vec<f64> = (0..cell.param_count())
                .map(|_| rng.gen_range(-0.8..0.8))
                .collect();
            cell.set_flat_params(&params);
            let xs = gru_inputs(&mut rng, 60, in_dim);
            let cache = assert_forward_matches_reference(&cell, &xs, &context);

            // A gradient step must reach the forward pass (whatever layout
            // it reads) and the codec alike.
            let dh: Vec<f64> = (0..hidden_dim).map(|i| 0.5 - 0.1 * i as f64).collect();
            let mut grads = GruGrads::zeros(&cell);
            cell.backward(&cache, &dh, &mut grads);
            cell.apply_grads(&grads, &mut Adam::new(0.05));
            assert_ne!(bits(&cell.flat_params()), bits(&params), "{context}");
            assert_forward_matches_reference(&cell, &xs, &format!("{context}, updated"));
            let reloaded = GruCell::from_bytes(&cell.to_bytes()).expect("round trip");
            assert_eq!(
                bits(&reloaded.flat_params()),
                bits(&cell.flat_params()),
                "{context}"
            );
            assert_forward_matches_reference(&reloaded, &xs, &format!("{context}, reloaded"));
        }
    }
}

/// `f64::sum` starts from `-0.0`, so a row of positive weights against
/// all-`-0.0` inputs sums to `-0.0`; a `0.0`-seeded accumulator would lose
/// the sign.
#[test]
fn column_matvec_keeps_the_negative_zero_seed() {
    for rows in [1, 5, 16, 33] {
        let cols = 3;
        let w: Vec<f64> = (0..rows * cols).map(|i| 0.25 + i as f64).collect();
        let wt: Vec<f64> = (0..rows * cols)
            .map(|i| w[(i % rows) * cols + i / rows])
            .collect();
        for x in [[-0.0; 3], [0.0, -0.0, 0.0], [0.7, -0.0, -1.3]] {
            let want = matvec(&w, rows, cols, &x);
            let mut got = vec![1.0; rows];
            matvec_columns(&wt, &x, &mut got);
            assert_eq!(bits(&got), bits(&want), "rows {rows} x {x:?}");
        }
        let mut got = vec![1.0; rows];
        matvec_columns(&wt, &[-0.0; 3], &mut got);
        assert!(got.iter().all(|v| v.to_bits() == (-0.0f64).to_bits()));
    }
}

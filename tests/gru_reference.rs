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

/// A step from the fresh all-`+0.0` state reads no recurrent product: the
/// cell adds the `U_z · 0` and `U_h · 0` rows it keeps and skips the reset
/// gate. `step_cached` always runs the full body. Both must give the
/// reference's `h` bit for bit where the zero rows are unusual:
/// all-negative rows (`U · 0` is `-0.0`), rows with an infinite weight
/// (`U · 0` is NaN), inputs whose `W x` is exactly `±0`, biases of `-0.0`,
/// and gates saturated at exactly 0 or 1.
#[test]
fn fresh_state_steps_match_the_full_body_and_the_reference() {
    let inputs = [
        [0.0, 0.0],
        [-0.0, -0.0],
        [0.0, -0.0],
        [-0.0, 0.3],
        [0.3, -0.7],
        [1e3, -1e3],
        [-1e3, 1e3],
    ];
    for hidden_dim in [5, 17] {
        for with_infinity in [false, true] {
            let cell = unusual_cell(hidden_dim, with_infinity);
            let context = format!("hidden {hidden_dim}, infinite weights {with_infinity}");
            for x in &inputs {
                let (zero_state, full, reference) = fresh_steps(&cell, x);
                assert_eq!(zero_state, reference, "step_with, {context}, x {x:?}");
                assert_eq!(full, reference, "step_cached, {context}, x {x:?}");
            }
            // A `-0.0` state is not the fresh one: it takes the full body.
            let reference =
                ScalarGru::from_flat(cell.in_dim(), cell.hidden_dim(), &cell.flat_params());
            for x in &inputs {
                let (mut got, mut want) = (vec![-0.0; hidden_dim], vec![-0.0; hidden_dim]);
                cell.step_with(&mut got, x, &mut GruScratch::default());
                reference.step(&mut want, x);
                assert_eq!(
                    value_bits(&got),
                    value_bits(&want),
                    "-0.0 state, {context}, x {x:?}"
                );
            }
        }
    }
}

/// The kept zero rows follow every change of `U`: a `set_flat_params`, an
/// Adam step and a codec round trip each turn a finite row into one with
/// a non-finite weight (or back), which a stale row would not show.
#[test]
fn fresh_state_rows_follow_every_weight_update() {
    let x = [0.3, -0.7];
    let assert_fresh = |cell: &GruCell, context: &str| {
        let (zero_state, full, reference) = fresh_steps(cell, &x);
        assert_eq!(zero_state, reference, "step_with, {context}");
        assert_eq!(full, reference, "step_cached, {context}");
    };
    let (finite, infinite) = (unusual_cell(5, false), unusual_cell(5, true));
    let nan_lanes = |cell: &GruCell| {
        fresh_steps(cell, &x)
            .2
            .iter()
            .filter(|v| f64::from_bits(**v).is_nan())
            .count()
    };
    assert_eq!(nan_lanes(&finite), 0);
    assert!(nan_lanes(&infinite) > 0);

    for (from, to, context) in [
        (&finite, &infinite, "finite to infinite"),
        (&infinite, &finite, "infinite to finite"),
    ] {
        let mut cell = from.clone();
        cell.set_flat_params(&to.flat_params());
        assert_fresh(&cell, &format!("set_flat_params, {context}"));
        let reloaded = GruCell::from_bytes(&to.to_bytes()).expect("round trip");
        assert_fresh(&reloaded, &format!("from_bytes, {context}"));
    }

    // An infinite gradient on one `U_z` and one `U_h` weight makes Adam
    // write NaN there.
    let mut cell = finite.clone();
    // `U_z[0][0]` and `U_h[0][3]` in the stacked, column-major gradients.
    let mut grads = GruGrads::zeros(&cell);
    grads.uzr[0] = f64::INFINITY;
    grads.uh[3 * cell.hidden_dim()] = f64::NEG_INFINITY;
    cell.apply_grads(&grads, &mut Adam::new(0.01));
    assert!(nan_lanes(&cell) > 0, "the update reached no fresh step");
    assert_fresh(&cell, "apply_grads");
}

/// [`bits`], with every NaN as one value: a NaN's sign and payload depend
/// on which operand of a commutative operation codegen keeps, and the
/// reference's NaNs differ from the product's in sign.
fn value_bits(values: &[f64]) -> Vec<u64> {
    values
        .iter()
        .map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits())
        .collect()
}

/// `h` after one step from the fresh state: by `step_with` (the zero-state
/// branch), by `step_cached` (the full body) and by the reference.
fn fresh_steps(cell: &GruCell, x: &[f64]) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let reference = ScalarGru::from_flat(cell.in_dim(), cell.hidden_dim(), &cell.flat_params());
    let (mut zero_state, mut full, mut want) = (
        cell.initial_state(),
        cell.initial_state(),
        cell.initial_state(),
    );
    cell.step_with(&mut zero_state, x, &mut GruScratch::default());
    cell.step_cached(&mut full, x, &mut GruCache::default());
    reference.step(&mut want, x);
    (
        value_bits(&zero_state),
        value_bits(&full),
        value_bits(&want),
    )
}

/// A hand-built `(2, hidden_dim)` cell. Row `i` of `U_z` and `U_h` is, by
/// `i % 5`: every weight negative, mixed, every weight positive, `-0.0`
/// and negative weights, mixed. With `with_infinity`, row 4 of `U_z` and
/// row 1 of `U_h` hold an infinite weight instead — in different rows, so
/// that neither NaN lane hides the other. `U_r` stays finite: a NaN reset
/// gate is the one input the zero-state branch does not reproduce. Rows
/// of `W` include `±0.0` weights, and the biases `-0.0`, `0.0` and values
/// that saturate their gate.
fn unusual_cell(hidden_dim: usize, with_infinity: bool) -> GruCell {
    let (n, d) = (2, hidden_dim);
    let w = |i: usize| -> [f64; 2] {
        match i % 4 {
            0 => [0.5, 0.25],
            1 => [-0.5, -0.25],
            2 => [0.0, -0.0],
            _ => [-0.0, 0.75],
        }
    };
    let u = |i: usize, c: usize, infinite_row: usize, infinity: f64| -> f64 {
        let magnitude = 0.05 + 0.01 * c as f64;
        match i % 5 {
            row if with_infinity && row == infinite_row && c == 1 => infinity,
            0 => -magnitude,
            2 => magnitude,
            3 if c.is_multiple_of(2) => -0.0,
            3 => -magnitude,
            _ if c.is_multiple_of(2) => magnitude,
            _ => -magnitude,
        }
    };
    let bias = |i: usize, saturating: f64| -> f64 {
        match i % 4 {
            0 => -0.0,
            1 => 0.0,
            2 => saturating,
            _ => -saturating,
        }
    };
    let mut flat = Vec::with_capacity(3 * (d * n + d * d + d));
    for _gate in 0..3 {
        flat.extend((0..d).flat_map(w));
    }
    flat.extend((0..d).flat_map(|i| (0..d).map(move |c| u(i, c, 4, f64::INFINITY))));
    flat.extend((0..d * d).map(|i| 0.1 - 0.013 * (i % 17) as f64));
    flat.extend((0..d).flat_map(|i| (0..d).map(move |c| u(i, c, 1, f64::NEG_INFINITY))));
    flat.extend((0..d).map(|i| bias(i, 800.0)));
    flat.extend((0..d).map(|i| 0.2 - 0.1 * (i % 3) as f64));
    flat.extend((0..d).map(|i| bias(i, 50.0)));
    let mut rng = StdRng::seed_from_u64(3);
    let mut cell = GruCell::new(&mut rng, n, d);
    cell.set_flat_params(&flat);
    cell
}

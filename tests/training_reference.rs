//! The learned models' training side held bit for bit to the per-sample
//! reference of `tests/common/scalar.rs`, which shares no code with it:
//! `Mlp`'s minibatch forward and backward passes against one sample at a
//! time, and whole DQN runs — acting, storing, a wrapping replay ring,
//! gradient steps, target syncs — against [`ScalarDqn`]. Run in release
//! too: the minibatch loops vectorise only there.

mod common;

use common::scalar::{mlp_backward, mlp_layers, rows_of, ScalarDqn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simsub::nn::{Activation, BinaryCodec, Mlp, MlpBatch, MlpGrads};
use simsub::rl::{DqnAgent, DqnConfig, Transition};

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Values in `[-1, 1)` with exact `0.0` and `-0.0` mixed in: a row whose
/// products are all `-0.0` against a `-0.0` bias keeps its sign only
/// from a `-0.0`-seeded sum.
fn signed_values(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| match rng.gen_range(0..6) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0..1.0),
        })
        .collect()
}

/// Gradients in `Mlp::flat_params` order: each layer's column-major `gw`
/// row by row, then `gb`.
fn flat_grads(net: &Mlp, grads: &MlpGrads) -> Vec<f64> {
    let (layers, _) = net.parts();
    layers
        .iter()
        .zip(&grads.layers)
        .flat_map(|(layer, g)| {
            rows_of(&g.gw, layer.out_dim, layer.in_dim)
                .into_iter()
                .chain(g.gb.iter().copied())
        })
        .collect()
}

#[test]
fn minibatch_passes_match_the_per_sample_reference_bit_for_bit() {
    let activations = [
        Activation::Relu,
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Identity,
    ];
    let mut rng = StdRng::seed_from_u64(41);
    for case in 0..16 {
        let (in_dim, out_dim) = (1 + case % 3, 2 + case % 4);
        let act = |layer: usize| activations[(case / 2 + layer) % 4];
        // One layer as well as two: a signed zero shows in the bits only
        // where it reaches the output.
        let (dims, acts) = if case % 2 == 0 {
            (vec![in_dim, out_dim], vec![act(0)])
        } else {
            (
                vec![in_dim, [1, 7, 20][case % 3], out_dim],
                vec![act(0), act(1)],
            )
        };
        let mut net = Mlp::new(&mut rng, &dims, &acts);
        net.set_flat_params(&signed_values(&mut rng, net.param_count()));
        for batch in [1, 3, 32, 33] {
            let context = format!("case {case} ({dims:?} {acts:?}) batch {batch}");
            let x = signed_values(&mut rng, in_dim * batch);
            let dout = signed_values(&mut rng, out_dim * batch);
            let mut acts_batch = MlpBatch::default();
            let mut grads = MlpGrads::zeros(&net);
            let mut want_grads = MlpGrads::zeros(&net);
            // Twice, so the second pass accumulates onto the first.
            for _ in 0..2 {
                let out = net.forward_batch(&x, batch, &mut acts_batch).to_vec();
                for s in 0..batch {
                    let sample: Vec<f64> = (0..in_dim).map(|c| x[c * batch + s]).collect();
                    let layers = mlp_layers(&net, &sample);
                    let want = layers.last().expect("a layer");
                    let got: Vec<f64> = (0..out_dim).map(|r| out[r * batch + s]).collect();
                    assert_eq!(bits(&got), bits(want), "forward, {context} sample {s}");
                    let d: Vec<f64> = (0..out_dim).map(|r| dout[r * batch + s]).collect();
                    mlp_backward(&net, &sample, &layers, &d, &mut want_grads);
                }
                net.backward_batch(&x, &mut acts_batch, &dout, &mut grads);
                assert_eq!(
                    bits(&flat_grads(&net, &grads)),
                    bits(&flat_grads(&net, &want_grads)),
                    "backward, {context}"
                );
            }
        }
    }
}

#[test]
fn dqn_training_matches_the_per_sample_reference_bit_for_bit() {
    // (state_dim, actions, batch, replay capacity): RLS's 3 → 2, RLS-Skip's
    // 3 → 5, batches of 1, 3 and 32, and every ring wraps well inside the
    // run; batch 32 outnumbers a 7-slot memory and, early on, a 50-slot one.
    let cases = [
        (1, 2, 1, 7),
        (2, 3, 3, 7),
        (3, 5, 32, 7),
        (3, 2, 32, 50),
        (2, 4, 3, 5),
    ];
    for (case, &(state_dim, n_actions, batch_size, replay_capacity)) in cases.iter().enumerate() {
        let cfg = DqnConfig {
            learning_rate: 0.01,
            epsilon_start: 0.6,
            epsilon_decay: 0.9,
            replay_capacity,
            batch_size,
            seed: 300 + case as u64,
            ..DqnConfig::paper(state_dim, n_actions)
        };
        let mut agent = DqnAgent::new(cfg.clone());
        let mut reference = ScalarDqn::new(cfg);
        let mut rng = StdRng::seed_from_u64(case as u64);
        let mut state = signed_values(&mut rng, state_dim);
        let probe = vec![0.25; state_dim];
        for step in 0..70 {
            let context = format!("case {case} step {step}");
            let action = agent.act(&state);
            assert_eq!(action, reference.act(&state), "action, {context}");
            let next_state = signed_values(&mut rng, state_dim);
            let reward = rng.gen_range(-1.0..1.0);
            let terminal = rng.gen_range(0..10) < 3;
            agent.remember(Transition {
                state: &state,
                action,
                reward,
                next_state: &next_state,
                terminal,
            });
            reference.remember(&state, action, reward, &next_state, terminal);

            let loss = agent.train_step().map(f64::to_bits);
            assert_eq!(
                loss,
                reference.train_step().map(f64::to_bits),
                "loss, {context}"
            );
            let params = Mlp::from_bytes(&agent.policy().to_bytes()).expect("round trip");
            assert_eq!(
                bits(&params.flat_params()),
                bits(&reference.main().flat_params()),
                "parameters, {context}"
            );
            assert_eq!(
                bits(&agent.q_values(&probe)),
                bits(
                    mlp_layers(reference.main(), &probe)
                        .last()
                        .expect("a layer")
                ),
                "q_values, {context}"
            );
            if step % 4 == 3 {
                agent.sync_target();
                reference.sync_target();
            }
            agent.decay_epsilon();
            reference.decay_epsilon();
            state = next_state;
        }
    }
}

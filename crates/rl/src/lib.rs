#![warn(missing_docs)]

//! Deep Q-Network learning with experience replay, as used by the RLS and
//! RLS-Skip algorithms (Section 5.2 / Algorithm 3 of the SimSub paper).
//!
//! The implementation follows Mnih et al. (2013/2015) with the paper's
//! specializations:
//!
//! - **main network** `Q(s, a; θ)` and **target network** `Q̂(s, a; θ⁻)`;
//!   the target is synced from the main network at the end of every
//!   episode (Algorithm 3, line 25);
//! - **replay memory** of capacity 2000 sampled uniformly (Section 6.1),
//!   holding both states of every transition inline in one ring reserved
//!   up front, so storing a transition copies and never allocates;
//! - **minibatch gradient steps** that run each network once over the
//!   whole batch on agent-owned buffers, bit for bit the per-sample loop;
//! - **ε-greedy** exploration with ε floor 0.05 and decay 0.99;
//! - network shape 3 → 20 (ReLU) → `2 + k` (sigmoid), Adam at 0.001,
//!   discount γ = 0.95 (Section 6.1).
//!
//! The crate is generic over state dimension and action count so the same
//! agent drives RLS (2 actions), RLS-Skip (`2 + k` actions) and the
//! suffix-free RLS-Skip+ variant (2-dimensional states).

mod dqn;
mod replay;

pub use dqn::{DqnAgent, DqnConfig, Policy};
pub use replay::{ReplayMemory, Transition};

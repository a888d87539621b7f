/// One experience tuple `(s_t, a_t, r_t, s_{t+1})` plus the termination
/// flag used by the TD target (Equation (3) of the paper). The states are
/// borrowed: [`ReplayMemory::push`] copies them into its ring, and
/// [`ReplayMemory::get`] lends them back out of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition<'a> {
    /// State `s_t` observed before acting.
    pub state: &'a [f64],
    /// Action `a_t` taken.
    pub action: usize,
    /// Reward `r_t` received.
    pub reward: f64,
    /// Successor state `s_{t+1}`.
    pub next_state: &'a [f64],
    /// True when `next_state` is a termination step (the TD target is then
    /// the bare reward).
    pub terminal: bool,
}

/// What a transition stores besides its states.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    action: usize,
    reward: f64,
    terminal: bool,
}

/// Fixed-capacity ring buffer of the latest transitions — the "replay
/// memory M" of Algorithm 3; sampling it uniformly de-correlates
/// consecutive transitions. Both states of every transition live inline in
/// one flat ring of `capacity × 2 · state_dim` values, reserved up front,
/// so storing a transition never allocates.
#[derive(Debug, Clone)]
pub struct ReplayMemory {
    state_dim: usize,
    capacity: usize,
    /// Slot `i` holds `s_t | s_{t+1}` at `[i * 2 * state_dim..]`.
    states: Vec<f64>,
    outcomes: Vec<Outcome>,
    next: usize,
}

impl ReplayMemory {
    /// Creates a memory for `capacity` transitions (the paper uses 2000)
    /// over `state_dim`-dimensional states.
    pub fn new(capacity: usize, state_dim: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            state_dim,
            capacity,
            states: Vec::with_capacity(capacity * 2 * state_dim),
            outcomes: Vec::with_capacity(capacity),
            next: 0,
        }
    }

    /// Copies a transition into the ring, evicting the oldest once full.
    pub fn push(&mut self, t: Transition<'_>) {
        let dim = self.state_dim;
        assert!(
            t.state.len() == dim && t.next_state.len() == dim,
            "states must have the memory's dimension"
        );
        let outcome = Outcome {
            action: t.action,
            reward: t.reward,
            terminal: t.terminal,
        };
        if self.outcomes.len() < self.capacity {
            self.states.extend_from_slice(t.state);
            self.states.extend_from_slice(t.next_state);
            self.outcomes.push(outcome);
        } else {
            let slot = &mut self.states[self.next * 2 * dim..(self.next + 1) * 2 * dim];
            slot[..dim].copy_from_slice(t.state);
            slot[dim..].copy_from_slice(t.next_state);
            self.outcomes[self.next] = outcome;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// The transition in slot `i < len()`. Slots fill in push order and
    /// are then overwritten oldest first.
    pub fn get(&self, i: usize) -> Transition<'_> {
        let dim = self.state_dim;
        let Outcome {
            action,
            reward,
            terminal,
        } = self.outcomes[i];
        let (state, next_state) = self.states[i * 2 * dim..(i + 1) * 2 * dim].split_at(dim);
        Transition {
            state,
            action,
            reward,
            next_state,
            terminal,
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True when nothing has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Maximum number of transitions retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(tag: &[f64; 2]) -> Transition<'_> {
        Transition {
            state: &tag[..1],
            action: tag[0] as usize,
            reward: tag[0],
            next_state: &tag[1..],
            terminal: tag[0] > 2.0,
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut m = ReplayMemory::new(3, 1);
        let tags: Vec<[f64; 2]> = (0..5).map(|i| [i as f64, -(i as f64)]).collect();
        for tag in &tags {
            m.push(t(tag));
        }
        assert_eq!(m.len(), 3);
        // 0 and 1 evicted, oldest first: slots hold 3, 4, 2.
        for (slot, i) in [3, 4, 2].into_iter().enumerate() {
            assert_eq!(m.get(slot), t(&tags[i]), "slot {slot}");
        }
    }

    #[test]
    fn storing_never_grows_the_ring() {
        let mut m = ReplayMemory::new(4, 3);
        let reserved = m.states.capacity();
        for i in 0..11 {
            let s = [i as f64; 3];
            m.push(Transition {
                state: &s,
                action: 0,
                reward: 0.0,
                next_state: &s,
                terminal: false,
            });
        }
        assert_eq!(m.states.capacity(), reserved);
        assert_eq!(m.get(2).next_state, &[10.0; 3]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ReplayMemory::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "states must have the memory's dimension")]
    fn mismatched_state_rejected() {
        let mut m = ReplayMemory::new(2, 2);
        m.push(t(&[0.0, 1.0]));
    }
}

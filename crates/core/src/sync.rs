//! Synchronization facade for the core crate; see
//! `crates/service/src/sync.rs` for the full story. Core shares state with
//! concurrent scan threads through a split scan's candidate cursor and the
//! scan-timing accumulator, so its atomics are instrumented under
//! `RUSTFLAGS="--cfg simsub_loom"` too (enforced by `cargo xtask lint`).

#[cfg(simsub_loom)]
pub use loom::sync::Mutex;
#[cfg(not(simsub_loom))]
pub use std::sync::Mutex;
pub use std::sync::OnceLock;

/// Atomic types, instrumented under `--cfg simsub_loom`.
pub mod atomic {
    #[cfg(simsub_loom)]
    pub use loom::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize};
    #[cfg(not(simsub_loom))]
    pub use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize};

    pub use std::sync::atomic::Ordering;
}

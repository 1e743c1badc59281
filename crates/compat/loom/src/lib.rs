//! Offline, API-compatible subset of [loom](https://docs.rs/loom):
//! deterministic schedule exploration for the workspace's hand-rolled
//! concurrency core.
//!
//! # What this is
//!
//! The workspace's bit-determinism contract rests on a few small, load-
//! bearing concurrency protocols: the work-stealing pool's sleeper
//! park/unpark, the fitness caches' first-write-wins publishes and the
//! `Param` transpose hazard cell. Stress tests exercise those
//! paths but cannot prove the absence of races. This crate provides a model
//! checker that *can*, within explicit bounds: the protocol is rebuilt on
//! `loom::sync` / `loom::thread` primitives (via `cfg(loom)` type aliases in
//! the production crates) and [`model()`](fn@model) executes the test closure under
//! every schedule reachable within a preemption bound, asserting invariants
//! on each.
//!
//! # How it works
//!
//! Each model thread runs on a real OS thread, but the runtime keeps exactly
//! one *active* at a time; the rest are parked on a condvar. Control
//! transfers only at scheduling points — every atomic op, mutex acquire,
//! condvar wait/notify, spawn, join, and yield — so between points a thread
//! runs atomically and an interleaving is fully described by the sequence of
//! scheduling decisions. The driver records that sequence, then backtracks
//! depth-first: rerun the prefix, take the next untried branch, repeat until
//! the bounded tree is exhausted (see [`model::Builder`] for the bounds and
//! the CHESS-style preemption budget). Deadlocks (no runnable thread),
//! livelocks (decision cap exceeded) and assertion panics are reported with
//! the offending schedule prefix; an iteration is then torn down by
//! unwinding every model thread.
//!
//! # Outside a model
//!
//! Every primitive degrades to its `std::sync` counterpart when the calling
//! thread is not part of an active model run. This keeps `--cfg loom` builds
//! of the production crates fully functional — ordinary unit tests, build
//! scripts and binaries behave identically — so the model-check CI job can
//! compile whole crates with the cfg enabled and run only the `*_model`
//! suites under exploration.
//!
//! # Supported API
//!
//! - `loom::sync::{Arc, Mutex, MutexGuard, Condvar, RwLock*}` (`RwLock` is a
//!   passthrough, not schedule-explored)
//! - `loom::sync::atomic::{AtomicBool, AtomicUsize, AtomicU32, AtomicU64,
//!   AtomicI64, AtomicPtr, Ordering}` — all orderings are modelled as SeqCst
//! - `loom::thread::{spawn, JoinHandle, yield_now}`
//! - [`model()`] / [`model::Builder`] returning a [`model::Report`]
//!
//! Unsupported loom features (deliberately): `loom::cell`, `loom::lazy_static`,
//! `SeqCst`-vs-weak-memory modelling, spurious condvar wakeups.

pub mod model;
pub(crate) mod rt;
pub mod sync;
pub mod thread;

pub mod hint {
    /// Spin-loop hint: a yield under the model (so spins are explorable),
    /// the real hint outside it.
    pub fn spin_loop() {
        match crate::rt_current_is_none() {
            true => std::hint::spin_loop(),
            false => crate::thread::yield_now(),
        }
    }
}

/// Checks `f` under the default exploration bounds. See [`model::Builder`]
/// to configure bounds and to receive a coverage [`model::Report`].
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    model::Builder::new().check(f);
}

/// `true` when the calling thread is not a model thread.
pub(crate) fn rt_current_is_none() -> bool {
    rt::current().is_none()
}

//! Poison-recovering lock acquisition, and the crate's `cfg(loom)` switch
//! point for synchronization primitives.
//!
//! A worker panic while holding a cache lock poisons the `Mutex`/`RwLock`;
//! with plain `.expect(..)` every later user of the cache then aborts too,
//! turning one failed scoring call into a process-wide outage. All cache
//! state is safe to read after a panic — published scores and encodings are
//! **first-write-wins immutable**, a partially applied batch is just a
//! smaller set of published entries, and nothing is reserved before scoring
//! — so these helpers simply take the guard out of the `PoisonError` and
//! carry on.
//!
//! Under `--cfg loom` (the CI `model-check` job) the `Mutex` behind the
//! striped caches comes from the loom shim, making every stripe lock a
//! scheduling point inside a `loom::model` run; outside a model run (and in
//! all normal builds) it is the `std::sync` primitive with identical
//! behavior. `RwLock` is deliberately *not* switched: the shard-map locks
//! are not part of the modelled publish races.

#[cfg(loom)]
pub(crate) use loom::sync::{Mutex, MutexGuard};
#[cfg(not(loom))]
pub(crate) use std::sync::{Mutex, MutexGuard};

use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock a mutex, recovering the guard if a panicking thread poisoned it.
pub(crate) fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Take a read lock, recovering if poisoned.
pub(crate) fn read_recovering<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Take a write lock, recovering if poisoned.
pub(crate) fn write_recovering<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

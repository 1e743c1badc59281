//! Model-aware drop-in replacements for `std::sync` primitives.
//!
//! Inside a [`crate::model()`](fn@crate::model) run every operation is a scheduling point and
//! blocking is virtualised through the execution's scheduler. Outside a
//! model run (no active execution on this thread) every type degrades to a
//! thin wrapper over the corresponding `std::sync` primitive with identical
//! semantics — so code compiled with `--cfg loom` keeps working when it is
//! exercised by ordinary unit tests or binaries.

#![forbid(unsafe_code)]

use crate::rt;
use std::sync::{LockResult, PoisonError, TryLockError};

pub use std::sync::Arc;

pub mod atomic;

fn addr_of<T: ?Sized>(r: &T) -> usize {
    r as *const T as *const () as usize
}

// ---- Mutex ---------------------------------------------------------------

/// A mutual-exclusion lock; `std::sync::Mutex` outside a model run.
///
/// Inside a model run the acquire is a scheduling point and contention is
/// resolved by the scheduler, so every lock-ordering interleaving (up to the
/// preemption bound) is explored. The underlying std mutex is only ever
/// taken uncontended.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// Guard for [`Mutex`]; releases the model lock (waking blocked threads) and
/// the std lock on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    std_guard: Option<std::sync::MutexGuard<'a, T>>,
    mutex: &'a Mutex<T>,
    /// Whether this guard was acquired through the model scheduler (and must
    /// therefore release model state on drop).
    modeled: bool,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match rt::current() {
            None => self.wrap(self.inner.lock(), false),
            Some((exec, me)) => {
                let addr = addr_of(self);
                exec.schedule_op(me);
                loop {
                    if exec.try_acquire_mutex(me, addr) {
                        return self.take_std_uncontended();
                    }
                    exec.block_on_mutex(me, addr);
                }
            }
        }
    }

    pub fn try_lock(&self) -> std::sync::TryLockResult<MutexGuard<'_, T>> {
        match rt::current() {
            None => match self.inner.try_lock() {
                Ok(g) => Ok(MutexGuard {
                    std_guard: Some(g),
                    mutex: self,
                    modeled: false,
                }),
                Err(TryLockError::Poisoned(p)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(MutexGuard {
                        std_guard: Some(p.into_inner()),
                        mutex: self,
                        modeled: false,
                    })))
                }
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            },
            Some((exec, me)) => {
                exec.schedule_op(me);
                if exec.try_acquire_mutex(me, addr_of(self)) {
                    self.take_std_uncontended().map_err(TryLockError::Poisoned)
                } else {
                    Err(TryLockError::WouldBlock)
                }
            }
        }
    }

    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }

    /// Takes the std lock after the model has granted ownership: guaranteed
    /// uncontended (modulo poison, which is propagated like std).
    fn take_std_uncontended(&self) -> LockResult<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => self.wrap(Ok(g), true),
            Err(TryLockError::Poisoned(p)) => {
                self.wrap(Err(PoisonError::new(p.into_inner())), true)
            }
            Err(TryLockError::WouldBlock) => {
                unreachable!("loom internal error: std mutex contended while model lock held")
            }
        }
    }

    fn wrap<'a>(
        &'a self,
        res: LockResult<std::sync::MutexGuard<'a, T>>,
        modeled: bool,
    ) -> LockResult<MutexGuard<'a, T>> {
        match res {
            Ok(g) => Ok(MutexGuard {
                std_guard: Some(g),
                mutex: self,
                modeled,
            }),
            Err(p) => Err(PoisonError::new(MutexGuard {
                std_guard: Some(p.into_inner()),
                mutex: self,
                modeled,
            })),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std_guard.as_ref().expect("guard dismantled")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std_guard.as_mut().expect("guard dismantled")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the std lock first so a model wakeup can never observe a
        // physically held mutex. Safe during unwind: release_mutex neither
        // panics nor schedules.
        drop(self.std_guard.take());
        if self.modeled {
            if let Some((exec, me)) = rt::current() {
                exec.release_mutex(me, addr_of(self.mutex));
            }
        }
    }
}

// ---- Condvar -------------------------------------------------------------

/// A condition variable; `std::sync::Condvar` outside a model run.
///
/// Inside a model run waits and notifies are scheduling points, waiter
/// queues are explicit, and a notify with no registered waiter is lost —
/// exactly the semantics that make lost-wakeup bugs reachable states.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let mutex = guard.mutex;
        match rt::current() {
            None => {
                let std_guard = guard.std_guard.take().expect("guard dismantled");
                drop(guard); // inert: std_guard taken, guard was not modeled
                match self.inner.wait(std_guard) {
                    Ok(g) => Ok(MutexGuard {
                        std_guard: Some(g),
                        mutex,
                        modeled: false,
                    }),
                    Err(p) => Err(PoisonError::new(MutexGuard {
                        std_guard: Some(p.into_inner()),
                        mutex,
                        modeled: false,
                    })),
                }
            }
            Some((exec, me)) => {
                // Physically unlock while still the active thread (no other
                // thread can run until we schedule away below), then
                // atomically register as a waiter + release the model lock +
                // schedule away. Neutralise the guard so its Drop does not
                // release the model lock a second time.
                drop(guard.std_guard.take());
                guard.modeled = false;
                drop(guard);
                let mutex_addr = addr_of(mutex);
                exec.condvar_wait(me, addr_of(self), mutex_addr);
                // Woken and scheduled: reacquire through the model. The
                // wakeup→reacquire window is a real race window, explored
                // because block/retry are scheduling points.
                loop {
                    if exec.try_acquire_mutex(me, mutex_addr) {
                        return mutex.take_std_uncontended();
                    }
                    exec.block_on_mutex(me, mutex_addr);
                }
            }
        }
    }

    /// `wait_while` in terms of [`Condvar::wait`], mirroring std.
    pub fn wait_while<'a, T, F: FnMut(&mut T) -> bool>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut condition: F,
    ) -> LockResult<MutexGuard<'a, T>> {
        while condition(&mut guard) {
            guard = self.wait(guard)?;
        }
        Ok(guard)
    }

    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> LockResult<(MutexGuard<'a, T>, std::sync::WaitTimeoutResult)> {
        match rt::current() {
            None => {
                let mutex = guard.mutex;
                let std_guard = guard.std_guard.take().expect("guard dismantled");
                guard.modeled = false;
                drop(guard);
                match self.inner.wait_timeout(std_guard, dur) {
                    Ok((g, t)) => Ok((
                        MutexGuard {
                            std_guard: Some(g),
                            mutex,
                            modeled: false,
                        },
                        t,
                    )),
                    Err(p) => {
                        let (g, t) = p.into_inner();
                        Err(PoisonError::new((
                            MutexGuard {
                                std_guard: Some(g),
                                mutex,
                                modeled: false,
                            },
                            t,
                        )))
                    }
                }
            }
            // Under the model time does not pass: a timed wait is modelled as
            // an untimed wait that never reports a timeout. Code whose
            // *correctness* (not liveness) depends on a timeout firing is
            // outside the modelled invariants by design.
            Some(_) => match self.wait(guard) {
                Ok(g) => Ok((g, fabricate_no_timeout())),
                Err(p) => Err(PoisonError::new((p.into_inner(), fabricate_no_timeout()))),
            },
        }
    }

    pub fn notify_one(&self) {
        match rt::current() {
            None => self.inner.notify_one(),
            Some((exec, me)) => exec.notify(me, addr_of(self), false),
        }
    }

    pub fn notify_all(&self) {
        match rt::current() {
            None => self.inner.notify_all(),
            Some((exec, me)) => exec.notify(me, addr_of(self), true),
        }
    }
}

/// Manufactures a `WaitTimeoutResult` that reports "did not time out". std
/// exposes no constructor, so derive one from a real zero-duration wait where
/// the condvar is pre-notified; only used on the model path, where the
/// scheduler already decided the wakeup genuinely happened.
fn fabricate_no_timeout() -> std::sync::WaitTimeoutResult {
    let m = std::sync::Mutex::new(());
    let cv = std::sync::Condvar::new();
    let g = m.lock().unwrap();
    // A zero wait may or may not be flagged as timed out by the platform; we
    // only need *a* value and callers on the model path must not branch on
    // it for correctness (documented above).
    let (guard, t) = cv
        .wait_timeout(g, std::time::Duration::from_millis(0))
        .unwrap();
    drop(guard);
    t
}

// ---- RwLock (outside-model passthrough) ----------------------------------

/// Passthrough `std::sync::RwLock`. The workspace's model suites do not
/// exercise reader-writer locks (the fitness shard maps are not part of the
/// modelled publish races), so under the model this is *not*
/// schedule-explored — it delegates to std. Kept so `loom::sync` stays a
/// drop-in module path.
pub use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

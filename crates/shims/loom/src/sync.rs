//! Instrumented drop-in replacements for `std::sync` primitives.
//!
//! Every type stores its value in the real `std` primitive, so behavior
//! outside a model is byte-for-byte `std` (and constructors stay `const`).
//! Inside a model, each visible operation first hands control to the
//! scheduler in `crate::rt`, which explores interleavings and maintains
//! the vector clocks used for happens-before checking.

use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, RwLock as StdRwLock,
    RwLockReadGuard as StdRwLockReadGuard, RwLockWriteGuard as StdRwLockWriteGuard,
};

pub use std::sync::{LockResult, PoisonError, TryLockError, TryLockResult};

use crate::rt;

pub mod atomic;

mod arc;
pub use arc::Arc;

fn addr_of<T: ?Sized>(x: &T) -> usize {
    x as *const T as *const () as usize
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Instrumented [`std::sync::Mutex`].
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

/// Guard for [`Mutex`]; logically releases the lock in the scheduler when
/// dropped.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: ManuallyDrop<StdMutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex. `const`, matching `std`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: StdMutex::new(value),
        }
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    fn addr(&self) -> usize {
        addr_of(self)
    }

    fn wrap<'a>(
        &'a self,
        result: LockResult<StdMutexGuard<'a, T>>,
    ) -> LockResult<MutexGuard<'a, T>> {
        match result {
            Ok(g) => Ok(MutexGuard {
                lock: self,
                inner: ManuallyDrop::new(g),
            }),
            Err(poisoned) => Err(PoisonError::new(MutexGuard {
                lock: self,
                inner: ManuallyDrop::new(poisoned.into_inner()),
            })),
        }
    }

    /// Acquires the mutex, blocking (logically, under a model) until
    /// available.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        rt::lock_acquire(self.addr(), false);
        // Inside a model the logical grant guarantees the real lock is
        // free; outside one this is a plain contended lock.
        self.wrap(self.inner.lock())
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        if rt::in_model() && !rt::lock_try_acquire(self.addr(), false) {
            return Err(TryLockError::WouldBlock);
        }
        match self.inner.try_lock() {
            Ok(g) => Ok(MutexGuard {
                lock: self,
                inner: ManuallyDrop::new(g),
            }),
            Err(TryLockError::Poisoned(poisoned)) => {
                Err(TryLockError::Poisoned(PoisonError::new(MutexGuard {
                    lock: self,
                    inner: ManuallyDrop::new(poisoned.into_inner()),
                })))
            }
            Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
        }
    }

    /// Returns a mutable reference to the value (no locking needed).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }

    /// Whether the mutex is poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// Drops the real guard without the logical release — used by
    /// [`Condvar::wait`], which must release and enqueue atomically in the
    /// scheduler.
    fn unlock_for_wait(mut self) -> &'a Mutex<T> {
        let lock = self.lock;
        // Drop the std guard, skip our Drop (which would do the logical
        // release a second time, from the scheduler's perspective).
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        std::mem::forget(self);
        lock
    }

    fn into_std(mut self) -> (&'a Mutex<T>, StdMutexGuard<'a, T>) {
        let lock = self.lock;
        let inner = unsafe { ManuallyDrop::take(&mut self.inner) };
        std::mem::forget(self);
        (lock, inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Real unlock first, then the logical release: by the time another
        // model thread is granted the lock, the std mutex is free.
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        rt::lock_release(self.lock.addr(), false);
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// Instrumented [`std::sync::RwLock`].
pub struct RwLock<T: ?Sized> {
    inner: StdRwLock<T>,
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    addr: usize,
    inner: ManuallyDrop<StdRwLockReadGuard<'a, T>>,
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    addr: usize,
    inner: ManuallyDrop<StdRwLockWriteGuard<'a, T>>,
}

impl<T> RwLock<T> {
    /// Creates a new lock. `const`, matching `std`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: StdRwLock::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    fn addr(&self) -> usize {
        addr_of(self)
    }

    /// Acquires the lock shared.
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        rt::lock_acquire(self.addr(), true);
        match self.inner.read() {
            Ok(g) => Ok(RwLockReadGuard {
                addr: self.addr(),
                inner: ManuallyDrop::new(g),
            }),
            Err(poisoned) => Err(PoisonError::new(RwLockReadGuard {
                addr: self.addr(),
                inner: ManuallyDrop::new(poisoned.into_inner()),
            })),
        }
    }

    /// Acquires the lock exclusive.
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        rt::lock_acquire(self.addr(), false);
        match self.inner.write() {
            Ok(g) => Ok(RwLockWriteGuard {
                addr: self.addr(),
                inner: ManuallyDrop::new(g),
            }),
            Err(poisoned) => Err(PoisonError::new(RwLockWriteGuard {
                addr: self.addr(),
                inner: ManuallyDrop::new(poisoned.into_inner()),
            })),
        }
    }

    /// Returns a mutable reference to the value (no locking needed).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        rt::lock_release(self.addr, true);
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        rt::lock_release(self.addr, false);
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Result of [`Condvar::wait_timeout`]; mirrors
/// [`std::sync::WaitTimeoutResult`], which has no public constructor.
#[derive(Clone, Copy, Debug)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Instrumented [`std::sync::Condvar`].
pub struct Condvar {
    inner: StdCondvar,
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl Condvar {
    /// Creates a new condition variable. `const`, matching `std`.
    pub const fn new() -> Self {
        Condvar {
            inner: StdCondvar::new(),
        }
    }

    fn addr(&self) -> usize {
        addr_of(self)
    }

    /// Releases the guard's mutex and blocks until notified, then
    /// reacquires.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        if rt::in_model() {
            let lock = guard.unlock_for_wait();
            rt::cond_wait(self.addr(), lock.addr());
            rt::lock_acquire(lock.addr(), false);
            lock.wrap(lock.inner.lock())
        } else {
            let (lock, std_guard) = guard.into_std();
            lock.wrap(self.inner.wait(std_guard))
        }
    }

    /// Like [`Condvar::wait`] with a timeout. Under a model this reports an
    /// immediate (legal, spurious) timeout after a scheduling point rather
    /// than risking a deadlock on a notify that never comes — model code
    /// must re-check its predicate in a loop, as correct condvar code
    /// already does.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        if rt::in_model() {
            let lock = guard.lock;
            drop(guard);
            rt::yield_now();
            match lock.lock() {
                Ok(g) => Ok((g, WaitTimeoutResult(true))),
                Err(poisoned) => Err(PoisonError::new((
                    poisoned.into_inner(),
                    WaitTimeoutResult(true),
                ))),
            }
        } else {
            let (lock, std_guard) = guard.into_std();
            match self.inner.wait_timeout(std_guard, dur) {
                Ok((g, t)) => Ok((
                    MutexGuard {
                        lock,
                        inner: ManuallyDrop::new(g),
                    },
                    WaitTimeoutResult(t.timed_out()),
                )),
                Err(poisoned) => {
                    let (g, t) = poisoned.into_inner();
                    Err(PoisonError::new((
                        MutexGuard {
                            lock,
                            inner: ManuallyDrop::new(g),
                        },
                        WaitTimeoutResult(t.timed_out()),
                    )))
                }
            }
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        rt::cond_notify(self.addr(), false);
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        rt::cond_notify(self.addr(), true);
        self.inner.notify_all();
    }
}

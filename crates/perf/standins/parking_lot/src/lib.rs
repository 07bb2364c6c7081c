//! Offline stand-in for `parking_lot` (see `crates/perf/README.md`):
//! `Mutex` and `Condvar` with parking_lot's API — `lock()`
//! returns the guard directly and a panic while holding a lock does not
//! poison it — implemented over `std::sync`.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::{Duration, Instant};

/// Mutual exclusion without poisoning.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// Holds the lock until dropped.
pub struct MutexGuard<'a, T: ?Sized> {
    // `None` only while a `Condvar` wait has the std guard.
    guard: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            guard: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Takes the lock if it is free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { guard: Some(g) }),
            Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                guard: Some(p.into_inner()),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside a wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside a wait")
    }
}

/// Whether a timed wait ran out of time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True if the wait ended because the time ran out.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable for [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Releases the lock, sleeps until notified, re-acquires.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.guard.take().expect("guard present outside a wait");
        guard.guard = Some(self.inner.wait(g).unwrap_or_else(PoisonError::into_inner));
    }

    /// [`Condvar::wait`] bounded by `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.guard.take().expect("guard present outside a wait");
        let (g, result) = self
            .inner
            .wait_timeout(g, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.guard = Some(g);
        WaitTimeoutResult(result.timed_out())
    }

    /// [`Condvar::wait`] bounded by a deadline.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        self.wait_for(guard, deadline.saturating_duration_since(Instant::now()))
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn condvar_hands_the_guard_back() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            *p2.0.lock() = true;
            p2.1.notify_all();
        });
        let mut g = pair.0.lock();
        while !*g {
            pair.1.wait(&mut g);
        }
        assert!(*g);
        drop(g);
        t.join().unwrap();
        let mut g = pair.0.lock();
        assert!(pair
            .1
            .wait_for(&mut g, Duration::from_millis(5))
            .timed_out());
        assert!(*g);
    }
}

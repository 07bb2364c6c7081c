//! The workspace's lock: [`Mutex`] and [`Condvar`] over `std::sync` with
//! poisoning swallowed and the guard lent to a wait by `&mut`.
//!
//! What these guard (counters, queues, maps) is valid between statements,
//! so a node thread that dies holding one leaves nothing torn and must not
//! take every other thread's `lock()` down with it. Only the calls the
//! workspace makes exist; `dqa-runtime` imports them through `crate::sync`,
//! where `--features loom` swaps in the model checker's twins.

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::Instant;

/// Mutual exclusion; `lock` cannot fail.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

/// Holds a [`Mutex`] until dropped. The inner guard is absent only while a
/// [`Condvar`] wait has it.
#[derive(Debug)]
pub struct MutexGuard<'a, T>(Option<sync::MutexGuard<'a, T>>);

const HELD: &str = "guard present outside a wait";

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect(HELD)
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect(HELD)
    }
}

/// Condition variable for [`Mutex`]. Wake-ups can be spurious: callers
/// re-check their condition.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Condvar {
        Condvar(sync::Condvar::new())
    }

    /// Releases the lock, sleeps until notified, takes the lock again.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.0.take().expect(HELD);
        guard.0 = Some(self.0.wait(held).unwrap_or_else(PoisonError::into_inner));
    }

    /// [`Condvar::wait`] that also returns once `deadline` has passed.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> sync::WaitTimeoutResult {
        let held = guard.0.take().expect(HELD);
        let left = deadline.saturating_duration_since(Instant::now());
        let (held, result) =
            (self.0.wait_timeout(held, left)).unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(held);
        result
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

// The waits are exercised where they are used: `dqa-runtime`'s admission
// gate and channel tests run on these types.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_survives_a_panicking_holder() {
        let m = sync::Arc::new(Mutex::new(1));
        let m2 = sync::Arc::clone(&m);
        let holder = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        });
        assert!(holder.join().is_err());
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }
}

//! Dual-mode `Mutex`/`Condvar`/atomic shims with the API surface of
//! `qa_types::sync`, which the runtime uses by default.
//!
//! Outside a [`crate::model`] run every operation passes straight through
//! to `std::sync`, so code compiled against these shims behaves normally.
//! Inside a model run, every lock acquisition, condvar operation and
//! atomic access is a scheduling decision point registered with the
//! explorer, and blocking is simulated (the real OS thread parks under
//! the scheduler instead of the OS primitive).

use crate::sched::{self, Shared, Wake};
use std::sync::Arc;
use std::sync::Mutex as StdMutex;

type ModelRef = (Arc<Shared>, usize);

fn take_std<'a, T>(m: &'a StdMutex<T>) -> std::sync::MutexGuard<'a, T> {
    // The scheduler has already granted exclusive ownership, so the
    // underlying std mutex must be free; poison from an aborted prior
    // interleaving is harmless (state is recreated per execution).
    match m.try_lock() {
        Ok(g) => g,
        Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        Err(std::sync::TryLockError::WouldBlock) => {
            unreachable!("scheduler granted a mutex that is still held")
        }
    }
}

/// A mutex with the `qa_types::sync` API: `lock()` returns the guard
/// directly (no `Result`), poisoning is swallowed.
pub struct Mutex<T> {
    inner: StdMutex<T>,
    model: Option<ModelRef>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        let model = sched::current().map(|ctx| {
            let id = ctx.shared.register_mutex();
            (ctx.shared, id)
        });
        Mutex {
            inner: StdMutex::new(value),
            model,
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let (Some((shared, id)), Some(ctx)) = (&self.model, sched::current()) {
            shared.acquire_mutex(ctx.tid, *id);
            return MutexGuard {
                lock: self,
                inner: Some(take_std(&self.inner)),
                model: Some((ctx, *id)),
            };
        }
        MutexGuard {
            lock: self,
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            model: None,
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.try_lock() {
            Ok(g) => f.debug_struct("Mutex").field("data", &*g).finish(),
            Err(_) => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    model: Option<(sched::Ctx, usize)>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard surrendered mid-wait")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard surrendered mid-wait")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Drop the std guard before telling the scheduler: the next owner
        // may be scheduled as soon as the release is recorded.
        self.inner = None;
        if let Some((ctx, id)) = &self.model {
            ctx.shared.release_mutex(ctx.tid, *id);
        }
    }
}

/// The result of a timed condvar wait; mirrors
/// `std::sync::WaitTimeoutResult`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable with the `qa_types::sync` API: waits take
/// `&mut MutexGuard` instead of consuming it.
pub struct Condvar {
    inner: std::sync::Condvar,
    model: Option<ModelRef>,
}

impl Condvar {
    pub fn new() -> Self {
        let model = sched::current().map(|ctx| {
            let id = ctx.shared.register_cv();
            (ctx.shared, id)
        });
        Condvar {
            inner: std::sync::Condvar::new(),
            model,
        }
    }

    /// Block until notified, releasing the mutex while parked.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.wait_inner(guard, false);
    }

    /// Block until notified or the (modeled) deadline passes. Under the
    /// explorer the timeout is nondeterministic: at any point while
    /// parked, "the deadline fires" is one of the explored branches.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: std::time::Instant,
    ) -> WaitTimeoutResult {
        if let Some(wake) = self.try_model_wait(guard, true) {
            return WaitTimeoutResult(wake == Wake::TimedOut);
        }
        let g = guard.inner.take().expect("guard surrendered mid-wait");
        let timeout = deadline.saturating_duration_since(std::time::Instant::now());
        let (g, res) = self
            .inner
            .wait_timeout(g, timeout)
            .unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(g);
        WaitTimeoutResult(res.timed_out())
    }

    pub fn notify_one(&self) {
        if let (Some((shared, cv)), Some(ctx)) = (&self.model, sched::current()) {
            shared.cv_notify(ctx.tid, *cv, false);
            return;
        }
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        if let (Some((shared, cv)), Some(ctx)) = (&self.model, sched::current()) {
            shared.cv_notify(ctx.tid, *cv, true);
            return;
        }
        self.inner.notify_all();
    }

    fn wait_inner<T>(&self, guard: &mut MutexGuard<'_, T>, timed: bool) {
        if self.try_model_wait(guard, timed).is_some() {
            return;
        }
        let g = guard.inner.take().expect("guard surrendered mid-wait");
        let g = self.inner.wait(g).unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(g);
    }

    /// The model-mode wait protocol: surrender the std guard, park under
    /// the scheduler (which releases the modeled mutex atomically), then
    /// retake both once scheduled with the mutex granted.
    fn try_model_wait<T>(&self, guard: &mut MutexGuard<'_, T>, timed: bool) -> Option<Wake> {
        let (shared, cv) = self.model.as_ref()?;
        // Surrender the ownership marker while parked: if the execution
        // is aborted mid-wait, the guard's destructor must not tell the
        // scheduler to release a mutex this thread no longer owns.
        let (ctx, m) = guard.model.take()?;
        debug_assert!(
            Arc::ptr_eq(shared, &ctx.shared),
            "condvar and mutex belong to different model runs"
        );
        guard.inner = None;
        let wake = shared.cv_wait(ctx.tid, *cv, m, timed);
        guard.inner = Some(take_std(&guard.lock.inner));
        guard.model = Some((ctx, m));
        Some(wake)
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("Condvar { .. }")
    }
}

/// Sequentially consistent atomic shims. Under the explorer every access
/// is a scheduling decision point; the ordering argument is accepted for
/// API compatibility but all modeled accesses are SeqCst.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    fn interleave() {
        if let Some(ctx) = crate::sched::current() {
            ctx.shared.switch_point(ctx.tid);
        }
    }

    macro_rules! atomic_shim {
        ($name:ident, $std:ty, $prim:ty) => {
            #[derive(Debug, Default)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                pub const fn new(v: $prim) -> Self {
                    Self {
                        inner: <$std>::new(v),
                    }
                }

                pub fn load(&self, _order: Ordering) -> $prim {
                    interleave();
                    self.inner.load(Ordering::SeqCst)
                }

                pub fn store(&self, v: $prim, _order: Ordering) {
                    interleave();
                    self.inner.store(v, Ordering::SeqCst)
                }

                pub fn swap(&self, v: $prim, _order: Ordering) -> $prim {
                    interleave();
                    self.inner.swap(v, Ordering::SeqCst)
                }

                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    _success: Ordering,
                    _failure: Ordering,
                ) -> Result<$prim, $prim> {
                    interleave();
                    self.inner
                        .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
                }

                /// Modeled as the strong variant: spurious failure is a
                /// hardware artifact, not a scheduling decision, and every
                /// caller must already loop on failure anyway.
                pub fn compare_exchange_weak(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    self.compare_exchange(current, new, success, failure)
                }

                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }
            }
        };
    }

    atomic_shim!(AtomicBool, std::sync::atomic::AtomicBool, bool);
    atomic_shim!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    atomic_shim!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

    macro_rules! atomic_arith {
        ($name:ident, $prim:ty) => {
            impl $name {
                pub fn fetch_add(&self, v: $prim, _order: Ordering) -> $prim {
                    interleave();
                    self.inner.fetch_add(v, Ordering::SeqCst)
                }

                pub fn fetch_sub(&self, v: $prim, _order: Ordering) -> $prim {
                    interleave();
                    self.inner.fetch_sub(v, Ordering::SeqCst)
                }

                pub fn fetch_max(&self, v: $prim, _order: Ordering) -> $prim {
                    interleave();
                    self.inner.fetch_max(v, Ordering::SeqCst)
                }
            }
        };
    }

    atomic_arith!(AtomicU64, u64);
    atomic_arith!(AtomicUsize, usize);
}

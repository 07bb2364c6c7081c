//! The interleaving explorer: a cooperative scheduler that serializes
//! real threads and drives a DFS over every scheduling decision.
//!
//! One execution = one decision path. Every controlled thread stops at
//! each synchronization point and hands control to the scheduler, which
//! picks the next thread to run — by replaying the recorded path prefix,
//! then defaulting to the lowest runnable thread id. When an execution
//! finishes, the driver backtracks to the deepest decision with an
//! unexplored alternative and reruns. The whole space is explored when
//! no decision has alternatives left.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

pub(crate) type Tid = usize;

/// Marker payload threads throw to unwind quickly once an execution is
/// being aborted (failure elsewhere); the wrapper swallows it.
pub(crate) struct Abort;

/// Why a parked condvar waiter resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wake {
    Notified,
    TimedOut,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Runnable,
    /// Parked until the mutex is released, then runnable to retry.
    BlockedOnMutex(usize),
    /// Parked in a condvar wait; `timed` waiters can be woken by the
    /// modeled timeout as a scheduling alternative.
    WaitingOnCv {
        cv: usize,
        timed: bool,
    },
    /// Parked in `JoinHandle::join` until the child finishes.
    BlockedOnJoin(Tid),
    Finished,
}

pub(crate) struct ThreadState {
    pub status: Status,
    pub wake: Option<Wake>,
}

#[derive(Default)]
pub(crate) struct SchedState {
    pub threads: Vec<ThreadState>,
    /// Mutex owners, indexed by per-execution mutex id.
    pub mutex_owner: Vec<Option<Tid>>,
    pub n_cvs: usize,
    /// The single thread allowed to run; None = scheduler's turn.
    pub active: Option<Tid>,
    /// The previously scheduled thread (preemption accounting).
    pub last_run: Option<Tid>,
    pub preemptions: usize,
    /// Decision index within the current execution.
    pub step: usize,
    /// The decision path being replayed/extended.
    pub path: Vec<usize>,
    pub failure: Option<String>,
    pub abort: bool,
    /// Real join handles of every controlled thread this execution.
    pub handles: Vec<std::thread::JoinHandle<()>>,
}

pub(crate) struct Shared {
    pub state: StdMutex<SchedState>,
    pub sched_cv: StdCondvar,
    pub thread_cv: StdCondvar,
    pub max_steps: usize,
    pub preemption_bound: Option<usize>,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

#[derive(Clone)]
pub(crate) struct Ctx {
    pub shared: Arc<Shared>,
    pub tid: Tid,
}

/// The calling thread's place in a model run. `None` outside one — and
/// for a thread already unwinding out of an aborted execution, whose
/// destructors may still lock or notify (a channel half's `Drop` does
/// both): a second panic there would abort the process, so the shims pass
/// through to `std`. Every thread of an aborted execution is unwinding,
/// and real locks order them.
pub(crate) fn current() -> Option<Ctx> {
    let ctx = CTX.with(|c| c.borrow().clone())?;
    let aborted = || {
        ctx.shared
            .state
            .lock()
            .map_or_else(|e| e.into_inner().abort, |st| st.abort)
    };
    (!(std::thread::panicking() && aborted())).then_some(ctx)
}

impl Shared {
    /// Hand control to the scheduler and park until scheduled again.
    fn yield_turn<'a>(
        &'a self,
        mut st: std::sync::MutexGuard<'a, SchedState>,
        tid: Tid,
    ) -> std::sync::MutexGuard<'a, SchedState> {
        st.active = None;
        self.sched_cv.notify_one();
        loop {
            st = self.thread_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            if st.abort {
                drop(st);
                std::panic::panic_any(Abort);
            }
            if st.active == Some(tid) {
                return st;
            }
        }
    }

    /// A plain scheduling decision point: stay runnable, let the
    /// scheduler pick who continues.
    pub(crate) fn switch_point(&self, tid: Tid) {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.abort {
            drop(st);
            std::panic::panic_any(Abort);
        }
        let _st = self.yield_turn(st, tid);
    }

    // -- mutexes ----------------------------------------------------------

    pub(crate) fn register_mutex(&self) -> usize {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.mutex_owner.push(None);
        st.mutex_owner.len() - 1
    }

    pub(crate) fn register_cv(&self) -> usize {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.n_cvs += 1;
        st.n_cvs - 1
    }

    /// Acquire with a leading decision point (the acquisition order is
    /// exactly what we explore).
    pub(crate) fn acquire_mutex(&self, tid: Tid, m: usize) {
        self.switch_point(tid);
        self.acquire_mutex_nopreempt(tid, m);
    }

    /// Acquire without a leading decision point (used when reacquiring
    /// after a condvar wake, where the wake itself was the decision).
    pub(crate) fn acquire_mutex_nopreempt(&self, tid: Tid, m: usize) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if st.abort {
                drop(st);
                std::panic::panic_any(Abort);
            }
            if st.mutex_owner[m].is_none() {
                st.mutex_owner[m] = Some(tid);
                return;
            }
            st.threads[tid].status = Status::BlockedOnMutex(m);
            st = self.yield_turn(st, tid);
        }
    }

    /// Release; waiters become runnable (they retry when scheduled).
    /// Deliberately *not* a decision point: the owner keeps running until
    /// its next synchronization operation.
    pub(crate) fn release_mutex(&self, tid: Tid, m: usize) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(st.mutex_owner[m], Some(tid));
        st.mutex_owner[m] = None;
        for t in st.threads.iter_mut() {
            if t.status == Status::BlockedOnMutex(m) {
                t.status = Status::Runnable;
            }
        }
    }

    // -- condvars ---------------------------------------------------------

    /// Atomically release `m` and park on `cv`; returns why we woke.
    /// The caller reacquires `m` afterwards.
    pub(crate) fn cv_wait(&self, tid: Tid, cv: usize, m: usize, timed: bool) -> Wake {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(st.mutex_owner[m], Some(tid));
        st.mutex_owner[m] = None;
        for t in st.threads.iter_mut() {
            if t.status == Status::BlockedOnMutex(m) {
                t.status = Status::Runnable;
            }
        }
        st.threads[tid].status = Status::WaitingOnCv { cv, timed };
        st.threads[tid].wake = None;
        st = self.yield_turn(st, tid);
        let wake = st.threads[tid].wake.take().expect("woken without reason");
        drop(st);
        self.acquire_mutex_nopreempt(tid, m);
        wake
    }

    /// Notify: a decision point, then every waiter (or the lowest-id
    /// waiter for `notify_one`) becomes runnable with `Wake::Notified`.
    pub(crate) fn cv_notify(&self, tid: Tid, cv: usize, all: bool) {
        self.switch_point(tid);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut woken = 0usize;
        for t in st.threads.iter_mut() {
            if let Status::WaitingOnCv { cv: c, .. } = t.status {
                if c == cv && (all || woken == 0) {
                    t.status = Status::Runnable;
                    t.wake = Some(Wake::Notified);
                    woken += 1;
                }
            }
        }
    }

    // -- threads ----------------------------------------------------------

    /// Register and start a controlled thread running `body`.
    pub(crate) fn spawn_thread(self: &Arc<Self>, body: impl FnOnce() + Send + 'static) -> Tid {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let tid = st.threads.len();
        st.threads.push(ThreadState {
            status: Status::Runnable,
            wake: None,
        });
        let shared = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("dqa-verify-{tid}"))
            .spawn(move || {
                CTX.with(|c| {
                    *c.borrow_mut() = Some(Ctx {
                        shared: Arc::clone(&shared),
                        tid,
                    });
                });
                // Park until first scheduled.
                {
                    let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                    while st.active != Some(tid) {
                        if st.abort {
                            break;
                        }
                        st = shared.thread_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                }
                let aborted = {
                    let st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                    st.abort
                };
                if !aborted {
                    let res = catch_unwind(AssertUnwindSafe(body));
                    if let Err(payload) = res {
                        if !payload.is::<Abort>() {
                            // `&*`: coerce the *contents*, not the Box
                            // itself, into `dyn Any` for the downcasts.
                            let msg = panic_message(&*payload);
                            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                            if st.failure.is_none() {
                                st.failure = Some(msg);
                            }
                        }
                    }
                }
                // Mark finished, wake joiners, hand control back.
                let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                st.threads[tid].status = Status::Finished;
                for t in st.threads.iter_mut() {
                    if t.status == Status::BlockedOnJoin(tid) {
                        t.status = Status::Runnable;
                    }
                }
                if st.active == Some(tid) {
                    st.active = None;
                }
                shared.sched_cv.notify_one();
                shared.thread_cv.notify_all();
            })
            .expect("spawn model thread");
        st.handles.push(handle);
        tid
    }

    /// Park until `child` finishes.
    pub(crate) fn join_thread(&self, tid: Tid, child: Tid) {
        self.switch_point(tid);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.threads[child].status != Status::Finished {
            if st.abort {
                drop(st);
                std::panic::panic_any(Abort);
            }
            st.threads[tid].status = Status::BlockedOnJoin(child);
            st = self.yield_turn(st, tid);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked".to_string()
    }
}

/// A failed exploration.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Human-readable cause (assertion message, deadlock description, or
    /// exceeded bound).
    pub message: String,
    /// The decision path that produced it (replayable).
    pub path: Vec<usize>,
    /// Executions completed before the failure.
    pub executions: usize,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model failed after {} execution(s): {}\n  decision path: {:?}",
            self.executions, self.message, self.path
        )
    }
}

/// A completed exploration.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Interleavings explored.
    pub executions: usize,
    /// Deepest decision path seen.
    pub max_depth: usize,
}

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct Builder {
    /// Abort (as a failure) past this many interleavings.
    pub max_executions: usize,
    /// Abort (as a failure) past this many decisions in one execution —
    /// catches accidental unbounded loops in a model.
    pub max_steps: usize,
    /// Optional context-switch bound: once a single execution has
    /// preempted a still-runnable thread this many times, the scheduler
    /// stops branching and runs the current thread to its next blocking
    /// point. 2–3 catches most real bugs at a fraction of the space.
    pub preemption_bound: Option<usize>,
}

impl Default for Builder {
    fn default() -> Self {
        Builder {
            max_executions: 200_000,
            max_steps: 20_000,
            preemption_bound: None,
        }
    }
}

impl Builder {
    /// Explore every interleaving of `f`; panic with the failing decision
    /// path on the first counterexample.
    pub fn check<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        match self.try_check(f) {
            Ok(report) => report,
            Err(failure) => panic!("{failure}"),
        }
    }

    /// Explore every interleaving of `f`, returning the counterexample
    /// instead of panicking (for asserting that seeded mutants fail).
    pub fn try_check<F>(&self, f: F) -> Result<Report, Failure>
    where
        F: Fn() + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let shared = Arc::new(Shared {
            state: StdMutex::new(SchedState::default()),
            sched_cv: StdCondvar::new(),
            thread_cv: StdCondvar::new(),
            max_steps: self.max_steps,
            preemption_bound: self.preemption_bound,
        });
        let mut path: Vec<usize> = Vec::new();
        let mut executions = 0usize;
        let mut max_depth = 0usize;
        loop {
            executions += 1;
            if executions > self.max_executions {
                return Err(Failure {
                    message: format!(
                        "exploration bound exceeded ({} executions)",
                        self.max_executions
                    ),
                    path,
                    executions: executions - 1,
                });
            }
            let (alts, failure) = run_once(&shared, &f, &mut path);
            max_depth = max_depth.max(path.len());
            if let Some(message) = failure {
                return Err(Failure {
                    message,
                    path,
                    executions,
                });
            }
            // Backtrack: deepest decision with an unexplored alternative.
            let mut next = None;
            for i in (0..path.len()).rev() {
                if path[i] + 1 < alts[i] {
                    next = Some(i);
                    break;
                }
            }
            match next {
                Some(i) => {
                    path.truncate(i + 1);
                    path[i] += 1;
                }
                None => {
                    return Ok(Report {
                        executions,
                        max_depth,
                    });
                }
            }
        }
    }
}

/// One execution: replay `path`, extend it with default (lowest-id)
/// choices, and return the alternative counts plus any failure.
fn run_once<F>(
    shared: &Arc<Shared>,
    f: &Arc<F>,
    path: &mut Vec<usize>,
) -> (Vec<usize>, Option<String>)
where
    F: Fn() + Send + Sync + 'static,
{
    // Fresh per-execution state (the path is owned by the driver).
    {
        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        *st = SchedState::default();
        st.path = path.clone();
    }
    let f2 = Arc::clone(f);
    shared.spawn_thread(move || f2());

    let mut alts: Vec<usize> = Vec::new();
    let failure;
    loop {
        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.active.is_some() {
            st = shared.sched_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if let Some(msg) = st.failure.take() {
            failure = Some(msg);
            abort_execution(shared, st);
            break;
        }
        // Runnable choices: runnable threads, plus timed condvar waiters
        // (choosing one fires its modeled timeout). Sorted by thread id
        // for replay determinism.
        let mut choices: Vec<Tid> = Vec::new();
        let mut all_finished = true;
        for (tid, t) in st.threads.iter().enumerate() {
            if t.status != Status::Finished {
                all_finished = false;
            }
            match t.status {
                Status::Runnable => choices.push(tid),
                Status::WaitingOnCv { timed: true, .. } => choices.push(tid),
                _ => {}
            }
        }
        if choices.is_empty() {
            if all_finished {
                failure = None;
                drop(st);
                break;
            }
            let states: BTreeMap<Tid, String> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status != Status::Finished)
                .map(|(tid, t)| (tid, format!("{:?}", t.status)))
                .collect();
            failure = Some(format!(
                "deadlock: every live thread is blocked with no timeout to fire \
                 (lost wakeup?): {states:?}"
            ));
            abort_execution(shared, st);
            break;
        }
        // Preemption bounding: past the bound, stop branching away from a
        // still-runnable current thread.
        let bounded = match (shared.preemption_bound, st.last_run) {
            (Some(bound), Some(prev)) if st.preemptions >= bound && choices.contains(&prev) => {
                vec![prev]
            }
            _ => choices,
        };
        let step = st.step;
        if step >= shared.max_steps {
            failure = Some(format!(
                "step bound exceeded ({} decisions in one execution)",
                shared.max_steps
            ));
            abort_execution(shared, st);
            break;
        }
        let choice_idx = if step < st.path.len() {
            st.path[step]
        } else {
            st.path.push(0);
            0
        };
        if step < alts.len() {
            alts[step] = bounded.len();
        } else {
            alts.push(bounded.len());
        }
        let chosen = bounded[choice_idx.min(bounded.len() - 1)];
        if let (Some(prev), true) = (st.last_run, true) {
            if prev != chosen
                && st
                    .threads
                    .get(prev)
                    .is_some_and(|t| t.status == Status::Runnable)
            {
                st.preemptions += 1;
            }
        }
        // Firing a timed waiter's timeout: it resumes to reacquire its
        // mutex with `TimedOut` as the wake reason.
        if let Status::WaitingOnCv { timed: true, .. } = st.threads[chosen].status {
            st.threads[chosen].status = Status::Runnable;
            st.threads[chosen].wake = Some(Wake::TimedOut);
        }
        st.step += 1;
        st.last_run = Some(chosen);
        st.active = Some(chosen);
        drop(st);
        shared.thread_cv.notify_all();
    }

    // Join every real thread of this execution.
    let handles = {
        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut st.handles)
    };
    for h in handles {
        let _ = h.join();
    }
    // Propagate the (possibly extended) path back to the driver.
    {
        let st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        *path = st.path.clone();
    }
    (alts, failure)
}

/// Wake every parked thread into the abort path so the execution's real
/// threads can unwind and be joined.
fn abort_execution(shared: &Arc<Shared>, mut st: std::sync::MutexGuard<'_, SchedState>) {
    st.abort = true;
    drop(st);
    shared.thread_cv.notify_all();
}

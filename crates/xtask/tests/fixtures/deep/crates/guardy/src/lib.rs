//! blocking-under-guard fixture: a blocking receive while a guard is
//! held, the sanctioned condvar hand-over, and the drop-first fix.
use dqa_runtime::channel::Receiver;
use qa_types::sync::{Condvar, Mutex};
use std::time::Duration;

pub fn stall(rx: &Receiver<u64>, m: &Mutex<u64>) -> u64 {
    let g = m.lock();
    let v = rx.recv_timeout(Duration::from_millis(5)).unwrap_or(0);
    *g + v
}

/// Waived.
pub fn stall_waived(rx: &Receiver<u64>, m: &Mutex<u64>) -> u64 {
    let g = m.lock();
    // dqa-lint: allow(blocking-under-guard)
    let v = rx.recv_timeout(Duration::from_millis(5)).unwrap_or(0);
    *g + v
}

/// The condvar protocol hands the guard over: sanctioned.
pub fn wait_ok(cv: &Condvar, m: &Mutex<bool>) {
    let mut g = m.lock();
    while !*g {
        cv.wait(&mut g);
    }
}

/// Dropping the guard before blocking is the fix the rule suggests.
pub fn drop_first(rx: &Receiver<u64>, m: &Mutex<u64>) -> u64 {
    let g = m.lock();
    let base = *g;
    drop(g);
    base + rx.recv_timeout(Duration::from_millis(5)).unwrap_or(0)
}

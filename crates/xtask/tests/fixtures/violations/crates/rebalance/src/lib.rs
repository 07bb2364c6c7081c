//! Golden fixture: the elastic re-sharding tier inherits the
//! threaded-runtime clock and channel rules. Never compiled — this
//! tree is data for `tests/golden.rs`.

pub fn migration_pacing_clock() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn step_ack_wait(rx: std::sync::mpsc::Receiver<u32>) -> u32 {
    rx.recv().unwrap_or(0)
}

pub fn step_queue() -> usize {
    let (_tx, rx) = std::sync::mpsc::channel::<u32>();
    rx.try_iter().count()
}

pub fn detector_may_unwrap(v: Option<f64>) -> f64 {
    // runtime-panic stays dqa-runtime-only: detector math may unwrap.
    v.unwrap()
}

pub fn waived_heal_clock() -> std::time::Instant {
    // dqa-lint: allow(raw-instant)
    std::time::Instant::now()
}

pub fn waived_step_ack(rx: std::sync::mpsc::Receiver<u32>) -> u32 {
    // dqa-lint: allow(unbounded-recv)
    rx.recv().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn unbounded_is_fine_in_tests() {
        let (tx, _rx) = std::sync::mpsc::channel::<u32>();
        drop(tx);
    }
}

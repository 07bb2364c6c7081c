//! Golden fixture: the broker tier inherits the threaded-runtime channel
//! rules. Never compiled — this tree is data for `tests/golden.rs`.

pub fn hedge_queue() -> usize {
    let (_tx, rx) = std::sync::mpsc::channel::<u32>();
    rx.try_iter().count()
}

pub fn merge_may_unwrap(v: Option<u32>) -> u32 {
    // runtime-panic stays dqa-runtime-only: broker code may unwrap.
    v.unwrap()
}

pub fn waived_deadline_clock() -> std::time::Instant {
    // dqa-lint: allow(raw-instant)
    std::time::Instant::now()
}

pub fn waived_reply_recv(rx: std::sync::mpsc::Receiver<u32>) -> u32 {
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

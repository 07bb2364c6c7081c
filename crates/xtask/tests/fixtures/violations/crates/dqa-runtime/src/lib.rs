//! Golden fixture: seeded violations of the runtime-panic rule. Never
//! compiled — this tree is data for `tests/golden.rs`.

pub fn hard_unwrap(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn hard_expect(v: Option<u32>) -> u32 {
    v.expect("present")
}

pub fn boom() {
    panic!("boom");
}

pub fn never() {
    unreachable!("protocol violation");
}

pub fn hidden_queue() -> usize {
    let (_tx, rx) = std::sync::mpsc::channel::<u32>();
    rx.try_iter().count()
}

pub fn raw_now() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn waived_unwrap(v: Option<u32>) -> u32 {
    v.unwrap() // dqa-lint: allow(runtime-panic)
}

pub fn blocking_recv(rx: std::sync::mpsc::Receiver<u32>) -> u32 {
    rx.recv().unwrap_or(0)
}

pub fn waived_recv(rx: std::sync::mpsc::Receiver<u32>) -> u32 {
    // dqa-lint: allow(unbounded-recv)
    rx.recv().unwrap_or(0)
}

pub fn waived_queue() -> usize {
    // dqa-lint: allow(unbounded-channel)
    let (_tx, rx) = std::sync::mpsc::channel::<u32>();
    rx.try_iter().count()
}

pub fn waived_now() -> std::time::Instant {
    // dqa-lint: allow(raw-instant)
    std::time::Instant::now()
}

pub fn raw_dump(bytes: &[u8]) {
    std::fs::write("/tmp/dump.bin", bytes).ok();
}

pub fn raw_create() -> std::io::Result<std::fs::File> {
    std::fs::File::create("/tmp/out.bin")
}

pub fn waived_dump(bytes: &[u8]) {
    // dqa-lint: allow(raw-fs-write)
    std::fs::write("/tmp/dump.bin", bytes).ok();
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!(Some(1).unwrap(), 1);
    }

    #[test]
    fn bare_recv_is_fine_in_tests() {
        let (tx, rx) = std::sync::mpsc::channel();
        tx.send(1).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
    }

    #[test]
    fn unbounded_is_fine_in_tests() {
        let (tx, _rx) = std::sync::mpsc::channel::<u32>();
        drop(tx);
    }

    #[test]
    fn raw_instant_is_fine_in_tests() {
        let _ = std::time::Instant::now();
    }
}

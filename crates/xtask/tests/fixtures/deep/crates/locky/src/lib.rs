//! lock-order fixture: `ab` and `ba` acquire the pair in opposite
//! orders — a lock-graph cycle no token pattern can see.
use qa_types::sync::Mutex;

pub struct Pair {
    a: Mutex<u64>,
    b: Mutex<u64>,
    c: Mutex<u64>,
    d: Mutex<u64>,
}

impl Pair {
    pub fn ab(&self) -> u64 {
        let ga = self.a.lock();
        let gb = self.b.lock();
        *ga + *gb
    }

    pub fn ba(&self) -> u64 {
        let gb = self.b.lock();
        let ga = self.a.lock();
        *ga + *gb
    }

    /// Waived: the pragma covers the inner acquisition site.
    pub fn ba_waived(&self) -> u64 {
        let gb = self.b.lock();
        // dqa-lint: allow(lock-order)
        let ga = self.a.lock();
        *ga - *gb
    }

    /// Consistent order on an independent pair: clean.
    pub fn cd_one(&self) -> u64 {
        let gc = self.c.lock();
        let gd = self.d.lock();
        *gc + *gd
    }

    /// Same order again: still clean.
    pub fn cd_two(&self) -> u64 {
        let gc = self.c.lock();
        let gd = self.d.lock();
        *gc * *gd
    }
}

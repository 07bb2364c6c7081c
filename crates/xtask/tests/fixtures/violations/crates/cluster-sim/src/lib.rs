//! Golden fixture: seeded violations of the virtual-time rules. Never
//! compiled — this tree is data for `tests/golden.rs`.

use std::collections::HashMap;
use std::time::Instant;

pub struct SimState {
    pub started: Instant,
    pub partitions: HashMap<u32, Vec<usize>>,
}

pub fn pause() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}

pub fn waived_wall_clock() {
    // dqa-lint: allow(wall-clock)
    let _t = Instant::now();
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::time::Instant;

    #[test]
    fn wall_clock_and_hash_maps_are_fine_in_tests() {
        let _t = Instant::now();
        let _m: HashMap<u32, u32> = HashMap::new();
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

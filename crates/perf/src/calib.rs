//! Host-speed normalisation of the single-threaded measurements.
//!
//! The sandbox shares its two cores, and its speed moves in spells that
//! last from a fraction of a second to minutes: three consecutive 20 s runs
//! of `sim_cluster` read 30 % slower than the seven before them, which put
//! the spread of ten raw runs (interquartile range over median) at 27 % —
//! past the largest bound a metric may have. No statistic taken inside a
//! run removes a spell that covers the run. So every timed stretch of
//! single-threaded work (a *segment*: a few questions, one simulation run,
//! one set-up repeat, one probe batch) is bracketed by *slices* of a fixed
//! computation owned by this crate. A segment's host factor is the mean
//! time of the slices at its two ends over [`NOMINAL_SLICE_S`], and every
//! time measured in the segment is divided by it. Reported times are
//! "seconds on a host that runs the slice in `NOMINAL_SLICE_S`"; every run
//! also prints its raw figures, and `perf.host_factor` is the mean factor
//! of a traced run.
//!
//! Slices are taken between calls, never inside one, and only where one
//! thread does all the work: beside a running cluster its heartbeat and
//! poll threads compete with the slice, which then reads 10-20 % slow
//! however quiet the host is, so the runtime workloads stay raw (`text.rs`,
//! `drive`). The slice resembles the text workloads' mix — splitting words,
//! lower-casing, hashing, counting in a `HashMap`, sorting — over 64 KiB
//! windows of an 8 MiB buffer, so that contention for the cache moves it as
//! it moves them. It calls nothing in the workspace and allocates nothing
//! once warm, so a change under test cannot move the yardstick.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one slice takes on the reference host (this sandbox when quiet).
pub const NOMINAL_SLICE_S: f64 = 0.0014;

const BUFFER_BYTES: usize = 8 << 20;
const WINDOW_BYTES: usize = 64 << 10;
const WINDOWS_PER_SLICE: usize = 4;

/// The reference computation.
pub struct HostSpeed {
    text: Vec<u8>,
    at: usize,
    counts: HashMap<u32, u32>,
    repeated: Vec<u32>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        // Words of 3–10 letters over 4096 stems, low stems more often.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut text = Vec::with_capacity(BUFFER_BYTES + 16);
        while text.len() < BUFFER_BYTES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mut stem = (x % 4096).min((x >> 20) % 4096) as u32;
            for i in 0..3 + stem % 8 {
                let c = b'a' + (stem % 26) as u8;
                text.push(if i == 0 && x & 1 == 1 {
                    c.to_ascii_uppercase()
                } else {
                    c
                });
                stem = stem / 3 + 7;
            }
            text.push(b' ');
        }
        let mut host = HostSpeed {
            text,
            at: 0,
            counts: HashMap::new(),
            repeated: Vec::new(),
        };
        host.factor(); // touch the buffer and size the map before anything is timed against them
        host
    }

    /// Runs one slice and returns how slowly the host ran it: the seconds it
    /// took over [`NOMINAL_SLICE_S`].
    pub fn factor(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..WINDOWS_PER_SLICE {
            self.at = (self.at + 1_000_003) % (self.text.len() - WINDOW_BYTES);
            self.counts.clear();
            for word in self.text[self.at..self.at + WINDOW_BYTES].split(|b| *b == b' ') {
                let hash = word.iter().fold(0x811c_9dc5u32, |h, b| {
                    (h ^ u32::from(b.to_ascii_lowercase())).wrapping_mul(0x0100_0193)
                });
                *self.counts.entry(hash).or_insert(0) += 1;
            }
            self.repeated.clear();
            self.repeated.extend(
                self.counts
                    .iter()
                    .filter(|(_, c)| **c >= 2)
                    .map(|(k, _)| *k),
            );
            self.repeated.sort_unstable();
            black_box(&self.repeated);
        }
        t.elapsed().as_secs_f64() / NOMINAL_SLICE_S
    }

    /// Runs `f` between two slices; returns its result and the mean of the
    /// two factors, by which times measured inside `f` are to be divided.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let opening = self.factor();
        let out = f();
        (out, (opening + self.factor()) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_do_fixed_work() {
        let mut a = HostSpeed::new();
        let mut b = HostSpeed::new();
        assert_eq!(a.text, b.text, "the reference buffer is a pure function");
        assert!(a.text.len() >= BUFFER_BYTES);
        // Same sequence of windows, same counts.
        assert!(a.factor() > 0.0 && b.factor() > 0.0);
        assert_eq!((a.at, a.counts.len()), (b.at, b.counts.len()));
        assert!(a.counts.len() > 100, "windows hold many distinct words");
        let (out, factor) = a.around(|| 7);
        assert!(out == 7 && factor > 0.0);
    }
}

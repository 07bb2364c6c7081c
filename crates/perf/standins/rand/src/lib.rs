//! Offline stand-in for `rand` 0.8 (see `crates/perf/README.md`): the
//! seeded generator and the `Rng` / `SliceRandom` subset the workspace
//! calls. `SmallRng` is xoshiro256++ seeded through SplitMix64, as in
//! rand 0.8 on 64-bit targets; the range and float samplers are simpler
//! than rand's, so streams drawn through them differ from a
//! registry build. There is no entropy source: every generator is seeded.

use std::ops::{Range, RangeInclusive};

/// Source of random bits.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` from the top 53 bits.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Draws one value from the range; panics if it is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform in `[0, span)` by widening multiply with rejection (Lemire).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    let threshold = span.wrapping_neg() % span;
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(span);
        if wide as u64 >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty as $wide:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                (self.start as $wide).wrapping_add(below(rng, span) as $wide) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                let span = ((hi as $wide).wrapping_sub(lo as $wide) as u64).wrapping_add(1);
                let offset = if span == 0 { rng.next_u64() } else { below(rng, span) };
                (lo as $wide).wrapping_add(offset as $wide) as $t
            }
        }
    )*};
}
int_ranges!(
    u8 as u64,
    u16 as u64,
    u32 as u64,
    u64 as u64,
    usize as u64,
    i8 as i64,
    i16 as i64,
    i32 as i64,
    i64 as i64,
    isize as i64
);

macro_rules! float_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let x = self.start + (self.end - self.start) * <$t as Standard>::draw(rng);
                // Rounding can land on the excluded bound.
                if x < self.end { x } else { self.start }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                lo + (hi - lo) * <$t as Standard>::draw(rng)
            }
        }
    )*};
}
float_ranges!(f64);

/// Convenience draws on top of [`RngCore`].
pub trait Rng: RngCore {
    /// A uniformly random value of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A uniformly random value in `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++: small, fast, not cryptographic.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> SmallRng {
            let mut s = [0u64; 4];
            for word in &mut s {
                // SplitMix64
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Random picks from slices.
pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffle and choose on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// A uniformly random element, `None` if the slice is empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..1000 {
            let x: u64 = a.gen();
            assert_eq!(x, b.gen::<u64>());
            assert!((3..9).contains(&a.gen_range(3..9usize)));
            assert!((-4..=4).contains(&a.gen_range(-4..=4i32)));
            let f = a.gen_range(0.5..1.5f64);
            assert!((0.5..1.5).contains(&f));
            b = a.clone();
        }
        assert_ne!(
            SmallRng::seed_from_u64(1).gen::<u64>(),
            SmallRng::seed_from_u64(2).gen::<u64>()
        );
    }

    #[test]
    fn draws_are_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let hits = (0..n).filter(|_| rng.gen_bool(0.25)).count();
        assert!((hits as f64 / n as f64 - 0.25).abs() < 0.01);
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[rng.gen_range(0..5usize)] += 1;
        }
        assert!(counts
            .iter()
            .all(|&c| (c as f64 / n as f64 - 0.2).abs() < 0.01));
    }

    #[test]
    fn shuffle_permutes_and_choose_picks_members() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!(v.contains(v.choose(&mut rng).unwrap()));
        assert!(<[u32]>::choose(&[], &mut rng).is_none());
    }
}

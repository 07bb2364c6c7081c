//! The workspace's only random-number generator.
//!
//! Bit-identical seeded replay is the invariant every soak digest, every
//! `double_run` and every EXPERIMENTS table leans on, so the streams are
//! owned here rather than borrowed from a crate whose samplers may change
//! between versions: [`splitmix64`] and the three-word [`mix`] are the pure
//! hashes (per-decision judges, trace ids, digests), [`Rng`] is
//! xoshiro256++ seeded through splitmix64, and [`Zipf`] / [`LogNormal`]
//! are the two distributions the corpus generator and the DES sample.
//! Every generator takes its seed as an argument; there is no entropy
//! constructor. [`cases`] is the loop every property test draws its inputs
//! in. The known-answer tests below pin each stream; the integer
//! and uniform samplers are exact everywhere, the two distributions go
//! through the platform's `ln`/`exp`/`cos`/`powf`.

use std::ops::{Range, RangeInclusive};

/// Sebastiano Vigna's splitmix64: a pure function of its input, used as a
/// hash (trace and span ids, digests) and to expand a seed into [`Rng`]
/// state.
pub const fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// splitmix64 over a `(seed, a, b)` triple: the stateless per-decision
/// draw of the fault judges and the sampled integrity checks, so no RNG
/// state is threaded through the code that asks.
pub const fn mix(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(
        seed.wrapping_add(a.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(b.wrapping_mul(0x94d0_49bb_1331_11eb)),
    )
}

/// Uniform in `[0, 1)` from the top 53 bits of `bits`.
pub const fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// xoshiro256++ (Blackman & Vigna): small, fast, not cryptographic.
#[derive(Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator for `seed`: four successive splitmix64 outputs.
    pub fn new(seed: u64) -> Rng {
        let mut s = [0u64; 4];
        let mut state = seed;
        for word in &mut s {
            *word = splitmix64(state);
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        }
        Rng { s }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform in `[0, span)` by widening multiply with rejection (Lemire).
    fn below_u64(&mut self, span: u64) -> u64 {
        let threshold = span.wrapping_neg() % span;
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(span);
            if wide as u64 >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Uniform index in `[0, n)`; panics if `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample empty range");
        self.below_u64(n as u64) as usize
    }

    /// Uniform integer in `range`, both ends included; panics if it is empty.
    pub fn range(&mut self, range: RangeInclusive<u64>) -> u64 {
        let (lo, hi) = range.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        let span = (hi - lo).wrapping_add(1);
        let offset = if span == 0 {
            self.next_u64()
        } else {
            self.below_u64(span)
        };
        lo.wrapping_add(offset)
    }

    /// Uniform float in `[start, end)`; panics if the range is empty.
    pub fn uniform(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "cannot sample empty range");
        let x = range.start + (range.end - range.start) * self.f64();
        // Rounding can land on the excluded bound.
        if x < range.end {
            x
        } else {
            range.start
        }
    }

    /// `true` with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.f64() < p
    }

    /// A uniformly random element, `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len())])
        }
    }

    /// A vector of `item` draws, its length uniform in `len`.
    pub fn vec<T>(
        &mut self,
        len: RangeInclusive<u64>,
        mut item: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        (0..self.range(len)).map(|_| item(self)).collect()
    }

    /// Hostile text for the property tests, its length in characters
    /// uniform in `len`, never a line feed. A position is, a third each,
    /// ASCII (controls included), a letter whose case mapping or place in
    /// a word is special, or any Unicode scalar value.
    pub fn text(&mut self, len: RangeInclusive<u64>) -> String {
        const SPECIAL: [char; 11] = ['É', 'é', 'İ', 'ß', 'ǅ', 'Σ', 'σ', 'ς', '\u{301}', '’', '—'];
        let any = |r: &mut Rng| match r.below(3) {
            0 => r.below(0x80) as u8 as char,
            1 => SPECIAL[r.below(SPECIAL.len())],
            _ => char::from_u32(r.range(0..=0x10_ffff) as u32).unwrap_or(' '),
        };
        let chars = self.vec(len, any).into_iter();
        chars.map(|c| if c == '\n' { ' ' } else { c }).collect()
    }
}

/// The property tests' case loop: `body` runs on `n` generators, case `i`
/// seeded with `mix(seed, i, 0)`. A panic inside is followed on stderr by
/// the case and its seed, so the failing input is one [`Rng::new`] away.
/// Under Miri (CI runs the journal's properties there, ~100x slower) the
/// first four cases stand for the rest.
pub fn cases(seed: u64, n: u64, mut body: impl FnMut(&mut Rng)) {
    let n = if cfg!(miri) { n.min(4) } else { n };
    for case in 0..n {
        let case_seed = mix(seed, case, 0);
        let run = std::panic::AssertUnwindSafe(|| body(&mut Rng::new(case_seed)));
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("failed in case {case}: Rng::new({case_seed:#018x})");
            std::panic::resume_unwind(panic);
        }
    }
}

/// Zipf over ranks `1..=n` with exponent `s`: P(k) ∝ k^-s.
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: f64,
    s: f64,
    /// H(1.5) - 1, the lower end of the inversion interval.
    h_x0: f64,
    /// H(n + 0.5), the upper end.
    h_n: f64,
}

impl Zipf {
    /// `n >= 1` ranks, exponent `s >= 0`; `None` outside that domain.
    pub fn new(n: u64, s: f64) -> Option<Zipf> {
        if n < 1 || s.is_nan() || s < 0.0 {
            return None;
        }
        let mut z = Zipf {
            n: n as f64,
            s,
            h_x0: 0.0,
            h_n: 0.0,
        };
        z.h_x0 = z.h(1.5) - 1.0;
        z.h_n = z.h(z.n + 0.5);
        Some(z)
    }

    /// Antiderivative of x^-s.
    fn h(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.ln()
        } else {
            x.powf(1.0 - self.s) / (1.0 - self.s)
        }
    }

    fn h_inv(&self, y: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            y.exp()
        } else {
            (y * (1.0 - self.s)).powf(1.0 / (1.0 - self.s))
        }
    }

    /// One rank in `1..=n`. Rejection-inversion (Hörmann & Derflinger
    /// 1996): exact, O(1) expected draws.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        loop {
            let u = self.h_n + rng.f64() * (self.h_x0 - self.h_n);
            let x = self.h_inv(u);
            let k = x.round().clamp(1.0, self.n);
            if k - x <= 0.0 || u >= self.h(k + 0.5) - k.powf(-self.s) {
                return k as u64;
            }
        }
    }
}

/// `exp(N(mu, sigma²))`.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Location `mu` and scale `sigma >= 0` of the underlying normal, both
    /// finite; `None` outside that domain.
    pub fn new(mu: f64, sigma: f64) -> Option<LogNormal> {
        (mu.is_finite() && sigma.is_finite() && sigma >= 0.0).then_some(LogNormal { mu, sigma })
    }

    /// One Box–Muller draw per sample (the second variate is discarded so
    /// the distribution stays stateless).
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        let u1 = 1.0 - rng.f64(); // (0, 1]
        let u2 = rng.f64();
        let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.mu + self.sigma * normal).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws<T>(seed: u64, mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let mut rng = Rng::new(seed);
        (0..8).map(|_| f(&mut rng)).collect()
    }

    /// Known answers captured from the third-party generator the tree
    /// linked before this module existed, by a throwaway harness.
    #[test]
    fn next_u64_streams_are_pinned() {
        assert_eq!(
            draws(0, Rng::next_u64),
            [
                0x5317_5d61_490b_23df,
                0x61da_6f3d_c380_d507,
                0x5c0f_df91_ec9a_7bfc,
                0x02ee_bf8c_3bbe_5e1a,
                0x7eca_04eb_af4a_5eea,
                0x0543_c377_57f0_8d9a,
                0xdb74_90c7_5ab5_026e,
                0xd873_43e6_464b_c959,
            ]
        );
        assert_eq!(
            draws(1, Rng::next_u64),
            [
                0xcfc5_d07f_6f03_c29b,
                0xbf42_4132_963f_e08d,
                0x19a3_7d57_57aa_f520,
                0xbf08_119f_05cd_56d6,
                0x2f47_184b_8618_6fa4,
                0x9729_9fca_e720_2345,
                0xfca3_c795_08f4_1507,
                0x85fe_a5c9_0363_f221,
            ]
        );
        assert_eq!(
            draws(2001, Rng::next_u64),
            [
                0x760d_7092_dd76_0723,
                0x2b7d_3539_05b1_111a,
                0x2dc8_4d14_2540_1e96,
                0xa75a_4950_7165_f2e9,
                0xe8a7_3cbf_0554_05d1,
                0x9297_6800_d32c_7b3e,
                0xd5d7_7fa2_ff2c_30f2,
                0x8db9_ffe5_9177_525a,
            ]
        );
    }

    /// The first eight draws of every sampler at seed 2001, captured the
    /// same way. Floats are compared by bit pattern.
    #[test]
    fn sampler_streams_are_pinned() {
        assert_eq!(
            draws(2001, |r| r.f64().to_bits()),
            [
                0x3fdd_835c_24b7_5d80,
                0x3fc5_be9a_9c82_d888,
                0x3fc6_e426_8a12_a00c,
                0x3fe4_eb49_2a0e_2cbe,
                0x3fed_14e7_97e0_aa80,
                0x3fe2_52ed_001a_658f,
                0x3fea_baef_f45f_e586,
                0x3fe1_b73f_fcb2_2eea,
            ]
        );
        assert_eq!(draws(2001, |r| r.below(7)), [3, 1, 1, 4, 6, 4, 5, 3]);
        assert_eq!(draws(2001, |r| r.range(3..=9)), [6, 4, 4, 7, 9, 7, 8, 6]);
        assert_eq!(
            draws(2001, |r| r.uniform(0.5..2.5).to_bits()),
            [
                0x3ff6_c1ae_125b_aec0,
                0x3fea_df4d_4e41_6c44,
                0x3feb_7213_4509_5006,
                0x3ffc_eb49_2a0e_2cbe,
                0x4002_8a73_cbf0_5540,
                0x3ffa_52ed_001a_658f,
                0x4001_5d77_fa2f_f2c3,
                0x3ff9_b73f_fcb2_2eea,
            ]
        );
        assert_eq!(
            draws(2001, |r| r.bool(0.25)),
            [false, true, true, false, false, false, false, false]
        );
        assert_eq!(
            draws(2001, |r| *r.choose(&[10, 20, 30, 40, 50]).unwrap()),
            [30, 10, 10, 40, 50, 30, 50, 30]
        );
        let zipf = Zipf::new(1000, 1.07).unwrap();
        assert_eq!(
            draws(2001, |r| zipf.sample(r)),
            [19, 205, 190, 5, 1, 9, 10, 6]
        );
        let lognormal = LogNormal::new(0.3, 0.5).unwrap();
        assert_eq!(
            draws(2001, |r| lognormal.sample(r).to_bits()),
            [
                0x3ffc_3e06_4e28_70e6,
                0x3ff2_1124_cca9_2aac,
                0x3fe0_2cbb_32f4_3c46,
                0x3fe1_a09a_be7b_fcb4,
                0x4004_9aae_03a3_15bc,
                0x3fea_8098_30ec_e7f2,
                0x3fed_833b_82a0_3bb5,
                0x3ff5_296d_685d_094c,
            ]
        );
    }

    #[test]
    fn hashes_are_pinned_and_mix_is_splitmix_of_the_folded_triple() {
        // Vigna's reference stream for state 0 starts with this value.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix(0, 0, 0), splitmix64(0));
        assert_ne!(mix(7, 1, 2), mix(7, 2, 1));
        assert_eq!(unit_f64(u64::MAX), 1.0 - f64::EPSILON / 2.0);
        assert_eq!(unit_f64(0), 0.0);
    }

    #[test]
    fn ranges_hold_and_edges_are_handled() {
        let mut rng = Rng::new(42);
        for _ in 0..1000 {
            assert!(rng.below(9) < 9);
            assert!((3..=5).contains(&rng.range(3..=5)));
            assert!((0.5..1.5).contains(&rng.uniform(0.5..1.5)));
        }
        assert_eq!(rng.range(4..=4), 4);
        let _ = rng.range(0..=u64::MAX);
        assert!(rng.choose::<u8>(&[]).is_none());
    }

    #[test]
    fn draws_are_roughly_uniform() {
        let mut rng = Rng::new(7);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let hits = (0..n).filter(|_| rng.bool(0.25)).count();
        assert!((hits as f64 / n as f64 - 0.25).abs() < 0.01);
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[rng.below(5)] += 1;
        }
        assert!(counts
            .iter()
            .all(|&c| (c as f64 / n as f64 - 0.2).abs() < 0.01));
    }

    #[test]
    fn zipf_frequencies_follow_the_power_law() {
        let mut rng = Rng::new(11);
        let z = Zipf::new(1000, 1.07).unwrap();
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            let k = z.sample(&mut rng);
            assert!((1..=1000).contains(&k));
            if k <= 4 {
                counts[k as usize - 1] += 1;
            }
        }
        for k in 2..=4usize {
            let want = (k as f64).powf(-1.07);
            let got = counts[k - 1] as f64 / counts[0] as f64;
            assert!((got - want).abs() < 0.02, "rank {k}: {got} vs {want}");
        }
        assert!(Zipf::new(0, 1.0).is_none());
        assert!(Zipf::new(10, -1.0).is_none());
        assert!(Zipf::new(10, f64::NAN).is_none());
        assert_eq!(Zipf::new(1, 1.0).unwrap().sample(&mut Rng::new(1)), 1);
    }

    #[test]
    fn lognormal_has_the_requested_mean() {
        let mut rng = Rng::new(5);
        let (mu, sigma) = (0.3f64, 0.5f64);
        let d = LogNormal::new(mu, sigma).unwrap();
        let n = 200_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        let want = (mu + sigma * sigma / 2.0).exp();
        assert!((mean - want).abs() / want < 0.01, "{mean} vs {want}");
        assert!(LogNormal::new(0.0, -1.0).is_none());
        assert!(LogNormal::new(f64::NAN, 1.0).is_none());
    }
}

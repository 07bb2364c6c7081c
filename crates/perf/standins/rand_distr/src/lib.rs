//! Offline stand-in for `rand_distr` 0.4 (see `crates/perf/README.md`):
//! the two distributions the workspace samples, `Zipf` (corpus word
//! ranks) and `LogNormal` (simulated service demands).

use rand::{Rng, RngCore};
use std::fmt;
use std::marker::PhantomData;

/// Something that can be sampled with a generator.
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// A parameter outside the distribution's domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamError(&'static str);

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for ParamError {}

/// Error type of [`Zipf::new`].
pub type ZipfError = ParamError;
/// Error type of [`LogNormal::new`].
pub type NormalError = ParamError;

/// Zipf over ranks `1..=n` with exponent `s`: P(k) ∝ k^-s. Samples are
/// integral ranks returned as `F`, as in rand_distr.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf<F> {
    n: f64,
    s: f64,
    /// H(1.5) - 1, the lower end of the inversion interval.
    h_x0: f64,
    /// H(n + 0.5), the upper end.
    h_n: f64,
    _f: PhantomData<F>,
}

impl Zipf<f64> {
    /// `n >= 1` ranks, exponent `s >= 0`.
    pub fn new(n: u64, s: f64) -> Result<Zipf<f64>, ZipfError> {
        if n < 1 {
            return Err(ParamError("Zipf: n must be at least 1"));
        }
        if !(s >= 0.0) {
            return Err(ParamError("Zipf: s must be non-negative"));
        }
        let mut z = Zipf {
            n: n as f64,
            s,
            h_x0: 0.0,
            h_n: 0.0,
            _f: PhantomData,
        };
        z.h_x0 = z.h(1.5) - 1.0;
        z.h_n = z.h(z.n + 0.5);
        Ok(z)
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
}

impl Distribution<f64> for Zipf<f64> {
    /// Rejection-inversion (Hörmann & Derflinger 1996): exact, O(1) expected.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let u = self.h_n + rng.gen::<f64>() * (self.h_x0 - self.h_n);
            let x = self.h_inv(u);
            let k = x.round().clamp(1.0, self.n);
            if k - x <= 0.0 || u >= self.h(k + 0.5) - k.powf(-self.s) {
                return k;
            }
        }
    }
}

/// `exp(N(mu, sigma²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal<F> {
    mu: f64,
    sigma: f64,
    _f: PhantomData<F>,
}

impl LogNormal<f64> {
    /// Location `mu` and scale `sigma >= 0` of the underlying normal.
    pub fn new(mu: f64, sigma: f64) -> Result<LogNormal<f64>, NormalError> {
        if !(sigma >= 0.0) || !sigma.is_finite() || !mu.is_finite() {
            return Err(ParamError(
                "LogNormal: sigma must be finite and non-negative",
            ));
        }
        Ok(LogNormal {
            mu,
            sigma,
            _f: PhantomData,
        })
    }
}

impl Distribution<f64> for LogNormal<f64> {
    /// One Box–Muller draw per sample (the second variate is discarded so
    /// the distribution stays stateless).
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1 = 1.0 - rng.gen::<f64>(); // (0, 1]
        let u2 = rng.gen::<f64>();
        let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.mu + self.sigma * normal).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_frequencies_follow_the_power_law() {
        let mut rng = SmallRng::seed_from_u64(11);
        let z = Zipf::new(1000, 1.07).unwrap();
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            let k = z.sample(&mut rng);
            assert!((1.0..=1000.0).contains(&k) && k.fract() == 0.0);
            if k <= 4.0 {
                counts[k as usize - 1] += 1;
            }
        }
        for k in 2..=4usize {
            let want = (k as f64).powf(-1.07);
            let got = counts[k - 1] as f64 / counts[0] as f64;
            assert!((got - want).abs() < 0.02, "rank {k}: {got} vs {want}");
        }
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, -1.0).is_err());
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(Zipf::new(1, 1.0).unwrap().sample(&mut rng), 1.0);
    }

    #[test]
    fn lognormal_has_the_requested_mean() {
        let mut rng = SmallRng::seed_from_u64(5);
        let (mu, sigma) = (0.3f64, 0.5f64);
        let d = LogNormal::new(mu, sigma).unwrap();
        let n = 200_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        let want = (mu + sigma * sigma / 2.0).exp();
        assert!((mean - want).abs() / want < 0.01, "{mean} vs {want}");
        assert!(LogNormal::new(0.0, -1.0).is_err());
    }
}

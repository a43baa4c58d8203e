//! Workload generation: object catalogs, stream arrivals, and VCR
//! behaviour, all deterministic under a seed.
//!
//! Models follow the CM-server literature the paper builds on: object
//! popularity is Zipf-distributed (video-on-demand catalogs famously
//! are), arrivals are Poisson, and interactive sessions issue occasional
//! VCR operations.

use scaddar_core::ObjectId;
use scaddar_prng::{SeededRng, SplitMix64};

/// A Zipf(`s`) sampler over ranks `0..n` via inverse-CDF table lookup.
///
/// Rank 0 is the most popular object.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` items with exponent `s` (`s = 0` is
    /// uniform; VoD catalogs are typically `0.7..=1.0`).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "empty Zipf support");
        assert!(s >= 0.0, "negative exponent");
        let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        // Guard the tail against rounding.
        if let Some(last) = weights.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf: weights }
    }

    /// Samples a rank using a uniform `u` in `[0,1)`.
    pub fn sample_with(&self, u: f64) -> usize {
        debug_assert!((0.0..1.0).contains(&u));
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("no NaN in cdf"))
        {
            Ok(i) => i + 1,
            Err(i) => i,
        }
        .min(self.cdf.len() - 1)
    }
}

/// Converts a u64 draw to a uniform f64 in `[0, 1)` (53-bit mantissa).
pub fn unit_f64(draw: u64) -> f64 {
    (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Behavioural parameters of generated sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Expected new streams per round (Poisson arrivals).
    pub arrival_rate: f64,
    /// Zipf exponent of object popularity.
    pub zipf_exponent: f64,
    /// Per-round probability a playing stream pauses.
    pub pause_probability: f64,
    /// Per-round probability a paused stream resumes.
    pub resume_probability: f64,
    /// Per-round probability a playing stream seeks to a random block.
    pub seek_probability: f64,
}

impl WorkloadConfig {
    /// An interactive workload with VCR operations.
    pub fn interactive(arrival_rate: f64) -> Self {
        WorkloadConfig {
            arrival_rate,
            zipf_exponent: 0.729, // the classic VoD measurement
            pause_probability: 0.01,
            resume_probability: 0.10,
            seek_probability: 0.005,
        }
    }
}

/// Deterministic workload generator.
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    rng: SplitMix64,
    zipf: Zipf,
    config: WorkloadConfig,
    objects: Vec<(ObjectId, u64)>,
}

/// A VCR decision for one stream this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcrAction {
    /// Keep doing whatever it was doing.
    None,
    /// Pause.
    Pause,
    /// Resume.
    Resume,
    /// Seek to this block.
    Seek(u64),
}

impl WorkloadGen {
    /// Creates a generator over a catalog of `(object, blocks)` with
    /// rank order = popularity order.
    pub fn new(seed: u64, config: WorkloadConfig, objects: Vec<(ObjectId, u64)>) -> Self {
        assert!(!objects.is_empty(), "workload needs a catalog");
        WorkloadGen {
            rng: SplitMix64::from_seed(seed),
            zipf: Zipf::new(objects.len(), config.zipf_exponent),
            config,
            objects,
        }
    }

    fn uniform(&mut self) -> f64 {
        unit_f64(self.rng.next_u64())
    }

    /// Number of stream arrivals this round (Poisson via Knuth's
    /// product method; rates here are small).
    pub fn arrivals(&mut self) -> u32 {
        let l = (-self.config.arrival_rate).exp();
        let mut k = 0u32;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                // Rate so high the simulation parameters are nonsense.
                panic!("arrival rate too large for the Poisson sampler");
            }
        }
    }

    /// Picks the object for a new stream by Zipf popularity.
    pub fn pick_object(&mut self) -> (ObjectId, u64) {
        let u = self.uniform();
        self.objects[self.zipf.sample_with(u)]
    }

    /// The VCR decision for a stream this round.
    pub fn vcr_action(&mut self, playing: bool, object_blocks: u64) -> VcrAction {
        let u = self.uniform();
        if playing {
            if u < self.config.pause_probability {
                VcrAction::Pause
            } else if u < self.config.pause_probability + self.config.seek_probability {
                let target = (self.rng.next_u64()) % object_blocks.max(1);
                VcrAction::Seek(target)
            } else {
                VcrAction::None
            }
        } else if u < self.config.resume_probability {
            VcrAction::Resume
        } else {
            VcrAction::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_monotone_in_popularity() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SplitMix64::from_seed(5);
        let mut counts = vec![0u64; 100];
        for _ in 0..200_000 {
            counts[z.sample_with(unit_f64(rng.next_u64()))] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[60]);
        // Rank 0 of Zipf(1, 100): weight 1/H_100 ~ 0.1928.
        let frac = counts[0] as f64 / 200_000.0;
        assert!((frac - 0.1928).abs() < 0.01, "rank-0 frequency {frac}");
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = SplitMix64::from_seed(6);
        let mut counts = vec![0u64; 10];
        for _ in 0..100_000 {
            counts[z.sample_with(unit_f64(rng.next_u64()))] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "{counts:?}");
        }
    }

    #[test]
    fn poisson_mean_is_calibrated() {
        let objects = vec![(ObjectId(0), 100)];
        let mut gen = WorkloadGen::new(3, WorkloadConfig::interactive(2.5), objects);
        let rounds = 20_000;
        let total: u64 = (0..rounds).map(|_| u64::from(gen.arrivals())).sum();
        let mean = total as f64 / rounds as f64;
        assert!((mean - 2.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn vcr_actions_respect_probabilities() {
        let objects = vec![(ObjectId(0), 1000)];
        let mut gen = WorkloadGen::new(4, WorkloadConfig::interactive(1.0), objects);
        let mut pauses = 0;
        let trials = 100_000;
        for _ in 0..trials {
            if gen.vcr_action(true, 1000) == VcrAction::Pause {
                pauses += 1;
            }
        }
        let rate = f64::from(pauses) / f64::from(trials);
        assert!((rate - 0.01).abs() < 0.003, "pause rate {rate}");
    }

    #[test]
    fn generator_is_deterministic() {
        let objects = vec![(ObjectId(0), 10), (ObjectId(1), 20)];
        let run = || {
            let mut g = WorkloadGen::new(9, WorkloadConfig::interactive(1.0), objects.clone());
            (0..50)
                .map(|_| (g.arrivals(), g.pick_object().0))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}

//! Per-directed-link delay, jitter, loss, and intra-AS ECMP models.
//!
//! The simulator asks a [`DirectionProfile`] for a delay sample per packet.
//! Base propagation delay plus a jitter draw gives the paper's Fig. 4-style
//! traces; the optional ECMP lanes model the "unpredictable path diversity
//! (e.g., due to 5-tuple hashing in ECMP)" that §3 says Tango's UDP
//! encapsulation pins down.

use rand::Rng;

/// Stochastic jitter model added on top of a link's base delay.
///
/// All quantities are nanoseconds. Samples are truncated so the total
/// delay never goes below `base/2` (queues can't advance a packet in time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JitterModel {
    /// No jitter: every packet sees exactly the base delay.
    None,
    /// Zero-mean Gaussian with the given standard deviation.
    Gaussian {
        /// Standard deviation in nanoseconds.
        sigma_ns: u64,
    },
    /// Uniform in `[0, range_ns]` — models queueing on a lightly loaded hop.
    Uniform {
        /// Width of the uniform interval in nanoseconds.
        range_ns: u64,
    },
    /// Gaussian body plus occasional positive spikes — models transient
    /// congestion bursts. With probability `spike_prob` a sample gains an
    /// `Exp(mean = spike_mean_ns)` excursion, capped at `spike_cap_ns`.
    SpikeMixture {
        /// Std-dev of the Gaussian body, ns.
        sigma_ns: u64,
        /// Per-packet probability of a spike.
        spike_prob: f64,
        /// Mean spike amplitude, ns.
        spike_mean_ns: u64,
        /// Hard cap on spike amplitude, ns.
        spike_cap_ns: u64,
    },
}

impl JitterModel {
    /// Draw a signed jitter offset in nanoseconds.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        match *self {
            JitterModel::None => 0,
            JitterModel::Gaussian { sigma_ns } => (gaussian(rng) * sigma_ns as f64) as i64,
            JitterModel::Uniform { range_ns } => {
                if range_ns == 0 {
                    0
                } else {
                    rng.gen_range(0..=range_ns) as i64
                }
            }
            JitterModel::SpikeMixture {
                sigma_ns,
                spike_prob,
                spike_mean_ns,
                spike_cap_ns,
            } => {
                let mut j = (gaussian(rng) * sigma_ns as f64) as i64;
                if rng.gen_bool(spike_prob.clamp(0.0, 1.0)) {
                    let exp: f64 = -(1.0 - rng.gen::<f64>()).ln();
                    let spike = (exp * spike_mean_ns as f64) as u64;
                    j += spike.min(spike_cap_ns) as i64;
                }
                j
            }
        }
    }
}

/// Standard normal via Box-Muller (we avoid a rand_distr dependency).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// Delay/loss model for one direction of an inter-domain link.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectionProfile {
    /// Base propagation + fixed processing delay, ns.
    pub base_delay_ns: u64,
    /// Stochastic jitter on top of the base delay.
    pub jitter: JitterModel,
    /// Independent per-packet loss probability.
    pub loss_rate: f64,
    /// Intra-AS ECMP lanes: per-lane delay offsets (ns, signed). A flow's
    /// 5-tuple hash picks a lane; an empty vector means a single lane at
    /// offset 0. Tango's fixed UDP encapsulation makes every tunnel packet
    /// hash to the same lane, which is precisely why its one-way samples
    /// measure *one* path (§3).
    pub ecmp_lane_offsets_ns: Vec<i64>,
    /// Link capacity in bits per second. `None` = infinite (pure
    /// propagation delay, the default — the paper's paths are far from
    /// saturated by probe traffic). When set, packets serialize: each
    /// occupies the link for `size × 8 / capacity` and later packets
    /// queue behind it.
    pub capacity_bps: Option<u64>,
    /// Tail-drop threshold: a packet that would wait longer than this in
    /// the queue is dropped. Only meaningful with `capacity_bps`.
    pub max_queue_ns: u64,
}

impl DirectionProfile {
    /// A constant-delay, lossless profile.
    pub fn constant(base_delay_ns: u64) -> Self {
        DirectionProfile {
            base_delay_ns,
            jitter: JitterModel::None,
            loss_rate: 0.0,
            ecmp_lane_offsets_ns: Vec::new(),
            capacity_bps: None,
            max_queue_ns: u64::MAX,
        }
    }

    /// Builder: set the jitter model.
    pub fn with_jitter(mut self, jitter: JitterModel) -> Self {
        self.jitter = jitter;
        self
    }

    /// Builder: set the loss rate.
    pub fn with_loss(mut self, loss_rate: f64) -> Self {
        self.loss_rate = loss_rate;
        self
    }

    /// Builder: set ECMP lanes.
    pub fn with_ecmp_lanes(mut self, offsets_ns: Vec<i64>) -> Self {
        self.ecmp_lane_offsets_ns = offsets_ns;
        self
    }

    /// Builder: give the link finite capacity and a tail-drop queue cap.
    pub fn with_capacity(mut self, capacity_bps: u64, max_queue_ns: u64) -> Self {
        assert!(capacity_bps > 0, "capacity must be positive");
        self.capacity_bps = Some(capacity_bps);
        self.max_queue_ns = max_queue_ns;
        self
    }

    /// Serialization (transmission) time for a packet of `bytes` bytes,
    /// ns. Zero on infinite-capacity links.
    pub fn tx_time_ns(&self, bytes: usize) -> u64 {
        match self.capacity_bps {
            None => 0,
            Some(bps) => (bytes as u128 * 8 * 1_000_000_000 / bps as u128) as u64,
        }
    }

    /// The delay offset of lane `hash % lanes` (0 when no lanes are
    /// configured).
    pub fn lane_offset(&self, flow_hash: u64) -> i64 {
        let lanes = self.ecmp_lane_offsets_ns.len() as u64;
        let idx = (flow_hash % lanes.max(1)) as usize;
        self.ecmp_lane_offsets_ns.get(idx).copied().unwrap_or(0)
    }

    /// Sample the one-way delay for a packet with the given flow hash,
    /// including base, lane offset, jitter, and any extra event-driven
    /// shift the caller accumulated (see `events`). Clamped below at
    /// `base/2` so pathological negative jitter can't time-travel.
    pub fn sample_delay<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        flow_hash: u64,
        extra_shift_ns: i64,
    ) -> u64 {
        let base = self.base_delay_ns as i64;
        let d = base + self.lane_offset(flow_hash) + self.jitter.sample(rng) + extra_shift_ns;
        d.max(base / 2) as u64
    }

    /// A hard lower bound on [`DirectionProfile::sample_delay`]: the
    /// `base/2` clamp floor (lane offsets and jitter can be negative, but
    /// the clamp wins; queueing on capacity links only *adds* delay).
    ///
    /// The sharded simulator uses the minimum of this bound over all
    /// cross-shard links as its conservative-synchronization lookahead, so
    /// it must never exceed what `sample_delay` can actually return.
    pub fn min_delay_ns(&self) -> u64 {
        (self.base_delay_ns as i64 / 2) as u64
    }

    /// Decide whether this packet is lost on this hop.
    pub fn sample_loss<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.loss_rate > 0.0 && rng.gen_bool(self.loss_rate.clamp(0.0, 1.0))
    }
}

/// A bidirectional inter-domain link: one profile per direction.
///
/// Directions are named relative to the canonical endpoint order the
/// topology stores for the edge (`a` → `b` is `forward`).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkProfile {
    /// Profile for the canonical a→b direction.
    pub forward: DirectionProfile,
    /// Profile for the b→a direction.
    pub reverse: DirectionProfile,
}

impl LinkProfile {
    /// A symmetric link with the same profile both ways.
    pub fn symmetric(profile: DirectionProfile) -> Self {
        LinkProfile {
            forward: profile.clone(),
            reverse: profile,
        }
    }

    /// An asymmetric link.
    pub fn asymmetric(forward: DirectionProfile, reverse: DirectionProfile) -> Self {
        LinkProfile { forward, reverse }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn constant_profile_is_deterministic() {
        let p = DirectionProfile::constant(1_000_000);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(p.sample_delay(&mut r, 0, 0), 1_000_000);
            assert!(!p.sample_loss(&mut r));
        }
    }

    #[test]
    fn gaussian_jitter_statistics() {
        let sigma = 100_000u64; // 100 µs
        let p = DirectionProfile::constant(10_000_000)
            .with_jitter(JitterModel::Gaussian { sigma_ns: sigma });
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| p.sample_delay(&mut r, 0, 0) as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        let std = var.sqrt();
        assert!((mean - 10_000_000.0).abs() < 3_000.0, "mean {mean}");
        assert!(
            (std - sigma as f64).abs() < sigma as f64 * 0.05,
            "std {std}"
        );
    }

    #[test]
    fn uniform_jitter_bounds() {
        let p =
            DirectionProfile::constant(1_000).with_jitter(JitterModel::Uniform { range_ns: 500 });
        let mut r = rng();
        for _ in 0..1_000 {
            let d = p.sample_delay(&mut r, 0, 0);
            assert!((1_000..=1_500).contains(&d), "delay {d}");
        }
    }

    #[test]
    fn spike_mixture_produces_capped_spikes() {
        let p = DirectionProfile::constant(28_000_000).with_jitter(JitterModel::SpikeMixture {
            sigma_ns: 10_000,
            spike_prob: 0.3,
            spike_mean_ns: 20_000_000,
            spike_cap_ns: 50_000_000,
        });
        let mut r = rng();
        let samples: Vec<u64> = (0..10_000).map(|_| p.sample_delay(&mut r, 0, 0)).collect();
        let max = *samples.iter().max().unwrap();
        // Cap: base + sigma tail + 50ms spike cap.
        assert!(max <= 28_000_000 + 50_000_000 + 100_000, "max {max}");
        assert!(
            max > 50_000_000,
            "expected spikes above 50 ms total, max {max}"
        );
        let spiked = samples.iter().filter(|&&s| s > 30_000_000).count();
        assert!(spiked > 1_000, "expected ~30% spikes, got {spiked}");
    }

    #[test]
    fn negative_shift_clamps_at_half_base() {
        let p = DirectionProfile::constant(1_000_000);
        let mut r = rng();
        assert_eq!(p.sample_delay(&mut r, 0, -10_000_000), 500_000);
    }

    #[test]
    fn event_shift_adds() {
        let p = DirectionProfile::constant(28_000_000);
        let mut r = rng();
        assert_eq!(p.sample_delay(&mut r, 0, 5_000_000), 33_000_000);
    }

    #[test]
    fn ecmp_lane_selection_is_hash_stable() {
        let p = DirectionProfile::constant(10_000_000).with_ecmp_lanes(vec![0, 250_000, 500_000]);
        let mut r = rng();
        // Same hash -> same lane -> identical delay for a constant profile.
        let d1 = p.sample_delay(&mut r, 42, 0);
        let d2 = p.sample_delay(&mut r, 42, 0);
        assert_eq!(d1, d2);
        // Different hashes cover different lanes.
        let lanes: std::collections::BTreeSet<u64> =
            (0..30).map(|h| p.sample_delay(&mut r, h, 0)).collect();
        assert_eq!(lanes.len(), 3);
    }

    #[test]
    fn min_delay_bounds_every_sample() {
        // Aggressive negative lanes + jitter: samples still respect the
        // documented floor, so the sharding lookahead is genuinely safe.
        let p = DirectionProfile::constant(1_000_000)
            .with_ecmp_lanes(vec![-900_000, 0, 900_000])
            .with_jitter(JitterModel::Gaussian { sigma_ns: 500_000 });
        assert_eq!(p.min_delay_ns(), 500_000);
        let mut r = rng();
        for h in 0..5_000u64 {
            assert!(p.sample_delay(&mut r, h, -300_000) >= p.min_delay_ns());
        }
    }

    #[test]
    fn loss_rate_statistics() {
        let p = DirectionProfile::constant(1).with_loss(0.1);
        let mut r = rng();
        let lost = (0..50_000).filter(|_| p.sample_loss(&mut r)).count();
        let rate = lost as f64 / 50_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn tx_time_scales_with_size_and_capacity() {
        let p = DirectionProfile::constant(1).with_capacity(100_000_000, 1_000_000);
        // 1250 B at 100 Mbit/s = 100 µs.
        assert_eq!(p.tx_time_ns(1250), 100_000);
        assert_eq!(p.tx_time_ns(0), 0);
        let infinite = DirectionProfile::constant(1);
        assert_eq!(infinite.tx_time_ns(1_000_000), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        DirectionProfile::constant(1).with_capacity(0, 1);
    }

    #[test]
    fn symmetric_link_mirrors_profile() {
        let p = DirectionProfile::constant(123);
        let l = LinkProfile::symmetric(p.clone());
        assert_eq!(l.forward, p);
        assert_eq!(l.reverse, p);
    }
}

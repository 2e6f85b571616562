//! Deterministic scripted channel impairments ("faults").
//!
//! This module is the shared vocabulary of the fault-injection layer: the
//! six fault classes, the per-class activation counters surfaced in
//! metrics, and the per-frame injection engine ([`FrameFaults`]) that the
//! link simulator polls once per sample. Scheduling — which faults land in
//! which frame — lives upstream in `fdb_sim::faults::FaultPlan`; this
//! module only knows sample offsets within one frame.
//!
//! Determinism is the whole point. Every stochastic fault (burst noise)
//! draws from its own [`FaultRng`], a splitmix64 generator owned by the
//! frame's [`FrameFaults`], never from the link's shared frame RNG. Two
//! consequences:
//!
//! * identical `(plan, seed)` inputs reproduce the impairment waveform
//!   bit-for-bit, on any platform;
//! * the main RNG stream (ambient symbols, AWGN, fading) is untouched by
//!   fault activity, so a fault's influence is confined to the samples it
//!   actually corrupts.
//!
//! Scaling a burst's power moves only the amplitude multiplier, not the
//! underlying unit-variance draws, so a power ladder over one seed yields
//! *pointwise proportional* noise realisations — the property the
//! graceful-degradation conformance check relies on.

use fdb_dsp::sample::{db_to_lin, dbm_to_watts};
use fdb_dsp::Iq;
use serde::{Deserialize, Serialize};

/// Which device a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FaultTarget {
    /// Device A (data transmitter / feedback receiver).
    A,
    /// Device B (data receiver / feedback transmitter).
    B,
    /// Both devices.
    #[default]
    Both,
}

impl FaultTarget {
    /// `true` when the fault applies to device A.
    pub fn hits_a(&self) -> bool {
        matches!(self, FaultTarget::A | FaultTarget::Both)
    }

    /// `true` when the fault applies to device B.
    pub fn hits_b(&self) -> bool {
        matches!(self, FaultTarget::B | FaultTarget::Both)
    }
}

/// One impairment class with its parameters. The window (start/duration)
/// lives on the schedule entry, not here, so one kind can be reused at
/// several offsets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Additive complex Gaussian burst of the given total power at the
    /// target antenna(s), on top of the configured field noise.
    NoiseBurst {
        /// Burst noise power (dBm) at the antenna.
        power_dbm: f64,
        /// Afflicted device(s).
        #[serde(default)]
        target: FaultTarget,
    },
    /// ADC/detector dropout: the target device's envelope samples read
    /// zero for the window.
    Dropout {
        /// Afflicted device(s).
        #[serde(default)]
        target: FaultTarget,
    },
    /// Clock-drift ramp on B's bit-clock oscillator: the consumer-clock
    /// error ramps linearly from 0 to `ppm` over the window, then snaps
    /// back (a thermal transient).
    ClockDrift {
        /// Peak additional clock error, parts per million.
        ppm: f64,
    },
    /// SIC gain misestimation step: while the target device's own antenna
    /// reflects, its cancelled output is scaled by this error (the
    /// canceller divided by the wrong pass fraction).
    SicGain {
        /// Gain error applied to the corrected envelope (dB, power).
        gain_db: f64,
        /// Afflicted device(s).
        #[serde(default)]
        target: FaultTarget,
    },
    /// Ambient-source fade: the source amplitude drops by `depth_db`
    /// (power) for the window. Hits every path — the source is shared.
    AmbientFade {
        /// Fade depth in dB (positive = attenuation).
        depth_db: f64,
    },
    /// Deterministic square-wave interferer received at both devices:
    /// alternates on/off every `period_samples / 2` samples. A chip-rate
    /// period forges data-like transitions — the collision stressor for
    /// the acquisition stage.
    Interferer {
        /// Received interferer power while on (dBm).
        power_dbm: f64,
        /// Full on+off period in samples (≥ 2).
        period_samples: usize,
    },
}

impl FaultKind {
    /// Stable class label, used for trace events and reporting:
    /// `"noise_burst"`, `"dropout"`, `"clock_drift"`, `"sic_gain"`,
    /// `"ambient_fade"` or `"interferer"`.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::NoiseBurst { .. } => "noise_burst",
            FaultKind::Dropout { .. } => "dropout",
            FaultKind::ClockDrift { .. } => "clock_drift",
            FaultKind::SicGain { .. } => "sic_gain",
            FaultKind::AmbientFade { .. } => "ambient_fade",
            FaultKind::Interferer { .. } => "interferer",
        }
    }

    /// Validates the parameters, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        let finite = |v: f64, name: &str| -> Result<(), String> {
            if v.is_finite() {
                Ok(())
            } else {
                Err(format!("{}: {name} must be finite (got {v})", self.label()))
            }
        };
        match *self {
            FaultKind::NoiseBurst { power_dbm, .. } => {
                finite(power_dbm, "power_dbm")?;
                if power_dbm > 60.0 {
                    return Err(format!("noise_burst: power_dbm {power_dbm} exceeds 60 dBm"));
                }
            }
            FaultKind::Dropout { .. } => {}
            FaultKind::ClockDrift { ppm } => {
                finite(ppm, "ppm")?;
                if ppm.abs() > 100_000.0 {
                    return Err(format!("clock_drift: |ppm| {ppm} exceeds 100000"));
                }
            }
            FaultKind::SicGain { gain_db, .. } => {
                finite(gain_db, "gain_db")?;
                if gain_db.abs() > 40.0 {
                    return Err(format!("sic_gain: |gain_db| {gain_db} exceeds 40 dB"));
                }
            }
            FaultKind::AmbientFade { depth_db } => {
                finite(depth_db, "depth_db")?;
                if depth_db < 0.0 {
                    return Err(format!("ambient_fade: depth_db {depth_db} must be ≥ 0"));
                }
            }
            FaultKind::Interferer {
                power_dbm,
                period_samples,
            } => {
                finite(power_dbm, "power_dbm")?;
                if power_dbm > 60.0 {
                    return Err(format!("interferer: power_dbm {power_dbm} exceeds 60 dBm"));
                }
                if period_samples < 2 {
                    return Err(format!(
                        "interferer: period_samples {period_samples} must be ≥ 2"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Per-class fault activation counters. One activation = one scheduled
/// fault whose window was actually entered during a frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultActivations {
    /// Noise bursts activated.
    #[serde(default)]
    pub noise_burst: u64,
    /// Dropouts activated.
    #[serde(default)]
    pub dropout: u64,
    /// Clock-drift ramps activated.
    #[serde(default)]
    pub clock_drift: u64,
    /// SIC gain steps activated.
    #[serde(default)]
    pub sic_gain: u64,
    /// Ambient fades activated.
    #[serde(default)]
    pub ambient_fade: u64,
    /// Interferer bursts activated.
    #[serde(default)]
    pub interferer: u64,
}

impl FaultActivations {
    /// Total activations across every class.
    pub fn total(&self) -> u64 {
        self.noise_burst
            + self.dropout
            + self.clock_drift
            + self.sic_gain
            + self.ambient_fade
            + self.interferer
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &FaultActivations) {
        self.noise_burst += other.noise_burst;
        self.dropout += other.dropout;
        self.clock_drift += other.clock_drift;
        self.sic_gain += other.sic_gain;
        self.ambient_fade += other.ambient_fade;
        self.interferer += other.interferer;
    }

    fn bump(&mut self, kind: &FaultKind) {
        match kind {
            FaultKind::NoiseBurst { .. } => self.noise_burst += 1,
            FaultKind::Dropout { .. } => self.dropout += 1,
            FaultKind::ClockDrift { .. } => self.clock_drift += 1,
            FaultKind::SicGain { .. } => self.sic_gain += 1,
            FaultKind::AmbientFade { .. } => self.ambient_fade += 1,
            FaultKind::Interferer { .. } => self.interferer += 1,
        }
    }
}

/// One fault scheduled inside a single frame, in link-clock samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// First afflicted sample.
    pub start: usize,
    /// Window length in samples (≥ 1).
    pub duration: usize,
    /// What happens during the window.
    pub kind: FaultKind,
}

impl ScheduledFault {
    /// `true` while `t` lies inside the fault window.
    pub fn active_at(&self, t: usize) -> bool {
        t >= self.start && t - self.start < self.duration
    }
}

/// The aggregate impairment the link applies at one sample. Neutral values
/// (unity scales, zero additions, no drops) mean "no fault here".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEffects {
    /// Multiplier on the ambient source amplitude.
    pub source_scale: f64,
    /// Additive field at device A's antenna (interferer + burst noise).
    pub field_a: Iq,
    /// Additive field at device B's antenna.
    pub field_b: Iq,
    /// Zero device A's detector output this sample.
    pub drop_a: bool,
    /// Zero device B's detector output this sample.
    pub drop_b: bool,
    /// Multiplier on A's SIC-corrected envelope while A reflects.
    pub sic_gain_a: f64,
    /// Multiplier on B's SIC-corrected envelope while B reflects.
    pub sic_gain_b: f64,
    /// Additional consumer-clock error on B's bit clock (ppm).
    pub ppm_offset: f64,
}

impl FaultEffects {
    /// The do-nothing effect.
    pub const NEUTRAL: FaultEffects = FaultEffects {
        source_scale: 1.0,
        field_a: Iq::ZERO,
        field_b: Iq::ZERO,
        drop_a: false,
        drop_b: false,
        sic_gain_a: 1.0,
        sic_gain_b: 1.0,
        ppm_offset: 0.0,
    };

    /// `true` when the effect changes nothing.
    pub fn is_neutral(&self) -> bool {
        *self == FaultEffects::NEUTRAL
    }
}

impl Default for FaultEffects {
    fn default() -> Self {
        FaultEffects::NEUTRAL
    }
}

/// Self-contained deterministic RNG for fault noise (splitmix64; its
/// Gaussians come from [`randcn`](crate::randcn) like every other
/// stream's). Independent from the link's stream on purpose: fault noise
/// must neither perturb nor be perturbed by the rest of the simulation.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }
}

impl rand::RngCore for FaultRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The per-frame fault injection engine.
///
/// Built once per frame (by `fdb_sim::faults::FaultPlan::frame_faults`),
/// polled once per sample by the link loop via
/// [`effects_at`](FrameFaults::effects_at). Tracks per-fault activation
/// edges for the [`FaultActivations`] tally and the trace-event stream.
#[derive(Debug, Clone)]
pub struct FrameFaults {
    faults: Vec<ScheduledFault>,
    active: Vec<bool>,
    rng: FaultRng,
    activations: FaultActivations,
    /// (class label, became-active) edges since the last drain; at most
    /// two entries per scheduled fault, so this stays tiny even when
    /// nothing drains it.
    transitions: Vec<(&'static str, bool)>,
}

impl FrameFaults {
    /// Builds the engine for one frame from its schedule and a seed for
    /// the fault-local RNG.
    pub fn new(faults: Vec<ScheduledFault>, seed: u64) -> Self {
        let n = faults.len();
        FrameFaults {
            faults,
            active: vec![false; n],
            rng: FaultRng::new(seed),
            activations: FaultActivations::default(),
            transitions: Vec::new(),
        }
    }

    /// Re-arms an existing engine in place for a new frame, retaining the
    /// schedule/activation buffer capacity (the per-frame reuse path: a
    /// runner keeps one engine per worker instead of building one per
    /// faulted frame). Behaviourally identical to `FrameFaults::new` with
    /// the same schedule and seed.
    pub fn rearm<I>(&mut self, schedule: I, seed: u64)
    where
        I: IntoIterator<Item = ScheduledFault>,
    {
        self.faults.clear();
        self.faults.extend(schedule);
        self.active.clear();
        self.active.resize(self.faults.len(), false);
        self.rng = FaultRng::new(seed);
        self.activations = FaultActivations::default();
        self.transitions.clear();
    }

    /// `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled faults.
    pub fn schedule(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// Activation tally so far.
    pub fn activations(&self) -> FaultActivations {
        self.activations
    }

    /// Drains the (label, became-active) edges recorded since the last
    /// call — the link's trace layer turns these into events. Keeps the
    /// buffer's capacity (unlike a `mem::take`), so steady-state draining
    /// never reallocates.
    pub fn drain_transitions(&mut self) -> std::vec::Drain<'_, (&'static str, bool)> {
        self.transitions.drain(..)
    }

    /// `true` when any scheduled fault window covers sample `t`. Pure
    /// schedule lookup — consumes no RNG and records no edges, so a block
    /// pipeline may probe ahead without perturbing the deterministic
    /// contract of [`effects_at`](FrameFaults::effects_at).
    pub fn any_active_at(&self, t: usize) -> bool {
        self.faults.iter().any(|f| f.active_at(t))
    }

    /// The next sample strictly after `t` at which any fault window opens
    /// or closes (`None` once every window lies in the past). Between two
    /// consecutive boundaries the set of active faults is constant, which
    /// is what lets a block pipeline treat fault edges as block splits.
    pub fn next_boundary_after(&self, t: usize) -> Option<usize> {
        let mut next: Option<usize> = None;
        for f in &self.faults {
            let end = f.start.saturating_add(f.duration);
            for b in [f.start, end] {
                if b > t {
                    next = Some(next.map_or(b, |n| n.min(b)));
                }
            }
        }
        next
    }

    /// Computes the aggregate impairment for sample `t`. Must be called
    /// with non-decreasing `t` within a frame (the RNG consumption order
    /// is part of the deterministic contract).
    pub fn effects_at(&mut self, t: usize) -> FaultEffects {
        let mut fx = FaultEffects::NEUTRAL;
        for i in 0..self.faults.len() {
            let f = self.faults[i];
            let active = f.active_at(t);
            if active != self.active[i] {
                self.active[i] = active;
                self.transitions.push((f.kind.label(), active));
                if active {
                    self.activations.bump(&f.kind);
                }
            }
            if !active {
                continue;
            }
            match f.kind {
                FaultKind::NoiseBurst { power_dbm, target } => {
                    // Unit draws scaled by amplitude: a power ladder over
                    // one seed reuses the same noise shape, only louder.
                    let var = dbm_to_watts(power_dbm);
                    if target.hits_a() {
                        fx.field_a += crate::randcn(&mut self.rng, var);
                    }
                    if target.hits_b() {
                        fx.field_b += crate::randcn(&mut self.rng, var);
                    }
                }
                FaultKind::Dropout { target } => {
                    fx.drop_a |= target.hits_a();
                    fx.drop_b |= target.hits_b();
                }
                FaultKind::ClockDrift { ppm } => {
                    let frac = (t - f.start) as f64 / f.duration.max(1) as f64;
                    fx.ppm_offset += ppm * frac;
                }
                FaultKind::SicGain { gain_db, target } => {
                    let g = db_to_lin(gain_db);
                    if target.hits_a() {
                        fx.sic_gain_a *= g;
                    }
                    if target.hits_b() {
                        fx.sic_gain_b *= g;
                    }
                }
                FaultKind::AmbientFade { depth_db } => {
                    // Amplitude scale for a power fade of depth_db.
                    fx.source_scale *= db_to_lin(-depth_db).sqrt();
                }
                FaultKind::Interferer {
                    power_dbm,
                    period_samples,
                } => {
                    let half = (period_samples / 2).max(1);
                    if ((t - f.start) / half).is_multiple_of(2) {
                        let amp = dbm_to_watts(power_dbm).sqrt();
                        let add = Iq::new(amp, 0.0);
                        fx.field_a += add;
                        fx.field_b += add;
                    }
                }
            }
        }
        fx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn neutral_outside_windows() {
        let mut ff = FrameFaults::new(
            vec![ScheduledFault {
                start: 10,
                duration: 5,
                kind: FaultKind::Dropout {
                    target: FaultTarget::B,
                },
            }],
            1,
        );
        assert!(ff.effects_at(9).is_neutral());
        let fx = ff.effects_at(10);
        assert!(fx.drop_b && !fx.drop_a);
        assert!(ff.effects_at(15).is_neutral());
        assert_eq!(ff.activations().dropout, 1);
        assert_eq!(ff.activations().total(), 1);
    }

    #[test]
    fn boundary_probes_match_window_edges() {
        let ff = FrameFaults::new(
            vec![
                ScheduledFault {
                    start: 10,
                    duration: 5,
                    kind: FaultKind::AmbientFade { depth_db: 3.0 },
                },
                ScheduledFault {
                    start: 12,
                    duration: 10,
                    kind: FaultKind::ClockDrift { ppm: 100.0 },
                },
            ],
            1,
        );
        assert_eq!(ff.next_boundary_after(0), Some(10));
        assert_eq!(ff.next_boundary_after(10), Some(12));
        assert_eq!(ff.next_boundary_after(12), Some(15));
        assert_eq!(ff.next_boundary_after(15), Some(22));
        assert_eq!(ff.next_boundary_after(22), None);
        assert!(!ff.any_active_at(9));
        assert!(ff.any_active_at(10) && ff.any_active_at(14));
        assert!(ff.any_active_at(21));
        assert!(!ff.any_active_at(22));
        // Between consecutive boundaries the active set is constant.
        for t in 15..22 {
            assert!(ff.any_active_at(t));
        }
    }

    #[test]
    fn transitions_record_edges_once() {
        let mut ff = FrameFaults::new(
            vec![ScheduledFault {
                start: 2,
                duration: 3,
                kind: FaultKind::AmbientFade { depth_db: 10.0 },
            }],
            7,
        );
        for t in 0..8 {
            ff.effects_at(t);
        }
        let edges: Vec<_> = ff.drain_transitions().collect();
        assert_eq!(edges, vec![("ambient_fade", true), ("ambient_fade", false)]);
        assert_eq!(ff.drain_transitions().count(), 0, "drained");
        // A re-armed engine replays the same edges from a clean slate.
        ff.rearm(
            std::iter::once(ScheduledFault {
                start: 2,
                duration: 3,
                kind: FaultKind::AmbientFade { depth_db: 10.0 },
            }),
            7,
        );
        for t in 0..8 {
            ff.effects_at(t);
        }
        let replay: Vec<_> = ff.drain_transitions().collect();
        assert_eq!(replay, edges);
    }

    #[test]
    fn noise_burst_scales_pointwise_with_power() {
        // Same seed + window, +10 dB power: each sample's draw scales by
        // exactly sqrt(10) — the graceful-degradation monotonicity anchor.
        let mk = |dbm: f64| {
            FrameFaults::new(
                vec![ScheduledFault {
                    start: 0,
                    duration: 16,
                    kind: FaultKind::NoiseBurst {
                        power_dbm: dbm,
                        target: FaultTarget::B,
                    },
                }],
                99,
            )
        };
        let (mut lo, mut hi) = (mk(-90.0), mk(-80.0));
        let k = 10f64.sqrt();
        for t in 0..16 {
            let a = lo.effects_at(t).field_b;
            let b = hi.effects_at(t).field_b;
            assert!((b.re - k * a.re).abs() < 1e-12 * k.max(1.0));
            assert!((b.im - k * a.im).abs() < 1e-12 * k.max(1.0));
        }
    }

    #[test]
    fn clock_drift_ramps_linearly() {
        let mut ff = FrameFaults::new(
            vec![ScheduledFault {
                start: 100,
                duration: 100,
                kind: FaultKind::ClockDrift { ppm: 500.0 },
            }],
            3,
        );
        assert_eq!(ff.effects_at(99).ppm_offset, 0.0);
        assert_eq!(ff.effects_at(100).ppm_offset, 0.0);
        assert!((ff.effects_at(150).ppm_offset - 250.0).abs() < 1e-9);
        assert!((ff.effects_at(199).ppm_offset - 495.0).abs() < 1e-9);
        assert_eq!(ff.effects_at(200).ppm_offset, 0.0);
    }

    #[test]
    fn interferer_square_wave_alternates() {
        let mut ff = FrameFaults::new(
            vec![ScheduledFault {
                start: 0,
                duration: 40,
                kind: FaultKind::Interferer {
                    power_dbm: -60.0,
                    period_samples: 20,
                },
            }],
            3,
        );
        let on = ff.effects_at(0).field_a;
        assert!(on.re > 0.0);
        assert_eq!(ff.effects_at(5).field_a, on);
        assert_eq!(ff.effects_at(10).field_a, Iq::ZERO); // off half
        assert_eq!(ff.effects_at(20).field_a, on); // next period
    }

    #[test]
    fn fault_rng_is_deterministic_and_dispersed() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let unique: std::collections::HashSet<_> = xs.iter().collect();
        assert_eq!(unique.len(), 32);
        // Gaussian draws are roughly standard.
        let mut rng = FaultRng::new(5);
        let n = 20_000;
        let (mut mean, mut var) = (0.0, 0.0);
        for _ in 0..n {
            let g = crate::randcn(&mut rng, 2.0);
            mean += g.re + g.im;
            var += g.norm_sq();
        }
        mean /= (2 * n) as f64;
        var = var / (2 * n) as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn kinds_validate_and_round_trip() {
        let kinds = [
            FaultKind::NoiseBurst {
                power_dbm: -70.0,
                target: FaultTarget::Both,
            },
            FaultKind::Dropout {
                target: FaultTarget::A,
            },
            FaultKind::ClockDrift { ppm: -800.0 },
            FaultKind::SicGain {
                gain_db: 3.0,
                target: FaultTarget::B,
            },
            FaultKind::AmbientFade { depth_db: 12.0 },
            FaultKind::Interferer {
                power_dbm: -65.0,
                period_samples: 20,
            },
        ];
        for kind in &kinds {
            kind.validate().unwrap();
            let json = serde_json::to_string(kind).unwrap();
            let back: FaultKind = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, kind, "{json}");
        }
        assert!(FaultKind::NoiseBurst {
            power_dbm: f64::NAN,
            target: FaultTarget::Both
        }
        .validate()
        .is_err());
        assert!(FaultKind::Interferer {
            power_dbm: -60.0,
            period_samples: 1
        }
        .validate()
        .is_err());
        assert!(FaultKind::AmbientFade { depth_db: -1.0 }.validate().is_err());
        assert!(FaultKind::ClockDrift { ppm: 1e9 }.validate().is_err());
    }

    #[test]
    fn activations_merge_sums() {
        let mut a = FaultActivations {
            noise_burst: 1,
            interferer: 2,
            ..Default::default()
        };
        let b = FaultActivations {
            noise_burst: 3,
            clock_drift: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.noise_burst, 4);
        assert_eq!(a.clock_drift, 1);
        assert_eq!(a.total(), 7);
        let json = serde_json::to_string(&a).unwrap();
        let back: FaultActivations = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        // Older JSON without the struct parses to zeroes.
        let empty: FaultActivations = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, FaultActivations::default());
    }
}

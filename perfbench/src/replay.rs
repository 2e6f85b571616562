//! Stage-isolated replay of one link frame: the per-layer ledger.
//!
//! A timer read costs about as much as one stage's work on one sample, so
//! the stages cannot be timed inside the frame loop. Instead:
//!
//! * **Pass 1** ([`Replica::run_frame`]) drives the frame through the same
//!   public stage calls, in the same order, as `FdLink::run_frame`'s
//!   per-sample reference loop (clean frames: no fault schedule, no trace
//!   sink), and records every stage's per-sample inputs on a [`Tape`]. Its
//!   outcome must match the real `run_frame` of the same seed — samples
//!   run, block CRC results, feedback bits — or the ledger is invalid.
//! * **Pass 2** ([`time_stages`]) runs each stage alone over its recorded
//!   inputs, one timer span per stage per frame.
//!
//! Stages that draw randomness (ambient, AWGN, detector) replay with a
//! clone of the frame's starting generator: they make the same number of
//! draws from the same distributions, not the same values.

use std::hint::black_box;
use std::time::Instant;

use fdb_ambient::Ambient;
use fdb_channel::awgn::Awgn;
use fdb_channel::link::Hop;
use fdb_core::feedback::{FeedbackDecoder, FeedbackEncoder};
use fdb_core::link::{FeedbackPolicy, FrameOutcome, LinkConfig, RunOptions};
use fdb_core::rx::{DataReceiver, RxState};
use fdb_core::sic::SelfInterferenceCanceller;
use fdb_core::tx::DataTransmitter;
use fdb_core::PhyError;
use fdb_device::TagHardware;
use fdb_dsp::resample::Resampler;
use fdb_dsp::sample::dbm_to_watts;
use fdb_dsp::Iq;
use rand_chacha::ChaCha8Rng;

/// The ledger's stages, in the order the frame loop calls them.
pub const STAGES: [&str; 10] = [
    "ambient",
    "channel.mix",
    "channel.awgn",
    "device.detector",
    "device.harvest",
    "tx",
    "sic",
    "resample",
    "rx",
    "feedback",
];

// Feedback-encoder operations recorded per sample.
const ENC_TICK: u8 = 1;
const ENC_SET_IDLE: u8 = 2;
const ENC_IDLE_ACK: u8 = 4;
const ENC_REARM: u8 = 8;

/// Every stage's per-sample inputs for one frame, plus the frame-start
/// state the stages replay from.
#[derive(Default)]
pub struct Tape {
    samples: usize,
    payload: Vec<u8>,
    /// Ambient power per sample (channel-mix input).
    power: Vec<f64>,
    a_state: Vec<bool>,
    b_state: Vec<bool>,
    /// Samples at which block fading advanced.
    fades: Vec<usize>,
    /// Noise-free fields at A and B (AWGN input).
    field_a: Vec<Iq>,
    field_b: Vec<Iq>,
    /// Noisy fields (detector input).
    noisy_a: Vec<Iq>,
    noisy_b: Vec<Iq>,
    /// Whether A's receive chain is powered (harvest input).
    a_listening: Vec<bool>,
    /// Envelopes (SIC input) and whether A's feedback path ran.
    env_a: Vec<f64>,
    env_b: Vec<f64>,
    a_decoding: Vec<bool>,
    /// B's corrected envelope (resampler input).
    corrected: Vec<f64>,
    /// Resampler output (receiver input).
    resampled: Vec<f64>,
    /// A's corrected envelope (feedback-decoder input).
    fb_in: Vec<f64>,
    /// Feedback-encoder operations per sample.
    enc_ops: Vec<u8>,
    abort_at: Option<usize>,
    b_base_ppm: f64,
    // Frame-start state.
    source: Option<Ambient>,
    rng: Option<ChaCha8Rng>,
    hops: Option<[Hop; 3]>,
    tags: Option<[TagHardware; 2]>,
}

impl Tape {
    fn clear(&mut self) {
        self.samples = 0;
        self.power.clear();
        self.a_state.clear();
        self.b_state.clear();
        self.fades.clear();
        self.field_a.clear();
        self.field_b.clear();
        self.noisy_a.clear();
        self.noisy_b.clear();
        self.a_listening.clear();
        self.env_a.clear();
        self.env_b.clear();
        self.a_decoding.clear();
        self.corrected.clear();
        self.resampled.clear();
        self.fb_in.clear();
        self.enc_ops.clear();
        self.abort_at = None;
    }
}

/// What pass 1 must reproduce of the real frame.
#[derive(Debug, PartialEq)]
pub struct FrameSummary {
    pub samples_run: usize,
    pub b_locked: bool,
    pub delivered: bool,
    pub blocks_ok: Vec<bool>,
    pub feedback: Vec<(usize, bool)>,
}

impl FrameSummary {
    pub fn of(out: &FrameOutcome) -> Self {
        FrameSummary {
            samples_run: out.samples_run,
            b_locked: out.b_locked,
            delivered: out.delivered.is_some(),
            blocks_ok: out.partial_blocks.iter().map(|b| b.ok).collect(),
            feedback: out.feedback.iter().map(|f| (f.sample, f.bit)).collect(),
        }
    }
}

/// A link rebuilt from its public parts, stepping frames the way
/// `FdLink::run_frame` does.
pub struct Replica {
    cfg: LinkConfig,
    source: Ambient,
    hops: [Hop; 3],
    tags: [TagHardware; 2],
    noise: Awgn,
    source_amp: f64,
    tx: DataTransmitter,
    rx: DataReceiver,
    fb_enc: FeedbackEncoder,
    fb_dec: FeedbackDecoder,
    resampled: Vec<f64>,
}

impl Replica {
    /// Mirrors `FdLink::new`: the three hops draw their fading state from
    /// `rng` in the same order (source→A, source→B, A↔B).
    pub fn new(cfg: &LinkConfig, rng: &mut ChaCha8Rng) -> Result<Self, PhyError> {
        cfg.phy.validate()?;
        let g = &cfg.geometry;
        let hops = [
            Hop::new(g.pathloss_source, g.source_dist_a_m, g.fading_source, rng),
            Hop::new(g.pathloss_source, g.source_dist_b_m, g.fading_source, rng),
            Hop::new(g.pathloss_device, g.device_dist_m, g.fading_device, rng),
        ];
        let dt = cfg.phy.sample_period_s();
        let half_fb = half_feedback_bit(cfg);
        Ok(Replica {
            cfg: cfg.clone(),
            source: Ambient::from_config(cfg.ambient, cfg.ambient_seed),
            hops,
            tags: [
                TagHardware::new(cfg.tag_a, dt),
                TagHardware::new(cfg.tag_b, dt),
            ],
            noise: Awgn::from_dbm(cfg.field_noise_dbm),
            source_amp: dbm_to_watts(g.source_power_dbm).sqrt(),
            tx: DataTransmitter::new(&cfg.phy, &[])?,
            rx: DataReceiver::new(cfg.phy.clone()),
            fb_enc: FeedbackEncoder::new(half_fb),
            fb_dec: FeedbackDecoder::new(half_fb),
            resampled: Vec::new(),
        })
    }

    /// Pass 1: one clean frame, recording every stage's inputs on `tape`.
    pub fn run_frame(
        &mut self,
        payload: &[u8],
        opts: &RunOptions,
        rng: &mut ChaCha8Rng,
        tape: &mut Tape,
    ) -> Result<FrameSummary, PhyError> {
        tape.clear();
        tape.payload.clear();
        tape.payload.extend_from_slice(payload);
        tape.source = Some(self.source.clone());
        tape.rng = Some(rng.clone());
        tape.hops = Some(self.hops.clone());
        tape.tags = Some(self.tags.clone());

        let Replica {
            cfg,
            source,
            hops,
            tags,
            noise,
            source_amp,
            tx,
            rx,
            fb_enc,
            fb_dec,
            resampled,
        } = self;
        let [hop_sa, hop_sb, hop_ab] = hops;
        let [tag_a, tag_b] = tags;
        let phy = &cfg.phy;
        let dt = phy.sample_period_s();
        let spb = phy.samples_per_bit();
        let half_fb = half_feedback_bit(cfg);
        let silent = matches!(opts.feedback, FeedbackPolicy::Silent);

        tx.load(phy, payload)?;
        rx.load(phy);
        fb_enc.rearm(half_fb);
        fb_dec.rearm(half_fb);
        queue_stream(fb_enc, opts);
        let mut sic_a =
            SelfInterferenceCanceller::new(phy.sic, cfg.tag_a.rho, cfg.tag_a.rho_residual);
        let mut sic_b =
            SelfInterferenceCanceller::new(phy.sic, cfg.tag_b.rho, cfg.tag_b.rho_residual)
                .with_blanking(2);
        let mut b_hold = 0.0f64;
        let b_base_ppm = tag_b.clock_mut().current_ppm();
        tape.b_base_ppm = b_base_ppm;
        let mut b_clock_rs = Resampler::from_ppm(b_base_ppm);

        let a_epoch = phy.preamble.len() * spb + phy.feedback_guard_bits * spb;
        let mut b_epoch: Option<usize> = None;
        let mut b_was_locked = false;
        let total = tx.total_samples();
        let tail = if silent {
            8 * spb
        } else {
            2 * phy.samples_per_feedback_bit() + 8 * spb
        };
        let max_samples = total + tail;
        let fade_every = cfg.fading_advance_bits * spb;
        let verdict_horizon = total + phy.samples_per_feedback_bit() + spb;
        let mut feedback: Vec<(usize, bool)> = Vec::new();
        let mut aborted_at = None;
        let mut samples_run = max_samples;

        for t in 0..max_samples {
            if fade_every > 0 && t.is_multiple_of(fade_every) && t > 0 {
                hop_sa.advance_block(rng);
                hop_sb.advance_block(rng);
                hop_ab.advance_block(rng);
                tape.fades.push(t);
            }

            let a_state = tx.next_state().unwrap_or(false) && tag_a.is_alive();
            tag_a.set_antenna(a_state);
            let b_fb_active =
                !silent && b_epoch.map(|e| t >= e).unwrap_or(false) && tag_b.is_alive();
            let mut op = 0u8;
            let b_state = if b_fb_active {
                if fb_enc.at_bit_boundary() {
                    if let FeedbackPolicy::AckStatus = opts.feedback {
                        let ack = !rx.nack();
                        fb_enc.set_idle_bit(ack);
                        op |= ENC_SET_IDLE | if ack { ENC_IDLE_ACK } else { 0 };
                    }
                }
                op |= ENC_TICK;
                fb_enc.tick()
            } else {
                false
            };
            tag_b.set_antenna(b_state);

            let p = source.next_power(rng);
            let x = *source_amp * p.sqrt();
            let (h_sa, h_sb, h_ab) = (hop_sa.coeff(), hop_sb.coeff(), hop_ab.coeff());
            let (e_a0, e_b0) = (h_sa * x, h_sb * x);
            let g_a = tag_a.reflected(Iq::ONE);
            let g_b = tag_b.reflected(Iq::ONE);
            let f_a = e_a0 + h_ab * g_b * (e_b0 + h_ab * g_a * e_a0);
            let f_b = e_b0 + h_ab * g_a * (e_a0 + h_ab * g_b * e_b0);
            let e_a = noise.corrupt(f_a, rng);
            let e_b = noise.corrupt(f_b, rng);

            let env_a = tag_a.step_receive(e_a, dt, rng);
            let env_b = tag_b.step_receive(e_b, dt, rng);
            let a_listening = t >= a_epoch;
            tag_a.charge_awake(dt, a_listening);
            tag_b.charge_awake(dt, true);

            let corrected = match sic_b.correct(env_b, b_state) {
                Some(v) => {
                    b_hold = v;
                    v
                }
                None => b_hold,
            };
            resampled.clear();
            b_clock_rs.push(corrected, resampled);
            for &v in resampled.iter() {
                rx.push_sample(v);
            }
            tape.resampled.extend_from_slice(resampled);
            if b_was_locked && rx.state() == RxState::Acquiring {
                b_was_locked = false;
                b_epoch = None;
                fb_enc.rearm(half_fb);
                queue_stream(fb_enc, opts);
                op |= ENC_REARM;
            }
            if !b_was_locked && rx.state() != RxState::Acquiring {
                b_was_locked = true;
                b_epoch = Some(t + phy.feedback_guard_bits * spb);
            }

            let a_decoding = a_listening && !silent;
            if a_decoding {
                if let Some(v) = sic_a.correct(env_a, a_state) {
                    tape.fb_in.push(v);
                    if let Some(decision) = fb_dec.push(v) {
                        feedback.push((t, decision.bit));
                        if opts.abort_on_nack
                            && fb_dec.pilots_verified()
                            && !decision.bit
                            && aborted_at.is_none()
                        {
                            tx.abort();
                            aborted_at = Some(t);
                        }
                    }
                }
            }

            tape.power.push(p);
            tape.a_state.push(a_state);
            tape.b_state.push(b_state);
            tape.field_a.push(f_a);
            tape.field_b.push(f_b);
            tape.noisy_a.push(e_a);
            tape.noisy_b.push(e_b);
            tape.a_listening.push(a_listening);
            tape.env_a.push(env_a);
            tape.env_b.push(env_b);
            tape.a_decoding.push(a_decoding);
            tape.corrected.push(corrected);
            tape.enc_ops.push(op);

            if aborted_at.is_some() && tx.is_done() {
                samples_run = t + 1;
                break;
            }
            let verdict_in = silent
                || !b_was_locked
                || feedback
                    .last()
                    .map(|f| f.0 >= verdict_horizon)
                    .unwrap_or(false);
            if tx.is_done() && matches!(rx.state(), RxState::Done | RxState::Failed) && verdict_in {
                samples_run = t + 1;
                break;
            }
        }
        tape.samples = samples_run;
        tape.abort_at = aborted_at;
        let blocks_ok = rx.blocks().iter().map(|b| b.ok).collect();
        Ok(FrameSummary {
            samples_run,
            b_locked: b_was_locked,
            delivered: rx.take_result().is_some(),
            blocks_ok,
            feedback,
        })
    }

    /// Both tags still have energy.
    pub fn tags_alive(&self) -> bool {
        self.tags.iter().all(|t| t.is_alive())
    }
}

fn half_feedback_bit(cfg: &LinkConfig) -> usize {
    (cfg.phy.feedback_ratio / 2) * cfg.phy.samples_per_bit()
}

fn queue_stream(enc: &mut FeedbackEncoder, opts: &RunOptions) {
    if let FeedbackPolicy::Stream(bits) = &opts.feedback {
        for &b in bits {
            enc.push_bit(b);
        }
    }
}

/// Times one closure, returning nanoseconds.
fn span(f: impl FnOnce()) -> u64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as u64
}

/// Pass 2: each stage alone over the tape's recorded inputs, in
/// [`STAGES`] order. Returns nanoseconds per stage.
pub fn time_stages(cfg: &LinkConfig, tape: &Tape) -> Result<[u64; STAGES.len()], PhyError> {
    let phy = &cfg.phy;
    let dt = phy.sample_period_s();
    let n = tape.samples;
    let source_amp = dbm_to_watts(cfg.geometry.source_power_dbm).sqrt();
    let noise = Awgn::from_dbm(cfg.field_noise_dbm);
    let half_fb = half_feedback_bit(cfg);
    let start_rng = tape.rng.clone().expect("tape recorded");
    let start_tags = tape.tags.clone().expect("tape recorded");
    let mut ns = [0u64; STAGES.len()];

    // Per-stage state is built outside the spans.
    let mut source = tape.source.clone().expect("tape recorded");
    let mut rng = start_rng.clone();
    ns[0] = span(|| {
        let mut acc = 0.0;
        for _ in 0..n {
            acc += source.next_power(&mut rng);
        }
        black_box(acc);
    });

    let mut hops = tape.hops.clone().expect("tape recorded");
    let [mut tag_a, mut tag_b] = start_tags.clone();
    let mut rng = start_rng.clone();
    ns[1] = span(|| {
        let mut acc = Iq::ZERO;
        let mut fades = tape.fades.iter().peekable();
        for t in 0..n {
            if fades.next_if_eq(&&t).is_some() {
                for hop in hops.iter_mut() {
                    hop.advance_block(&mut rng);
                }
            }
            tag_a.set_antenna(tape.a_state[t]);
            tag_b.set_antenna(tape.b_state[t]);
            let x = source_amp * tape.power[t].sqrt();
            let (h_sa, h_sb, h_ab) = (hops[0].coeff(), hops[1].coeff(), hops[2].coeff());
            let (e_a0, e_b0) = (h_sa * x, h_sb * x);
            let g_a = tag_a.reflected(Iq::ONE);
            let g_b = tag_b.reflected(Iq::ONE);
            acc += e_a0 + h_ab * g_b * (e_b0 + h_ab * g_a * e_a0);
            acc += e_b0 + h_ab * g_a * (e_a0 + h_ab * g_b * e_b0);
        }
        black_box(acc);
    });

    let mut rng = start_rng.clone();
    ns[2] = span(|| {
        let mut acc = Iq::ZERO;
        for t in 0..n {
            acc += noise.corrupt(tape.field_a[t], &mut rng);
            acc += noise.corrupt(tape.field_b[t], &mut rng);
        }
        black_box(acc);
    });

    // One tag copy per antenna state, so the detector span holds only
    // `step_receive` calls (the antenna switching is timed in the mix).
    let [a0, b0] = start_tags.clone();
    let (mut a1, mut b1) = (a0.clone(), b0.clone());
    a1.set_antenna(true);
    b1.set_antenna(true);
    let mut tags_a = [a0, a1];
    let mut tags_b = [b0, b1];
    let mut rng = start_rng.clone();
    ns[3] = span(|| {
        let mut acc = 0.0;
        for t in 0..n {
            acc += tags_a[tape.a_state[t] as usize].step_receive(tape.noisy_a[t], dt, &mut rng);
            acc += tags_b[tape.b_state[t] as usize].step_receive(tape.noisy_b[t], dt, &mut rng);
        }
        black_box(acc);
    });

    let [mut tag_a, mut tag_b] = start_tags;
    ns[4] = span(|| {
        let mut alive = 0u32;
        for t in 0..n {
            alive += tag_a.charge_awake(dt, tape.a_listening[t]) as u32;
            alive += tag_b.charge_awake(dt, true) as u32;
        }
        black_box(alive);
    });

    let mut tx = DataTransmitter::new(phy, &tape.payload)?;
    ns[5] = span(|| {
        let mut on = 0u32;
        for t in 0..n {
            on += tx.next_state().unwrap_or(false) as u32;
            if tape.abort_at == Some(t) {
                tx.abort();
            }
        }
        black_box(on);
    });

    let mut sic_a = SelfInterferenceCanceller::new(phy.sic, cfg.tag_a.rho, cfg.tag_a.rho_residual);
    let mut sic_b = SelfInterferenceCanceller::new(phy.sic, cfg.tag_b.rho, cfg.tag_b.rho_residual)
        .with_blanking(2);
    ns[6] = span(|| {
        let mut acc = 0.0;
        for t in 0..n {
            acc += sic_b.correct(tape.env_b[t], tape.b_state[t]).unwrap_or(0.0);
            if tape.a_decoding[t] {
                acc += sic_a.correct(tape.env_a[t], tape.a_state[t]).unwrap_or(0.0);
            }
        }
        black_box(acc);
    });

    let mut resampler = Resampler::from_ppm(tape.b_base_ppm);
    let mut out = Vec::with_capacity(4);
    ns[7] = span(|| {
        let mut emitted = 0usize;
        for &v in &tape.corrected {
            out.clear();
            resampler.push(v, &mut out);
            emitted += out.len();
        }
        black_box(emitted);
    });

    let mut rx = DataReceiver::new(phy.clone());
    rx.load(phy);
    ns[8] = span(|| {
        for &v in &tape.resampled {
            rx.push_sample(v);
        }
        black_box(rx.state());
    });

    let mut enc = FeedbackEncoder::new(half_fb);
    let mut dec = FeedbackDecoder::new(half_fb);
    ns[9] = span(|| {
        let mut on = 0u32;
        for &op in &tape.enc_ops {
            if op & ENC_TICK != 0 {
                if enc.at_bit_boundary() && op & ENC_SET_IDLE != 0 {
                    enc.set_idle_bit(op & ENC_IDLE_ACK != 0);
                }
                on += enc.tick() as u32;
            }
            if op & ENC_REARM != 0 {
                enc.rearm(half_fb);
            }
        }
        for &v in &tape.fb_in {
            on += dec.push(v).is_some() as u32;
        }
        black_box(on);
    });
    Ok(ns)
}

//! `link_sweep`: `fdb_sim::run_link` points over the two healthy configs,
//! and, in the traced run, the per-stage ledger of the same points.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use fdb_core::link::{FdLink, FrameOutcome, FrameRun, LinkConfig, RunOptions};
use fdb_core::seed::derive_seed;
use fdb_dsp::prbs::{Prbs, PrbsOrder};
use fdb_sim::{run_link, LinkMetrics, LinkRun, MeasureSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use crate::replay::{time_stages, FrameSummary, Replica, Tape, STAGES};
use crate::Phase;

/// Frames per point: a fresh link runs this many frames back to back.
/// Run back to back, `default_link`'s first dead-tag frame is frame 108
/// (`near_tower`'s tags outlive 300 frames), so 50-frame points stay live.
pub const FRAMES: u64 = 50;
/// Payload bytes per frame.
pub const PAYLOAD: usize = 64;

/// The point's measurement: 50 live-status full-duplex frames of 64 B.
pub fn point_spec(seed: u64) -> MeasureSpec {
    MeasureSpec {
        frames: FRAMES,
        payload_len: PAYLOAD,
        seed,
        feedback_probe: Some(false),
        ..MeasureSpec::default()
    }
}

/// One `run_link` point.
#[derive(Debug, Default, Serialize)]
pub struct Point {
    pub config: String,
    pub seed: u64,
    pub wall_ns: u64,
    /// Per frame (untraced run only): ns from the cancel poll before it to
    /// the poll before the next frame, or to `run_link`'s return for the
    /// last, so payload generation and the runner's per-frame work count;
    /// and the samples it ran.
    pub frame_ns: Vec<u64>,
    pub frame_samples: Vec<u64>,
    pub frames: u64,
    pub samples: u64,
    pub locked: u64,
    pub delivered: u64,
    pub pilots_ok: u64,
    pub sync_attempts: u64,
    pub sync_rejections: u64,
    /// Frames that ended with a dead tag (traced run only).
    pub dead_frames: u64,
    pub error: Option<String>,
}

impl Point {
    fn record(&mut self, m: &LinkMetrics) {
        self.frames = m.frames;
        self.samples = m.elapsed_samples;
        self.locked = m.locked;
        self.delivered = m.fully_delivered;
        self.pilots_ok = m.pilots_ok;
        self.sync_attempts = m.sync_attempts;
        self.sync_rejections = m.sync_rejections;
    }
}

/// The traced run's per-stage ledger, summed over every traced frame.
#[derive(Debug, Default, Serialize)]
pub struct Ledger {
    pub frames: u64,
    pub samples: u64,
    /// Real `run_frame` time of the same frames.
    pub run_frame_ns: u64,
    /// Pass-2 time per stage, in `stages` order.
    pub stages: Vec<String>,
    pub stage_ns: Vec<u64>,
    /// Frames whose pass-1 replay did not reproduce `run_frame`.
    pub replay_mismatches: u64,
    /// `run_link` wall time of the traced points, and the part of it spent
    /// inside frames (cancel poll → observer, which brackets payload
    /// generation plus `run_frame`).
    pub run_link_ns: u64,
    pub in_frame_ns: u64,
    /// Wall time of the whole traced phase.
    pub traced_wall_ns: u64,
}

#[derive(Debug, Default, Serialize)]
pub struct LinkPhase {
    pub points: Vec<Point>,
    pub ledger: Option<Ledger>,
}

/// The sweep, one round (a point of each config) per step.
pub struct Sweep<'a> {
    configs: &'a [(String, LinkConfig)],
    seed: u64,
    tape: Tape,
    pub out: LinkPhase,
}

impl<'a> Sweep<'a> {
    pub fn new(configs: &'a [(String, LinkConfig)], seed: u64, traced: bool) -> Self {
        Sweep {
            configs,
            seed,
            tape: Tape::default(),
            out: LinkPhase {
                points: Vec::new(),
                ledger: traced.then(|| Ledger {
                    stages: STAGES.iter().map(|s| s.to_string()).collect(),
                    stage_ns: vec![0; STAGES.len()],
                    ..Ledger::default()
                }),
            },
        }
    }
}

impl Phase for Sweep<'_> {
    fn step(&mut self) -> Result<(), String> {
        let start = Instant::now();
        for (name, cfg) in self.configs {
            let seed = derive_seed(self.seed, self.out.points.len() as u64);
            let point = match self.out.ledger.as_mut() {
                None => plain_point(name, cfg, seed),
                Some(ledger) => traced_point(name, cfg, seed, ledger, &mut self.tape),
            };
            self.out.points.push(point);
        }
        if let Some(ledger) = self.out.ledger.as_mut() {
            ledger.traced_wall_ns += start.elapsed().as_nanos() as u64;
        }
        Ok(())
    }

    fn units(&self) -> usize {
        self.out.points.len() / self.configs.len()
    }
}

fn plain_point(name: &str, cfg: &LinkConfig, seed: u64) -> Point {
    let mut point = Point {
        config: name.to_string(),
        seed,
        frame_samples: Vec::with_capacity(FRAMES as usize),
        ..Point::default()
    };
    let polls = RefCell::new(Vec::with_capacity(FRAMES as usize));
    let cancel = || {
        polls.borrow_mut().push(Instant::now());
        false
    };
    let mut observe = |_: u64, out: &FrameOutcome| point.frame_samples.push(out.samples_run as u64);
    let start = Instant::now();
    let result = run_link(
        cfg,
        &point_spec(seed),
        LinkRun::new()
            .with_cancel(&cancel)
            .with_observe(&mut observe),
    );
    let end = Instant::now();
    point.wall_ns = (end - start).as_nanos() as u64;
    let polls = polls.into_inner();
    point.frame_ns = polls
        .iter()
        .zip(polls.iter().skip(1).chain([&end]))
        .map(|(a, b)| (*b - *a).as_nanos() as u64)
        .collect();
    match result {
        Ok(m) => point.record(&m),
        Err(e) => point.error = Some(e.to_string()),
    }
    point
}

/// One point of the traced run: `run_link` with its frames bracketed, then
/// the same frames again on a real link and a replica in lockstep.
fn traced_point(
    name: &str,
    cfg: &LinkConfig,
    seed: u64,
    ledger: &mut Ledger,
    tape: &mut Tape,
) -> Point {
    let mut point = Point {
        config: name.to_string(),
        seed,
        ..Point::default()
    };
    let frame_start = Cell::new(None::<Instant>);
    let in_frame = Cell::new(0u64);
    let cancel = || {
        frame_start.set(Some(Instant::now()));
        false
    };
    let mut observe = |_: u64, _: &FrameOutcome| {
        if let Some(s) = frame_start.get() {
            in_frame.set(in_frame.get() + s.elapsed().as_nanos() as u64);
        }
    };
    let start = Instant::now();
    let result = run_link(
        cfg,
        &point_spec(seed),
        LinkRun::new()
            .with_cancel(&cancel)
            .with_observe(&mut observe),
    );
    point.wall_ns = start.elapsed().as_nanos() as u64;
    ledger.run_link_ns += point.wall_ns;
    ledger.in_frame_ns += in_frame.get();
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            point.error = Some(e.to_string());
            return point;
        }
    };
    point.record(&metrics);
    if let Err(e) = lockstep(cfg, seed, &metrics, &mut point, ledger, tape) {
        point.error = Some(e.to_string());
    }
    point
}

/// Replays the point frame by frame: the real link's `run_frame` is timed
/// whole, the replica records the stage inputs, and pass 2 times each
/// stage. Also checks both tags are alive after every frame.
fn lockstep(
    cfg: &LinkConfig,
    seed: u64,
    metrics: &LinkMetrics,
    point: &mut Point,
    ledger: &mut Ledger,
    tape: &mut Tape,
) -> Result<(), fdb_core::PhyError> {
    let opts = RunOptions::fd_monitor();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut replica_rng = ChaCha8Rng::seed_from_u64(seed);
    let mut link = FdLink::new(cfg.clone(), &mut rng)?;
    let mut replica = Replica::new(cfg, &mut replica_rng)?;
    // The payload stream `run_link` uses (its PRBS seed salt).
    let mut payloads = Prbs::new(PrbsOrder::Prbs23, (seed ^ 0xBAC0_5CA7).max(1));
    let mut payload = Vec::new();
    let mut out = FrameOutcome::default();
    let (mut locked, mut delivered) = (0u64, 0u64);
    for _ in 0..FRAMES {
        payloads.bytes_into(PAYLOAD, &mut payload);
        let start = Instant::now();
        link.run_frame_into(&payload, &opts, &mut rng, FrameRun::clean(), &mut out)?;
        ledger.run_frame_ns += start.elapsed().as_nanos() as u64;
        let summary = replica.run_frame(&payload, &opts, &mut replica_rng, tape)?;
        if summary != FrameSummary::of(&out) || replica.tags_alive() != tags_alive(&link) {
            ledger.replay_mismatches += 1;
        }
        if !tags_alive(&link) {
            point.dead_frames += 1;
        }
        locked += out.b_locked as u64;
        delivered += out.fully_delivered() as u64;
        for (total, ns) in ledger.stage_ns.iter_mut().zip(time_stages(cfg, tape)?) {
            *total += ns;
        }
        ledger.frames += 1;
        ledger.samples += out.samples_run as u64;
    }
    // The lockstep frames must be `run_link`'s frames.
    if (locked, delivered) != (metrics.locked, metrics.fully_delivered) {
        ledger.replay_mismatches += FRAMES;
    }
    Ok(())
}

fn tags_alive(link: &FdLink) -> bool {
    link.tag_a().is_alive() && link.tag_b().is_alive()
}

//! Helpers for exercising the frame-trace diagnostics layer in tests and
//! ad-hoc debugging.
//!
//! The typical loop while root-causing a failure:
//!
//! 1. [`run_seeded_frame`] reproduces one frame deterministically, with a
//!    [`RingSink`] attached;
//! 2. [`trace_jsonl`] turns its trace into grep-able JSON lines;
//! 3. narrow by stage with [`FrameTrace::stage_events`] and compare a
//!    failing seed against a passing one.

use fdb_core::link::{FdLink, FrameOutcome, FrameRun, LinkConfig, RunOptions};
use fdb_core::trace::{FrameTrace, RingSink, TraceSink};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs one deterministic frame over `cfg` and returns its outcome with
/// the [`FrameTrace`] a [`RingSink`] of the PHY's configured ring capacity
/// captured. The payload is a fixed `i % 251` ramp so a given
/// `(cfg, seed, payload_len)` triple always replays identically — the
/// same contract the `probe` CLI uses.
pub fn run_seeded_frame(
    cfg: LinkConfig,
    seed: u64,
    payload_len: usize,
    opts: &RunOptions,
) -> (FrameOutcome, FrameTrace) {
    let mut ring = RingSink::new(cfg.phy.trace_ring_capacity());
    let out = run_seeded_frame_into(cfg, seed, payload_len, opts, &mut ring);
    (out, ring.into_trace())
}

/// Like [`run_seeded_frame`], but streams the frame's events into a
/// caller-supplied [`TraceSink`] (bracketed as frame 0).
pub fn run_seeded_frame_into(
    cfg: LinkConfig,
    seed: u64,
    payload_len: usize,
    opts: &RunOptions,
    sink: &mut dyn TraceSink,
) -> FrameOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut link = FdLink::new(cfg, &mut rng).expect("valid link config");
    let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
    sink.begin_frame(0);
    let out = link
        .run_frame_with(&payload, opts, &mut rng, FrameRun::clean().with_sink(sink))
        .expect("frame runs");
    sink.end_frame();
    out
}

/// Serialises every trace event to one JSON line (the probe CLI format).
pub fn trace_jsonl(trace: &FrameTrace) -> Vec<String> {
    trace
        .events()
        .map(|ev| serde_json::to_string(ev).expect("trace event serializes"))
        .collect()
}

//! Integration tests for the frame-trace diagnostics layer.

use fd_backscatter::phy::trace::{FrameTrace, TraceEvent, TraceSink};
use fd_backscatter::prelude::*;
use fd_backscatter::testing::{run_seeded_frame, trace_jsonl};

fn quiet_cfg() -> LinkConfig {
    let mut cfg = LinkConfig::default_fd();
    cfg.ambient = fd_backscatter::ambient::AmbientConfig::Cw;
    cfg.field_noise_dbm = -160.0;
    cfg
}

#[test]
fn fd_frame_trace_covers_every_stage() {
    let (out, trace) = run_seeded_frame(quiet_cfg(), 11, 64, &RunOptions::fd_monitor());
    assert!(out.fully_delivered(), "clean FD frame must deliver");
    for stage in ["tx", "channel", "sic", "rx", "feedback"] {
        assert!(
            trace.stage_events(stage).next().is_some(),
            "no `{stage}` events in a full-duplex frame trace"
        );
    }
    assert!(!trace.is_empty());
}

#[test]
fn half_duplex_trace_has_no_feedback_events() {
    let (out, trace) = run_seeded_frame(quiet_cfg(), 12, 32, &RunOptions::half_duplex());
    assert!(out.fully_delivered());
    assert_eq!(
        trace.stage_events("feedback").count(),
        0,
        "half-duplex frames must not record feedback-decode events"
    );
    assert!(trace.stage_events("rx").next().is_some());
}

#[test]
fn trace_is_deterministic_for_a_seed() {
    let (_, a) = run_seeded_frame(quiet_cfg(), 13, 48, &RunOptions::fd_monitor());
    let (_, b) = run_seeded_frame(quiet_cfg(), 13, 48, &RunOptions::fd_monitor());
    let ea: Vec<_> = a.events().collect();
    let eb: Vec<_> = b.events().collect();
    assert_eq!(ea, eb, "same seed must replay an identical trace");
}

#[test]
fn trace_serialises_to_jsonl_and_tags_stages() {
    let (_, trace) = run_seeded_frame(quiet_cfg(), 14, 32, &RunOptions::fd_monitor());
    let lines = trace_jsonl(&trace);
    assert_eq!(lines.len(), trace.len());
    for line in &lines {
        let v: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("trace line is not valid JSON ({e:?}): {line}"));
        drop(v);
        assert!(line.contains("\"sample\""), "no sample field: {line}");
    }
}

/// Keeps one bounded ring per bracketed frame, so the trace of any frame
/// an observer flags can be looked up after the run.
struct PerFrameRings {
    capacity: usize,
    frames: Vec<FrameTrace>,
    recorded: u64,
}

impl TraceSink for PerFrameRings {
    fn begin_frame(&mut self, _frame: u64) {
        self.frames.push(FrameTrace::new(self.capacity));
    }

    fn record(&mut self, event: TraceEvent) {
        self.recorded += 1;
        self.frames.last_mut().expect("frames are bracketed").record(event);
    }

    fn events_recorded(&self) -> u64 {
        self.recorded
    }

    fn events_dropped(&self) -> u64 {
        self.frames.iter().map(|f| f.dropped() as u64).sum()
    }
}

#[test]
fn observer_captures_first_failing_frame_trace() {
    // At a marginal distance some frames fail; an observer plus a sink
    // that keeps every frame's ring recover the trace of the first one
    // that did (what the removed `measure_link_traced` wrapper used to
    // hard-code).
    let mut cfg = LinkConfig::default_fd();
    cfg.geometry.device_dist_m = 0.8; // far: reliably lossy
    let spec = MeasureSpec {
        frames: 6,
        payload_len: 64,
        seed: 5,
        feedback_probe: Some(false),
        trace: Default::default(),
        faults: None,
    };
    let mut rings = PerFrameRings {
        capacity: cfg.phy.trace_ring_capacity(),
        frames: Vec::new(),
        recorded: 0,
    };
    let mut first_failure: Option<u64> = None;
    let mut observe = |frame: u64, out: &FrameOutcome| {
        if first_failure.is_none() && !out.fully_delivered() {
            first_failure = Some(frame);
        }
    };
    let run = LinkRun::new().with_observe(&mut observe).with_sink(&mut rings);
    let metrics = run_link(&cfg, &spec, run).unwrap();
    assert_eq!(metrics.frames, 6);
    assert_eq!(rings.frames.len(), 6);
    if metrics.fully_delivered < metrics.frames {
        let frame = first_failure.expect("a failing frame must be flagged");
        assert!(!rings.frames[frame as usize].is_empty(), "captured trace is empty");
    } else {
        assert!(first_failure.is_none());
    }
}

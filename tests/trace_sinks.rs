//! Integration tests for the streaming trace-sink subsystem: the
//! acceptance bar is a 10,000-frame traced `parallel_sweep` whose resident
//! trace memory stays bounded by the per-frame ring capacity while the
//! merged JSONL file carries every frame in sweep order.

use fd_backscatter::phy::trace::{parse_trace_line, TraceLine, TraceSinkSpec};
use fd_backscatter::prelude::*;
use fd_backscatter::sim::runner::derive_seed;
use fd_backscatter::sim::{parallel_sweep_traced, MeasureSpec};

/// The cheapest frame the PHY supports: CW carrier, near-noiseless field,
/// minimum samples per chip, one payload byte, half-duplex (no feedback
/// tail), tiny configured trace ring.
fn cheap_cfg() -> LinkConfig {
    let mut cfg = LinkConfig::default_fd();
    cfg.ambient = fd_backscatter::ambient::AmbientConfig::Cw;
    cfg.field_noise_dbm = -160.0;
    cfg.phy.samples_per_chip = 4;
    cfg.phy.trace_capacity = Some(64);
    cfg
}

#[test]
fn ten_thousand_frame_sweep_streams_all_frames_in_order_with_bounded_memory() {
    const POINTS: usize = 40;
    const FRAMES_PER_POINT: u64 = 250;
    let cfg = cheap_cfg();
    let frame_cap = cfg.phy.trace_ring_capacity();
    let out = std::env::temp_dir().join(format!(
        "fdb_trace_sinks_10k_{}.jsonl",
        std::process::id()
    ));

    let points: Vec<u64> = (0..POINTS as u64).collect();
    let results = parallel_sweep_traced(&points, 8, &out, frame_cap, |_, &p, sink| {
        let spec = MeasureSpec {
            frames: FRAMES_PER_POINT,
            payload_len: 1,
            seed: derive_seed(99, p),
            feedback_probe: None,
            trace: Default::default(),
            faults: None,
        };
        let metrics =
            run_link(&cfg, &spec, LinkRun::new().with_sink(sink)).expect("point measures");
        (metrics, sink.peak_staged_bytes())
    })
    .expect("traced sweep completes");

    assert_eq!(results.len(), POINTS);
    // Resident trace memory: each point's sink never staged more than one
    // ring-capacity frame (generous 300 bytes per event line + markers).
    let staged_bound = 300 * (frame_cap + 2);
    for (metrics, peak) in &results {
        assert_eq!(metrics.frames, FRAMES_PER_POINT);
        assert!(
            *peak <= staged_bound,
            "sink staged {peak} bytes; per-frame bound is {staged_bound}"
        );
        // The cap bit: real frames emit far more events than the tiny ring
        // admits, so the sink must be dropping (not buffering) the excess.
        assert!(metrics.trace_events <= FRAMES_PER_POINT * frame_cap as u64);
        assert!(metrics.trace_dropped > 0, "tiny cap never overflowed");
    }

    // The merged file: every point's frames present, in sweep order, with
    // frame indices restarting 0..FRAMES_PER_POINT per point, and events
    // inside every frame.
    let text = std::fs::read_to_string(&out).expect("merged trace exists");
    let (mut frames_seen, mut expected_frame, mut events_in_frame) = (0u64, 0u64, 0u64);
    for (i, line) in text.lines().enumerate() {
        match parse_trace_line(line)
            .unwrap_or_else(|e| panic!("{}:{}: {e}", out.display(), i + 1))
        {
            TraceLine::FrameStart { frame } => {
                assert_eq!(
                    frame,
                    expected_frame % FRAMES_PER_POINT,
                    "frame order broken at line {}",
                    i + 1
                );
                events_in_frame = 0;
            }
            TraceLine::Event(_) => events_in_frame += 1,
            TraceLine::FrameEnd { frame, events, .. } => {
                assert_eq!(frame, expected_frame % FRAMES_PER_POINT);
                assert_eq!(events, events_in_frame, "frame_end event count lies");
                assert!(events > 0, "frame {frame} recorded no events");
                expected_frame += 1;
                frames_seen += 1;
            }
        }
    }
    assert_eq!(
        frames_seen,
        POINTS as u64 * FRAMES_PER_POINT,
        "merged file must contain every frame of the sweep"
    );
    std::fs::remove_file(&out).ok();
}

#[test]
fn ring_spec_only_adds_trace_counters() {
    let mut cfg = LinkConfig::default_fd();
    cfg.geometry.device_dist_m = 0.8; // lossy: exercises the failure capture
    let spec = MeasureSpec {
        frames: 5,
        payload_len: 32,
        seed: 21,
        feedback_probe: Some(false),
        trace: Default::default(),
        faults: None,
    };
    let new_path = run_link(&cfg, &spec, LinkRun::new()).unwrap();

    // A live sink only adds the trace counters — every PHY-level metric
    // stays identical.
    let traced = run_link(
        &cfg,
        &spec.clone().with_trace(TraceSinkSpec::Ring { capacity: Some(32) }),
        LinkRun::new(),
    )
    .unwrap();
    assert!(traced.trace_events > 0);
    assert_eq!(traced.frames, new_path.frames);
    assert_eq!(traced.fully_delivered, new_path.fully_delivered);
    assert_eq!(traced.locked, new_path.locked);
    assert_eq!(traced.blocks_ok, new_path.blocks_ok);
    assert_eq!(traced.airtime_samples, new_path.airtime_samples);
    assert_eq!(traced.elapsed_samples, new_path.elapsed_samples);
    assert_eq!(traced.data_ber.errors(), new_path.data_ber.errors());
    assert_eq!(traced.sync_attempts, new_path.sync_attempts);
}

/// Negative path: a frame that both overflows the per-frame event cap
/// *and* crosses the rotation threshold at the same `end_frame`. The cap
/// must drop (not buffer) the excess, the frame_end marker must confess
/// the drop count, and the rotation must land the completed frame in a
/// rotated-out file while the next frame starts the fresh live file —
/// with no event lost or double-counted across the seam.
#[test]
fn event_cap_and_rotation_coincide_on_one_frame_boundary() {
    use fd_backscatter::phy::trace::{JsonlFileSink, TraceEvent, TraceSink};

    let path = std::env::temp_dir().join(format!(
        "fdb_trace_sinks_caprot_{}.jsonl",
        std::process::id()
    ));
    // rotate_bytes=1: every completed frame exceeds the limit, so every
    // frame boundary is also a rotation boundary.
    let mut sink = JsonlFileSink::create(&path)
        .unwrap()
        .with_frame_cap(4)
        .with_rotate_bytes(Some(1));

    let fault_event = |sample: usize| TraceEvent::Fault {
        sample,
        kind: "noise_burst".into(),
        active: sample.is_multiple_of(2),
    };

    // Frame 0: 10 events against a cap of 4 — 6 dropped at the cap, then
    // the flush of the surviving lines trips the rotation.
    sink.begin_frame(0);
    for i in 0..10 {
        sink.record(fault_event(i));
    }
    sink.end_frame();
    assert_eq!(sink.events_recorded(), 4, "cap must admit exactly 4 events");
    assert_eq!(sink.events_dropped(), 6, "cap must drop the excess");
    assert!(sink.io_error().is_none());

    // Frame 1 must land in the fresh post-rotation live file, untainted
    // by frame 0's drop accounting.
    sink.begin_frame(1);
    sink.record(fault_event(100));
    sink.end_frame();

    let summary = sink.finish().unwrap();
    assert_eq!(summary.frames, 2);
    assert_eq!(summary.events, 5);
    assert_eq!(summary.dropped, 6);
    // Both frames rotated out (rotate_bytes=1), live file left empty.
    assert_eq!(summary.files.len(), 3, "files: {:?}", summary.files);

    // The rotated files carry one frame each, markers intact.
    let expect = [(0u64, 4u64, 6u64), (1, 1, 0)];
    for ((frame_want, events_want, _), file) in expect.iter().zip(&summary.files) {
        let text = std::fs::read_to_string(file).unwrap();
        let mut events_seen = 0u64;
        let mut closed = false;
        for (i, line) in text.lines().enumerate() {
            match parse_trace_line(line).unwrap_or_else(|e| panic!("{file}:{}: {e}", i + 1)) {
                TraceLine::FrameStart { frame } => assert_eq!(frame, *frame_want),
                TraceLine::Event(_) => events_seen += 1,
                TraceLine::FrameEnd { frame, events, .. } => {
                    assert_eq!(frame, *frame_want);
                    assert_eq!(events, events_seen, "frame_end event count lies");
                    closed = true;
                }
            }
        }
        assert!(closed, "{file}: frame never closed");
        assert_eq!(events_seen, *events_want, "{file}");
    }
    let live = std::fs::read_to_string(&summary.files[2]).unwrap();
    assert!(live.is_empty(), "live file must be empty after final rotation");

    // The frame-0 marker must confess its drops verbatim in the JSON.
    let frame0 = std::fs::read_to_string(&summary.files[0]).unwrap();
    assert!(
        frame0.lines().last().unwrap().contains("\"dropped\":6"),
        "frame_end must record the drop count: {frame0}"
    );

    for file in &summary.files {
        std::fs::remove_file(file).ok();
    }
}

#[test]
fn jsonl_spec_through_run_link_round_trips_every_event() {
    let path = std::env::temp_dir().join(format!(
        "fdb_trace_sinks_rt_{}.jsonl",
        std::process::id()
    ));
    let mut cfg = cheap_cfg();
    cfg.phy.trace_capacity = None; // full frames: no drops expected
    let spec = MeasureSpec {
        frames: 3,
        payload_len: 8,
        seed: 4,
        feedback_probe: Some(false),
        trace: TraceSinkSpec::jsonl(path.display().to_string()),
        faults: None,
    };
    let metrics = run_link(&cfg, &spec, LinkRun::new()).unwrap();
    assert!(metrics.trace_events > 0);
    assert_eq!(metrics.trace_dropped, 0, "uncapped sink must not drop");

    let text = std::fs::read_to_string(&path).unwrap();
    let mut events = 0u64;
    for line in text.lines() {
        if let TraceLine::Event(_) = parse_trace_line(line).expect("valid line") {
            events += 1;
        }
    }
    assert_eq!(events, metrics.trace_events, "file events ≠ metric counter");
    std::fs::remove_file(&path).ok();
}

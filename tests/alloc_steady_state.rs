//! The zero-allocation contract, pinned with a counting global
//! allocator: after a one-frame warmup, steady-state frames on the
//! clean-link, faulted-link, traced-link and MAC-session paths perform
//! **zero** heap allocations — through the untraced dispatch (block
//! pipeline), the traced dispatch (per-sample engine into a reused ring
//! sink) and the forced reference engine.
//!
//! The link scenarios re-initialise the link every [`REINIT_EVERY`]
//! frames and assert that both tags are alive on every counted frame, so
//! the count covers live frames (a tag that ran out of energy turns the
//! rest of the run into cheap dead-tag frames).
//!
//! The counter is thread-local, so parallel test threads can't perturb
//! each other's tallies. Only allocation *requests* are counted
//! (alloc/alloc_zeroed/realloc); frees are not — releasing capacity is
//! not a steady-state cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fd_backscatter::channel::impairment::{FaultKind, FrameFaults, ScheduledFault};
use fd_backscatter::mac::scenario::{run_session, RatePolicy, SessionConfig};
use fd_backscatter::phy::trace::{RingSink, TraceSink};
use fd_backscatter::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System`; the bookkeeping is a
// thread-local `Cell` bump, which itself never allocates (const-init).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Appends one machine-readable result line to the file named by
/// `FDB_ALLOC_JSON` (mirroring the bench harness's `FDB_BENCH_JSON`
/// stream) so `tools/bench_check.py` can fold steady-state allocation
/// counts into the committed trajectory file. No-op when unset. Runs
/// *after* the measured window, so its own allocations don't perturb
/// the count; the single `write_all` of one short line keeps parallel
/// test threads from interleaving (O_APPEND).
fn record_alloc(name: &str, allocs: u64, frames: u64) {
    use std::io::Write;
    let Ok(path) = std::env::var("FDB_ALLOC_JSON") else {
        return;
    };
    let line = format!(
        "{{\"name\":\"alloc/{name}\",\"steady_allocs\":{allocs},\"frames\":{frames}}}\n"
    );
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .expect("open FDB_ALLOC_JSON for append");
    f.write_all(line.as_bytes())
        .expect("append FDB_ALLOC_JSON line");
}

/// Frames to run after warmup. The contract is "multi-thousand"; the
/// per-sample engine simulates every sample so keep the payload small.
const STEADY_FRAMES: u64 = 1000;

/// Frames between link re-initialisations: well inside the ~190 frames
/// the default tags' stored energy lasts back to back.
const REINIT_EVERY: u64 = 100;

fn link_cfg() -> LinkConfig {
    let mut cfg = LinkConfig::default_fd();
    cfg.geometry.device_dist_m = 0.5;
    cfg
}

#[derive(Clone, Copy)]
enum Engine {
    /// `run_frame_into` with no sink — the production dispatch (block
    /// pipeline).
    Dispatch,
    /// `run_frame_into` with a reused, caller-owned [`RingSink`] attached
    /// (per-sample engine; the ring evicts in place once full).
    TracedDispatch,
    /// The per-sample reference pipeline, forced.
    Reference,
}

/// Runs `frames` frames over one link with fully reused buffers and
/// returns the allocations counted from the start of frame 1 (i.e.
/// excluding the warmup frame 0, which may grow every buffer).
fn steady_state_allocs(engine: Engine, frames: u64, faulted: bool) -> u64 {
    let cfg = link_cfg();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let mut link = FdLink::new(cfg.clone(), &mut rng).unwrap();
    let payload: Vec<u8> = (0..32u8).collect();
    let opts = RunOptions::fd_monitor();
    let mut out = FrameOutcome::default();
    let mut engine_faults = FrameFaults::new(Vec::new(), 0);
    let mut ring = RingSink::new(cfg.phy.trace_ring_capacity());
    let mut start = 0u64;
    for frame in 0..frames {
        if frame == 1 {
            start = allocs_on_this_thread();
        }
        if frame > 0 && frame % REINIT_EVERY == 0 {
            link.reinit(&cfg, &mut rng).unwrap();
        }
        let faults = if faulted {
            engine_faults.rearm(
                [ScheduledFault {
                    start: 4000,
                    duration: 600,
                    kind: FaultKind::Dropout {
                        target: Default::default(),
                    },
                }],
                0x5EED ^ frame,
            );
            Some(&mut engine_faults)
        } else {
            None
        };
        match engine {
            Engine::Dispatch => link
                .run_frame_into(&payload, &opts, &mut rng, FrameRun::faulted(faults), &mut out)
                .unwrap(),
            Engine::TracedDispatch => {
                ring.begin_frame(frame);
                let run = FrameRun::faulted(faults).with_sink(&mut ring);
                link.run_frame_into(&payload, &opts, &mut rng, run, &mut out)
                    .unwrap();
                ring.end_frame();
            }
            Engine::Reference => link
                .run_frame_reference_into(&payload, &opts, &mut rng, faults, &mut out)
                .unwrap(),
        }
        // Consume the outcome the way the runner does, so the borrow
        // checker can't optimise the frame away and delivered results are
        // genuinely produced each frame.
        assert!(out.samples_run > 0);
        assert!(
            link.tag_a().is_alive() && link.tag_b().is_alive(),
            "a tag died by frame {frame}: the count would cover dead-tag frames"
        );
    }
    if matches!(engine, Engine::TracedDispatch) {
        assert!(ring.events_dropped() > 0, "the ring never filled and recycled");
    }
    allocs_on_this_thread() - start
}

#[test]
fn clean_link_reference_engine_is_allocation_free_after_warmup() {
    let n = steady_state_allocs(Engine::Reference, STEADY_FRAMES, false);
    record_alloc("clean_link_reference", n, STEADY_FRAMES - 1);
    assert_eq!(n, 0, "reference engine allocated {n} times in steady state");
}

#[test]
fn clean_link_dispatch_is_allocation_free_after_warmup() {
    let n = steady_state_allocs(Engine::Dispatch, STEADY_FRAMES, false);
    record_alloc("clean_link_dispatch", n, STEADY_FRAMES - 1);
    assert_eq!(n, 0, "run_frame_into allocated {n} times in steady state");
}

#[test]
fn traced_link_dispatch_is_allocation_free_after_warmup() {
    let n = steady_state_allocs(Engine::TracedDispatch, STEADY_FRAMES, false);
    record_alloc("traced_link_dispatch", n, STEADY_FRAMES - 1);
    assert_eq!(n, 0, "traced run_frame_into allocated {n} times in steady state");
}

#[test]
fn faulted_link_is_allocation_free_after_warmup() {
    for (engine, name) in [
        (Engine::Reference, "faulted_link_reference"),
        (Engine::Dispatch, "faulted_link_dispatch"),
    ] {
        let n = steady_state_allocs(engine, STEADY_FRAMES, true);
        record_alloc(name, n, STEADY_FRAMES - 1);
        assert_eq!(n, 0, "faulted frames allocated {n} times in steady state");
    }
}

#[test]
fn mac_session_is_allocation_free_after_warmup() {
    // `run_session` owns its per-slot reuse (lazy link + `reinit`, one
    // outcome, persistent options, pre-reserved records). The per-slot
    // fault closure runs at the top of every slot, so the allocation
    // count sampled there brackets whole steady-state slots: slot 0 is
    // the warmup (engines and report storage grow); slots 1..last must
    // not allocate.
    let session = SessionConfig {
        frames: 200,
        payload_len: 32,
        seed: 7,
        rate: RatePolicy::Fixed {
            samples_per_chip: link_cfg().phy.samples_per_chip,
        },
        early_abort: false,
        max_attempts: 2,
        retry_gap_samples: 400,
        flow: None,
        distance_ramp_m_per_slot: 0.0,
    };
    let start = Cell::new(0u64);
    let end = Cell::new(0u64);
    let report = run_session(&link_cfg(), &session, |slot, _| {
        if slot == 1 {
            start.set(allocs_on_this_thread());
        }
        if slot >= 1 {
            end.set(allocs_on_this_thread());
        }
        false
    })
    .unwrap();
    assert!(report.records.len() >= 200);
    assert!(start.get() > 0, "warmup slot never ran");
    let n = end.get() - start.get();
    record_alloc("mac_session", n, session.frames - 1);
    assert_eq!(n, 0, "MAC session allocated {n} times across steady-state slots");
}

//! Adaptive-MAC acceptance scenarios: the closed control loop beats its
//! oblivious ablation under the fault matrix.
//!
//! Each bundled `configs/scenarios/*.json` pair runs two sessions over
//! the same link and fault timeline through
//! [`fd_backscatter::mac::scenario::run_session`] — one with a MAC
//! mechanism enabled, one without. Every pair is judged over many session
//! seeds (`SessionConfig::seed`), never one: the adaptive arm's goodput
//! margin must clear the pair's gate (`min_margin`) in the median, and
//! each mechanism (ladder switches / aborts / pauses) must engage on a
//! floor share of the seeds. The whole run also replays byte-identically,
//! and the drift-ramp pair's adaptation trajectory at its config seed is
//! pinned against `results/golden/mac_drift_ramp.json`
//! (`tools/regen_mac_golden.py` regenerates it after intentional
//! changes).

use fd_backscatter::sim::{AblationPair, PairOutcome};
use std::ops::Range;

/// Session seeds each pair is judged over.
const SEEDS: Range<u64> = 100..116;
/// `fade_flow`'s per-seed margin spreads from 0.6× to 2.2×, so its median
/// is taken over twice as many seeds.
const FADE_SEEDS: Range<u64> = 100..132;

fn load_pair(name: &str) -> AblationPair {
    let path = format!(
        "{}/configs/scenarios/{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name} invalid: {e}"))
}

/// Runs the pair once per session seed (both arms share the seed) and
/// asserts the median margin clears the pair's gate.
fn run_pair_over(name: &str, seeds: Range<u64>) -> Vec<PairOutcome> {
    let pair = load_pair(name);
    let outs: Vec<PairOutcome> = seeds
        .map(|seed| {
            let mut p = pair.clone();
            p.adaptive.seed = seed;
            p.oblivious.seed = seed;
            p.run().unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"))
        })
        .collect();
    let margin = median(outs.iter().map(|o| o.margin).collect());
    assert!(
        margin >= pair.min_margin,
        "{name}: median adaptive/oblivious margin {margin:.3} below gate {:.3}",
        pair.min_margin
    );
    outs
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

/// Asserts `holds` on at least three quarters of the seeds.
fn assert_on_most(outs: &[PairOutcome], what: &str, holds: impl Fn(&PairOutcome) -> bool) {
    let k = outs.iter().filter(|o| holds(o)).count();
    assert!(
        4 * k >= 3 * outs.len(),
        "{what}: held on only {k}/{} seeds",
        outs.len()
    );
}

/// Asserts `holds` on every seed (for properties the config guarantees).
fn assert_on_all(outs: &[PairOutcome], what: &str, holds: impl Fn(&PairOutcome) -> bool) {
    let k = outs.iter().filter(|o| holds(o)).count();
    assert_eq!(k, outs.len(), "{what}: held on only {k}/{} seeds", outs.len());
}

fn median_of(outs: &[PairOutcome], field: impl Fn(&PairOutcome) -> u64) -> f64 {
    median(outs.iter().map(|o| field(o) as f64).collect())
}

/// Headline 1 — rate adaptation: under a clock-drift ramp and a walk-away
/// distance ramp, the AIMD controller rides the rate ladder down from the
/// observable NACK fractions and keeps delivering, while the fixed-rate
/// arm dies early.
#[test]
fn drift_ramp_rate_adaptation_beats_fixed_rate() {
    let outs = run_pair_over("drift_ramp", SEEDS);
    // The controller starts at the slowest rung, climbs while the link is
    // still short/clean, and is forced back into the slow half of the
    // ladder by the ramps — often all the way to the bottom.
    assert_on_all(&outs, "starts at the slowest rung", |o| {
        o.adaptive.ladder_trajectory().first() == Some(&3)
    });
    assert_on_most(&outs, "controller climbs", |o| {
        o.adaptive.ladder_trajectory().iter().any(|&p| p < 3)
    });
    assert_on_most(&outs, "ramps force the controller back down", |o| {
        o.adaptive.ladder_trajectory().last() >= Some(&2)
    });
    let bottom = outs
        .iter()
        .filter(|o| o.adaptive.ladder_trajectory().last() == Some(&3))
        .count();
    assert!(4 * bottom >= outs.len(), "ends on the slowest rung on only {bottom} seeds");
    assert!(median_of(&outs, |o| o.adaptive.rate_switches) >= 4.0, "ladder barely moved");
    // The adaptive arm delivers most payloads; the fixed-fast arm loses
    // most of them as the ramps pass its operating point.
    assert!(median_of(&outs, |o| o.adaptive.delivered_payloads) >= 10.0);
    assert!(median_of(&outs, |o| o.oblivious.delivered_payloads) <= 4.0);
    // Decisions were observable-only: no false ACKs crept in on any seed.
    assert_on_all(&outs, "no false ACKs", |o| o.adaptive.false_acks == 0);
}

/// Headline 2 — early abort: under noise-burst trains that corrupt frames
/// mid-flight, aborting on the first verified NACK and retrying beats
/// running every doomed frame to completion.
#[test]
fn burst_trains_early_abort_beats_run_to_completion() {
    let outs = run_pair_over("burst_abort", SEEDS);
    assert_on_most(&outs, "clears the margin gate", |o| o.pass);
    assert_on_most(&outs, "early abort engages (≥ 5 aborts)", |o| {
        o.adaptive.aborted_frames >= 5
    });
    assert_on_all(&outs, "oblivious arm never aborts", |o| {
        o.oblivious.aborted_frames == 0
    });
    // Both arms face the same bursts; the win is airtime, not delivery.
    assert_on_most(&outs, "abort arm delivers as much", |o| {
        o.adaptive.delivered_payloads >= o.oblivious.delivered_payloads
    });
    assert_on_most(&outs, "abort arm finishes in less airtime", |o| {
        o.adaptive.elapsed_samples < o.oblivious.elapsed_samples
    });
    // The scheduled bursts actually fired in both arms.
    assert_on_all(&outs, "bursts fire in both arms", |o| {
        o.adaptive.fault_activations.noise_burst > 0
            && o.oblivious.fault_activations.noise_burst > 0
    });
}

/// Headline 3 — flow control: when ambient fades starve B's harvester and
/// its drain stalls, the in-band busy signal (B streams NACK, A pauses)
/// keeps goodput at parity with the oblivious arm (the pair's gate is a
/// parity floor, not a win) while the oblivious arm overruns the buffer
/// and pays end-of-pass retransmissions.
#[test]
fn fade_epochs_backpressure_beats_overflow_retransmit() {
    let outs = run_pair_over("fade_flow", FADE_SEEDS);
    assert_on_most(&outs, "backpressure engages (paused slots)", |o| {
        o.adaptive.paused_slots > 0
    });
    assert_on_all(&outs, "oblivious arm never pauses", |o| o.oblivious.paused_slots == 0);
    assert_on_most(&outs, "oblivious arm overflows more", |o| {
        o.oblivious.blocks_dropped > o.adaptive.blocks_dropped
    });
    assert_on_most(&outs, "oblivious arm pays a ledger pass", |o| {
        o.oblivious.retransmit_passes >= 1
    });
}

/// The whole pair run — per-slot records included — replays
/// byte-identically from the same config: per-slot seeds derive from the
/// session seed, never from link state or controller decisions.
#[test]
fn scenario_pairs_replay_byte_identically() {
    let a = load_pair("drift_ramp").run().unwrap();
    let b = load_pair("drift_ramp").run().unwrap();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "pair replay diverged"
    );
}

/// The drift-ramp adaptation trajectory is pinned byte-exactly against
/// the golden corpus: any change to the PHY, the controller, or the
/// session engine that moves a single rate decision shows up here.
#[test]
fn golden_adaptation_trajectory_matches() {
    use serde::Serialize;

    #[derive(Serialize)]
    struct Golden {
        scenario: String,
        label: String,
        ladder_trajectory: Vec<usize>,
        delivered_payloads: u64,
        failed_payloads: u64,
        attempts: u64,
        rate_switches: u64,
        elapsed_samples: u64,
    }

    let out = load_pair("drift_ramp").run().unwrap();
    let got = Golden {
        scenario: "configs/scenarios/drift_ramp.json".into(),
        label: out.label.clone(),
        ladder_trajectory: out.adaptive.ladder_trajectory(),
        delivered_payloads: out.adaptive.delivered_payloads,
        failed_payloads: out.adaptive.failed_payloads,
        attempts: out.adaptive.attempts,
        rate_switches: out.adaptive.rate_switches,
        elapsed_samples: out.adaptive.elapsed_samples,
    };
    let got: serde_json::Value =
        serde_json::from_str(&serde_json::to_string(&got).unwrap()).unwrap();
    let want: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(format!(
            "{}/results/golden/mac_drift_ramp.json",
            env!("CARGO_MANIFEST_DIR")
        ))
        .unwrap(),
    )
    .unwrap();
    assert_eq!(
        got, want,
        "adaptation trajectory drifted from the golden vector \
         (tools/regen_mac_golden.py regenerates after intentional changes)"
    );
}

/// Every bundled pair config parses, validates, and carries a usable
/// margin gate — the contract the probe CLI and CI job rely on.
#[test]
fn bundled_scenario_configs_are_well_formed() {
    for name in ["drift_ramp", "burst_abort", "fade_flow"] {
        let pair = load_pair(name);
        assert!(!pair.label.is_empty(), "{name}: empty label");
        pair.link.phy.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        pair.adaptive.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        pair.oblivious.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        // The rate-adaptation and early-abort pairs demand a real win;
        // fade_flow's gate is a goodput-parity floor (its mechanism
        // assertions carry the claim).
        let floor = if name == "fade_flow" { 0.5 } else { 1.0 };
        assert!(
            pair.min_margin.is_finite() && pair.min_margin > floor,
            "{name}: margin gate {} must exceed {floor}",
            pair.min_margin
        );
    }
}

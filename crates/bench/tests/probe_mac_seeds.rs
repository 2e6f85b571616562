//! `probe mac --seeds A..B`: one line per session seed, then a summary
//! that gates the median margin.

use serde::Deserialize;
use std::process::Command;

#[derive(Deserialize)]
struct SeedLine {
    seed: u64,
    margin: f64,
}

#[derive(Deserialize)]
struct Summary {
    seeds: String,
    margins: Vec<f64>,
    median_margin: f64,
    min_margin: f64,
    pass: bool,
}

fn probe(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_probe"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .args(args)
        .output()
        .expect("probe runs")
}

#[test]
fn seed_range_prints_each_seed_and_gates_the_median() {
    let out = probe(&[
        "mac",
        "--config",
        "configs/scenarios/burst_abort.json",
        "--seeds",
        "100..103",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "three seed lines and a summary:\n{stdout}");
    let seeds: Vec<SeedLine> = lines[..3]
        .iter()
        .map(|l| serde_json::from_str(l).expect("seed line parses"))
        .collect();
    assert_eq!(
        seeds.iter().map(|s| s.seed).collect::<Vec<_>>(),
        [100, 101, 102]
    );
    let summary: Summary = serde_json::from_str(lines[3]).expect("summary parses");
    assert_eq!(summary.seeds, "100..103");
    assert_eq!(
        summary.margins,
        seeds.iter().map(|s| s.margin).collect::<Vec<_>>()
    );
    let mut sorted = summary.margins.clone();
    sorted.sort_by(f64::total_cmp);
    assert_eq!(summary.median_margin, sorted[1]);
    assert_eq!(summary.pass, summary.median_margin >= summary.min_margin);
    assert_eq!(out.status.success(), summary.pass);
}

#[test]
fn bad_seed_ranges_exit_with_usage() {
    for bad in ["5..5", "9..3", "7", "1..x"] {
        let out = probe(&[
            "mac",
            "--config",
            "configs/scenarios/burst_abort.json",
            "--seeds",
            bad,
        ]);
        assert_eq!(out.status.code(), Some(2), "--seeds {bad}");
    }
    let both = [
        "mac",
        "--config",
        "configs/scenarios/burst_abort.json",
        "--seed",
        "4",
        "--seeds",
        "1..3",
    ];
    assert_eq!(probe(&both).status.code(), Some(2));
}

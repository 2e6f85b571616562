//! `city_metro`: the 10k-tag, one-simulated-hour analytic city run,
//! repeated on one reused engine.

use std::time::Instant;

use fdb_sim::city::{CityEngine, CityReport, CityScenarioSpec};
use serde::Serialize;

use crate::Phase;

/// The `tests/city_scale.rs` 10k-tag spec, with the benchmark's seed.
pub fn metro_spec(seed: u64) -> CityScenarioSpec {
    CityScenarioSpec {
        label: "city-metro".into(),
        seed,
        n_active: 10_000,
        sim_duration_s: 3600.0,
        mean_interarrival_s: 60.0,
        ..CityScenarioSpec::default()
    }
}

/// One timed run.
#[derive(Debug, Default, Serialize)]
pub struct CityRun {
    pub wall_ns: u64,
    pub events: u64,
    pub peak_queue: u64,
    pub offered: u64,
    pub delivered: u64,
    pub lost: u64,
    pub pending: u64,
    pub attempts: u64,
    pub deferrals: u64,
    pub collisions: u64,
    pub aborts: u64,
    pub conserved: bool,
    pub error: Option<String>,
}

#[derive(Debug, Default, Serialize)]
pub struct CityPhase {
    pub seed: u64,
    pub runs: Vec<CityRun>,
}

/// The repeated run, one timed run per step, on one engine and report.
pub struct Metro {
    spec: CityScenarioSpec,
    engine: CityEngine,
    report: CityReport,
    pub out: CityPhase,
}

impl Metro {
    /// Builds the engine and grows its buffers with one untimed run.
    pub fn new(seed: u64) -> Result<Self, String> {
        let spec = metro_spec(seed);
        let mut engine = CityEngine::new();
        let mut report = CityReport::default();
        engine
            .run_into(&spec, &mut report)
            .map_err(|e| format!("city warm-up: {e}"))?;
        Ok(Metro {
            spec,
            engine,
            report,
            out: CityPhase {
                seed,
                runs: Vec::new(),
            },
        })
    }
}

impl Phase for Metro {
    fn step(&mut self) -> Result<(), String> {
        let start = Instant::now();
        let result = self.engine.run_into(&self.spec, &mut self.report);
        let mut run = CityRun {
            wall_ns: start.elapsed().as_nanos() as u64,
            ..CityRun::default()
        };
        match result {
            Ok(()) => {
                let (r, t) = (&self.report, &self.report.totals);
                run.events = r.events_processed;
                run.peak_queue = r.peak_queue;
                run.offered = t.offered;
                run.delivered = t.delivered;
                run.lost = t.lost;
                run.pending = t.pending;
                run.attempts = t.attempts;
                run.deferrals = t.deferrals;
                run.collisions = t.collisions;
                run.aborts = t.aborts;
                run.conserved = t.conserved();
            }
            Err(e) => run.error = Some(e.to_string()),
        }
        self.out.runs.push(run);
        Ok(())
    }

    fn units(&self) -> usize {
        self.out.runs.len()
    }
}

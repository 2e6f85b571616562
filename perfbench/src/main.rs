//! Measurement core of the benchmark (`perfbench/run.py` builds and runs
//! it, then computes and checks the metrics).
//!
//! ```text
//! fdb-perfbench --workload <link_sweep|city_metro|service_mixed>
//!               --seed <n> --seconds <s> --trace <0|1> [--root <repo>]
//! ```
//!
//! Every run sets up the job service (five times, keeping the last), then
//! measures the link sweep, the city and the service, interleaved. The
//! workload decides which of the three gets the largest share of
//! `--seconds`. It prints one JSON document of raw observations.

mod city;
mod link;
mod replay;
mod service;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fdb_core::link::LinkConfig;
use fdb_core::seed::derive_seed;
use fdb_core::trace::TraceSinkSpec;
use fdb_core::PhyError;
use fdb_sim::{run_link, LinkRun};
use serde::{Deserialize, Serialize};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
// Seed salts of the three phases.
const LINK_SALT: u64 = 1;
const CITY_SALT: u64 = 2;
const SERVICE_SALT: u64 = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        root: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.traced = value == "1",
            "--root" => args.root = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The three link configs, as `configs/*.json` hold them.
struct Configs {
    links: Vec<(String, LinkConfig)>,
    marginal: LinkConfig,
}

fn load_link(root: &Path, name: &str) -> Result<LinkConfig, String> {
    let path = root.join("configs").join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::value_from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let link = doc
        .get("link")
        .ok_or(format!("{}: no `link`", path.display()))?;
    LinkConfig::from_value(link).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_configs(root: &Path) -> Result<Configs, String> {
    let mut links = Vec::new();
    for name in ["default_link", "near_tower"] {
        links.push((name.to_string(), load_link(root, name)?));
    }
    Ok(Configs {
        links,
        marginal: load_link(root, "marginal_link")?,
    })
}

/// Which `run_frame` engine this build selects. A build without the
/// `trace` feature refuses a non-null trace sink, and its `run_frame`
/// is the block engine; with `trace`, it is the per-sample reference.
#[derive(Serialize)]
struct Engine {
    fdb_core_trace: bool,
    run_frame_engine: String,
}

fn probe_engine(cfg: &LinkConfig) -> Engine {
    let spec = link::point_spec(0);
    let spec = fdb_sim::MeasureSpec {
        frames: 1,
        trace: TraceSinkSpec::Collect,
        ..spec
    };
    let traced = !matches!(
        run_link(cfg, &spec, LinkRun::new()),
        Err(PhyError::TraceSink { .. })
    );
    Engine {
        fdb_core_trace: traced,
        run_frame_engine: if traced {
            "reference (per-sample)"
        } else {
            "block"
        }
        .into(),
    }
}

#[derive(Serialize)]
struct Output {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    engine: Engine,
    setup_s: Vec<f64>,
    link: link::LinkPhase,
    city: city::CityPhase,
    service: service::ServicePhase,
}

/// One subsystem's measurement, advanced one unit of work at a time.
pub trait Phase {
    /// Runs one unit: a link round, a city run, or a service cycle.
    fn step(&mut self) -> Result<(), String>;
    /// Units run so far.
    fn units(&self) -> usize;
}

/// Interleaves the phases so each gets its share of the run: the next unit
/// always goes to the phase furthest behind its share. Once `total` has
/// passed, only phases short of their minimum run. Interleaving spreads
/// every phase's samples over the whole run, so a burst of load from
/// elsewhere on the machine shifts no phase's median on its own.
fn interleave(
    phases: &mut [&mut dyn Phase],
    shares: &[f64],
    mins: &[usize],
    total: Duration,
) -> Result<(), String> {
    let start = Instant::now();
    let mut spent = vec![0.0f64; phases.len()];
    loop {
        let over = start.elapsed() >= total;
        let next = (0..phases.len())
            .filter(|&i| !over || phases[i].units() < mins[i])
            .min_by(|&a, &b| (spent[a] / shares[a]).total_cmp(&(spent[b] / shares[b])));
        let Some(i) = next else { return Ok(()) };
        let unit = Instant::now();
        phases[i].step()?;
        spent[i] += unit.elapsed().as_secs_f64();
    }
}

fn run(args: &Args, work: &Path) -> Result<Output, String> {
    // Shares of `--seconds` and minimum units of the link, city and
    // service phases. The service loop never gets less than 40%: its miss
    // tail rests on the slowest tenth of the misses, and needs a few
    // hundred misses a run to hold steady on a shared host. The link never
    // gets less than 25%, the city (the steadiest phase) 15%.
    let (shares, mins) = match args.workload.as_str() {
        "link_sweep" => ([0.45, 0.15, 0.4], [8, 3, 100]),
        "city_metro" => ([0.25, 0.35, 0.4], [4, 9, 100]),
        "service_mixed" => ([0.25, 0.15, 0.6], [4, 3, 100]),
        other => return Err(format!("unknown workload `{other}`")),
    };

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut rig = None;
    let mut configs = None;
    for k in 0..SETUPS {
        if let Some((old, _)) = rig.take() {
            service::Rig::stop(old).map_err(|e| format!("service stop: {e}"))?;
        }
        let start = Instant::now();
        let loaded = load_configs(&args.root)?;
        let mut started = service::Rig::start(&work.join(format!("setup{k}")))
            .map_err(|e| format!("service start: {e}"))?;
        let warm_jobs = service::warm_jobs(&loaded.marginal);
        let warmed = service::warm(&mut started, warm_jobs).map_err(|e| format!("warm-up: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        rig = Some((started, warmed));
        configs = Some(loaded);
    }
    let (mut rig, warmed) = rig.expect("at least one set-up");
    let configs = configs.expect("at least one set-up");
    let engine = probe_engine(&configs.links[0].1);

    let mut link = link::Sweep::new(
        &configs.links,
        derive_seed(args.seed, LINK_SALT),
        args.traced,
    );
    let mut city = city::Metro::new(derive_seed(args.seed, CITY_SALT))?;
    let mut svc = service::Loop::new(
        &mut rig,
        &configs.marginal,
        warmed,
        derive_seed(args.seed, SERVICE_SALT),
        mins[2],
        args.traced,
    );
    interleave(
        &mut [&mut link, &mut city, &mut svc],
        &shares,
        &mins,
        Duration::from_secs_f64(args.seconds),
    )?;
    let service = svc.finish().map_err(|e| format!("service: {e}"))?;
    rig.stop().map_err(|e| format!("service stop: {e}"))?;
    Ok(Output {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        engine,
        setup_s,
        link: link.out,
        city: city.out,
        service,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fdb-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = args
        .root
        .join("perfbench")
        .join(".work")
        .join(std::process::id().to_string());
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(out) => println!(
            "{}",
            serde_json::to_string(&out).expect("output serialises")
        ),
        Err(e) => {
            eprintln!("fdb-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

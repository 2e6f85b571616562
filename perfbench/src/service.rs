//! `service_mixed`: a `Service` behind `serve_unix`, driven by one
//! `Client` connection in a closed loop of cache misses and hits.

use std::io::{self, Cursor};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fdb_core::link::LinkConfig;
use fdb_core::seed::derive_seed;
use fdb_service::protocol::{read_line, write_line};
use fdb_service::{serve_unix, Client, Request, Response, ResultStore, Service, ServiceConfig};
use fdb_sim::{run_link, JobSpec, LinkMetrics, LinkRun, MeasureSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::Phase;

/// Frames per miss job.
pub const MISS_FRAMES: u64 = 20;
/// Hits submitted after each miss.
pub const HITS_PER_MISS: usize = 50;
/// Jobs run at set-up so the first hits have something to hit.
pub const WARM_JOBS: u64 = 4;
/// Repetitions of each in-process layer timing in the traced run.
const MICRO_REPS: usize = 200;
/// Miss specs re-run directly through `run_link` in the traced run.
const DIRECT_RUNS: usize = 8;

/// Seed of the warm-up jobs.
const WARM_SEED: u64 = 0x5741_524D;
// Seed salts separating the miss and hit-choice streams.
const MISS_SALT: u64 = 0x4D49_5353;
const HIT_SALT: u64 = 0x4849_5453;

/// A fresh-seed link job on the marginal config: a cache miss.
pub fn miss_job(marginal: &LinkConfig, seed: u64) -> JobSpec {
    JobSpec::Link {
        link: marginal.clone(),
        spec: MeasureSpec {
            frames: MISS_FRAMES,
            payload_len: 64,
            seed,
            feedback_probe: Some(false),
            ..MeasureSpec::default()
        },
    }
}

/// A running service and one client connection to it.
pub struct Rig {
    service: Arc<Service>,
    server: JoinHandle<io::Result<()>>,
    client: Client,
    cache_dir: PathBuf,
}

/// How one submission ended, with client-side timestamps (ns after send).
pub struct Reply {
    pub latency_ns: u64,
    pub accepted_ns: Option<u64>,
    pub first_progress_ns: Option<u64>,
    pub terminal: Response,
}

impl Reply {
    /// The result's bytes, when the job finished `Done`.
    fn result_json(&self) -> Option<String> {
        match &self.terminal {
            Response::Done { result, .. } => serde_json::to_string(result).ok(),
            _ => None,
        }
    }

    fn cached(&self) -> bool {
        matches!(self.terminal, Response::Done { cached: true, .. })
    }

    fn failure(&self) -> Option<String> {
        match &self.terminal {
            Response::Done { .. } => None,
            other => Some(format!("{other:?}")),
        }
    }
}

impl Rig {
    /// Starts a two-worker service on a socket in `dir` and connects.
    pub fn start(dir: &Path) -> io::Result<Rig> {
        std::fs::create_dir_all(dir)?;
        let cache_dir = dir.join("cache");
        let service = Arc::new(Service::start(ServiceConfig::new(&cache_dir))?);
        let socket = dir.join("svc.sock");
        let server = {
            let service = Arc::clone(&service);
            let socket = socket.clone();
            std::thread::spawn(move || serve_unix(service, &socket))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        let client = loop {
            match Client::connect(&socket) {
                Ok(c) => break c,
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        };
        Ok(Rig {
            service,
            server,
            client,
            cache_dir,
        })
    }

    /// Submits `req` and waits for its terminal response.
    pub fn submit(&mut self, req: &Request) -> io::Result<Reply> {
        let start = Instant::now();
        self.client.send(req)?;
        let (mut accepted_ns, mut first_progress_ns) = (None, None);
        loop {
            let resp = self
                .client
                .recv()?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "service hung up"))?;
            let t = start.elapsed().as_nanos() as u64;
            match resp {
                Response::Accepted { .. } => accepted_ns = Some(t),
                Response::Progress { .. } => first_progress_ns = first_progress_ns.or(Some(t)),
                Response::Done { .. }
                | Response::Failed { .. }
                | Response::Cancelled { .. }
                | Response::Rejected { .. } => {
                    return Ok(Reply {
                        latency_ns: t,
                        accepted_ns,
                        first_progress_ns,
                        terminal: resp,
                    })
                }
                _ => {}
            }
        }
    }

    /// The service's cache counters, `(hits, misses)`.
    pub fn cache_counters(&mut self) -> io::Result<(u64, u64)> {
        self.client.send(&Request::Ping)?;
        loop {
            match self.client.recv()? {
                Some(Response::Pong {
                    cache_hits,
                    cache_misses,
                    ..
                }) => return Ok((cache_hits, cache_misses)),
                Some(_) => continue,
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "service hung up",
                    ))
                }
            }
        }
    }

    /// Shuts the service down and waits for every thread it started.
    pub fn stop(mut self) -> io::Result<()> {
        self.client.send(&Request::Shutdown)?;
        while let Some(resp) = self.client.recv()? {
            if matches!(resp, Response::ShuttingDown) {
                break;
            }
        }
        drop(self.client);
        self.server
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))??;
        if let Ok(service) = Arc::try_unwrap(self.service) {
            service.shutdown();
        }
        Ok(())
    }
}

fn submit_request(job: &JobSpec) -> Request {
    Request::Submit {
        job: job.clone(),
        stream_trace: false,
        timeout_ms: 0,
    }
}

/// The jobs warmed at set-up (the initial hit set). They are the same for
/// every seed, so that `setup_s` measures set-up rather than how long the
/// seed's jobs take.
pub fn warm_jobs(marginal: &LinkConfig) -> Vec<JobSpec> {
    (0..WARM_JOBS)
        .map(|i| miss_job(marginal, derive_seed(WARM_SEED, i)))
        .collect()
}

/// Runs the warm-up jobs; returns each job with its result bytes.
pub fn warm(rig: &mut Rig, jobs: Vec<JobSpec>) -> io::Result<Vec<(JobSpec, String)>> {
    let mut done = Vec::with_capacity(jobs.len());
    for job in jobs {
        let reply = rig.submit(&submit_request(&job))?;
        let bytes = reply.result_json().ok_or_else(|| {
            io::Error::other(format!("warm-up job failed: {:?}", reply.failure()))
        })?;
        done.push((job, bytes));
    }
    Ok(done)
}

#[derive(Debug, Default, Serialize)]
pub struct ServicePhase {
    pub wall_ns: u64,
    pub min_misses: usize,
    pub hits_per_miss: usize,
    /// Send → terminal response, per submission kind.
    pub miss_ns: Vec<u64>,
    pub hit_ns: Vec<u64>,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Hits whose bytes differ from their miss (counted in `failed`).
    pub byte_mismatches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub expected_hits: u64,
    pub expected_misses: u64,
    /// Summed over the miss results, for the output band check.
    pub miss_frames: u64,
    pub miss_locked: u64,
    pub miss_delivered: u64,
    pub miss_sync_attempts: u64,
    pub miss_sync_rejections: u64,
    pub trace: Option<ServiceTrace>,
}

/// The traced run's service layers.
#[derive(Debug, Default, Serialize)]
pub struct ServiceTrace {
    /// Accepted → first Progress, and first Progress → Done, per miss.
    pub wait_ns: Vec<u64>,
    pub run_ns: Vec<u64>,
    pub content_hash_ns: Vec<u64>,
    pub request_encode_ns: Vec<u64>,
    pub response_decode_ns: Vec<u64>,
    pub cache_lookup_ns: Vec<u64>,
    pub run_link_ns: Vec<u64>,
}

impl ServicePhase {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// The closed loop, one cycle per step: one miss, then [`HITS_PER_MISS`]
/// hits on jobs chosen at random among those already done.
pub struct Loop<'a> {
    rig: &'a mut Rig,
    marginal: &'a LinkConfig,
    done: Vec<(JobSpec, String)>,
    seed: u64,
    pick: ChaCha8Rng,
    last_done: Option<Response>,
    pub out: ServicePhase,
}

impl<'a> Loop<'a> {
    /// `warmed` are the set-up's jobs with their result bytes.
    pub fn new(
        rig: &'a mut Rig,
        marginal: &'a LinkConfig,
        warmed: Vec<(JobSpec, String)>,
        seed: u64,
        min_misses: usize,
        traced: bool,
    ) -> Self {
        Loop {
            rig,
            marginal,
            out: ServicePhase {
                min_misses,
                hits_per_miss: HITS_PER_MISS,
                expected_misses: warmed.len() as u64,
                trace: traced.then(ServiceTrace::default),
                ..ServicePhase::default()
            },
            done: warmed,
            seed,
            pick: ChaCha8Rng::seed_from_u64(seed ^ HIT_SALT),
            last_done: None,
        }
    }

    fn cycle(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let phase = &mut self.out;
        let job = miss_job(
            self.marginal,
            derive_seed(self.seed ^ MISS_SALT, phase.miss_ns.len() as u64),
        );
        let reply = self.rig.submit(&submit_request(&job))?;
        phase.expected_misses += 1;
        phase.miss_ns.push(reply.latency_ns);
        if let (Some(tr), Some(a), Some(p)) = (
            phase.trace.as_mut(),
            reply.accepted_ns,
            reply.first_progress_ns,
        ) {
            tr.wait_ns.push(p.saturating_sub(a));
            tr.run_ns.push(reply.latency_ns.saturating_sub(p));
        }
        match (reply.result_json(), reply.cached()) {
            (Some(bytes), false) => {
                record_outcome(phase, &bytes);
                self.done.push((job, bytes));
            }
            (Some(_), true) => phase.fail("fresh-seed job was served from the cache".into()),
            (None, _) => phase.fail(reply.failure().unwrap_or_default()),
        }
        for _ in 0..HITS_PER_MISS {
            let (job, bytes) = &self.done[self.pick.gen_range(0..self.done.len())];
            let req = submit_request(job);
            let reply = self.rig.submit(&req)?;
            phase.expected_hits += 1;
            phase.hit_ns.push(reply.latency_ns);
            match reply.result_json() {
                Some(b) if &b == bytes && reply.cached() => {}
                Some(b) if &b != bytes => {
                    phase.byte_mismatches += 1;
                    phase.fail("hit bytes differ from the miss".into());
                }
                Some(_) => phase.fail("resubmitted job was not served from the cache".into()),
                None => phase.fail(reply.failure().unwrap_or_default()),
            }
            self.last_done = Some(reply.terminal);
        }
        phase.wall_ns += start.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Reads the service's cache counters and, in the traced run, times
    /// the service layers in process.
    pub fn finish(self) -> io::Result<ServicePhase> {
        let mut out = self.out;
        (out.cache_hits, out.cache_misses) = self.rig.cache_counters()?;
        if let Some(tr) = out.trace.as_mut() {
            micro_layers(tr, self.rig, &self.done, self.last_done)?;
        }
        Ok(out)
    }
}

impl Phase for Loop<'_> {
    fn step(&mut self) -> Result<(), String> {
        self.cycle().map_err(|e| format!("service: {e}"))
    }

    fn units(&self) -> usize {
        self.out.miss_ns.len()
    }
}

fn record_outcome(phase: &mut ServicePhase, bytes: &str) {
    let metrics = serde_json::value_from_str(bytes).ok().and_then(|v| {
        let m = v.get("Link")?.get("metrics")?;
        LinkMetrics::from_value(m).ok()
    });
    match metrics {
        Some(m) => {
            phase.miss_frames += m.frames;
            phase.miss_locked += m.locked;
            phase.miss_delivered += m.fully_delivered;
            phase.miss_sync_attempts += m.sync_attempts;
            phase.miss_sync_rejections += m.sync_rejections;
        }
        None => phase.fail("miss result is not a link result".into()),
    }
}

fn timed(reps: usize, mut f: impl FnMut()) -> Vec<u64> {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect()
}

/// In-process timings of the layers a hit touches, and of a miss's
/// `run_link` without the service around it.
fn micro_layers(
    tr: &mut ServiceTrace,
    rig: &Rig,
    done: &[(JobSpec, String)],
    done_reply: Option<Response>,
) -> io::Result<()> {
    let job = &done[0].0;
    tr.content_hash_ns = timed(MICRO_REPS, || {
        std::hint::black_box(job.content_hash());
    });
    let req = submit_request(job);
    let mut line = Vec::new();
    tr.request_encode_ns = timed(MICRO_REPS, || {
        line.clear();
        write_line(&mut line, &req).expect("encode to memory");
    });
    if let Some(resp) = done_reply {
        let mut line = Vec::new();
        write_line(&mut line, &resp)?;
        tr.response_decode_ns = timed(MICRO_REPS, || {
            let parsed: Option<Response> = read_line(&mut Cursor::new(&line)).expect("decode");
            std::hint::black_box(parsed);
        });
    }
    // A second store over the same directory, so these lookups do not
    // touch the service's own hit and miss counters.
    let store = ResultStore::open(&rig.cache_dir)?;
    let hash = job.content_hash();
    tr.cache_lookup_ns = timed(MICRO_REPS, || {
        std::hint::black_box(store.lookup(&hash));
    });
    for (job, _) in done.iter().rev().take(DIRECT_RUNS) {
        if let JobSpec::Link { link, spec } = job {
            let start = Instant::now();
            run_link(link, spec, LinkRun::new()).map_err(io::Error::other)?;
            tr.run_link_ns.push(start.elapsed().as_nanos() as u64);
        }
    }
    Ok(())
}

//! Frame-level diagnostics: structured per-stage event capture through
//! pluggable **trace sinks**.
//!
//! A frame run with a [`TraceSink`] attached
//! ([`crate::link::FrameRun::with_sink`]) emits a [`TraceEvent`] stream
//! into it. The stream covers every stage of the PHY pipeline:
//!
//! * **tx** — chip emission ([`TraceEvent::TxChip`]);
//! * **channel** — instantaneous source power and both detector envelopes
//!   ([`TraceEvent::Channel`]);
//! * **sic** — self-interference correction input/output, including
//!   blanked samples ([`TraceEvent::Sic`]);
//! * **rx** — acquisition lock with correlation score, rejected lock
//!   candidates and re-arms from two-stage verification, per-chip energies
//!   against the live slicer threshold, decoded bits, and per-block CRC
//!   verdicts ([`TraceEvent::RxLock`], [`TraceEvent::RxSyncReject`],
//!   [`TraceEvent::RxRearm`], [`TraceEvent::RxChip`],
//!   [`TraceEvent::RxBit`], [`TraceEvent::RxBlock`]);
//! * **feedback** — integrate-and-dump half-bit integrals, per-pilot
//!   margins, the pilot verification verdict, and decoded status bits
//!   ([`TraceEvent::FbHalf`], [`TraceEvent::FbPilot`],
//!   [`TraceEvent::FbPilotsChecked`], [`TraceEvent::FbBit`]);
//! * **mac reflex** — the abort decision ([`TraceEvent::Abort`]);
//! * **fault injection** — scripted impairment windows opening and
//!   closing ([`TraceEvent::Fault`], emitted only when a fault plan is
//!   attached to the run).
//!
//! Sample-rate stages (tx/channel/sic/rx-chip) are decimated to chip
//! boundaries so a whole frame fits in the default ring capacity; decision
//! events are recorded unconditionally.
//!
//! ## Choosing a sink backend
//!
//! * [`RingSink`] — a bounded in-memory ring ([`FrameTrace`]). When it
//!   overflows, the *oldest* events are evicted and counted, so the tail
//!   of a frame — where failures usually manifest — is always retained.
//!   Pick it to inspect one frame interactively (tests, the probe CLI's
//!   single-frame mode).
//! * [`JsonlFileSink`] — streams events to a JSON-lines file, staging at
//!   most one frame in memory and flushing on every frame boundary, with
//!   byte/event counters and optional size-based rotation. Pick it for
//!   long calibration sweeps where an in-memory ring would either grow
//!   without bound or silently evict everything but the last frame.
//! * [`CollectSink`] — unbounded in-memory `Vec`. Pick it only in tests
//!   that assert on the full event stream of a short run.
//! * [`NullSink`] — counts and discards. Pick it when only the
//!   `events_recorded` tally matters.
//! * [`ChannelSink`] — stages frames exactly like [`JsonlFileSink`] but
//!   sends each completed frame's JSONL block through an in-process
//!   channel as a [`TraceChunk`] instead of writing a file. Pick it to
//!   stream a live trace across threads — the job service forwards the
//!   chunks over its client socket, and because both sinks share one
//!   staging engine the streamed bytes equal the file sink's output
//!   byte-for-byte.
//!
//! Sink selection is serialisable through [`TraceSinkSpec`] (carried on
//! `fdb_sim::MeasureSpec`), so a scenario JSON can request streaming
//! capture without code changes.
//!
//! Without a sink, `run_frame` runs the block pipeline, which contains no
//! tracing code at all — zero hot-path cost.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Default ring capacity in events: comfortably holds a chip-decimated
/// 256-byte frame with full feedback activity.
pub const DEFAULT_TRACE_CAPACITY: usize = 32_768;

/// One structured event from a single pipeline stage.
///
/// `sample` is always the link-clock sample index at which the event was
/// recorded (device-clock resampling happens downstream of the fields
/// observed here).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Transmitter A emitted a chip: its antenna state for this chip.
    TxChip {
        /// Link-clock sample index.
        sample: usize,
        /// Chip index since frame start.
        chip: usize,
        /// `true` = reflect.
        state: bool,
    },
    /// Channel/ambient snapshot at the detectors.
    Channel {
        /// Link-clock sample index.
        sample: usize,
        /// Instantaneous ambient power at the source (watts).
        source_power_w: f64,
        /// Detected envelope at device A (post detector RC).
        env_a: f64,
        /// Detected envelope at device B.
        env_b: f64,
    },
    /// One self-interference correction.
    Sic {
        /// Link-clock sample index.
        sample: usize,
        /// `'A'` (feedback path) or `'B'` (data path).
        device: char,
        /// Device's own antenna state at this sample.
        own_state: bool,
        /// Detected envelope before correction.
        input: f64,
        /// Corrected envelope, or `None` when transition-blanked.
        output: Option<f64>,
    },
    /// B's receiver achieved preamble lock.
    RxLock {
        /// Link-clock sample index.
        sample: usize,
        /// Peak normalised correlation at lock.
        score: f64,
        /// Highest correlation observed during the whole hunt (equals
        /// `score` at lock; keeps climbing history for missed locks).
        peak_seen: f64,
    },
    /// B's receiver rejected a candidate lock (two-stage verification).
    RxSyncReject {
        /// Link-clock sample index.
        sample: usize,
        /// Peak correlation of the rejected candidate.
        score: f64,
        /// Peak-to-sidelobe ratio of the candidate trajectory.
        sharpness: f64,
        /// Which stage failed: `"peak_shape"`, `"flat_history"`,
        /// `"preamble_mismatch"` or `"header_crc"`. Borrowed from the
        /// receiver's static labels on the hot path (no per-event
        /// allocation); owned only when deserialized back from JSONL.
        reason: Cow<'static, str>,
    },
    /// B's receiver re-armed and returned to acquisition after a
    /// rejected lock.
    RxRearm {
        /// Link-clock sample index.
        sample: usize,
        /// Candidate locks attempted so far this frame.
        attempts: usize,
    },
    /// B integrated one data chip.
    RxChip {
        /// Link-clock sample index.
        sample: usize,
        /// Mean envelope over the chip.
        energy: f64,
        /// Live slicer threshold the chip was compared against.
        threshold: f64,
    },
    /// B decoded one data bit.
    RxBit {
        /// Link-clock sample index.
        sample: usize,
        /// Bit index since lock.
        index: usize,
        /// Decoded value.
        bit: bool,
    },
    /// B completed one payload block.
    RxBlock {
        /// Link-clock sample index.
        sample: usize,
        /// Block index within the frame.
        index: usize,
        /// CRC verdict.
        ok: bool,
    },
    /// A's feedback integrator dumped one half-bit integral.
    FbHalf {
        /// Link-clock sample index.
        sample: usize,
        /// Mean corrected envelope over the half-bit.
        integral: f64,
    },
    /// A consumed one feedback pilot bit.
    FbPilot {
        /// Link-clock sample index.
        sample: usize,
        /// Pilot index (0-based).
        index: usize,
        /// `|E_first − E_second|` for this pilot.
        margin: f64,
    },
    /// A finished checking the pilot sequence.
    FbPilotsChecked {
        /// Link-clock sample index.
        sample: usize,
        /// Whether the feedback channel was verified alive.
        verified: bool,
    },
    /// A decoded one post-pilot feedback bit.
    FbBit {
        /// Link-clock sample index.
        sample: usize,
        /// Decoded status bit.
        bit: bool,
        /// Decision margin.
        margin: f64,
    },
    /// A aborted the frame on verified NACK.
    Abort {
        /// Link-clock sample index.
        sample: usize,
    },
    /// A scripted fault window opened (`active = true`) or closed
    /// (`active = false`) — see `fdb_channel::impairment`.
    Fault {
        /// Link-clock sample index.
        sample: usize,
        /// Fault class label (`"noise_burst"`, `"dropout"`,
        /// `"clock_drift"`, `"sic_gain"`, `"ambient_fade"`,
        /// `"interferer"`). Borrowed from the impairment engine's static
        /// labels on the hot path; owned only after deserialization.
        kind: Cow<'static, str>,
        /// `true` at the rising edge of the window, `false` at the
        /// falling edge.
        active: bool,
    },
}

impl TraceEvent {
    /// Coarse stage label, for filtering: `"tx"`, `"channel"`, `"sic"`,
    /// `"rx"`, `"feedback"`, `"mac"` or `"fault"`.
    pub fn stage(&self) -> &'static str {
        match self {
            TraceEvent::TxChip { .. } => "tx",
            TraceEvent::Channel { .. } => "channel",
            TraceEvent::Sic { .. } => "sic",
            TraceEvent::RxLock { .. }
            | TraceEvent::RxSyncReject { .. }
            | TraceEvent::RxRearm { .. }
            | TraceEvent::RxChip { .. }
            | TraceEvent::RxBit { .. }
            | TraceEvent::RxBlock { .. } => "rx",
            TraceEvent::FbHalf { .. }
            | TraceEvent::FbPilot { .. }
            | TraceEvent::FbPilotsChecked { .. }
            | TraceEvent::FbBit { .. } => "feedback",
            TraceEvent::Abort { .. } => "mac",
            TraceEvent::Fault { .. } => "fault",
        }
    }
}

/// Bounded ring buffer of [`TraceEvent`]s for one frame.
#[derive(Debug, Clone)]
pub struct FrameTrace {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: usize,
}

impl FrameTrace {
    /// Creates an empty trace holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FrameTrace {
            events: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest once full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted due to the capacity bound.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Pre-sizes the ring for up to `events` retained events (clamped to
    /// the capacity bound) so steady-state recording never grows it.
    pub fn reserve(&mut self, events: usize) {
        let want = events.min(self.capacity);
        self.events.reserve(want.saturating_sub(self.events.len()));
    }

    /// Events belonging to one coarse stage (see [`TraceEvent::stage`]).
    pub fn stage_events<'a>(&'a self, stage: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events().filter(move |e| e.stage() == stage)
    }
}

// ---------------------------------------------------------------------------
// The sink abstraction
// ---------------------------------------------------------------------------

/// Consumer of the per-frame [`TraceEvent`] stream.
///
/// `FdLink::run_frame_into` calls only [`record`](TraceSink::record); the
/// *driver* that knows frame indices (the `fdb_sim` runner, the probe CLI)
/// brackets each frame with [`begin_frame`](TraceSink::begin_frame) /
/// [`end_frame`](TraceSink::end_frame) so streaming backends can label
/// frames and flush on frame boundaries. A sink that is never bracketed
/// still works: [`JsonlFileSink`] opens an auto-numbered frame on the
/// first unbracketed `record`.
///
/// Sinks are deliberately infallible on the hot path: a backend failure
/// (e.g. a full disk) flips the sink into a dead state that counts every
/// subsequent event as dropped, and is surfaced afterwards through
/// [`io_error`](TraceSink::io_error).
pub trait TraceSink {
    /// Pre-sizes internal buffers for frames expected to carry up to
    /// `events` events each — the explicit half of the sinks' reuse
    /// contract. Drivers call this once before a frame loop; steady-state
    /// recording then reuses (never re-grows) the reserved storage. The
    /// default is a no-op for sinks with nothing to size.
    fn reserve(&mut self, events: usize) {
        let _ = events;
    }

    /// Marks the start of frame `frame` (driver-assigned index).
    fn begin_frame(&mut self, frame: u64) {
        let _ = frame;
    }

    /// Consumes one event.
    fn record(&mut self, event: TraceEvent);

    /// Marks the end of the current frame; streaming sinks flush here.
    fn end_frame(&mut self) {}

    /// Events accepted (recorded minus those refused after a backend
    /// failure; includes events later evicted by a bounded backend).
    fn events_recorded(&self) -> u64;

    /// Events lost: ring eviction, per-frame caps, or write failures.
    fn events_dropped(&self) -> u64;

    /// First unrecoverable backend error, if any. The sink drops all
    /// events after it.
    fn io_error(&self) -> Option<String> {
        None
    }
}

/// [`TraceSink`] over a bounded [`FrameTrace`] ring — today's in-memory
/// capture, preserving oldest-first eviction and overflow counting.
#[derive(Debug)]
pub struct RingSink {
    trace: FrameTrace,
    recorded: u64,
}

impl RingSink {
    /// Ring sink holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            trace: FrameTrace::new(capacity),
            recorded: 0,
        }
    }

    /// The ring so far.
    pub fn trace(&self) -> &FrameTrace {
        &self.trace
    }

    /// Consumes the sink, handing the ring to the caller.
    pub fn into_trace(self) -> FrameTrace {
        self.trace
    }
}

impl TraceSink for RingSink {
    fn reserve(&mut self, events: usize) {
        self.trace.reserve(events);
    }

    fn record(&mut self, event: TraceEvent) {
        self.recorded += 1;
        self.trace.record(event);
    }

    fn events_recorded(&self) -> u64 {
        self.recorded
    }

    fn events_dropped(&self) -> u64 {
        self.trace.dropped() as u64
    }
}

/// Counts and discards every event.
#[derive(Debug, Default)]
pub struct NullSink {
    recorded: u64,
}

impl NullSink {
    /// A fresh discarding sink.
    pub fn new() -> Self {
        NullSink::default()
    }
}

impl TraceSink for NullSink {
    fn record(&mut self, _event: TraceEvent) {
        self.recorded += 1;
    }

    fn events_recorded(&self) -> u64 {
        self.recorded
    }

    fn events_dropped(&self) -> u64 {
        0
    }
}

/// Unbounded in-memory sink for tests that assert on the full stream.
#[derive(Debug, Default)]
pub struct CollectSink {
    events: Vec<TraceEvent>,
    frames: u64,
    frame_open: bool,
}

impl CollectSink {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// Everything recorded so far, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, returning the collected events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Completed (`begin`/`end`-bracketed) frames seen.
    pub fn frames(&self) -> u64 {
        self.frames
    }
}

impl TraceSink for CollectSink {
    fn reserve(&mut self, events: usize) {
        self.events.reserve(events.saturating_sub(self.events.len()));
    }

    fn begin_frame(&mut self, _frame: u64) {
        self.frame_open = true;
    }

    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    fn end_frame(&mut self) {
        if self.frame_open {
            self.frames += 1;
            self.frame_open = false;
        }
    }

    fn events_recorded(&self) -> u64 {
        self.events.len() as u64
    }

    fn events_dropped(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// JSONL streaming sink
// ---------------------------------------------------------------------------

/// Closing statistics of a [`JsonlFileSink`] (see
/// [`finish`](JsonlFileSink::finish)).
#[derive(Debug, Clone, Serialize)]
pub struct JsonlSinkSummary {
    /// Every file written, in chronological order (rotated-out files
    /// first, the live path last).
    pub files: Vec<String>,
    /// Frames completed.
    pub frames: u64,
    /// Events written.
    pub events: u64,
    /// Events dropped (per-frame cap or write failure).
    pub dropped: u64,
    /// Total bytes written across all files.
    pub bytes: u64,
}

/// Shared line-staging engine behind the streaming sinks.
///
/// Stages exactly one frame's JSONL block in memory — a
/// `{"frame_start":N}` marker, at most `frame_cap` event lines, and a
/// `{"frame_end":N,"events":K,"dropped":D}` marker — so that every
/// streaming backend emits **byte-identical framing** for the same event
/// stream. [`JsonlFileSink`] appends the block to a file;
/// [`ChannelSink`] sends it through an in-process channel (how the job
/// service streams traces over its socket). The service-smoke check that
/// a socket-streamed trace equals the file sink's output byte-for-byte
/// rests on both backends staging through this one engine.
#[derive(Debug)]
struct FrameStager {
    /// Lines of the currently open frame.
    staged: String,
    /// Recycled block storage handed back by the backend after a
    /// completed frame was consumed — the next frame stages into it
    /// instead of re-growing a fresh `String`.
    spare: String,
    staged_events: u64,
    frame: Option<u64>,
    next_auto_frame: u64,
    frame_dropped: u64,
    frame_cap: usize,
    peak_staged_bytes: usize,
}

/// One completed frame's staged JSONL block.
#[derive(Debug)]
struct StagedFrame {
    /// Driver-assigned frame index.
    frame: u64,
    /// The frame's lines, each `\n`-terminated.
    text: String,
    /// Event lines staged (markers excluded).
    events: u64,
}

impl FrameStager {
    /// Nominal serialized bytes per event line, for [`reserve`](FrameStager::reserve).
    const NOMINAL_LINE_BYTES: usize = 48;

    fn new() -> Self {
        FrameStager {
            staged: String::new(),
            spare: String::new(),
            staged_events: 0,
            frame: None,
            next_auto_frame: 0,
            frame_dropped: 0,
            frame_cap: DEFAULT_TRACE_CAPACITY,
            peak_staged_bytes: 0,
        }
    }

    fn set_frame_cap(&mut self, cap: usize) {
        self.frame_cap = cap.max(1);
    }

    /// Pre-sizes the staging buffer for frames of up to `events` lines
    /// (clamped to the per-frame cap): the larger of the high-water mark
    /// already observed and a nominal per-line estimate.
    fn reserve(&mut self, events: usize) {
        let want = self
            .peak_staged_bytes
            .max(events.min(self.frame_cap).saturating_mul(Self::NOMINAL_LINE_BYTES));
        let cap = self.staged.capacity();
        if cap < want {
            self.staged.reserve(want - cap);
        }
    }

    /// Hands a consumed frame block's storage back for reuse by the next
    /// frame.
    fn recycle(&mut self, mut text: String) {
        text.clear();
        if text.capacity() > self.spare.capacity() {
            self.spare = text;
        }
    }

    fn open(&self) -> bool {
        self.frame.is_some()
    }

    fn stage_line(&mut self, line: &str) {
        self.staged.push_str(line);
        self.staged.push('\n');
        self.peak_staged_bytes = self.peak_staged_bytes.max(self.staged.len());
    }

    /// Opens frame `frame` (caller guarantees no frame is open).
    fn begin_frame(&mut self, frame: u64) {
        debug_assert!(self.frame.is_none(), "frame already open");
        if self.staged.capacity() < self.spare.capacity() {
            std::mem::swap(&mut self.staged, &mut self.spare);
        }
        self.frame = Some(frame);
        self.frame_dropped = 0;
        self.stage_line(&format!("{{\"frame_start\":{frame}}}"));
    }

    /// Opens the next auto-numbered frame (unbracketed `record`).
    fn begin_auto_frame(&mut self) {
        let frame = self.next_auto_frame;
        self.begin_frame(frame);
    }

    /// Stages one event line; `false` means the event was dropped (cap
    /// reached or serialization failed).
    fn record(&mut self, event: &TraceEvent) -> bool {
        if self.staged_events >= self.frame_cap as u64 {
            self.frame_dropped += 1;
            return false;
        }
        match serde_json::to_string(event) {
            Ok(line) => {
                self.stage_line(&line);
                self.staged_events += 1;
                true
            }
            Err(_) => {
                self.frame_dropped += 1;
                false
            }
        }
    }

    /// Closes the open frame, staging the end marker, and hands the
    /// completed block to the backend. `None` when no frame was open.
    fn end_frame(&mut self) -> Option<StagedFrame> {
        let frame = self.frame.take()?;
        self.next_auto_frame = frame + 1;
        self.stage_line(&format!(
            "{{\"frame_end\":{frame},\"events\":{},\"dropped\":{}}}",
            self.staged_events, self.frame_dropped
        ));
        let text = std::mem::take(&mut self.staged);
        let out = StagedFrame {
            frame,
            text,
            events: self.staged_events,
        };
        self.staged_events = 0;
        self.frame_dropped = 0;
        Some(out)
    }

    /// Discards anything currently staged (backend failure), returning
    /// how many staged event lines never reached the backend.
    fn abandon_staged(&mut self) -> u64 {
        let n = self.staged_events;
        self.staged.clear();
        self.staged_events = 0;
        n
    }
}

/// Streams [`TraceEvent`]s to a JSON-lines file.
///
/// Each frame appears as a `{"frame_start":N}` line, the frame's event
/// lines (one externally-tagged [`TraceEvent`] object per line), and a
/// `{"frame_end":N,"events":K,"dropped":D}` line. At most one frame is
/// staged in memory — bounded by the per-frame event cap — and the staged
/// bytes are written and flushed on every frame boundary, so resident
/// memory stays constant over arbitrarily long sweeps. Rotation (when
/// enabled) also happens only on frame boundaries, so a frame is never
/// split across files.
#[derive(Debug)]
pub struct JsonlFileSink {
    path: PathBuf,
    writer: Option<BufWriter<File>>,
    stager: FrameStager,
    rotate_bytes: Option<u64>,
    /// Rotated-out files, chronological.
    rotated: Vec<PathBuf>,
    bytes_current: u64,
    bytes_total: u64,
    frames: u64,
    events: u64,
    dropped: u64,
    error: Option<String>,
}

impl JsonlFileSink {
    /// Creates (truncates) `path` and returns a sink streaming to it,
    /// with the default per-frame cap ([`DEFAULT_TRACE_CAPACITY`]) and no
    /// rotation.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let writer = BufWriter::new(File::create(&path)?);
        Ok(JsonlFileSink {
            path,
            writer: Some(writer),
            stager: FrameStager::new(),
            rotate_bytes: None,
            rotated: Vec::new(),
            bytes_current: 0,
            bytes_total: 0,
            frames: 0,
            events: 0,
            dropped: 0,
            error: None,
        })
    }

    /// Caps the events retained per frame (mirrors the ring bound; the
    /// overflow is counted as dropped). Zero is clamped to 1.
    pub fn with_frame_cap(mut self, cap: usize) -> Self {
        self.stager.set_frame_cap(cap);
        self
    }

    /// Starts a new file once the current one exceeds `bytes` (checked on
    /// frame boundaries): the live path is renamed to `<path>.1`,
    /// `<path>.2`, … and writing continues at `path`.
    pub fn with_rotate_bytes(mut self, bytes: Option<u64>) -> Self {
        self.rotate_bytes = bytes;
        self
    }

    /// Largest number of bytes ever staged in memory for one frame — the
    /// resident-memory high-water mark of the sink.
    pub fn peak_staged_bytes(&self) -> usize {
        self.stager.peak_staged_bytes
    }

    /// Every file written so far, chronological (rotated first, live
    /// path last).
    pub fn files(&self) -> Vec<PathBuf> {
        let mut files = self.rotated.clone();
        files.push(self.path.clone());
        files
    }

    fn fail(&mut self, e: &std::io::Error) {
        if self.error.is_none() {
            self.error = Some(format!("{}: {e}", self.path.display()));
        }
        self.writer = None;
        // Anything staged never reached the file: recount it as dropped.
        let lost = self.stager.abandon_staged();
        self.dropped += lost;
        self.events -= lost;
    }

    fn rotate(&mut self) {
        let rotated_to = PathBuf::from(format!(
            "{}.{}",
            self.path.display(),
            self.rotated.len() + 1
        ));
        // Close (flushing) before the rename.
        self.writer = None;
        if let Err(e) = std::fs::rename(&self.path, &rotated_to) {
            self.fail(&e);
            return;
        }
        match File::create(&self.path) {
            Ok(f) => {
                self.rotated.push(rotated_to);
                self.bytes_current = 0;
                self.writer = Some(BufWriter::new(f));
            }
            Err(e) => self.fail(&e),
        }
    }

    /// Flushes any open frame and closes the sink, returning the final
    /// statistics (or the first backend error).
    pub fn finish(mut self) -> std::io::Result<JsonlSinkSummary> {
        self.end_frame();
        if let Some(mut w) = self.writer.take() {
            if let Err(e) = w.flush() {
                self.fail(&e);
            }
        }
        match self.error {
            Some(reason) => Err(std::io::Error::other(reason)),
            None => Ok(JsonlSinkSummary {
                files: self
                    .files()
                    .iter()
                    .map(|p| p.display().to_string())
                    .collect(),
                frames: self.frames,
                events: self.events,
                dropped: self.dropped,
                bytes: self.bytes_total,
            }),
        }
    }
}

impl TraceSink for JsonlFileSink {
    fn reserve(&mut self, events: usize) {
        self.stager.reserve(events);
    }

    fn begin_frame(&mut self, frame: u64) {
        if self.stager.open() {
            self.end_frame();
        }
        if self.error.is_some() {
            return;
        }
        self.stager.begin_frame(frame);
    }

    fn record(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            self.dropped += 1;
            return;
        }
        if !self.stager.open() {
            self.stager.begin_auto_frame();
        }
        if self.stager.record(&event) {
            self.events += 1;
        } else {
            self.dropped += 1;
        }
    }

    fn end_frame(&mut self) {
        let Some(staged) = self.stager.end_frame() else {
            return;
        };
        let Some(w) = self.writer.as_mut() else {
            return;
        };
        let res = w.write_all(staged.text.as_bytes()).and_then(|_| w.flush());
        if let Err(e) = res {
            self.fail(&e);
            // The frame was taken from the stager before the write, so
            // recount its events here rather than in `fail`.
            self.dropped += staged.events;
            self.events -= staged.events;
            return;
        }
        self.bytes_current += staged.text.len() as u64;
        self.bytes_total += staged.text.len() as u64;
        self.frames += 1;
        self.stager.recycle(staged.text);
        if let Some(limit) = self.rotate_bytes {
            if self.bytes_current >= limit {
                self.rotate();
            }
        }
    }

    fn events_recorded(&self) -> u64 {
        self.events
    }

    fn events_dropped(&self) -> u64 {
        self.dropped
    }

    fn io_error(&self) -> Option<String> {
        self.error.clone()
    }
}

// ---------------------------------------------------------------------------
// Channel-streaming sink
// ---------------------------------------------------------------------------

/// One completed frame's JSONL block, as streamed by [`ChannelSink`].
///
/// `text` is **exactly** the bytes [`JsonlFileSink`] would have appended
/// to its file for the same frame under the same per-frame cap: the
/// `{"frame_start":N}` line, the (capped) event lines, and the
/// `{"frame_end":N,"events":K,"dropped":D}` line, each `\n`-terminated.
/// Concatenating every chunk of a run reproduces the file sink's output
/// byte-for-byte — the property the job service's socket trace streaming
/// is verified against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceChunk {
    /// Driver-assigned frame index.
    pub frame: u64,
    /// The frame's JSONL block.
    pub text: String,
}

/// Streams each completed frame's JSONL block through an
/// [`std::sync::mpsc`] channel.
///
/// The socket/channel backend the [`TraceSink`] trait was designed for:
/// the run side records events exactly as it would into a
/// [`JsonlFileSink`]; a receiver on another thread (the job service's
/// client connection) drains [`TraceChunk`]s as frames complete. A
/// disconnected receiver behaves like a failed file write — the sink goes
/// inert, subsequent events count as dropped, and the error surfaces via
/// [`TraceSink::io_error`].
#[derive(Debug)]
pub struct ChannelSink {
    tx: std::sync::mpsc::Sender<TraceChunk>,
    stager: FrameStager,
    frames: u64,
    events: u64,
    dropped: u64,
    error: Option<String>,
}

impl ChannelSink {
    /// Wraps `tx` with the default per-frame cap
    /// ([`DEFAULT_TRACE_CAPACITY`]).
    pub fn new(tx: std::sync::mpsc::Sender<TraceChunk>) -> Self {
        ChannelSink {
            tx,
            stager: FrameStager::new(),
            frames: 0,
            events: 0,
            dropped: 0,
            error: None,
        }
    }

    /// Caps the events retained per frame (must match the file sink's cap
    /// for byte-identical output). Zero is clamped to 1.
    pub fn with_frame_cap(mut self, cap: usize) -> Self {
        self.stager.set_frame_cap(cap);
        self
    }

    /// Frames sent so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Flushes any open frame and returns the send-side statistics (or
    /// the disconnect error).
    pub fn finish(mut self) -> std::io::Result<JsonlSinkSummary> {
        self.end_frame();
        match self.error {
            Some(reason) => Err(std::io::Error::other(reason)),
            None => Ok(JsonlSinkSummary {
                files: Vec::new(),
                frames: self.frames,
                events: self.events,
                dropped: self.dropped,
                bytes: 0,
            }),
        }
    }
}

impl TraceSink for ChannelSink {
    fn reserve(&mut self, events: usize) {
        self.stager.reserve(events);
    }

    fn begin_frame(&mut self, frame: u64) {
        if self.stager.open() {
            self.end_frame();
        }
        if self.error.is_some() {
            return;
        }
        self.stager.begin_frame(frame);
    }

    fn record(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            self.dropped += 1;
            return;
        }
        if !self.stager.open() {
            self.stager.begin_auto_frame();
        }
        if self.stager.record(&event) {
            self.events += 1;
        } else {
            self.dropped += 1;
        }
    }

    fn end_frame(&mut self) {
        let Some(staged) = self.stager.end_frame() else {
            return;
        };
        if self.error.is_some() {
            return;
        }
        let chunk = TraceChunk {
            frame: staged.frame,
            text: staged.text,
        };
        if self.tx.send(chunk).is_err() {
            self.error = Some("trace channel receiver disconnected".to_string());
            // The frame never reached the receiver: recount it as dropped.
            self.dropped += staged.events;
            self.events -= staged.events;
            return;
        }
        self.frames += 1;
    }

    fn events_recorded(&self) -> u64 {
        self.events
    }

    fn events_dropped(&self) -> u64 {
        self.dropped
    }

    fn io_error(&self) -> Option<String> {
        self.error.clone()
    }
}

// ---------------------------------------------------------------------------
// Serialisable sink selection
// ---------------------------------------------------------------------------

/// Declarative sink selection, serialisable into scenario JSON (carried
/// on `fdb_sim::MeasureSpec`; built per run by the measurement driver).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum TraceSinkSpec {
    /// No tracing (the default).
    #[default]
    Null,
    /// Bounded in-memory ring over the whole run; `None` capacity uses
    /// the PHY's configured per-frame ring capacity.
    Ring {
        /// Maximum events retained (oldest evicted).
        capacity: Option<usize>,
    },
    /// Unbounded in-memory collection (tests only).
    Collect,
    /// Streaming JSONL file capture.
    Jsonl {
        /// Output path.
        path: String,
        /// Rotate the file once it exceeds this many bytes.
        rotate_bytes: Option<u64>,
        /// Per-frame event cap; `None` uses the PHY's configured ring
        /// capacity.
        frame_cap: Option<usize>,
    },
}

impl TraceSinkSpec {
    /// Convenience constructor for a non-rotating JSONL capture.
    pub fn jsonl(path: impl Into<String>) -> Self {
        TraceSinkSpec::Jsonl {
            path: path.into(),
            rotate_bytes: None,
            frame_cap: None,
        }
    }

    /// `true` for [`TraceSinkSpec::Null`] — no sink should be attached.
    pub fn is_null(&self) -> bool {
        matches!(self, TraceSinkSpec::Null)
    }

    /// Builds the described sink. `default_capacity` fills the
    /// unspecified ring capacity / per-frame cap (drivers pass the PHY's
    /// configured trace ring capacity).
    pub fn build(&self, default_capacity: usize) -> std::io::Result<Box<dyn TraceSink>> {
        Ok(match self {
            TraceSinkSpec::Null => Box::new(NullSink::new()),
            TraceSinkSpec::Ring { capacity } => {
                Box::new(RingSink::new(capacity.unwrap_or(default_capacity)))
            }
            TraceSinkSpec::Collect => Box::new(CollectSink::new()),
            TraceSinkSpec::Jsonl {
                path,
                rotate_bytes,
                frame_cap,
            } => Box::new(
                JsonlFileSink::create(path)?
                    .with_frame_cap(frame_cap.unwrap_or(default_capacity))
                    .with_rotate_bytes(*rotate_bytes),
            ),
        })
    }
}

// ---------------------------------------------------------------------------
// JSONL parsing / validation
// ---------------------------------------------------------------------------

/// One parsed line of a [`JsonlFileSink`] file.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceLine {
    /// `{"frame_start":N}`
    FrameStart {
        /// Frame index.
        frame: u64,
    },
    /// `{"frame_end":N,"events":K,"dropped":D}`
    FrameEnd {
        /// Frame index.
        frame: u64,
        /// Events written for the frame.
        events: u64,
        /// Events dropped for the frame.
        dropped: u64,
    },
    /// A [`TraceEvent`] line.
    Event(TraceEvent),
}

/// Parses one line of a trace JSONL file (frame marker or event),
/// rejecting anything else with a descriptive message. This is the
/// line-by-line validator behind the probe CLI's `--validate-trace`.
pub fn parse_trace_line(line: &str) -> Result<TraceLine, String> {
    #[derive(Deserialize)]
    struct StartLine {
        frame_start: u64,
    }
    #[derive(Deserialize)]
    struct EndLine {
        frame_end: u64,
        events: u64,
        dropped: u64,
    }
    // Frame markers have a unique leading key; try them first so event
    // parsing only sees candidate event objects.
    if line.contains("\"frame_start\"") {
        if let Ok(s) = serde_json::from_str::<StartLine>(line) {
            return Ok(TraceLine::FrameStart {
                frame: s.frame_start,
            });
        }
    }
    if line.contains("\"frame_end\"") {
        if let Ok(e) = serde_json::from_str::<EndLine>(line) {
            return Ok(TraceLine::FrameEnd {
                frame: e.frame_end,
                events: e.events,
                dropped: e.dropped,
            });
        }
    }
    serde_json::from_str::<TraceEvent>(line)
        .map(TraceLine::Event)
        .map_err(|e| format!("not a trace event or frame marker ({e}): {line}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut t = FrameTrace::new(3);
        for i in 0..5 {
            t.record(TraceEvent::Abort { sample: i });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        // Oldest evicted: samples 2, 3, 4 remain.
        let first = t.events().next().unwrap();
        assert_eq!(*first, TraceEvent::Abort { sample: 2 });
    }

    #[test]
    fn stage_labels_partition_events() {
        let mut t = FrameTrace::new(16);
        t.record(TraceEvent::TxChip { sample: 0, chip: 0, state: true });
        t.record(TraceEvent::RxChip { sample: 1, energy: 0.5, threshold: 0.4 });
        t.record(TraceEvent::FbBit { sample: 2, bit: true, margin: 0.1 });
        assert_eq!(t.stage_events("tx").count(), 1);
        assert_eq!(t.stage_events("rx").count(), 1);
        assert_eq!(t.stage_events("feedback").count(), 1);
        assert_eq!(t.stage_events("channel").count(), 0);
    }

    #[test]
    fn events_serialize_to_tagged_objects() {
        use serde::Serialize;
        let ev = TraceEvent::RxBlock { sample: 7, index: 1, ok: false };
        let v = ev.to_value();
        let obj = v.as_object().expect("tagged object");
        assert_eq!(obj.len(), 1);
        assert_eq!(obj[0].0, "RxBlock");
    }

    /// One instance of every variant, with awkward float values.
    fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::TxChip { sample: 0, chip: 3, state: true },
            TraceEvent::Channel {
                sample: 1,
                source_power_w: 1.25e-7,
                env_a: 0.1,
                env_b: 3.0000000000000004,
            },
            TraceEvent::Sic {
                sample: 2,
                device: 'B',
                own_state: false,
                input: 0.5,
                output: Some(0.25),
            },
            TraceEvent::Sic {
                sample: 3,
                device: 'A',
                own_state: true,
                input: 0.5,
                output: None,
            },
            TraceEvent::RxLock { sample: 4, score: 0.71, peak_seen: 0.73 },
            TraceEvent::RxSyncReject {
                sample: 5,
                score: 0.64,
                sharpness: 1.01,
                reason: "peak_shape".into(),
            },
            TraceEvent::RxRearm { sample: 6, attempts: 2 },
            TraceEvent::RxChip { sample: 7, energy: 0.33, threshold: 0.3 },
            TraceEvent::RxBit { sample: 8, index: 11, bit: false },
            TraceEvent::RxBlock { sample: 9, index: 0, ok: true },
            TraceEvent::FbHalf { sample: 10, integral: -0.002 },
            TraceEvent::FbPilot { sample: 11, index: 4, margin: 0.07 },
            TraceEvent::FbPilotsChecked { sample: 12, verified: true },
            TraceEvent::FbBit { sample: 13, bit: true, margin: 0.125 },
            TraceEvent::Abort { sample: 14 },
            TraceEvent::Fault {
                sample: 15,
                kind: "noise_burst".into(),
                active: true,
            },
            TraceEvent::Fault {
                sample: 16,
                kind: "clock_drift".into(),
                active: false,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_jsonl() {
        for ev in one_of_each() {
            let line = serde_json::to_string(&ev).expect("serializes");
            let back: TraceEvent = serde_json::from_str(&line)
                .unwrap_or_else(|e| panic!("{line} failed to parse back: {e}"));
            assert_eq!(back, ev, "round-trip changed {line}");
            // And through the line validator.
            assert_eq!(parse_trace_line(&line), Ok(TraceLine::Event(ev)));
        }
    }

    #[test]
    fn ring_sink_counts_recorded_and_dropped() {
        let mut sink = RingSink::new(3);
        for i in 0..5 {
            sink.record(TraceEvent::Abort { sample: i });
        }
        assert_eq!(sink.events_recorded(), 5);
        assert_eq!(sink.events_dropped(), 2);
        let trace = sink.into_trace();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.dropped(), 2);
    }

    #[test]
    fn null_and_collect_sinks_count() {
        let mut null = NullSink::new();
        let mut collect = CollectSink::new();
        for i in 0..4 {
            collect.begin_frame(i);
            null.record(TraceEvent::Abort { sample: i as usize });
            collect.record(TraceEvent::Abort { sample: i as usize });
            collect.end_frame();
        }
        assert_eq!(null.events_recorded(), 4);
        assert_eq!(null.events_dropped(), 0);
        assert_eq!(collect.events_recorded(), 4);
        assert_eq!(collect.frames(), 4);
        assert_eq!(collect.events().len(), 4);
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fdb_trace_{}_{name}.jsonl", std::process::id()))
    }

    #[test]
    fn jsonl_sink_writes_framed_parseable_lines() {
        let path = temp_path("framed");
        let mut sink = JsonlFileSink::create(&path).unwrap();
        sink.begin_frame(0);
        sink.record(TraceEvent::TxChip { sample: 0, chip: 0, state: true });
        sink.record(TraceEvent::Abort { sample: 9 });
        sink.end_frame();
        sink.begin_frame(1);
        sink.record(TraceEvent::RxRearm { sample: 3, attempts: 1 });
        let summary = sink.finish().unwrap();
        assert_eq!(summary.frames, 2, "finish closes the open frame");
        assert_eq!(summary.events, 3);
        assert_eq!(summary.dropped, 0);
        assert_eq!(summary.files, vec![path.display().to_string()]);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<TraceLine> = text
            .lines()
            .map(|l| parse_trace_line(l).expect("valid line"))
            .collect();
        assert_eq!(
            lines,
            vec![
                TraceLine::FrameStart { frame: 0 },
                TraceLine::Event(TraceEvent::TxChip { sample: 0, chip: 0, state: true }),
                TraceLine::Event(TraceEvent::Abort { sample: 9 }),
                TraceLine::FrameEnd { frame: 0, events: 2, dropped: 0 },
                TraceLine::FrameStart { frame: 1 },
                TraceLine::Event(TraceEvent::RxRearm { sample: 3, attempts: 1 }),
                TraceLine::FrameEnd { frame: 1, events: 1, dropped: 0 },
            ]
        );
        assert_eq!(summary.bytes, text.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_caps_events_per_frame_and_counts_drops() {
        let path = temp_path("cap");
        let mut sink = JsonlFileSink::create(&path).unwrap().with_frame_cap(2);
        sink.begin_frame(0);
        for i in 0..5 {
            sink.record(TraceEvent::Abort { sample: i });
        }
        sink.end_frame();
        assert_eq!(sink.events_recorded(), 2);
        assert_eq!(sink.events_dropped(), 3);
        let summary = sink.finish().unwrap();
        assert_eq!(summary.events, 2);
        assert_eq!(summary.dropped, 3);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines().last().unwrap().contains("\"dropped\":3"),
            "frame_end must report the drop count: {text}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_auto_opens_frames_for_unbracketed_records() {
        let path = temp_path("auto");
        let mut sink = JsonlFileSink::create(&path).unwrap();
        sink.record(TraceEvent::Abort { sample: 1 });
        sink.end_frame();
        sink.record(TraceEvent::Abort { sample: 2 });
        let summary = sink.finish().unwrap();
        assert_eq!(summary.frames, 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("{\"frame_start\":0}"));
        assert!(text.contains("{\"frame_start\":1}"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_rotates_on_frame_boundaries() {
        let path = temp_path("rotate");
        let mut sink = JsonlFileSink::create(&path)
            .unwrap()
            .with_rotate_bytes(Some(1)); // rotate after every frame
        for f in 0..3 {
            sink.begin_frame(f);
            sink.record(TraceEvent::Abort { sample: f as usize });
            sink.end_frame();
        }
        let summary = sink.finish().unwrap();
        assert_eq!(summary.frames, 3);
        assert_eq!(summary.files.len(), 4, "3 rotated chunks + live file");
        // Chronological concatenation holds all frames in order, and the
        // final live file is empty (rotation happened after frame 2).
        let mut frames = Vec::new();
        for file in &summary.files {
            let text = std::fs::read_to_string(file).unwrap();
            for line in text.lines() {
                if let TraceLine::FrameStart { frame } = parse_trace_line(line).unwrap() {
                    frames.push(frame);
                }
            }
            std::fs::remove_file(file).ok();
        }
        assert_eq!(frames, vec![0, 1, 2]);
    }

    #[test]
    fn jsonl_sink_memory_stays_bounded_by_frame_cap() {
        let path = temp_path("bounded");
        let mut sink = JsonlFileSink::create(&path).unwrap().with_frame_cap(4);
        for f in 0..200u64 {
            sink.begin_frame(f);
            for i in 0..50 {
                sink.record(TraceEvent::RxChip {
                    sample: i,
                    energy: 0.123456789,
                    threshold: 0.1,
                });
            }
            sink.end_frame();
        }
        // 4 retained events + 2 markers per frame, never more.
        let line = serde_json::to_string(&TraceEvent::RxChip {
            sample: 49,
            energy: 0.123456789,
            threshold: 0.1,
        })
        .unwrap();
        let generous_frame_bytes = (line.len() + 64) * (4 + 2);
        assert!(
            sink.peak_staged_bytes() <= generous_frame_bytes,
            "peak staged {} exceeds one frame's bound {}",
            sink.peak_staged_bytes(),
            generous_frame_bytes
        );
        assert_eq!(sink.events_recorded(), 200 * 4);
        assert_eq!(sink.events_dropped(), 200 * 46);
        sink.finish().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_failure_counts_subsequent_events_as_dropped() {
        let dir = std::env::temp_dir().join(format!(
            "fdb_trace_dir_{}_failure",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let mut sink = JsonlFileSink::create(&path).unwrap();
        sink.begin_frame(0);
        sink.record(TraceEvent::Abort { sample: 0 });
        // Make the write fail by replacing the open path's parent… not
        // portable; instead simulate by dropping the writer through a
        // rotation onto an unwritable target.
        std::fs::remove_dir_all(&dir).unwrap();
        sink.end_frame(); // write fails: file's directory is gone on flush…
        // Depending on the platform the flush may still succeed (the fd
        // stays valid); the contract we can assert portably is that a
        // sink with an error drops instead of panicking.
        if sink.io_error().is_some() {
            sink.record(TraceEvent::Abort { sample: 1 });
            assert_eq!(sink.events_recorded(), 0);
            assert!(sink.events_dropped() >= 1);
            assert!(sink.finish().is_err());
        } else {
            sink.finish().ok();
        }
    }

    #[test]
    fn channel_sink_matches_jsonl_file_bytes() {
        // The tentpole contract: the same event stream through a
        // ChannelSink and a JsonlFileSink (same frame cap) produces
        // byte-identical output, including the cap-overflow frame.
        let path = temp_path("channel_match");
        let mut file_sink = JsonlFileSink::create(&path).unwrap().with_frame_cap(3);
        let (tx, rx) = std::sync::mpsc::channel();
        let mut chan_sink = ChannelSink::new(tx).with_frame_cap(3);

        let events = one_of_each();
        for (f, chunk) in events.chunks(5).enumerate() {
            file_sink.begin_frame(f as u64);
            chan_sink.begin_frame(f as u64);
            for ev in chunk {
                file_sink.record(ev.clone());
                chan_sink.record(ev.clone());
            }
            file_sink.end_frame();
            chan_sink.end_frame();
        }
        assert_eq!(chan_sink.events_recorded(), file_sink.events_recorded());
        assert_eq!(chan_sink.events_dropped(), file_sink.events_dropped());
        let file_summary = file_sink.finish().unwrap();
        let chan_summary = chan_sink.finish().unwrap();
        assert_eq!(chan_summary.frames, file_summary.frames);

        let mut streamed = String::new();
        let mut frames = Vec::new();
        while let Ok(chunk) = rx.try_recv() {
            frames.push(chunk.frame);
            streamed.push_str(&chunk.text);
        }
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(streamed, written, "streamed bytes differ from file bytes");
        assert_eq!(frames, (0..file_summary.frames).collect::<Vec<_>>());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn channel_sink_auto_frames_and_caps() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut sink = ChannelSink::new(tx).with_frame_cap(2);
        for i in 0..5 {
            sink.record(TraceEvent::Abort { sample: i });
        }
        sink.end_frame();
        assert_eq!(sink.events_recorded(), 2);
        assert_eq!(sink.events_dropped(), 3);
        assert_eq!(sink.frames(), 1);
        let chunk = rx.try_recv().unwrap();
        assert_eq!(chunk.frame, 0);
        assert!(chunk.text.starts_with("{\"frame_start\":0}\n"));
        assert!(chunk.text.ends_with("{\"frame_end\":0,\"events\":2,\"dropped\":3}\n"));
    }

    #[test]
    fn channel_sink_disconnect_goes_inert() {
        let (tx, rx) = std::sync::mpsc::channel();
        drop(rx);
        let mut sink = ChannelSink::new(tx);
        sink.begin_frame(0);
        sink.record(TraceEvent::Abort { sample: 0 });
        sink.end_frame();
        assert!(sink.io_error().is_some(), "send to dropped receiver fails");
        assert_eq!(sink.events_recorded(), 0, "lost frame recounted as dropped");
        assert_eq!(sink.events_dropped(), 1);
        sink.record(TraceEvent::Abort { sample: 1 });
        assert_eq!(sink.events_dropped(), 2, "inert sink keeps counting drops");
        assert!(sink.finish().is_err());
    }

    #[test]
    fn sink_spec_round_trips_and_builds() {
        let specs = [
            TraceSinkSpec::Null,
            TraceSinkSpec::Ring { capacity: Some(7) },
            TraceSinkSpec::Ring { capacity: None },
            TraceSinkSpec::Collect,
            TraceSinkSpec::Jsonl {
                path: temp_path("spec").display().to_string(),
                rotate_bytes: Some(1024),
                frame_cap: None,
            },
        ];
        for spec in &specs {
            let json = serde_json::to_string(spec).unwrap();
            let back: TraceSinkSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, spec, "{json}");
            let mut sink = spec.build(16).unwrap();
            sink.record(TraceEvent::Abort { sample: 0 });
            assert!(sink.events_recorded() <= 1);
        }
        assert!(TraceSinkSpec::Null.is_null());
        assert!(!TraceSinkSpec::Collect.is_null());
        std::fs::remove_file(temp_path("spec")).ok();
    }

    #[test]
    fn stager_recycles_frame_block_storage() {
        // After the first frame's block is written and recycled, staging
        // identical frames never grows the staging buffer again.
        let path = temp_path("recycle");
        let mut sink = JsonlFileSink::create(&path).unwrap();
        let frame = |sink: &mut JsonlFileSink, f: u64| {
            sink.begin_frame(f);
            for i in 0..32 {
                sink.record(TraceEvent::RxChip {
                    sample: i,
                    energy: 0.123456789,
                    threshold: 0.1,
                });
            }
            sink.end_frame();
        };
        frame(&mut sink, 0);
        let cap_after_warmup = sink.stager.staged.capacity().max(sink.stager.spare.capacity());
        for f in 1..50 {
            frame(&mut sink, f);
        }
        let cap_final = sink.stager.staged.capacity().max(sink.stager.spare.capacity());
        assert_eq!(
            cap_final, cap_after_warmup,
            "steady-state frames must reuse the recycled block storage"
        );
        sink.finish().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reserve_presizes_every_sink_backend() {
        let mut ring = RingSink::new(8);
        ring.reserve(1000); // clamped to the ring bound
        let mut collect = CollectSink::new();
        collect.reserve(64);
        assert!(collect.events.capacity() >= 64);
        let path = temp_path("reserve");
        let mut jsonl = JsonlFileSink::create(&path).unwrap();
        jsonl.reserve(100);
        let reserved = jsonl.stager.staged.capacity();
        assert!(reserved >= 100 * 48, "stager reserved {reserved}");
        jsonl.begin_frame(0);
        jsonl.record(TraceEvent::Abort { sample: 0 });
        jsonl.end_frame();
        jsonl.finish().unwrap();
        std::fs::remove_file(&path).ok();
        // NullSink takes the default no-op without panicking.
        NullSink::new().reserve(10);
    }

    #[test]
    fn parse_trace_line_rejects_garbage() {
        assert!(parse_trace_line("not json").is_err());
        assert!(parse_trace_line("{\"Unknown\":{}}").is_err());
        assert!(parse_trace_line("{\"frame_start\":\"x\"}").is_err());
        assert_eq!(
            parse_trace_line("{\"frame_end\":3,\"events\":10,\"dropped\":1}"),
            Ok(TraceLine::FrameEnd { frame: 3, events: 10, dropped: 1 })
        );
    }
}

//! # fdb-core — the full-duplex backscatter PHY
//!
//! This crate implements the contribution of the HotNets 2013 paper *"Full
//! Duplex Backscatter"*: a physical layer in which a backscatter receiver
//! transmits a **low-rate feedback stream in-band, simultaneously with the
//! packet it is receiving**, using nothing beyond the antenna switch and
//! envelope detector every backscatter device already has.
//!
//! ## The three ideas
//!
//! 1. **Rate asymmetry.** The forward link sends data at the chip rate; the
//!    feedback link toggles the receiver's antenna once per `m` data bits
//!    (`m` = 8…512). The two streams share one channel but live at rates
//!    apart by a factor `m`, so each side can separate them with filters it
//!    can afford: the data receiver slices chips, the feedback receiver
//!    integrates over `m`-bit windows.
//! 2. **DC-balanced data coding.** Because the forward data is
//!    Manchester/FM0 coded, its contribution to any `m`-bit window average
//!    is (nearly) constant — integration cancels the data and exposes the
//!    slow feedback level (see `fdb_dsp::line_code`).
//! 3. **Known-self-interference cancellation.** Toggling your own antenna
//!    changes how much of the incident field reaches your own detector —
//!    but you *know* your own antenna state, so the distortion is exactly
//!    invertible in the digital domain ([`sic`]). No analog cancellation
//!    hardware is needed.
//!
//! ## Module map
//!
//! | module | role |
//! |--------|------|
//! | [`config`] | PHY parameters, validated |
//! | [`frame`] | preamble + length header + per-block CRC framing |
//! | [`tx`] | forward encoder: frame → chip schedule |
//! | [`rx`] | forward decoder: envelope → sync → slice → blocks |
//! | [`feedback`] | the feedback channel: encoder at the data receiver, integrate-and-dump decoder at the data transmitter |
//! | [`sic`] | known-state self-interference cancellation |
//! | [`link`] | the sample-synchronous two-device full-duplex link |
//! | [`scratch`] | per-link arena of reusable frame-engine working buffers |
//! | [`network`] | K coexisting links with first-order mutual scattering |
//! | [`trace`] | frame-level per-stage diagnostics through pluggable trace sinks |
//! | [`seed`] | deterministic seed derivation shared by every per-frame stream |
//! | [`hash`] | canonical JSON + stable 128-bit content addressing for cached results |
//! | [`error`] | error types |
//!
//! The crate has no cargo features: tracing is chosen at run time by
//! attaching a [`trace::TraceSink`] to a frame run (see
//! [`link::FrameRun::with_sink`]).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod error;
pub mod feedback;
pub mod frame;
pub mod hash;
pub mod link;
pub mod multilink;
pub mod network;
pub mod rx;
pub mod scratch;
pub mod seed;
pub mod sic;
pub mod trace;
pub mod tx;

pub use config::{PhyConfig, SicMode};
pub use error::PhyError;
pub use link::{FdLink, FrameOutcome, FrameRun, LinkConfig, LinkGeometry};
pub use scratch::LinkScratch;
pub use seed::derive_seed;

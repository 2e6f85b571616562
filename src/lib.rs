//! # fd-backscatter — full-duplex backscatter communication, in simulation
//!
//! A production-quality Rust reproduction of the HotNets 2013 paper *"Full
//! Duplex Backscatter"*: a PHY in which a backscatter receiver transmits a
//! low-rate, in-band feedback stream **while receiving a frame**, plus the
//! link-layer machinery that feedback unlocks (early packet abort,
//! collision detection, backpressure, rate adaptation) and a complete
//! physical substrate (ambient sources, channels, tag hardware) to run it
//! all on.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names and offers a [`prelude`] for the common types. See
//! `DESIGN.md` for the architecture and `EXPERIMENTS.md` for the
//! evaluation suite.
//!
//! ## Quick start
//!
//! ```
//! use fd_backscatter::prelude::*;
//! use rand::SeedableRng;
//!
//! // A clean scenario: CW carrier, two devices half a metre apart.
//! let mut cfg = LinkConfig::default_fd();
//! cfg.ambient = AmbientConfig::Cw;
//! cfg.field_noise_dbm = -160.0;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let mut link = FdLink::new(cfg, &mut rng).unwrap();
//!
//! // Send one frame full-duplex: B streams ACK/NACK while receiving.
//! let payload = b"hello, backscatter".to_vec();
//! let out = link
//!     .run_frame(&payload, &RunOptions::fd_monitor(), &mut rng)
//!     .unwrap();
//! assert!(out.fully_delivered());
//! assert!(out.feedback.iter().all(|f| f.bit)); // all-ACK feedback
//! ```

#![deny(missing_docs)]

/// DSP substrate: samples, filters, line codes, sync, CRC/FEC, statistics.
pub use fdb_dsp as dsp;

/// Wireless channel substrate: path loss, fading, noise, link budgets.
pub use fdb_channel as channel;

/// Ambient RF excitation sources (TV, OFDM, CW).
pub use fdb_ambient as ambient;

/// Passive-tag hardware models: antenna switch, detector, harvester, clock.
pub use fdb_device as device;

/// The full-duplex backscatter PHY (the paper's contribution).
pub use fdb_core as phy;

/// Link layer: ARQ baselines, early abort, collision detection, flow
/// control, rate adaptation.
pub use fdb_mac as mac;

/// Scenario running, parallel sweeps, reporting.
pub use fdb_sim as sim;

/// Closed-form performance models and theory-vs-simulation validators.
pub use fdb_analysis as analysis;

pub mod testing;

/// The types most programs need.
pub mod prelude {
    pub use fdb_ambient::AmbientConfig;
    pub use fdb_channel::fading::Fading;
    pub use fdb_channel::pathloss::PathLoss;
    pub use fdb_core::config::{PhyConfig, SicMode};
    pub use fdb_core::link::{
        FdLink, FeedbackPolicy, FrameOutcome, FrameRun, LinkConfig, LinkGeometry, RunOptions,
    };
    pub use fdb_core::trace::TraceSinkSpec;
    pub use fdb_device::{TagConfig, TagHardware};
    pub use fdb_mac::arq::{ArqConfig, StopAndWait};
    pub use fdb_mac::early_abort::{EarlyAbortArq, EarlyAbortConfig};
    pub use fdb_mac::report::TransferReport;
    pub use fdb_sim::{run_link, LinkMetrics, LinkRun, MeasureSpec};
}

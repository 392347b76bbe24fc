//! # synscan
//!
//! Reproduction of *Have you SYN me? Characterizing Ten Years of Internet
//! Scanning* (Griffioen, Koursiounis, Smaragdakis, Doerr — IMC 2024).
//!
//! This umbrella crate re-exports the workspace and provides the
//! [`experiment`] runner that wires the full loop together, one year at a
//! time in one process:
//!
//! ```text
//! synscan-synthesis ──► synscan-telescope ──► synscan-core ──► reports
//!  (decade generator)    (capture + filters)   (fingerprint,
//!                                               campaigns, analysis)
//! ```
//!
//! Quick start:
//!
//! ```
//! use synscan::experiment::Experiment;
//! use synscan::GeneratorConfig;
//!
//! // A miniature run (unit-test scale).
//! let experiment = Experiment::new(GeneratorConfig::tiny());
//! let run = experiment.run_year(2020);
//! assert!(run.analysis.total_packets > 0);
//! assert!(!run.analysis.campaigns.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod experiment;
pub mod serve;

pub use synscan_core as core;
pub use synscan_netmodel as netmodel;
pub use synscan_scanners as scanners;
pub use synscan_stats as stats;
pub use synscan_synthesis as synthesis;
pub use synscan_telescope as telescope;
pub use synscan_wire as wire;

pub use serve::Endpoint;
pub use synscan_core::{
    Campaign, CampaignConfig, CheckpointOptions, PipelineMode, RunError, RunOptions, RunStatus,
    ToolKind,
};
pub use synscan_synthesis::{GeneratorConfig, YearConfig};

//! # synscan-synthesis
//!
//! The decade generator: a synthetic substitute for the paper's closed
//! 10-year telescope corpus (45 billion SYNs, 2015–2024).
//!
//! The generator is **calibrated to the paper's published numbers** — the
//! per-year packet volumes, scans/month, tool shares, port mixes, country
//! mixes, scanner-class shares, institutional behaviour, vertical-scan
//! counts, and disclosure events — and drives the *real tool
//! implementations* from `synscan-scanners`, so every emitted probe carries
//! an authentic §3.3 fingerprint (or deliberately none). The measurement
//! pipeline in `synscan-core` then runs unchanged, exactly as it would over
//! real pcap, and the experiments compare what it *measures* against what
//! the paper reports.
//!
//! Scale: the default configuration simulates a 1/64-size telescope and
//! 1/20 of the campaign population over 7 days per year, ≈ 5–6 million
//! probe records for the decade — laptop-friendly while preserving every
//! distributional shape. All knobs live in [`GeneratorConfig`].
//!
//! Modules:
//! * [`yearcfg`] — the per-year ecosystem specifications (the calibration
//!   tables).
//! * [`generate`] — the actor machinery turning specs into projected
//!   telescope arrivals.
//! * [`stream`] — the lazy emitter plan and the bounded-memory, heap-merged
//!   [`stream::YearStream`] over it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fanout;
pub mod generate;
pub mod stream;
pub mod yearcfg;

pub use generate::GeneratorConfig;
pub use yearcfg::YearConfig;

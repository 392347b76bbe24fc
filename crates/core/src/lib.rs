//! # synscan-core
//!
//! The measurement pipeline of *Have you SYN me? Characterizing Ten Years of
//! Internet Scanning* (IMC 2024) — the paper's primary contribution,
//! reimplemented as a library:
//!
//! 1. **Tool fingerprinting** ([`fingerprint`], §3.3): per-packet invariants
//!    (ZMap's `ip_id = 54321`, Masscan's `ip_id = dstIP⊕dstPort⊕seq`,
//!    Mirai's `seq = dstIP`) and stateful pairwise matchers (NMap's
//!    keystream reuse, Unicornscan's XOR encoding).
//! 2. **Campaign identification** ([`campaign`], §3.4): grouping per-source
//!    probe sequences into scan campaigns with the paper's thresholds
//!    (≥100 distinct telescope destinations, ≥100 pps Internet-wide
//!    estimated rate, 1 h idle expiry), plus speed and IPv4-coverage
//!    estimation via the geometric telescope model.
//! 3. **Scanner-type classification** ([`classify`], §6.6): labeling sources
//!    institutional / hosting / enterprise / residential / unknown.
//! 4. **Longitudinal analysis** ([`analysis`]): every table and figure of
//!    the evaluation — yearly summaries (Table 1), scanner types (Table 2),
//!    event decay (Fig. 1), weekly /16 volatility (Fig. 2), ports per source
//!    (Fig. 3), tool×port mixes (Fig. 4), type×port mixes (Fig. 5),
//!    recurrence (Fig. 6), speed/coverage (Fig. 7), institutional port
//!    coverage (Figs. 8–10), and the in-prose correlation analyses.
//!
//! The pipeline consumes time-ordered [`synscan_wire::ProbeRecord`] streams —
//! from a pcap, from the live capture session, or from the synthetic decade
//! generator — and produces serializable reports.
//!
//! For telescope-scale inputs, [`pipeline`] fans one year's stream out to
//! source-sharded worker threads and merges the partial analyses back into a
//! result bit-identical to the sequential pass.
//!
//! Long (decade-scale) runs are made crash-safe by [`checkpoint`] (atomic,
//! checksummed snapshots of the full pipeline state, sealed by the one
//! [`envelope`] that also seals store slices and protocol frames),
//! [`supervise`] (worker heartbeats, panic containment, stall watchdog), and
//! [`pipeline::supervised`] (the checkpointed, resumable driver tying both
//! together). [`distrib`] lifts the same sharded-merge architecture across
//! process (and host) boundaries: workers compute `(year, partition)` slice
//! partials over a framed checkpoint protocol and a coordinator merges them
//! bit-identically to the sequential run.
//!
//! Terminal run state persists through [`store`]: a versioned on-disk
//! analysis store of per-year slices that [`report`] renders as a pure
//! reader and the resident `synscan-serve` daemon holds in memory behind an
//! atomic image swap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod campaign;
pub mod checkpoint;
pub mod classify;
pub mod compact;
pub mod distrib;
pub mod envelope;
pub mod fasthash;
pub mod fingerprint;
#[cfg(test)]
mod frame;
pub mod intern;
pub mod pipeline;
pub mod report;
pub mod sketch;
pub mod store;
pub mod supervise;

pub use campaign::{Campaign, CampaignConfig};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use distrib::{
    merge_slices, plan_slices, run_slice, DistribError, Message, SliceOutcome, SliceSpec,
    SliceTask, PROTO_VERSION,
};
pub use envelope::EnvelopeError;
pub use fasthash::FxHasher;
pub use fingerprint::{InternedFingerprint, PacketVerdict};
pub use intern::SourceTable;
pub use pipeline::supervised::{
    run_year_supervised, CheckpointOptions, RunError, RunStatus, SupervisorOptions,
};
pub use pipeline::{
    AdmitState, FilterAdmit, PipelineError, PipelineMode, PipelineOutcome, RunSpec,
};
pub use supervise::{
    InjectedFaults, StallEvent, SupervisionConfig, SupervisionReport, WorkerFailure,
};
pub use synscan_scanners::traits::ToolKind;

// Re-exported at the root only because the benchmark names them here.
pub use pipeline::{try_collect_year_stream, SizeHints};
pub use sketch::{HeavyHitterConfig, HeavyHitters};
pub use store::{AnalysisStore, StoreImage};

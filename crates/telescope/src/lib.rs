//! # synscan-telescope
//!
//! The network-telescope substrate: the measurement infrastructure of §3.2.
//!
//! The paper's telescope consists of **three partially populated /16
//! networks** whose unused addresses — on average 71,536 over the decade —
//! are routed to a capture host. Incoming traffic at dark addresses is
//! either backscatter of spoofed-source attacks or scanning; the standard
//! SYN filter separates the two. Since the advent of Mirai, ports 23 and 445
//! are dropped at the network ingress (from 2017 in the dataset).
//!
//! This crate models all of that:
//!
//! * [`addrset`] — the dark address set (deterministic, seedable, scalable
//!   for affordable simulation), implementing the
//!   [`synscan_scanners::thinning::DarkSpace`] projection interface.
//! * [`config`] — telescope configuration: the three /16s, per-block dark
//!   fractions, scale factor, outage windows.
//! * [`ingress`] — the port-blocking policy timeline.
//! * [`capture`] — a capture session: SYN filtering, backscatter separation,
//!   ingress policy, and counters; plus pcap export of the raw stream.
//! * [`backscatter`] — synthetic attack backscatter (SYN/ACK and RST floods
//!   toward dark space) to exercise the filters with realistic contaminants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addrset;
pub mod backscatter;
pub mod capture;
pub mod config;
pub mod ingress;

pub use addrset::AddressSet;
pub use backscatter::BackscatterGenerator;
pub use capture::{CaptureSession, CaptureStats};
pub use config::TelescopeConfig;

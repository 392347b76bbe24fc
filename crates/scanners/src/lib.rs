//! # synscan-scanners
//!
//! From-scratch implementations of the Internet scanning tools the paper
//! fingerprints (§3.3), including their *real* target-selection algorithms:
//!
//! * [`zmap`] — iteration over the multiplicative cyclic group of ℤ*ₚ with
//!   p = 2³² + 15, sharding, and the `IP.id = 54321` marker.
//! * [`masscan`] — the BlackRock format-preserving Feistel cipher permuting
//!   the target space, and the `IP.id = dstIP ⊕ dstPort ⊕ seq` stateless
//!   cookie.
//! * [`nmap`] — SYN probes whose sequence numbers are a 16-bit tag repeated
//!   into both halves and XOR-masked with a reused per-session secret
//!   (the keystream-reuse weakness exploited by Ghiette et al.).
//! * [`mirai`] — the IoT botnet scanning routine: `seq = dstIP`, Telnet
//!   23/2323 (1-in-10) target choice, random target order.
//! * [`unicorn`] — the Unicornscan encoding
//!   `seq = dstIP ⊕ srcPort ⊕ (dstPort << 16) ⊕ session`.
//! * [`custom`] — fingerprint-free tooling with random header fields, the
//!   2015-era "custom-designed tooling" population and the post-2023
//!   de-fingerprinted scanners.
//!
//! The crate separates **crafting** (how a tool fills header fields — the
//! fingerprint surface, [`traits::ProbeCrafter`]) from **target order**
//! ([`cyclic`], [`blackrock`], sequential/random in [`traits::TargetOrder`])
//! from **projection onto the telescope** ([`thinning`]), so the synthetic
//! decade generator can compose them at scale while unit tests can run whole
//! small scans end-to-end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blackrock;
pub mod custom;
pub mod cyclic;
pub mod masscan;
pub mod mirai;
pub mod nmap;
pub mod thinning;
pub mod traits;
pub mod unicorn;
pub mod zmap;

pub use blackrock::BlackRock;
pub use cyclic::CyclicIter;

// Re-exported at the root only because the benchmark names them here.
pub use custom::CustomScanner;
pub use masscan::MasscanScanner;
pub use mirai::MiraiScanner;
pub use nmap::NmapScanner;
pub use unicorn::UnicornScanner;
pub use zmap::ZmapScanner;

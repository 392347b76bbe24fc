//! # synscan-stats
//!
//! Statistics substrate for the `synscan` reproduction of *Have you SYN me?*
//! (IMC 2024). Everything the paper's analysis needs is implemented here from
//! scratch:
//!
//! * the two-sample **Kolmogorov–Smirnov test** used in §4.3 to verify that
//!   post-disclosure scanning distributions return to "normal",
//! * **Pearson correlation** with a t-transform p-value, used for the
//!   speed↔ports (R = 0.88), services↔scans (R = 0.047), NMap speed trend
//!   (R = 0.12) and top-100 speed trend (R = 0.356) claims,
//! * empirical **CDFs**, quantiles and histograms backing every figure,
//! * the **geometric telescope-detection model** of Moore et al. used in §3.4
//!   to justify the campaign thresholds,
//! * heavy-tailed **samplers** (Zipf, log-normal, bounded Pareto) driving the
//!   synthetic workload generator, on the workspace's one seeded **PRNG**
//!   ([`rng`]: xoshiro256++ and the splitmix64 mixer), and
//! * streaming **moments** for single-pass mean/variance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ecdf;
pub mod histogram;
pub mod ks;
pub mod moments;
pub mod pearson;
pub mod rng;
pub mod sampling;
pub mod telescope_model;

pub use ecdf::Ecdf;
pub use histogram::{Histogram, LogHistogram};
pub use pearson::{pearson, PearsonResult};
pub use rng::{mix64, Rng};
pub use telescope_model::TelescopeModel;

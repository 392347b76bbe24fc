//! # synscan-netmodel
//!
//! A synthetic model of the Internet's address space, substituting for the
//! proprietary datasets the paper enriches its telescope traffic with:
//! GeoIP country lookups, AS categorization, the Greynoise label feed of
//! known ("institutional") scanners, and residential-space matching.
//!
//! The model is **deterministic given a seed**: the same seed always yields
//! the same address plan, so experiments are reproducible bit-for-bit.
//!
//! Components:
//!
//! * [`country`] — country roster and per-year scanning-activity mixes
//!   calibrated to the paper (China >30% of traffic in 2015, diversification
//!   over the years, the Russia/Masscan surge of 2018, ...).
//! * [`asn`] — autonomous-system records with an organization category
//!   (hosting / enterprise / institutional / residential / unknown), the
//!   label space of Table 2.
//! * [`alloc`] — a /16-granular address plan mapping IPv4 space to
//!   (country, category, ASN), with O(1) lookup and weighted sampling.
//! * [`orgs`] — the roster of *known scanning organizations* from the paper's
//!   appendix (Censys, Shodan, Rapid7, Shadowserver, Palo Alto, Onyphe,
//!   universities, ...) with per-year port-coverage behaviour (Figures 8–10).
//! * [`churn`] — the residential DHCP churn model (Böck et al. / Griffioen &
//!   Doerr) that inflates source counts in longitudinal datasets.
//! * [`ports`] — the port/service registry: well-known services, privileged
//!   space, alias conventions (80→8080, 23→2323, ...).
//! * [`services`] — a synthetic open-port census standing in for the §5.1
//!   vertical scan of 100,000 random addresses.
//! * [`etl`] — the Appendix A two-phase known-scanner identification
//!   (IP matching + keyword matching over feed metadata).
//! * [`registry`] — the façade tying it all together: `InternetRegistry`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod asn;
pub mod churn;
pub mod country;
pub mod etl;
pub mod orgs;
pub mod ports;
pub mod registry;
pub mod services;

pub use asn::ScannerClass;
pub use country::Country;
pub use orgs::KnownOrg;
pub use ports::{service_name, KNOWN_PORTS};
pub use registry::InternetRegistry;
pub use services::PortCensus;

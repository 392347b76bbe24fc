//! Autonomous-system records and the scanner-type label space.
//!
//! §6.6 of the paper classifies every source IP into one of five origin
//! types using Greynoise labels, hosting/enterprise AS matching, and the
//! residential-space methodology of Griffioen & Doerr. The synthetic ASN
//! registry reproduces that label space.

use crate::country::Country;

/// The five origin classes of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScannerClass {
    /// Research institutes, universities, and commercial entities with
    /// publicized scanning (Censys, Shodan, Rapid7, ...).
    Institutional,
    /// Hosting / cloud providers.
    Hosting,
    /// Autonomous systems of large enterprises.
    Enterprise,
    /// Residential telecom space (DHCP churn, botnet infections).
    Residential,
    /// Everything that could not be classified.
    Unknown,
}

impl ScannerClass {
    /// All classes in the paper's table order.
    pub const ALL: [ScannerClass; 5] = [
        ScannerClass::Hosting,
        ScannerClass::Enterprise,
        ScannerClass::Institutional,
        ScannerClass::Residential,
        ScannerClass::Unknown,
    ];

    /// Human-readable label matching Table 2.
    pub const fn label(self) -> &'static str {
        match self {
            ScannerClass::Institutional => "Institutional",
            ScannerClass::Hosting => "Hosting",
            ScannerClass::Enterprise => "Enterprise",
            ScannerClass::Residential => "Residential",
            ScannerClass::Unknown => "Unknown",
        }
    }
}

impl core::fmt::Display for ScannerClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Opaque ASN identifier (the AS number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsnId(pub u32);

impl core::fmt::Display for AsnId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// One autonomous system in the synthetic registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Asn {
    /// AS number.
    pub id: AsnId,
    /// Organization name (synthetic, or a known org from the appendix).
    pub name: String,
    /// Registration country.
    pub country: Country,
    /// Origin class for Table 2 / Figures 5–7.
    pub class: ScannerClass,
}

impl Asn {
    /// Construct an ASN record.
    pub fn new(id: u32, name: impl Into<String>, country: Country, class: ScannerClass) -> Self {
        Self {
            id: AsnId(id),
            name: name.into(),
            country,
            class,
        }
    }
}

/// The enterprise AS called out in §6.7: "especially from ASN 18403
/// (FPT-AS-AP The Corporation for Financing & Promoting Technology)",
/// which disproportionally scans the Ethereum JSON-RPC port 8545.
pub const FPT_ASN: u32 = 18403;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_labels_match_table2() {
        assert_eq!(ScannerClass::Institutional.label(), "Institutional");
        assert_eq!(ScannerClass::Hosting.to_string(), "Hosting");
        assert_eq!(ScannerClass::ALL.len(), 5);
    }

    #[test]
    fn asn_display() {
        assert_eq!(AsnId(18403).to_string(), "AS18403");
    }

    #[test]
    fn asn_construction() {
        let asn = Asn::new(
            FPT_ASN,
            "FPT-AS-AP",
            Country::Vietnam,
            ScannerClass::Enterprise,
        );
        assert_eq!(asn.id, AsnId(18403));
        assert_eq!(asn.class, ScannerClass::Enterprise);
        assert_eq!(asn.country, Country::Vietnam);
    }
}

//! Scanner-type classification (§6.6, Table 2).
//!
//! The paper labels each source IP institutional / hosting / enterprise /
//! residential / unknown by combining the Greynoise feed of known scanners
//! with AS-category matching and residential-space detection. Our
//! [`InternetRegistry`] substitutes for those data sources; the classifier
//! logic — known-org overlay first, then AS category, `Unknown` as the
//! fallback — is the same.

use synscan_netmodel::{InternetRegistry, ScannerClass};
use synscan_wire::Ipv4Address;

/// Classify one source address into the Table 2 label space.
pub fn classify_source(registry: &InternetRegistry, src: Ipv4Address) -> ScannerClass {
    // The registry already applies the precedence: known-org /24 overlay
    // (institutional) → /16 AS category → Unknown.
    registry.class(src)
}

/// Classify and also resolve the known organization, when one matches —
/// used by the institutional-scanner analysis (Figures 8–10).
pub fn classify_with_org(
    registry: &InternetRegistry,
    src: Ipv4Address,
) -> (ScannerClass, Option<&synscan_netmodel::KnownOrg>) {
    let org = registry.known_org(src);
    let class = if org.is_some() {
        ScannerClass::Institutional
    } else {
        registry.class(src)
    };
    (class, org)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synscan_netmodel::Country;
    use synscan_stats::Rng;

    #[test]
    fn known_org_sources_are_institutional() {
        let registry = InternetRegistry::build(11, &[]);
        let org = &registry.orgs()[0];
        let ip = registry.org_source_ip(org.id, 0);
        let (class, resolved) = classify_with_org(&registry, ip);
        assert_eq!(class, ScannerClass::Institutional);
        assert_eq!(resolved.unwrap().id, org.id);
    }

    #[test]
    fn as_category_drives_the_label() {
        let registry = InternetRegistry::build(12, &[]);
        let mut rng = Rng::seed_from_u64(1);
        for class in [
            ScannerClass::Hosting,
            ScannerClass::Enterprise,
            ScannerClass::Residential,
        ] {
            let ip = registry
                .sample_source(&mut rng, Country::Germany, class)
                .unwrap();
            assert_eq!(classify_source(&registry, ip), class);
        }
    }

    #[test]
    fn unassigned_space_is_unknown() {
        let registry = InternetRegistry::build(13, &[]);
        assert_eq!(
            classify_source(&registry, Ipv4Address::new(10, 0, 0, 1)),
            ScannerClass::Unknown
        );
    }
}

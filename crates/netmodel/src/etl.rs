//! Known-scanner identification ETL (Appendix A).
//!
//! The paper identifies institutional scanners with a three-phase ETL over
//! Greynoise, the Censys API, IPinfo and reverse DNS: **Phase 1** matches
//! source IPs directly against labeled feeds; **Phase 2** scrapes
//! WHOIS/rDNS-style metadata and matches a keyword list (built from Phase 1
//! hits, enriched manually) against it.
//!
//! Here the "feeds" are synthesized from the registry itself — a *partial*
//! IP feed (as Greynoise is: it never lists every org address) plus
//! rDNS-style hostnames derived from org names — and the ETL must recover
//! the org labels from them, exercising exactly the matching logic the
//! appendix describes.

use std::collections::{BTreeMap, HashMap, HashSet};

use synscan_wire::Ipv4Address;

use crate::orgs::{KnownOrg, OrgId};
use crate::registry::InternetRegistry;

/// A record as an external intelligence feed would deliver it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedRecord {
    /// The source IP the feed describes.
    pub ip: Ipv4Address,
    /// Free-text metadata: rDNS name, WHOIS org, banner fragments.
    pub metadata: String,
    /// Direct label, when the feed has one (Phase-1 material).
    pub label: Option<String>,
}

/// Derive a stable rDNS-style hostname for an org source (synthetic feed
/// content; real feeds carry names like `scanner-03.censys-scanner.com`).
pub(crate) fn synthetic_rdns(org: &KnownOrg, ip: Ipv4Address) -> String {
    let slug: String = org
        .name
        .to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    format!(
        "scanner-{}.{}.example.net",
        ip.0 & 0xff,
        slug.trim_matches('-')
    )
}

/// Build the synthetic feeds for a registry: a direct-label feed covering
/// `labeled_fraction` of each org's sources, and metadata-only records for
/// the rest.
pub fn synthesize_feeds(
    registry: &InternetRegistry,
    sources_per_org: u32,
    labeled_fraction: f64,
) -> Vec<FeedRecord> {
    let mut feed = Vec::new();
    for org in registry.orgs() {
        for i in 0..sources_per_org {
            let ip = registry.org_source_ip(org.id, i);
            let labeled = (f64::from(i) + 0.5) / f64::from(sources_per_org) < labeled_fraction;
            feed.push(FeedRecord {
                ip,
                metadata: synthetic_rdns(org, ip),
                label: labeled.then(|| org.name.to_string()),
            });
        }
    }
    feed
}

/// The ETL result: IP → org attribution plus bookkeeping mirroring the
/// appendix's reporting (36 orgs, 0.36% of sources, 51.31% of traffic).
#[derive(Debug, Clone, Default)]
pub struct EtlResult {
    /// Attributed addresses.
    pub attributions: HashMap<Ipv4Address, OrgId>,
    /// How many attributions came from direct IP matching (Phase 1).
    pub phase1_matches: u64,
    /// How many came from keyword matching (Phase 2).
    pub phase2_matches: u64,
    /// The keyword list extracted during Phase 1.
    pub keywords: Vec<String>,
}

impl EtlResult {
    /// Distinct organizations identified.
    pub fn organizations(&self) -> usize {
        self.attributions.values().collect::<HashSet<_>>().len()
    }
}

/// Tokenize org names into match keywords (lowercase alphanumeric runs of
/// length ≥ 4, dropping generic words — the "manual enrichment" step).
fn keywords_of(name: &str) -> Vec<String> {
    const STOP: &[&str] = &["university", "networks", "group", "labs", "discovery"];
    name.to_lowercase()
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| t.len() >= 4 && !STOP.contains(t))
        .map(str::to_string)
        .collect()
}

/// Run the two-phase ETL over a feed, resolving labels against the roster.
pub fn run_etl(registry: &InternetRegistry, feed: &[FeedRecord]) -> EtlResult {
    let mut result = EtlResult::default();
    let by_name: BTreeMap<String, OrgId> = registry
        .orgs()
        .iter()
        .map(|o| (o.name.to_lowercase(), o.id))
        .collect();

    // Phase 1: direct IP ↔ label matching; harvest keywords from the hits.
    let mut keyword_to_org: BTreeMap<String, OrgId> = BTreeMap::new();
    for record in feed {
        if let Some(label) = &record.label {
            if let Some(&org) = by_name.get(&label.to_lowercase()) {
                result.attributions.insert(record.ip, org);
                result.phase1_matches += 1;
                for kw in keywords_of(label) {
                    keyword_to_org.insert(kw, org);
                }
            }
        }
    }
    result.keywords = keyword_to_org.keys().cloned().collect();

    // Phase 2: keyword matching over the metadata of unlabeled records.
    for record in feed {
        if result.attributions.contains_key(&record.ip) {
            continue;
        }
        let haystack = record.metadata.to_lowercase();
        if let Some((_, &org)) = keyword_to_org
            .iter()
            .find(|(kw, _)| haystack.contains(kw.as_str()))
        {
            result.attributions.insert(record.ip, org);
            result.phase2_matches += 1;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> InternetRegistry {
        InternetRegistry::build(61, &[])
    }

    #[test]
    fn phase1_attributes_labeled_ips() {
        let registry = registry();
        let feed = synthesize_feeds(&registry, 4, 1.0); // everything labeled
        let result = run_etl(&registry, &feed);
        assert_eq!(result.phase1_matches as usize, feed.len());
        assert_eq!(result.phase2_matches, 0);
        assert_eq!(result.organizations(), registry.orgs().len());
    }

    #[test]
    fn phase2_recovers_unlabeled_ips_via_keywords() {
        let registry = registry();
        // Half the sources carry only rDNS metadata.
        let feed = synthesize_feeds(&registry, 4, 0.5);
        let result = run_etl(&registry, &feed);
        assert!(result.phase1_matches > 0);
        assert!(
            result.phase2_matches > 0,
            "keyword matching must recover the unlabeled half"
        );
        // Recovery is substantial: most of the unlabeled records resolve.
        let total = result.phase1_matches + result.phase2_matches;
        assert!(
            total as f64 / feed.len() as f64 > 0.8,
            "{total} of {}",
            feed.len()
        );
        // And attributions are correct: the resolved org owns the IP.
        for (ip, org) in &result.attributions {
            assert_eq!(registry.known_org(*ip).unwrap().id, *org, "{ip}");
        }
    }

    #[test]
    fn keywords_come_from_phase1_labels() {
        let registry = registry();
        let feed = synthesize_feeds(&registry, 2, 0.5);
        let result = run_etl(&registry, &feed);
        assert!(result.keywords.iter().any(|k| k == "censys"));
        assert!(result.keywords.iter().any(|k| k == "shodan"));
        // Stop words are filtered.
        assert!(!result.keywords.iter().any(|k| k == "university"));
    }

    #[test]
    fn unrelated_records_stay_unattributed() {
        let registry = registry();
        let mut feed = synthesize_feeds(&registry, 2, 0.5);
        feed.push(FeedRecord {
            ip: Ipv4Address::new(8, 8, 8, 8),
            metadata: "dns.google".to_string(),
            label: None,
        });
        let result = run_etl(&registry, &feed);
        assert!(!result
            .attributions
            .contains_key(&Ipv4Address::new(8, 8, 8, 8)));
    }
}

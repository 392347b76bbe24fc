//! The synthetic IPv4 address plan.
//!
//! Partitions the usable unicast space at /16 granularity into
//! (country, scanner class, ASN) assignments, with an /24-granular overlay
//! for the known scanning organizations. This substitutes for the GeoIP,
//! AS-category and Greynoise lookups of the paper: the *lookup API* is the
//! same shape (IP → country / class / ASN / org), only the provenance of the
//! mapping differs.
//!
//! Everything is deterministic given the seed.

use std::collections::HashMap;

use synscan_stats::Rng;

use synscan_wire::Ipv4Address;

use crate::asn::{Asn, AsnId, ScannerClass, FPT_ASN};
use crate::country::Country;
use crate::orgs::{self, KnownOrg, OrgId};

/// Assignment of one /16 block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Country the block is allocated to.
    pub country: Country,
    /// Origin class of the owning AS.
    pub class: ScannerClass,
    /// Owning AS.
    pub asn: AsnId,
}

/// Per-country split of address space across scanner classes.
///
/// Residential telecoms hold the bulk of end-user space; hosting and
/// enterprise take the rest; a share stays unclassifiable ("Unknown").
/// Institutional space is NOT carved at /16 granularity — known scanners get
/// /24 overlays, mirroring how tiny their footprint is (0.16% of sources).
const CLASS_SPLIT: [(ScannerClass, f64); 4] = [
    (ScannerClass::Residential, 0.40),
    (ScannerClass::Hosting, 0.14),
    (ScannerClass::Enterprise, 0.22),
    (ScannerClass::Unknown, 0.24),
];

/// The deterministic address plan.
#[derive(Debug, Clone)]
pub struct AddressPlan {
    /// `blocks[slash16]` — assignment of each /16, `None` for reserved or
    /// dark (telescope) space.
    blocks: Vec<Option<BlockInfo>>,
    /// ASN registry, indexed by dense internal id.
    asns: Vec<Asn>,
    asn_index: HashMap<AsnId, usize>,
    /// /24-granular overlay for known scanning organizations.
    org_overlay: HashMap<u32, OrgId>,
    /// The /24s owned by each org (index = OrgId.0).
    org_prefixes: Vec<Vec<u32>>,
    orgs: Vec<KnownOrg>,
    /// Sampling index: /16s per (country, class).
    sampling: HashMap<(Country, ScannerClass), Vec<u16>>,
}

impl AddressPlan {
    /// Build the plan. `dark_blocks` are /16 indices (upper 16 bits of the
    /// address) that stay unassigned — the telescope space.
    pub fn build(seed: u64, dark_blocks: &[u16]) -> Self {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5ca1_ab1e_0000_0001);

        // 1. Collect usable /16s.
        let mut usable: Vec<u16> = Vec::new();
        for hi in 1u16..=0xdfff {
            let a = (hi >> 8) as u8;
            let b = (hi & 0xff) as u8;
            let reserved = a == 0
                || a == 10
                || a == 127
                || (a == 172 && (16..32).contains(&b))
                || (a == 192 && b == 168)
                || (a == 169 && b == 254)
                || a >= 224;
            if !reserved && !dark_blocks.contains(&hi) {
                usable.push(hi);
            }
        }
        rng.shuffle(&mut usable);

        // 2. Partition across countries by IPv4 share, then classes.
        let mut blocks: Vec<Option<BlockInfo>> = vec![None; 65_536];
        let mut asns: Vec<Asn> = Vec::new();
        let mut asn_index: HashMap<AsnId, usize> = HashMap::new();
        let mut sampling: HashMap<(Country, ScannerClass), Vec<u16>> = HashMap::new();
        let mut next_asn: u32 = 100_000; // synthetic AS number space

        let total = usable.len();
        let mut cursor = 0usize;
        for &country in Country::ALL.iter() {
            let share = country.ipv4_share();
            let count = ((share * total as f64).round() as usize).min(total - cursor);
            let country_blocks = &usable[cursor..cursor + count];
            cursor += count;

            // Split this country's blocks across classes.
            let mut offset = 0usize;
            for (i, &(class, frac)) in CLASS_SPLIT.iter().enumerate() {
                let n = if i + 1 == CLASS_SPLIT.len() {
                    country_blocks.len() - offset
                } else {
                    ((frac * country_blocks.len() as f64).round() as usize)
                        .min(country_blocks.len() - offset)
                };
                let class_blocks = &country_blocks[offset..offset + n];
                offset += n;

                // A handful of ASNs per (country, class); each /16 is owned
                // by one of them. Vietnam/Enterprise includes the real FPT
                // AS18403 called out in §6.7.
                let asn_count = (class_blocks.len() / 24).clamp(1, 40);
                let mut class_asns: Vec<AsnId> = Vec::with_capacity(asn_count);
                for k in 0..asn_count {
                    let id = if country == Country::Vietnam
                        && class == ScannerClass::Enterprise
                        && k == 0
                    {
                        AsnId(FPT_ASN)
                    } else {
                        next_asn += 1;
                        AsnId(next_asn)
                    };
                    let name = if id.0 == FPT_ASN {
                        "FPT-AS-AP The Corporation for Financing & Promoting Technology".to_string()
                    } else {
                        format!("{}-{}-{}", country.code(), class.label().to_lowercase(), k)
                    };
                    asn_index.insert(id, asns.len());
                    asns.push(Asn {
                        id,
                        name,
                        country,
                        class,
                    });
                    class_asns.push(id);
                }

                for &b16 in class_blocks {
                    let asn = class_asns[rng.range(0..class_asns.len())];
                    blocks[b16 as usize] = Some(BlockInfo {
                        country,
                        class,
                        asn,
                    });
                }
                if !class_blocks.is_empty() {
                    sampling
                        .entry((country, class))
                        .or_default()
                        .extend_from_slice(class_blocks);
                }
            }
        }

        // 3. Known-org /24 overlays, carved out of hosting space in the
        //    org's home country (falling back to any hosting space).
        let orgs = orgs::roster();
        let mut org_overlay: HashMap<u32, OrgId> = HashMap::new();
        let mut org_prefixes: Vec<Vec<u32>> = vec![Vec::new(); orgs.len()];
        for org in &orgs {
            let needed = (org.source_ips as usize).div_ceil(200).max(1);
            let pool = sampling
                .get(&(org.country, ScannerClass::Hosting))
                .or_else(|| sampling.get(&(Country::UnitedStates, ScannerClass::Hosting)))
                .expect("hosting space exists");
            for i in 0..needed {
                // Deterministic placement: spread across the pool.
                let b16 = pool[(org.id.0 as usize * 7 + i * 13) % pool.len()];
                let sub = (org.id.0 as u32 * 31 + i as u32 * 17) % 256;
                let p24 = ((b16 as u32) << 8) | sub;
                org_overlay.insert(p24, org.id);
                org_prefixes[org.id.0 as usize].push(p24);
            }
        }

        Self {
            blocks,
            asns,
            asn_index,
            org_overlay,
            org_prefixes,
            orgs,
            sampling,
        }
    }

    /// Assignment of the /16 containing `ip`.
    pub fn lookup(&self, ip: Ipv4Address) -> Option<BlockInfo> {
        self.blocks[ip.slash16() as usize]
    }

    /// The known org owning `ip`'s /24, if any.
    pub fn org(&self, ip: Ipv4Address) -> Option<OrgId> {
        self.org_overlay.get(&ip.slash24()).copied()
    }

    /// Scanner class of an address: the org overlay (institutional) wins,
    /// then the /16 plan, then `Unknown` for unassigned space.
    pub fn class(&self, ip: Ipv4Address) -> ScannerClass {
        if self.org(ip).is_some() {
            return ScannerClass::Institutional;
        }
        self.lookup(ip)
            .map(|b| b.class)
            .unwrap_or(ScannerClass::Unknown)
    }

    /// Country of an address (org home country wins over the block plan).
    pub fn country(&self, ip: Ipv4Address) -> Option<Country> {
        if let Some(org_id) = self.org(ip) {
            return Some(self.orgs[org_id.0 as usize].country);
        }
        self.lookup(ip).map(|b| b.country)
    }

    /// Full ASN record for an address.
    pub fn asn(&self, ip: Ipv4Address) -> Option<&Asn> {
        let info = self.lookup(ip)?;
        self.asn_index.get(&info.asn).map(|&i| &self.asns[i])
    }

    /// The known-org roster used by this plan.
    pub fn orgs(&self) -> &[KnownOrg] {
        &self.orgs
    }

    /// The /24 prefixes owned by a known org.
    pub fn org_prefixes(&self, org: OrgId) -> &[u32] {
        &self.org_prefixes[org.0 as usize]
    }

    /// The `i`-th source IP of a known org (stable across runs).
    pub fn org_source_ip(&self, org: OrgId, i: u32) -> Ipv4Address {
        let prefixes = &self.org_prefixes[org.0 as usize];
        let p24 = prefixes[(i as usize / 200) % prefixes.len()];
        // Hosts .1 .. .200 within the /24.
        Ipv4Address((p24 << 8) | (1 + (i % 200)))
    }

    /// Sample a source address from (country, class) space.
    pub fn sample_source(
        &self,
        rng: &mut Rng,
        country: Country,
        class: ScannerClass,
    ) -> Option<Ipv4Address> {
        let blocks = self.sampling.get(&(country, class))?;
        let b16 = blocks[rng.range(0..blocks.len())];
        let low: u16 = rng.range(1..65_535);
        Some(Ipv4Address(((b16 as u32) << 16) | low as u32))
    }

    /// Sample a source from a class in *any* country, weighted by space.
    pub fn sample_source_any_country(
        &self,
        rng: &mut Rng,
        class: ScannerClass,
    ) -> Option<Ipv4Address> {
        // Collect candidate countries once per call; cheap relative to use.
        let candidates: Vec<Country> = Country::ALL
            .iter()
            .copied()
            .filter(|c| self.sampling.contains_key(&(*c, class)))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let country = candidates[rng.range(0..candidates.len())];
        self.sample_source(rng, country, class)
    }

    /// Number of /16 blocks assigned in total.
    pub fn assigned_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> AddressPlan {
        // Telescope dark space: three /16s as in the paper.
        AddressPlan::build(42, &[0x0f0f, 0x2f2f, 0x4f4f])
    }

    #[test]
    fn deterministic_given_seed() {
        let p1 = AddressPlan::build(7, &[]);
        let p2 = AddressPlan::build(7, &[]);
        let ip = Ipv4Address::new(100, 20, 3, 4);
        assert_eq!(p1.lookup(ip), p2.lookup(ip));
        assert_eq!(p1.assigned_blocks(), p2.assigned_blocks());
    }

    #[test]
    fn different_seeds_differ() {
        let p1 = AddressPlan::build(1, &[]);
        let p2 = AddressPlan::build(2, &[]);
        // At least one of many probed blocks must differ.
        let differs = (0..100u32).any(|i| {
            let ip = Ipv4Address(((i * 613 + 1) % 0xdfff) << 16 | 0x0101);
            p1.lookup(ip).map(|b| b.country) != p2.lookup(ip).map(|b| b.country)
        });
        assert!(differs);
    }

    #[test]
    fn dark_blocks_stay_unassigned() {
        let p = plan();
        assert!(p.lookup(Ipv4Address(0x0f0f_0001)).is_none());
        assert!(p.lookup(Ipv4Address(0x2f2f_ffff)).is_none());
        assert!(p.lookup(Ipv4Address(0x4f4f_8080)).is_none());
    }

    #[test]
    fn reserved_space_stays_unassigned() {
        let p = plan();
        assert!(p.lookup(Ipv4Address::new(10, 0, 0, 1)).is_none());
        assert!(p.lookup(Ipv4Address::new(127, 0, 0, 1)).is_none());
        assert!(p.lookup(Ipv4Address::new(192, 168, 1, 1)).is_none());
        assert!(p.lookup(Ipv4Address::new(172, 20, 0, 1)).is_none());
        assert!(p.lookup(Ipv4Address::new(230, 0, 0, 1)).is_none());
    }

    #[test]
    fn most_space_is_assigned() {
        let p = plan();
        // ~56k usable /16s (224 /8s minus reserved), nearly all assigned.
        assert!(p.assigned_blocks() > 50_000, "{}", p.assigned_blocks());
    }

    #[test]
    fn org_overlay_classifies_as_institutional() {
        let p = plan();
        let censys = p.orgs().iter().find(|o| o.name == "Censys").unwrap();
        let ip = p.org_source_ip(censys.id, 0);
        assert_eq!(p.class(ip), ScannerClass::Institutional);
        assert_eq!(p.org(ip), Some(censys.id));
        assert_eq!(p.country(ip), Some(Country::UnitedStates));
    }

    #[test]
    fn org_source_ips_are_stable_and_in_overlay() {
        let p = plan();
        for org in p.orgs() {
            for i in [0u32, 1, 199, 200] {
                let ip = p.org_source_ip(org.id, i);
                assert_eq!(p.org(ip), Some(org.id), "{} ip {}", org.name, ip);
            }
            // Stability.
            assert_eq!(p.org_source_ip(org.id, 5), p.org_source_ip(org.id, 5));
        }
    }

    #[test]
    fn sampling_respects_country_and_class() {
        let p = plan();
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..50 {
            let ip = p
                .sample_source(&mut rng, Country::China, ScannerClass::Residential)
                .unwrap();
            let info = p.lookup(ip).unwrap();
            assert_eq!(info.country, Country::China);
            assert_eq!(info.class, ScannerClass::Residential);
        }
    }

    #[test]
    fn sampled_sources_never_land_in_dark_space() {
        let p = plan();
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..500 {
            let ip = p
                .sample_source_any_country(&mut rng, ScannerClass::Hosting)
                .unwrap();
            assert!(![0x0f0fu16, 0x2f2f, 0x4f4f].contains(&ip.slash16()));
        }
    }

    #[test]
    fn fpt_asn_exists_in_vietnam_enterprise_space() {
        let p = plan();
        let mut rng = Rng::seed_from_u64(11);
        let mut found = false;
        for _ in 0..2000 {
            if let Some(ip) = p.sample_source(&mut rng, Country::Vietnam, ScannerClass::Enterprise)
            {
                if let Some(asn) = p.asn(ip) {
                    if asn.id == AsnId(FPT_ASN) {
                        assert!(asn.name.contains("FPT"));
                        found = true;
                        break;
                    }
                }
            }
        }
        assert!(found, "AS18403 must own Vietnamese enterprise space");
    }

    #[test]
    fn class_split_shares_are_roughly_respected() {
        let p = plan();
        let mut counts: HashMap<ScannerClass, usize> = HashMap::new();
        for b in p.blocks.iter().flatten() {
            *counts.entry(b.class).or_default() += 1;
        }
        let total: usize = counts.values().sum();
        let res = counts[&ScannerClass::Residential] as f64 / total as f64;
        assert!((res - 0.40).abs() < 0.05, "residential share {res}");
        let host = counts[&ScannerClass::Hosting] as f64 / total as f64;
        assert!((host - 0.14).abs() < 0.04, "hosting share {host}");
    }
}

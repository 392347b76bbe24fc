//! The `InternetRegistry` façade: one object the pipeline queries for every
//! enrichment the paper performs (country, AS, class, known-org lookup).

use synscan_stats::Rng;

use synscan_wire::Ipv4Address;

use crate::alloc::AddressPlan;
use crate::asn::ScannerClass;
use crate::churn::ChurnModel;
use crate::country::Country;
use crate::orgs::{KnownOrg, OrgId};

/// A complete synthetic Internet: address plan + churn model.
#[derive(Debug, Clone)]
pub struct InternetRegistry {
    plan: AddressPlan,
    churn: ChurnModel,
}

impl InternetRegistry {
    /// Build a registry for the given seed, excluding the telescope's /16s
    /// from source space.
    pub fn build(seed: u64, dark_blocks: &[u16]) -> Self {
        Self {
            plan: AddressPlan::build(seed, dark_blocks),
            churn: ChurnModel::default(),
        }
    }

    /// Residential churn model.
    pub fn churn(&self) -> &ChurnModel {
        &self.churn
    }

    /// Country of an address, `None` for unassigned space.
    pub fn country(&self, ip: Ipv4Address) -> Option<Country> {
        self.plan.country(ip)
    }

    /// Scanner class of an address (Table 2 label space).
    pub fn class(&self, ip: Ipv4Address) -> ScannerClass {
        self.plan.class(ip)
    }

    /// Known scanning organization owning the address, if any.
    pub fn known_org(&self, ip: Ipv4Address) -> Option<&KnownOrg> {
        self.plan.org(ip).map(|id| &self.plan.orgs()[id.0 as usize])
    }

    /// The known-org roster.
    pub fn orgs(&self) -> &[KnownOrg] {
        self.plan.orgs()
    }

    /// The `i`-th source IP of an org.
    pub fn org_source_ip(&self, org: OrgId, i: u32) -> Ipv4Address {
        self.plan.org_source_ip(org, i)
    }

    /// Sample a source for (country, class).
    pub fn sample_source(
        &self,
        rng: &mut Rng,
        country: Country,
        class: ScannerClass,
    ) -> Option<Ipv4Address> {
        self.plan.sample_source(rng, country, class)
    }

    /// Sample a source of a class from any country.
    pub fn sample_source_any(&self, rng: &mut Rng, class: ScannerClass) -> Option<Ipv4Address> {
        self.plan.sample_source_any_country(rng, class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_is_consistent_with_plan() {
        let reg = InternetRegistry::build(5, &[0x0a0a]);
        let mut rng = Rng::seed_from_u64(1);
        let ip = reg
            .sample_source(&mut rng, Country::Germany, ScannerClass::Hosting)
            .unwrap();
        assert_eq!(reg.country(ip), Some(Country::Germany));
        assert_eq!(reg.class(ip), ScannerClass::Hosting);
    }

    #[test]
    fn known_org_lookup_round_trips() {
        let reg = InternetRegistry::build(6, &[]);
        for org in reg.orgs().iter().take(5) {
            let ip = reg.org_source_ip(org.id, 3);
            let found = reg.known_org(ip).expect("org source must resolve");
            assert_eq!(found.id, org.id);
            assert_eq!(reg.class(ip), ScannerClass::Institutional);
        }
    }

    #[test]
    fn unassigned_space_has_no_country() {
        let reg = InternetRegistry::build(7, &[]);
        assert_eq!(reg.country(Ipv4Address::new(10, 1, 1, 1)), None);
        assert_eq!(
            reg.class(Ipv4Address::new(10, 1, 1, 1)),
            ScannerClass::Unknown
        );
    }
}

//! The dark address set.
//!
//! Within each telescope /16, a deterministic keyed hash decides which
//! addresses are dark (unused, routed to the capture host) and which are
//! populated (real hosts — their traffic never reaches the telescope). The
//! set supports branch-free O(1) membership (a per-/16 bitmap — the capture
//! filter asks once per offered record), O(log n) indexing and range
//! queries over the sorted vector, and implements the scanners'
//! [`DarkSpace`] projection interface.

use synscan_scanners::thinning::DarkSpace;
use synscan_scanners::traits::mix64;
use synscan_wire::Ipv4Address;

use crate::config::TelescopeConfig;

/// One bit per address of a /16: 1024 words, 8 KiB.
type BlockBitmap = [u64; 1024];

/// The telescope's /16 netblocks.
const BLOCKS: usize = 3;

/// A concrete, sorted set of dark addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressSet {
    addresses: Vec<Ipv4Address>,
    blocks: [u16; BLOCKS],
    /// Membership bits, one bitmap per entry of `blocks` and a last,
    /// all-zero one for every address outside them. A block listed twice
    /// keeps all its bits in its first entry's bitmap.
    bitmaps: Box<[BlockBitmap; BLOCKS + 1]>,
}

impl AddressSet {
    /// Materialize the dark set for a configuration.
    pub fn build(cfg: &TelescopeConfig) -> Self {
        let mut addresses = Vec::new();
        let mut bitmaps = Box::new([[0u64; 1024]; BLOCKS + 1]);
        for (bi, &block) in cfg.blocks.iter().enumerate() {
            let keep = cfg.dark_fraction[bi] * cfg.scale;
            let slot = cfg.blocks[..bi]
                .iter()
                .position(|&b| b == block)
                .unwrap_or(bi);
            for low in 0u32..65_536 {
                let addr = ((block as u32) << 16) | low;
                // Keyed hash → uniform in [0,1); dark iff below the keep rate.
                let u = mix64(cfg.seed ^ u64::from(addr)) as f64 / u64::MAX as f64;
                if u < keep {
                    addresses.push(Ipv4Address(addr));
                    bitmaps[slot][(low >> 6) as usize] |= 1 << (low & 63);
                }
            }
        }
        addresses.sort();
        Self {
            addresses,
            blocks: cfg.blocks,
            bitmaps,
        }
    }

    /// Number of dark addresses.
    pub fn len(&self) -> usize {
        self.addresses.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.addresses.is_empty()
    }

    /// Membership test without a data-dependent branch: a select over the
    /// blocks picks the address's bitmap — the first entry of a block
    /// listed twice, the all-zero one for an address outside every block —
    /// and one bit of it answers.
    #[inline]
    pub fn contains(&self, addr: Ipv4Address) -> bool {
        let slash16 = addr.slash16();
        let mut slot = BLOCKS;
        for (i, &block) in self.blocks.iter().enumerate().rev() {
            slot = if block == slash16 { i } else { slot };
        }
        let low = addr.0 & 0xffff;
        self.bitmaps[slot][(low >> 6) as usize] >> (low & 63) & 1 == 1
    }

    /// The telescope /16 blocks.
    pub fn blocks(&self) -> &[u16] {
        &self.blocks
    }

    /// All dark addresses, ascending.
    pub fn addresses(&self) -> &[Ipv4Address] {
        &self.addresses
    }
}

impl DarkSpace for AddressSet {
    fn address_count(&self) -> u64 {
        self.addresses.len() as u64
    }

    fn address_at(&self, i: u64) -> Ipv4Address {
        self.addresses[i as usize]
    }

    fn addresses_in(&self, start: u32, end_exclusive: u64) -> Vec<Ipv4Address> {
        let lo = self.addresses.partition_point(|a| a.0 < start);
        let hi = self
            .addresses
            .partition_point(|a| (a.0 as u64) < end_exclusive);
        self.addresses[lo..hi].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AddressSet {
        AddressSet::build(&TelescopeConfig::paper_scaled(64))
    }

    #[test]
    fn full_size_matches_the_paper() {
        let set = AddressSet::build(&TelescopeConfig::paper());
        let n = set.len() as f64;
        assert!((n - 71_536.0).abs() < 600.0, "built {n} dark addresses");
    }

    #[test]
    fn scaled_set_is_proportional() {
        let set = small();
        let n = set.len() as f64;
        assert!((n - 71_536.0 / 64.0).abs() < 120.0, "built {n}");
    }

    #[test]
    fn addresses_live_in_the_configured_blocks() {
        let set = small();
        for addr in set.addresses() {
            assert!(set.blocks().contains(&addr.slash16()), "{addr}");
        }
    }

    #[test]
    fn set_is_sorted_and_deduplicated() {
        let set = small();
        assert!(set.addresses().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn membership_is_consistent() {
        let set = small();
        let inside = set.address_at(set.len() as u64 / 2);
        assert!(set.contains(inside));
        assert!(!set.contains(Ipv4Address::new(8, 8, 8, 8)));
    }

    #[test]
    fn bitmap_membership_agrees_with_the_sorted_vector() {
        let set = small();
        let listed = |addr: Ipv4Address| set.addresses().binary_search(&addr).is_ok();
        // Every address of the three /16s, dark or populated.
        for &block in set.blocks() {
            for low in 0u32..65_536 {
                let addr = Ipv4Address((u32::from(block) << 16) | low);
                assert_eq!(set.contains(addr), listed(addr), "{addr}");
            }
        }
        // Outside them: the /16s either side of each block, the ends of the
        // address space, and a dark address's low half under a foreign /16.
        let dark_low = set.address_at(0).0 & 0xffff;
        let mut outside = vec![0, u32::MAX, 0x0808_0808, dark_low, 0xffff_0000 | dark_low];
        for &block in set.blocks() {
            let base = u32::from(block) << 16;
            outside.extend([
                base - 1,
                base - 65_536 + dark_low,
                base + 65_536,
                base + 65_536 + dark_low,
            ]);
        }
        for addr in outside.into_iter().map(Ipv4Address) {
            assert!(!set.blocks().contains(&addr.slash16()), "{addr} is inside");
            assert!(!listed(addr));
            assert!(!set.contains(addr), "{addr}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = AddressSet::build(&TelescopeConfig::paper_scaled(32));
        let b = AddressSet::build(&TelescopeConfig::paper_scaled(32));
        assert_eq!(a, b);
        let mut cfg = TelescopeConfig::paper_scaled(32);
        cfg.seed ^= 1;
        let c = AddressSet::build(&cfg);
        assert_ne!(a, c);
    }

    #[test]
    fn range_queries_match_filtering() {
        let set = small();
        let block = set.blocks()[1];
        let start = (block as u32) << 16;
        let end = start as u64 + 65_536;
        let ranged = set.addresses_in(start, end);
        let filtered: Vec<Ipv4Address> = set
            .addresses()
            .iter()
            .copied()
            .filter(|a| a.slash16() == block)
            .collect();
        assert_eq!(ranged, filtered);
        assert!(!ranged.is_empty());
    }

    #[test]
    fn full_space_range_returns_everything() {
        let set = small();
        assert_eq!(set.addresses_in(0, 1u64 << 32).len(), set.len());
    }
}

//! Telescope configuration.
//!
//! §3.2: three partially populated /16 networks; the dark addresses add up
//! to roughly one full /16 (71,536 addresses on average). Simulations may
//! run a *scaled* telescope (`scale < 1.0`) to bound output volume — the
//! detection model and all extrapolations take the real monitored count
//! from the built [`crate::AddressSet`], so the pipeline stays consistent
//! at any scale.

/// Static configuration of the telescope.
#[derive(Debug, Clone, PartialEq)]
pub struct TelescopeConfig {
    /// The /16 netblocks (upper 16 bits of the address) hosting dark space.
    pub blocks: [u16; 3],
    /// Fraction of each /16 that is dark (unused and routed to the scope).
    pub dark_fraction: [f64; 3],
    /// Global scale knob: keep only this fraction of the dark addresses.
    pub scale: f64,
    /// Seed controlling which addresses inside each block are dark.
    pub seed: u64,
    /// Outage windows `[start, end)` in µs relative to the capture start —
    /// §3.2: "the telescope used for this study has had some outages over
    /// the years", which is why each year's dataset is the longest
    /// *continuous* stretch. Frames arriving during an outage are lost.
    pub outages: Vec<(u64, u64)>,
}

impl TelescopeConfig {
    /// The paper's telescope at full size: three /16s whose dark portions
    /// sum to ≈ 71,536 addresses (fractions 0.55 / 0.30 / 0.24).
    pub(crate) fn paper() -> Self {
        Self {
            // TEST-NET-1-style documentation blocks stand in for the real
            // (undisclosed) telescope prefixes: 100.66/16, 103.224/16,
            // 146.12/16 — arbitrary but fixed.
            blocks: [0x6442, 0x67e0, 0x920c],
            dark_fraction: [0.55, 0.30, 0.2415],
            scale: 1.0,
            seed: 0x7e1e_5c0e,
            outages: Vec::new(),
        }
    }

    /// The paper's telescope scaled down by `1/denominator` for simulation.
    pub fn paper_scaled(denominator: u32) -> Self {
        assert!(denominator > 0);
        Self {
            scale: 1.0 / denominator as f64,
            ..Self::paper()
        }
    }

    /// Expected number of dark addresses under this configuration.
    pub fn expected_dark_addresses(&self) -> f64 {
        self.dark_fraction.iter().sum::<f64>() * 65_536.0 * self.scale
    }

    /// True when `ts_micros` (relative to capture start) falls in an outage.
    pub fn in_outage(&self, ts_micros: u64) -> bool {
        self.outages
            .iter()
            .any(|&(start, end)| ts_micros >= start && ts_micros < end)
    }
}

impl Default for TelescopeConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_sums_to_about_one_slash16() {
        let cfg = TelescopeConfig::paper();
        let expected = cfg.expected_dark_addresses();
        assert!(
            (expected - 71_536.0).abs() < 200.0,
            "expected dark addresses {expected}"
        );
    }

    #[test]
    fn scaling_divides_the_population() {
        let full = TelescopeConfig::paper().expected_dark_addresses();
        let scaled = TelescopeConfig::paper_scaled(64).expected_dark_addresses();
        assert!((full / scaled - 64.0).abs() < 1e-9);
    }

    #[test]
    fn outage_windows_are_checked() {
        let mut cfg = TelescopeConfig::paper();
        assert!(!cfg.in_outage(0));
        cfg.outages.push((1_000, 2_000));
        cfg.outages.push((5_000, 6_000));
        assert!(!cfg.in_outage(999));
        assert!(cfg.in_outage(1_000));
        assert!(cfg.in_outage(1_999));
        assert!(!cfg.in_outage(2_000));
        assert!(cfg.in_outage(5_500));
    }

    #[test]
    fn blocks_are_distinct() {
        let cfg = TelescopeConfig::paper();
        assert_ne!(cfg.blocks[0], cfg.blocks[1]);
        assert_ne!(cfg.blocks[1], cfg.blocks[2]);
        assert_ne!(cfg.blocks[0], cfg.blocks[2]);
    }
}

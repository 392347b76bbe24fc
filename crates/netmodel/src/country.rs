//! Country roster and per-year scanning-activity mixes.
//!
//! The paper reports strong, *shifting* geographic biases: China originated
//! more than 30% of scanning in 2015; by 2020 the US hosts only 3.2% of scan
//! sources; Russia performed >80% of all Masscan scans in 2018; the
//! Netherlands stands out per-capita in later years. The tables in this
//! module encode those mixes so the synthetic generator reproduces them and
//! the geo analysis (§5.4, §6.5) can recover them.

/// Countries tracked by the model. `Other` aggregates the long tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Country {
    China,
    UnitedStates,
    Russia,
    Netherlands,
    Germany,
    Brazil,
    India,
    Vietnam,
    Taiwan,
    Iran,
    Indonesia,
    SouthKorea,
    Japan,
    France,
    UnitedKingdom,
    Ukraine,
    Turkey,
    Mexico,
    Argentina,
    Egypt,
    Thailand,
    Bulgaria,
    Romania,
    Singapore,
    HongKong,
    Canada,
    Italy,
    Poland,
    Seychelles,
    Other,
}

impl Country {
    /// Every tracked country, in a stable order.
    pub const ALL: [Country; 30] = [
        Country::China,
        Country::UnitedStates,
        Country::Russia,
        Country::Netherlands,
        Country::Germany,
        Country::Brazil,
        Country::India,
        Country::Vietnam,
        Country::Taiwan,
        Country::Iran,
        Country::Indonesia,
        Country::SouthKorea,
        Country::Japan,
        Country::France,
        Country::UnitedKingdom,
        Country::Ukraine,
        Country::Turkey,
        Country::Mexico,
        Country::Argentina,
        Country::Egypt,
        Country::Thailand,
        Country::Bulgaria,
        Country::Romania,
        Country::Singapore,
        Country::HongKong,
        Country::Canada,
        Country::Italy,
        Country::Poland,
        Country::Seychelles,
        Country::Other,
    ];

    /// ISO 3166-1 alpha-2 code (`Other` maps to `"XX"`).
    pub const fn code(self) -> &'static str {
        match self {
            Country::China => "CN",
            Country::UnitedStates => "US",
            Country::Russia => "RU",
            Country::Netherlands => "NL",
            Country::Germany => "DE",
            Country::Brazil => "BR",
            Country::India => "IN",
            Country::Vietnam => "VN",
            Country::Taiwan => "TW",
            Country::Iran => "IR",
            Country::Indonesia => "ID",
            Country::SouthKorea => "KR",
            Country::Japan => "JP",
            Country::France => "FR",
            Country::UnitedKingdom => "GB",
            Country::Ukraine => "UA",
            Country::Turkey => "TR",
            Country::Mexico => "MX",
            Country::Argentina => "AR",
            Country::Egypt => "EG",
            Country::Thailand => "TH",
            Country::Bulgaria => "BG",
            Country::Romania => "RO",
            Country::Singapore => "SG",
            Country::HongKong => "HK",
            Country::Canada => "CA",
            Country::Italy => "IT",
            Country::Poland => "PL",
            Country::Seychelles => "SC",
            Country::Other => "XX",
        }
    }

    /// Rough share of allocated IPv4 space, used to size the address plan.
    /// Values are fractions that sum to 1 across [`Country::ALL`]; they
    /// approximate real RIR allocations (US largest, then China, Japan, ...).
    pub const fn ipv4_share(self) -> f64 {
        match self {
            Country::UnitedStates => 0.35,
            Country::China => 0.09,
            Country::Japan => 0.05,
            Country::Germany => 0.033,
            Country::UnitedKingdom => 0.032,
            Country::SouthKorea => 0.03,
            Country::Brazil => 0.023,
            Country::France => 0.022,
            Country::Canada => 0.018,
            Country::Italy => 0.015,
            Country::Netherlands => 0.015,
            Country::Russia => 0.013,
            Country::India => 0.012,
            Country::Taiwan => 0.01,
            Country::Mexico => 0.008,
            Country::Poland => 0.007,
            Country::Indonesia => 0.006,
            Country::Vietnam => 0.006,
            Country::Argentina => 0.006,
            Country::Turkey => 0.005,
            Country::Iran => 0.005,
            Country::Thailand => 0.005,
            Country::Ukraine => 0.004,
            Country::Egypt => 0.003,
            Country::Singapore => 0.003,
            Country::HongKong => 0.003,
            Country::Romania => 0.003,
            Country::Bulgaria => 0.002,
            Country::Seychelles => 0.0005,
            Country::Other => 0.2205,
        }
    }
}

impl core::fmt::Display for Country {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// Per-year share of *scanning activity* by country of origin.
///
/// Returns `(country, weight)` pairs; weights sum to 1. Calibration points
/// from the paper:
/// * 2015–2016: China alone >30%, China+US >50% (§5.4, Durumeric et al. 2014).
/// * 2018: Russia surges (>80% of Masscan scans originate there, §6.5).
/// * 2020: US down to 3.2% of scan sources; activity "from everywhere".
/// * 2022–2024: broad diversification; the Netherlands prominent per-capita.
pub fn activity_mix(year: u16) -> Vec<(Country, f64)> {
    use Country::*;
    let raw: Vec<(Country, f64)> = match year {
        0..=2015 => vec![
            (China, 0.33),
            (UnitedStates, 0.22),
            (Russia, 0.05),
            (Taiwan, 0.04),
            (SouthKorea, 0.04),
            (Brazil, 0.03),
            (Germany, 0.025),
            (Netherlands, 0.02),
            (France, 0.02),
            (Vietnam, 0.02),
            (India, 0.015),
            (Other, 0.21),
        ],
        2016 => vec![
            (China, 0.30),
            (UnitedStates, 0.24),
            (Russia, 0.06),
            (Taiwan, 0.04),
            (Vietnam, 0.035),
            (Brazil, 0.035),
            (SouthKorea, 0.03),
            (Netherlands, 0.025),
            (Germany, 0.02),
            (India, 0.02),
            (Turkey, 0.015),
            (Other, 0.18),
        ],
        2017 => vec![
            // Mirai's heyday: infected IoT everywhere, especially Asia/LATAM.
            (China, 0.22),
            (UnitedStates, 0.12),
            (Brazil, 0.08),
            (Vietnam, 0.07),
            (India, 0.05),
            (Russia, 0.05),
            (Taiwan, 0.04),
            (Turkey, 0.035),
            (SouthKorea, 0.03),
            (Iran, 0.025),
            (Indonesia, 0.025),
            (Mexico, 0.02),
            (Argentina, 0.02),
            (Egypt, 0.02),
            (Thailand, 0.02),
            (Other, 0.195),
        ],
        2018 => vec![
            // The Russian Masscan campaign dominates the year.
            (Russia, 0.30),
            (China, 0.17),
            (UnitedStates, 0.09),
            (Brazil, 0.05),
            (Vietnam, 0.045),
            (India, 0.04),
            (Netherlands, 0.03),
            (Taiwan, 0.025),
            (Ukraine, 0.025),
            (Iran, 0.02),
            (Indonesia, 0.02),
            (Other, 0.175),
        ],
        2019 => vec![
            (China, 0.18),
            (Russia, 0.09),
            (Brazil, 0.07),
            (UnitedStates, 0.055),
            (Vietnam, 0.05),
            (India, 0.05),
            (Netherlands, 0.04),
            (Indonesia, 0.04),
            (Iran, 0.035),
            (Taiwan, 0.03),
            (Egypt, 0.025),
            (Thailand, 0.025),
            (Other, 0.31),
        ],
        2020 => vec![
            // US hosts only 3.2% of scan sources.
            (China, 0.16),
            (Russia, 0.08),
            (Brazil, 0.07),
            (India, 0.06),
            (Vietnam, 0.055),
            (Netherlands, 0.05),
            (Indonesia, 0.045),
            (Iran, 0.04),
            (UnitedStates, 0.032),
            (Taiwan, 0.03),
            (Ukraine, 0.025),
            (Egypt, 0.025),
            (Other, 0.328),
        ],
        2021 => vec![
            (China, 0.15),
            (Russia, 0.09),
            (Netherlands, 0.07),
            (Brazil, 0.06),
            (India, 0.055),
            (UnitedStates, 0.05),
            (Vietnam, 0.045),
            (Iran, 0.04),
            (Indonesia, 0.035),
            (Bulgaria, 0.03),
            (Other, 0.375),
        ],
        2022 => vec![
            (China, 0.14),
            (UnitedStates, 0.09),
            (Russia, 0.08),
            (Netherlands, 0.075),
            (Brazil, 0.05),
            (India, 0.05),
            (Taiwan, 0.035),
            (Iran, 0.035),
            (Bulgaria, 0.03),
            (Vietnam, 0.03),
            (Other, 0.375),
        ],
        2023 => vec![
            (China, 0.13),
            (UnitedStates, 0.11),
            (Netherlands, 0.08),
            (Russia, 0.07),
            (India, 0.05),
            (Brazil, 0.045),
            (Bulgaria, 0.04),
            (Seychelles, 0.025),
            (Vietnam, 0.025),
            (Other, 0.425),
        ],
        _ => vec![
            // 2024 and later: fully diversified, institutional scanning from
            // US/NL hosting heavy.
            (UnitedStates, 0.14),
            (China, 0.12),
            (Netherlands, 0.09),
            (Russia, 0.06),
            (Bulgaria, 0.045),
            (India, 0.045),
            (Brazil, 0.04),
            (Seychelles, 0.03),
            (Singapore, 0.025),
            (HongKong, 0.025),
            (Other, 0.38),
        ],
    };
    normalize(raw)
}

/// Tool-specific country skews layered on top of [`activity_mix`]:
/// ZMap is "almost exclusively used from China and the US" (§6.5), Masscan
/// 2018 is the Russian surge, NMap sees 2019–2020 adoption from Indonesia
/// and Iran.
pub fn tool_country_bias(tool: &str, year: u16) -> Option<Vec<(Country, f64)>> {
    use Country::*;
    let raw = match (tool, year) {
        ("zmap", _) => vec![
            (UnitedStates, 0.45),
            (China, 0.40),
            (Germany, 0.05),
            (Netherlands, 0.05),
            (Other, 0.05),
        ],
        ("masscan", 2018) => vec![
            (Russia, 0.82),
            (China, 0.06),
            (UnitedStates, 0.05),
            (Other, 0.07),
        ],
        ("masscan", _) => vec![
            (China, 0.25),
            (UnitedStates, 0.18),
            (Russia, 0.14),
            (Netherlands, 0.10),
            (Bulgaria, 0.06),
            (Other, 0.27),
        ],
        ("nmap", 2019..=2020) => vec![
            (Indonesia, 0.18),
            (Iran, 0.15),
            (China, 0.12),
            (UnitedStates, 0.10),
            (India, 0.08),
            (Other, 0.37),
        ],
        ("nmap", _) => vec![
            (China, 0.15),
            (UnitedStates, 0.13),
            (Russia, 0.07),
            (Germany, 0.06),
            (Brazil, 0.06),
            (India, 0.06),
            (Other, 0.47),
        ],
        _ => return None,
    };
    Some(normalize(raw))
}

fn normalize(mut mix: Vec<(Country, f64)>) -> Vec<(Country, f64)> {
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    assert!(total > 0.0, "empty mix");
    for (_, w) in mix.iter_mut() {
        *w /= total;
    }
    mix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_mix_sums_to_one_every_year() {
        for year in 2014..=2026 {
            let mix = activity_mix(year);
            let total: f64 = mix.iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-9, "year {year}: total {total}");
            assert!(mix.iter().all(|(_, w)| *w >= 0.0));
        }
    }

    #[test]
    fn calibration_2015_china_dominates() {
        let mix = activity_mix(2015);
        let china = mix
            .iter()
            .find(|(c, _)| *c == Country::China)
            .map(|(_, w)| *w)
            .unwrap();
        assert!(china >= 0.30, "China 2015 = {china}");
    }

    #[test]
    fn calibration_2020_us_is_small() {
        let mix = activity_mix(2020);
        let us = mix
            .iter()
            .find(|(c, _)| *c == Country::UnitedStates)
            .map(|(_, w)| *w)
            .unwrap();
        assert!((us - 0.032).abs() < 0.005, "US 2020 = {us}");
    }

    #[test]
    fn calibration_2018_russia_surges() {
        let mix = activity_mix(2018);
        let ru = mix
            .iter()
            .find(|(c, _)| *c == Country::Russia)
            .map(|(_, w)| *w)
            .unwrap();
        let mix17 = activity_mix(2017);
        let ru17 = mix17
            .iter()
            .find(|(c, _)| *c == Country::Russia)
            .map(|(_, w)| *w)
            .unwrap();
        assert!(ru > 4.0 * ru17, "Russia 2018 {ru} vs 2017 {ru17}");
    }

    #[test]
    fn diversification_over_the_decade() {
        // Herfindahl index of the mix should fall from 2015 to 2024.
        let hhi = |year: u16| -> f64 { activity_mix(year).iter().map(|(_, w)| w * w).sum() };
        assert!(hhi(2015) > hhi(2024), "ecosystem must diversify");
    }

    #[test]
    fn ipv4_shares_sum_to_one() {
        let total: f64 = Country::ALL.iter().map(|c| c.ipv4_share()).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn masscan_2018_bias_is_russian() {
        let bias = tool_country_bias("masscan", 2018).unwrap();
        let ru = bias
            .iter()
            .find(|(c, _)| *c == Country::Russia)
            .map(|(_, w)| *w)
            .unwrap();
        assert!(ru > 0.8);
    }

    #[test]
    fn zmap_bias_is_us_china() {
        let bias = tool_country_bias("zmap", 2022).unwrap();
        let top: f64 = bias
            .iter()
            .filter(|(c, _)| matches!(c, Country::UnitedStates | Country::China))
            .map(|(_, w)| *w)
            .sum();
        assert!(top > 0.8);
    }

    #[test]
    fn unknown_tool_has_no_bias() {
        assert!(tool_country_bias("mirai", 2020).is_none());
    }

    #[test]
    fn codes_are_unique() {
        let mut codes: Vec<&str> = Country::ALL.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Country::ALL.len());
    }
}

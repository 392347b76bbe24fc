//! Streaming ↔ materialized ↔ sharded pipeline equivalence at generator
//! scale.
//!
//! The pipeline mode must be a pure performance knob: for any worker count,
//! the `YearAnalysis` — campaign list, every aggregate map, noise
//! statistics, window bounds — the capture statistics and the generator
//! ground truth of a streamed run must be bit-identical to the materialized
//! sequential reference: the full year vector built and sorted first, then
//! offered record by record to one capture session and one collector
//! (`support::materialized_year`, which shares no code with the driver).
//! 2017 is included so the year-dependent ingress-policy path (telnet
//! blocking) runs under every combination.

mod support;

use support::materialized_year;
use synscan::core::PipelineMode;
use synscan::experiment::{DecadeRun, Experiment};
use synscan::{GeneratorConfig, RunOptions, YearConfig};

fn run(year: u16, mode: PipelineMode) -> synscan::experiment::YearRun {
    Experiment::new(GeneratorConfig::tiny())
        .year(&YearConfig::for_year(year), mode, &RunOptions::default())
        .expect("clean year")
        .completed()
        .expect("nothing interrupts a plain run")
}

fn decade(experiment: Experiment) -> DecadeRun {
    experiment
        .decade(&RunOptions::default())
        .expect("clean decade")
        .completed()
        .expect("nothing interrupts a plain run")
}

#[test]
fn streaming_and_sharding_are_bit_identical_to_the_materialized_sequential_reference() {
    let experiment = Experiment::new(GeneratorConfig::tiny());
    for year in [2017u16, 2020] {
        let (analysis, capture, truth) = materialized_year(&experiment, year);
        for mode in [
            PipelineMode::Sequential,
            PipelineMode::Sharded { workers: 1 },
            PipelineMode::Sharded { workers: 4 },
        ] {
            let other = run(year, mode);
            let label = format!("{year} mode={mode:?}");
            assert_eq!(capture, other.capture, "{label}: capture stats diverged");
            assert_eq!(
                truth, other.truth,
                "{label}: generation is flow-independent"
            );
            assert_eq!(analysis, other.analysis, "{label}: analysis diverged");
        }
    }
}

#[test]
fn sharded_run_still_detects_real_structure() {
    // Not just equal — equal and non-trivial: campaigns, tool attributions
    // and the 2017 ingress policy all survive the fan-out, streamed.
    let run = run(2017, PipelineMode::Sharded { workers: 4 });
    assert!(run.capture.admitted > 0);
    assert!(run.capture.ingress_blocked > 0, "2017 blocks telnet");
    assert!(!run.analysis.campaigns.is_empty());
    assert!(!run.analysis.port_packets.contains_key(&23));
    assert!(run.analysis.total_packets == run.capture.admitted);
}

#[test]
fn materialized_decade_equals_the_streamed_decade() {
    let experiment = Experiment::new(GeneratorConfig::tiny());
    let streamed = decade(Experiment::new(GeneratorConfig::tiny()));
    assert_eq!(streamed.years.len(), YearConfig::decade().len());
    for run in &streamed.years {
        let year = run.analysis.year;
        let (analysis, capture, truth) = materialized_year(&experiment, year);
        assert_eq!(run.analysis, analysis, "year {year}");
        assert_eq!(run.capture, capture, "year {year}");
        assert_eq!(run.truth, truth, "year {year}");
    }
}

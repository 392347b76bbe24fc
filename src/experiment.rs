//! The end-to-end experiment runner used by the `repro` binary, the
//! integration tests, and every benchmark: synthesize a year, pass it
//! through the telescope capture (ingress + SYN filter), run the §3
//! measurement pipeline, and collect the per-year analysis bundle.
//!
//! Each year flows *streamed*: the generator's lazy emitter plan feeds the
//! pipeline one batch at a time and the full record vector never exists.
//!
//! For robustness drills the harness can decay its own input:
//! [`Experiment::with_chaos`] wraps every year's record stream in a
//! [`ChaosStream`] (the plan is re-seeded per year, so a decade run injects
//! at distinct but reproducible offsets), and
//! [`Experiment::with_fault_policy`] selects how the pipeline responds. The
//! fallible entry points ([`Experiment::try_run_year`],
//! [`Experiment::try_run_decade`]) return `Err` instead of panicking when a
//! fault is fatal under the chosen policy.
//!
//! Long runs survive crashes: [`Experiment::try_run_year_checkpointed`] and
//! [`Experiment::try_run_decade_checkpointed`] route through the supervised
//! driver ([`synscan_core::run_year_supervised`]), which persists atomic
//! per-year checkpoints to a directory, stops cleanly when a caller-owned
//! stop flag is raised (e.g. from a SIGINT handler), resumes a killed run
//! from its last checkpoint with bit-identical results, and retries a
//! panicked shard worker once from the last checkpoint before giving up.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use synscan_core::analysis::YearAnalysis;
use synscan_core::checkpoint::{SnapReader, SnapWriter};
use synscan_core::pipeline::{try_collect_year_stream, PipelineError, PipelineMode, SizeHints};
use synscan_core::sketch::HeavyHitterConfig;
use synscan_core::store::{AnalysisStore, StoreError};
use synscan_core::{
    run_year_supervised, AdmitState, CampaignConfig, Checkpoint, CheckpointError,
    CheckpointOptions, InjectedFaults, RunError, RunSpec, RunStatus, SupervisionConfig,
    SupervisionReport, SupervisorOptions,
};
use synscan_netmodel::InternetRegistry;
use synscan_synthesis::fanout;
use synscan_synthesis::generate::{plan_year, GeneratorConfig, GroundTruth};
use synscan_synthesis::stream::YearPlan;
use synscan_synthesis::yearcfg::YearConfig;
use synscan_telescope::{AddressSet, CaptureSession, CaptureStats};
use synscan_wire::chaos::{ChaosPlan, ChaosStream};
use synscan_wire::stream::{FaultCounters, FaultPolicy, InfallibleStream, TryRecordStream};
use synscan_wire::ProbeRecord;

/// Why a store-backed run failed: the measurement run itself, or
/// persisting its terminal state into the analysis store.
#[derive(Debug)]
pub enum StoreRunError {
    /// The pipeline failed before the year produced an analysis.
    Run(PipelineError),
    /// The analysis was computed but could not be persisted.
    Store(StoreError),
}

impl std::fmt::Display for StoreRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreRunError::Run(e) => write!(f, "{e}"),
            StoreRunError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreRunError {}

impl From<PipelineError> for StoreRunError {
    fn from(e: PipelineError) -> Self {
        StoreRunError::Run(e)
    }
}

impl From<StoreError> for StoreRunError {
    fn from(e: StoreError) -> Self {
        StoreRunError::Store(e)
    }
}

/// One fully processed year.
#[derive(Debug, Clone)]
pub struct YearRun {
    /// Pipeline output: aggregates, campaigns, noise.
    pub analysis: YearAnalysis,
    /// Generator ground truth for calibration checks.
    pub truth: GroundTruth,
    /// Telescope capture counters (filter efficacy).
    pub capture: CaptureStats,
    /// What the fault policy dropped or cut short (zero without chaos).
    pub faults: FaultCounters,
}

impl YearRun {
    /// Persist this year's terminal state as a full store slice — the one
    /// write path every run variant funnels through.
    pub fn persist(&self, store: &AnalysisStore) -> Result<PathBuf, StoreError> {
        store.write_year(&self.analysis)
    }
}

/// The full decade, plus the shared world.
#[derive(Debug)]
pub struct DecadeRun {
    /// Per-year runs, ascending by year.
    pub years: Vec<YearRun>,
    /// The synthetic Internet the pipeline's enrichment queries resolve
    /// against.
    pub registry: InternetRegistry,
    /// Monitored telescope addresses.
    pub monitored: u64,
}

impl DecadeRun {
    /// Assemble the Table 1 reproduction.
    pub fn report(&self) -> synscan_core::report::DecadeReport {
        synscan_core::report::DecadeReport {
            years: self
                .years
                .iter()
                .map(|y| synscan_core::analysis::yearly::summarize(&y.analysis, 5))
                .collect(),
        }
    }

    /// All campaigns of the decade, chronologically per year.
    pub fn all_campaigns(&self) -> Vec<&synscan_core::Campaign> {
        self.years
            .iter()
            .flat_map(|y| y.analysis.campaigns.iter())
            .collect()
    }

    /// Sum of every year's fault counters (all-zero without chaos).
    pub fn total_faults(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        for y in &self.years {
            total.absorb(&y.faults);
        }
        total
    }

    /// Persist every year's terminal state into the analysis store, one
    /// full slice per year, returning the written paths ascending by year.
    pub fn persist(&self, store: &AnalysisStore) -> Result<Vec<PathBuf>, StoreError> {
        self.years.iter().map(|y| y.persist(store)).collect()
    }
}

/// Where and how often a supervised run checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Directory holding one `checkpoint-year{year}.ckpt` file per year.
    pub dir: PathBuf,
    /// Checkpoint after at least this many stream records since the last
    /// cut. `0` = only the final completion checkpoint.
    pub every: u64,
    /// Restart each year from its latest on-disk checkpoint (from scratch
    /// when none exists) instead of ignoring old state.
    pub resume: bool,
    /// Abort the run right after writing this many checkpoints — the
    /// kill-and-resume drill hook (`--die-after-checkpoints`); `None` in
    /// normal operation.
    pub interrupt_after: Option<u64>,
}

impl CheckpointSpec {
    /// Checkpoint into `dir` with completion-only cuts, no resume.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every: 0,
            resume: false,
            interrupt_after: None,
        }
    }

    /// Set the record-count checkpoint interval.
    pub fn every(mut self, every: u64) -> Self {
        self.every = every;
        self
    }

    /// Enable resuming from the latest on-disk checkpoint.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Arm the interrupt-after-N-checkpoints drill.
    pub fn interrupt_after(mut self, after: Option<u64>) -> Self {
        self.interrupt_after = after;
        self
    }
}

/// How a supervised, checkpointed year run ended.
// One value per run, matched once: boxing the finished analysis buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum YearStatus {
    /// The year ran to completion.
    Completed {
        /// The finished year, identical to an unsupervised run's.
        run: YearRun,
        /// Stalls observed, failures survived, and retries spent.
        report: SupervisionReport,
        /// Checkpoints written during this run (not counting resumed-from
        /// state).
        checkpoints: u64,
    },
    /// The run stopped early — stop flag or interrupt drill — after
    /// persisting a checkpoint to resume from.
    Interrupted {
        /// Checkpoints written during this run.
        checkpoints: u64,
        /// Stream records consumed when the run stopped.
        cursor: u64,
    },
}

/// How a supervised, checkpointed decade run ended.
// One value per run, matched once: boxing the finished analysis buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum DecadeStatus {
    /// Every year completed.
    Completed {
        /// The assembled decade, identical to an unsupervised run's.
        run: DecadeRun,
        /// Supervision events merged across all ten years.
        supervision: SupervisionReport,
    },
    /// At least one year stopped early; every interrupted year left a
    /// checkpoint, so re-running with `resume` finishes the decade.
    Interrupted {
        /// Years that completed during this invocation.
        completed: usize,
        /// Years that stopped early, ascending.
        interrupted: Vec<u16>,
    },
}

/// [`AdmitState`] adapter over the telescope capture: admits records via
/// [`CaptureSession::offer`] and checkpoints the seven capture counters so a
/// resumed run's capture statistics continue exactly where the interrupted
/// run's stopped. The distributed worker reuses it verbatim, which is what
/// makes a worker's capture-counter blob decodable by the coordinator.
pub(crate) struct SessionAdmit<'a>(pub(crate) CaptureSession<'a>);

/// Decode the seven-counter capture blob produced by
/// [`SessionAdmit::snapshot`] — the coordinator uses this to reconstruct a
/// year's [`CaptureStats`] from a remote worker's partial.
pub(crate) fn decode_capture_stats(blob: &[u8]) -> Result<CaptureStats, CheckpointError> {
    let mut r = SnapReader::new(blob);
    let stats = CaptureStats {
        offered: r.take_u64()?,
        not_dark: r.take_u64()?,
        outage_lost: r.take_u64()?,
        ingress_blocked: r.take_u64()?,
        backscatter: r.take_u64()?,
        other_scan_techniques: r.take_u64()?,
        admitted: r.take_u64()?,
    };
    if r.remaining() != 0 {
        return Err(CheckpointError::Corrupt(
            "trailing bytes after capture statistics".into(),
        ));
    }
    Ok(stats)
}

impl AdmitState for SessionAdmit<'_> {
    fn admit(&mut self, record: &ProbeRecord) -> bool {
        self.0.offer(record)
    }

    fn snapshot(&self) -> Vec<u8> {
        let s = self.0.stats();
        let mut w = SnapWriter::new();
        for v in [
            s.offered,
            s.not_dark,
            s.outage_lost,
            s.ingress_blocked,
            s.backscatter,
            s.other_scan_techniques,
            s.admitted,
        ] {
            w.put_u64(v);
        }
        w.into_bytes()
    }

    fn restore(&mut self, blob: &[u8]) -> Result<(), CheckpointError> {
        self.0.restore_stats(decode_capture_stats(blob)?);
        Ok(())
    }
}

/// The experiment harness: a generator configuration plus the derived world.
#[derive(Debug)]
pub struct Experiment {
    gen: GeneratorConfig,
    registry: InternetRegistry,
    dark: AddressSet,
    mode: PipelineMode,
    policy: FaultPolicy,
    chaos: Option<ChaosPlan>,
    inject: Option<Arc<InjectedFaults>>,
    heavy: Option<HeavyHitterConfig>,
}

impl Experiment {
    /// Build the world for a generator configuration.
    pub fn new(gen: GeneratorConfig) -> Self {
        let telescope = gen.telescope();
        let dark = AddressSet::build(&telescope);
        let registry = InternetRegistry::build(gen.seed, &telescope.blocks);
        Self {
            gen,
            registry,
            dark,
            mode: PipelineMode::Sequential,
            policy: FaultPolicy::Fail,
            chaos: None,
            inject: None,
            heavy: None,
        }
    }

    /// Enable sublinear heavy-hitter tracking (`--heavy-hitters`): every
    /// year's analysis then carries top-K + count-min sketch state and the
    /// derived "network impact" report section. Identical across pipeline
    /// modes, like every other aggregate.
    pub fn with_heavy_hitters(mut self, config: Option<HeavyHitterConfig>) -> Self {
        self.heavy = config;
        self
    }

    /// Select how each year's measurement loop executes (sequential or
    /// source-sharded across threads; the results are bit-identical).
    pub fn with_pipeline_mode(mut self, mode: PipelineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Select how the pipeline reacts to faulty records (relevant when a
    /// chaos plan is installed; a clean generator stream never faults).
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Decay every year's record stream through a [`ChaosStream`] driven by
    /// this plan, re-seeded per year. Use the fallible `try_run_*` entry
    /// points with a non-strict [`FaultPolicy`] to run through the faults.
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// The pipeline mode in use.
    pub fn pipeline_mode(&self) -> PipelineMode {
        self.mode
    }

    /// The fault policy in use.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.policy
    }

    /// The generator configuration in use.
    pub fn config(&self) -> &GeneratorConfig {
        &self.gen
    }

    /// The synthetic Internet registry.
    pub fn registry(&self) -> &InternetRegistry {
        &self.registry
    }

    /// The telescope dark set.
    pub fn dark(&self) -> &AddressSet {
        &self.dark
    }

    /// Campaign thresholds scaled to this telescope (§3.4).
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig::scaled(self.dark.len() as u64)
    }

    /// The heavy-hitter sketch configuration in effect (None = disabled).
    pub(crate) fn heavy(&self) -> Option<HeavyHitterConfig> {
        self.heavy
    }

    /// Volatility period length for this generator scale: the paper compares
    /// week over week inside a 29–61 day window; a short simulated window
    /// uses proportionally shorter periods so Figure 2 still gets several
    /// period pairs.
    pub fn period_days(&self) -> f64 {
        (self.gen.days / 5.0).clamp(1.0, 7.0)
    }

    /// Pipeline pre-size hints for a planned year. Rough distinct-source
    /// width: campaigns dominate, each from its own source, plus background
    /// stragglers. Port width: horizontal scans cluster on the popular-port
    /// list, vertical scans fan out to their widest bucket. The cardinalities
    /// are only pre-size hints; the heavy config enables sketch tracking when
    /// set.
    pub(crate) fn hints_for(&self, truth: &GroundTruth) -> SizeHints {
        SizeHints::new(
            (truth.scans as usize).saturating_mul(2),
            truth
                .vertical_scans
                .keys()
                .max()
                .map_or(0, |&ports| ports as usize)
                + 64,
        )
        .with_heavy(self.heavy)
    }

    /// Plan one year's emitters and ground truth (no records materialized).
    pub(crate) fn plan(&self, year_cfg: &YearConfig) -> YearPlan {
        plan_year(year_cfg, &self.gen, &self.registry, &self.dark)
    }

    /// The run parameters both year drivers share, for a planned year.
    fn run_spec(&self, year: u16, mode: PipelineMode, truth: &GroundTruth) -> RunSpec {
        RunSpec {
            year,
            config: self.campaign_config(),
            period_days: self.period_days(),
            mode,
            hints: self.hints_for(truth),
            policy: self.policy,
        }
    }

    /// Hand `drive` the year's record stream as either driver wants it:
    /// lazily replayed from the plan, decayed through the chaos plan when
    /// one is installed. The plan is re-seeded per year: one user-facing
    /// seed, distinct (but reproducible) injection offsets for every year
    /// of the decade.
    fn with_stream<T>(
        &self,
        plan: &YearPlan,
        drive: impl FnOnce(&mut dyn TryRecordStream) -> T,
    ) -> T {
        let mut stream = plan.stream(&self.dark);
        match &self.chaos {
            Some(chaos) => {
                let chaos = chaos.reseeded(u64::from(plan.year));
                drive(&mut ChaosStream::new(stream, chaos))
            }
            None => drive(&mut InfallibleStream(&mut stream)),
        }
    }

    /// Assemble the decade from its finished years (in any order), handing
    /// over the shared registry.
    pub(crate) fn into_decade(self, mut years: Vec<YearRun>) -> DecadeRun {
        years.sort_by_key(|y| y.analysis.year);
        DecadeRun {
            years,
            monitored: self.dark.len() as u64,
            registry: self.registry,
        }
    }

    /// Run `year` over every year of the decade in parallel, first error
    /// wins. The intra-year shard budget composes with this cross-year
    /// fan-out: each concurrently running year gets `workers / years` shard
    /// threads so the two levels together stay within one machine's budget.
    fn decade<T: Send, E: Send>(
        &self,
        year: impl Fn(&YearConfig, PipelineMode) -> Result<T, E> + Sync,
    ) -> Result<Vec<T>, E> {
        let configs = YearConfig::decade();
        let concurrent = configs.len().min(fanout::width()).max(1);
        let year_mode = self.mode.with_budget(concurrent);
        fanout::par_map(&configs, |cfg| year(cfg, year_mode))
            .into_iter()
            .collect()
    }

    /// Run one year end to end.
    ///
    /// # Panics
    /// If a chaos plan is installed and a fault is fatal under the current
    /// policy; use [`Experiment::try_run_year`] for a `Result`.
    pub fn run_year(&self, year: u16) -> YearRun {
        self.run_year_cfg_mode(&YearConfig::for_year(year), self.mode)
    }

    /// Run one year with an explicit (possibly customized) year config and
    /// pipeline mode, overriding the experiment-wide setting (the decade
    /// fan-out uses this to hand each year its share of the worker budget).
    ///
    /// # Panics
    /// As [`Experiment::run_year`].
    pub fn run_year_cfg_mode(&self, year_cfg: &YearConfig, mode: PipelineMode) -> YearRun {
        self.try_run_year_cfg_mode(year_cfg, mode)
            .unwrap_or_else(|e| panic!("year {} failed: {e}", year_cfg.year))
    }

    /// Fallible [`Experiment::run_year`].
    pub fn try_run_year(&self, year: u16) -> Result<YearRun, PipelineError> {
        self.try_run_year_cfg_mode(&YearConfig::for_year(year), self.mode)
    }

    /// Run one year end to end, surfacing fatal faults as `Err` — the entry
    /// point for chaos-decayed runs under [`FaultPolicy::Fail`].
    pub fn try_run_year_cfg_mode(
        &self,
        year_cfg: &YearConfig,
        mode: PipelineMode,
    ) -> Result<YearRun, PipelineError> {
        let plan = self.plan(year_cfg);
        let mut session = CaptureSession::new(&self.dark, year_cfg.year);
        let spec = self.run_spec(year_cfg.year, mode, &plan.truth);
        let outcome = self.with_stream(&plan, |stream| {
            try_collect_year_stream(
                spec.year,
                spec.config,
                spec.period_days,
                spec.mode,
                spec.hints,
                spec.policy,
                stream,
                |record| session.offer(record),
            )
        })?;
        Ok(YearRun {
            analysis: outcome.analysis,
            truth: plan.truth,
            capture: session.stats(),
            faults: outcome.faults,
        })
    }

    /// Run the whole decade, years in parallel.
    ///
    /// # Panics
    /// As [`Experiment::run_year`]; use [`Experiment::try_run_decade`] for
    /// chaos-decayed runs.
    pub fn run_decade(self) -> DecadeRun {
        self.try_run_decade()
            .unwrap_or_else(|e| panic!("decade run failed: {e}"))
    }

    /// Fallible [`Experiment::run_decade`]: the first year with a fatal
    /// fault aborts the decade with its error.
    pub fn try_run_decade(self) -> Result<DecadeRun, PipelineError> {
        let years = self.decade(|cfg, mode| self.try_run_year_cfg_mode(cfg, mode))?;
        Ok(self.into_decade(years))
    }

    /// Run the whole decade, persisting each year into the analysis store
    /// *as it completes* (not after the decade finishes), so an interrupted
    /// decade leaves its finished years queryable and a resumed run only
    /// recomputes the rest. This — like [`YearRun::persist`] and
    /// [`DecadeRun::persist`] — funnels terminal state through the one
    /// atomic store write path.
    pub fn run_decade_into(self, store: &AnalysisStore) -> Result<DecadeRun, StoreRunError> {
        let years = self.decade(|cfg, mode| -> Result<YearRun, StoreRunError> {
            let run = self.try_run_year_cfg_mode(cfg, mode)?;
            run.persist(store)?;
            Ok(run)
        })?;
        Ok(self.into_decade(years))
    }

    /// Arm deterministic one-shot faults in the supervised shard workers —
    /// the test hook for the panic-containment and retry-from-checkpoint
    /// paths.
    #[doc(hidden)]
    pub fn with_injected_faults(mut self, faults: Arc<InjectedFaults>) -> Self {
        self.inject = Some(faults);
        self
    }

    /// Run one year under the supervised, checkpointed driver.
    ///
    /// With [`CheckpointSpec::resume`] set, the year restarts from its
    /// latest on-disk checkpoint (from scratch if none exists) and produces
    /// output bit-identical to an uninterrupted run. A shard-worker failure
    /// is retried once from the last persisted checkpoint before surfacing;
    /// a spent retry is counted in the returned supervision report.
    pub fn try_run_year_checkpointed(
        &self,
        year_cfg: &YearConfig,
        mode: PipelineMode,
        ckpt: &CheckpointSpec,
        stop: Option<&AtomicBool>,
    ) -> Result<YearStatus, RunError> {
        let resume = if ckpt.resume {
            Checkpoint::load_latest(&ckpt.dir, year_cfg.year)?
        } else {
            None
        };
        match self.supervised_attempt(year_cfg, mode, ckpt, resume, stop) {
            Err(RunError::Pipeline(PipelineError::WorkerFailed { .. })) => {
                // The failed attempt drained its healthy shards but wrote no
                // further cut, so the latest file on disk is a consistent
                // earlier cut (or absent — then the retry starts fresh).
                let resume = Checkpoint::load_latest(&ckpt.dir, year_cfg.year)?;
                let mut status = self.supervised_attempt(year_cfg, mode, ckpt, resume, stop)?;
                if let YearStatus::Completed { report, .. } = &mut status {
                    report.retried += 1;
                }
                Ok(status)
            }
            other => other,
        }
    }

    /// One supervised pass over a year: build the plan and stream exactly as
    /// [`Experiment::try_run_year_cfg_mode`] does, but drive them through
    /// [`run_year_supervised`] with this experiment's checkpoint directory,
    /// stop flag, and injected faults.
    fn supervised_attempt(
        &self,
        year_cfg: &YearConfig,
        mode: PipelineMode,
        ckpt: &CheckpointSpec,
        resume: Option<Checkpoint>,
        stop: Option<&AtomicBool>,
    ) -> Result<YearStatus, RunError> {
        let plan = self.plan(year_cfg);
        let mut admit = SessionAdmit(CaptureSession::new(&self.dark, year_cfg.year));
        let spec = self.run_spec(year_cfg.year, mode, &plan.truth);
        let opts = SupervisorOptions {
            supervision: SupervisionConfig::default(),
            checkpoint: Some(CheckpointOptions {
                dir: ckpt.dir.clone(),
                every: ckpt.every,
                seed: self.gen.seed,
                interrupt_after: ckpt.interrupt_after,
            }),
            resume,
            stop,
            inject: self.inject.clone(),
        };
        let status = self.with_stream(&plan, |stream| {
            run_year_supervised(&spec, opts, stream, &mut admit)
        })?;
        Ok(match status {
            RunStatus::Completed {
                outcome,
                report,
                checkpoints,
            } => YearStatus::Completed {
                run: YearRun {
                    analysis: outcome.analysis,
                    truth: plan.truth,
                    capture: admit.0.stats(),
                    faults: outcome.faults,
                },
                report,
                checkpoints,
            },
            RunStatus::Interrupted {
                checkpoints,
                cursor,
            } => YearStatus::Interrupted {
                checkpoints,
                cursor,
            },
        })
    }

    /// Run the whole decade under the supervised driver, years in parallel,
    /// each year checkpointing to (and resuming from) its own per-year file
    /// in [`CheckpointSpec::dir`].
    ///
    /// When a stop flag interrupts some years mid-run, the completed years'
    /// results are discarded (their checkpoints remain final and complete on
    /// disk) and the interrupted years are reported; re-running with
    /// `resume` fast-forwards completed years from their final checkpoints
    /// and finishes the rest.
    pub fn try_run_decade_checkpointed(
        self,
        ckpt: &CheckpointSpec,
        stop: Option<&AtomicBool>,
    ) -> Result<DecadeStatus, RunError> {
        let statuses = self.decade(|cfg, mode| {
            self.try_run_year_checkpointed(cfg, mode, ckpt, stop)
                .map(|status| (cfg.year, status))
        })?;
        let mut years = Vec::new();
        let mut interrupted = Vec::new();
        let mut supervision = SupervisionReport::default();
        for (year, status) in statuses {
            match status {
                YearStatus::Completed { run, report, .. } => {
                    supervision.absorb(report);
                    years.push(run);
                }
                YearStatus::Interrupted { .. } => interrupted.push(year),
            }
        }
        if interrupted.is_empty() {
            Ok(DecadeStatus::Completed {
                run: self.into_decade(years),
                supervision,
            })
        } else {
            interrupted.sort_unstable();
            Ok(DecadeStatus::Interrupted {
                completed: years.len(),
                interrupted,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_year_end_to_end_at_tiny_scale() {
        let experiment = Experiment::new(GeneratorConfig::tiny());
        let run = experiment.run_year(2020);
        // The capture admitted the SYN traffic and dropped the backscatter.
        assert!(run.capture.admitted > 0);
        assert_eq!(run.capture.backscatter, run.truth.backscatter_packets);
        assert_eq!(run.capture.not_dark, 0, "generator only targets dark space");
        // The pipeline found campaigns.
        assert!(!run.analysis.campaigns.is_empty());
        assert!(run.analysis.total_packets == run.capture.admitted);
        assert!(!run.faults.any(), "clean run reports no faults");
    }

    #[test]
    fn decade_runs_sorted_and_consistent() {
        let gen = GeneratorConfig::tiny();
        let run = Experiment::new(gen).run_decade();
        assert_eq!(run.years.len(), 10);
        assert!(run
            .years
            .windows(2)
            .all(|w| w[0].analysis.year < w[1].analysis.year));
        assert!(run
            .years
            .iter()
            .all(|y| y.analysis.monitored == run.monitored));
        let report = run.report();
        assert_eq!(report.years.len(), 10);
        assert!(report.packets_per_day_growth().unwrap() > 1.0);
        assert_eq!(
            run.all_campaigns().len(),
            run.years
                .iter()
                .map(|y| y.analysis.campaigns.len())
                .sum::<usize>()
        );
        assert!(!run.total_faults().any());
    }

    #[test]
    fn ingress_policy_blocks_telnet_from_2017() {
        let experiment = Experiment::new(GeneratorConfig::tiny());
        let run = experiment.run_year(2017);
        assert!(
            run.capture.ingress_blocked > 0,
            "2017 Mirai targets port 23"
        );
        assert!(!run.analysis.port_packets.contains_key(&23));
        assert!(!run.analysis.port_packets.contains_key(&445));
        // 2323 passes.
        assert!(run.analysis.port_packets.contains_key(&2323));
    }

    #[test]
    fn persisted_year_reloads_identically() {
        let dir = std::env::temp_dir().join(format!("synstore-exp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = AnalysisStore::open(&dir).expect("open store");
        let run = Experiment::new(GeneratorConfig::tiny()).run_year(2020);
        run.persist(&store).expect("persist");
        assert_eq!(store.load_year(2020).expect("reload"), run.analysis);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn benign_chaos_under_skip_matches_the_clean_run() {
        // Injected adjacent duplicates are dropped by the driver gate before
        // the capture filter, so both the analysis *and* the capture
        // statistics equal the clean run's.
        let clean = Experiment::new(GeneratorConfig::tiny())
            .with_fault_policy(FaultPolicy::SkipRecord)
            .run_year(2020);
        let chaotic = Experiment::new(GeneratorConfig::tiny())
            .with_fault_policy(FaultPolicy::SkipRecord)
            .with_chaos(ChaosPlan::benign(0xfeed))
            .run_year(2020);
        assert_eq!(clean.analysis, chaotic.analysis);
        assert_eq!(clean.capture, chaotic.capture);
        assert!(chaotic.faults.duplicates_dropped > 0);
        assert_eq!(chaotic.faults.records_skipped, 0);
    }
}

//! The end-to-end experiment runner used by the `repro` binary, the
//! integration tests, and every benchmark: synthesize a year, pass it
//! through the telescope capture (ingress + SYN filter), run the §3
//! measurement pipeline, and collect the per-year analysis bundle.
//!
//! Each year flows *streamed*: the generator's lazy emitter plan feeds the
//! pipeline one batch at a time and the full record vector never exists.
//!
//! There is one way to run a year, [`Experiment::year`], and one way to run
//! the decade, [`Experiment::decade`]; both take a [`RunOptions`] and drive
//! [`synscan_core::run_year_supervised`]. The default options are the plain
//! run: nothing is cut, nothing stops it, nothing is persisted. A
//! [`CheckpointSpec`] adds atomic per-year checkpoints, resume from them
//! with bit-identical results, and one retry of a panicked shard worker
//! from the last cut; a stop flag (raised from a SIGINT handler, say) ends
//! the run at the next batch boundary behind a final checkpoint; a store
//! receives every year the moment it completes. [`Experiment::run_year`] is
//! the panicking shorthand for a plain year.
//!
//! For robustness drills the harness can decay its own input:
//! [`Experiment::with_chaos`] wraps every year's record stream in a
//! [`ChaosStream`] (the plan is re-seeded per year, so a decade run injects
//! at distinct but reproducible offsets), and
//! [`Experiment::with_fault_policy`] selects how the pipeline responds.

use std::hash::Hasher as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use synscan_core::analysis::YearAnalysis;
use synscan_core::checkpoint::{SnapReader, SnapWriter};
use synscan_core::pipeline::{PipelineError, PipelineMode, SizeHints};
use synscan_core::sketch::HeavyHitterConfig;
use synscan_core::store::{AnalysisStore, StoreError};
use synscan_core::{
    run_year_supervised, AdmitState, CampaignConfig, Checkpoint, CheckpointError,
    CheckpointOptions, FxHasher, InjectedFaults, RunSpec, RunStatus, SupervisionReport,
    SupervisorOptions, WorkerFailure,
};
use synscan_netmodel::InternetRegistry;
use synscan_synthesis::fanout;
use synscan_synthesis::generate::{plan_year, GeneratorConfig, GroundTruth};
use synscan_synthesis::stream::YearPlan;
use synscan_synthesis::yearcfg::YearConfig;
use synscan_telescope::{AddressSet, CaptureSession, CaptureStats};
use synscan_wire::chaos::{ChaosPlan, ChaosStream};
use synscan_wire::stream::{FaultCounters, FaultPolicy, TryRecordStream};
use synscan_wire::ProbeRecord;

/// Why a run failed: in the pipeline, at a checkpoint, or persisting a
/// finished year into the analysis store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The pipeline itself failed (stream fault, worker panic).
    Pipeline(PipelineError),
    /// Checkpoint I/O or validation failed.
    Checkpoint(CheckpointError),
    /// The analysis was computed but could not be persisted.
    Store(StoreError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Pipeline(e) => write!(f, "{e}"),
            RunError::Checkpoint(
                e @ CheckpointError::Mismatch {
                    field: "identity", ..
                },
            ) => write!(
                f,
                "checkpoint: {e} (the identity word hashes the input and every option \
                 that shapes the analysis: one of them differs from the interrupted run's)"
            ),
            RunError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            RunError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<CheckpointError> for RunError {
    fn from(e: CheckpointError) -> Self {
        RunError::Checkpoint(e)
    }
}

impl From<StoreError> for RunError {
    fn from(e: StoreError) -> Self {
        RunError::Store(e)
    }
}

impl From<synscan_core::RunError> for RunError {
    fn from(e: synscan_core::RunError) -> Self {
        match e {
            synscan_core::RunError::Pipeline(e) => RunError::Pipeline(e),
            synscan_core::RunError::Checkpoint(e) => RunError::Checkpoint(e),
        }
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

    /// Sum of every year's fault counters (all-zero without chaos).
    pub fn total_faults(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        for y in &self.years {
            total.absorb(&y.faults);
        }
        total
    }
}

/// Where and how often a run checkpoints, and whether it starts from what
/// is already there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// The driver's own options. Their `identity` is not the caller's to set:
    /// every run call overwrites it with its identity word.
    options: CheckpointOptions,
    resume: bool,
}

impl CheckpointSpec {
    /// Checkpoint into `dir` (one `checkpoint-year{year}.ckpt` per year)
    /// with completion-only cuts, no resume.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            options: CheckpointOptions {
                dir: dir.into(),
                every: 0,
                identity: 0,
                interrupt_after: None,
            },
            resume: false,
        }
    }

    /// Checkpoint after at least this many stream records since the last
    /// cut. `0` = only the final completion checkpoint.
    pub fn every(mut self, every: u64) -> Self {
        self.options.every = every;
        self
    }

    /// Restart each year from its latest on-disk checkpoint (from scratch
    /// when none exists) instead of ignoring old state.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Stop the run right after writing this many checkpoints — the
    /// kill-and-resume drill hook (`--die-after-checkpoints`); `None` in
    /// normal operation.
    pub fn interrupt_after(mut self, after: Option<u64>) -> Self {
        self.options.interrupt_after = after;
        self
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.options.dir
    }
}

/// Everything around a run that is not the run: all optional, and the
/// default — no checkpoint, no stop flag, no store — is the plain run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// Checkpoint (and resume, and retry a failed worker once) as specified.
    pub checkpoint: Option<&'a CheckpointSpec>,
    /// Cooperative interrupt flag, checked at batch boundaries: when raised
    /// the run cuts a final checkpoint (if it checkpoints at all) and ends
    /// [`RunStatus::Interrupted`].
    pub stop: Option<&'a AtomicBool>,
    /// Write every year into this store the moment it completes, so an
    /// interrupted decade leaves its finished years queryable.
    pub store: Option<&'a AnalysisStore>,
}

/// The identity word of a checkpointed run: an FxHash over everything that
/// determines its stream and its collectors, stored in the checkpoint
/// header's `identity`. A checkpoint cut under another word is a typed
/// [`CheckpointError::Mismatch`], never a resumed chimera.
pub(crate) fn identity_word(what: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(what);
    hasher.finish()
}

/// The one supervised run both front ends make: resume from the latest
/// checkpoint when asked to, run `attempt`, retry it once from the latest
/// checkpoint when a shard worker failed, and persist a completed year.
///
/// `attempt` rebuilds its stream and admit filter on every call. The retry
/// needs a checkpoint directory: the failed attempt drained its healthy
/// shards but wrote no further cut, so the latest file on disk is a
/// consistent earlier cut (or absent — then the retry starts fresh).
pub(crate) fn supervised<'a, T>(
    year: u16,
    identity: u64,
    opts: &RunOptions<'a>,
    mut attempt: impl FnMut(SupervisorOptions<'a>) -> Result<RunStatus<T>, RunError>,
    analysis: impl Fn(&T) -> &YearAnalysis,
) -> Result<RunStatus<T>, RunError> {
    let latest = || match opts.checkpoint {
        Some(ckpt) => Checkpoint::load_latest(ckpt.dir(), year),
        None => Ok(None),
    };
    let with = |resume| SupervisorOptions {
        checkpoint: opts.checkpoint.map(|ckpt| CheckpointOptions {
            identity,
            ..ckpt.options.clone()
        }),
        resume,
        stop: opts.stop,
        ..SupervisorOptions::default()
    };
    let resume = match opts.checkpoint {
        Some(ckpt) if ckpt.resume => latest()?,
        _ => None,
    };
    let status = match attempt(with(resume)) {
        Err(RunError::Pipeline(PipelineError::WorkerFailed { shard }))
            if opts.checkpoint.is_some() =>
        {
            let mut status = attempt(with(latest()?))?;
            if let RunStatus::Completed { report, .. } = &mut status {
                // The panic payload already reached stderr through the hook.
                report.failures.push(WorkerFailure {
                    shard,
                    message: "shard worker panicked; retried from the last checkpoint".into(),
                });
                report.retried += 1;
            }
            status
        }
        other => other?,
    };
    if let (RunStatus::Completed { outcome, .. }, Some(store)) = (&status, opts.store) {
        store.write_year(analysis(outcome))?;
    }
    Ok(status)
}

/// How a decade run ended.
// One value per run, matched once: boxing the finished analysis buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum DecadeStatus {
    /// Every year completed.
    Completed {
        /// The assembled decade.
        run: DecadeRun,
        /// Supervision events merged across all ten years.
        supervision: SupervisionReport,
    },
    /// At least one year stopped early; every interrupted year left a
    /// checkpoint, so re-running with `resume` finishes the decade. The
    /// completed years are already in the run's store.
    Interrupted {
        /// Years that completed during this invocation.
        completed: usize,
        /// Years that stopped early, ascending.
        interrupted: Vec<u16>,
    },
}

impl DecadeStatus {
    /// The decade of a completed run; `None` for an interrupted one.
    pub fn completed(self) -> Option<DecadeRun> {
        match self {
            DecadeStatus::Completed { run, .. } => Some(run),
            DecadeStatus::Interrupted { .. } => None,
        }
    }
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
    r.finish("capture statistics")?;
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
    /// this plan, re-seeded per year. Pair it with a non-strict
    /// [`FaultPolicy`] to run through the faults.
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// The pipeline mode in use.
    pub fn pipeline_mode(&self) -> PipelineMode {
        self.mode
    }

    /// The fault policy in use.
    pub(crate) fn fault_policy(&self) -> FaultPolicy {
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

    /// The run parameters of a planned year.
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

    /// Hand `drive` the year's record stream as the driver wants it:
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
            None => drive(&mut stream),
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

    /// Arm deterministic one-shot faults in the shard workers — the test
    /// hook for the panic-containment and retry-from-checkpoint paths.
    #[doc(hidden)]
    pub fn with_injected_faults(mut self, faults: Arc<InjectedFaults>) -> Self {
        self.inject = Some(faults);
        self
    }

    /// Run one plain year end to end, in the experiment-wide pipeline mode.
    ///
    /// # Panics
    /// If a chaos plan is installed and a fault is fatal under the current
    /// policy; use [`Experiment::year`] for a `Result`.
    pub fn run_year(&self, year: u16) -> YearRun {
        let cfg = YearConfig::for_year(year);
        self.year(&cfg, self.mode, &RunOptions::default())
            .unwrap_or_else(|e| panic!("year {year} failed: {e}"))
            .completed()
            .expect("nothing interrupts a plain run")
    }

    /// Run one year end to end, with an explicit (possibly customized) year
    /// config and pipeline mode (the decade fan-out hands each year its share
    /// of the worker budget this way). A fault that is fatal under the
    /// current policy is an `Err`.
    ///
    /// With a [`CheckpointSpec`] that resumes, the year restarts from its
    /// latest on-disk checkpoint (from scratch if none exists) and produces
    /// output bit-identical to an uninterrupted run; a spent worker-failure
    /// retry is counted in the returned supervision report. The checkpoint's
    /// identity word covers the generator and heavy-hitter configuration,
    /// the year configuration, the fault policy and the chaos plan.
    pub fn year(
        &self,
        year_cfg: &YearConfig,
        mode: PipelineMode,
        opts: &RunOptions<'_>,
    ) -> Result<RunStatus<YearRun>, RunError> {
        let plan = self.plan(year_cfg);
        let spec = self.run_spec(year_cfg.year, mode, &plan.truth);
        let mut identity = crate::distrib::encode_job(&self.gen, self.heavy);
        identity.extend(format!("{year_cfg:?} {:?} {:?}", self.policy, self.chaos).bytes());
        let identity = identity_word(&identity);
        let attempt = |options| {
            let options = SupervisorOptions {
                inject: self.inject.clone(),
                ..options
            };
            let mut admit = SessionAdmit(CaptureSession::new(&self.dark, spec.year));
            let status = self.with_stream(&plan, |stream| {
                run_year_supervised(&spec, options, stream, &mut admit)
            })?;
            Ok(status.map(|outcome| YearRun {
                analysis: outcome.analysis,
                truth: plan.truth.clone(),
                capture: admit.0.stats(),
                faults: outcome.faults,
            }))
        };
        supervised(spec.year, identity, opts, attempt, |run| &run.analysis)
    }

    /// Run the whole decade, years in parallel, first error wins. Each year
    /// checkpoints to (and resumes from) its own file and is written to
    /// `opts.store` as it completes, so after an interrupt the store holds
    /// the finished years and a resumed run only recomputes the rest.
    ///
    /// The intra-year shard budget composes with the cross-year fan-out:
    /// each concurrently running year gets `workers / years` shard threads
    /// so the two levels together stay within one machine's budget.
    pub fn decade(self, opts: &RunOptions<'_>) -> Result<DecadeStatus, RunError> {
        let configs = YearConfig::decade();
        let concurrent = configs.len().min(fanout::width()).max(1);
        let year_mode = self.mode.with_budget(concurrent);
        let statuses = fanout::par_map(&configs, |cfg| self.year(cfg, year_mode, opts));
        let mut years = Vec::new();
        let mut interrupted = Vec::new();
        let mut supervision = SupervisionReport::default();
        for (cfg, status) in configs.iter().zip(statuses) {
            match status? {
                RunStatus::Completed {
                    outcome, report, ..
                } => {
                    supervision.absorb(report);
                    years.push(outcome);
                }
                RunStatus::Interrupted { .. } => interrupted.push(cfg.year),
            }
        }
        Ok(if interrupted.is_empty() {
            DecadeStatus::Completed {
                run: self.into_decade(years),
                supervision,
            }
        } else {
            DecadeStatus::Interrupted {
                completed: years.len(),
                interrupted,
            }
        })
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
        let run = Experiment::new(gen)
            .decade(&RunOptions::default())
            .expect("clean decade")
            .completed()
            .expect("nothing interrupts a plain run");
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
        let opts = RunOptions {
            store: Some(&store),
            ..RunOptions::default()
        };
        let run = Experiment::new(GeneratorConfig::tiny())
            .year(&YearConfig::for_year(2020), PipelineMode::Sequential, &opts)
            .expect("clean year")
            .completed()
            .expect("nothing interrupts this run");
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

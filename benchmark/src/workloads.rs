//! The workloads and the untraced campaign path they share.

use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ssr_engine::{
    named_policies, policy_by_name, CampaignReport, CampaignSpec, Checkpoint, Granularity,
    JobBudget, JobResult, NamedConfig, OrderPolicy, Partitioning, RunHooks, Suite,
};

/// A named workload of the benchmark (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper config, `architectural`, IFR suite: `ssr check --config paper
    /// --suite ifr --json`.
    PaperIfr,
    /// Small config, 7 policies × 3 suites, one job per obligation,
    /// journalled, report written: `ssr campaign --policy all --suite all
    /// --granularity assertion --checkpoint … --json …`.
    PolicySweep,
    /// Two blocking clients against an in-process `ssr serve` daemon.
    ServeLoop,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperIfr,
        Workload::PolicySweep,
        Workload::ServeLoop,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperIfr => "paper-ifr",
            Workload::PolicySweep => "policy-sweep",
            Workload::ServeLoop => "serve-loop",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What `--seed` changes for this workload.
    pub fn seed_effect(self) -> &'static str {
        match self {
            Workload::ServeLoop => "orders the request mix and pairs requests with clients",
            _ => "none: the workload's inputs are fixed",
        }
    }

    /// Whether the campaign journals through a `Checkpoint`.
    pub fn journals(self) -> bool {
        self == Workload::PolicySweep
    }
}

/// A one-worker campaign over `configs × policies × suites`, with every
/// other setting at the CLI's default.
pub fn spec(
    config: NamedConfig,
    policies: Vec<ssr_engine::NamedPolicy>,
    suites: Vec<Suite>,
    granularity: Granularity,
) -> CampaignSpec {
    CampaignSpec {
        configs: vec![config],
        policies,
        suites,
        granularity,
        order: OrderPolicy::Interleaved,
        partitioning: Partitioning::default(),
        reorder: None,
        threads: 1,
        budget: JobBudget::default(),
        verbose: false,
    }
}

/// The `paper-ifr` campaign: one suite job, two obligations.
pub fn paper_ifr() -> CampaignSpec {
    let architectural = policy_by_name("architectural").expect("a named policy");
    spec(
        NamedConfig::paper(),
        vec![architectural],
        vec![Suite::Ifr],
        Granularity::Suite,
    )
}

/// The `policy-sweep` campaign: 248 single-obligation jobs.
pub fn policy_sweep() -> CampaignSpec {
    spec(
        NamedConfig::small(),
        named_policies(),
        Suite::ALL.to_vec(),
        Granularity::Assertion,
    )
}

/// One campaign as the caller of `ssr campaign --json` sees it.
#[derive(Debug)]
pub struct Campaign {
    /// Start to last verdict, journal and report written.
    pub wall: Duration,
    /// Time inside `CampaignSpec::run_with_hooks`.
    pub engine_wall: Duration,
    /// Gaps between consecutive `on_job` callbacks; the first is measured
    /// from the start.
    pub gaps: Vec<Duration>,
    /// The engine's report.
    pub report: CampaignReport,
}

/// Runs `spec` once: creates the journal in `work` when `journal` is set,
/// runs the campaign, and writes the JSON report when `report` is set.
///
/// # Errors
/// Journal or report I/O errors.
pub fn run_campaign(
    spec: &CampaignSpec,
    work: &Path,
    journal: bool,
    report: bool,
) -> Result<Campaign, String> {
    let started = Instant::now();
    let gaps = Mutex::new((started, Vec::new()));
    let on_job = |_: &JobResult| {
        let now = Instant::now();
        let mut gaps = gaps.lock().expect("gap recorder poisoned");
        let gap = now - gaps.0;
        gaps.1.push(gap);
        gaps.0 = now;
    };
    let checkpoint = if journal {
        let path = work.join("campaign.journal");
        let jobs = spec.jobs().len();
        let checkpoint =
            Checkpoint::create(&path, spec.granularity.name(), jobs, spec.reorder.is_some())
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Some(checkpoint)
    } else {
        None
    };
    let engine_started = Instant::now();
    let hooks = RunHooks {
        on_job: Some(&on_job),
        ..RunHooks::default()
    };
    let result = spec.run_with_hooks(&[], checkpoint.as_ref(), None, hooks);
    let engine_wall = engine_started.elapsed();
    if report {
        let path = work.join("report.json");
        std::fs::write(&path, result.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let wall = started.elapsed();
    let gaps = gaps.into_inner().expect("gap recorder poisoned").1;
    Ok(Campaign {
        wall,
        engine_wall,
        gaps,
        report: result,
    })
}

/// Wall time the engine spent outside the jobs of `report`, given the
/// time `wall` the caller saw: `wall − Σ job wall_ms`.  Job walls are
/// floored to whole milliseconds, so each is counted at +0.5 ms, the
/// mean of the floored part.
pub fn engine_overhead_ms(wall: Duration, report: &CampaignReport) -> f64 {
    let jobs: f64 = report.jobs.iter().map(|j| j.wall_ms as f64 + 0.5).sum();
    crate::stats::ms(wall) - jobs
}

/// Whether another iteration taking about `last` still fits in the run's
/// `seconds`, measured from `started`.
pub fn another(started: Instant, seconds: f64, last: Duration) -> bool {
    (started.elapsed() + last).as_secs_f64() <= seconds
}

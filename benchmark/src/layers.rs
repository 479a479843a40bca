//! The traced run: each job of a campaign decomposed into the public call
//! of every layer, timed from outside, with `BddManager::stats()` read
//! after each call.
//!
//! | layer        | call                                                  |
//! |--------------|-------------------------------------------------------|
//! | `netlist`    | `CoreHarness::with_order` (generate + compile)        |
//! | `properties` | `Suite::assertions` / `Suite::assertion`              |
//! | `ste`, `bdd` | `CoreHarness::check_all_with`                         |
//! | `persist`    | `Checkpoint::record`                                  |
//! | `report`     | `CampaignReport::to_json` + write                     |
//!
//! The decomposition mirrors the engine's job path (one harness per
//! config × order, a manager reset before every job), so its kernel counts
//! must equal the engine's `JobResult` fields job for job.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use ssr_bdd::{BddManager, BddStats};
use ssr_engine::{CampaignReport, CampaignSpec, Checkpoint, JobPart, JobSpec, PoolStats};
use ssr_properties::CoreHarness;

use crate::reference::{Outcome, Tally};
use crate::report::Metric;
use crate::stats::{median, ms, quantile, ratio};

/// One job, decomposed.
#[derive(Debug)]
pub struct JobTrace {
    /// The job's id.
    pub job_id: u64,
    /// `CoreHarness::with_order`, when this job compiled the harness.
    pub compile: Option<Duration>,
    /// Building the job's assertions.
    pub build: Duration,
    /// ITE computed-table misses while building them.
    pub build_ite_misses: u64,
    /// Checking them.
    pub check: Duration,
    /// The manager's counters after the check (reset before the job).
    pub stats: BddStats,
    /// The verdicts.
    pub outcome: Outcome,
    /// Consequent constraints compared.
    pub constraints: u64,
    /// Obligations that failed.
    pub fails: u64,
}

/// One campaign, decomposed.
#[derive(Debug)]
pub struct CampaignTrace {
    /// Start to last job traced, journal and report written.
    pub wall: Duration,
    /// Every job, in enumeration order.
    pub jobs: Vec<JobTrace>,
    /// Each `Checkpoint::record` call.
    pub appends: Vec<Duration>,
    /// Rendering and writing the report, when one was written.
    pub report: Option<(Duration, u64)>,
}

impl CampaignTrace {
    /// The decomposed verdicts, by job id.
    pub fn outcomes(&self) -> BTreeMap<u64, Outcome> {
        self.jobs
            .iter()
            .map(|j| (j.job_id, j.outcome.clone()))
            .collect()
    }

    /// Checks the deterministic kernel counts of every traced job against
    /// the engine's result for the same job in `engine`.
    pub fn check_counts(
        &self,
        jobs: &[JobSpec],
        engine: &CampaignReport,
        tally: &mut Tally,
        what: &str,
    ) {
        for (job, traced) in jobs.iter().zip(&self.jobs) {
            let Some(result) = engine.jobs.iter().find(|r| r.job_id == traced.job_id) else {
                continue; // a missing result is already a failed verdict
            };
            let ours = (
                traced.stats.ite_cache_misses,
                traced.stats.gc_passes,
                traced.stats.peak_live_nodes as u64,
            );
            let theirs = (result.ite_misses, result.gc_passes, result.peak_live_nodes);
            if ours != theirs {
                tally.fail(
                    job.assertion_count(),
                    format!(
                        "job {} {}/{}: traced (ite_misses, gc_passes, peak_live) {ours:?} != {what} {theirs:?}",
                        traced.job_id,
                        job.policy_name,
                        job.suite.name()
                    ),
                );
            }
        }
    }
}

/// Runs decompositions on one manager, reset before every job as the
/// engine's pooled workers do.
#[derive(Debug, Default)]
pub struct Tracer {
    manager: BddManager,
}

impl Tracer {
    /// Decomposes one run of `spec`.  The traced journal and report carry
    /// the engine's results from `engine`, the untraced run of the same
    /// campaign, so they hold the same records the engine wrote.
    ///
    /// # Errors
    /// Harness generation, journal or report I/O errors.
    pub fn run(
        &mut self,
        spec: &CampaignSpec,
        engine: &CampaignReport,
        work: &Path,
        journal: bool,
        report: bool,
    ) -> Result<CampaignTrace, String> {
        let started = Instant::now();
        let jobs = spec.jobs();
        let checkpoint = if journal {
            let path = work.join("traced.journal");
            let checkpoint = Checkpoint::create(
                &path,
                spec.granularity.name(),
                jobs.len(),
                spec.reorder.is_some(),
            )
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            Some(checkpoint)
        } else {
            None
        };
        let mut harnesses: Vec<(usize, CoreHarness)> = Vec::new();
        let mut traces = Vec::with_capacity(jobs.len());
        let mut appends = Vec::new();
        for (at, job) in jobs.iter().enumerate() {
            let shared = harnesses.iter().position(|(first, _)| {
                jobs[*first].config == job.config && jobs[*first].order == job.order
            });
            let (slot, compile) = match shared {
                Some(slot) => (slot, None),
                None => {
                    let t = Instant::now();
                    let harness = CoreHarness::with_order(job.config, job.order.clone())
                        .map_err(|e| format!("core generation failed: {e:?}"))?;
                    let compile = t.elapsed();
                    harnesses.push((at, harness));
                    (harnesses.len() - 1, Some(compile))
                }
            };
            let harness = &harnesses[slot].1;
            let m = &mut self.manager;
            m.reset();
            m.set_maintenance(spec.reorder);
            m.set_budget(spec.budget.to_settings());

            let t = Instant::now();
            let assertions = match job.part {
                JobPart::WholeSuite => job.suite.assertions(harness, m),
                JobPart::Assertion(index) => vec![job.suite.assertion(harness, m, index)],
            };
            let build = t.elapsed();
            let build_ite_misses = m.stats().ite_cache_misses;
            let t = Instant::now();
            let checked = harness.check_all_with(m, &assertions, job.partitioning);
            let check = t.elapsed();
            let stats = m.stats();

            let (outcome, constraints, fails) = match checked {
                Ok(reports) => (
                    Ok(reports
                        .iter()
                        .map(|r| {
                            (
                                r.name.clone().unwrap_or_else(|| "<unnamed>".to_owned()),
                                r.holds,
                            )
                        })
                        .collect()),
                    reports.iter().map(|r| r.constraints_checked as u64).sum(),
                    reports.iter().filter(|r| !r.holds).count() as u64,
                ),
                Err(e) => (Err(format!("STE elaboration failed: {e:?}")), 0, 0),
            };
            if let Some(checkpoint) = &checkpoint {
                if let Some(result) = engine.jobs.iter().find(|r| r.job_id == job.id as u64) {
                    let t = Instant::now();
                    checkpoint
                        .record(result)
                        .map_err(|e| format!("cannot append to the journal: {e}"))?;
                    appends.push(t.elapsed());
                }
            }
            traces.push(JobTrace {
                job_id: job.id as u64,
                compile,
                build,
                build_ite_misses,
                check,
                stats,
                outcome,
                constraints,
                fails,
            });
        }
        let report = if report {
            let t = Instant::now();
            let text = engine.to_json();
            let path = work.join("traced-report.json");
            std::fs::write(&path, &text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Some((t.elapsed(), text.len() as u64))
        } else {
            None
        };
        Ok(CampaignTrace {
            wall: started.elapsed(),
            jobs: traces,
            appends,
            report,
        })
    }
}

/// Per-layer totals over a traced run.  Counts and busy times are
/// reported per campaign (total ÷ decomposed campaigns).
#[derive(Debug, Default)]
pub struct Layers {
    campaigns: usize,
    compile_ms: f64,
    compiles: u64,
    build_ms: f64,
    builds: u64,
    build_ite_misses: u64,
    checks_ms: Vec<f64>,
    constraints: u64,
    fails: u64,
    gc_passes: u64,
    gc_reclaimed: u64,
    ite_hits: u64,
    ite_misses: u64,
    quant_hits: u64,
    quant_misses: u64,
    nodes_allocated: u64,
    peak_live: Vec<f64>,
    appends_us: Vec<f64>,
    report_ms: f64,
    report_bytes: u64,
    traced_ms: f64,
    untraced_ms: f64,
    /// Engine wall outside its jobs, one sample per campaign or request.
    pub engine_overhead_ms: Vec<f64>,
    pool_reused: u64,
    pool_fresh: u64,
    /// Submit → ack of each served request.
    pub serve_ack_ms: Vec<f64>,
    /// Ack → final report of each served request.
    pub serve_stream_ms: Vec<f64>,
    /// Submit → final report of each served request.
    pub serve_request_ms: Vec<f64>,
}

impl Layers {
    /// Adds one decomposed campaign, paired with the wall time `untraced`
    /// of the engine run of the same campaign.
    pub fn add(&mut self, trace: &CampaignTrace, untraced: Duration) {
        self.campaigns += 1;
        self.traced_ms += ms(trace.wall);
        self.untraced_ms += ms(untraced);
        let mut peak = 0;
        for job in &trace.jobs {
            if let Some(compile) = job.compile {
                self.compile_ms += ms(compile);
                self.compiles += 1;
            }
            self.build_ms += ms(job.build);
            self.builds += 1;
            self.build_ite_misses += job.build_ite_misses;
            self.checks_ms.push(ms(job.check));
            self.constraints += job.constraints;
            self.fails += job.fails;
            let s = &job.stats;
            self.gc_passes += s.gc_passes;
            self.gc_reclaimed += s.gc_reclaimed;
            self.ite_hits += s.ite_cache_hits;
            self.ite_misses += s.ite_cache_misses;
            self.quant_hits += s.quant_cache_hits;
            self.quant_misses += s.quant_cache_misses;
            self.nodes_allocated += s.nodes_allocated as u64;
            peak = peak.max(s.peak_live_nodes);
        }
        self.peak_live.push(peak as f64);
        self.appends_us
            .extend(trace.appends.iter().map(|d| d.as_secs_f64() * 1e6));
        if let Some((write, bytes)) = trace.report {
            self.report_ms += ms(write);
            self.report_bytes += bytes;
        }
    }

    /// Adds the manager-pool activity between two snapshots.
    pub fn add_pool(&mut self, before: PoolStats, after: PoolStats) {
        self.pool_reused += after.reuse_hits - before.reuse_hits;
        self.pool_fresh += after.fresh - before.fresh;
    }

    /// Every per-layer metric.
    pub fn metrics(&self) -> Vec<Metric> {
        let per = |total: f64| ratio(total, self.campaigns as f64);
        let mean = |samples: &[f64]| ratio(samples.iter().sum(), samples.len() as f64);
        vec![
            Metric::new("netlist.compile_ms", "ms", per(self.compile_ms)),
            Metric::new("netlist.compiles", "count", per(self.compiles as f64)),
            Metric::new("properties.build_ms", "ms", per(self.build_ms)),
            Metric::new("properties.builds", "count", per(self.builds as f64)),
            Metric::new(
                "properties.ite_misses",
                "count",
                per(self.build_ite_misses as f64),
            ),
            Metric::new("ste.check_ms", "ms", per(self.checks_ms.iter().sum())),
            Metric::new("ste.check_p95_ms", "ms", quantile(&self.checks_ms, 0.95)),
            Metric::new("ste.constraints", "count", per(self.constraints as f64)),
            Metric::new("ste.fails", "count", per(self.fails as f64)),
            Metric::new("bdd.gc_passes", "count", per(self.gc_passes as f64)),
            Metric::new("bdd.gc_reclaimed", "count", per(self.gc_reclaimed as f64)),
            Metric::new("bdd.ite_misses", "count", per(self.ite_misses as f64)),
            Metric::new(
                "bdd.ite_hit_rate",
                "ratio",
                ratio(
                    self.ite_hits as f64,
                    (self.ite_hits + self.ite_misses) as f64,
                ),
            ),
            Metric::new(
                "bdd.quant_hit_rate",
                "ratio",
                ratio(
                    self.quant_hits as f64,
                    (self.quant_hits + self.quant_misses) as f64,
                ),
            ),
            Metric::new("bdd.peak_live_nodes", "count", mean(&self.peak_live)),
            Metric::new(
                "bdd.nodes_allocated",
                "count",
                per(self.nodes_allocated as f64),
            ),
            Metric::new("engine.overhead_ms", "ms", mean(&self.engine_overhead_ms)),
            Metric::new(
                "engine.pool_reuse_rate",
                "ratio",
                ratio(
                    self.pool_reused as f64,
                    (self.pool_reused + self.pool_fresh) as f64,
                ),
            ),
            Metric::new("persist.append_us", "us", median(&self.appends_us)),
            Metric::new(
                "persist.appends",
                "count",
                per(self.appends_us.len() as f64),
            ),
            Metric::new("report.write_ms", "ms", per(self.report_ms)),
            Metric::new("report.bytes", "bytes", per(self.report_bytes as f64)),
            Metric::new("serve.ack_ms", "ms", median(&self.serve_ack_ms)),
            Metric::new("serve.stream_ms", "ms", median(&self.serve_stream_ms)),
            Metric::new(
                "serve.request_p95_ms",
                "ms",
                quantile(&self.serve_request_ms, 0.95),
            ),
            Metric::new(
                "trace.overhead_pct",
                "%",
                100.0 * ratio(self.traced_ms - self.untraced_ms, self.untraced_ms),
            ),
            Metric::new("trace.campaign_ms", "ms", per(self.traced_ms)),
        ]
    }

    /// Decomposed campaigns so far.
    pub fn campaigns(&self) -> usize {
        self.campaigns
    }
}

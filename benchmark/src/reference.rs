//! The reference verdict table and the verdict tally every run keeps.
//!
//! `reference/verdicts.tsv` holds one row per proof obligation of every
//! workload: the paper-config IFR suite under the `architectural` policy,
//! and every (policy × suite × obligation) of the small config.  It was
//! recorded from the program with `--record-reference` and is embedded at
//! build time.  On load it is cross-checked against the paper's claims, so
//! a table recorded from a program with a consistent bug does not pass.

use std::collections::{BTreeMap, BTreeSet};

use ssr_engine::{CampaignReport, CampaignSpec, JobPart, JobResult, JobSpec};

/// The verdicts of one job: `(assertion name, holds)` per obligation in
/// suite order, or the job's error text (ERROR and `budget_*` records).
pub type Outcome = Result<Vec<(String, bool)>, String>;

/// The recorded table, embedded at build time.
const TABLE: &str = include_str!("../reference/verdicts.tsv");

/// Policies the paper says are insufficient: each must fail somewhere.
const REJECTED: [&str; 5] = ["none", "no-pc", "no-imem", "no-regfile", "no-dmem"];

/// Reference verdicts keyed by (config, policy, suite, obligation index).
#[derive(Debug)]
pub struct Reference {
    rows: BTreeMap<(String, String, String, usize), (String, bool)>,
}

impl Reference {
    /// Parses the embedded table and checks it against the paper's claims.
    ///
    /// # Errors
    /// A malformed row, or a table that contradicts the paper.
    pub fn load() -> Result<Reference, String> {
        let mut rows = BTreeMap::new();
        for (n, line) in TABLE.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let [config, policy, suite, index, name, verdict] = fields[..] else {
                return Err(format!("reference line {}: expected 6 fields", n + 1));
            };
            let index: usize = index
                .parse()
                .map_err(|_| format!("reference line {}: bad index `{index}`", n + 1))?;
            let holds = match verdict {
                "holds" => true,
                "FAILS" => false,
                other => return Err(format!("reference line {}: bad verdict `{other}`", n + 1)),
            };
            let key = (
                config.to_owned(),
                policy.to_owned(),
                suite.to_owned(),
                index,
            );
            if rows.insert(key, (name.to_owned(), holds)).is_some() {
                return Err(format!("reference line {}: duplicate obligation", n + 1));
            }
        }
        let reference = Reference { rows };
        reference.check_paper_claims()?;
        Ok(reference)
    }

    /// The paper's claims: `architectural` retention holds every
    /// obligation; `none` and each drop-one variant are rejected; `full`
    /// retention is rejected on Property II.
    fn check_paper_claims(&self) -> Result<(), String> {
        let fails = |policy: &str, suite: Option<&str>| {
            self.rows.iter().any(|((_, p, s, _), (_, holds))| {
                p == policy && suite.map_or(true, |x| x == s) && !holds
            })
        };
        if fails("architectural", None) {
            return Err(
                "reference contradicts the paper: an architectural obligation fails".into(),
            );
        }
        for policy in REJECTED {
            if !fails(policy, None) {
                return Err(format!(
                    "reference contradicts the paper: `{policy}` is never rejected"
                ));
            }
        }
        if !fails("full", Some("property-two")) {
            return Err("reference contradicts the paper: `full` passes Property II".into());
        }
        Ok(())
    }

    fn lookup(&self, job: &JobSpec, index: usize) -> Option<&(String, bool)> {
        let key = (
            job.config_name.clone(),
            job.policy_name.clone(),
            job.suite.name().to_owned(),
            index,
        );
        self.rows.get(&key)
    }
}

/// The outcome a job result reports.
pub fn outcome(result: &JobResult) -> Outcome {
    match &result.error {
        Some(error) => Err(error.clone()),
        None => Ok(result
            .assertions
            .iter()
            .map(|a| (a.name.clone(), a.holds))
            .collect()),
    }
}

/// Every job's outcome in a report, by job id.
pub fn outcomes(report: &CampaignReport) -> BTreeMap<u64, Outcome> {
    report.jobs.iter().map(|j| (j.job_id, outcome(j))).collect()
}

/// Obligations attempted and failed over a run, plus the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Obligations whose verdict was checked.
    pub attempted: u64,
    /// Obligations that were ERROR, `budget_*`, missing, differed from the
    /// reference, or whose traced kernel counts disagreed.
    pub failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    /// Records `count` failed obligations.
    pub fn fail(&mut self, count: usize, reason: String) {
        self.failed += count as u64;
        if self.reasons.len() < 10 {
            self.reasons.push(reason);
        }
    }

    /// Checks one campaign: every job of `jobs` must be present in
    /// `outcomes` with the reference verdict for each of its obligations.
    pub fn check(
        &mut self,
        reference: &Reference,
        jobs: &[JobSpec],
        outcomes: &BTreeMap<u64, Outcome>,
    ) {
        let expected: BTreeSet<u64> = jobs.iter().map(|j| j.id as u64).collect();
        if let Some(extra) = outcomes.keys().find(|id| !expected.contains(id)) {
            self.fail(1, format!("unexpected job {extra} in the report"));
        }
        for job in jobs {
            let count = job.assertion_count();
            self.attempted += count as u64;
            let label = format!(
                "{}/{}/{}/{}",
                job.config_name,
                job.policy_name,
                job.suite.name(),
                job.part.render()
            );
            let verdicts = match outcomes.get(&(job.id as u64)) {
                None => {
                    self.fail(count, format!("{label}: no result"));
                    continue;
                }
                Some(Err(error)) => {
                    self.fail(count, format!("{label}: {error}"));
                    continue;
                }
                Some(Ok(verdicts)) => verdicts,
            };
            if verdicts.len() != count {
                self.fail(
                    count,
                    format!("{label}: {} verdicts, expected {count}", verdicts.len()),
                );
                continue;
            }
            let first = match job.part {
                JobPart::WholeSuite => 0,
                JobPart::Assertion(index) => index,
            };
            for (k, (name, holds)) in verdicts.iter().enumerate() {
                match reference.lookup(job, first + k) {
                    Some((want_name, want)) if want_name == name && want == holds => {}
                    Some((want_name, want)) => self.fail(
                        1,
                        format!(
                            "{label}: `{name}` holds={holds}, reference `{want_name}` holds={want}"
                        ),
                    ),
                    None => self.fail(1, format!("{label}: `{name}` has no reference row")),
                }
            }
        }
    }

    /// The recorded failure reasons (at most ten).
    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }
}

/// Runs every workload's obligations and renders the table
/// (`--record-reference`).
pub fn record(specs: &[CampaignSpec]) -> String {
    let mut out = String::from(
        "# ssr-benchmark reference verdicts: one row per proof obligation.\n\
         # Recorded with `--record-reference`; see README.md.\n\
         # config\tpolicy\tsuite\tindex\tassertion\tverdict\n",
    );
    for spec in specs {
        let report = spec.run();
        for (job, result) in spec.jobs().iter().zip(&report.jobs) {
            assert_eq!(
                job.id as u64, result.job_id,
                "reports keep enumeration order"
            );
            assert!(
                result.error.is_none(),
                "reference job errored: {:?}",
                result.error
            );
            let first = match job.part {
                JobPart::WholeSuite => 0,
                JobPart::Assertion(index) => index,
            };
            for (k, a) in result.assertions.iter().enumerate() {
                out.push_str(&format!(
                    "{}\t{}\t{}\t{}\t{}\t{}\n",
                    job.config_name,
                    job.policy_name,
                    job.suite.name(),
                    first + k,
                    a.name,
                    if a.holds { "holds" } else { "FAILS" }
                ));
            }
        }
    }
    out
}

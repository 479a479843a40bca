//! The zero-dependency wall-clock bench harness behind `ssr bench`.
//!
//! The offline build environment cannot vendor Criterion, so this module
//! provides the measurement loop every perf-facing PR is judged against:
//! named workloads (BDD-kernel microbenchmarks plus end-to-end campaign
//! runs), a warmup-then-measure loop reporting median/min/mean/max
//! wall-clock nanoseconds over N iterations, a machine-readable JSON report
//! (schema [`SCHEMA`]), and a diff renderer for regression gating between
//! two committed reports (`BENCH_*.json` at the repository root).
//!
//! Methodology notes:
//!
//! * Workloads run on the calling thread; campaign workloads pin the worker
//!   pool to one thread so numbers measure algorithmic cost, not thread
//!   count.
//! * Kernel workloads lease one persistent [`BddManager`] and `reset()` it
//!   between iterations — the steady-state (arena-reuse) configuration the
//!   campaign engine runs in.
//! * The *median* is the headline number (robust against scheduler noise on
//!   shared machines); `min` approximates the noise floor.

use std::collections::BTreeMap;
use std::time::Instant;

use ssr_bdd::{Bdd, BddManager, BddVec, MaintainSettings, OrderPolicy};
use ssr_engine::json::Json;
use ssr_engine::{
    named_policies, CampaignSpec, Granularity, JobBudget, NamedConfig, Partitioning, Suite,
};

/// Schema identifier written into every bench report.
pub const SCHEMA: &str = "ssr-bench-report/v1";

/// Execution options shared by every campaign workload of a bench run:
/// the variable-order preset and the kernel maintenance (GC + sifting)
/// policy, mirroring `ssr bench --order/--reorder`, plus the serve
/// closed-loop fleet shape (`--clients`/`--requests`).  The defaults
/// reproduce the committed `BENCH_*.json` trajectory exactly.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Variable-order preset for the campaign (and serve) workloads.
    pub order: OrderPolicy,
    /// Kernel GC/sifting policy for the campaign (and serve) workloads.
    pub reorder: Option<MaintainSettings>,
    /// Serve closed loop: concurrent clients.
    pub serve_clients: usize,
    /// Serve closed loop: campaigns each client submits back-to-back.
    pub serve_requests: usize,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            order: OrderPolicy::default(),
            reorder: None,
            serve_clients: 4,
            serve_requests: 2,
        }
    }
}

/// Which part of the suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// A BDD-kernel microbenchmark.
    Kernel,
    /// An end-to-end campaign run through `ssr-engine`.
    Campaign,
    /// A closed-loop client fleet against an in-process `ssr-serve` daemon.
    Serve,
}

impl WorkloadKind {
    /// Stable lower-case identifier.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Kernel => "kernel",
            WorkloadKind::Campaign => "campaign",
            WorkloadKind::Serve => "serve",
        }
    }
}

/// A named, repeatable unit of work.  Each call of `run` is one timed
/// iteration; it returns auxiliary metrics (node counts, cache hit rates …)
/// that are reported from the last timed iteration.
pub struct Workload {
    /// Stable name, `kind/short-name` by convention.
    pub name: &'static str,
    /// Kernel microbenchmark or campaign run.
    pub kind: WorkloadKind,
    run: Box<dyn FnMut() -> Vec<(String, f64)>>,
}

/// Measured outcome of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// `"kernel"` or `"campaign"`.
    pub kind: String,
    /// Timed iterations.
    pub iterations: u32,
    /// Untimed warmup iterations.
    pub warmup: u32,
    /// Median wall-clock nanoseconds per iteration (headline number).
    pub median_ns: u64,
    /// Fastest iteration (noise floor).
    pub min_ns: u64,
    /// Slowest iteration.
    pub max_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
    /// Auxiliary metrics from the last timed iteration.
    pub metrics: BTreeMap<String, f64>,
}

/// A full bench run: parameters plus per-workload results.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Timed iterations per workload.
    pub iterations: u32,
    /// Warmup iterations per workload.
    pub warmup: u32,
    /// Results in execution order.
    pub results: Vec<WorkloadResult>,
}

impl BenchReport {
    /// Serialises the report to pretty-printed JSON (schema [`SCHEMA`]).
    pub fn to_json(&self) -> String {
        Json::obj([
            ("schema", Json::Str(SCHEMA.into())),
            ("iterations", Json::Num(self.iterations as f64)),
            ("warmup", Json::Num(self.warmup as f64)),
            (
                "workloads",
                Json::Arr(
                    self.results
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::Str(r.name.clone())),
                                ("kind", Json::Str(r.kind.clone())),
                                ("iterations", Json::Num(r.iterations as f64)),
                                ("warmup", Json::Num(r.warmup as f64)),
                                ("median_ns", Json::Num(r.median_ns as f64)),
                                ("min_ns", Json::Num(r.min_ns as f64)),
                                ("max_ns", Json::Num(r.max_ns as f64)),
                                ("mean_ns", Json::Num(r.mean_ns as f64)),
                                (
                                    "metrics",
                                    Json::Obj(
                                        r.metrics
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .render_pretty()
    }

    /// Parses a report serialised by [`BenchReport::to_json`].
    ///
    /// # Errors
    /// Returns a human-readable message for syntax errors, a wrong schema
    /// or missing fields.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("unsupported bench schema {other:?}")),
        }
        let u32_field = |v: &Json, key: &str| -> Result<u32, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .map(|n| n as u32)
                .ok_or_else(|| format!("bench report missing integer `{key}`"))
        };
        let u64_field = |v: &Json, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("workload missing integer `{key}`"))
        };
        let results = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("bench report missing `workloads` array")?
            .iter()
            .map(|w| -> Result<WorkloadResult, String> {
                let metrics = match w.get("metrics") {
                    Some(Json::Obj(map)) => map
                        .iter()
                        .map(|(k, v)| {
                            v.as_f64()
                                .map(|n| (k.clone(), n))
                                .ok_or_else(|| format!("non-numeric metric `{k}`"))
                        })
                        .collect::<Result<_, _>>()?,
                    _ => BTreeMap::new(),
                };
                Ok(WorkloadResult {
                    name: w
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("workload missing `name`")?
                        .to_owned(),
                    kind: w
                        .get("kind")
                        .and_then(Json::as_str)
                        .ok_or("workload missing `kind`")?
                        .to_owned(),
                    iterations: u32_field(w, "iterations")?,
                    warmup: u32_field(w, "warmup")?,
                    median_ns: u64_field(w, "median_ns")?,
                    min_ns: u64_field(w, "min_ns")?,
                    max_ns: u64_field(w, "max_ns")?,
                    mean_ns: u64_field(w, "mean_ns")?,
                    metrics,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            iterations: u32_field(&doc, "iterations")?,
            warmup: u32_field(&doc, "warmup")?,
            results,
        })
    }

    /// Renders the human-readable result table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>12}  metrics\n",
            "workload", "median", "min", "mean"
        ));
        out.push_str(&"-".repeat(92));
        out.push('\n');
        for r in &self.results {
            let metrics = r
                .metrics
                .iter()
                .map(|(k, v)| format!("{k}={v:.3}"))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "{:<28} {:>12} {:>12} {:>12}  {}\n",
                r.name,
                format_ns(r.median_ns),
                format_ns(r.min_ns),
                format_ns(r.mean_ns),
                metrics,
            ));
        }
        out.push_str(&format!(
            "{} workload(s), {} timed iteration(s) each after {} warmup\n",
            self.results.len(),
            self.iterations,
            self.warmup,
        ));
        out
    }

    /// Renders a per-workload comparison of two reports (matched by
    /// workload name; unmatched workloads are listed as added/removed).
    /// Negative deltas are improvements.
    pub fn diff_table(old: &BenchReport, new: &BenchReport) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>9}\n",
            "workload", "old median", "new median", "delta"
        ));
        out.push_str(&"-".repeat(66));
        out.push('\n');
        for n in &new.results {
            match old.results.iter().find(|o| o.name == n.name) {
                Some(o) if o.median_ns > 0 => {
                    let delta =
                        100.0 * (n.median_ns as f64 - o.median_ns as f64) / o.median_ns as f64;
                    out.push_str(&format!(
                        "{:<28} {:>12} {:>12} {:>+8.1}%\n",
                        n.name,
                        format_ns(o.median_ns),
                        format_ns(n.median_ns),
                        delta,
                    ));
                }
                Some(o) => {
                    out.push_str(&format!(
                        "{:<28} {:>12} {:>12} {:>9}\n",
                        n.name,
                        format_ns(o.median_ns),
                        format_ns(n.median_ns),
                        "n/a",
                    ));
                }
                None => {
                    out.push_str(&format!(
                        "{:<28} {:>12} {:>12} {:>9}\n",
                        n.name,
                        "(added)",
                        format_ns(n.median_ns),
                        "",
                    ));
                }
            }
        }
        for o in &old.results {
            if !new.results.iter().any(|n| n.name == o.name) {
                out.push_str(&format!(
                    "{:<28} {:>12} {:>12}\n",
                    o.name,
                    format_ns(o.median_ns),
                    "(removed)"
                ));
            }
        }
        out
    }
}

/// Formats nanoseconds with an adaptive unit.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

// ----------------------------------------------------------------------
// Workload registry
// ----------------------------------------------------------------------

/// Pushes the manager's cache/arena telemetry onto a metric list.
fn kernel_metrics(m: &BddManager) -> Vec<(String, f64)> {
    let s = m.stats();
    vec![
        ("nodes".into(), s.nodes_allocated as f64),
        ("ite_hit_rate".into(), s.ite_hit_rate()),
        ("ite_normalised".into(), s.ite_normalised as f64),
        ("complement_share".into(), m.complement_edge_share()),
    ]
}

/// The campaign spec behind the `campaign/*` workloads: the default
/// `ssr campaign` configuration (small core, every named policy, all
/// suites) pinned to one worker thread.
fn campaign_spec(granularity: Granularity, options: &BenchOptions) -> CampaignSpec {
    CampaignSpec {
        configs: vec![NamedConfig::small()],
        policies: named_policies(),
        suites: Suite::ALL.to_vec(),
        granularity,
        order: options.order.clone(),
        partitioning: Partitioning::default(),
        reorder: options.reorder,
        threads: 1,
        budget: JobBudget::default(),
        verbose: false,
    }
}

/// The acceptance workload: the default config at assertion granularity
/// with only the default (architectural) policy — exactly
/// `ssr campaign --suite all --granularity assertion`.
fn acceptance_spec(options: &BenchOptions) -> CampaignSpec {
    CampaignSpec {
        configs: vec![NamedConfig::small()],
        policies: vec![ssr_engine::policy_by_name("architectural").expect("named policy")],
        suites: Suite::ALL.to_vec(),
        granularity: Granularity::Assertion,
        order: options.order.clone(),
        partitioning: Partitioning::default(),
        reorder: options.reorder,
        threads: 1,
        budget: JobBudget::default(),
        verbose: false,
    }
}

/// The paper-sized core's IFR suite, the biggest-memory job in the
/// workload registry.
fn ifr_paper_spec(options: &BenchOptions) -> CampaignSpec {
    CampaignSpec {
        configs: vec![NamedConfig::paper()],
        policies: vec![ssr_engine::policy_by_name("architectural").expect("named policy")],
        suites: vec![Suite::Ifr],
        granularity: Granularity::Suite,
        order: options.order.clone(),
        partitioning: Partitioning::default(),
        reorder: options.reorder,
        threads: 1,
        budget: JobBudget::default(),
        verbose: false,
    }
}

fn campaign_metrics(report: &ssr_engine::CampaignReport) -> Vec<(String, f64)> {
    vec![
        ("jobs".into(), report.jobs.len() as f64),
        ("assertions".into(), report.assertions_checked() as f64),
        ("ite_hit_rate".into(), report.ite_hit_rate()),
        (
            "bdd_nodes".into(),
            report.jobs.iter().map(|j| j.bdd_nodes).sum::<u64>() as f64,
        ),
        (
            "peak_live_nodes".into(),
            report
                .jobs
                .iter()
                .map(|j| j.peak_live_nodes)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "gc_passes".into(),
            report.jobs.iter().map(|j| j.gc_passes).sum::<u64>() as f64,
        ),
    ]
}

/// The named workloads `ssr bench` runs, in execution order.
pub fn workloads(options: &BenchOptions) -> Vec<Workload> {
    let mut out: Vec<Workload> = Vec::new();

    // --- kernel microbenchmarks -------------------------------------
    // Each leases one manager for its lifetime and resets it per
    // iteration: the steady-state arena-reuse configuration.

    out.push(Workload {
        name: "kernel/vector-add32",
        kind: WorkloadKind::Kernel,
        run: {
            let mut m = BddManager::new();
            Box::new(move || {
                m.reset();
                let (a, b) = BddVec::new_interleaved_pair(&mut m, "a", "b", 32);
                let ab = a.add(&mut m, &b).expect("same width");
                let ba = b.add(&mut m, &a).expect("same width");
                let eq = ab.equals(&mut m, &ba).expect("same width");
                assert!(eq.is_true(), "addition is commutative");
                kernel_metrics(&m)
            })
        },
    });

    out.push(Workload {
        name: "kernel/negation-heavy",
        kind: WorkloadKind::Kernel,
        run: {
            let mut m = BddManager::new();
            Box::new(move || {
                m.reset();
                // xor/xnor-dense vector arithmetic: the shapes the O(1)
                // negation and canonical-polarity ITE rules accelerate.
                // Parity ladders, checksum folds and complement-pair
                // identities keep every intermediate one bit-flip away
                // from an already-built function.
                let (a, b) = BddVec::new_interleaved_pair(&mut m, "a", "b", 28);
                let x = a.xor(&mut m, &b).expect("same width");
                let nx = x.not(&mut m);
                // xnor via ¬(a ⊕ b) must equal per-bit xnor built by ITE.
                for i in 0..28 {
                    let xn = m.xnor(a.bit(i), b.bit(i));
                    assert_eq!(xn, nx.bit(i), "xnor is the complement of xor");
                }
                // Fold a parity checksum both ways; the two traversal
                // orders build complementary intermediates that share
                // subgraphs under complement edges.
                let mut fwd = Bdd::FALSE;
                for i in 0..28 {
                    fwd = m.xor(fwd, x.bit(i));
                }
                let mut bwd = Bdd::TRUE;
                for i in (0..28).rev() {
                    bwd = m.xnor(bwd, x.bit(i));
                }
                assert_eq!(bwd, fwd.negate(), "xnor fold complements the xor fold");
                // Complement-pair arithmetic: a + ¬a is all-ones.
                let na = a.not(&mut m);
                let sum = a.add(&mut m, &na).expect("same width");
                let ones = sum.equals_constant(&mut m, (1u64 << 28) - 1);
                assert!(ones.is_true(), "a + ¬a is all ones");
                kernel_metrics(&m)
            })
        },
    });

    out.push(Workload {
        name: "kernel/mux-select64",
        kind: WorkloadKind::Kernel,
        run: {
            let mut m = BddManager::new();
            Box::new(move || {
                m.reset();
                let index = BddVec::new_input(&mut m, "idx", 6);
                let words: Vec<BddVec> = (0..64)
                    .map(|w| BddVec::new_input(&mut m, &format!("w{w}"), 8))
                    .collect();
                let selected = ssr_bdd::vec::select_word(&mut m, &index, &words);
                // Reading back under a concrete index must return that word.
                let idx_is_5 = index.equals_constant(&mut m, 5);
                let match_5 = selected.equals(&mut m, &words[5]).expect("same width");
                let implied = m.implies(idx_is_5, match_5);
                assert!(implied.is_true());
                kernel_metrics(&m)
            })
        },
    });

    out.push(Workload {
        name: "kernel/quantify24",
        kind: WorkloadKind::Kernel,
        run: {
            let mut m = BddManager::new();
            Box::new(move || {
                m.reset();
                let vars: Vec<Bdd> = (0..24).map(|i| m.new_var(format!("q{i}"))).collect();
                let mut f = Bdd::TRUE;
                for w in vars.chunks(3) {
                    let x = m.xor(w[0], w[1]);
                    let y = m.or(x, w[2]);
                    f = m.and(f, y);
                }
                for start in 0..8u32 {
                    let set: Vec<u32> = (start..24).step_by(4).collect();
                    let _ = m.exists(f, &set);
                    let _ = m.forall(f, &set);
                }
                kernel_metrics(&m)
            })
        },
    });

    out.push(Workload {
        name: "kernel/compose-rename",
        kind: WorkloadKind::Kernel,
        run: {
            let mut m = BddManager::new();
            Box::new(move || {
                m.reset();
                let (a, b) = BddVec::new_interleaved_pair(&mut m, "x", "y", 12);
                let sum = a.add(&mut m, &b).expect("same width");
                let mut f = sum.bit(11);
                for i in 0..12u32 {
                    let g = m.xor(a.bit(i as usize), b.bit(i as usize));
                    f = m.compose(f, 2 * i, g);
                }
                let map: Vec<(u32, u32)> = (0..12).map(|i| (2 * i, 2 * i + 1)).collect();
                let _ = m.rename(f, &map).expect("declared targets");
                kernel_metrics(&m)
            })
        },
    });

    out.push(Workload {
        name: "kernel/allsat-cube",
        kind: WorkloadKind::Kernel,
        run: {
            let mut m = BddManager::new();
            Box::new(move || {
                m.reset();
                let vars: Vec<Bdd> = (0..14).map(|i| m.new_var(format!("s{i}"))).collect();
                let mut f = Bdd::FALSE;
                for w in vars.chunks(2) {
                    let x = m.and(w[0], w[1]);
                    f = m.or(f, x);
                }
                let idx: Vec<u32> = (0..14).collect();
                let sols = m.all_sat(f, &idx);
                for sol in sols.iter().step_by(7) {
                    let cube = m.cube(sol);
                    assert!(m.implies_valid(cube, f));
                }
                kernel_metrics(&m)
            })
        },
    });

    // --- campaign workloads -----------------------------------------

    out.push(Workload {
        name: "campaign/default-assertion",
        kind: WorkloadKind::Campaign,
        run: {
            let spec = acceptance_spec(options);
            Box::new(move || {
                let report = spec.run();
                assert!(report.all_hold(), "the default campaign must pass");
                campaign_metrics(&report)
            })
        },
    });

    out.push(Workload {
        name: "campaign/all-policies-suite",
        kind: WorkloadKind::Campaign,
        run: {
            let spec = campaign_spec(Granularity::Suite, options);
            Box::new(move || {
                let report = spec.run();
                campaign_metrics(&report)
            })
        },
    });

    out.push(Workload {
        name: "campaign/all-policies-assertion",
        kind: WorkloadKind::Campaign,
        run: {
            let spec = campaign_spec(Granularity::Assertion, options);
            Box::new(move || {
                let report = spec.run();
                campaign_metrics(&report)
            })
        },
    });

    // The paper's headline experiment.  The `-cold` suffix predates the
    // retired warm-start store; it stays so `ssr bench --diff` history
    // lines up with the committed `BENCH_*.json` reports.
    out.push(Workload {
        name: "campaign/ifr-paper-cold",
        kind: WorkloadKind::Campaign,
        run: {
            let spec = ifr_paper_spec(options);
            Box::new(move || {
                let report = spec.run();
                assert!(report.all_hold(), "the paper IFR suite must pass");
                campaign_metrics(&report)
            })
        },
    });

    // --- serve closed loop ------------------------------------------

    out.push(Workload {
        name: "serve/closed-loop",
        kind: WorkloadKind::Serve,
        run: {
            let clients = options.serve_clients.max(1);
            let requests = options.serve_requests.max(1);
            let spec = CampaignSpec {
                configs: vec![NamedConfig::small()],
                policies: vec![ssr_engine::policy_by_name("architectural").expect("named policy")],
                suites: Suite::ALL.to_vec(),
                granularity: Granularity::Suite,
                order: options.order.clone(),
                partitioning: Partitioning::default(),
                reorder: options.reorder,
                threads: 1,
                budget: JobBudget::default(),
                verbose: false,
            };
            Box::new(move || serve_closed_loop(&spec, clients, requests))
        },
    });

    out
}

/// One timed iteration of the serve closed loop: spawn an in-process
/// daemon, run a fleet of `clients` blocking clients that each submit
/// `requests` campaigns back-to-back over real localhost sockets, then
/// shut the daemon down.  Reports fleet throughput (campaigns/sec) and
/// per-campaign latency percentiles — the full submit → queue → run →
/// stream → final-report round trip, protocol and socket costs included.
fn serve_closed_loop(spec: &CampaignSpec, clients: usize, requests: usize) -> Vec<(String, f64)> {
    use ssr_serve::{Client, Server, ServerConfig};

    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        // The fleet never queues more than it submits; one dispatcher per
        // client keeps the closed loop free of artificial queueing.
        queue_capacity: clients * requests + 1,
        dispatchers: clients,
        job_threads: 1,
        journal_dir: None,
        verbose: false,
        ..ServerConfig::default()
    })
    .expect("the in-process daemon binds a loopback port");
    let addr = server.local_addr();

    let started = Instant::now();
    let mut latencies_ns: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("fleet client connects");
                    let mut latencies = Vec::with_capacity(requests);
                    for _ in 0..requests {
                        let submitted = Instant::now();
                        let done = client.run(spec, 0, None, |_| {}).expect("campaign served");
                        assert!(!done.cancelled && done.report.all_hold());
                        latencies.push(submitted.elapsed().as_nanos() as u64);
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fleet client thread"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    server.shutdown();

    latencies_ns.sort_unstable();
    let campaigns = (clients * requests) as f64;
    let p99_index = ((latencies_ns.len() - 1) as f64 * 0.99).round() as usize;
    vec![
        ("clients".into(), clients as f64),
        ("requests_per_client".into(), requests as f64),
        ("campaigns_per_sec".into(), campaigns / elapsed),
        (
            "p50_ms".into(),
            median_of_sorted(&latencies_ns) as f64 / 1e6,
        ),
        ("p99_ms".into(), latencies_ns[p99_index] as f64 / 1e6),
    ]
}

/// The names [`workloads`] exposes, for CLI help and validation.
pub fn workload_names() -> Vec<&'static str> {
    workloads(&BenchOptions::default())
        .into_iter()
        .map(|w| w.name)
        .collect()
}

/// Runs the selected workloads (`filter` empty = all; otherwise exact names
/// or a `kernel`/`campaign` kind) with `warmup` untimed then `iterations`
/// timed rounds each.
///
/// # Errors
/// Returns a message naming any filter entry that matches no workload.
pub fn run_workloads(
    filter: &[String],
    iterations: u32,
    warmup: u32,
    options: &BenchOptions,
) -> Result<BenchReport, String> {
    let mut all = workloads(options);
    if !filter.is_empty() {
        for want in filter {
            let matches_any = all
                .iter()
                .any(|w| w.name == want.as_str() || w.kind.name() == want.as_str());
            if !matches_any {
                return Err(format!(
                    "unknown workload `{want}` (try one of: {})",
                    workload_names().join(", ")
                ));
            }
        }
        all.retain(|w| {
            filter
                .iter()
                .any(|want| w.name == want.as_str() || w.kind.name() == want.as_str())
        });
    }
    let iterations = iterations.max(1);
    let results = all
        .into_iter()
        .map(|mut w| {
            for _ in 0..warmup {
                let _ = (w.run)();
            }
            let mut samples: Vec<u64> = Vec::with_capacity(iterations as usize);
            let mut metrics = Vec::new();
            for _ in 0..iterations {
                let started = Instant::now();
                metrics = (w.run)();
                samples.push(started.elapsed().as_nanos() as u64);
            }
            samples.sort_unstable();
            let median_ns = median_of_sorted(&samples);
            let mean_ns = samples.iter().sum::<u64>() / samples.len() as u64;
            WorkloadResult {
                name: w.name.to_owned(),
                kind: w.kind.name().to_owned(),
                iterations,
                warmup,
                median_ns,
                min_ns: samples[0],
                max_ns: *samples.last().expect("at least one iteration"),
                mean_ns,
                metrics: metrics.into_iter().collect(),
            }
        })
        .collect();
    Ok(BenchReport {
        iterations,
        warmup,
        results,
    })
}

/// Median of an ascending sample list: the middle element for an odd count,
/// the average of the two middle elements for an even count (taking the
/// upper-middle alone would bias every even-iteration headline upward).
fn median_of_sorted(samples: &[u64]) -> u64 {
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        ((samples[n / 2 - 1] as u128 + samples[n / 2] as u128) / 2) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_averages_the_middle_pair_for_even_counts() {
        // Odd: the middle element.
        assert_eq!(median_of_sorted(&[7]), 7);
        assert_eq!(median_of_sorted(&[1, 3, 500]), 3);
        // Even: the average of the two middle elements, not the upper one —
        // an outlier-heavy tail must not drag the headline up.
        assert_eq!(median_of_sorted(&[2, 4]), 3);
        assert_eq!(median_of_sorted(&[1, 3, 5, 1000]), 4);
        // Large nanosecond samples must not overflow the averaging.
        assert_eq!(median_of_sorted(&[u64::MAX - 1, u64::MAX]), u64::MAX - 1);
    }

    #[test]
    fn kernel_workloads_run_and_report() {
        let report = run_workloads(&["kernel".to_owned()], 1, 0, &BenchOptions::default())
            .expect("kernel workloads run");
        assert_eq!(report.results.len(), 6);
        for r in &report.results {
            assert_eq!(r.kind, "kernel");
            assert!(r.median_ns > 0);
            assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
            assert!(r.metrics.contains_key("nodes"));
            assert!(r.metrics.contains_key("complement_share"));
        }
        let negheavy = report
            .results
            .iter()
            .find(|r| r.name == "kernel/negation-heavy")
            .expect("the negation-heavy workload is registered");
        assert!(negheavy.metrics["complement_share"] > 0.0);
    }

    #[test]
    fn json_round_trips() {
        let report = run_workloads(
            &["kernel/vector-add32".to_owned()],
            2,
            1,
            &BenchOptions::default(),
        )
        .expect("workload runs");
        let text = report.to_json();
        let parsed = BenchReport::from_json(&text).expect("parses");
        assert_eq!(parsed, report);
        assert!(text.contains(SCHEMA));
    }

    #[test]
    fn serve_closed_loop_reports_throughput_and_latency() {
        let options = BenchOptions {
            serve_clients: 2,
            serve_requests: 1,
            ..BenchOptions::default()
        };
        let report = run_workloads(&["serve".to_owned()], 1, 0, &options).expect("serve runs");
        assert_eq!(report.results.len(), 1);
        let r = &report.results[0];
        assert_eq!(r.kind, "serve");
        assert_eq!(r.metrics["clients"], 2.0);
        assert_eq!(r.metrics["requests_per_client"], 1.0);
        assert!(r.metrics["campaigns_per_sec"] > 0.0);
        assert!(r.metrics["p50_ms"] > 0.0);
        assert!(r.metrics["p99_ms"] >= r.metrics["p50_ms"]);
    }

    #[test]
    fn unknown_workloads_are_rejected() {
        assert!(run_workloads(&["bogus".to_owned()], 1, 0, &BenchOptions::default()).is_err());
    }

    #[test]
    fn diff_table_reports_deltas_and_membership() {
        let options = BenchOptions::default();
        let mut old =
            run_workloads(&["kernel/allsat-cube".to_owned()], 1, 0, &options).expect("runs");
        let new = run_workloads(&["kernel/allsat-cube".to_owned()], 1, 0, &options).expect("runs");
        let table = BenchReport::diff_table(&old, &new);
        assert!(table.contains("kernel/allsat-cube"));
        assert!(table.contains('%'));
        // Rename the old entry: the diff must list added + removed rows.
        old.results[0].name = "kernel/ghost".to_owned();
        let table = BenchReport::diff_table(&old, &new);
        assert!(table.contains("(added)"));
        assert!(table.contains("(removed)"));
    }

    #[test]
    fn wrong_schema_is_rejected() {
        assert!(BenchReport::from_json("{\"schema\":\"bogus/v0\"}").is_err());
        assert!(BenchReport::from_json("not json").is_err());
    }
}

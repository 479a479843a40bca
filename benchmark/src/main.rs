//! `ssr-benchmark`: the repository's benchmark.  Three workloads, every
//! end-to-end metric printed with its unit, every verdict checked against
//! a reference table, and a separate traced run for the per-layer numbers.
//! All timing is taken from outside the program, around calls to its
//! public functions.  Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper-ifr --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! stamps the environment.  README.md maps each metric to its layer and
//! workload.

mod layers;
mod reference;
mod report;
mod serve_loop;
mod stats;
mod workloads;

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use ssr_engine::{CampaignSpec, ManagerPool};
use ssr_properties::CoreHarness;

use layers::{CampaignTrace, Layers, Tracer};
use reference::{outcomes, Outcome, Reference, Tally};
use report::{json_str, result_line, Environment, Metric};
use stats::{median, ms, peak_rss_mb, quantile};
use workloads::{another, engine_overhead_ms, run_campaign, Campaign, Workload};

const USAGE: &str = "usage: ssr-benchmark --workload <paper-ifr|policy-sweep|serve-loop> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       \
                     ssr-benchmark --record-reference > benchmark/reference/verdicts.tsv";

/// Fresh processes timed per run for `setup_s`.
const SETUP_PROBES: usize = 9;

/// Length of the generated `serve-loop` request sequence (far more than a
/// 60-second run serves).
const SEQUENCE_LEN: usize = 4096;

#[derive(Debug)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

#[derive(Debug)]
enum Mode {
    Run(RunArgs),
    SetupProbe(Workload),
    Campaign(Workload),
    RecordReference,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30;
    let mut trace = false;
    while let Some(flag) = args.next() {
        if flag == "--record-reference" {
            return Ok(Mode::RecordReference);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let workload_named =
            |v: &str| Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"));
        match flag.as_str() {
            "--workload" => workload = Some(workload_named(&value)?),
            "--setup-probe" => return Ok(Mode::SetupProbe(workload_named(&value)?)),
            "--campaign" => match workload_named(&value)? {
                Workload::ServeLoop => return Err("serve-loop has no single campaign".into()),
                workload => return Ok(Mode::Campaign(workload)),
            },
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad --seconds `{value}` (1..=600)"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Mode::Run(RunArgs {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() {
    let mode = match parse_args(std::env::args().skip(1)) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("ssr-benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match mode {
        Mode::Run(args) => bench(&args),
        Mode::SetupProbe(workload) => setup_probe(workload),
        Mode::Campaign(workload) => campaign_child(workload),
        Mode::RecordReference => {
            print!(
                "{}",
                reference::record(&[workloads::paper_ifr(), workloads::policy_sweep()])
            );
            Ok(())
        }
    };
    if let Err(e) = outcome {
        eprintln!("ssr-benchmark: {e}");
        std::process::exit(1);
    }
}

/// The campaign a non-serve workload runs.
fn campaign_spec(workload: Workload) -> CampaignSpec {
    match workload {
        Workload::PaperIfr => workloads::paper_ifr(),
        Workload::PolicySweep => workloads::policy_sweep(),
        Workload::ServeLoop => unreachable!("serve-loop runs request specs"),
    }
}

/// A run's metrics and how many samples each rests on.
#[derive(Debug, Default)]
struct Measured {
    metrics: Vec<Metric>,
    samples: Vec<(&'static str, usize)>,
}

/// Scratch space for journals and reports, removed when the run ends.
#[derive(Debug)]
struct WorkDir(PathBuf);

impl WorkDir {
    const ROOT: &'static str = ".bench_work";

    fn create() -> Result<WorkDir, String> {
        let path = Path::new(Self::ROOT).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(Self::ROOT); // only if no other run uses it
    }
}

fn bench(args: &RunArgs) -> Result<(), String> {
    let reference = Reference::load()?;
    let mut tally = Tally::default();
    let measured = if args.trace {
        traced(args, &reference, &mut tally)?
    } else {
        untraced(args, &reference, &mut tally)?
    };

    println!(
        "ssr-benchmark {} (seed {}, {} s, trace {}): {} obligations checked, {} failed",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tally.attempted,
        tally.failed
    );
    for m in &measured.metrics {
        println!("  {:<24} {:>16.4} {}", m.name, m.value, m.unit);
    }
    print_reasons(&tally);
    let samples: Vec<String> = measured
        .samples
        .iter()
        .map(|(name, n)| format!("{}: {n}", json_str(name)))
        .collect();
    println!(
        "{{\"ssr_benchmark\": \"v1\", \"workload\": {}, \"seed\": {}, \"seed_effect\": {}, \
         \"seconds\": {}, \"trace\": {}, {}, \"samples\": {{{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        json_str(args.workload.seed_effect()),
        args.seconds,
        u8::from(args.trace),
        Environment::probe().json_fields(),
        samples.join(", ")
    );
    println!(
        "{}",
        result_line(
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            &measured.metrics
        )
    );
    Ok(())
}

/// The end-to-end run: tracing off.
fn untraced(args: &RunArgs, reference: &Reference, tally: &mut Tally) -> Result<Measured, String> {
    let setup = setup_probes(args.workload)?;
    let mut latencies_ms = Vec::new();
    let mut gaps_ms = Vec::new();
    let mut measured = Measured::default();
    let (elapsed, peak_rss) = match args.workload {
        Workload::ServeLoop => {
            let (_, run) = serve(args, reference, tally)?;
            for request in &run.requests {
                latencies_ms.push(ms(request.total()));
                gaps_ms.extend(request.gaps.iter().map(|d| ms(*d)));
            }
            measured.samples.push(("requests", run.requests.len()));
            (run.elapsed, peak_rss_mb()?)
        }
        workload => {
            // Each campaign in a fresh process, as a user's `ssr`
            // invocation runs it: every sample pays the cold costs.
            let started = Instant::now();
            let mut peak_rss: f64 = 0.0;
            loop {
                let t = Instant::now();
                let campaign = campaign_in_child(workload)?;
                tally.attempted += campaign.attempted;
                tally.failed += campaign.failed;
                latencies_ms.push(campaign.wall_ms);
                gaps_ms.extend(campaign.gaps_ms);
                peak_rss = peak_rss.max(campaign.peak_rss_mb);
                if !another(started, args.seconds as f64, t.elapsed()) {
                    break;
                }
            }
            measured.samples.push(("campaigns", latencies_ms.len()));
            (started.elapsed(), peak_rss)
        }
    };
    measured.samples.push(("obligation_gaps", gaps_ms.len()));
    measured.samples.push(("setup_probes", setup.len()));
    measured.metrics = vec![
        Metric::new("wall_s", "s", median(&latencies_ms) / 1e3),
        Metric::new(
            "campaigns_per_s",
            "1/s",
            latencies_ms.len() as f64 / elapsed.as_secs_f64(),
        ),
        Metric::new("obligation_p50_ms", "ms", median(&gaps_ms)),
        Metric::new("obligation_p95_ms", "ms", quantile(&gaps_ms, 0.95)),
        Metric::new("peak_rss_mb", "MiB", peak_rss),
        Metric::new("setup_s", "s", median(&setup)),
    ];
    Ok(measured)
}

/// The per-layer run: the untraced path paired with its decomposition.
fn traced(args: &RunArgs, reference: &Reference, tally: &mut Tally) -> Result<Measured, String> {
    let scratch = WorkDir::create()?;
    let work = scratch.0.as_path();
    let mut layers = Layers::default();
    let mut tracer = Tracer::default();
    let mut measured = Measured::default();
    match args.workload {
        Workload::ServeLoop => {
            let (specs, run) = serve(args, reference, tally)?;
            layers.add_pool(run.pool.0, run.pool.1);
            for request in &run.requests {
                layers.serve_ack_ms.push(ms(request.ack));
                layers.serve_stream_ms.push(ms(request.stream));
                layers.serve_request_ms.push(ms(request.total()));
                if let Ok(report) = &request.result {
                    layers
                        .engine_overhead_ms
                        .push(engine_overhead_ms(request.total(), report));
                }
            }
            // Decompose the first block of the sequence: every shape once.
            for request in run.requests.iter().take(specs.len()) {
                let spec = &specs[request.shape];
                let (trace, _) = pair(
                    &mut tracer,
                    spec,
                    work,
                    (false, false),
                    reference,
                    tally,
                    &mut layers,
                )?;
                if let Ok(served) = &request.result {
                    trace.check_counts(&spec.jobs(), served, tally, "served");
                }
            }
            measured.samples.push(("requests", run.requests.len()));
        }
        workload => {
            let spec = campaign_spec(workload);
            let started = Instant::now();
            loop {
                let t = Instant::now();
                let before = ManagerPool::global().stats();
                let io = (workload.journals(), true);
                let (_, engine) =
                    pair(&mut tracer, &spec, work, io, reference, tally, &mut layers)?;
                let after = ManagerPool::global().stats();
                layers.add_pool(before, after);
                layers
                    .engine_overhead_ms
                    .push(engine_overhead_ms(engine.engine_wall, &engine.report));
                if !another(started, args.seconds as f64, t.elapsed()) {
                    break;
                }
            }
        }
    }
    measured
        .samples
        .push(("traced_campaigns", layers.campaigns()));
    measured.metrics = layers.metrics();
    Ok(measured)
}

/// Runs `spec` untraced through the engine, then decomposed; checks both
/// sets of verdicts and the kernel counts, and adds the pair to `layers`.
/// `io` is (journal, report).
fn pair(
    tracer: &mut Tracer,
    spec: &CampaignSpec,
    work: &Path,
    (journal, report): (bool, bool),
    reference: &Reference,
    tally: &mut Tally,
    layers: &mut Layers,
) -> Result<(CampaignTrace, Campaign), String> {
    let jobs = spec.jobs();
    let engine = run_campaign(spec, work, journal, report)?;
    tally.check(reference, &jobs, &outcomes(&engine.report));
    let trace = tracer.run(spec, &engine.report, work, journal, report)?;
    tally.check(reference, &jobs, &trace.outcomes());
    trace.check_counts(&jobs, &engine.report, tally, "engine");
    layers.add(&trace, engine.wall);
    Ok((trace, engine))
}

/// Runs the `serve-loop` closed loop and checks every request's
/// verdicts; a request without a report fails all its obligations.
fn serve(
    args: &RunArgs,
    reference: &Reference,
    tally: &mut Tally,
) -> Result<(Vec<CampaignSpec>, serve_loop::LoopRun), String> {
    let specs = serve_loop::shapes();
    let sequence = serve_loop::mix(args.seed, specs.len(), SEQUENCE_LEN);
    let run = serve_loop::run(&specs, &sequence, args.seconds as f64)?;
    for request in &run.requests {
        let jobs = specs[request.shape].jobs();
        let outcomes = match &request.result {
            Ok(report) => outcomes(report),
            Err(e) => jobs
                .iter()
                .map(|j| (j.id as u64, Outcome::Err(e.clone())))
                .collect(),
        };
        tally.check(reference, &jobs, &outcomes);
    }
    Ok((specs, run))
}

/// Prints why obligations failed (at most ten reasons).
fn print_reasons(tally: &Tally) {
    for reason in tally.reasons() {
        eprintln!("ssr-benchmark: failed obligation: {reason}");
    }
}

/// One campaign run by a `--campaign` child process, as it reports it on
/// one line: `wall_ms attempted failed peak_rss_mb gap_ms,gap_ms,…`.
#[derive(Debug, PartialEq)]
struct ChildCampaign {
    wall_ms: f64,
    attempted: u64,
    failed: u64,
    peak_rss_mb: f64,
    gaps_ms: Vec<f64>,
}

impl ChildCampaign {
    fn render(&self) -> String {
        let gaps: Vec<String> = self.gaps_ms.iter().map(f64::to_string).collect();
        format!(
            "{} {} {} {} {}",
            self.wall_ms,
            self.attempted,
            self.failed,
            self.peak_rss_mb,
            gaps.join(",")
        )
    }

    fn parse(line: &str) -> Option<ChildCampaign> {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [wall_ms, attempted, failed, peak_rss_mb, gaps] = fields[..] else {
            return None;
        };
        Some(ChildCampaign {
            wall_ms: wall_ms.parse().ok()?,
            attempted: attempted.parse().ok()?,
            failed: failed.parse().ok()?,
            peak_rss_mb: peak_rss_mb.parse().ok()?,
            gaps_ms: gaps
                .split(',')
                .map(str::parse)
                .collect::<Result<_, _>>()
                .ok()?,
        })
    }
}

/// `--campaign`: runs one campaign of `workload` in this process, checks
/// its verdicts and prints it as a [`ChildCampaign`] line.
fn campaign_child(workload: Workload) -> Result<(), String> {
    let reference = Reference::load()?;
    let work = WorkDir::create()?;
    let spec = campaign_spec(workload);
    let campaign = run_campaign(&spec, &work.0, workload.journals(), true)?;
    let mut tally = Tally::default();
    tally.check(&reference, &spec.jobs(), &outcomes(&campaign.report));
    print_reasons(&tally);
    let line = ChildCampaign {
        wall_ms: ms(campaign.wall),
        attempted: tally.attempted,
        failed: tally.failed,
        peak_rss_mb: peak_rss_mb()?,
        gaps_ms: campaign.gaps.iter().map(|d| ms(*d)).collect(),
    };
    println!("{}", line.render());
    Ok(())
}

/// Runs one campaign of `workload` in a fresh `--campaign` process.
fn campaign_in_child(workload: Workload) -> Result<ChildCampaign, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--campaign", workload.name()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a campaign process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last().and_then(ChildCampaign::parse) {
        Some(campaign) if output.status.success() => Ok(campaign),
        _ => Err(format!("campaign process failed ({})", output.status)),
    }
}

/// Times `SETUP_PROBES` fresh processes from spawn until each reports that
/// its first obligation could be issued; seconds each.
fn setup_probes(workload: Workload) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    (0..SETUP_PROBES)
        .map(|_| {
            let started = Instant::now();
            let mut child = Command::new(&exe)
                .args(["--setup-probe", workload.name()])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot start a setup probe: {e}"))?;
            let mut line = String::new();
            let stdout = child.stdout.take().expect("stdout is piped");
            let read = BufReader::new(stdout).read_line(&mut line);
            let elapsed = started.elapsed();
            let status = child.wait().map_err(|e| format!("setup probe lost: {e}"))?;
            match read {
                Ok(_) if line.trim() == "ready" && status.success() => Ok(elapsed.as_secs_f64()),
                _ => Err(format!("setup probe failed ({status})")),
            }
        })
        .collect()
}

/// `--setup-probe`: everything up to the first obligation, then `ready`.
/// That is the first model compile, plus the daemon bind and the client
/// connects for `serve-loop`.
fn setup_probe(workload: Workload) -> Result<(), String> {
    let ready = || {
        let mut out = std::io::stdout();
        writeln!(out, "ready")
            .and_then(|()| out.flush())
            .map_err(|e| format!("cannot report readiness: {e}"))
    };
    match workload {
        Workload::ServeLoop => {
            let server = ssr_serve::Server::spawn(serve_loop::server_config())
                .map_err(|e| format!("cannot start the daemon: {e}"))?;
            let clients = (0..serve_loop::CLIENTS)
                .map(|_| ssr_serve::Client::connect(server.local_addr()))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("cannot connect: {e}"))?;
            compile_first(&serve_loop::shapes()[0])?;
            ready()?;
            drop(clients);
            server.shutdown();
            Ok(())
        }
        workload => {
            compile_first(&campaign_spec(workload))?;
            ready()
        }
    }
}

/// Compiles the harness of `spec`'s first job.
fn compile_first(spec: &CampaignSpec) -> Result<(), String> {
    let job = spec
        .jobs()
        .into_iter()
        .next()
        .ok_or("the campaign has no jobs")?;
    CoreHarness::with_order(job.config, job.order)
        .map(drop)
        .map_err(|e| format!("core generation failed: {e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::json_num;

    #[test]
    fn the_reference_table_loads_and_agrees_with_the_paper() {
        Reference::load().expect("the embedded table is well formed");
    }

    #[test]
    fn arguments_parse() {
        let args = |s: &str| parse_args(s.split(' ').map(str::to_owned));
        let Ok(Mode::Run(run)) = args("--workload serve-loop --seed 7 --seconds 3 --trace 1")
        else {
            panic!("a full command line parses");
        };
        assert_eq!(
            (run.workload, run.seed, run.seconds, run.trace),
            (Workload::ServeLoop, 7, 3, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload paper-ifr --trace 2").is_err());
        assert!(args("--seed 1").is_err());
    }

    #[test]
    fn a_child_campaign_line_round_trips() {
        let campaign = ChildCampaign {
            wall_ms: 1604.25,
            attempted: 248,
            failed: 0,
            peak_rss_mb: 21.046875,
            gaps_ms: vec![9.5, 0.125],
        };
        assert_eq!(ChildCampaign::parse(&campaign.render()), Some(campaign));
        assert_eq!(ChildCampaign::parse("1 2 3"), None);
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("wall_s", "s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_num(f64::NAN), "null");
    }
}

//! The `serve-loop` workload: a closed loop of blocking clients against an
//! in-process `ssr serve` daemon.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ssr_engine::{
    named_policies, CampaignReport, CampaignSpec, Granularity, ManagerPool, NamedConfig, PoolStats,
    Suite,
};
use ssr_serve::{Client, Server, ServerConfig};

use crate::stats::SplitMix64;

/// Concurrent blocking clients (one per CPU of the reference box).
pub const CLIENTS: usize = 2;

/// Fewest requests a run serves, however short its `--seconds`.
pub const MIN_REQUESTS: usize = 200;

/// The daemon the loop runs against: one dispatcher per client, one job
/// thread per campaign, no journal and no store.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 4 * CLIENTS,
        dispatchers: CLIENTS,
        job_threads: 1,
        journal_dir: None,
        store_dir: None,
        ..ServerConfig::default()
    }
}

/// Every request shape: one small-config, suite-granularity campaign per
/// (named policy × non-empty suite set), keeping only sets whose every
/// suite applies to the policy.  41 shapes.
pub fn shapes() -> Vec<CampaignSpec> {
    let mut out = Vec::new();
    for policy in named_policies() {
        let mut config = NamedConfig::small().config;
        config.retention = policy.policy;
        for mask in 1..(1u32 << Suite::ALL.len()) {
            let suites: Vec<Suite> = Suite::ALL
                .into_iter()
                .enumerate()
                .filter(|(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, suite)| suite)
                .collect();
            if suites.iter().all(|s| s.applicable_to(&config)) {
                out.push(crate::workloads::spec(
                    NamedConfig::small(),
                    vec![policy.clone()],
                    suites,
                    Granularity::Suite,
                ));
            }
        }
    }
    out
}

/// The request sequence for `seed`: shape indices in blocks, each block a
/// seeded permutation of all `shapes`, so every prefix of whole blocks
/// holds each shape equally often and the seed only changes the order.
pub fn mix(seed: u64, shapes: usize, len: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(len + shapes);
    while out.len() < len {
        let mut block: Vec<usize> = (0..shapes).collect();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        out.extend(block);
    }
    out.truncate(len);
    out
}

/// One served request, timed at the client.
#[derive(Debug)]
pub struct Request {
    /// Position in the request sequence.
    pub position: usize,
    /// Index of its shape.
    pub shape: usize,
    /// Submit → ack.
    pub ack: Duration,
    /// Ack → final report.
    pub stream: Duration,
    /// Gaps between consecutive streamed `job` lines; the first is
    /// measured from the submit.
    pub gaps: Vec<Duration>,
    /// The final report, or why there is none.
    pub result: Result<CampaignReport, String>,
}

impl Request {
    /// Submit → final report.
    pub fn total(&self) -> Duration {
        self.ack + self.stream
    }
}

/// A finished closed loop.
#[derive(Debug)]
pub struct LoopRun {
    /// Every request, in sequence order.
    pub requests: Vec<Request>,
    /// First submit → last final report.
    pub elapsed: Duration,
    /// The process-wide manager pool's counters before and after.
    pub pool: (PoolStats, PoolStats),
}

/// Runs the closed loop: `CLIENTS` threads each submit the next request of
/// `sequence` (indices into `specs`) once their previous one has its final
/// report, until `seconds` have passed and at least `MIN_REQUESTS` are done.
///
/// # Errors
/// The daemon cannot bind, or a client cannot connect.
pub fn run(specs: &[CampaignSpec], sequence: &[usize], seconds: f64) -> Result<LoopRun, String> {
    let server =
        Server::spawn(server_config()).map_err(|e| format!("cannot start the daemon: {e}"))?;
    let addr = server.local_addr();
    let pool_before = ManagerPool::global().stats();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let started = Instant::now();
    let served: Result<Vec<Vec<Request>>, String> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client =
                        Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
                    let mut out = Vec::new();
                    loop {
                        let finished = started.elapsed().as_secs_f64() >= seconds
                            && done.load(Ordering::SeqCst) >= MIN_REQUESTS;
                        let position = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&shape) = sequence.get(position).filter(|_| !finished) else {
                            break;
                        };
                        let request = serve_one(&mut client, &specs[shape], position, shape);
                        done.fetch_add(1, Ordering::SeqCst);
                        let lost = request.result.is_err();
                        out.push(request);
                        if lost {
                            // The connection may be gone: stop this client
                            // rather than count one refusal per loop turn.
                            break;
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let pool_after = ManagerPool::global().stats();
    server.shutdown();
    let mut requests: Vec<Request> = served?.into_iter().flatten().collect();
    requests.sort_by_key(|r| r.position);
    Ok(LoopRun {
        requests,
        elapsed,
        pool: (pool_before, pool_after),
    })
}

/// Submits one campaign and streams it to its final report.
fn serve_one(client: &mut Client, spec: &CampaignSpec, position: usize, shape: usize) -> Request {
    let submitted = Instant::now();
    let mut gaps = Vec::new();
    let (acked, result) = match client.submit(spec, 0, None) {
        Ok(submission) => {
            let acked = Instant::now();
            let mut last = submitted;
            let completed = client.stream_to_completion(submission.id, |_| {
                let now = Instant::now();
                gaps.push(now - last);
                last = now;
            });
            let result = completed.and_then(|c| {
                if c.cancelled {
                    Err("request cancelled".to_owned())
                } else {
                    Ok(c.report)
                }
            });
            (acked, result)
        }
        Err(e) => (Instant::now(), Err(e)),
    };
    let finished = Instant::now();
    Request {
        position,
        shape,
        ack: acked - submitted,
        stream: finished - acked,
        gaps,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_of_the_mix_is_a_permutation_of_the_shapes() {
        let n = shapes().len();
        assert_eq!(n, 41);
        let seq = mix(5, n, 3 * n);
        for block in seq.chunks(n) {
            let mut sorted = block.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
        assert_eq!(seq, mix(5, n, 3 * n));
        assert_ne!(seq, mix(6, n, 3 * n));
    }
}

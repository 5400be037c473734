//! The serving-layer harness's workload: the same burst of mixed `(k, l)`
//! requests served with the batching scheduler on (`max_batch = 16`) and
//! off (`max_batch = 1`).
//!
//! The serving layer exists to exploit §3.1 across requests: queued jobs on
//! the same dataset that differ only in `(k, l)` coalesce into one grid run
//! sharing the sample, greedy candidates and `Dist`/`H` caches. The
//! harness quantifies the win as clients see it — throughput and
//! end-to-end latency (queue wait + service) — next to the distances
//! counter that explains it.

use std::sync::Arc;
use std::time::Instant;

use proclus::telemetry::counters;
use proclus::{DataMatrix, Params};
use proclus_serve::{DatasetRef, JobRequest, ServeConfig, Server};

use crate::{workloads, Options};

/// One mode's aggregate over all repetitions.
pub struct ModeStats {
    /// `batched` or `unbatched`.
    pub mode: &'static str,
    /// Jobs served over all repetitions.
    pub jobs: usize,
    /// Wall-clock milliseconds from resume to the last result, summed.
    pub wall_ms: f64,
    /// Jobs per second of `wall_ms`.
    pub throughput: f64,
    /// `distances_computed` summed over every job's telemetry.
    pub distances: u64,
    /// `batches_executed` summed over the servers.
    pub batches: u64,
    /// Median queue wait + service time, microseconds.
    pub latency_p50_us: u64,
    /// 99th-percentile queue wait + service time, microseconds.
    pub latency_p99_us: u64,
}

/// Both modes of one harness run.
pub struct Batching {
    /// Points in the dataset.
    pub n: usize,
    /// Dimensions of the dataset.
    pub d: usize,
    /// Requests per repetition.
    pub jobs_per_rep: usize,
    /// `max_batch = 16`.
    pub batched: ModeStats,
    /// `max_batch = 1`: one batch per job.
    pub unbatched: ModeStats,
}

impl Batching {
    /// The fraction of distances batching avoids: 1 − batched/unbatched.
    pub fn savings(&self) -> f64 {
        1.0 - self.batched.distances as f64 / self.unbatched.distances as f64
    }
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn run_mode(
    mode: &'static str,
    max_batch: usize,
    data: &Arc<DataMatrix>,
    grid: &[(usize, usize)],
    reps: usize,
    seed: u64,
) -> ModeStats {
    let mut wall_ms = 0.0;
    let mut distances = 0u64;
    let mut batches = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    for rep in 0..reps {
        let server = Server::start(
            ServeConfig::default()
                .with_workers(2)
                .with_max_batch(max_batch)
                .with_start_paused(true),
        )
        .expect("server starts");
        let dataset = DatasetRef::Inline {
            name: format!("bench-{rep}"),
            data: Arc::clone(data),
        };
        let handles: Vec<_> = grid
            .iter()
            .map(|&(k, l)| {
                let params = Params::new(k, l)
                    .with_a(20)
                    .with_b(5)
                    .with_seed(seed.wrapping_add(rep as u64));
                server
                    .submit(JobRequest::new(dataset.clone(), params))
                    .expect("admitted")
            })
            .collect();
        let t0 = Instant::now();
        server.resume();
        for h in &handles {
            let out = h.wait().expect("job succeeds");
            latencies.push(out.queue_wait_us + out.service_us);
            distances += out
                .telemetry
                .expect("telemetry on")
                .total(counters::DISTANCES_COMPUTED);
        }
        wall_ms += t0.elapsed().as_secs_f64() * 1e3;
        batches += server.metrics().total(counters::BATCHES_EXECUTED);
        server.shutdown();
    }
    latencies.sort_unstable();
    let jobs = grid.len() * reps;
    ModeStats {
        mode,
        jobs,
        wall_ms,
        throughput: jobs as f64 / (wall_ms / 1e3),
        distances,
        batches,
        latency_p50_us: quantile(&latencies, 0.50),
        latency_p99_us: quantile(&latencies, 0.99),
    }
}

/// Serves the 24 settings `k ∈ 2..=9 × l ∈ {3, 4, 5}` over a synthetic
/// dataset (2,000 points with `--quick`, 64,000 at paper scale, 8,000
/// otherwise), `opts.reps` times per mode, on a two-worker server.
pub fn run(opts: &Options) -> Batching {
    let n = if opts.paper_scale {
        64_000
    } else if opts.quick {
        2_000
    } else {
        8_000
    };
    let cfg = workloads::default_synthetic(n, opts.seed);
    let data = Arc::new(workloads::synthetic_data(&cfg, 0));
    let grid: Vec<(usize, usize)> = (2..=9)
        .flat_map(|k| [3usize, 4, 5].map(|l| (k, l)))
        .collect();
    Batching {
        n: data.n(),
        d: data.d(),
        jobs_per_rep: grid.len(),
        batched: run_mode("batched", 16, &data, &grid, opts.reps, opts.seed),
        unbatched: run_mode("unbatched", 1, &data, &grid, opts.reps, opts.seed),
    }
}

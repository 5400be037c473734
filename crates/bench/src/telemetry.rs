//! The telemetry harness's workload: one instrumented run per
//! algorithm/backend combination on the default synthetic workload.
//!
//! The counters (`distances_computed`, `dist_cache_hits`,
//! `delta_l_points`, …) show *why* FAST/FAST* are faster, not just that
//! they are.

use gpu_sim::{Device, DeviceConfig};
use proclus::telemetry::TelemetryReport;
use proclus::{Algo, Backend, Config};

use crate::{workloads, Options};

/// Every (algorithm, backend) pair the harness runs, in report order.
pub const COMBOS: [(Algo, Backend); 6] = [
    (Algo::Baseline, Backend::Cpu),
    (Algo::Fast, Backend::Cpu),
    (Algo::FastStar, Backend::Cpu),
    (Algo::Baseline, Backend::Gpu),
    (Algo::Fast, Backend::Gpu),
    (Algo::FastStar, Backend::Gpu),
];

/// Runs every pair of [`COMBOS`] with telemetry on over a synthetic
/// dataset (2,000 points with `--quick`, 64,000 at paper scale, 8,000
/// otherwise); one report per pair, in [`COMBOS`] order.
pub fn run(opts: &Options) -> Vec<TelemetryReport> {
    let n = if opts.paper_scale {
        64_000
    } else if opts.quick {
        2_000
    } else {
        8_000
    };
    let cfg = workloads::default_synthetic(n, opts.seed);
    let data = workloads::synthetic_data(&cfg, 0);
    let params = workloads::default_params().with_seed(opts.seed);
    COMBOS
        .iter()
        .map(|&(algo, backend)| {
            let config = Config::new(params.clone())
                .with_algo(algo)
                .with_backend(backend)
                .with_telemetry(true);
            match backend {
                Backend::Cpu => proclus::run(&data, &config),
                Backend::Gpu | Backend::Sharded => {
                    let mut dev = Device::new(DeviceConfig::gtx_1660_ti());
                    proclus_gpu::run_on(&mut dev, &data, &config)
                }
            }
            .expect("run failed")
            .telemetry
            .expect("telemetry was requested")
        })
        .collect()
}

//! The multi-device scaling harness's workload: FAST-PROCLUS on the
//! sharded backend at `D ∈ {1, 2, 4}` simulated devices over one large
//! synthetic workload.
//!
//! Reported time is the ensemble's **simulated** clock (max per-shard
//! device delta per phase barrier plus the modeled cross-device reduction
//! cost), so the speedups are machine-independent: the quantity measured
//! is how much per-phase kernel work leaves each device when the points
//! are partitioned, against the fixed cost of reducing `k × d` scalars at
//! every barrier.

use std::num::NonZeroUsize;

use datagen::synthetic::SyntheticConfig;
use gpu_sim::{Device, DeviceConfig};
use proclus::{Backend, Config, DataMatrix, Params};

use crate::{workloads, Options};

/// The simulated device counts, in measurement order.
pub const DEVICE_COUNTS: [usize; 3] = [1, 2, 4];

/// Dataset shape and the simulated device each shard runs on.
pub struct Workload {
    /// Points.
    pub n: usize,
    /// Dimensions.
    pub d: usize,
    /// Clusters (generated and requested).
    pub k: usize,
    /// Average subspace dimensionality.
    pub l: usize,
    /// Every shard's device.
    pub device: DeviceConfig,
}

/// The full regime is the paper's large-synthetic setting on the 1660 Ti;
/// `--quick` shrinks the point count *and* the simulated device together so
/// the compute-to-overhead ratio (and therefore the scaling behaviour)
/// stays in the same regime at a fraction of the wall-clock.
pub fn workload(quick: bool) -> Workload {
    if quick {
        Workload {
            n: 48_000,
            d: 12,
            k: 6,
            l: 5,
            device: DeviceConfig {
                name: "derated GTX 1660 Ti (quick)".into(),
                num_sms: 2,
                mem_bandwidth_gbps: 12.0,
                ..DeviceConfig::gtx_1660_ti()
            },
        }
    } else {
        Workload {
            n: 512_000,
            d: 16,
            k: 8,
            l: 6,
            device: DeviceConfig::gtx_1660_ti(),
        }
    }
}

/// One full FAST run on `devices` shards; returns the simulated time (ms).
fn sharded_run_ms(
    device: &DeviceConfig,
    data: &DataMatrix,
    params: &Params,
    devices: usize,
) -> f64 {
    // A fresh template device: its clock advances by exactly the
    // ensemble's simulated time.
    let mut dev = Device::new(device.clone());
    let devices = NonZeroUsize::new(devices).expect("at least one device");
    let config = Config::new(params.clone().with_devices(devices)).with_backend(Backend::Sharded);
    proclus_gpu::run_on(&mut dev, data, &config).expect("sharded run succeeds");
    dev.elapsed_ms()
}

/// Mean simulated milliseconds over `opts.reps` generated datasets, one
/// entry per [`DEVICE_COUNTS`] entry.
pub fn run(opts: &Options) -> Vec<f64> {
    let w = workload(opts.quick);
    let params = Params::new(w.k, w.l)
        .with_a(20)
        .with_b(5)
        .with_seed(opts.seed);
    let cfg = SyntheticConfig {
        d: w.d,
        num_clusters: w.k,
        ..workloads::default_synthetic(w.n, opts.seed)
    };
    DEVICE_COUNTS
        .iter()
        .map(|&devices| {
            let total: f64 = (0..opts.reps)
                .map(|rep| {
                    let data = workloads::synthetic_data(&cfg, rep);
                    sharded_run_ms(&w.device, &data, &params, devices)
                })
                .sum();
            total / opts.reps as f64
        })
        .collect()
}

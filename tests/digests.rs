//! Clustering digests: every bit of a set of fixed-seed runs, pinned as
//! constants.
//!
//! The equivalence suites compare paths with each other (FAST with the
//! baseline, parallel with sequential, CPU with GPU), so a kernel change
//! that moves every path's bits the same way passes all of them. This
//! test compares each run with the bits recorded before the change
//! instead. A digest folds the medoids, subspaces, labels, iteration
//! count, converged flag, and the cost and refined-cost bits of one
//! clustering.
//!
//! Covered: Baseline, FAST and FAST\* at threads 0 and 2 for d ∈ {5, 8,
//! 15, 23} on 2,600 points (five executor grains, so grain partials are
//! reduced), a 9-setting `SharedGreedy` grid, a `WarmStart` grid, and a
//! cold stream epoch followed by two incremental 1% slide epochs.
//!
//! The constants change only with an intentional change of the search
//! path. To print the current digests:
//! `cargo test --test digests -- --ignored --nocapture print_digests`

use datagen::synthetic::{generate, SyntheticConfig};
use proclus::multi_param::{ReuseLevel, Setting};
use proclus::par::Executor;
use proclus::{Algo, CancelToken, Clustering, Config, DataMatrix, Grid, Params};
use proclus_stream::{ReclusterMode, StreamBackendSpec, StreamingClusterer};
use proclus_telemetry::NullRecorder;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        let mut len = 0u64;
        for w in ws {
            self.word(w);
            len += 1;
        }
        self.word(len);
    }

    fn subspaces(&mut self, subspaces: &[Vec<usize>]) {
        for dims in subspaces {
            self.words(dims.iter().map(|&j| j as u64));
        }
    }
}

fn digest(c: &Clustering) -> u64 {
    let mut h = Digest::new();
    h.words(c.medoids.iter().map(|&m| m as u64));
    h.subspaces(&c.subspaces);
    h.words(c.labels.iter().map(|&l| l as u32 as u64));
    h.word(c.iterations as u64);
    h.word(u64::from(c.converged));
    h.word(c.cost.to_bits());
    h.word(c.refined_cost.to_bits());
    h.0
}

fn data(n: usize, d: usize, seed: u64) -> DataMatrix {
    let mut g = generate(&SyntheticConfig {
        n,
        d,
        num_clusters: 6,
        subspace_dims: 4.min(d),
        std_dev: 5.0,
        value_range: (0.0, 100.0),
        noise_fraction: 0.02,
        seed,
    });
    g.data.minmax_normalize();
    g.data
}

fn params(k: usize, l: usize, seed: u64) -> Params {
    Params::new(k, l).with_a(30).with_b(5).with_seed(seed)
}

const DIMS: [usize; 4] = [5, 8, 15, 23];
const ALGOS: [Algo; 3] = [Algo::Baseline, Algo::Fast, Algo::FastStar];

/// One digest per (d, algorithm, threads), in that nesting order.
fn single_digests() -> Vec<u64> {
    let mut out = Vec::new();
    for d in DIMS {
        let data = data(2_600, d, 7_000 + d as u64);
        for algo in ALGOS {
            for threads in [0, 2] {
                let config = Config::new(params(5, 3, 90 + d as u64))
                    .with_algo(algo)
                    .with_threads(threads);
                let out_run = proclus::run(&data, &config).expect("single run");
                out.push(digest(&out_run.clusterings[0]));
            }
        }
    }
    out
}

/// One digest per setting of a FAST grid at `level`, on two threads.
fn grid_digests(level: ReuseLevel, d: usize) -> Vec<u64> {
    let data = data(2_600, d, 8_100 + d as u64);
    let settings: Vec<Setting> = [8, 6, 4]
        .into_iter()
        .flat_map(|k| [2, 3, 4].map(|l| Setting::new(k, l)))
        .collect();
    let config = Config::new(params(8, 3, 31))
        .with_threads(2)
        .with_grid(Grid::new(settings, level));
    let out = proclus::run(&data, &config).expect("grid run");
    assert!(out.setting_errors.is_empty(), "{:?}", out.setting_errors);
    out.clusterings.iter().map(digest).collect()
}

/// A cold stream epoch over a 2,600-point window, then two epochs that
/// each slide it by 1% (26 points appended, as many evicted). One digest
/// per epoch: medoid pids, subspaces, labels by pid, iterations, and the
/// cost and refined-cost bits.
fn stream_digests() -> Vec<u64> {
    let (window, slide, d) = (2_600, 26, 15);
    let all = data(window + 2 * slide, d, 9_015);
    let rows: Vec<Vec<f32>> = (0..all.n()).map(|p| all.row(p).to_vec()).collect();
    let spec = StreamBackendSpec::Cpu {
        exec: Executor::Sequential,
    };
    let mut stream = StreamingClusterer::from_rows(&rows[..window], params(5, 3, 77), spec)
        .expect("stream seed");
    stream.set_window(Some(window)).expect("window");
    let (rec, cancel) = (NullRecorder, CancelToken::default());
    let mut out = Vec::new();
    for epoch in 0..3 {
        if epoch > 0 {
            let first = window + (epoch - 1) * slide;
            for row in &rows[first..first + slide] {
                stream.append(row).expect("append");
            }
        }
        let report = stream.recluster(&rec, &cancel).expect("recluster");
        let want = if epoch == 0 {
            ReclusterMode::Full
        } else {
            ReclusterMode::Incremental
        };
        assert_eq!(report.mode, want, "epoch {epoch}");
        let state = stream.state().expect("state");
        let mut labels: Vec<(u64, i32)> = state.labels.iter().map(|(&p, &l)| (p, l)).collect();
        labels.sort_unstable();
        let mut h = Digest::new();
        h.words(state.medoid_pids.iter().copied());
        h.subspaces(&state.subspaces);
        h.words(labels.iter().flat_map(|&(p, l)| [p, l as u32 as u64]));
        h.word(report.iterations);
        h.word(state.cost.to_bits());
        h.word(state.refined_cost.to_bits());
        out.push(h.0);
    }
    out
}

// Recorded before the AVX-512 tier, the one-pass ComputeL and the fused
// outlier test landed: those changes move no bit.

/// One digest per d ∈ {5, 8, 15, 23}: Baseline, FAST and FAST\* at
/// threads 0 and 2 all end in these bits.
const SINGLE: [u64; 4] = [
    0xd2de8c4f014f7b95,
    0x6dd593399b86adf3,
    0x59bfd5b6c2566cf0,
    0x175a100cbece815d,
];
const SHARED_GREEDY: [u64; 9] = [
    0x67ab191fd615620d,
    0x52de44a4fea3621c,
    0x87871ee76ca01fbc,
    0x4a26afe9f985051f,
    0x88bbf883175f6c73,
    0x125d3009f4f7d7d8,
    0xcd14c993109e7240,
    0x237b75222ba2496f,
    0x4a4e110bd735aff4,
];
const WARM_START: [u64; 9] = [
    0xfc5ec7900156fdac,
    0x2335b233ca93e4ee,
    0x1611f8cfe546b16a,
    0x397392e51ee63796,
    0x22b344d8e180c2e2,
    0x66bae3fe6620d735,
    0x7555b6eb3d8e9d3c,
    0x492ace44f8a40e23,
    0xf67788ad2c684088,
];
const STREAM: [u64; 3] = [0xa75b39f63c6b73eb, 0xaadcd062cd7d4bb5, 0xef0aeaefd9eeba07];

#[test]
#[ignore]
fn print_digests() {
    let hex = |v: Vec<u64>| {
        v.iter()
            .map(|h| format!("0x{h:016x}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("SINGLE: [{}]", hex(single_digests()));
    println!(
        "SHARED_GREEDY: [{}]",
        hex(grid_digests(ReuseLevel::SharedGreedy, 15))
    );
    println!(
        "WARM_START: [{}]",
        hex(grid_digests(ReuseLevel::WarmStart, 23))
    );
    println!("STREAM: [{}]", hex(stream_digests()));
}

#[test]
fn single_runs_keep_their_digests() {
    let mut got = single_digests().into_iter();
    for (d, want) in DIMS.into_iter().zip(SINGLE) {
        for algo in ALGOS {
            for threads in [0, 2] {
                let h = got.next().expect("one digest per run");
                assert_eq!(h, want, "d {d}, {algo:?}, threads {threads}: 0x{h:016x}");
            }
        }
    }
}

#[test]
fn grids_keep_their_digests() {
    assert_eq!(
        grid_digests(ReuseLevel::SharedGreedy, 15),
        SHARED_GREEDY,
        "SharedGreedy grid"
    );
    assert_eq!(
        grid_digests(ReuseLevel::WarmStart, 23),
        WARM_START,
        "WarmStart grid"
    );
}

#[test]
fn stream_epochs_keep_their_digests() {
    assert_eq!(stream_digests(), STREAM);
}

//! The streaming exactness contract: re-clustering after a batch of
//! deltas produces the **same clustering a from-scratch run would** —
//! identical labels, medoid pids, subspaces, and (to float noise) costs —
//! on every backend. The caches only change how many distances are
//! recomputed, never any decision.

use gpu_sim::DeviceConfig;
use proclus::par::Executor;
use proclus::phases::assign::assign_points;
use proclus::rng::{for_cases, splitmix64};
use proclus::{CancelToken, Params};
use proclus_stream::{ReclusterMode, StreamBackendSpec, StreamState, StreamingClusterer};
use proclus_telemetry::NullRecorder;

/// Deterministic synthetic rows: a few axis-aligned blobs plus noise, all
/// from the stateless SplitMix64 hash so the test needs no RNG plumbing.
fn rows(n: usize, d: usize, clusters: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            let c = i % clusters;
            (0..d)
                .map(|j| {
                    let noise = (splitmix64((i as u64) << 20 | j as u64) % 1000) as f32 / 1000.0;
                    if j % clusters == c {
                        (c * 10) as f32 + noise
                    } else {
                        50.0 + noise * 8.0
                    }
                })
                .collect()
        })
        .collect()
}

fn params(k: usize, seed: u64) -> Params {
    Params::builder(k, 3)
        .a(10)
        .b(3)
        .seed(seed)
        .max_total_iterations(12)
        .build()
        .expect("valid test params")
}

fn spec(name: &str, devices: usize) -> StreamBackendSpec {
    match name {
        "cpu" => StreamBackendSpec::Cpu {
            exec: Executor::Parallel { threads: 2 },
        },
        "gpu" => StreamBackendSpec::gpu(DeviceConfig::gtx_1660_ti()),
        "sharded" => StreamBackendSpec::Sharded {
            config: DeviceConfig::gtx_1660_ti(),
            devices,
        },
        other => panic!("unknown backend {other}"),
    }
}

/// From-scratch reference: one clusterer fed the final point set directly.
/// Pids match the incremental run because both start from an empty dataset
/// and append in the same order (retired pids stay consumed).
fn state_of(clusterer: &StreamingClusterer) -> StreamState {
    clusterer.state().expect("converged state").clone()
}

fn assert_same(incremental: &StreamState, fresh: &StreamState, what: &str) {
    assert_eq!(
        incremental.medoid_pids, fresh.medoid_pids,
        "{what}: medoid pids diverged"
    );
    assert_eq!(
        incremental.subspaces, fresh.subspaces,
        "{what}: subspaces diverged"
    );
    assert_eq!(incremental.labels, fresh.labels, "{what}: labels diverged");
    assert!(
        (incremental.cost - fresh.cost).abs() <= 1e-9 * fresh.cost.abs().max(1.0),
        "{what}: cost diverged ({} vs {})",
        incremental.cost,
        fresh.cost
    );
    assert!(
        (incremental.refined_cost - fresh.refined_cost).abs()
            <= 1e-9 * fresh.refined_cost.abs().max(1.0),
        "{what}: refined cost diverged ({} vs {})",
        incremental.refined_cost,
        fresh.refined_cost
    );
}

/// Replays `script` (append batches / retires / window) on one clusterer
/// with a recluster after every step, then checks the final state against
/// a from-scratch clusterer that saw only the surviving points' history.
fn check_script(backend: &str, devices: usize, base: &[Vec<f32>], script: &[Step]) {
    let rec = NullRecorder;
    let cancel = CancelToken::default();
    let mut live =
        StreamingClusterer::from_rows(base, params(4, 7), spec(backend, devices)).expect("seed");
    live.recluster(&rec, &cancel).expect("initial recluster");

    for step in script {
        apply(&mut live, step);
        let report = live.recluster(&rec, &cancel).expect("recluster");
        assert!(report.n > 0);
    }
    assert_same_as_fresh(&live, backend, devices, base, script);
}

/// Rebuilds the identical pid→point mapping from scratch by replaying
/// `script` on a cache-less, state-less clusterer, and checks `live`'s
/// state against its cold recluster.
fn assert_same_as_fresh(
    live: &StreamingClusterer,
    backend: &str,
    devices: usize,
    base: &[Vec<f32>],
    script: &[Step],
) {
    let mut fresh =
        StreamingClusterer::from_rows(base, params(4, 7), spec(backend, devices)).expect("seed");
    for step in script {
        apply(&mut fresh, step);
    }
    let report = fresh
        .recluster(&NullRecorder, &CancelToken::default())
        .expect("fresh recluster");
    assert_eq!(
        report.mode,
        ReclusterMode::Full,
        "first epoch of the reference run must be cold"
    );

    assert_same(
        &state_of(live),
        &state_of(&fresh),
        &format!("{backend}/D{devices} {script:?}"),
    );
}

#[derive(Debug)]
enum Step {
    Append(Vec<Vec<f32>>),
    Retire(Vec<u64>),
    Window(usize),
}

fn apply(c: &mut StreamingClusterer, step: &Step) {
    match step {
        Step::Append(batch) => {
            for row in batch {
                c.append(row).expect("append");
            }
        }
        Step::Retire(pids) => {
            for &pid in pids {
                c.retire(pid).expect("retire");
            }
        }
        Step::Window(cap) => {
            c.set_window(Some(*cap)).expect("window");
        }
    }
}

fn append_script(n: usize, d: usize) -> (Vec<Vec<f32>>, Vec<Step>) {
    let all = rows(n + 8, d, 4);
    let base = all[..n].to_vec();
    let batch = all[n..].to_vec();
    (base, vec![Step::Append(batch)])
}

fn mixed_script(n: usize, d: usize) -> (Vec<Vec<f32>>, Vec<Step>) {
    let all = rows(n + 12, d, 4);
    let base = all[..n].to_vec();
    (
        base,
        vec![
            Step::Append(all[n..n + 6].to_vec()),
            Step::Retire(vec![3, 17, (n + 2) as u64]),
            Step::Append(all[n + 6..].to_vec()),
            Step::Window(n + 6),
        ],
    )
}

#[test]
fn append_then_recluster_equals_from_scratch_cpu() {
    let (base, script) = append_script(300, 8);
    check_script("cpu", 1, &base, &script);
}

#[test]
fn append_then_recluster_equals_from_scratch_gpu() {
    let (base, script) = append_script(300, 8);
    check_script("gpu", 1, &base, &script);
}

#[test]
fn append_then_recluster_equals_from_scratch_sharded() {
    for devices in [1, 2, 4] {
        let (base, script) = append_script(300, 8);
        check_script("sharded", devices, &base, &script);
    }
}

#[test]
fn mixed_deltas_equal_from_scratch_cpu() {
    let (base, script) = mixed_script(280, 6);
    check_script("cpu", 1, &base, &script);
}

#[test]
fn mixed_deltas_equal_from_scratch_gpu() {
    let (base, script) = mixed_script(280, 6);
    check_script("gpu", 1, &base, &script);
}

#[test]
fn mixed_deltas_equal_from_scratch_sharded() {
    for devices in [1, 2, 4] {
        let (base, script) = mixed_script(280, 6);
        check_script("sharded", devices, &base, &script);
    }
}

#[test]
fn incremental_epoch_touches_fewer_distances() {
    let rec = NullRecorder;
    let cancel = CancelToken::default();
    let base = rows(1200, 8, 4);
    let mut c = StreamingClusterer::from_rows(&base, params(4, 7), spec("cpu", 1)).expect("seed");
    let cold = c.recluster(&rec, &cancel).expect("cold");
    assert_eq!(cold.mode, ReclusterMode::Full);
    for row in rows(12, 8, 4) {
        c.append(&row).expect("append");
    }
    let warm = c.recluster(&rec, &cancel).expect("warm");
    assert_eq!(warm.mode, ReclusterMode::Incremental);
    assert!(
        warm.dist_cache_hits > 0,
        "no row cache hits on a warm epoch"
    );
    assert!(
        warm.distances * 4 < cold.distances,
        "1% append cost {} of {} cold distances",
        warm.distances,
        cold.distances
    );
}

#[test]
fn staleness_escalates_to_a_cold_epoch() {
    let rec = NullRecorder;
    let cancel = CancelToken::default();
    let base = rows(200, 6, 4);
    let mut c = StreamingClusterer::from_rows(&base, params(4, 7), spec("cpu", 1)).expect("seed");
    c.recluster(&rec, &cancel).expect("cold");
    for row in rows(250, 6, 4) {
        c.append(&row).expect("append");
    }
    let report = c.recluster(&rec, &cancel).expect("escalated");
    assert_eq!(
        report.mode,
        ReclusterMode::Full,
        "churn over the threshold must escalate"
    );
}

#[test]
fn warm_recluster_freezes_medoids_and_flags_retired_ones() {
    let rec = NullRecorder;
    let cancel = CancelToken::default();
    let base = rows(240, 6, 4);
    let mut c = StreamingClusterer::from_rows(&base, params(4, 7), spec("cpu", 1)).expect("seed");
    c.recluster(&rec, &cancel).expect("cold");
    let medoids = c.state().expect("state").medoid_pids.clone();
    for row in rows(4, 6, 4) {
        c.append(&row).expect("append");
    }
    let report = c.recluster_warm(&rec, &cancel).expect("warm");
    assert_eq!(report.mode, ReclusterMode::Warm);
    assert_eq!(c.state().expect("state").medoid_pids, medoids);
    c.retire(medoids[0]).expect("retire a medoid");
    assert!(
        c.recluster_warm(&rec, &cancel).is_err(),
        "warm recluster over a retired medoid must escalate"
    );
}

/// AssignPoints on the live snapshot under the state's frozen medoids and
/// subspaces, by position.
fn frozen_labels(live: &StreamingClusterer) -> Vec<i32> {
    let state = state_of(live);
    let ds = live.dataset();
    let med_pos: Vec<usize> = state
        .medoid_pids
        .iter()
        .map(|&pid| ds.pos_of(pid).expect("live medoid"))
        .collect();
    let snap = ds.snapshot().expect("snapshot");
    assign_points(&snap, &med_pos, &state.subspaces, &Executor::Sequential)
}

/// Warm epochs between window slides and retires: each warm result is
/// exactly AssignPoints on the snapshot under the frozen medoid positions
/// and subspaces, and the incremental recluster that follows still equals
/// a from-scratch run. Each round retires the last point and a middle one
/// whose label differs from the point that swaps into its slot, so a
/// label kept by position across the retire would be wrong.
fn check_warm_script(backend: &str, devices: usize) {
    let rec = NullRecorder;
    let cancel = CancelToken::default();
    let (n, d) = (260, 6);
    let all = rows(n + 24, d, 4);
    let base = &all[..n];
    let mut live =
        StreamingClusterer::from_rows(base, params(4, 7), spec(backend, devices)).expect("seed");
    let mut script = vec![Step::Window(n)];
    apply(&mut live, &script[0]);
    live.recluster(&rec, &cancel).expect("cold");
    let medoids = state_of(&live).medoid_pids;

    for round in 0..4 {
        let slide = Step::Append(all[n + 6 * round..n + 6 * (round + 1)].to_vec());
        apply(&mut live, &slide);
        script.push(slide);

        let labels = frozen_labels(&live);
        let ds = live.dataset();
        let mut last = ds.n() - 1;
        let mut gone = Vec::new();
        if !medoids.contains(&ds.pid_at(last)) {
            gone.push(ds.pid_at(last));
            last -= 1;
        }
        let mid = (ds.n() / 3..last)
            .find(|&q| labels[q] != labels[last] && !medoids.contains(&ds.pid_at(q)))
            .expect("a middle point labelled unlike the last");
        gone.push(ds.pid_at(mid));
        let retire = Step::Retire(gone);
        apply(&mut live, &retire);
        script.push(retire);

        let report = live.recluster_warm(&rec, &cancel).expect("warm");
        assert_eq!(report.mode, ReclusterMode::Warm);
        let state = state_of(&live);
        assert_eq!(state.medoid_pids, medoids, "warm epochs freeze the medoids");
        let ds = live.dataset();
        assert_eq!(state.labels.len(), ds.n());
        for (q, &label) in frozen_labels(&live).iter().enumerate() {
            assert_eq!(
                state.labels[&ds.pid_at(q)],
                label,
                "{backend}/D{devices} round {round}: warm label of position {q}"
            );
        }
    }

    let report = live.recluster(&rec, &cancel).expect("recluster");
    assert_eq!(report.mode, ReclusterMode::Incremental);
    assert_same_as_fresh(&live, backend, devices, base, &script);
}

#[test]
fn warm_epochs_between_slides_and_retires_stay_exact_cpu() {
    check_warm_script("cpu", 1);
}

#[test]
fn warm_epochs_between_slides_and_retires_stay_exact_gpu() {
    check_warm_script("gpu", 1);
}

#[test]
fn warm_epochs_between_slides_and_retires_stay_exact_sharded() {
    check_warm_script("sharded", 2);
}

/// Random small append batches on random backends stay exact.
#[test]
fn random_appends_stay_exact() {
    for_cases(6, |rng| {
        let n = rng.range(120..220);
        let batch = rng.range(1..10);
        let backend = rng.below(3);
        let seed = rng.below(1000) as u64;
        let d = 6;
        let all = rows(n + batch, d, 4);
        let base = all[..n].to_vec();
        let name = ["cpu", "gpu", "sharded"][backend];
        let rec = NullRecorder;
        let cancel = CancelToken::default();

        let mut live =
            StreamingClusterer::from_rows(&base, params(4, seed), spec(name, 2)).expect("seed");
        live.recluster(&rec, &cancel).expect("cold");
        for row in &all[n..] {
            live.append(row).expect("append");
        }
        live.recluster(&rec, &cancel).expect("incremental");

        let mut fresh =
            StreamingClusterer::from_rows(&all, params(4, seed), spec(name, 2)).expect("seed");
        fresh.recluster(&rec, &cancel).expect("fresh");

        assert_same(
            &state_of(&live),
            &state_of(&fresh),
            &format!("{name} n={n}+{batch}"),
        );
    });
}

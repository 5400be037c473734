//! Command execution: load → cluster → report.
//!
//! Every variant/backend combination is reached through the unified
//! `proclus::run` / `proclus_gpu::run_on` entry points, so this module
//! contains no per-engine dispatch: it builds a [`proclus::Config`],
//! runs it, and maps the one [`proclus::ProclusError`] type onto the
//! process exit codes in [`crate::exit`].

use std::path::Path;

use gpu_sim::{Device, DeviceConfig, SanitizerMode};
use proclus::telemetry::TelemetryReport;
use proclus::{Backend, Clustering, Config, DataMatrix, Params, ProclusError, RunOutput};

use crate::args::{Cli, Command};
use crate::report;

/// One sweep entry's outcome.
pub struct RunOutcome {
    /// `k` used.
    pub k: usize,
    /// The clustering.
    pub clustering: Clustering,
    /// CPU wall-clock in ms.
    pub wall_ms: f64,
    /// Simulated device time in ms (GPU backend only).
    pub sim_ms: Option<f64>,
    /// The recorded span tree, when `--telemetry`/`--chrome-trace` asked
    /// for one.
    pub telemetry: Option<TelemetryReport>,
}

fn device_for(name: &str) -> Result<DeviceConfig, String> {
    match name {
        "gtx1660ti" | "1660ti" => Ok(DeviceConfig::gtx_1660_ti()),
        "rtx3090" | "3090" => Ok(DeviceConfig::rtx_3090()),
        other => Err(format!("unknown device `{other}` (gtx1660ti | rtx3090)")),
    }
}

/// Maps the unified error type onto a process exit code: bad input is the
/// user's problem (`INVALID`), everything the environment refuses is
/// `DEVICE`.
fn exit_for(e: &ProclusError) -> i32 {
    match e {
        ProclusError::InvalidParams { .. }
        | ProclusError::InvalidData { .. }
        | ProclusError::DimensionalityExceeded { .. } => crate::exit::INVALID,
        ProclusError::Unsupported { .. } | ProclusError::Device { .. } => crate::exit::DEVICE,
        ProclusError::Cancelled { .. } => crate::exit::CANCELLED,
    }
}

/// What one configuration's run leaves behind: the run output, the
/// simulated device time (GPU only) and any sanitizer hazards.
type ConfigRun = (RunOutput, Option<f64>, Vec<String>);

/// Runs one configuration on its backend.
fn run_config(
    data: &DataMatrix,
    config: &Config,
    device: &str,
    sanitize: SanitizerMode,
) -> Result<ConfigRun, (i32, String)> {
    match config.backend {
        Backend::Cpu => proclus::run(data, config)
            .map(|o| (o, None, Vec::new()))
            .map_err(|e| (exit_for(&e), e.to_string())),
        Backend::Gpu | Backend::Sharded => {
            let cfg = device_for(device).map_err(|e| (crate::exit::DEVICE, e))?;
            let mut dev = Device::new(cfg);
            dev.set_sanitizer(sanitize);
            let output = proclus_gpu::run_on(&mut dev, data, config)
                .map_err(|e| (exit_for(&e), e.to_string()))?;
            let hazards = dev.take_hazards().iter().map(|h| h.to_string()).collect();
            let sim_ms = Some(dev.elapsed_ms());
            Ok((output, sim_ms, hazards))
        }
    }
}

/// Executes a parsed command line. Returns the text to print on success.
pub fn execute(cli: &Cli) -> Result<String, (i32, String)> {
    match &cli.command {
        Command::Help => Ok(crate::args::USAGE.to_string()),
        Command::Generate {
            n,
            d,
            clusters,
            subspace_dims,
            std_dev,
            noise,
            seed,
            out,
        } => {
            let cfg = datagen::SyntheticConfig {
                n: *n,
                d: *d,
                num_clusters: *clusters,
                subspace_dims: (*subspace_dims).min(*d),
                std_dev: *std_dev,
                value_range: (0.0, 100.0),
                noise_fraction: *noise,
                seed: *seed,
            };
            let g = datagen::synthetic::generate(&cfg);
            datagen::io::write_csv(Path::new(out), &g.data, Some(&g.labels))
                .map_err(|e| (crate::exit::INVALID, e.to_string()))?;
            Ok(format!(
                "wrote {n} x {d} points ({clusters} clusters in {}-d subspaces, {noise} noise) \
                 with ground-truth labels to {out}\n",
                cfg.subspace_dims
            ))
        }
        Command::Cluster {
            input,
            k,
            l,
            algo,
            backend,
            threads,
            device,
            devices,
            seed,
            no_normalize,
            header,
            label_col,
            out,
            a,
            b,
            sanitize,
            telemetry,
            chrome_trace,
        } => {
            let loaded = datagen::io::load_csv(Path::new(input), *header, *label_col)
                .map_err(|e| (crate::exit::INVALID, e.to_string()))?;
            let mut data = loaded.data;
            if !*no_normalize {
                data.minmax_normalize();
            }

            let want_telemetry = telemetry.is_some() || chrome_trace.is_some();
            let mut outcomes = Vec::new();
            let mut all_hazards = Vec::new();
            for k in k.values() {
                let n_devices =
                    std::num::NonZeroUsize::new((*devices).max(1)).expect("max(1) is nonzero");
                let params = Params::new(k, *l)
                    .with_a(*a)
                    .with_b(*b)
                    .with_seed(*seed)
                    .with_devices(n_devices);
                let config = Config::new(params)
                    .with_algo(*algo)
                    .with_backend(*backend)
                    .with_threads(*threads)
                    .with_telemetry(want_telemetry);
                let t0 = std::time::Instant::now();
                let (output, sim_ms, hazards) = run_config(&data, &config, device, *sanitize)?;
                all_hazards.extend(hazards);
                let clustering =
                    output.clusterings.into_iter().next().ok_or_else(|| {
                        (crate::exit::DEVICE, "run produced no clustering".into())
                    })?;
                outcomes.push(RunOutcome {
                    k,
                    clustering,
                    wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                    sim_ms,
                    telemetry: output.telemetry,
                });
            }

            // Write labels of the best (lowest refined cost) run.
            let best = outcomes
                .iter()
                .min_by(|x, y| {
                    x.clustering
                        .refined_cost
                        .total_cmp(&y.clustering.refined_cost)
                })
                .ok_or_else(|| (crate::exit::INVALID, "empty k sweep".into()))?;
            if let Some(out_path) = out {
                report::write_labels(Path::new(out_path), &best.clustering.labels)
                    .map_err(|e| (crate::exit::INVALID, e.to_string()))?;
            }

            let label = format!("{} on {}", algo.name(), backend.name());
            let mut rendered = report::render(
                &data,
                &label,
                &outcomes,
                loaded.labels.as_deref(),
                out.as_deref(),
            );
            if let Some(t) = &best.telemetry {
                rendered.push_str(&report::render_phase_table(t));
            }

            // One multi-run document covers the whole sweep, in k order.
            let reports: Vec<TelemetryReport> = outcomes
                .iter()
                .filter_map(|o| o.telemetry.clone())
                .collect();
            if let Some(path) = telemetry {
                std::fs::write(path, proclus::telemetry::runs_json(&reports))
                    .map_err(|e| (crate::exit::INVALID, e.to_string()))?;
                rendered.push_str(&format!("telemetry written to {path}\n"));
            }
            if let Some(path) = chrome_trace {
                std::fs::write(path, proclus::telemetry::chrome_trace_combined(&reports))
                    .map_err(|e| (crate::exit::INVALID, e.to_string()))?;
                rendered.push_str(&format!("chrome trace written to {path}\n"));
            }

            if *sanitize != SanitizerMode::Off && *backend == Backend::Gpu {
                if all_hazards.is_empty() {
                    rendered.push_str("sanitizer: no hazards detected\n");
                } else {
                    rendered.push_str(&format!(
                        "sanitizer: {} hazard(s) detected\n",
                        all_hazards.len()
                    ));
                    for h in &all_hazards {
                        rendered.push_str(&format!("  {h}\n"));
                    }
                }
            }
            Ok(rendered)
        }
        Command::Serve {
            listen,
            workers,
            queue_capacity,
            max_batch,
        } => serve(listen.as_deref(), *workers, *queue_capacity, *max_batch),
        Command::Stream {
            n,
            d,
            clusters,
            k,
            l,
            a,
            b,
            batch,
            epochs,
            backend,
            devices,
            seed,
            window,
        } => stream(StreamArgs {
            n: *n,
            d: *d,
            clusters: *clusters,
            k: *k,
            l: *l,
            a: *a,
            b: *b,
            batch: *batch,
            epochs: *epochs,
            backend: *backend,
            devices: *devices,
            seed: *seed,
            window: *window,
        }),
    }
}

/// The `proclus stream` knobs, bundled so the driver reads like the
/// command line.
struct StreamArgs {
    n: usize,
    d: usize,
    clusters: usize,
    k: usize,
    l: usize,
    a: usize,
    b: usize,
    batch: usize,
    epochs: usize,
    backend: Backend,
    devices: usize,
    seed: u64,
    window: Option<usize>,
}

/// Drives a [`proclus_stream::StreamingClusterer`] over a synthetic feed:
/// one cold epoch on the initial `n` points, then `epochs` incremental
/// epochs of `batch` appended points each, printing per-epoch work ratios
/// against the cold run.
fn stream(args: StreamArgs) -> Result<String, (i32, String)> {
    use proclus_stream::{StreamBackendSpec, StreamingClusterer};

    let total = args.n + args.batch * args.epochs;
    let cfg = datagen::SyntheticConfig {
        n: total,
        d: args.d,
        num_clusters: args.clusters.max(1),
        subspace_dims: args.l.min(args.d),
        std_dev: 5.0,
        value_range: (0.0, 100.0),
        noise_fraction: 0.0,
        seed: args.seed,
    };
    let feed = datagen::synthetic::generate(&cfg);

    let params = Params::new(args.k, args.l)
        .with_a(args.a)
        .with_b(args.b)
        .with_seed(args.seed);
    let spec = match args.backend {
        // all_cores() honors the PROCLUS_THREADS override, so stream runs
        // can be pinned from the environment without a CLI flag.
        Backend::Cpu => StreamBackendSpec::Cpu {
            exec: proclus::par::Executor::all_cores(),
        },
        Backend::Gpu => StreamBackendSpec::gpu(DeviceConfig::gtx_1660_ti()),
        Backend::Sharded => StreamBackendSpec::Sharded {
            config: DeviceConfig::gtx_1660_ti(),
            devices: args.devices.max(1),
        },
    };
    let mut c =
        StreamingClusterer::new(args.d, params, spec).map_err(|e| (exit_for(&e), e.to_string()))?;
    if let Some(cap) = args.window {
        c.set_window(Some(cap))
            .map_err(|e| (exit_for(&e), e.to_string()))?;
    }

    let rec = &proclus::telemetry::NullRecorder;
    let cancel = proclus::CancelToken::default();
    let mut next_row = 0usize;
    let mut push = |c: &mut StreamingClusterer, count: usize| -> Result<(), (i32, String)> {
        for _ in 0..count {
            if next_row >= feed.data.n() {
                return Err((crate::exit::INVALID, "synthetic feed exhausted".to_string()));
            }
            c.append(feed.data.row(next_row))
                .map_err(|e| (exit_for(&e), e.to_string()))?;
            next_row += 1;
        }
        Ok(())
    };

    let mut out = format!(
        "streaming {} + {} x {} points ({}-d, {} planted clusters) on {}\n\n\
         {:>5}  {:>7}  {:>12}  {:>12}  {:>6}  {:>12}  {:>9}\n",
        args.n,
        args.epochs,
        args.batch,
        args.d,
        args.clusters,
        args.backend.name(),
        "epoch",
        "n",
        "mode",
        "distances",
        "ratio",
        "refined cost",
        "sim ms"
    );
    let mut cold_distances = 0u64;
    for epoch in 0..=args.epochs {
        push(&mut c, if epoch == 0 { args.n } else { args.batch })?;
        let r = c
            .recluster(rec, &cancel)
            .map_err(|e| (exit_for(&e), e.to_string()))?;
        if epoch == 0 {
            cold_distances = r.distances.max(1);
        }
        let sim = r
            .sim_us
            .map(|us| format!("{:.3}", us / 1e3))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "{:>5}  {:>7}  {:>12}  {:>12}  {:>6.3}  {:>12.4}  {:>9}\n",
            epoch,
            r.n,
            r.mode.as_str(),
            r.distances,
            r.distances as f64 / cold_distances as f64,
            r.refined_cost,
            sim
        ));
    }
    out.push_str(
        "\nratio = full distance computations this epoch / the cold epoch's; \
         incremental epochs re-use cached distance rows.\n",
    );
    Ok(out)
}

/// Runs the LDJSON clustering service: one session over stdin/stdout, or
/// (with `--listen`) a thread per TCP connection sharing one [`Server`].
fn serve(
    listen: Option<&str>,
    workers: usize,
    queue_capacity: usize,
    max_batch: usize,
) -> Result<String, (i32, String)> {
    let cfg = proclus_serve::ServeConfig::default()
        .with_workers(workers)
        .with_queue_capacity(queue_capacity)
        .with_max_batch(max_batch);
    let server = proclus_serve::Server::start(cfg)
        .map_err(|e| (crate::exit::DEVICE, format!("serve: {e}")))?;
    match listen {
        None => {
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout();
            proclus_serve::protocol::serve_connection(&server, stdin.lock(), &mut stdout)
                .map_err(|e| (crate::exit::DEVICE, format!("serve: {e}")))?;
            server.shutdown();
            Ok(String::new())
        }
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr).map_err(|e| {
                (
                    crate::exit::DEVICE,
                    format!("serve: cannot bind {addr}: {e}"),
                )
            })?;
            eprintln!("proclus serve: listening on {addr} ({workers} workers)");
            let server = std::sync::Arc::new(server);
            // Connection-handler threads blocked on accept/IO; the compute
            // inside each job still runs on the shared Executor pool.
            // lint:allow(no_raw_scope) -- IO threads, not data-parallel fan-out
            std::thread::scope(|scope| {
                for stream in listener.incoming() {
                    let stream = match stream {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    let server = std::sync::Arc::clone(&server);
                    scope.spawn(move || {
                        let reader = std::io::BufReader::new(match stream.try_clone() {
                            Ok(s) => s,
                            Err(_) => return,
                        });
                        let mut writer = stream;
                        let _ =
                            proclus_serve::protocol::serve_connection(&server, reader, &mut writer);
                    });
                }
            });
            Ok(String::new())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Cli;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("proclus-cli-{name}-{}.csv", std::process::id()))
    }

    fn cli(args: &[&str]) -> Cli {
        Cli::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn generate_then_cluster_roundtrip() {
        let data_path = tmp("gen");
        let labels_path = tmp("labels");
        let gen = cli(&[
            "generate",
            "--n",
            "500",
            "--d",
            "6",
            "--clusters",
            "3",
            "--subspace-dims",
            "3",
            "--out",
            data_path.to_str().unwrap(),
        ]);
        let msg = execute(&gen).unwrap();
        assert!(msg.contains("500 x 6"));

        let cluster = cli(&[
            "cluster",
            data_path.to_str().unwrap(),
            "--k",
            "3",
            "--l",
            "3",
            "--a",
            "20",
            "--b",
            "4",
            "--label-col",
            "6",
            "--out",
            labels_path.to_str().unwrap(),
        ]);
        let out = execute(&cluster).unwrap();
        assert!(out.contains("k = 3"), "{out}");
        assert!(out.contains("ARI"), "ground-truth metrics expected: {out}");
        let written = std::fs::read_to_string(&labels_path).unwrap();
        assert_eq!(written.lines().count(), 500);
        std::fs::remove_file(data_path).ok();
        std::fs::remove_file(labels_path).ok();
    }

    #[test]
    fn sweep_reports_every_k() {
        let data_path = tmp("sweep");
        execute(&cli(&[
            "generate",
            "--n",
            "400",
            "--d",
            "5",
            "--clusters",
            "3",
            "--subspace-dims",
            "2",
            "--out",
            data_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = execute(&cli(&[
            "cluster",
            data_path.to_str().unwrap(),
            "--k",
            "2..4",
            "--l",
            "2",
            "--a",
            "15",
            "--b",
            "3",
            "--label-col",
            "5",
        ]))
        .unwrap();
        for k in 2..=4 {
            assert!(
                out.contains(&format!("k = {k}")),
                "missing k = {k} in:\n{out}"
            );
        }
        std::fs::remove_file(data_path).ok();
    }

    #[test]
    fn gpu_engine_reports_simulated_time() {
        let data_path = tmp("gpu");
        execute(&cli(&[
            "generate",
            "--n",
            "600",
            "--d",
            "6",
            "--clusters",
            "3",
            "--subspace-dims",
            "3",
            "--out",
            data_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = execute(&cli(&[
            "cluster",
            data_path.to_str().unwrap(),
            "--k",
            "3",
            "--l",
            "3",
            "--a",
            "15",
            "--b",
            "3",
            "--label-col",
            "6",
            "--engine",
            "gpu-fast",
        ]))
        .unwrap();
        assert!(out.contains("simulated"), "{out}");
        std::fs::remove_file(data_path).ok();
    }

    #[test]
    fn gpu_engine_with_sanitizer_reports_clean() {
        let data_path = tmp("san");
        execute(&cli(&[
            "generate",
            "--n",
            "500",
            "--d",
            "5",
            "--clusters",
            "3",
            "--subspace-dims",
            "2",
            "--out",
            data_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = execute(&cli(&[
            "cluster",
            data_path.to_str().unwrap(),
            "--k",
            "3",
            "--l",
            "2",
            "--a",
            "15",
            "--b",
            "3",
            "--label-col",
            "5",
            "--engine",
            "gpu-fast",
            "--sanitize",
            "abort",
        ]))
        .unwrap();
        assert!(out.contains("sanitizer: no hazards detected"), "{out}");
        std::fs::remove_file(data_path).ok();
    }

    #[test]
    fn telemetry_flags_write_schema_valid_files() {
        let data_path = tmp("teldata");
        let tel_path = tmp("teljson").with_extension("json");
        let trace_path = tmp("teltrace").with_extension("json");
        execute(&cli(&[
            "generate",
            "--n",
            "400",
            "--d",
            "5",
            "--clusters",
            "3",
            "--subspace-dims",
            "2",
            "--out",
            data_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = execute(&cli(&[
            "cluster",
            data_path.to_str().unwrap(),
            "--k",
            "2..3",
            "--l",
            "2",
            "--a",
            "15",
            "--b",
            "3",
            "--label-col",
            "5",
            "--telemetry",
            tel_path.to_str().unwrap(),
            "--chrome-trace",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        // Phase-time table is printed for the best run.
        assert!(out.contains("phase"), "{out}");
        assert!(out.contains("assign_points"), "{out}");
        assert!(out.contains("telemetry written to"), "{out}");

        let tel_json = std::fs::read_to_string(&tel_path).unwrap();
        proclus::telemetry::schema::validate_any_str(&tel_json).expect("schema-valid telemetry");
        // One run per swept k.
        assert_eq!(tel_json.matches("\"spans\"").count(), 2, "{tel_json}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        proclus::telemetry::schema::validate_chrome_trace_str(&trace)
            .expect("chrome trace loads as valid JSON");

        std::fs::remove_file(data_path).ok();
        std::fs::remove_file(tel_path).ok();
        std::fs::remove_file(trace_path).ok();
    }

    #[test]
    fn gpu_telemetry_includes_kernel_spans() {
        let data_path = tmp("gputel");
        let tel_path = tmp("gputeljson").with_extension("json");
        execute(&cli(&[
            "generate",
            "--n",
            "400",
            "--d",
            "5",
            "--clusters",
            "3",
            "--subspace-dims",
            "2",
            "--out",
            data_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = execute(&cli(&[
            "cluster",
            data_path.to_str().unwrap(),
            "--k",
            "3",
            "--l",
            "2",
            "--a",
            "15",
            "--b",
            "3",
            "--label-col",
            "5",
            "--engine",
            "gpu-fast",
            "--telemetry",
            tel_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("kernel:"), "{out}");
        let tel_json = std::fs::read_to_string(&tel_path).unwrap();
        assert!(tel_json.contains("kernel:"), "{tel_json}");
        proclus::telemetry::schema::validate_any_str(&tel_json).unwrap();
        std::fs::remove_file(data_path).ok();
        std::fs::remove_file(tel_path).ok();
    }

    #[test]
    fn stream_driver_reports_incremental_epochs() {
        let out = execute(&cli(&[
            "stream",
            "--n",
            "600",
            "--d",
            "5",
            "--clusters",
            "3",
            "--k",
            "3",
            "--l",
            "2",
            "--a",
            "10",
            "--b",
            "3",
            "--batch",
            "6",
            "--epochs",
            "2",
            "--seed",
            "11",
        ]))
        .unwrap();
        assert!(out.contains("full"), "{out}");
        assert!(out.contains("incremental"), "{out}");
        // Epoch 0 is the cold baseline (ratio 1.000); later epochs shrink.
        assert!(out.contains("1.000"), "{out}");
    }

    #[test]
    fn stream_driver_runs_on_the_gpu_backend_with_a_window() {
        let out = execute(&cli(&[
            "stream",
            "--n",
            "400",
            "--d",
            "4",
            "--clusters",
            "3",
            "--k",
            "3",
            "--l",
            "2",
            "--a",
            "10",
            "--b",
            "3",
            "--batch",
            "4",
            "--epochs",
            "1",
            "--backend",
            "gpu",
            "--window",
            "400",
            "--seed",
            "5",
        ]))
        .unwrap();
        // The GPU backend reports simulated time in the sim ms column.
        assert!(out.contains("sim ms"), "{out}");
        assert!(!out.contains("  -\n"), "expected sim times, got:\n{out}");
    }

    #[test]
    fn missing_file_maps_to_invalid_exit() {
        let err = execute(&cli(&["cluster", "/no/such/file.csv", "--k", "3"])).unwrap_err();
        assert_eq!(err.0, crate::exit::INVALID);
    }

    #[test]
    fn invalid_params_map_to_invalid_exit() {
        let data_path = tmp("inv");
        execute(&cli(&[
            "generate",
            "--n",
            "50",
            "--d",
            "4",
            "--clusters",
            "2",
            "--subspace-dims",
            "2",
            "--out",
            data_path.to_str().unwrap(),
        ]))
        .unwrap();
        // l = 1 < 2 is rejected by parameter validation, not a panic.
        let err = execute(&cli(&[
            "cluster",
            data_path.to_str().unwrap(),
            "--k",
            "2",
            "--l",
            "1",
            "--label-col",
            "4",
        ]))
        .unwrap_err();
        assert_eq!(err.0, crate::exit::INVALID, "{}", err.1);
        std::fs::remove_file(data_path).ok();
    }

    #[test]
    fn bad_device_maps_to_device_exit() {
        let data_path = tmp("dev");
        execute(&cli(&[
            "generate",
            "--n",
            "300",
            "--d",
            "5",
            "--clusters",
            "2",
            "--subspace-dims",
            "2",
            "--out",
            data_path.to_str().unwrap(),
        ]))
        .unwrap();
        let err = execute(&cli(&[
            "cluster",
            data_path.to_str().unwrap(),
            "--k",
            "2",
            "--l",
            "2",
            "--a",
            "10",
            "--b",
            "3",
            "--label-col",
            "5",
            "--engine",
            "gpu-fast",
            "--device",
            "voodoo2",
        ]))
        .unwrap_err();
        assert_eq!(err.0, crate::exit::DEVICE);
        std::fs::remove_file(data_path).ok();
    }
}

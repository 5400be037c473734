//! # proclus-bench — experiment harnesses for every figure of the paper
//!
//! One binary per figure/table of GPU-FAST-PROCLUS §5 (see DESIGN.md §5 for
//! the index). Each harness:
//!
//! * generates the paper's workload (scaled down by default; pass
//!   `--paper-scale` for the full sizes),
//! * measures **wall-clock** time for the CPU algorithms and **simulated
//!   device time** for the GPU algorithms (the `gpu-sim` performance
//!   model; see EXPERIMENTS.md for how to read these numbers),
//! * prints the figure's series as a table and writes
//!   `results/<figure>.csv`.
//!
//! Shared machinery lives here: [`cli`] (flag parsing), [`timing`]
//! (repetition + measurement), [`table`] (series accumulation, printing,
//! CSV output) and [`workloads`] (dataset construction).
//!
//! The workloads of the `telemetry`, `serve_bench`, `stream_bench` and
//! `shard_bench` harnesses live in [`telemetry`], [`serve`], [`stream`]
//! and [`shard`], so that `tests/gates.rs` runs the same code on the
//! `--quick` workload and asserts each gate's bounds.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod runners;
pub mod serve;
pub mod shard;
pub mod stream;
pub mod table;
pub mod telemetry;
pub mod timing;
pub mod workloads;

pub use cli::Options;
pub use table::ExpTable;
pub use timing::{time_cpu_ms, time_gpu_ms};

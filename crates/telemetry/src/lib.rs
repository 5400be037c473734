//! # proclus-telemetry — phase-level telemetry for the PROCLUS family
//!
//! The paper's whole contribution is a per-phase cost story: FindDimensions
//! and AssignPoints dominate the baseline, and the `Dist`/`H` reuse of
//! FAST-PROCLUS (Theorems 3.1/3.2) moves work out of ComputeL. This crate
//! is the measuring instrument for that story: lightweight hierarchical
//! **spans** (run → iteration → phase → kernel) with wall-clock time,
//! invocation counts, and **algorithm counters** (distances computed,
//! `DistFound` hits/misses, `ΔL` sizes, points reassigned, medoids
//! replaced), recorded through a zero-cost-when-disabled [`Recorder`]
//! trait.
//!
//! * Algorithm code records against `&dyn Recorder`. The default
//!   [`NullRecorder`] compiles every call down to a no-op (its `enabled()`
//!   returns `false`, so call sites can skip even the bookkeeping needed to
//!   compute a counter value).
//! * [`Telemetry`] is the collecting recorder: it builds a span tree and,
//!   once the run finishes, yields a [`TelemetryReport`].
//! * [`TelemetryReport`] exports structured JSON (validated by
//!   [`schema::validate_report`]), Chrome-trace JSON (loadable in
//!   `about:tracing` / Perfetto), a human-readable phase-time table, and a
//!   deterministic tree rendering used by the golden-file tests.
//!
//! No external dependencies: JSON is emitted and parsed by the tiny
//! hand-rolled [`json`] module, mirroring the repo's no-serde policy.
//!
//! ## Example
//!
//! ```
//! use proclus_telemetry::{counters, span, Recorder, Telemetry};
//!
//! let tel = Telemetry::new();
//! {
//!     let _run = span(&tel, "run");
//!     let _it = span(&tel, "iteration");
//!     tel.add(counters::DISTANCES_COMPUTED, 42);
//! }
//! let report = tel.finish();
//! assert_eq!(report.total(counters::DISTANCES_COMPUTED), 42);
//! assert!(report.to_chrome_trace().starts_with('['));
//! proclus_telemetry::schema::validate_report_str(&report.to_json()).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod collect;
pub mod hist;
pub mod json;
mod recorder;
mod report;
pub mod schema;

pub use collect::Telemetry;
pub use hist::Histogram;
pub use recorder::{span, NullRecorder, Recorder, SpanGuard, SpanId};
pub use report::{chrome_trace_combined, runs_json, PhaseRow, SpanNode, TelemetryReport};

/// Names of the algorithm counters recorded by the PROCLUS crates. Keeping
/// them here (rather than as ad-hoc strings at each call site) is what makes
/// the JSON schema and the golden tests stable.
pub mod counters {
    /// Full-dimensional Euclidean point↔medoid distance evaluations
    /// (greedy selection, baseline ComputeL, `Dist` row fills). This is the
    /// quantity Theorem 3.1 reduces, so it is the headline number for
    /// FAST vs baseline comparisons. The FAST and FAST\* engines compute
    /// each iteration's `k·(k−1)` medoid-pair radii `δ_i` afresh, bitwise
    /// the cached `Dist` entries that they used to read, and do not count
    /// them: the baseline counts those pairs, the FAST engines count only
    /// their `Dist` row fills.
    pub const DISTANCES_COMPUTED: &str = "distances_computed";
    /// Manhattan segmental distance evaluations (AssignPoints,
    /// RemoveOutliers). Counted as launched work; short-circuit exits are
    /// not subtracted. RemoveOutliers counts its `n·k` tests even where
    /// the CPU backend runs them inside the refinement's AssignPoints
    /// sweep: the test still evaluates each distance against its sphere.
    pub const SEGMENTAL_DISTANCES: &str = "segmental_distances";
    /// `DistFound` hits: a current medoid whose `Dist` row was already
    /// cached (FAST) or whose slot survived unchanged (FAST*).
    pub const DIST_CACHE_HITS: &str = "dist_cache_hits";
    /// `DistFound` misses: a `Dist` row had to be computed from scratch.
    pub const DIST_CACHE_MISSES: &str = "dist_cache_misses";
    /// Points scanned by the incremental `ΔL_i` update (Theorem 3.2), i.e.
    /// `Σ_i |ΔL_i|` over all slots and iterations.
    pub const DELTA_L_POINTS: &str = "delta_l_points";
    /// Points whose cluster label changed relative to the previous
    /// iteration's assignment (the first iteration counts every point).
    pub const POINTS_REASSIGNED: &str = "points_reassigned";
    /// Bad-medoid replacements performed across all iterations.
    pub const MEDOIDS_REPLACED: &str = "medoids_replaced";
    /// Iterations of the medoid search (refinement not included).
    pub const ITERATIONS: &str = "iterations";
    /// Device kernel launches (GPU backends; bridged from gpu-sim).
    pub const KERNEL_LAUNCHES: &str = "kernel_launches";

    // --- Service counters (the `proclus-serve` layer) ---

    /// Jobs accepted into the service queue.
    pub const JOBS_ADMITTED: &str = "jobs_admitted";
    /// Jobs rejected at admission (queue full or invalid request).
    pub const JOBS_REJECTED: &str = "jobs_rejected";
    /// Jobs that executed inside a coalesced multi-parameter batch of
    /// width ≥ 2 (shared sample / `Dist`/`H` / `M`, §3.1).
    pub const JOBS_BATCHED: &str = "jobs_batched";
    /// Jobs that finished with a clustering.
    pub const JOBS_COMPLETED: &str = "jobs_completed";
    /// Jobs that failed (invalid parameters, device error, worker panic).
    pub const JOBS_FAILED: &str = "jobs_failed";
    /// Jobs cancelled by the client or by their deadline.
    pub const JOBS_CANCELLED: &str = "jobs_cancelled";
    /// Batches executed (a solo job counts as a batch of width 1). Divide
    /// [`BATCH_WIDTH`] by this for the mean coalescing width.
    pub const BATCHES_EXECUTED: &str = "batches_executed";
    /// Sum of executed batch widths (jobs per grid run).
    pub const BATCH_WIDTH: &str = "batch_width";
    /// Dataset registry hits (dataset served from the LRU cache).
    pub const DATASET_CACHE_HITS: &str = "dataset_cache_hits";
    /// Dataset registry misses (dataset loaded and hashed from its source).
    pub const DATASET_CACHE_MISSES: &str = "dataset_cache_misses";

    // --- Work-stealing pool counters (the `par` substrate) ---
    //
    // Recorded as before/after deltas of the process-wide pool totals, so
    // concurrent runs sharing the pool each see a superset of their own
    // activity. Counter keys are free-form in the schema (any non-negative
    // integer value), so readers of older reports stay compatible.

    /// Grains executed by work-stealing pool phases during the run.
    pub const POOL_TASKS: &str = "pool_tasks";
    /// Grains successfully stolen from another participant's deque.
    pub const POOL_STEALS: &str = "pool_steals";
    /// Steal attempts that lost a race or found the victim's deque empty.
    pub const POOL_STEAL_FAILURES: &str = "pool_steal_failures";
    /// Times a pool worker parked waiting for a phase.
    pub const POOL_PARKS: &str = "pool_parks";
    /// Times a parked pool worker was woken by a new phase.
    pub const POOL_UNPARKS: &str = "pool_unparks";
}

/// Names of span attributes (float-valued annotations).
pub mod attrs {
    /// Simulated device time attributed to a span, in microseconds
    /// (GPU backends; from the gpu-sim performance model).
    pub const SIM_US: &str = "sim_us";
    /// Modeled kernel time for a bridged `kernel:*` span, in microseconds.
    pub const KERNEL_TIME_US: &str = "kernel_time_us";
}

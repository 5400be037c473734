//! Incremental append/retire projected clustering over a live dataset.
//!
//! PROCLUS is a batch algorithm: the FAST/FAST* engines of the companion
//! crates take a frozen matrix and pay `O(B·k·n)` distances per run. This
//! crate keeps a clustering *alive* next to a mutable dataset: points are
//! appended, retired, or evicted by a sliding window, and a re-clustering
//! after a small delta batch costs a small fraction of a from-scratch run
//! while producing the **exact same result** — same labels, medoids,
//! subspaces, and costs, bitwise.
//!
//! Two mechanisms make that possible (DESIGN.md §13):
//!
//! - **Delta-patched distance rows** ([`cache::RowStore`]): per-medoid
//!   euclidean rows are cached across epochs keyed by pid and re-anchored
//!   to the new position order at epoch start by one column change list —
//!   an O(n) pid comparison plus an O(churn) in-place patch — and appended
//!   points are patched in as lazily-filled holes, listed per row so a
//!   fill costs O(holes). The `H` sums behind the decision matrix `X` are
//!   folded fresh each epoch from those rows by `ΔL` shells (the
//!   point-delta generalization of the paper's Theorems 3.1/3.2), so no
//!   accumulated float state ever crosses an epoch.
//! - **Append-stable initialization** ([`dataset::StreamDataset`]):
//!   priority sampling and a hash-argmin first greedy pick keep the
//!   candidate set — and with it the medoid pids that key the cached rows
//!   — stable under small deltas, without consuming RNG draws.
//!
//! AssignPoints runs as in a batch run: each call labels every point in
//! one `Backend::assign` sweep, which EvaluateClusters and outlier removal
//! then read.
//!
//! All three execution backends (CPU, single simulated GPU, sharded
//! multi-device) serve streaming through the same `Backend` trait;
//! shards patch their partitions locally and reduce at phase barriers.
//! When churn exceeds a staleness threshold the epoch escalates to a cold
//! pass — full price, identical result.

pub mod cache;
pub mod clusterer;
pub mod dataset;
mod driver;

pub use cache::RowStore;
pub use clusterer::{
    PidLabels, ReclusterMode, ReclusterReport, StreamBackendSpec, StreamState, StreamingClusterer,
};
pub use dataset::StreamDataset;
pub use driver::Costs;

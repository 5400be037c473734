//! Explicitly vectorized, cache-blocked forms of the [`crate::distance`]
//! kernels. MSRV-safe and dependency-free: eight-lane manual unrolling over
//! *independent* accumulators, which the auto-vectorizer lowers to packed
//! f32/f64 arithmetic (and which buys 8-way ILP even where it does not).
//!
//! # The bitwise-identity contract
//!
//! Every kernel here must return **bit-for-bit** the values of its scalar
//! counterpart in [`crate::distance`] — the sharded-equivalence and stream
//! exactness suites pin clusterings across backends, and any ulp of drift
//! would change medoid decisions. Floating-point addition is not
//! associative, so the one legal vectorization is *across independent
//! accumulator chains, never within one*:
//!
//! * **Distances** ([`euclidean8`], [`LaneScratch::euclidean`],
//!   [`LaneScratch::segmental`], [`LaneScratch::centroid_terms`]): lanes
//!   are eight *points*; each lane owns one `f64` accumulator and walks
//!   dimensions in the same ascending order as the scalar loop. No chain
//!   is reassociated.
//! * **`H` folds** ([`fold_abs_diff`], [`fold_shells`]): lanes are eight
//!   *dimensions*; each `h[j]` is its own chain, and points are folded in
//!   the same ascending order as the scalar code. [`fold_shells`] holds a
//!   member's 8-dimension blocks (two on AVX and AVX-512, one on the
//!   portable tier) in registers and folds one member after another — a
//!   loop interchange that every chain sees as the same sequence of adds.
//!   AssignPoints' cluster folds (`fold_lists`: the centroid sums, and
//!   the refinement's `|p − m|` sums) walk each cluster's member list the
//!   same way.
//! * **Remainders**: the `n % 8` tail of a point strip goes through the
//!   scalar kernel itself. The `d % 8` tail of a register fold runs as a
//!   full 8-lane block whose extra lanes read the next row (or zeros past
//!   the matrix's end) and are discarded; the AVX transpose moves it the
//!   same way, into padded scratch lanes no kernel reads, except for a
//!   lane group holding the matrix's last row, which copies it scalar.
//!
//! One carve-out: **NaN payload bits are out of contract.** When two NaNs
//! meet in an add, x86 propagates the first source operand — but IEEE
//! leaves the choice unspecified and LLVM freely commutes `fadd`, so even
//! two compilations of the *scalar* kernel can disagree on which payload
//! survives. What is pinned instead: every non-NaN result is
//! bitwise-identical, and NaN-ness itself propagates identically (a NaN
//! result on one path is a NaN result on every path — which is all the
//! debug sentinel and the `dist < delta` guards depend on).
//!
//! Subtraction happens in `f32` before widening — see the header of
//! [`crate::distance`] for the pinned precision contract shared with the
//! simulated-GPU kernels.
//!
//! # Cache blocking
//!
//! [`dist_rows_strip`] computes a *batch* of `Dist` rows over one
//! contiguous point strip, tiling points so each tile (~[`TILE_BYTES`] of
//! the data matrix) is read from memory once and reused for every medoid
//! row — instead of streaming the full matrix once per row. The parallel
//! driver splits columns across workers with
//! [`crate::par::Executor::for_each_strips`]. DESIGN.md §14 documents the
//! layout.
//!
//! # Dispatch tiers
//!
//! On x86-64 every kernel picks one of three tiers at run time, by
//! CPU detection alone (`is_x86_feature_detected!`): AVX-512F where the
//! CPU has it, else AVX, else the portable code. The strip kernels call
//! explicit intrinsics in `x86`: each lane group of eight rows is
//! transposed once into an L1-resident j-major scratch (8×8 register
//! transposes), after which every medoid row streams over *contiguous*
//! lanes — packed subtract in f32, widen to f64 (two `ymm` halves on AVX,
//! one `zmm` on AVX-512), square and accumulate. The AVX tier squares and
//! adds with **separate** `mul`/`add` instructions, as the scalar code
//! does; the AVX-512 tier fuses them into one `vfmadd` (`_mm512_fmadd_pd`).
//! The fused form rounds once where the pair rounds twice, yet gives the
//! same bits: the square of an f32 difference widened to f64 has at most
//! 48 significant bits, so it is exact in f64 and the pair's multiply
//! never rounds. (The AVX trampoline does not enable `fma`, so that tier
//! keeps the pair.) The portable eight-accumulator forms below stay the
//! reference (and the only path on other architectures); the tier is
//! invisible to callers and to results.
//!
//! The lane-resident per-point kernels ([`LaneScratch`], `LaneBlocks`,
//! [`fold_shells`]) are portable Rust. Callers run them under
//! [`dispatch`], which compiles the same source twice more, with AVX and
//! with AVX-512F enabled, and picks the copy of the detected tier. Rust
//! never contracts a multiply and an add into an FMA, so every copy runs
//! the same IEEE operations in the same order. Their intrinsic calls only
//! move values: the transpose, and on AVX-512 the `vpcompressd` that
//! lists a shell's members or a cluster's. AssignPoints walks each
//! medoid's subspace once per lane group of eight points on every tier: a
//! sixteen-point walk (two groups per walk, in portable Rust or in `zmm`
//! intrinsics) was measured and not kept (DESIGN.md §14.8).
//!
//! # Scratch
//!
//! No kernel allocates per executor grain. A grain's transposed lanes
//! live in a per-thread buffer (`LaneScratch::with`), grown to the
//! largest dimensionality the thread has seen and reused by the thread's
//! next grain; rows a kernel reads against one medoid after another (the
//! greedy's sample) are transposed once per call into `LaneBlocks`.

use std::cell::Cell;

use crate::distance::{euclidean, manhattan_segmental};
use crate::par::with_spare;

/// Lane width of the unrolled kernels: eight independent accumulators
/// (2 × AVX2 `f64x4`, or 4 × SSE2 `f64x2`).
pub const LANES: usize = 8;

/// Values in one transposed lane group of `d`-dimensional points: `8 · d`
/// rounded up to whole 8×8 blocks, so the AVX transpose can move the
/// `d % 8` tail as one more block.
#[inline(always)]
fn block_len(d: usize) -> usize {
    LANES * d.next_multiple_of(LANES)
}

/// Target size of one cache-blocked tile of the point strip, in bytes.
/// 32 KiB keeps a tile resident in a typical L1d while the medoid rows
/// stream over it.
pub const TILE_BYTES: usize = 32 * 1024;

/// Points per cache tile for dimensionality `d`: the largest multiple of
/// [`LANES`] whose `f32` rows fit [`TILE_BYTES`], and at least one lane
/// group.
#[inline]
pub fn tile_points(d: usize) -> usize {
    let per_point = 4 * d.max(1);
    ((TILE_BYTES / per_point) / LANES * LANES).max(LANES)
}

/// Euclidean distances from eight point rows to one medoid row — the
/// vectorized body of a `Dist` row (GPU Alg. 3 lines 1–3). Lane `l` is
/// bitwise-identical to `distance::euclidean(rows[l], m)`: one `f64`
/// accumulator per lane, dimensions in ascending order.
#[inline]
pub fn euclidean8(rows: [&[f32]; LANES], m: &[f32]) -> [f32; LANES] {
    let d = m.len();
    // Pin every lane to length `d` so the inner indexing is bounds-free.
    let rows = rows.map(|r| &r[..d]);
    let mut acc = [0.0f64; LANES];
    for j in 0..d {
        let mj = m[j];
        for l in 0..LANES {
            let diff = (rows[l][j] - mj) as f64;
            acc[l] += diff * diff;
        }
    }
    acc.map(|a| a.sqrt() as f32)
}

/// The instruction sets a kernel runs on, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Tier {
    /// The portable code as compiled for the target (SSE2 on x86-64).
    Portable,
    /// 256-bit AVX registers.
    Avx,
    /// 512-bit AVX-512F registers.
    Avx512,
}

/// The widest tier this CPU runs. Detection is the only input, made once
/// per process; each later call is one atomic load.
#[inline(always)]
pub(crate) fn tier() -> Tier {
    #[cfg(test)]
    if let Some(forced) = FORCED_TIER.with(std::cell::Cell::get) {
        return forced;
    }
    detected_tier()
}

/// The detected tier, worked out once per process.
#[inline(always)]
fn detected_tier() -> Tier {
    static DETECTED: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            // Enabling `avx512f` also enables the `avx2` and `fma` it
            // implies, so the AVX-512 tier needs all three.
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("fma")
            {
                return Tier::Avx512;
            }
            if is_x86_feature_detected!("avx") {
                return Tier::Avx;
            }
        }
        Tier::Portable
    })
}

#[cfg(test)]
thread_local! {
    static FORCED_TIER: std::cell::Cell<Option<Tier>> = const { std::cell::Cell::new(None) };
}

/// Every tier this host runs, narrowest first.
#[cfg(test)]
pub(crate) fn host_tiers() -> Vec<Tier> {
    [Tier::Portable, Tier::Avx, Tier::Avx512]
        .into_iter()
        .filter(|&t| t <= detected_tier())
        .collect()
}

/// Runs `f` with every kernel on this thread pinned to `tier`, which must
/// be one the host runs. Kernels that run on pool workers still detect.
#[cfg(test)]
pub(crate) fn with_tier<R>(tier: Tier, f: impl FnOnce() -> R) -> R {
    assert!(tier <= detected_tier(), "{tier:?} is not available here");
    let before = FORCED_TIER.with(|c| c.replace(Some(tier)));
    let out = f();
    FORCED_TIER.with(|c| c.set(before));
    out
}

/// Runs `body` compiled for the widest tier this CPU runs: the one runtime
/// dispatch of the lane-resident kernels ([`LaneScratch`],
/// [`fold_shells`]). Their bodies are `#[inline(always)]` portable Rust,
/// so they inline into an AVX-512F or AVX `#[target_feature]` trampoline
/// and vectorize to 512- or 256-bit registers there; the same source is
/// the portable path. Rust never fuses a multiply and an add into an FMA,
/// so every copy runs the same IEEE operations in the same order.
///
/// Pass `body` as an `#[inline(always)]` closure: it has three call sites
/// (two trampolines and the portable path), so without the attribute LLVM
/// may keep it out of line, compiled for the portable target.
#[inline(always)]
pub fn dispatch<R>(body: impl FnOnce() -> R) -> R {
    match tier() {
        // SAFETY: the tier's features were detected at runtime (a forced
        // tier is capped at the detected one).
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { x86::with_avx512(body) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx => unsafe { x86::with_avx(body) },
        _ => body(),
    }
}

/// Eight points transposed into one j-major lane scratch: `lanes[j·8 + l]`
/// is coordinate `j` of lane `l`. Built once per lane group, after which
/// every medoid's subspace walk reads one contiguous 8-lane vector per
/// dimension instead of one scalar from each of eight rows.
#[derive(Debug, Clone)]
pub struct LaneScratch {
    d: usize,
    /// At least [`block_len`]`(d)` values; the kernels use that prefix.
    lanes: Vec<f32>,
}

thread_local! {
    /// This thread's lane storage for [`LaneScratch::with`].
    static SPARE_LANES: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

impl LaneScratch {
    /// An empty scratch for `d`-dimensional points.
    pub fn new(d: usize) -> Self {
        Self {
            d,
            lanes: vec![0.0; block_len(d)],
        }
    }

    /// Runs `f` on a scratch for `d`-dimensional points whose storage is
    /// this thread's spare lane buffer ([`with_spare`]): a grain body gets
    /// its lanes without allocating once the thread has seen a `d` this
    /// large. The lanes hold whatever the thread's last grain left, and
    /// every kernel reads only lanes a load wrote.
    #[inline(always)]
    pub(crate) fn with<R>(d: usize, f: impl FnOnce(&mut LaneScratch) -> R) -> R {
        with_spare(
            &SPARE_LANES,
            block_len(d),
            #[inline(always)]
            |lanes| {
                let mut scratch = LaneScratch {
                    d,
                    lanes: std::mem::take(lanes),
                };
                let out = f(&mut scratch);
                *lanes = scratch.lanes;
                out
            },
        )
    }

    /// Loads the eight consecutive rows `first..first + 8` of the
    /// row-major matrix `flat`: the AVX register transpose on the AVX and
    /// AVX-512 tiers, a scalar transpose otherwise.
    #[inline(always)]
    pub fn load_rows(&mut self, flat: &[f32], first: usize) {
        let last = first.saturating_add(LANES - 1);
        transpose(
            flat,
            self.d,
            last,
            std::array::from_fn(|l| first + l),
            &mut self.lanes[..block_len(self.d)],
        );
    }

    /// Gathers the rows of the first eight points listed in `points`
    /// (data indices into the row-major matrix `flat`) through the same
    /// transpose as [`LaneScratch::load_rows`].
    #[inline(always)]
    pub fn gather_rows(&mut self, flat: &[f32], points: &[usize]) {
        let points: [usize; LANES] = std::array::from_fn(|l| points[l]);
        let last = points.iter().fold(0, |a, &p| a.max(p));
        transpose(
            flat,
            self.d,
            last,
            points,
            &mut self.lanes[..block_len(self.d)],
        );
    }

    /// Euclidean distances from the eight loaded points to one medoid
    /// row. Lane `l` is bitwise-identical to
    /// `distance::euclidean(row_l, m)`: f32 subtract, widen, square and
    /// add in ascending dimension order, IEEE sqrt, narrow.
    #[inline(always)]
    pub fn euclidean(&self, m: &[f32]) -> [f32; LANES] {
        lanes_euclidean(&self.lanes, self.d, m)
    }

    /// EvaluateClusters' per-point term for the eight loaded points
    /// against a centroid `mu` in subspace `dims`: lane `l` is
    /// `Σ_{j ∈ dims} |row_l[j] − mu[j]| / |dims|`, widened to f64 before
    /// the subtraction, in ascending `dims` order — the scalar chain of
    /// Eq. 9, one lane per point.
    #[inline(always)]
    pub fn centroid_terms(&self, mu: &[f64], dims: &[usize]) -> [f64; LANES] {
        let mut acc = [0.0f64; LANES];
        for &j in dims {
            let v = &self.lanes[j * LANES..(j + 1) * LANES];
            let mj = mu[j];
            for l in 0..LANES {
                acc[l] += (v[l] as f64 - mj).abs();
            }
        }
        let len = dims.len() as f64;
        acc.map(|a| a / len)
    }

    /// Manhattan segmental distances from the eight loaded points to one
    /// medoid row in subspace `dims`. Lane `l` is bitwise-identical to
    /// `distance::manhattan_segmental(row_l, m, dims)`: f32 subtract,
    /// widen, abs, add in ascending `dims` order, then divide by `|D|`.
    /// `dims` must be non-empty.
    #[inline(always)]
    pub fn segmental(&self, m: &[f32], dims: &[usize]) -> [f64; LANES] {
        debug_assert!(!dims.is_empty());
        let mut acc = [0.0f64; LANES];
        for &j in dims {
            let v = &self.lanes[j * LANES..(j + 1) * LANES];
            let mj = m[j];
            for l in 0..LANES {
                acc[l] += ((v[l] - mj) as f64).abs();
            }
        }
        let len = dims.len() as f64;
        acc.map(|a| a / len)
    }

    /// [`nearest_medoid`] for the eight loaded points: per-lane scan order
    /// and tie-breaking (lower medoid index) are the scalar rule's, so
    /// labels match bit for bit.
    #[inline(always)]
    pub fn nearest_medoid(&self, medoid_rows: &[&[f32]], subspaces: &[Vec<usize>]) -> [i32; LANES] {
        self.nearest_within(medoid_rows, subspaces, &[]).0
    }

    /// [`LaneScratch::nearest_medoid`], and per lane whether the point lies
    /// inside some medoid's outlier sphere — segmental distance `≤
    /// spheres[i]` — tested on the distances the labels were chosen from:
    /// the refinement's outlier test ([`nearest_medoid_within`] per lane).
    /// With `spheres` empty, no lane is inside.
    #[inline(always)]
    pub fn nearest_within(
        &self,
        medoid_rows: &[&[f32]],
        subspaces: &[Vec<usize>],
        spheres: &[f64],
    ) -> ([i32; LANES], [bool; LANES]) {
        let mut best = [f64::INFINITY; LANES];
        let mut best_i = [0i32; LANES];
        let mut inside = [false; LANES];
        for (i, (m, dims)) in medoid_rows.iter().zip(subspaces).enumerate() {
            let dist = self.segmental(m, dims);
            for l in 0..LANES {
                if dist[l] < best[l] {
                    best[l] = dist[l];
                    best_i[l] = i as i32;
                }
            }
            if let Some(&r) = spheres.get(i) {
                for l in 0..LANES {
                    inside[l] |= dist[l] <= r;
                }
            }
        }
        (best_i, inside)
    }
}

/// Transposes the `d`-wide rows `points` of the row-major matrix `flat`
/// into the j-major lane block `lanes` (`lanes[j·8 + l]` is coordinate `j`
/// of lane `l`); `last` is the largest of them. The AVX register
/// transpose on the AVX and AVX-512 tiers, a scalar one otherwise.
#[inline(always)]
fn transpose(flat: &[f32], d: usize, last: usize, points: [usize; LANES], lanes: &mut [f32]) {
    let end = last.checked_mul(d).and_then(|s| s.checked_add(d));
    assert!(
        end.is_some_and(|e| e <= flat.len()),
        "lane row {last} out of bounds"
    );
    assert!(
        lanes.len() >= block_len(d),
        "a lane block of {d} dimensions"
    );
    let starts: [usize; LANES] = std::array::from_fn(|l| points[l] * d);
    #[cfg(target_arch = "x86_64")]
    if tier() >= Tier::Avx {
        // SAFETY: AVX was detected; every row is inside `flat` and
        // `lanes` holds whole 8×8 blocks (both asserted above).
        unsafe { x86::transpose8(flat, starts, d, lanes) };
        return;
    }
    for (l, &s) in starts.iter().enumerate() {
        for (lane, &v) in lanes.chunks_exact_mut(LANES).zip(&flat[s..s + d]) {
            lane[l] = v;
        }
    }
}

/// Euclidean distances from the eight points of the j-major lane block
/// `lanes` to `m`: per lane the scalar kernel's chain (f32 subtract,
/// widen, square and add in ascending dimension order, IEEE sqrt, narrow).
#[inline(always)]
fn lanes_euclidean(lanes: &[f32], d: usize, m: &[f32]) -> [f32; LANES] {
    let mut acc = [0.0f64; LANES];
    for (v, &mj) in lanes.chunks_exact(LANES).zip(&m[..d]) {
        for l in 0..LANES {
            let diff = (v[l] - mj) as f64;
            acc[l] += diff * diff;
        }
    }
    acc.map(|a| a.sqrt() as f32)
}

/// Listed rows transposed once into lane blocks, for kernels that read
/// the same rows against one medoid after another: the greedy's sample,
/// once per pick, and the stream's `dist_subset` position lists. Block
/// `g` holds the rows of `points[8g..8g + 8]` as a [`LaneScratch`] holds
/// its group; the last `len % 8` rows are kept row-major for the scalar
/// kernel. Every distance is its own chain, bitwise `distance::euclidean`.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneBlocks {
    d: usize,
    len: usize,
    blocks: Vec<f32>,
    tail: Vec<f32>,
}

impl LaneBlocks {
    /// The rows `points` of the row-major `d`-wide matrix `flat`.
    pub(crate) fn new(flat: &[f32], d: usize, points: &[usize]) -> Self {
        let mut blocks = Self::default();
        blocks.gather(flat, d, points);
        blocks
    }

    /// Replaces the held rows with the rows `points` of `flat`, reusing
    /// the storage.
    pub(crate) fn gather(&mut self, flat: &[f32], d: usize, points: &[usize]) {
        let full = points.len() - points.len() % LANES;
        let len = block_len(d);
        (self.d, self.len) = (d, points.len());
        // Every value a kernel reads is written below; a grown buffer's
        // new values are never read before that.
        self.blocks.resize(full / LANES * len, 0.0);
        for (group, lanes) in points[..full]
            .chunks_exact(LANES)
            .zip(self.blocks.chunks_exact_mut(len))
        {
            let group: [usize; LANES] = std::array::from_fn(|l| group[l]);
            let last = group.iter().fold(0, |a, &p| a.max(p));
            transpose(flat, d, last, group, lanes);
        }
        self.tail.clear();
        for &p in &points[full..] {
            self.tail.extend_from_slice(&flat[p * d..(p + 1) * d]);
        }
    }

    /// Calls `f(i, ‖row_{first + i} − m‖₂)` for the `len` held rows from
    /// `first`, in order. `first` starts a lane group, and the range ends
    /// at a lane group's end or at the last row, as executor grains do.
    #[inline(always)]
    pub(crate) fn for_each_euclidean(
        &self,
        m: &[f32],
        first: usize,
        len: usize,
        mut f: impl FnMut(usize, f32),
    ) {
        let (d, end) = (self.d, first + len);
        assert!(
            first.is_multiple_of(LANES)
                && (end.is_multiple_of(LANES) || end == self.len)
                && end <= self.len,
            "rows {first}..{end} of {} split a lane group",
            self.len
        );
        let full = self.len - self.len % LANES;
        let block = block_len(d);
        let mut i = first;
        while i + LANES <= end {
            let dist = lanes_euclidean(&self.blocks[i / LANES * block..][..block], d, m);
            for (l, dist) in dist.into_iter().enumerate() {
                f(i - first + l, dist);
            }
            i += LANES;
        }
        while i < end {
            let row = &self.tail[(i - full) * d..(i - full + 1) * d];
            f(i - first, euclidean(row, m));
            i += 1;
        }
    }
}

/// Points per block of [`fold_shells`]: a block's member rows stay in L1
/// while every row of the sweep folds its members from it.
const SHELL_BLOCK: usize = 256;

/// One row of a [`fold_shells`] sweep: a `Dist` row over the sweep's
/// points, its medoid, and the shell `lo < dist ≤ hi` to fold.
#[derive(Debug, Clone, Copy)]
pub struct ShellRow<'a> {
    /// Cached distances from the medoid to the sweep's points.
    pub dist: &'a [f32],
    /// The medoid's coordinates.
    pub m: &'a [f32],
    /// The shell's lower bound, excluded.
    pub lo: f32,
    /// The shell's upper bound, included.
    pub hi: f32,
}

/// The `ΔL` shell folds (Theorems 3.1/3.2) of several `Dist` rows in one
/// sweep over the points `first..first + len` of the row-major `d`-wide
/// matrix `flat`, where `len` is each row's `dist` length: for every row
/// `r` and every point with `lo < dist ≤ hi`, in ascending order,
/// `dh[r·d + j] += |p_j − m_j|`; `cnt[r]` grows by the number of points
/// folded. The sweep walks 256-point blocks; while a block is in L1, each
/// row lists its members without branching (`vpcompressd` on AVX-512) and
/// folds them with a member's 8-dimension blocks held together in
/// registers. Each `dh` chain sees the same adds in the same order as one
/// [`fold_abs_diff`] call per member. A NaN distance is in no shell.
pub fn fold_shells(
    flat: &[f32],
    d: usize,
    first: usize,
    rows: &[ShellRow<'_>],
    dh: &mut [f64],
    cnt: &mut [usize],
) {
    let len = rows.first().map_or(0, |r| r.dist.len());
    fold_shell_rows(flat, d, first, len, rows.len(), |r| rows[r], dh, cnt);
}

/// [`fold_shells`] over the `count` rows `row(0)..row(count)`, each over
/// `len` points, made as the sweep reaches them: an executor grain folds
/// its rows without collecting them first.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn fold_shell_rows<'a>(
    flat: &[f32],
    d: usize,
    first: usize,
    len: usize,
    count: usize,
    row: impl Fn(usize) -> ShellRow<'a>,
    dh: &mut [f64],
    cnt: &mut [usize],
) {
    assert_eq!(dh.len(), count * d, "one `dh` row per shell");
    assert_eq!(cnt.len(), count, "one count per shell");
    assert!(
        (0..count).all(|r| row(r).dist.len() == len && row(r).m.len() == d),
        "ragged shell rows"
    );
    assert!((first + len) * d <= flat.len(), "sweep past the matrix");
    dispatch(
        #[inline(always)]
        || {
            let compress = tier() == Tier::Avx512;
            let pair = tier() >= Tier::Avx;
            let mut members = [0u32; SHELL_BLOCK];
            for b0 in (0..len).step_by(SHELL_BLOCK) {
                let b1 = (b0 + SHELL_BLOCK).min(len);
                for (r, (h, c)) in dh.chunks_exact_mut(d).zip(&mut *cnt).enumerate() {
                    let row = row(r);
                    let hits =
                        shell_members(&row.dist[b0..b1], row.lo, row.hi, &mut members, compress);
                    fold_members::<true>(h, flat, first + b0, &members[..hits], row.m, pair);
                    *c += hits;
                }
            }
        },
    );
}

/// Lists the offsets `i` of `block` with `lo < block[i] ≤ hi`, ascending,
/// in `out` and returns how many there are: `vpcompressd` when
/// `compress` (the caller runs on the AVX-512 tier), otherwise a cursor
/// that is written at every offset and advances only on a hit.
#[inline(always)]
fn shell_members(
    block: &[f32],
    lo: f32,
    hi: f32,
    out: &mut [u32; SHELL_BLOCK],
    compress: bool,
) -> usize {
    debug_assert!(block.len() <= SHELL_BLOCK);
    #[cfg(target_arch = "x86_64")]
    if compress {
        // SAFETY: `compress` is set only on the AVX-512 tier, which was
        // detected; the block fits `out`.
        return unsafe { x86::shell_members(block, lo, hi, out) };
    }
    let _ = compress;
    let mut hits = 0;
    for (i, &v) in block.iter().enumerate() {
        out[hits] = i as u32;
        hits += usize::from((v > lo) & (v <= hi));
    }
    hits
}

/// Folds the rows `base + offset` (ascending) into `h`, with `d =
/// h.len()`, one walk of the member list per 8-dimension block, or per
/// `pair` of blocks, whose chains then advance side by side: `h[j] +=
/// |p_j − m_j|` with `ABS`, else `h[j] += p_j` (`m` unread). A probe of
/// four 128,000-point shells at d from 15 to 40, on one Sapphire Rapids
/// core, found pairs 1.1–1.4× faster than single blocks on AVX-512,
/// level on AVX, and up to 1.5× slower on the portable tier; three or
/// four blocks per walk lost on every tier at d = 24.
#[inline(always)]
fn fold_members<const ABS: bool>(
    h: &mut [f64],
    flat: &[f32],
    base: usize,
    offsets: &[u32],
    m: &[f32],
    pair: bool,
) {
    let d = h.len();
    let mut j0 = 0;
    while j0 < d {
        if pair && d - j0 > LANES {
            fold_blocks::<2, ABS>(h, flat, base, offsets, m, j0);
            j0 += 2 * LANES;
        } else {
            fold_blocks::<1, ABS>(h, flat, base, offsets, m, j0);
            j0 += LANES;
        }
    }
}

/// Folds dimensions `j0..j0 + 8·G` (clipped to `d`) of the listed rows
/// into `h`, the sums held in registers across all members. A short last
/// block reads into the next row's lanes, which are discarded; only reads
/// that would cross the end of `flat` (the last rows) take a zero-padded
/// copy. Without `ABS` the medoid lanes are zero, and `p_j − 0.0` is
/// `p_j` in IEEE arithmetic, so the add is the plain coordinate sum.
#[inline(always)]
fn fold_blocks<const G: usize, const ABS: bool>(
    h: &mut [f64],
    flat: &[f32],
    base: usize,
    offsets: &[u32],
    m: &[f32],
    j0: usize,
) {
    let d = h.len();
    let span = G * LANES;
    let w = span.min(d - j0);
    let mut acc: [[f64; LANES]; G] = std::array::from_fn(|b| {
        std::array::from_fn(|l| {
            if b * LANES + l < w {
                h[j0 + b * LANES + l]
            } else {
                0.0
            }
        })
    });
    let mj: [[f32; LANES]; G] = std::array::from_fn(|b| {
        std::array::from_fn(|l| {
            if ABS && b * LANES + l < w {
                m[j0 + b * LANES + l]
            } else {
                0.0
            }
        })
    });
    let term = |v: f32, mj: f32| {
        let t = (v - mj) as f64;
        if ABS {
            t.abs()
        } else {
            t
        }
    };
    let start = |o: u32| (base + o as usize) * d + j0;
    let direct = offsets.partition_point(|&o| start(o) + span <= flat.len());
    for &o in &offsets[..direct] {
        let v = &flat[start(o)..start(o) + span];
        for b in 0..G {
            for l in 0..LANES {
                acc[b][l] += term(v[b * LANES + l], mj[b][l]);
            }
        }
    }
    for &o in &offsets[direct..] {
        let v: [[f32; LANES]; G] = std::array::from_fn(|b| {
            std::array::from_fn(|l| {
                if b * LANES + l < w {
                    flat[start(o) + b * LANES + l]
                } else {
                    0.0
                }
            })
        });
        for b in 0..G {
            for l in 0..LANES {
                acc[b][l] += term(v[b][l], mj[b][l]);
            }
        }
    }
    for b in 0..G {
        for l in 0..LANES {
            if b * LANES + l < w {
                h[j0 + b * LANES + l] = acc[b][l];
            }
        }
    }
}

/// Lists the points of one grain cluster by cluster: with `k =
/// at.len() − 1`, `members[at[c]..at[c + 1]]` are the offsets `i` with
/// `labels[i] == c`, ascending, for every `c < k`; other labels (the
/// outliers' negative ones) are in no list. Returns `at[k]`. On the
/// AVX-512 tier each cluster's list is compress-stored (`vpcompressd`)
/// sixteen labels per compare; the other tiers run a counting sort.
pub(crate) fn list_clusters(labels: &[i32], at: &mut [u32], members: &mut [u32]) -> usize {
    assert!(!at.is_empty(), "one list start per cluster, plus the end");
    assert!(members.len() >= labels.len(), "room for every point");
    assert!(u32::try_from(labels.len()).is_ok(), "grain offsets fit u32");
    #[cfg(target_arch = "x86_64")]
    if tier() == Tier::Avx512 {
        // SAFETY: AVX-512F was detected (a forced tier is capped at the
        // detected one); `members` has room for every point.
        return unsafe { x86::list_clusters(labels, at, members) };
    }
    let k = at.len() - 1;
    let listed = |c: i32| usize::try_from(c).ok().filter(|&c| c < k);
    at.fill(0);
    for &c in labels {
        if let Some(c) = listed(c) {
            at[c + 1] += 1;
        }
    }
    for c in 0..k {
        at[c + 1] += at[c];
    }
    // `at[c]` is cluster `c`'s write cursor; once every list is written
    // it holds the list's end, the next list's start, so one shift puts
    // the starts back.
    for (i, &c) in labels.iter().enumerate() {
        if let Some(c) = listed(c) {
            members[at[c] as usize] = i as u32;
            at[c] += 1;
        }
    }
    at.copy_within(..k, 1);
    at[0] = 0;
    at[k] as usize
}

/// Folds each cluster's listed rows of one grain, in list order, into its
/// row of `h` (`k × d`, with `k = at.len() − 1` and the lists as
/// [`list_clusters`] leaves them, offsets from point `first` of the
/// row-major `d`-wide matrix `flat`): the coordinate sums when `medoids`
/// is `None`, else `|p_j − m_{c,j}|` against cluster `c`'s medoid row.
/// Each `h` entry is one chain over the cluster's members in ascending
/// point order, a member's 8-dimension blocks held in registers as in
/// [`fold_shells`].
pub(crate) fn fold_lists(
    h: &mut [f64],
    flat: &[f32],
    d: usize,
    first: usize,
    at: &[u32],
    members: &[u32],
    medoids: Option<&[&[f32]]>,
) {
    let k = at
        .len()
        .checked_sub(1)
        .expect("one list start per cluster, plus the end");
    assert_eq!(h.len(), k * d, "one `h` row per cluster");
    assert!(medoids.is_none_or(|m| m.len() == k && m.iter().all(|m| m.len() == d)));
    dispatch(
        #[inline(always)]
        || {
            let pair = tier() >= Tier::Avx;
            for (c, h) in h.chunks_exact_mut(d).enumerate() {
                let listed = &members[at[c] as usize..at[c + 1] as usize];
                match medoids {
                    Some(m) => fold_members::<true>(h, flat, first, listed, m[c], pair),
                    None => fold_members::<false>(h, flat, first, listed, &[], pair),
                }
            }
        },
    );
}

/// Folds one point into per-dimension Manhattan sums:
/// `h[j] += |row[j] − m[j]|`, unrolled [`LANES`] dimensions at a time.
/// Each `h[j]` is an independent chain, so the unroll preserves the scalar
/// reduction order exactly; callers must fold points in scalar order.
#[inline]
pub fn fold_abs_diff(h: &mut [f64], row: &[f32], m: &[f32]) {
    let d = h.len();
    let row = &row[..d];
    let m = &m[..d];
    let mut j = 0;
    while j + LANES <= d {
        for l in 0..LANES {
            h[j + l] += ((row[j + l] - m[j + l]) as f64).abs();
        }
        j += LANES;
    }
    while j < d {
        h[j] += ((row[j] - m[j]) as f64).abs();
        j += 1;
    }
}

/// Borrows eight consecutive rows (starting at row `i`) of a contiguous
/// row-major strip.
#[inline]
fn lanes_at(points: &[f32], d: usize, i: usize) -> [&[f32]; LANES] {
    std::array::from_fn(|l| &points[(i + l) * d..(i + l + 1) * d])
}

/// Fills `out[i] = ‖pointᵢ − m‖₂` over a contiguous row-major strip of
/// `out.len()` points: the intrinsics kernel of the detected tier
/// (see the module docs), otherwise [`euclidean8`] on full lane groups
/// with the scalar kernel on the `% 8` tail. Bitwise-identical either way.
pub fn euclidean_strip(points: &[f32], d: usize, m: &[f32], out: &mut [f32]) {
    assert_eq!(points.len(), out.len() * d, "strip of {} points", out.len());
    #[cfg(target_arch = "x86_64")]
    if tier() >= Tier::Avx {
        // SAFETY: AVX (and AVX-512F for the wide form) was detected.
        unsafe { x86::dist_rows_strip(points, d, &[m], &mut [out], tier() == Tier::Avx512) };
        return;
    }
    euclidean_strip_portable(points, d, m, out);
}

/// The dependency-free reference form of [`euclidean_strip`] — also the
/// only path off x86-64.
pub fn euclidean_strip_portable(points: &[f32], d: usize, m: &[f32], out: &mut [f32]) {
    let n = out.len();
    debug_assert_eq!(points.len(), n * d);
    let mut i = 0;
    while i + LANES <= n {
        let dist = euclidean8(lanes_at(points, d, i), m);
        out[i..i + LANES].copy_from_slice(&dist);
        i += LANES;
    }
    while i < n {
        out[i] = euclidean(&points[i * d..(i + 1) * d], m);
        i += 1;
    }
}

/// Cache-blocked batch of `Dist` rows: `outs[r][i] = ‖pointᵢ − m_rows[r]‖₂`
/// over one contiguous point strip. On the AVX and AVX-512 tiers each
/// lane group is transposed once and reused for every medoid row; the
/// portable path processes points in [`tile_points`]-sized tiles with the
/// medoid loop *inside* the tile loop, so each data tile is read from
/// memory once and reused for every row. Bitwise-identical either way.
pub fn dist_rows_strip(points: &[f32], d: usize, m_rows: &[&[f32]], outs: &mut [&mut [f32]]) {
    debug_assert_eq!(m_rows.len(), outs.len());
    let n = outs.first().map(|o| o.len()).unwrap_or(0);
    assert!(outs.iter().all(|o| o.len() == n), "ragged Dist rows");
    assert_eq!(points.len(), n * d, "strip of {n} points");
    #[cfg(target_arch = "x86_64")]
    if tier() >= Tier::Avx {
        // SAFETY: AVX (and AVX-512F for the wide form) was detected.
        unsafe { x86::dist_rows_strip(points, d, m_rows, outs, tier() == Tier::Avx512) };
        return;
    }
    let tile = tile_points(d);
    let mut t0 = 0;
    while t0 < n {
        let t1 = (t0 + tile).min(n);
        for (m, out) in m_rows.iter().zip(outs.iter_mut()) {
            euclidean_strip_portable(&points[t0 * d..t1 * d], d, m, &mut out[t0..t1]);
        }
        t0 = t1;
    }
}

/// Explicit AVX and AVX-512F forms of the strip kernels, and the
/// trampolines of [`dispatch`]. Runtime-dispatched — the crate still
/// builds for plain x86-64 and every other architecture.
///
/// Bitwise identity with the scalar kernel is load-bearing (see the
/// module docs): subtraction stays packed *f32* (`vsubps`), widening is
/// `vcvtps2pd`, and the square-accumulate is a separate `vmulpd` +
/// `vaddpd` pair on AVX, the scalar code's two operations, and one
/// `vfmadd` on AVX-512, which rounds the same because the square is exact
/// (see the module docs). `vsqrtpd`/`vcvtpd2ps` are IEEE
/// correctly-rounded, matching `f64::sqrt` and `as f32` lane for lane
/// (NaNs from non-finite inputs propagate identically).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{block_len, euclidean, LaneScratch, LANES, SHELL_BLOCK};
    use std::arch::x86_64::*;

    /// The AVX trampoline of [`super::dispatch`]: `body` and the
    /// `#[inline(always)]` kernels it calls inline here and compile with
    /// AVX enabled.
    ///
    /// # Safety
    ///
    /// The caller detected AVX at runtime.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn with_avx<R>(body: impl FnOnce() -> R) -> R {
        body()
    }

    /// The AVX-512F trampoline of [`super::dispatch`], as
    /// [`with_avx`] with 512-bit registers.
    ///
    /// # Safety
    ///
    /// The caller detected AVX-512F at runtime.
    #[target_feature(enable = "avx,avx2,avx512f")]
    pub(super) unsafe fn with_avx512<R>(body: impl FnOnce() -> R) -> R {
        body()
    }

    /// [`super::shell_members`] on AVX-512F: sixteen distances per
    /// compare, the matching offsets compress-stored (`vpcompressd`) at
    /// the cursor; the `len % 16` tail is the scalar cursor. Ordered
    /// compares, so a NaN distance is in no shell.
    ///
    /// # Safety
    ///
    /// The caller detected AVX-512F; `block.len() <= out.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn shell_members(
        block: &[f32],
        lo: f32,
        hi: f32,
        out: &mut [u32; SHELL_BLOCK],
    ) -> usize {
        debug_assert!(block.len() <= SHELL_BLOCK);
        let (lo_v, hi_v) = (_mm512_set1_ps(lo), _mm512_set1_ps(hi));
        let mut offsets = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let step = _mm512_set1_epi32(16);
        let (mut i, mut hits) = (0, 0);
        while i + 16 <= block.len() {
            let v = _mm512_loadu_ps(block.as_ptr().add(i));
            let hit = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, lo_v)
                & _mm512_cmp_ps_mask::<_CMP_LE_OQ>(v, hi_v);
            _mm512_mask_compressstoreu_epi32(out.as_mut_ptr().add(hits).cast(), hit, offsets);
            hits += hit.count_ones() as usize;
            offsets = _mm512_add_epi32(offsets, step);
            i += 16;
        }
        for (i, &v) in block.iter().enumerate().skip(i) {
            out[hits] = i as u32;
            hits += usize::from((v > lo) & (v <= hi));
        }
        hits
    }

    /// [`super::list_clusters`] on AVX-512F: per cluster, sixteen labels
    /// per compare, the matching offsets compress-stored (`vpcompressd`)
    /// at the cursor; the `len % 16` tail is scalar.
    ///
    /// # Safety
    ///
    /// The caller detected AVX-512F; `members.len() >= labels.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn list_clusters(
        labels: &[i32],
        at: &mut [u32],
        members: &mut [u32],
    ) -> usize {
        debug_assert!(members.len() >= labels.len());
        let k = at.len() - 1;
        let step = _mm512_set1_epi32(16);
        let mut hits = 0;
        for (c, start) in at[..k].iter_mut().enumerate() {
            *start = hits as u32;
            let want = _mm512_set1_epi32(c as i32);
            let mut offsets =
                _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
            let mut i = 0;
            while i + 16 <= labels.len() {
                let v = _mm512_loadu_epi32(labels.as_ptr().add(i));
                let hit = _mm512_cmpeq_epi32_mask(v, want);
                _mm512_mask_compressstoreu_epi32(
                    members.as_mut_ptr().add(hits).cast(),
                    hit,
                    offsets,
                );
                hits += hit.count_ones() as usize;
                offsets = _mm512_add_epi32(offsets, step);
                i += 16;
            }
            for (i, &l) in labels.iter().enumerate().skip(i) {
                if l == c as i32 {
                    members[hits] = i as u32;
                    hits += 1;
                }
            }
        }
        at[k] = hits as u32;
        hits
    }

    /// Transposes eight `d`-wide rows of `flat`, starting at the offsets
    /// `starts`, into j-major order: `scratch[j*8 + l] = flat[starts[l] +
    /// j]`. Each 8-dim chunk goes through an in-register 8×8 transpose
    /// (unpack / shuffle / permute2f128). So does the `d % 8` tail when
    /// every row's 8-wide read stays inside `flat`: the read runs into the
    /// next row, whose values land in scratch lanes `j ≥ d` that no kernel
    /// reads. Otherwise (a group holding the matrix's last row) the tail
    /// is copied scalar.
    ///
    /// Safety: caller detected AVX; `starts[l] + d <= flat.len()` for
    /// every lane; `scratch` holds `8 · d.next_multiple_of(8)` values.
    #[inline]
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn transpose8(
        flat: &[f32],
        starts: [usize; LANES],
        d: usize,
        scratch: &mut [f32],
    ) {
        let padded = d.next_multiple_of(LANES);
        debug_assert!(scratch.len() >= LANES * padded);
        debug_assert!(starts.iter().all(|&s| s + d <= flat.len()));
        let blocks = if starts.iter().all(|&s| s + padded <= flat.len()) {
            padded
        } else {
            d - d % LANES
        };
        let base = flat.as_ptr();
        let mut j = 0;
        while j < blocks {
            let r = |l: usize| _mm256_loadu_ps(base.add(starts[l] + j));
            let (r0, r1, r2, r3) = (r(0), r(1), r(2), r(3));
            let (r4, r5, r6, r7) = (r(4), r(5), r(6), r(7));
            let t0 = _mm256_unpacklo_ps(r0, r1);
            let t1 = _mm256_unpackhi_ps(r0, r1);
            let t2 = _mm256_unpacklo_ps(r2, r3);
            let t3 = _mm256_unpackhi_ps(r2, r3);
            let t4 = _mm256_unpacklo_ps(r4, r5);
            let t5 = _mm256_unpackhi_ps(r4, r5);
            let t6 = _mm256_unpacklo_ps(r6, r7);
            let t7 = _mm256_unpackhi_ps(r6, r7);
            let s0 = _mm256_shuffle_ps(t0, t2, 0b01_00_01_00);
            let s1 = _mm256_shuffle_ps(t0, t2, 0b11_10_11_10);
            let s2 = _mm256_shuffle_ps(t1, t3, 0b01_00_01_00);
            let s3 = _mm256_shuffle_ps(t1, t3, 0b11_10_11_10);
            let s4 = _mm256_shuffle_ps(t4, t6, 0b01_00_01_00);
            let s5 = _mm256_shuffle_ps(t4, t6, 0b11_10_11_10);
            let s6 = _mm256_shuffle_ps(t5, t7, 0b01_00_01_00);
            let s7 = _mm256_shuffle_ps(t5, t7, 0b11_10_11_10);
            let outp = scratch.as_mut_ptr().add(j * LANES);
            _mm256_storeu_ps(outp, _mm256_permute2f128_ps(s0, s4, 0x20));
            _mm256_storeu_ps(outp.add(8), _mm256_permute2f128_ps(s1, s5, 0x20));
            _mm256_storeu_ps(outp.add(16), _mm256_permute2f128_ps(s2, s6, 0x20));
            _mm256_storeu_ps(outp.add(24), _mm256_permute2f128_ps(s3, s7, 0x20));
            _mm256_storeu_ps(outp.add(32), _mm256_permute2f128_ps(s0, s4, 0x31));
            _mm256_storeu_ps(outp.add(40), _mm256_permute2f128_ps(s1, s5, 0x31));
            _mm256_storeu_ps(outp.add(48), _mm256_permute2f128_ps(s2, s6, 0x31));
            _mm256_storeu_ps(outp.add(56), _mm256_permute2f128_ps(s3, s7, 0x31));
            j += 8;
        }
        while j < d {
            for (l, &start) in starts.iter().enumerate() {
                *scratch.get_unchecked_mut(j * LANES + l) = *base.add(start + j);
            }
            j += 1;
        }
    }

    /// Eight euclidean distances from a j-major lane scratch to one
    /// medoid row. Per lane, operation for operation the scalar kernel:
    /// f32 subtract, widen, separate multiply and add in f64, IEEE sqrt.
    ///
    /// Safety: caller detected AVX; `scratch` holds `8*d` lanes.
    #[inline]
    #[target_feature(enable = "avx")]
    unsafe fn accumulate8(scratch: &[f32], d: usize, m: &[f32]) -> [f32; LANES] {
        debug_assert!(scratch.len() >= LANES * d && m.len() >= d);
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        for j in 0..d {
            let mj = _mm256_set1_ps(*m.get_unchecked(j));
            let v = _mm256_loadu_ps(scratch.as_ptr().add(j * LANES));
            let diff = _mm256_sub_ps(v, mj);
            let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(diff));
            let hi = _mm256_cvtps_pd(_mm256_extractf128_ps(diff, 1));
            acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(lo, lo));
            acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(hi, hi));
        }
        let r_lo = _mm256_cvtpd_ps(_mm256_sqrt_pd(acc_lo));
        let r_hi = _mm256_cvtpd_ps(_mm256_sqrt_pd(acc_hi));
        let mut out = [0.0f32; LANES];
        _mm_storeu_ps(out.as_mut_ptr(), r_lo);
        _mm_storeu_ps(out.as_mut_ptr().add(4), r_hi);
        out
    }

    /// [`accumulate8`] with the eight lanes widened into one `zmm`
    /// register: the same f32 subtract and widen, the square and add fused
    /// into one `vfmadd` (bitwise the separate pair: the square of a
    /// widened f32 is exact in f64, see the module docs), IEEE sqrt and
    /// narrow per lane.
    ///
    /// # Safety
    ///
    /// The caller detected AVX-512F; `scratch` holds `8*d` lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn accumulate8_zmm(scratch: &[f32], d: usize, m: &[f32]) -> [f32; LANES] {
        debug_assert!(scratch.len() >= LANES * d && m.len() >= d);
        let mut acc = _mm512_setzero_pd();
        for j in 0..d {
            let mj = _mm256_set1_ps(*m.get_unchecked(j));
            let v = _mm256_loadu_ps(scratch.as_ptr().add(j * LANES));
            let diff = _mm512_cvtps_pd(_mm256_sub_ps(v, mj));
            acc = _mm512_fmadd_pd(diff, diff, acc);
        }
        let mut out = [0.0f32; LANES];
        _mm256_storeu_ps(out.as_mut_ptr(), _mm512_cvtpd_ps(_mm512_sqrt_pd(acc)));
        out
    }

    /// Offsets of the eight consecutive rows `i..i + 8` of a `d`-wide strip.
    fn group(i: usize, d: usize) -> [usize; LANES] {
        std::array::from_fn(|l| (i + l) * d)
    }

    /// Intrinsics [`super::dist_rows_strip`] (and, with one row,
    /// [`super::euclidean_strip`]) on the AVX or, when `wide`, the
    /// AVX-512F tier: one copy of [`strip`] compiled per tier, so the
    /// transpose and the accumulate inline into its loop.
    ///
    /// # Safety
    ///
    /// The caller detected AVX, and AVX-512F if `wide`.
    pub(super) unsafe fn dist_rows_strip(
        points: &[f32],
        d: usize,
        m_rows: &[&[f32]],
        outs: &mut [&mut [f32]],
        wide: bool,
    ) {
        if wide {
            strip_avx512(points, d, m_rows, outs);
        } else {
            strip_avx(points, d, m_rows, outs);
        }
    }

    /// [`strip`] compiled for AVX.
    ///
    /// # Safety
    ///
    /// The caller detected AVX.
    #[target_feature(enable = "avx")]
    unsafe fn strip_avx(points: &[f32], d: usize, m_rows: &[&[f32]], outs: &mut [&mut [f32]]) {
        strip::<false>(points, d, m_rows, outs);
    }

    /// [`strip`] compiled for AVX-512F.
    ///
    /// # Safety
    ///
    /// The caller detected AVX-512F.
    #[target_feature(enable = "avx,avx2,avx512f")]
    unsafe fn strip_avx512(points: &[f32], d: usize, m_rows: &[&[f32]], outs: &mut [&mut [f32]]) {
        strip::<true>(points, d, m_rows, outs);
    }

    /// The strip loop: the transpose is hoisted out of the medoid loop, so
    /// each lane group's ~`32·d`-byte scratch (L1 resident) is built once
    /// and read back for every row of the batch. `WIDE` picks
    /// [`accumulate8_zmm`] over [`accumulate8`]; the `n % 8` tail is the
    /// scalar kernel.
    ///
    /// # Safety
    ///
    /// Runs inside [`strip_avx`] or, with `WIDE`, [`strip_avx512`].
    #[inline(always)]
    unsafe fn strip<const WIDE: bool>(
        points: &[f32],
        d: usize,
        m_rows: &[&[f32]],
        outs: &mut [&mut [f32]],
    ) {
        let n = outs.first().map(|o| o.len()).unwrap_or(0);
        let mut i = 0;
        LaneScratch::with(
            d,
            #[inline(always)]
            |lanes| {
                let scratch = &mut lanes.lanes[..block_len(d)];
                while i + LANES <= n {
                    transpose8(points, group(i, d), d, scratch);
                    for (m, out) in m_rows.iter().zip(outs.iter_mut()) {
                        let dist = if WIDE {
                            accumulate8_zmm(scratch, d, m)
                        } else {
                            accumulate8(scratch, d, m)
                        };
                        out[i..i + LANES].copy_from_slice(&dist);
                    }
                    i += LANES;
                }
            },
        );
        while i < n {
            for (m, out) in m_rows.iter().zip(outs.iter_mut()) {
                out[i] = euclidean(&points[i * d..(i + 1) * d], m);
            }
            i += 1;
        }
    }
}

/// The AssignPoints decision rule for one point: index of the medoid with
/// the smallest Manhattan segmental distance in its own subspace, ties to
/// the lower index. The single source of truth shared by the scalar tail
/// and [`LaneScratch::nearest_medoid`].
#[inline]
pub fn nearest_medoid(row: &[f32], medoid_rows: &[&[f32]], subspaces: &[Vec<usize>]) -> i32 {
    nearest_medoid_within(row, medoid_rows, subspaces, &[]).0
}

/// [`nearest_medoid`], and whether the point lies inside some medoid's
/// outlier sphere (segmental distance `≤ spheres[i]`), tested on the same
/// distances. With `spheres` empty, the point is inside none.
#[inline]
pub fn nearest_medoid_within(
    row: &[f32],
    medoid_rows: &[&[f32]],
    subspaces: &[Vec<usize>],
    spheres: &[f64],
) -> (i32, bool) {
    let mut best = f64::INFINITY;
    let mut best_i = 0i32;
    let mut inside = false;
    for (i, (m, dims)) in medoid_rows.iter().zip(subspaces).enumerate() {
        let dist = manhattan_segmental(row, m, dims);
        if dist < best {
            best = dist;
            best_i = i as i32;
        }
        inside |= spheres.get(i).is_some_and(|&r| dist <= r);
    }
    (best_i, inside)
}

/// Debug-only NaN sentinel for hot-path distance buffers. `dist < delta`
/// style comparisons are silently false on NaN, which would corrupt sphere
/// membership or assignment without any signal — this catches a NaN at the
/// boundary (e.g. an unfilled `RowStore` hole) before it reaches a
/// comparison. Compiles to nothing in release builds.
#[inline]
pub fn debug_assert_finite(values: &[f32], what: &str) {
    if cfg!(debug_assertions) {
        if let Some(i) = values.iter().position(|v| v.is_nan()) {
            panic!("{what}: NaN at index {i} of a hot-path distance buffer");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::manhattan_segmental;

    fn rowset(n: usize, d: usize, salt: u32) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| {
                        let h = (i as u32)
                            .wrapping_mul(2654435761)
                            .wrapping_add((j as u32).wrapping_mul(40503))
                            .wrapping_add(salt);
                        (h % 2000) as f32 * 0.25 - 250.0
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn euclidean8_is_bitwise_equal_to_scalar() {
        for d in [1usize, 3, 8, 17, 64] {
            let rows = rowset(8, d, 7);
            let m = rowset(1, d, 99).remove(0);
            let lanes: [&[f32]; LANES] = std::array::from_fn(|l| rows[l].as_slice());
            let got = euclidean8(lanes, &m);
            for l in 0..LANES {
                assert_eq!(
                    got[l].to_bits(),
                    euclidean(&rows[l], &m).to_bits(),
                    "lane {l}, d {d}"
                );
            }
        }
    }

    /// Lanes loaded from eight consecutive rows of a matrix.
    fn loaded(rows: &[Vec<f32>], d: usize) -> LaneScratch {
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        let mut lanes = LaneScratch::new(d);
        lanes.load_rows(&flat, 0);
        lanes
    }

    #[test]
    fn lane_segmental_is_bitwise_equal_to_scalar() {
        let d = 24;
        let rows = rowset(8, d, 1);
        let m = rowset(1, d, 2).remove(0);
        let lanes = loaded(&rows, d);
        for dims in [vec![0], vec![3, 7, 11], (0..d).collect::<Vec<_>>()] {
            let got = dispatch(|| lanes.segmental(&m, &dims));
            for l in 0..LANES {
                assert_eq!(
                    got[l].to_bits(),
                    manhattan_segmental(&rows[l], &m, &dims).to_bits(),
                    "lane {l}, dims {dims:?}"
                );
            }
        }
    }

    #[test]
    fn strip_handles_every_remainder() {
        let d = 5;
        let m = rowset(1, d, 3).remove(0);
        for n in 0..=20usize {
            let rows = rowset(n, d, 4);
            let flat: Vec<f32> = rows.iter().flatten().copied().collect();
            let mut out = vec![0.0f32; n];
            euclidean_strip(&flat, d, &m, &mut out);
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(
                    out[i].to_bits(),
                    euclidean(row, &m).to_bits(),
                    "n {n} i {i}"
                );
            }
        }
    }

    /// On AVX hardware this pins the intrinsics path against the portable
    /// reference bit for bit (including the transpose tail and non-8
    /// remainders); elsewhere both sides run the portable code and the
    /// test degenerates to a self-check.
    #[test]
    fn dispatched_strip_is_bitwise_equal_to_portable() {
        for (n, d) in [(40, 1), (37, 5), (64, 8), (50, 13), (24, 40)] {
            let rows = rowset(n, d, 21);
            let flat: Vec<f32> = rows.iter().flatten().copied().collect();
            let m = rowset(1, d, 22).remove(0);
            let mut fast = vec![0.0f32; n];
            let mut reference = vec![0.0f32; n];
            euclidean_strip(&flat, d, &m, &mut fast);
            euclidean_strip_portable(&flat, d, &m, &mut reference);
            for i in 0..n {
                assert_eq!(
                    fast[i].to_bits(),
                    reference[i].to_bits(),
                    "n {n} d {d} i {i}"
                );
            }
        }
    }

    /// NaNs must propagate identically through both paths — the AVX
    /// kernel's packed ops are IEEE, so a poisoned coordinate yields the
    /// same NaN rows as the scalar kernel, never a masked value.
    #[test]
    fn dispatched_strip_propagates_non_finite_like_scalar() {
        let (n, d) = (19, 6);
        let rows = rowset(n, d, 31);
        let mut flat: Vec<f32> = rows.iter().flatten().copied().collect();
        flat[3 * d + 2] = f32::NAN;
        flat[10 * d] = f32::INFINITY;
        let m = rowset(1, d, 32).remove(0);
        let mut fast = vec![0.0f32; n];
        euclidean_strip(&flat, d, &m, &mut fast);
        for i in 0..n {
            let want = euclidean(&flat[i * d..(i + 1) * d], &m);
            assert_eq!(fast[i].to_bits(), want.to_bits(), "i {i}");
        }
    }

    #[test]
    fn blocked_rows_match_per_row_strips() {
        let (n, d) = (300, 7);
        let flat: Vec<f32> = rowset(n, d, 5).into_iter().flatten().collect();
        let medoids = rowset(3, d, 6);
        let m_rows: Vec<&[f32]> = medoids.iter().map(|m| m.as_slice()).collect();
        let mut blocked = vec![vec![0.0f32; n]; 3];
        {
            let mut outs: Vec<&mut [f32]> = blocked.iter_mut().map(|r| r.as_mut_slice()).collect();
            dist_rows_strip(&flat, d, &m_rows, &mut outs);
        }
        for (r, m) in m_rows.iter().enumerate() {
            let mut single = vec![0.0f32; n];
            euclidean_strip(&flat, d, m, &mut single);
            assert_eq!(blocked[r], single, "row {r}");
        }
    }

    #[test]
    fn lane_nearest_medoid_matches_scalar_rule_with_ties() {
        let d = 4;
        let rows = rowset(8, d, 8);
        // Two identical medoids force ties; rule must pick the lower index.
        let m0 = rowset(1, d, 9).remove(0);
        let medoids = [m0.clone(), m0.clone(), rowset(1, d, 10).remove(0)];
        let m_rows: Vec<&[f32]> = medoids.iter().map(|m| m.as_slice()).collect();
        let subs = vec![vec![0, 2], vec![0, 2], vec![1, 3]];
        let lanes = loaded(&rows, d);
        let got = dispatch(|| lanes.nearest_medoid(&m_rows, &subs));
        for l in 0..LANES {
            assert_eq!(got[l], nearest_medoid(&rows[l], &m_rows, &subs), "lane {l}");
        }
    }

    /// The transpose moves every coordinate to its lane, for d with a
    /// `d % 8` tail: groups inside the matrix take the tail as one more
    /// register block, the group holding the last row copies it scalar.
    /// Gathered groups that include the last row too.
    #[test]
    fn transpose_tail_moves_every_coordinate_including_the_last_group() {
        for d in [9usize, 15, 23] {
            let n = 21;
            let rows = rowset(n, d, 40 + d as u32);
            let flat: Vec<f32> = rows.iter().flatten().copied().collect();
            let mut lanes = LaneScratch::new(d);
            let mut picks: Vec<[usize; LANES]> = (0..=n - LANES)
                .map(|first| std::array::from_fn(|l| first + l))
                .collect();
            picks.push([20, 3, 19, 0, 7, 20, 11, 5]);
            picks.push([1, 2, 3, 4, 5, 6, 7, 9]);
            for points in picks {
                lanes.gather_rows(&flat, &points);
                for (l, &p) in points.iter().enumerate() {
                    for (j, want) in rows[p].iter().enumerate() {
                        let got = lanes.lanes[j * LANES + l];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "d {d} {points:?} lane {l} j {j}"
                        );
                    }
                }
                if points[LANES - 1] == points[0] + LANES - 1 {
                    let mut loaded = LaneScratch::new(d);
                    loaded.load_rows(&flat, points[0]);
                    assert_eq!(
                        loaded.lanes[..LANES * d],
                        lanes.lanes[..LANES * d],
                        "d {d} {points:?}"
                    );
                }
            }
            // Strips end at the matrix's last row, so each strip's last
            // group takes the scalar tail and the others the register one.
            let m = rowset(1, d, 41).remove(0);
            for len in [8usize, 16, 17, 21] {
                let strip = &flat[(n - len) * d..];
                let mut out = vec![0.0f32; len];
                euclidean_strip(strip, d, &m, &mut out);
                for (i, row) in rows[n - len..].iter().enumerate() {
                    assert_eq!(
                        out[i].to_bits(),
                        euclidean(row, &m).to_bits(),
                        "d {d} len {len} i {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_euclidean_and_centroid_terms_match_scalar_chains() {
        for d in [1usize, 9, 15, 23] {
            let rows = rowset(12, d, 50);
            let flat: Vec<f32> = rows.iter().flatten().copied().collect();
            let m = rowset(1, d, 51).remove(0);
            let mu: Vec<f64> = m.iter().map(|&v| v as f64 * 1.37 + 0.11).collect();
            let dims: Vec<usize> = (0..d).filter(|j| j % 3 != 1).collect();
            let points = [11, 0, 4, 4, 9, 2, 10, 6];
            let mut lanes = LaneScratch::new(d);
            lanes.gather_rows(&flat, &points);
            let dist = dispatch(|| lanes.euclidean(&m));
            let terms = dispatch(|| lanes.centroid_terms(&mu, &dims));
            for (l, &p) in points.iter().enumerate() {
                assert_eq!(
                    dist[l].to_bits(),
                    euclidean(&rows[p], &m).to_bits(),
                    "d {d} lane {l}"
                );
                let mut s = 0.0f64;
                for &j in &dims {
                    s += (rows[p][j] as f64 - mu[j]).abs();
                }
                let want = s / dims.len() as f64;
                assert_eq!(terms[l].to_bits(), want.to_bits(), "d {d} lane {l}");
            }
        }
    }

    /// Listed distances equal the scalar kernel for contiguous, scattered
    /// and mixed lists, with every `% 8` tail and the empty list: over the
    /// whole list and from each lane group to the end, with one
    /// [`LaneBlocks`] regathered for every list.
    #[test]
    fn listed_distances_match_scalar_for_every_list_shape() {
        let (n, d) = (64, 15);
        let rows = rowset(n, d, 60);
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        let m = rowset(1, d, 61).remove(0);
        let mut lists: Vec<Vec<usize>> = vec![Vec::new()];
        for len in [1usize, 7, 8, 9, 16, 23, 40] {
            lists.push((n - len..n).collect());
            lists.push((0..len).map(|i| (i * 37 + 5) % n).collect());
            lists.push(
                (0..len)
                    .map(|i| if i % 11 < 9 { 20 + i } else { (i * 13) % n })
                    .collect(),
            );
        }
        let mut blocks = LaneBlocks::default();
        for points in lists {
            blocks.gather(&flat, d, &points);
            for first in (0..=points.len()).step_by(LANES) {
                let mut seen = Vec::new();
                let len = points.len() - first;
                dispatch(
                    #[inline(always)]
                    || blocks.for_each_euclidean(&m, first, len, |i, v| seen.push((i, v))),
                );
                assert_eq!(seen.len(), len, "{points:?} from {first}");
                for (j, (i, v)) in seen.into_iter().enumerate() {
                    let p = points[first + j];
                    assert_eq!(i, j, "{points:?} from {first}");
                    assert_eq!(
                        v.to_bits(),
                        euclidean(&rows[p], &m).to_bits(),
                        "{points:?} from {first} i {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn tile_points_is_a_lane_multiple_and_fits_the_budget() {
        for d in [1usize, 8, 32, 128, 100_000] {
            let t = tile_points(d);
            assert_eq!(t % LANES, 0);
            assert!(t >= LANES);
            if t > LANES {
                assert!(t * d * 4 <= TILE_BYTES, "d {d}: tile {t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN at index 2")]
    fn debug_sentinel_catches_nan() {
        if !cfg!(debug_assertions) {
            // Release builds compile the check out; satisfy should_panic.
            panic!("NaN at index 2");
        }
        debug_assert_finite(&[0.0, 1.0, f32::NAN], "test row");
    }

    /// Every lane kernel equals its scalar reference bit for bit under
    /// every tier the host runs (portable, AVX, AVX-512F): each tier
    /// compiles the kernels separately, so each is pinned on its own.
    mod every_tier {
        use super::*;
        use crate::rng::{for_cases, ProclusRng};

        /// Mostly ordinary coordinates with NaN, ±∞ and extreme
        /// magnitudes mixed in.
        fn coord(rng: &mut ProclusRng) -> f32 {
            let r = rng.next_u64() as u32;
            match r % 16 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => 3.4e38,
                _ => (r >> 8) as f32 / 1_000.0 - 8_000.0,
            }
        }

        /// A matrix of `n` rows: ordinary values, or adversarial ones.
        fn matrix(rng: &mut ProclusRng, n: usize, d: usize, adversarial: bool) -> Vec<f32> {
            (0..n * d)
                .map(|_| {
                    if adversarial {
                        coord(rng)
                    } else {
                        rng.uniform(-100.0, 100.0)
                    }
                })
                .collect()
        }

        /// Equal bits, or NaN on both sides (NaN payloads are out of
        /// contract, see the module docs).
        fn same32(a: f32, b: f32) -> bool {
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
        }

        fn same64(a: f64, b: f64) -> bool {
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
        }

        /// The dimensions a tier test draws: `d % 8` tails of every
        /// length, and five 8-dimension blocks (two pairs and a single).
        const DIMS: [usize; 8] = [1, 5, 8, 9, 15, 16, 23, 40];

        fn each_tier(mut f: impl FnMut(Tier)) {
            for t in host_tiers() {
                with_tier(t, || f(t));
            }
        }

        /// Single and batched strips against the scalar kernel, for strips
        /// that end at the matrix's last row (whose lane group takes the
        /// scalar transpose tail) and strips that stop short of it.
        #[test]
        fn euclidean_strip_and_batched_rows() {
            each_tier(|t| {
                for_cases(24, |rng| {
                    let d = DIMS[rng.below(DIMS.len())];
                    let n = rng.range(1..70);
                    let adversarial = rng.below(2) == 1;
                    let flat = matrix(rng, n + 3, d, adversarial);
                    let (points, medoids) = flat.split_at(n * d);
                    let m_rows: Vec<&[f32]> = medoids.chunks(d).collect();
                    let len = rng.range(0..n + 1);
                    let from = if rng.below(2) == 1 { n - len } else { 0 };
                    let strip = &points[from * d..(from + len) * d];
                    let mut rows = vec![vec![0.0f32; len]; m_rows.len()];
                    let mut outs: Vec<&mut [f32]> =
                        rows.iter_mut().map(Vec::as_mut_slice).collect();
                    dist_rows_strip(strip, d, &m_rows, &mut outs);
                    let mut single = vec![0.0f32; len];
                    euclidean_strip(strip, d, m_rows[1], &mut single);
                    for i in 0..len {
                        let row = &strip[i * d..(i + 1) * d];
                        for (r, m) in m_rows.iter().enumerate() {
                            let want = euclidean(row, m);
                            assert!(same32(rows[r][i], want), "{t:?} d {d} row {r} point {i}");
                        }
                        assert!(
                            same32(single[i], euclidean(row, m_rows[1])),
                            "{t:?} d {d} {i}"
                        );
                    }
                });
            });
        }

        /// Lane segmental, nearest-medoid, centroid terms and the outlier
        /// test, for transposed groups (the last one holding the matrix's
        /// last row) and gathered groups, against the scalar rules.
        #[test]
        fn lane_kernels_and_the_outlier_test() {
            each_tier(|t| {
                for_cases(24, |rng| {
                    let d = DIMS[rng.below(DIMS.len())];
                    let (n, k) = (rng.range(8..30), rng.range(1..6));
                    let adversarial = rng.below(2) == 1;
                    let flat = matrix(rng, n, d, adversarial);
                    let row = |p: usize| &flat[p * d..(p + 1) * d];
                    let medoids: Vec<usize> = (0..k).map(|_| rng.below(n)).collect();
                    let m_rows: Vec<&[f32]> = medoids.iter().map(|&m| row(m)).collect();
                    let subspaces: Vec<Vec<usize>> = (0..k)
                        .map(|_| {
                            let dims: Vec<usize> = (0..d).filter(|_| rng.below(3) > 0).collect();
                            if dims.is_empty() {
                                vec![d - 1]
                            } else {
                                dims
                            }
                        })
                        .collect();
                    // Spheres through medoid–point distances, so some
                    // points sit exactly on a sphere's edge.
                    let spheres: Vec<f64> = (0..k)
                        .map(|i| manhattan_segmental(row(rng.below(n)), m_rows[i], &subspaces[i]))
                        .collect();
                    let mu: Vec<f64> = (0..d).map(|j| row(medoids[0])[j] as f64 * 0.5).collect();
                    let first = if rng.below(2) == 1 {
                        n - LANES
                    } else {
                        rng.below(n - LANES + 1)
                    };
                    let picks: [usize; LANES] = std::array::from_fn(|_| rng.below(n));
                    let mut lanes = LaneScratch::new(d);
                    for (build, points) in [
                        ("transposed", std::array::from_fn(|l| first + l)),
                        ("gathered", picks),
                    ] {
                        if build == "transposed" {
                            lanes.load_rows(&flat, first);
                        } else {
                            lanes.gather_rows(&flat, &points);
                        }
                        let seg = dispatch(|| lanes.segmental(m_rows[0], &subspaces[0]));
                        let terms = dispatch(|| lanes.centroid_terms(&mu, &subspaces[0]));
                        let dist = dispatch(|| lanes.euclidean(m_rows[0]));
                        let near = dispatch(|| lanes.nearest_medoid(&m_rows, &subspaces));
                        let (within, inside) =
                            dispatch(|| lanes.nearest_within(&m_rows, &subspaces, &spheres));
                        for (l, &p) in points.iter().enumerate() {
                            let what = format!("{t:?} {build} d {d} lane {l}");
                            let want = manhattan_segmental(row(p), m_rows[0], &subspaces[0]);
                            assert!(same64(seg[l], want), "{what}: segmental");
                            let mut s = 0.0f64;
                            for &j in &subspaces[0] {
                                s += (row(p)[j] as f64 - mu[j]).abs();
                            }
                            let want = s / subspaces[0].len() as f64;
                            assert!(same64(terms[l], want), "{what}: centroid term");
                            assert!(same32(dist[l], euclidean(row(p), m_rows[0])), "{what}");
                            let (label, ins) =
                                nearest_medoid_within(row(p), &m_rows, &subspaces, &spheres);
                            assert_eq!(near[l], label, "{what}: label");
                            assert_eq!(within[l], label, "{what}: label with spheres");
                            let scan = (0..k).any(|i| {
                                manhattan_segmental(row(p), m_rows[i], &subspaces[i]) <= spheres[i]
                            });
                            assert_eq!((inside[l], ins), (scan, scan), "{what}: outlier test");
                        }
                    }
                });
            });
        }

        /// The member scan lists exactly the offsets with `lo < dist ≤ hi`,
        /// ascending: NaN distances and `lo` are out, `hi` is in, for
        /// blocks of every length up to a full block.
        #[test]
        fn member_scan() {
            each_tier(|t| {
                for_cases(48, |rng| {
                    let len = rng.range(0..SHELL_BLOCK + 1);
                    let (lo, hi) = (rng.uniform(-1.0, 10.0), rng.uniform(0.0, 20.0));
                    let block: Vec<f32> = (0..len)
                        .map(|_| match rng.below(10) {
                            0 => f32::NAN,
                            1 => lo,
                            2 => hi,
                            _ => rng.uniform(-2.0, 22.0),
                        })
                        .collect();
                    let mut out = [u32::MAX; SHELL_BLOCK];
                    let hits = dispatch(
                        #[inline(always)]
                        || shell_members(&block, lo, hi, &mut out, tier() == Tier::Avx512),
                    );
                    let want: Vec<u32> = (0..len as u32)
                        .filter(|&i| block[i as usize] > lo && block[i as usize] <= hi)
                        .collect();
                    assert_eq!(&out[..hits], &want[..], "{t:?} len {len}");
                });
            });
        }

        /// The one-pass shell fold equals one `fold_abs_diff` per member on
        /// top of non-zero sums, for several rows at once: members up to
        /// the matrix's last row, NaN and edge-equal distances, empty
        /// shells, sweeps that start mid-matrix and span several blocks.
        #[test]
        fn one_pass_shell_fold() {
            each_tier(|t| {
                for_cases(16, |rng| {
                    let d = DIMS[rng.below(DIMS.len())];
                    let (n, k) = (rng.range(1..700), rng.range(1..5));
                    let adversarial = rng.below(2) == 1;
                    let flat = matrix(rng, n + k, d, adversarial);
                    let (points, medoids) = flat.split_at(n * d);
                    let first = rng.below(n);
                    let mut bounds = Vec::new();
                    let mut dists = Vec::new();
                    for _ in 0..k {
                        let (lo, hi) = match rng.below(3) {
                            0 => (-1.0, rng.uniform(0.0, 50.0)),
                            1 => (5.0, 5.0),
                            _ => (rng.uniform(0.0, 25.0), rng.uniform(25.0, 50.0)),
                        };
                        let dist: Vec<f32> = (first..n)
                            .map(|p| match rng.below(12) {
                                0 => f32::NAN,
                                1 => lo,
                                2 => hi,
                                _ if p == n - 1 => hi,
                                _ => rng.uniform(0.0, 50.0),
                            })
                            .collect();
                        bounds.push((lo, hi));
                        dists.push(dist);
                    }
                    let shells: Vec<ShellRow<'_>> = (0..k)
                        .map(|r| ShellRow {
                            dist: &dists[r],
                            m: &medoids[r * d..(r + 1) * d],
                            lo: bounds[r].0,
                            hi: bounds[r].1,
                        })
                        .collect();
                    let start: Vec<f64> = (0..k * d).map(|i| i as f64 * 0.37 - 3.0).collect();
                    let mut got = start.clone();
                    let mut cnt = vec![0usize; k];
                    fold_shells(points, d, first, &shells, &mut got, &mut cnt);
                    for r in 0..k {
                        let mut want = start[r * d..(r + 1) * d].to_vec();
                        let mut want_cnt = 0;
                        for (i, &v) in dists[r].iter().enumerate() {
                            if v > bounds[r].0 && v <= bounds[r].1 {
                                let p = first + i;
                                fold_abs_diff(&mut want, &points[p * d..(p + 1) * d], shells[r].m);
                                want_cnt += 1;
                            }
                        }
                        assert_eq!(cnt[r], want_cnt, "{t:?} d {d} row {r}");
                        for j in 0..d {
                            assert!(
                                same64(got[r * d + j], want[j]),
                                "{t:?} d {d} row {r} j {j}: {} vs {}",
                                got[r * d + j],
                                want[j]
                            );
                        }
                    }
                });
            });
        }

        /// The grain lists equal a point-at-a-time scan (labels `≥ k` and
        /// negative ones in no list, every `len % 16` tail), and the list
        /// fold equals per-member adds onto non-zero sums: coordinate sums
        /// and `|p − m|`, members up to the matrix's last row, NaN and ±∞
        /// coordinates.
        #[test]
        fn cluster_lists_and_folds() {
            each_tier(|t| {
                for_cases(24, |rng| {
                    let d = DIMS[rng.below(DIMS.len())];
                    let (len, k) = (rng.range(0..600), rng.range(1..7));
                    let first = rng.below(40);
                    let adversarial = rng.below(2) == 1;
                    let flat = matrix(rng, first + len + k, d, adversarial);
                    let m_rows: Vec<&[f32]> = flat[(first + len) * d..].chunks(d).collect();
                    let labels: Vec<i32> =
                        (0..len).map(|_| rng.range(0..k + 3) as i32 - 1).collect();
                    let mut at = vec![u32::MAX; k + 1];
                    let mut members = vec![u32::MAX; len];
                    let hits = list_clusters(&labels, &mut at, &mut members);
                    assert_eq!(hits, at[k] as usize, "{t:?}");
                    for c in 0..k {
                        let want: Vec<u32> = (0..len as u32)
                            .filter(|&i| labels[i as usize] == c as i32)
                            .collect();
                        let got = &members[at[c] as usize..at[c + 1] as usize];
                        assert_eq!(got, &want[..], "{t:?} len {len} cluster {c}");
                    }
                    // Lists that end at the matrix's last row.
                    let tail = &flat[..(first + len) * d];
                    let start: Vec<f64> = (0..k * d).map(|i| i as f64 * 0.37 - 3.0).collect();
                    for medoids in [None, Some(&m_rows[..k])] {
                        let mut got = start.clone();
                        fold_lists(&mut got, tail, d, first, &at, &members[..hits], medoids);
                        for c in 0..k {
                            let mut want = start[c * d..(c + 1) * d].to_vec();
                            for &o in &members[at[c] as usize..at[c + 1] as usize] {
                                let p = first + o as usize;
                                let row = &tail[p * d..(p + 1) * d];
                                match medoids {
                                    Some(m) => fold_abs_diff(&mut want, row, m[c]),
                                    None => {
                                        for (w, &v) in want.iter_mut().zip(row) {
                                            *w += v as f64;
                                        }
                                    }
                                }
                            }
                            for j in 0..d {
                                let g = got[c * d + j];
                                assert!(
                                    same64(g, want[j]),
                                    "{t:?} d {d} cluster {c} j {j} abs {}: {g} vs {}",
                                    medoids.is_some(),
                                    want[j]
                                );
                            }
                        }
                    }
                });
            });
        }

        /// The forcing entry pins `tier()` on this thread only while its
        /// closure runs.
        #[test]
        fn forcing_a_tier_is_scoped() {
            let detected = tier();
            for t in host_tiers() {
                assert_eq!(with_tier(t, tier), t);
            }
            assert_eq!(tier(), detected);
            assert_eq!(host_tiers()[0], Tier::Portable);
        }
    }
}

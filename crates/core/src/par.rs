//! Fork–join parallelism substrate for the multi-core CPU variants.
//!
//! The paper parallelizes PROCLUS's hot loops on the CPU with OpenMP
//! (`#pragma omp parallel for` with per-thread partials followed by a
//! reduction). This module provides the same structure on top of a
//! **persistent work-stealing thread pool**: [`Executor`] carries the degree
//! of parallelism, and the three primitives decompose an index range (or an
//! output slice) into *grains* — fixed sub-ranges whose boundaries are a
//! pure function of `len` alone — executed by a lazily-initialized global
//! pool whose workers park between phases (no OS-thread spawn on the hot
//! path) and steal grains from each other's Chase–Lev-style deques when
//! their own run dry.
//!
//! # Determinism
//!
//! Floating-point reduction is not split-invariant, so bitwise-identical
//! results across executors require every mode to use the *same*
//! decomposition. [`grains_for`] depends only on `len` — never on the
//! executor variant or thread count — and `map_chunks` returns one partial
//! per grain **in grain order** for the caller to reduce. Which OS thread
//! executes a grain is scheduling-dependent, but each grain writes its own
//! slot (or a disjoint slice region), so the reduced result is identical
//! whether grains ran inline ([`Executor::Sequential`]) or on the
//! work-stealing pool ([`Executor::Parallel`]). Below `SEQ_CROSSOVER` the
//! whole range is a single grain, which both skips fork overhead for short
//! phases and preserves the exact accumulation order of a plain sequential
//! loop. See DESIGN.md §15 for the full argument.
//!
//! # Pool lifecycle
//!
//! One global pool serves the whole process. Phases are serialized by a
//! submission lock, so concurrent callers (e.g. serve jobs) interleave at
//! phase granularity on the same workers instead of oversubscribing cores.
//! Submissions from inside a grain body run inline over the same grains
//! (same bits, no deadlock). Pool activity is observable through
//! [`pool_stats`] and exported as telemetry counters by the run driver.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::error::ProclusError;

/// Ranges shorter than this run as a single grain: fork overhead would
/// dwarf the loop body, and a single grain keeps the exact accumulation
/// order of a plain sequential loop.
const SEQ_CROSSOVER: usize = 2048;
/// Minimum grain size: large enough that a grain amortizes the 8-lane SIMD
/// strip kernels in `distance_simd` (dozens of full lane groups per grain).
const MIN_GRAIN: usize = 512;
/// Upper bound on grains per phase; caps scheduling overhead on huge `len`.
const MAX_GRAINS: usize = 256;
/// Grain sizes are rounded up to a multiple of this so interior grain
/// boundaries never split an 8-lane SIMD group. Must equal
/// `distance_simd::LANES` (asserted in tests).
const GRAIN_ALIGN: usize = 8;

/// Decomposes `0..len` into fixed grains, returning `(grain_size,
/// grain_count)`. Pure function of `len` only — **not** of the executor
/// mode or thread count — which is what makes per-grain reductions
/// deterministic across all executors and thread counts. Public so the
/// par gate test (`crates/bench/tests/gates.rs`) can model the exact
/// decomposition the pool runs.
pub fn grains_for(len: usize) -> (usize, usize) {
    if len <= SEQ_CROSSOVER {
        return (len.max(1), 1);
    }
    let target = (len / MIN_GRAIN).clamp(1, MAX_GRAINS);
    let grain = len.div_ceil(target).div_ceil(GRAIN_ALIGN) * GRAIN_ALIGN;
    (grain, len.div_ceil(grain))
}

/// Where loop bodies execute: inline, or across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// Run loop bodies inline on the calling thread.
    Sequential,
    /// Run grains on the persistent work-stealing pool, with up to this
    /// many participants per phase (clamped to ≥ 1 and to the core count).
    Parallel {
        /// Number of worker threads.
        threads: usize,
    },
}

fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Executor {
    /// An executor using all available cores, honoring a valid
    /// `PROCLUS_THREADS` override (invalid or absent values fall back to
    /// the detected core count; use [`Executor::try_all_cores`] to surface
    /// the error instead).
    pub fn all_cores() -> Self {
        Self::try_all_cores().unwrap_or(Executor::Parallel {
            threads: detected_cores(),
        })
    }

    /// Like [`Executor::all_cores`], but returns a typed error when the
    /// `PROCLUS_THREADS` environment variable is set to garbage (anything
    /// but a positive integer) instead of silently falling back.
    pub fn try_all_cores() -> Result<Self, ProclusError> {
        let threads = match std::env::var("PROCLUS_THREADS") {
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(t) if t >= 1 => t,
                _ => {
                    return Err(ProclusError::params(format!(
                        "PROCLUS_THREADS must be a positive integer, got {raw:?}"
                    )))
                }
            },
            Err(std::env::VarError::NotPresent) => detected_cores(),
            Err(std::env::VarError::NotUnicode(_)) => {
                return Err(ProclusError::params(
                    "PROCLUS_THREADS must be a positive integer, got non-UTF-8 bytes",
                ))
            }
        };
        Ok(Executor::Parallel { threads })
    }

    /// The worker count (1 for [`Executor::Sequential`]).
    pub fn threads(&self) -> usize {
        match *self {
            Executor::Sequential => 1,
            Executor::Parallel { threads } => threads.max(1),
        }
    }

    /// Runs `run(g)` for every grain `g` in `0..grains`: inline, or on the
    /// pool. Grain-to-thread placement varies; the set of grains (and
    /// everything derived from it) does not.
    fn execute(&self, grains: usize, run: &(dyn Fn(usize) + Sync)) {
        let threads = self.threads();
        if grains <= 1 || threads <= 1 || in_pool() {
            for g in 0..grains {
                run(g);
            }
            return;
        }
        pool_execute(threads, grains, run);
    }

    /// Splits `0..len` into grains, runs `body(range)` on each (in
    /// parallel), and returns the per-grain states **in grain order** for
    /// the caller to reduce.
    ///
    /// `make` builds each grain's private accumulator — the OpenMP
    /// "per-thread partial result" pattern the paper relies on to avoid
    /// atomic contention. Because the grain decomposition is a pure
    /// function of `len`, the returned partials (and any in-order
    /// reduction of them) are bitwise-identical across executor modes and
    /// thread counts.
    pub fn map_chunks<S, MF, BF>(&self, len: usize, make: MF, body: BF) -> Vec<S>
    where
        S: Send,
        MF: Fn() -> S + Sync,
        BF: Fn(&mut S, Range<usize>) + Sync,
    {
        self.map_strips::<(), _, _, _>(len, &mut [], make, |s, range, _| body(s, range))
    }

    /// Splits `out` into one contiguous sub-slice per grain and runs
    /// `body(global_offset, sub_slice)` on each in parallel. Used for
    /// loops whose only side effect is writing disjoint output elements
    /// (e.g. the label array in AssignPoints).
    pub fn for_each_slice<T, BF>(&self, out: &mut [T], body: BF)
    where
        T: Send,
        BF: Fn(usize, &mut [T]) + Sync,
    {
        let len = out.len();
        let (grain, grains) = grains_for(len);
        let base = SendPtr(out.as_mut_ptr());
        self.execute(grains, &|g| {
            let lo = g * grain;
            let hi = (lo + grain).min(len);
            // SAFETY: grains tile `0..len` disjointly, so each sub-slice
            // is exclusive to its grain; `out` outlives `execute`.
            let sub = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
            body(lo, sub);
        });
    }

    /// Splits *several* equal-length output slices at the same grain
    /// boundaries and runs `body(global_offset, strips)` on each grain,
    /// where `strips[r]` is slice `r`'s sub-range for that grain. This is
    /// the batched form of [`Executor::for_each_slice`]: the cache-blocked
    /// `Dist` computation writes one column strip of *every* fresh medoid
    /// row per grain, so each data tile is read once and reused across all
    /// rows instead of once per row.
    pub fn for_each_strips<T, BF>(&self, outs: &mut [&mut [T]], body: BF)
    where
        T: Send,
        BF: Fn(usize, &mut [&mut [T]]) + Sync,
    {
        let Some(len) = outs.first().map(|o| o.len()) else {
            return;
        };
        self.map_strips(
            len,
            outs,
            || (),
            |_, range, strips| body(range.start, strips),
        );
    }

    /// [`Executor::map_chunks`] and [`Executor::for_each_strips`] in one
    /// pass: splits `0..len` into grains, hands each grain its private
    /// state from `make`, its range, and the grain's sub-range of every
    /// slice in `outs` (each of length `len`; `outs` may be empty), and
    /// returns the states **in grain order**.
    pub fn map_strips<T, S, MF, BF>(
        &self,
        len: usize,
        outs: &mut [&mut [T]],
        make: MF,
        body: BF,
    ) -> Vec<S>
    where
        T: Send,
        S: Send,
        MF: Fn() -> S + Sync,
        BF: Fn(&mut S, Range<usize>, &mut [&mut [T]]) + Sync,
    {
        let mut states: Vec<Option<S>> = Vec::new();
        self.map_strips_into(len, outs, &mut states, |s, range, strips| {
            body(s.insert(make()), range, strips);
        });
        states
            .into_iter()
            .map(|s| s.expect("grain state"))
            .collect()
    }

    /// [`Executor::map_strips`] over caller-held states: `states` is
    /// resized to one per grain (new ones `S::default()`), and grain `g`'s
    /// body gets `states[g]` as the caller, or its last call, left it. A
    /// caller that keeps `states` between calls lets each grain reuse the
    /// buffers its state holds instead of allocating them again: ComputeL
    /// fills an iteration's fresh `Dist` rows and folds every shell while
    /// the grain is in cache, into partials it keeps from pass to pass,
    /// and AssignPoints labels and groups a grain in the buffers of an
    /// earlier grouping.
    pub fn map_strips_into<T, S, BF>(
        &self,
        len: usize,
        outs: &mut [&mut [T]],
        states: &mut Vec<S>,
        body: BF,
    ) where
        T: Send,
        S: Send + Default,
        BF: Fn(&mut S, Range<usize>, &mut [&mut [T]]) + Sync,
    {
        assert!(outs.iter().all(|o| o.len() == len), "ragged strips");
        let (grain, grains) = grains_for(len);
        states.resize_with(grains, S::default);
        let bases: Vec<SendPtr<T>> = outs.iter_mut().map(|o| SendPtr(o.as_mut_ptr())).collect();
        let slots = SendPtr(states.as_mut_ptr());
        self.execute(grains, &|g| {
            let lo = g * grain;
            let hi = (lo + grain).min(len);
            let mut strips: Vec<&mut [T]> = bases
                .iter()
                // SAFETY: grains tile `0..len` disjointly, so each strip
                // sub-range is exclusive to its grain; every slice in
                // `outs` outlives `execute`.
                .map(|p| unsafe { std::slice::from_raw_parts_mut(p.get().add(lo), hi - lo) })
                .collect();
            // SAFETY: each grain index `g < grains` touches only its own
            // slot, and `states` (resized to `grains` above) outlives
            // `execute`, which blocks until every grain completed.
            let state = unsafe { &mut *slots.get().add(g) };
            body(state, lo..hi, &mut strips);
        });
    }
}

/// Runs `f` on this thread's spare buffer from `spare`, at least `len`
/// values long, and keeps it for the thread's next call: grain bodies get
/// their scratch from one buffer per participant thread, grown to the
/// largest size the thread has seen, instead of allocating per grain. New
/// values are `T::default()`; older ones hold what the thread's last call
/// left, so a caller that needs zeros writes them. The buffer is taken out
/// of its cell for the call, not borrowed: a nested call on the same
/// thread (an inline submission from inside a grain) finds the cell empty
/// and uses a buffer of its own. Always inlined, so a kernel body passed
/// as an `#[inline(always)]` closure compiles for its caller's tier.
#[inline(always)]
pub(crate) fn with_spare<T: Clone + Default, R>(
    spare: &'static std::thread::LocalKey<Cell<Vec<T>>>,
    len: usize,
    f: impl FnOnce(&mut Vec<T>) -> R,
) -> R {
    let mut buf = spare.take();
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    let out = f(&mut buf);
    spare.set(buf);
    out
}

/// Raw-pointer wrapper so per-grain closures can write disjoint regions of
/// a caller-owned buffer from worker threads.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field reads) so closures capture the
    /// `Sync` wrapper itself, not the raw `*mut` field — edition-2021
    /// disjoint capture would otherwise grab the non-`Sync` pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        SendPtr(self.0)
    }
}

// SAFETY: every use writes disjoint regions (one slot or sub-slice per
// grain) and the submitter blocks until all grains complete, so the
// pointee outlives all accesses and no two threads alias a region.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — the wrapper is shared across workers but each grain
// touches a disjoint region.
unsafe impl<T: Send> Sync for SendPtr<T> {}

// ---------------------------------------------------------------------------
// Persistent work-stealing pool
// ---------------------------------------------------------------------------

/// Cumulative counters for the global pool (process lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Grains executed by pool phases (inline/sequential runs excluded).
    pub tasks_executed: u64,
    /// Grains successfully taken from another participant's deque.
    pub steals: u64,
    /// Steal attempts that lost a race or found the victim empty.
    pub steal_failures: u64,
    /// Times a pool worker parked waiting for a phase.
    pub parks: u64,
    /// Times a parked pool worker was woken by a new phase.
    pub unparks: u64,
}

static TASKS_EXECUTED: AtomicU64 = AtomicU64::new(0);
static STEALS: AtomicU64 = AtomicU64::new(0);
static STEAL_FAILURES: AtomicU64 = AtomicU64::new(0);
static PARKS: AtomicU64 = AtomicU64::new(0);
static UNPARKS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the global pool's cumulative counters. Counters are
/// process-wide: concurrent runs all contribute to the same totals, so
/// callers interested in a single run should record a before/after delta.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        tasks_executed: TASKS_EXECUTED.load(Ordering::Relaxed),
        steals: STEALS.load(Ordering::Relaxed),
        steal_failures: STEAL_FAILURES.load(Ordering::Relaxed),
        parks: PARKS.load(Ordering::Relaxed),
        unparks: UNPARKS.load(Ordering::Relaxed),
    }
}

/// Number of OS threads the global pool has spawned so far (0 until the
/// first parallel phase). Bounded by the detected core count regardless of
/// how many concurrent submitters request parallelism — the regression
/// guard for the serve layer's shared-pool contract.
pub fn pool_thread_count() -> usize {
    POOL.get().map_or(0, |p| lock_recover(&p.state).workers)
}

thread_local! {
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

fn in_pool() -> bool {
    IN_POOL.with(|f| f.get())
}

/// Poison-tolerant lock: a phase that panicked has already stored its
/// payload for `resume_unwind`, and every pool structure stays consistent
/// across unwinds, so later phases must not cascade-fail on poison.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct PoolState {
    /// Bumped on every submission so parked workers can tell a fresh phase
    /// from the one they already served.
    generation: u64,
    phase: Option<Arc<Phase>>,
    /// OS threads spawned so far (grows lazily up to `pool_cap() - 1`).
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Workers park here between phases.
    work_cv: Condvar,
    /// Serializes phases across submitting threads: concurrent callers
    /// (serve jobs, shards) interleave at phase granularity on the one
    /// pool instead of oversubscribing cores.
    submit_lock: Mutex<()>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            generation: 0,
            phase: None,
            workers: 0,
        }),
        work_cv: Condvar::new(),
        submit_lock: Mutex::new(()),
    })
}

/// Max participants per phase (submitter + pool workers). The `max(2)`
/// keeps two-participant phases possible on single-core machines so the
/// stealing paths stay exercised everywhere.
fn pool_cap() -> usize {
    detected_cores().max(2)
}

fn ensure_workers(pool: &'static Pool, want: usize) {
    let mut st = lock_recover(&pool.state);
    while st.workers < want {
        st.workers += 1;
        let name = format!("proclus-par-{}", st.workers);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || worker_loop(pool))
            .expect("spawn pool worker");
    }
}

fn worker_loop(pool: &'static Pool) {
    // Pool workers never submit nested phases of their own: anything a
    // grain body forks runs inline (same grains, same bits, no deadlock).
    IN_POOL.with(|f| f.set(true));
    let mut seen_gen = 0u64;
    loop {
        let phase = {
            let mut st = lock_recover(&pool.state);
            loop {
                if st.generation != seen_gen {
                    seen_gen = st.generation;
                    if let Some(ph) = st.phase.clone() {
                        break ph;
                    }
                }
                PARKS.fetch_add(1, Ordering::Relaxed);
                st = pool
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                UNPARKS.fetch_add(1, Ordering::Relaxed);
            }
        };
        phase.claim_and_run();
    }
}

fn pool_execute(threads: usize, grains: usize, run: &(dyn Fn(usize) + Sync)) {
    let w = threads.min(grains).min(pool_cap());
    if w <= 1 {
        for g in 0..grains {
            run(g);
        }
        return;
    }
    let pool = pool();
    ensure_workers(pool, w - 1);
    let submit = lock_recover(&pool.submit_lock);
    let phase = Arc::new(Phase::new(w, grains, run));
    {
        let mut st = lock_recover(&pool.state);
        st.generation = st.generation.wrapping_add(1);
        st.phase = Some(phase.clone());
    }
    pool.work_cv.notify_all();
    // The submitter is always participant 0, so a phase makes progress
    // even if every pool worker is slow to wake.
    IN_POOL.with(|f| f.set(true));
    phase.run(0);
    IN_POOL.with(|f| f.set(false));
    phase.wait_done();
    {
        let mut st = lock_recover(&pool.state);
        if st.phase.as_ref().is_some_and(|p| Arc::ptr_eq(p, &phase)) {
            st.phase = None;
        }
    }
    drop(submit);
    let payload = lock_recover(&phase.panic).take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

/// Lifetime-erased handle to the submitter's grain closure.
///
/// SAFETY invariant: the submitter blocks in [`pool_execute`] until every
/// grain has completed, and participants dereference the pointer only
/// while holding a claimed grain (claims are unique via the deque
/// protocol), so the closure outlives every dereference.
struct TaskRef(*const (dyn Fn(usize) + Sync));

// SAFETY: see the invariant on [`TaskRef`].
unsafe impl Send for TaskRef {}
// SAFETY: see the invariant on [`TaskRef`].
unsafe impl Sync for TaskRef {}

struct Phase {
    /// One deque per participant slot; slot 0 is the submitter.
    queues: Vec<Deque>,
    /// Next pool-worker slot to hand out (starts at 1; slot 0 reserved).
    tickets: AtomicUsize,
    /// Grains not yet completed; the last decrement signals `done`.
    remaining: AtomicUsize,
    task: TaskRef,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Phase {
    fn new(w: usize, grains: usize, run: &(dyn Fn(usize) + Sync)) -> Self {
        let per = grains.div_ceil(w);
        let queues = (0..w)
            .map(|q| Deque::new_desc((q * per).min(grains), ((q + 1) * per).min(grains)))
            .collect();
        Phase {
            queues,
            tickets: AtomicUsize::new(1),
            remaining: AtomicUsize::new(grains),
            // SAFETY: erases the closure's borrow lifetime to store it in
            // the phase; the [`TaskRef`] invariant (submitter outlives all
            // dereferences) keeps this sound.
            task: TaskRef(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync + '_),
                    *const (dyn Fn(usize) + Sync),
                >(std::ptr::from_ref(run))
            }),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }

    /// Pool-worker entry: claim a participant slot, or bail if the phase
    /// is already fully staffed (`Config.threads` caps parallelism even
    /// when the pool has more workers).
    fn claim_and_run(&self) {
        let slot = self.tickets.fetch_add(1, Ordering::SeqCst);
        if slot < self.queues.len() {
            self.run(slot);
        }
    }

    fn run(&self, slot: usize) {
        // Drain the own block in ascending grain order (cache locality).
        while let Some(g) = self.queues[slot].take() {
            self.exec_grain(g);
        }
        // Own block exhausted: steal. Grains never re-enter a queue, so
        // once a full sweep finds every queue empty there is no more
        // claimable work for this participant and it can leave (grains
        // still in flight elsewhere are counted by `remaining`).
        let nq = self.queues.len();
        let mut seed = (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        loop {
            let mut found = None;
            for _ in 0..nq {
                let v = (xorshift(&mut seed) as usize) % nq;
                if v == slot {
                    continue;
                }
                if let Some(g) = self.queues[v].steal() {
                    found = Some(g);
                    break;
                }
                STEAL_FAILURES.fetch_add(1, Ordering::Relaxed);
            }
            if found.is_none() {
                // Deterministic sweep to confirm emptiness before leaving.
                for (v, q) in self.queues.iter().enumerate() {
                    if v == slot {
                        continue;
                    }
                    if let Some(g) = q.steal() {
                        found = Some(g);
                        break;
                    }
                }
            }
            match found {
                Some(g) => {
                    STEALS.fetch_add(1, Ordering::Relaxed);
                    self.exec_grain(g);
                }
                None => break,
            }
        }
    }

    fn exec_grain(&self, g: usize) {
        // SAFETY: this participant holds a uniquely claimed grain, so per
        // the [`TaskRef`] invariant the closure is still alive.
        let task = unsafe { &*self.task.0 };
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(g))) {
            let mut slot = lock_recover(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        TASKS_EXECUTED.fetch_add(1, Ordering::Relaxed);
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            let mut done = lock_recover(&self.done);
            *done = true;
            self.done_cv.notify_all();
        }
    }

    fn wait_done(&self) {
        let mut done = lock_recover(&self.done);
        while !*done {
            done = self
                .done_cv
                .wait(done)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// Chase–Lev-style work-stealing deque over a *pre-filled, immutable*
/// grain buffer: all items exist before any participant starts, so there
/// is no push/grow path and the only race is owner-pop vs. thief-steal on
/// the last item, settled by a CAS on `top`. The buffer stores its block's
/// grains in descending order so the owner pops ascending global indices
/// while thieves take the tail of the block.
///
/// This protocol (take/steal with the last-item CAS) is exhaustively
/// model-checked over small interleavings in `proclus-verify`.
struct Deque {
    buf: Vec<usize>,
    /// Thief end: index of the next stealable item; monotonically grows.
    top: AtomicIsize,
    /// Owner end: one past the last item the owner may pop.
    bottom: AtomicIsize,
}

impl Deque {
    /// A deque holding grains `lo..hi` in descending buffer order.
    fn new_desc(lo: usize, hi: usize) -> Self {
        let buf: Vec<usize> = (lo..hi).rev().collect();
        Deque {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(buf.len() as isize),
            buf,
        }
    }

    /// Owner pop (called only by the slot's owner).
    fn take(&self) -> Option<usize> {
        let b = self.bottom.load(Ordering::SeqCst) - 1;
        self.bottom.store(b, Ordering::SeqCst);
        let t = self.top.load(Ordering::SeqCst);
        if t < b {
            // More than one item left: thieves can reach at most `b - 1`,
            // so `buf[b]` is exclusively the owner's.
            return Some(self.buf[b as usize]);
        }
        let won = t == b
            && self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
        self.bottom.store(b + 1, Ordering::SeqCst);
        won.then(|| self.buf[b as usize])
    }

    /// Thief steal (any non-owner participant). Retries internally on a
    /// lost CAS race: the contended item was taken by someone else, but
    /// the queue may still hold more.
    fn steal(&self) -> Option<usize> {
        loop {
            let t = self.top.load(Ordering::SeqCst);
            let b = self.bottom.load(Ordering::SeqCst);
            if t >= b {
                return None;
            }
            let item = self.buf[t as usize];
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Some(item);
            }
            STEAL_FAILURES.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn modes() -> [Executor; 3] {
        [
            Executor::Sequential,
            Executor::Parallel { threads: 4 },
            Executor::Parallel { threads: 7 },
        ]
    }

    #[test]
    fn grain_align_matches_simd_lanes() {
        assert_eq!(GRAIN_ALIGN, crate::distance_simd::LANES);
    }

    #[test]
    fn grains_tile_the_range_exactly_once() {
        for len in [
            0usize, 1, 3, 7, 511, 2047, 2048, 2049, 4000, 20_000, 1_000_000,
        ] {
            let (grain, grains) = grains_for(len);
            assert!(grain >= 1);
            if len <= SEQ_CROSSOVER {
                assert_eq!(grains, 1, "len {len} must be a single grain");
            } else {
                assert_eq!(grain % GRAIN_ALIGN, 0, "len {len}: grain {grain} unaligned");
                assert!(grains <= MAX_GRAINS + 1, "len {len}: {grains} grains");
                assert!(grain >= MIN_GRAIN, "len {len}: grain {grain} too small");
            }
            // Concatenated grain ranges == 0..len, each index exactly once.
            let mut covered = Vec::new();
            for g in 0..grains {
                let lo = g * grain;
                let hi = (lo + grain).min(len);
                assert!(lo <= hi, "len {len} grain {g}");
                covered.extend(lo..hi);
            }
            assert_eq!(covered, (0..len).collect::<Vec<_>>(), "len {len}");
        }
    }

    #[test]
    fn map_chunks_covers_range_exactly_once() {
        for exec in modes() {
            let sums = exec.map_chunks(
                10_000,
                || 0u64,
                |acc, range| {
                    for i in range {
                        *acc += i as u64;
                    }
                },
            );
            let total: u64 = sums.into_iter().sum();
            assert_eq!(total, 9999 * 10_000 / 2, "{exec:?}");
        }
    }

    #[test]
    fn map_chunks_partials_bitwise_identical_across_modes() {
        // f64 partial sums are decomposition-sensitive, so this pins the
        // central contract: same grains, same partials, in the same order,
        // for every executor mode and thread count.
        let run = |exec: Executor| -> Vec<u64> {
            exec.map_chunks(
                10_000,
                || 0.0f64,
                |acc, range| {
                    for i in range {
                        *acc += (i as f64).sqrt() * 0.1;
                    }
                },
            )
            .into_iter()
            .map(f64::to_bits)
            .collect()
        };
        let base = run(Executor::Sequential);
        assert!(base.len() > 1, "10k elements must decompose into >1 grain");
        for exec in [
            Executor::Parallel { threads: 2 },
            Executor::Parallel { threads: 7 },
        ] {
            assert_eq!(run(exec), base, "{exec:?}");
        }
    }

    #[test]
    fn map_chunks_handles_len_smaller_than_workers() {
        let exec = Executor::Parallel { threads: 16 };
        let sums = exec.map_chunks(3, || 0usize, |acc, r| *acc += r.len());
        assert_eq!(sums.iter().sum::<usize>(), 3);
    }

    #[test]
    fn map_chunks_empty_range() {
        let exec = Executor::Parallel { threads: 4 };
        let states = exec.map_chunks(0, || 7u32, |_, _| {});
        assert_eq!(states, vec![7]);
    }

    /// `map_strips_into` resizes the caller's states to one per grain and
    /// hands grain `g` what the last call left in slot `g`.
    #[test]
    fn map_strips_into_hands_each_grain_its_last_state() {
        for exec in modes() {
            let mut states: Vec<Vec<usize>> = vec![vec![99]; 40];
            let (grain, grains) = grains_for(10_000);
            for call in 0..3 {
                exec.map_strips_into::<u8, _, _>(10_000, &mut [], &mut states, |s, range, _| {
                    s.push(range.start + call);
                });
                assert_eq!(states.len(), grains, "{exec:?}");
                for (g, s) in states.iter().enumerate() {
                    let mut want = vec![99];
                    want.extend((0..=call).map(|c| g * grain + c));
                    assert_eq!(s, &want, "{exec:?} call {call} grain {g}");
                }
            }
            exec.map_strips_into::<u8, _, _>(100, &mut [], &mut states, |s, _, _| s.clear());
            assert_eq!(states, vec![Vec::<usize>::new()], "{exec:?}");
        }
    }

    thread_local! {
        static SPARE: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
    }

    /// `with_spare` hands a thread its buffer back, grown to the largest
    /// length asked for and holding what the last call left; a nested call
    /// on the same thread gets a buffer of its own.
    #[test]
    fn with_spare_keeps_the_thread_buffer_and_nests() {
        with_spare(&SPARE, 4, |b| {
            assert_eq!(b, &[0; 4]);
            b[3] = 7;
        });
        with_spare(&SPARE, 2, |b| {
            assert_eq!(b, &[0, 0, 0, 7]);
            with_spare(&SPARE, 3, |inner| {
                assert_eq!(inner, &[0; 3]);
                inner[0] = 5;
            });
            b[0] = 1;
        });
        with_spare(&SPARE, 1, |b| assert_eq!(b, &[1, 0, 0, 7]));
    }

    #[test]
    fn for_each_slice_writes_disjointly() {
        for exec in modes() {
            let mut out = vec![0usize; 10_000];
            exec.for_each_slice(&mut out, |off, sub| {
                for (i, v) in sub.iter_mut().enumerate() {
                    *v = off + i;
                }
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i), "{exec:?}");
        }
    }

    #[test]
    fn for_each_strips_writes_every_slice_disjointly() {
        for exec in modes() {
            let mut a = vec![0usize; 10_000];
            let mut b = vec![0usize; 10_000];
            {
                let mut outs: Vec<&mut [usize]> = vec![&mut a, &mut b];
                exec.for_each_strips(&mut outs, |off, strips| {
                    for (r, strip) in strips.iter_mut().enumerate() {
                        for (i, v) in strip.iter_mut().enumerate() {
                            *v = (r + 1) * (off + i);
                        }
                    }
                });
            }
            assert!(a.iter().enumerate().all(|(i, &v)| v == i), "{exec:?}");
            assert!(b.iter().enumerate().all(|(i, &v)| v == 2 * i), "{exec:?}");
        }
    }

    #[test]
    fn for_each_strips_handles_len_smaller_than_workers() {
        let exec = Executor::Parallel { threads: 16 };
        let mut a = vec![0u8; 3];
        let mut outs: Vec<&mut [u8]> = vec![&mut a];
        exec.for_each_strips(&mut outs, |_, strips| {
            for strip in strips.iter_mut() {
                strip.iter_mut().for_each(|v| *v += 1);
            }
        });
        assert_eq!(a, vec![1, 1, 1]);
    }

    #[test]
    fn pool_runs_grains_on_multiple_threads() {
        let exec = Executor::Parallel { threads: 4 };
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        exec.map_chunks(
            20_000,
            || (),
            |_, _| {
                seen.lock().unwrap().insert(std::thread::current().id());
                // Sleeping releases the core so parked workers get a
                // chance to wake and claim grains even on small machines.
                std::thread::sleep(Duration::from_millis(1));
            },
        );
        assert!(seen.lock().unwrap().len() >= 2);
    }

    #[test]
    fn steal_under_skew_redistributes_the_stragglers_block() {
        // The submitter owns slot 0's block and pops it in ascending order,
        // so it blocks in grain 0 until another thread has run a grain of
        // its block: the rest of the block must be stolen and finished by
        // other participants. A thief that reaches the block before the
        // submitter starts blocks the same way until the submitter has run
        // one, so the block ends up on two threads however they are
        // scheduled. Waiting on the steal, not a fixed sleep, keeps a
        // slow-to-wake pool worker from failing the test; a thief that
        // never comes fails it at the deadline.
        let before = pool_stats();
        let (grain, grains) = grains_for(20_000);
        let w = 2usize.min(grains);
        let first_block = grains.div_ceil(w); // grains owned by slot 0
        let owners: Mutex<Vec<Option<ThreadId>>> = Mutex::new(vec![None; grains]);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        Executor::Parallel { threads: 2 }.map_chunks(
            20_000,
            || (),
            |_, range| {
                let g = range.start / grain;
                let me = std::thread::current().id();
                owners.lock().unwrap()[g] = Some(me);
                while g < first_block
                    && !owners.lock().unwrap()[..first_block]
                        .iter()
                        .any(|t| t.is_some_and(|t| t != me))
                {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "slot 0's block reached no second thread within 10 s"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
            },
        );
        let owners = owners.lock().unwrap();
        let first_block_threads: HashSet<ThreadId> =
            owners[..first_block].iter().map(|t| t.unwrap()).collect();
        assert!(
            first_block_threads.len() >= 2,
            "straggler's block must be finished by thieves: {owners:?}"
        );
        let after = pool_stats();
        assert!(after.steals > before.steals, "no steals recorded");
        assert!(
            after.tasks_executed - before.tasks_executed >= grains as u64,
            "every grain must be counted"
        );
    }

    #[test]
    fn panic_propagates_out_of_a_stolen_grain() {
        // Submitter blocks on grain 0 so the tail of its block — including
        // the poisoned grain — is overwhelmingly likely to be stolen; the
        // payload must surface from map_chunks either way.
        let (grain, grains) = grains_for(20_000);
        let poisoned = grains.div_ceil(2) - 1; // tail of slot 0's block
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Executor::Parallel { threads: 2 }.map_chunks(
                20_000,
                || (),
                |_, range| {
                    let g = range.start / grain;
                    if g == 0 {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    if g == poisoned {
                        panic!("poisoned grain {g}");
                    }
                },
            );
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("poisoned grain"), "payload lost: {msg:?}");
    }

    #[test]
    fn nested_submission_runs_inline_without_deadlock() {
        let inner_total = AtomicUsize::new(0);
        let outer = Executor::Parallel { threads: 4 };
        outer.map_chunks(
            20_000,
            || 0usize,
            |acc, range| {
                *acc += range.len();
                // A nested fork from inside a grain body must run inline
                // (the submission lock is held by our own phase).
                let parts = Executor::Parallel { threads: 4 }.map_chunks(
                    4096,
                    || 0usize,
                    |a, r| *a += r.len(),
                );
                inner_total.fetch_add(parts.iter().sum::<usize>(), Ordering::Relaxed);
            },
        );
        let (_, grains) = grains_for(20_000);
        assert_eq!(inner_total.load(Ordering::Relaxed), grains * 4096);
    }

    #[test]
    fn pool_thread_count_stays_within_cores() {
        // Force the pool into existence, then check the shared-pool cap.
        Executor::Parallel { threads: 64 }.for_each_slice(&mut vec![0u8; 20_000], |_, _| {});
        let spawned = pool_thread_count();
        assert!(spawned >= 1);
        assert!(
            spawned < pool_cap(),
            "pool spawned {spawned} workers, cap {}",
            pool_cap()
        );
    }

    #[test]
    fn executor_thread_counts() {
        assert_eq!(Executor::Sequential.threads(), 1);
        assert_eq!(Executor::Parallel { threads: 0 }.threads(), 1);
        assert_eq!(Executor::Parallel { threads: 5 }.threads(), 5);
        assert!(Executor::all_cores().threads() >= 1);
    }

    #[test]
    fn proclus_threads_env_override() {
        // One test covers every case so set/remove never races another
        // PROCLUS_THREADS test in this process.
        std::env::set_var("PROCLUS_THREADS", "3");
        assert_eq!(
            Executor::try_all_cores(),
            Ok(Executor::Parallel { threads: 3 })
        );
        assert_eq!(Executor::all_cores().threads(), 3);

        std::env::set_var("PROCLUS_THREADS", "zesty");
        let err = Executor::try_all_cores().expect_err("garbage must be a typed error");
        assert!(matches!(err, ProclusError::InvalidParams { .. }));
        assert!(err.to_string().contains("PROCLUS_THREADS"));
        // all_cores falls back to the detected core count on garbage.
        assert_eq!(Executor::all_cores().threads(), detected_cores());

        std::env::set_var("PROCLUS_THREADS", "0");
        assert!(
            Executor::try_all_cores().is_err(),
            "zero threads is invalid"
        );

        std::env::remove_var("PROCLUS_THREADS");
        assert_eq!(
            Executor::try_all_cores(),
            Ok(Executor::Parallel {
                threads: detected_cores()
            })
        );
    }

    #[test]
    fn deque_take_pops_ascending_and_drains() {
        let q = Deque::new_desc(3, 9);
        let got: Vec<usize> = std::iter::from_fn(|| q.take()).collect();
        assert_eq!(got, vec![3, 4, 5, 6, 7, 8]);
        assert_eq!(q.take(), None);
        assert_eq!(q.steal(), None);
    }

    #[test]
    fn deque_steal_takes_the_tail() {
        let q = Deque::new_desc(0, 4);
        assert_eq!(q.steal(), Some(3));
        assert_eq!(q.take(), Some(0));
        assert_eq!(q.steal(), Some(2));
        assert_eq!(q.take(), Some(1));
        assert_eq!(q.take(), None);
        assert_eq!(q.steal(), None);
    }

    #[test]
    fn deque_concurrent_owner_and_thieves_claim_each_item_once() {
        // Hammer the last-item CAS race from std threads (allowed here:
        // this *is* par.rs). Every grain must be claimed exactly once.
        for _ in 0..50 {
            let q = Deque::new_desc(0, 64);
            let claimed = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(|| {
                        let mut got = Vec::new();
                        while let Some(g) = q.steal() {
                            got.push(g);
                        }
                        claimed.lock().unwrap().extend(got);
                    });
                }
                let mut got = Vec::new();
                while let Some(g) = q.take() {
                    got.push(g);
                }
                claimed.lock().unwrap().extend(got);
            });
            let mut all = claimed.into_inner().unwrap();
            all.sort_unstable();
            assert_eq!(all, (0..64).collect::<Vec<_>>());
        }
    }
}

//! Per-grain allocations of a sequential FAST run.
//!
//! A counting global allocator counts, on the test's own thread, the
//! allocations of 256 bytes or more that one `proclus::run` makes. The
//! run is sequential, so every executor grain runs on that thread. Two
//! runs with the same parameters and seed, at 8,192 and at 32,768 points
//! (16 and 64 grains of 512 points), make the same number of iterations
//! (the iteration cap of 6, as the benchmark sets it), so the difference
//! of their counts is what the 48 extra grains allocate.
//!
//! Grain bodies take their scratch from per-thread buffers
//! (`proclus::par`), and the CPU backend's groupings and ComputeL's
//! partials reuse their per-grain buffers from call to call, so the
//! difference must stay at most half of what it was when every grain
//! allocated its own.
//!
//! To print the counts: `cargo test --test allocations -- --ignored
//! --nocapture print_allocations`

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use datagen::synthetic::{generate, SyntheticConfig};
use proclus::{Config, DataMatrix, Params};

/// The allocator of this test binary: the system allocator, counting
/// large allocations on threads that asked for it.
struct Counting;

thread_local! {
    /// Whether this thread counts; only the test's own thread does.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations (and growing reallocations) of at least [`LARGE`]
    /// bytes since this thread started counting.
    static LARGE_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The size from which an allocation counts.
const LARGE: usize = 256;

/// The difference, 32,768 points against 8,192, of the large allocations
/// of the run below before grains took their scratch from per-thread
/// buffers (931 against 3,169): about 47 per extra grain.
const UNPOOLED_DIFFERENCE: u64 = 2_238;

fn note(size: usize) {
    if size >= LARGE {
        // `try_with`: a thread that is being torn down has no counter.
        let counting = COUNTING.try_with(Cell::get).unwrap_or(false);
        if counting {
            let _ = LARGE_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        }
    }
}

// SAFETY: every method forwards to the system allocator with the
// caller's arguments unchanged; the counting touches only const-initialized
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note(new_size);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The paper-default generator (15 dimensions, 10 planted clusters),
/// min-max normalized, as the benchmark's inputs.
fn data(n: usize) -> DataMatrix {
    let mut g = generate(&SyntheticConfig::new(n, 15).with_seed(7_000));
    g.data.minmax_normalize();
    g.data
}

/// The large allocations of one sequential FAST run on `data` (k 10, l 5,
/// at most six iterations).
fn large_allocations(data: &DataMatrix) -> u64 {
    let config = Config::new(
        Params::new(10, 5)
            .with_seed(7_000)
            .with_max_total_iterations(6),
    );
    LARGE_ALLOCATIONS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = proclus::run(data, &config);
    COUNTING.with(|c| c.set(false));
    let run = out.expect("FAST run");
    assert_eq!(run.clusterings[0].iterations, 6, "the iteration cap holds");
    LARGE_ALLOCATIONS.with(Cell::get)
}

/// The large allocations at 8,192 and at 32,768 points.
fn counts() -> (u64, u64) {
    let (small, big) = (data(8_192), data(32_768));
    (large_allocations(&small), large_allocations(&big))
}

#[test]
fn extra_grains_allocate_at_most_half_of_what_they_did() {
    let (small, big) = counts();
    let difference = big.saturating_sub(small);
    assert!(
        2 * difference <= UNPOOLED_DIFFERENCE,
        "48 extra grains made {difference} more allocations of {LARGE} B or more \
         ({small} at 8,192 points, {big} at 32,768); at most {} allowed",
        UNPOOLED_DIFFERENCE / 2
    );
}

#[test]
#[ignore]
fn print_allocations() {
    let (small, big) = counts();
    println!(
        "8,192 points: {small}; 32,768 points: {big}; difference {}",
        big - small
    );
}

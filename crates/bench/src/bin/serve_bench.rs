//! Serving-layer harness: the same burst of mixed `(k, l)` requests served
//! with the batching scheduler on and off ([`proclus_bench::serve`]),
//! printed as a table of throughput, latency, distances and batches.

use proclus_bench::{serve, Options};

fn main() {
    let opts = Options::from_args();
    let b = serve::run(&opts);
    println!(
        "served {} mixed (k, l) requests x {} reps over {} x {} points\n",
        b.jobs_per_rep, opts.reps, b.n, b.d
    );
    println!(
        "{:<12} {:>10} {:>12} {:>14} {:>9} {:>12} {:>12}",
        "mode", "wall ms", "jobs/s", "distances", "batches", "p50 us", "p99 us"
    );
    for m in [&b.batched, &b.unbatched] {
        println!(
            "{:<12} {:>10.1} {:>12.1} {:>14} {:>9} {:>12} {:>12}",
            m.mode,
            m.wall_ms,
            m.throughput,
            m.distances,
            m.batches,
            m.latency_p50_us,
            m.latency_p99_us
        );
    }
    println!(
        "\nbatching saves {:.1}% of distances; throughput x{:.2}",
        100.0 * b.savings(),
        b.batched.throughput / b.unbatched.throughput,
    );
}

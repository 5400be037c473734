//! Incremental re-clustering harness ([`proclus_bench::stream`]): prints,
//! per append fraction, the incremental epoch's distances against a
//! from-scratch run over the same final dataset, and fails unless every
//! incremental result equals the from-scratch one bit for bit.

use proclus_bench::{stream, Options};

fn main() {
    let opts = Options::from_args();
    let w = stream::workload(opts.quick);
    println!(
        "stream_bench: n={} d={} k={} l={}{}",
        w.n,
        w.d,
        w.k,
        w.l,
        if opts.quick { " (quick)" } else { "" }
    );
    println!(
        "{:<10} {:>7} {:>14} {:>14} {:>7} {:>6}",
        "fraction", "batch", "dist_full", "dist_inc", "ratio", "exact"
    );
    for r in stream::run(&opts) {
        println!(
            "{:<10} {:>7} {:>14} {:>14} {:>7.3} {:>6}",
            r.fraction,
            r.batch,
            r.distances_full,
            r.distances_inc,
            r.ratio(),
            r.exact
        );
        assert!(
            r.exact,
            "incremental result diverged at fraction {}",
            r.fraction
        );
    }
}

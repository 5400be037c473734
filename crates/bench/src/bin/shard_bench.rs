//! Multi-device scaling harness ([`proclus_bench::shard`]): prints the
//! simulated time of FAST-PROCLUS on 1, 2 and 4 simulated devices and the
//! speedup of each over one device.

use proclus_bench::shard::{self, DEVICE_COUNTS};
use proclus_bench::Options;

fn main() {
    let opts = Options::from_args();
    let w = shard::workload(opts.quick);
    println!(
        "shard_bench: n={} d={} k={} l={} reps={}{}",
        w.n,
        w.d,
        w.k,
        w.l,
        opts.reps,
        if opts.quick { " (quick)" } else { "" }
    );
    println!("{:<10} {:>12} {:>10}", "devices", "sim_ms", "speedup");
    let sim_ms = shard::run(&opts);
    for (devices, ms) in DEVICE_COUNTS.iter().zip(&sim_ms) {
        println!("{devices:<10} {ms:>12.2} {:>9.2}x", sim_ms[0] / ms);
    }
}

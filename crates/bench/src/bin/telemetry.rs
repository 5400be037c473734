//! Telemetry harness: one instrumented run per algorithm/backend
//! combination on the default workload ([`proclus_bench::telemetry`]),
//! written as `<out>/BENCH_telemetry.json` (the multi-run telemetry
//! document) and `<out>/BENCH_trace.json` (a combined Chrome trace
//! loadable in `about:tracing` / Perfetto). `telemetry_validate` checks
//! both files against the schema rules.

use proclus::telemetry::{chrome_trace_combined, counters, runs_json};
use proclus_bench::telemetry::{run, COMBOS};
use proclus_bench::Options;

fn main() {
    let opts = Options::from_args();
    let reports = run(&opts);
    println!(
        "{:<20} {:>16} {:>12} {:>12} {:>14}",
        "configuration", "distances", "cache hits", "cache miss", "delta-L points"
    );
    for ((algo, backend), report) in COMBOS.iter().zip(&reports) {
        println!(
            "{:<20} {:>16} {:>12} {:>12} {:>14}",
            format!("{} on {}", algo.name(), backend.name()),
            report.total(counters::DISTANCES_COMPUTED),
            report.total(counters::DIST_CACHE_HITS),
            report.total(counters::DIST_CACHE_MISSES),
            report.total(counters::DELTA_L_POINTS),
        );
    }

    std::fs::create_dir_all(&opts.out_dir).expect("create results dir");
    let tel_path = format!("{}/BENCH_telemetry.json", opts.out_dir);
    std::fs::write(&tel_path, runs_json(&reports)).expect("write telemetry json");
    let trace_path = format!("{}/BENCH_trace.json", opts.out_dir);
    std::fs::write(&trace_path, chrome_trace_combined(&reports)).expect("write chrome trace");
    println!(
        "\nwrote {tel_path} and {trace_path} ({} runs)",
        reports.len()
    );
}

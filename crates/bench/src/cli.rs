//! Tiny flag parser shared by the figure harnesses. No external dependency
//! needed for four flags.

/// Harness options parsed from `std::env::args`.
#[derive(Debug, Clone)]
pub struct Options {
    /// Run the paper's full-size workloads (default: scaled-down grid).
    pub paper_scale: bool,
    /// Repetitions averaged per configuration (paper: 10).
    pub reps: usize,
    /// Output directory for CSV files.
    pub out_dir: String,
    /// Skip the slow sequential CPU baseline at large `n` (it dominates
    /// harness runtime; speedups are then reported against the largest `n`
    /// where it was measured).
    pub quick: bool,
    /// Base RNG seed; repetition `r` uses `seed + r`.
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            paper_scale: false,
            reps: 3,
            out_dir: "results".to_string(),
            quick: false,
            seed: 0xBE7C,
        }
    }
}

const USAGE: &str = "flags: --paper-scale  run the paper's full workload sizes\n       \
                     --quick        smallest grid, 1 rep (smoke test)\n       \
                     --reps N       repetitions per configuration (default 3)\n       \
                     --out DIR      CSV output directory (default results/)\n       \
                     --seed S       base RNG seed";

impl Options {
    /// The options `--quick` alone selects: the smallest grid, one rep.
    pub fn quick() -> Self {
        Self {
            quick: true,
            reps: 1,
            ..Self::default()
        }
    }

    /// Parses flags: `--paper-scale`, `--quick`, `--reps N`, `--out DIR`,
    /// `--seed S`. `--help` prints the flags and exits 0; a bad flag or
    /// value prints the error and exits 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        Self::parse(args.into_iter()).unwrap_or_else(|msg| {
            eprintln!("error: {msg} (try --help)");
            std::process::exit(2);
        })
    }

    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = Self::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--paper-scale" => {
                    opts.paper_scale = true;
                    opts.reps = opts.reps.max(10);
                }
                "--quick" => opts.quick = true,
                "--reps" => {
                    opts.reps = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&r| r > 0)
                        .ok_or("--reps needs a positive integer")?;
                }
                "--out" => opts.out_dir = args.next().ok_or("--out needs a path")?,
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed needs an integer")?;
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if opts.quick {
            opts.reps = 1;
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert!(!o.paper_scale);
        assert_eq!(o.reps, 3);
        assert_eq!(o.out_dir, "results");
    }

    #[test]
    fn paper_scale_raises_reps_to_ten() {
        let o = parse(&["--paper-scale"]).unwrap();
        assert!(o.paper_scale);
        assert_eq!(o.reps, 10);
    }

    #[test]
    fn quick_forces_single_rep() {
        let o = parse(&["--reps", "5", "--quick"]).unwrap();
        assert_eq!(o.reps, 1);
        let q = Options::quick();
        assert_eq!((o.quick, o.reps, o.seed), (q.quick, q.reps, q.seed));
    }

    #[test]
    fn explicit_values() {
        let o = parse(&["--reps", "7", "--out", "/tmp/x", "--seed", "42"]).unwrap();
        assert_eq!(o.reps, 7);
        assert_eq!(o.out_dir, "/tmp/x");
        assert_eq!(o.seed, 42);
    }

    #[test]
    fn bad_values_are_errors() {
        for args in [
            &["--reps", "0"][..],
            &["--reps", "three"],
            &["--reps"],
            &["--seed", "-1"],
            &["--out"],
            &["--fast"],
        ] {
            assert!(parse(args).is_err(), "{args:?} parsed");
        }
    }
}

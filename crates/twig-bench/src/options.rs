/// Command-line options shared by every experiment.
///
/// # Examples
///
/// ```
/// use twig_bench::{Options, Scale};
///
/// let o = Options::parse_from(["--full"].iter().map(|s| s.to_string())).unwrap();
/// assert_eq!(o.scale, Scale::Full);
/// assert!(o.learn_epochs() > 5_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// How long every phase runs (`--smoke`, `--fast`, `--full`; the last
    /// flag given wins).
    pub scale: Scale,
    /// Base RNG seed for the simulator and managers.
    pub seed: u64,
    /// Where to write a JSONL telemetry trace (experiments that export one;
    /// `telemetry_report` defaults to `results/telemetry_trace.jsonl`).
    pub trace: Option<String>,
    /// Worker threads for the experiment fleet (`--jobs N`). `1` (the
    /// default) runs every unit serially; results are bit-identical at any
    /// value (see [`crate::fleet`]).
    pub jobs: usize,
}

/// The scale an experiment runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI smoke scale (`--smoke`): drastically shortened learning phases
    /// and sample counts, for pipeline wiring checks rather than paper
    /// fidelity.
    Smoke,
    /// The fast default (`--fast`): compressed learning phases.
    Fast,
    /// The paper's full scale (`--full`, 10 000 s learning phases).
    Full,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: Scale::Fast,
            seed: 42,
            trace: None,
            jobs: 1,
        }
    }
}

impl Options {
    /// The flags [`Options::parse_from`] accepts, for usage messages.
    pub const USAGE: &'static str = "[--full|--fast|--smoke] [--seed N] [--jobs N] [--trace PATH]";

    /// Parses from raw arguments (excluding the binary and experiment names).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags or a malformed seed.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = Options::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => opts.scale = Scale::Full,
                "--fast" => opts.scale = Scale::Fast,
                "--smoke" => opts.scale = Scale::Smoke,
                "--seed" => {
                    let v = iter.next().ok_or("--seed needs a value")?;
                    opts.seed = v.parse().map_err(|e| format!("bad seed {v}: {e}"))?;
                }
                "--trace" => {
                    opts.trace = Some(iter.next().ok_or("--trace needs a path")?);
                }
                "--jobs" => {
                    let v = iter.next().ok_or("--jobs needs a value")?;
                    opts.jobs = v.parse().map_err(|e| format!("bad jobs {v}: {e}"))?;
                    if opts.jobs == 0 {
                        return Err("--jobs must be at least 1".to_string());
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(opts)
    }

    /// Learning-phase length in epochs (the paper's first 10 000 s; the
    /// fast default compresses it to 2 000 with the ε schedule scaled to
    /// match, and `--smoke` to 300 for CI wiring checks).
    pub fn learn_epochs(&self) -> u64 {
        match self.scale {
            Scale::Smoke => 300,
            Scale::Fast => 2_000,
            Scale::Full => 10_000,
        }
    }

    /// Measurement-window length in epochs (the paper summarises over the
    /// last 300 s; 600 s for the PARTIES comparisons; 120 s at smoke
    /// scale).
    pub fn measure_epochs(&self, parties: bool) -> u64 {
        if self.scale == Scale::Smoke {
            120
        } else if parties {
            600
        } else {
            300
        }
    }

    /// Warm-up epochs for feedback controllers that need no learning phase.
    pub fn controller_warmup(&self) -> u64 {
        if self.scale == Scale::Smoke {
            40
        } else {
            120
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn default_is_fast() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scale, Scale::Fast);
        assert_eq!(o.learn_epochs(), 2_000);
        assert_eq!(o.measure_epochs(false), 300);
        assert_eq!(o.measure_epochs(true), 600);
    }

    #[test]
    fn full_scale_matches_paper() {
        let o = parse(&["--full"]).unwrap();
        assert_eq!(o.learn_epochs(), 10_000);
    }

    #[test]
    fn seed_parsing() {
        assert_eq!(parse(&["--seed", "9"]).unwrap().seed, 9);
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn jobs_parsing() {
        assert_eq!(parse(&[]).unwrap().jobs, 1);
        assert_eq!(parse(&["--jobs", "4"]).unwrap().jobs, 4);
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "x"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
    }

    #[test]
    fn smoke_compresses_scales() {
        let o = parse(&["--smoke"]).unwrap();
        assert_eq!(o.scale, Scale::Smoke);
        assert_eq!(o.learn_epochs(), 300);
        assert_eq!(o.measure_epochs(false), 120);
        assert_eq!(o.measure_epochs(true), 120);
        assert_eq!(o.controller_warmup(), 40);
    }

    #[test]
    fn last_scale_flag_wins() {
        for (args, scale) in [
            (["--smoke", "--full"], Scale::Full),
            (["--full", "--smoke"], Scale::Smoke),
            (["--smoke", "--fast"], Scale::Fast),
            (["--full", "--fast"], Scale::Fast),
        ] {
            let o = parse(&args).unwrap();
            assert_eq!(o.scale, scale, "{args:?}");
            assert_eq!(
                o,
                Options {
                    scale,
                    ..parse(&[]).unwrap()
                },
                "{args:?}"
            );
        }
    }

    #[test]
    fn trace_parsing() {
        assert_eq!(parse(&[]).unwrap().trace, None);
        assert_eq!(
            parse(&["--trace", "/tmp/t.jsonl"]).unwrap().trace,
            Some("/tmp/t.jsonl".to_string())
        );
        assert!(parse(&["--trace"]).is_err());
    }
}

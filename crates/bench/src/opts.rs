//! The one command-line parser of `crates/bench`: the flags `figs`
//! accepts, and the trace/live side effects they switch on.

use std::iter::Peekable;
use std::ops::RangeInclusive;
use std::str::FromStr;

use joinsw::DEFAULT_BATCH_SIZE;

/// The flag list, as `figs` prints it on a usage error.
pub const USAGE: &str = "[--batch N] [--cores A,B,...] [--windows LO..HI] [--samples N] \
                         [--trace [N]] [--live [MS]] [--csv]";

/// CLI options shared by every figure.
///
/// Flags (all optional; each figure applies its own defaults and
/// ignores the flags it has no use for):
///
/// * `--batch N` — distribution batch size ([`DEFAULT_BATCH_SIZE`] when
///   absent).
/// * `--cores A,B,...` — join-core counts to run.
/// * `--windows LO..HI` — inclusive window exponent range (`10..12`
///   means windows 2^10, 2^11, 2^12).
/// * `--samples N` — latency samples per point (fig16), best-of-N runs
///   per point (kernel).
/// * `--trace [N]` — enable span tracing with 1-in-`N` provenance
///   sampling (`64` when the period is omitted); harvested rings are
///   written as a Perfetto trace next to the manifest. Tracing never
///   changes measured cycle counts or results.
/// * `--live [MS]` — arm the live telemetry plane and sample it every
///   `MS` milliseconds (`25` when omitted) into
///   `target/obs/<figure>.series.jsonl`.
/// * `--csv` — print tables as CSV instead of aligned text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigOpts {
    /// Distribution batch size.
    pub batch_size: usize,
    /// Join-core counts, `None` when the figure's default applies.
    pub cores: Option<Vec<usize>>,
    /// Inclusive window exponent range, `None` for the default sweep.
    pub windows: Option<RangeInclusive<u32>>,
    /// Samples per point, `None` for the default.
    pub samples: Option<usize>,
    /// Span-tracing sample period, `None` when tracing is off.
    pub trace: Option<u64>,
    /// Live-plane sampling interval in milliseconds, `None` when the
    /// plane stays unarmed.
    pub live: Option<u64>,
    /// Print tables as CSV.
    pub csv: bool,
}

impl Default for FigOpts {
    fn default() -> Self {
        Self {
            batch_size: DEFAULT_BATCH_SIZE,
            cores: None,
            windows: None,
            samples: None,
            trace: None,
            live: None,
            csv: false,
        }
    }
}

type Args<'a> = Peekable<std::slice::Iter<'a, String>>;

/// The value of `--flag value` or `--flag=value`.
fn required<'a>(
    flag: &str,
    inline: Option<&'a str>,
    rest: &mut Args<'a>,
) -> Result<&'a str, String> {
    inline
        .or_else(|| rest.next().map(String::as_str))
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// The value of `--flag [value]` or `--flag=value`: without `=`, the
/// next argument is consumed only when it is not itself a flag.
fn optional<'a>(inline: Option<&'a str>, rest: &mut Args<'a>) -> Option<&'a str> {
    inline.or_else(|| rest.next_if(|v| !v.starts_with('-')).map(String::as_str))
}

fn positive<T: FromStr + PartialOrd + Default>(flag: &str, v: &str) -> Result<T, String> {
    v.trim()
        .parse::<T>()
        .ok()
        .filter(|n| *n > T::default())
        .ok_or_else(|| format!("{flag} requires a positive integer, got `{v}`"))
}

impl FigOpts {
    /// Parses `args` (the process arguments after the program and figure
    /// names), exiting with status 2 and a message on stderr when a flag
    /// is malformed.
    #[must_use]
    pub fn from_args(args: impl Iterator<Item = String>) -> Self {
        Self::parse(&args.collect::<Vec<_>>()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("usage: {USAGE}");
            std::process::exit(2);
        })
    }

    /// Applies the `--trace` flag: enables span tracing at the parsed
    /// sampling period for the whole process.
    pub fn setup_trace(&self) {
        if let Some(n) = self.trace {
            obs::trace::enable(n);
        }
    }

    /// Applies the `--live` flag: arms the live plane and starts the
    /// background sampler (series artifact named after `figure`).
    /// Returns `None` when live telemetry was not requested or its
    /// series file could not be created; the caller runs
    /// [`LiveRun::finish`](crate::obsout::LiveRun::finish) after the
    /// figure completes.
    #[must_use]
    pub fn setup_live(&self, figure: &str) -> Option<crate::obsout::LiveRun> {
        crate::obsout::live_start(figure, self.live?)
    }

    /// Parses an argument list (`from_args` without the process exit).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed flag.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut rest = args.iter().peekable();
        while let Some(arg) = rest.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, v)) => (flag, Some(v)),
                None => (arg.as_str(), None),
            };
            match flag {
                "--batch" => opts.batch_size = positive(flag, required(flag, inline, &mut rest)?)?,
                "--cores" => {
                    let v = required(flag, inline, &mut rest)?;
                    let cores = v.split(',').map(|c| positive(flag, c));
                    opts.cores = Some(cores.collect::<Result<_, _>>()?);
                }
                "--windows" => {
                    let v = required(flag, inline, &mut rest)?;
                    let bad = || format!("--windows requires LO..HI, got `{v}`");
                    let (lo, hi) = v.split_once("..").ok_or_else(bad)?;
                    let hi = hi.strip_prefix('=').unwrap_or(hi); // tolerate 10..=12
                    let lo: u32 = lo.trim().parse().map_err(|_| bad())?;
                    let hi: u32 = hi.trim().parse().map_err(|_| bad())?;
                    if lo > hi || hi > 30 {
                        return Err(format!("--windows range `{v}` is empty or too large"));
                    }
                    opts.windows = Some(lo..=hi);
                }
                "--samples" => {
                    opts.samples = Some(positive(flag, required(flag, inline, &mut rest)?)?);
                }
                "--trace" => {
                    opts.trace = Some(match optional(inline, &mut rest) {
                        Some(v) => positive(flag, v)?,
                        None => 64,
                    });
                }
                "--live" => {
                    opts.live = Some(match optional(inline, &mut rest) {
                        Some(v) => positive(flag, v)?,
                        None => 25,
                    });
                }
                "--csv" if inline.is_none() => opts.csv = true,
                _ => return Err(format!("unknown flag `{arg}`")),
            }
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FigOpts, String> {
        FigOpts::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn opts_parse_all_flags() {
        let opts = parse(&[
            "--batch",
            "64",
            "--cores",
            "2,4",
            "--windows",
            "10..12",
            "--csv",
        ])
        .unwrap();
        assert_eq!(opts.batch_size, 64);
        assert_eq!(opts.cores, Some(vec![2, 4]));
        assert_eq!(opts.windows, Some(10..=12));
        assert!(opts.csv);
        let eq_style = parse(&["--samples=5", "--windows=10..=11"]).unwrap();
        assert_eq!(eq_style.samples, Some(5));
        assert_eq!(eq_style.windows, Some(10..=11));
        assert_eq!(parse(&[]).unwrap(), FigOpts::default());
    }

    #[test]
    fn opts_parse_trace_flag_forms() {
        assert_eq!(parse(&["--trace", "16"]).unwrap().trace, Some(16));
        assert_eq!(parse(&["--trace=8"]).unwrap().trace, Some(8));
        // Bare `--trace` defaults to 64, including before another flag.
        assert_eq!(parse(&["--trace"]).unwrap().trace, Some(64));
        let before_flag = parse(&["--trace", "--batch", "32"]).unwrap();
        assert_eq!(before_flag.trace, Some(64));
        assert_eq!(before_flag.batch_size, 32);
        assert!(parse(&["--trace", "0"]).is_err());
        assert!(parse(&["--trace=x"]).is_err());
    }

    #[test]
    fn opts_parse_live_flag_forms() {
        assert_eq!(parse(&["--live", "50"]).unwrap().live, Some(50));
        assert_eq!(parse(&["--live=10"]).unwrap().live, Some(10));
        // Bare `--live` defaults to 25 ms, including before another flag.
        assert_eq!(parse(&["--live"]).unwrap().live, Some(25));
        let before_flag = parse(&["--live", "--batch", "32"]).unwrap();
        assert_eq!(before_flag.live, Some(25));
        assert_eq!(before_flag.batch_size, 32);
        assert!(parse(&["--live", "0"]).is_err());
        assert!(parse(&["--live=x"]).is_err());
    }

    #[test]
    fn opts_reject_malformed_flags() {
        for bad in [
            vec!["--batch", "0"],
            vec!["--batch", "x"],
            vec!["--cores", ""],
            vec!["--cores", "2,0"],
            vec!["--windows", "12..10"],
            vec!["--windows", "10"],
            vec!["--frobnicate"],
            vec!["--csv=yes"],
            vec!["fig14a"],
            vec!["--batch"],
        ] {
            assert!(parse(&bad).is_err(), "should reject {bad:?}");
        }
    }
}

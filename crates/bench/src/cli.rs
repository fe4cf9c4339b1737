//! Minimal flag parsing shared by the experiment binaries (kept
//! dependency-free: the offline crate set has no CLI parser), and the
//! run-then-report body of the `table*` binaries.

use std::path::PathBuf;
use std::time::Duration;

use mgrts_core::engine::CancelGroup;

use crate::campaign::{self, CampaignOptions, Manifest};
use crate::sink::{self, CampaignRecord};

/// Common experiment options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Number of random instances (paper: 500 for Tables I–III, 100 per n
    /// for Table IV).
    pub instances: u64,
    /// Per-solve wall-clock limit. The paper used 30 s on a 2.4 GHz
    /// Core2Quad; the default here is scaled down so the full corpus runs
    /// in minutes — pass `--time-limit-ms 30000` to replicate verbatim.
    pub time_limit: Duration,
    /// Master seed for the problem stream.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Record-store directory for the campaign engine (default
    /// `target/campaigns/<name>`).
    pub out: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            instances: 500,
            time_limit: Duration::from_millis(1000),
            seed: 2009,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            out: None,
        }
    }
}

impl Args {
    /// Parse `--instances N --time-limit-ms MS --seed S --threads T` from
    /// the process arguments; unknown flags abort with a usage message.
    #[must_use]
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = Args::default();
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--instances" => args.instances = value("--instances").parse().expect("u64"),
                "--time-limit-ms" => {
                    args.time_limit =
                        Duration::from_millis(value("--time-limit-ms").parse().expect("u64"));
                }
                "--seed" => args.seed = value("--seed").parse().expect("u64"),
                "--threads" => args.threads = value("--threads").parse().expect("usize"),
                "--out" => args.out = Some(PathBuf::from(value("--out"))),
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --instances N  --time-limit-ms MS  --seed S  --threads T  --out DIR"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; see --help"),
            }
        }
        args
    }
}

/// Run `manifest` from scratch into the `--out` store (default
/// `target/campaigns/<name>`) on at most `max_threads` workers, then print
/// `report` over the store's records. The store stays behind, so
/// `mgrts bench campaign resume --out <store>` continues a killed run and
/// `mgrts bench campaign report` re-renders a finished one.
///
/// # Panics
///
/// When the campaign fails, including on a verdict conflict between two
/// backends ([`campaign::verdict_conflicts`]).
pub fn run_and_report(
    args: &Args,
    manifest: &Manifest,
    max_threads: usize,
    report: fn(&Manifest, &[CampaignRecord]) -> String,
) {
    let out_dir = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("target/campaigns/{}", manifest.name)));
    let opts = CampaignOptions {
        threads: args.threads.min(max_threads),
        progress: true,
        max_shards: None,
    };
    campaign::run_fresh(manifest, &out_dir, &opts, &CancelGroup::new())
        .unwrap_or_else(|e| panic!("campaign run: {e}"));
    let records = sink::load_records(&out_dir).expect("load records");
    print!("{}", report(manifest, &records));
    eprintln!("record store: {}", out_dir.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let a = Args::parse_from(Vec::<String>::new());
        assert_eq!(a.instances, 500);
        assert_eq!(a.seed, 2009);
        assert_eq!(a.time_limit, Duration::from_millis(1000));
        assert!(a.threads >= 1);
    }

    #[test]
    fn overrides() {
        let a = Args::parse_from(
            [
                "--instances",
                "10",
                "--time-limit-ms",
                "50",
                "--seed",
                "7",
                "--threads",
                "2",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(a.instances, 10);
        assert_eq!(a.time_limit, Duration::from_millis(50));
        assert_eq!(a.seed, 7);
        assert_eq!(a.threads, 2);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown() {
        let _ = Args::parse_from(["--bogus".to_string()]);
    }
}

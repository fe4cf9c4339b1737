//! Table III reproduction (Section VII-D), rebased on the campaign engine:
//! distribution of the 500 generated instances over utilization-ratio
//! buckets and the mean resolution time (over all six solvers) per bucket.
//! Streams records to a store (`--out`, default `target/campaigns/table3`)
//! and emits `BENCH_table3.json`. Always starts fresh; use
//! `mgrts bench campaign resume --out <store>` to continue a killed run.
//!
//! Run with: `cargo run --release -p mgrts-bench --bin table3 -- [flags]`

use mgrts_bench::campaign::{report_table3, Manifest};
use mgrts_bench::cli::run_and_report;
use mgrts_bench::Args;

fn main() {
    let args = Args::parse();
    eprintln!(
        "Table III: {} instances (m=5, n=10, Tmax=7), limit {:?}, seed {}",
        args.instances, args.time_limit, args.seed
    );
    let m = Manifest::table1("table3", args.instances, args.seed, args.time_limit);
    run_and_report(&args, &m, usize::MAX, report_table3);
}

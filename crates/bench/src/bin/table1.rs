//! Tables I and II reproduction (Section VII-C), rebased on the campaign
//! engine.
//!
//! 500 random problems with m = 5, n = 10, Tmax = 7, solved by all six
//! solver columns under a wall-clock limit; reports the number of runs
//! reaching the limit, split by solved-by-someone (Table I) and, for
//! unsolved instances, by the r > 1 filter (Table II). The run streams its
//! records to a record store (`--out`, default `target/campaigns/table1`)
//! and emits `BENCH_table1.json` there; the printed tables are reports
//! over that store, byte-identical to `mgrts bench campaign run` +
//! `report table1` on the same manifest. The binary always starts fresh
//! (clearing the store) — to continue an interrupted run instead, use
//! `mgrts bench campaign resume --out <store>`.
//!
//! Paper defaults: `--instances 500 --time-limit-ms 30000`. The binary's
//! default time limit is 1 s — modern hardware classification of "hard"
//! shifts accordingly; the qualitative ranking of solvers does not.
//!
//! Run with: `cargo run --release -p mgrts-bench --bin table1 -- [flags]`

use mgrts_bench::campaign::{report_table1, Manifest};
use mgrts_bench::cli::run_and_report;
use mgrts_bench::Args;

fn main() {
    let args = Args::parse();
    eprintln!(
        "Tables I & II: {} instances (m=5, n=10, Tmax=7), limit {:?}, seed {}",
        args.instances, args.time_limit, args.seed
    );
    let m = Manifest::table1("table1", args.instances, args.seed, args.time_limit);
    run_and_report(&args, &m, usize::MAX, report_table1);
}

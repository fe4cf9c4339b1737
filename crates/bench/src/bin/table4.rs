//! Table IV reproduction (Section VII-E), rebased on the campaign engine:
//! scaling with the number of tasks.
//!
//! One grid cell per n ∈ {4, 8, 16, 32, 64, 128, 256} with Tmax = 15 and
//! m = ⌈Σ Ci/Ti⌉ (the minimum passing the utilization filter), solved by
//! CSP1 and CSP2+(D-C). The old per-n generation loop is gone — the
//! campaign grid *is* the loop, and the printed table is a report over the
//! record store (`--out`, default `target/campaigns/table4`; the binary
//! always starts fresh — `mgrts bench campaign resume` continues a killed
//! run). CSP1 rows
//! show `–` where every run hit the encoding size guard — the paper's
//! "runs out of memory on large instances".
//!
//! Paper defaults: `--instances 100 --time-limit-ms 30000`.
//!
//! Run with: `cargo run --release -p mgrts-bench --bin table4 -- [flags]`

use mgrts_bench::campaign::{report_table4, Manifest};
use mgrts_bench::cli::run_and_report;
use mgrts_bench::Args;

const NS: [usize; 7] = [4, 8, 16, 32, 64, 128, 256];

fn main() {
    let mut args = Args::parse_from(std::env::args().skip(1));
    if std::env::args().all(|a| a != "--instances") {
        args.instances = 100; // the paper's Table IV batch size
    }
    eprintln!(
        "Table IV: {} instances per n, Tmax=15, m=⌈U⌉, limit {:?}, seed {}",
        args.instances, args.time_limit, args.seed
    );
    let m = Manifest::table4(&NS, args.instances, args.seed, args.time_limit);
    // Large-n instances allocate hundreds of MB of search state each, and
    // the flat shard queue reaches the n ≥ 64 cells with every worker
    // active — cap at 2 workers (the old per-n ladder's large-n limit) so
    // peak memory stays bounded.
    run_and_report(&args, &m, 2, report_table4);
}

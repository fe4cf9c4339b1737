//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a human-readable report, then as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics. The traced run also
//! writes its spans to `out/trace-<workload>-<seed>.jsonl` beside this
//! crate's manifest.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workload::{Workload, NAMES};
use perfbench::{result_json, run, trace, Options};

/// The `smoke.toml` campaign seed.
const DEFAULT_SEED: u64 = 2009;

fn usage(err: &str) -> ExitCode {
    eprintln!("perfbench: {err}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 35.0;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::named(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed `{value}`")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => return usage(&format!("bad seconds `{value}`")),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(&format!("bad trace flag `{value}`")),
            },
            _ => return usage(&format!("unknown flag `{flag}`")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let opts = Options {
        workload: workload.scaled(seconds),
        seed,
        seconds,
        trace: traced,
        out_dir: out_dir.clone(),
    };
    let report = run(&opts);
    for line in &report.lines {
        println!("{line}");
    }
    if traced {
        let path = out_dir.join(format!("trace-{}-{seed}.jsonl", opts.workload.name));
        match trace::write_jsonl(&report.spans, &path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}

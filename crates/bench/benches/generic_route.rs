//! The generic CSP route (`csp2-generic`: CSP2 posted verbatim on
//! `csp_engine`, chronological search) on the paper's cell: the first 120
//! Table I instances of seed 2009 (n = 10, m = 5, Tmax = 7) under 500
//! decisions each, the `generic` stream of perfbench's `paper-cell`
//! workload. Every solve is taken apart into four phases: encode
//! (`csp2_generic::encode`), build (`Model::into_solver`), search
//! (`Solver::solve`) and drop (the solver), and a counting global
//! allocator reports the heap allocations of each phase.
//!
//! The search is deterministic, so the decision, propagation and per-kind
//! wake totals of a pass are fixed; the bench fails when the totals of the
//! phase-by-phase route or of `Csp2GenericEngine` move, which means the
//! search tree changed. Speed is reported, not gated: for each phase and
//! for the whole engine solve, the mean time per instance of each pass, as
//! the median, minimum, 90th percentile and median absolute deviation over
//! the passes, and the mean allocations per instance of each phase over
//! the warm passes (every pass after the first, whose buffers start from
//! nothing), written to `bench/baselines/BENCH_generic_route.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use csp_engine::{Budget as CspBudget, SolverConfig, VarOrder};
use mgrts_core::csp2_generic;
use mgrts_core::engine::{Budget, CancelToken, Csp2GenericEngine, FeasibilitySolver};
use mgrts_obs::SearchStats;
use rt_gen::{GeneratorConfig, ProblemGenerator};

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is a
// relaxed atomic add with no effect on the allocation itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Minor page faults of the calling thread so far (field 10 of
/// `/proc/thread-self/stat`), where Linux reports them.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The command name may hold spaces; the fields after it do not.
    let rest = &stat[stat.rfind(')')? + 2..];
    rest.split(' ').nth(7)?.parse().ok()
}

const SEED: u64 = 2009;
const INSTANCES: u64 = 120;
const DECISIONS: u64 = 500;
const PASSES: usize = 15;
/// The totals of one pass: the search tree of the stream.
const TOTAL_DECISIONS: u64 = 60_120;
const TOTAL_PROPAGATIONS: u64 = 2_226_700;
/// Wakes per propagator kind in one pass, by kind name.
const TOTAL_WAKES: [(&str, u64); 3] = [
    ("count", 1_754_941),
    ("alldiff_fc", 119_308),
    ("leq_var", 352_451),
];

/// Phases of one solve, in order, then the whole engine solve.
const PHASES: [&str; 5] = ["encode", "build", "search", "drop", "engine"];

/// A pass's search totals: decisions, propagations and wakes per kind of
/// [`TOTAL_WAKES`].
type Totals = (u64, u64, [u64; TOTAL_WAKES.len()]);

/// Add `s`'s counters to `totals`; a kind outside [`TOTAL_WAKES`] fails.
fn tally(totals: &mut Totals, s: &SearchStats) {
    totals.0 += s.decisions;
    totals.1 += s.propagations;
    for k in &s.kinds {
        let slot = TOTAL_WAKES
            .iter()
            .position(|&(name, _)| name == k.kind)
            .unwrap_or_else(|| panic!("unexpected propagator kind {}", k.kind));
        totals.2[slot] += k.wakes;
    }
}

/// Median, minimum, nearest-rank 90th percentile and median absolute
/// deviation of `xs`.
fn summary(mut xs: Vec<f64>) -> [f64; 4] {
    xs.sort_by(f64::total_cmp);
    let median = xs[xs.len() / 2];
    let p90 = xs[(xs.len() * 9).div_ceil(10) - 1];
    let mut dev: Vec<f64> = xs.iter().map(|x| (x - median).abs()).collect();
    dev.sort_by(f64::total_cmp);
    [median, xs[0], p90, dev[dev.len() / 2]]
}

fn main() {
    let problems = ProblemGenerator::new(GeneratorConfig::table1(), SEED).batch(INSTANCES);
    let engine = Csp2GenericEngine::default();
    let budget = Budget {
        max_decisions: Some(DECISIONS),
        ..Budget::unlimited()
    };
    let cfg = SolverConfig {
        var_order: VarOrder::Input,
        ..SolverConfig::default()
    }
    .with_budget(CspBudget {
        time: None,
        max_decisions: Some(DECISIONS),
    });
    let cancel = CancelToken::new();
    let expected: Totals = (
        TOTAL_DECISIONS,
        TOTAL_PROPAGATIONS,
        TOTAL_WAKES.map(|(_, w)| w),
    );
    let per_instance = |secs: f64| secs * 1e6 / INSTANCES as f64;
    // Per phase, the mean microseconds per instance of each pass.
    let mut samples: [Vec<f64>; 5] = Default::default();
    // Per phase, allocations summed over the warm passes.
    let mut warm_allocs = [0u64; 4];
    // Minor faults of each pass's phase-split loop.
    let mut faults = Vec::new();
    for pass in 0..PASSES {
        let mut phase_s = [0.0f64; 4];
        let mut phase_allocs = [0u64; 4];
        let mut split: Totals = (0, 0, [0; TOTAL_WAKES.len()]);
        let faults_before = minor_faults();
        for p in &problems {
            let (a0, t0) = (allocations(), Instant::now());
            let (model, _layout) = csp2_generic::encode(&p.taskset, p.m, true)
                .expect("Table I instances are constrained-deadline");
            let (a1, t1) = (allocations(), Instant::now());
            let mut solver = model.into_solver(cfg);
            let (a2, t2) = (allocations(), Instant::now());
            black_box(solver.solve());
            let (a3, t3) = (allocations(), Instant::now());
            // Reading the counters allocates, so the drop starts after it.
            tally(&mut split, &solver.stats());
            let (a4, t4) = (allocations(), Instant::now());
            drop(solver);
            let (a5, t5) = (allocations(), Instant::now());
            let spans = [(t0, t1), (t1, t2), (t2, t3), (t4, t5)];
            for (k, (a, b)) in spans.iter().enumerate() {
                phase_s[k] += (*b - *a).as_secs_f64();
            }
            for (k, n) in [a1 - a0, a2 - a1, a3 - a2, a5 - a4].into_iter().enumerate() {
                phase_allocs[k] += n;
            }
        }
        if let (Some(a), Some(b)) = (faults_before, minor_faults()) {
            faults.push((b - a) as f64);
        }
        assert_eq!(
            split, expected,
            "the phase-split generic search tree changed"
        );
        if pass > 0 {
            for (w, n) in warm_allocs.iter_mut().zip(phase_allocs) {
                *w += n;
            }
        }

        let mut whole: Totals = (0, 0, [0; TOTAL_WAKES.len()]);
        let start = Instant::now();
        for p in &problems {
            let res = engine
                .solve(&p.taskset, p.m, &budget, &cancel)
                .expect("Table I instances are constrained-deadline");
            tally(&mut whole, &black_box(res).search.unwrap_or_default());
        }
        let engine_s = start.elapsed().as_secs_f64();
        assert_eq!(
            whole, expected,
            "the csp2-generic engine's search tree changed"
        );

        for (k, s) in phase_s.into_iter().chain([engine_s]).enumerate() {
            samples[k].push(per_instance(s));
        }
    }

    let warm_solves = (PASSES as u64 - 1) * INSTANCES;
    let allocs = warm_allocs.map(|n| n as f64 / warm_solves as f64);
    let mut rows = Vec::new();
    for (k, (name, xs)) in PHASES.iter().zip(samples).enumerate() {
        let [median, min, p90, mad] = summary(xs);
        let alloc = allocs.get(k);
        println!(
            "generic_route {name:>6}: median {median:8.1} us/instance, min {min:8.1}, \
             p90 {p90:8.1}, MAD {mad:6.1} over {PASSES} passes{}",
            alloc.map_or(String::new(), |a| format!(", {a:7.1} allocations/instance"))
        );
        let alloc_field = alloc.map_or(String::new(), |a| format!(", \"allocs\": {a:.1}"));
        rows.push(format!(
            "  \"{name}_us\": {{\"median\": {median:.1}, \"min\": {min:.1}, \
             \"p90\": {p90:.1}, \"mad\": {mad:.1}{alloc_field}}}"
        ));
    }
    let faults_field = if faults.is_empty() {
        String::new()
    } else {
        let [median, min, ..] = summary(faults);
        println!("generic_route: {median:.0} minor faults per pass (median; min {min:.0})");
        format!("  \"minor_faults_per_pass\": {median:.0},\n")
    };
    let wakes: Vec<String> = TOTAL_WAKES
        .iter()
        .map(|(k, w)| format!("\"{k}\": {w}"))
        .collect();
    println!(
        "generic_route: {TOTAL_DECISIONS} decisions, {TOTAL_PROPAGATIONS} propagations, \
         wakes {{{}}} per pass",
        wakes.join(", ")
    );
    let json = format!(
        "{{\n  \"bench\": \"generic_route\",\n  \
         \"stream\": \"first {INSTANCES} Table I instances, seed {SEED}, csp2-generic, \
         {DECISIONS} decisions each\",\n  \
         \"decisions\": {TOTAL_DECISIONS},\n  \"propagations\": {TOTAL_PROPAGATIONS},\n  \
         \"wakes\": {{{}}},\n  \"passes\": {PASSES},\n{faults_field}  \
         \"unit\": \"microseconds per instance, per pass; allocations per instance, \
         warm passes\",\n{}\n}}\n",
        wakes.join(", "),
        rows.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/baselines/BENCH_generic_route.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}\n{json}"),
    }
}

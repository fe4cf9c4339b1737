//! The experiment-campaign engine: declarative manifests, sharded
//! resumable execution, and table reports over the record store.
//!
//! The paper's evaluation is a set of *campaigns* — thousands of generated
//! instances swept over utilization × task-count × processor-count grids
//! and reduced to Tables I–IV. This module turns that from bespoke
//! per-binary loops into one engine:
//!
//! 1. a [`Manifest`] (TOML subset) declares the scenario grid and budgets;
//! 2. [`crate::shard::plan_shards`] splits the grid into content-hashed
//!    work units;
//! 3. [`run_fresh`]/[`resume`] drain the shards in this process through
//!    the same lease-claiming loop as `campaign worker`
//!    ([`crate::queue::run_worker`]): each thread claims the next pending
//!    shard, so load balances without a coordinator, with per-shard
//!    budgets and cooperative cancellation via [`CancelGroup`];
//! 4. completed shards stream to the JSONL record store
//!    ([`crate::sink`]); a killed campaign resumes exactly where it
//!    stopped, deduping replayed shards by hash;
//! 5. [`report`] reduces the record store to the paper's tables, and every
//!    invocation emits a machine-readable `BENCH_<name>.json` [`Summary`]
//!    that seeds the perf trajectory ([`gate`] compares two of them in
//!    CI).

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use mgrts_core::engine::{CancelGroup, PlatformSpec, SolverSpec};
use mgrts_obs::flight;
use rt_gen::{derive_stream_seed, ProblemGenerator, RateMatrixGen};

use crate::policy::{AdaptiveSpec, Policy, PolicyKind, PolicySpec};
use crate::queue::{ParkedShard, WorkerOptions};
use crate::runner::InstanceOutcome;
use crate::shard::{plan_shards, Cell, CellM, Shard};
use crate::sink::{
    canonical_export, load_records, CampaignRecord, LocalStore, RecordStore, CANONICAL_FILE,
    CHECKPOINT_FILE, LOCAL_WRITER, RECORDS_FILE,
};
use crate::tables;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Campaign-level failures.
#[derive(Debug)]
pub enum CampaignError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Manifest syntax or semantics.
    Manifest(String),
    /// Record-store inconsistency (wrong manifest, impossible band, …).
    Store(String),
    /// Two runs of one unit split Solved / ProvedInfeasible: the rendered
    /// summary followed by every conflicting unit (see
    /// [`verdict_conflicts`]).
    Conflicts(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io(e) => write!(f, "campaign I/O: {e}"),
            CampaignError::Manifest(e) => write!(f, "manifest: {e}"),
            CampaignError::Store(e) => write!(f, "record store: {e}"),
            CampaignError::Conflicts(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// A declarative campaign: scenario grid × budgets × solver roster.
///
/// The on-disk format is a TOML subset (two tables, scalar and single-line
/// array values, `#` comments):
///
/// ```toml
/// [campaign]
/// name = "smoke"
/// seed = 2009
/// time_limit_ms = 250        # per-run wall-clock budget
/// instances_per_cell = 40
/// shard_size = 12            # runs per shard (checkpoint granularity)
/// # max_shard_ms = 60000     # optional per-shard wall allowance
///
/// [grid]
/// n = [10]
/// m = [5]                    # integers or "auto" (m = ⌈U⌉)
/// t_max = [7]
/// utilization = ["*"]        # "*" or "lo..hi" bands
/// hetero = [false]
/// solvers = ["csp1", "csp2", "csp2-rm", "csp2-dm", "csp2-tc", "csp2-dc"]
///
/// [policy]                   # optional; defaults to mode = "single"
/// mode = "portfolio-race"    # race the roster per instance
/// adaptive_quantile = 0.9    # cap budgets at the p90 of recorded times
/// adaptive_min_samples = 8   # decided samples per cell before it engages
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Campaign name (`BENCH_<name>.json`).
    pub name: String,
    /// Master seed; every cell samples its instance stream from it.
    pub seed: u64,
    /// Per-run wall-clock budget.
    pub time_limit: Duration,
    /// Instances per grid cell.
    pub instances_per_cell: u64,
    /// Runs per shard — the checkpoint granularity.
    pub shard_size: usize,
    /// Optional per-shard wall allowance; runs beyond it are classified as
    /// overruns (trades canonical-export determinism for bounded shards).
    pub max_shard: Option<Duration>,
    /// Rejection-sampling scan cap for utilization bands.
    pub band_scan_limit: u64,
    /// The expanded scenario grid, in canonical (n, m, t_max, band,
    /// hetero) nesting order.
    pub cells: Vec<Cell>,
    /// Solver roster; every instance runs once per entry (`single`
    /// policy) or races the whole roster once (`portfolio-race`).
    pub roster: Vec<SolverSpec>,
    /// Execution policy (the optional `[policy]` manifest section): what
    /// runs per unit, and with what budget. The default — single solver,
    /// manifest budgets — keeps pre-policy fingerprints byte-identical.
    pub policy: PolicySpec,
}

/// Parsed value of the TOML subset.
#[derive(Debug, Clone, PartialEq)]
enum TomlVal {
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(String),
    Array(Vec<TomlVal>),
}

fn parse_scalar(s: &str) -> Result<TomlVal, String> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(format!("unterminated string: {s}"));
        };
        if inner.contains('"') {
            return Err(format!("embedded quote in string: {s}"));
        }
        return Ok(TomlVal::Str(inner.to_string()));
    }
    match s {
        "true" => return Ok(TomlVal::Bool(true)),
        "false" => return Ok(TomlVal::Bool(false)),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        return Ok(TomlVal::Int(i));
    }
    if let Ok(f) = s.parse::<f64>() {
        return Ok(TomlVal::Float(f));
    }
    Err(format!("unparseable value: {s}"))
}

fn parse_value(s: &str) -> Result<TomlVal, String> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix('[') {
        let Some(inner) = rest.strip_suffix(']') else {
            return Err(format!("unterminated array: {s}"));
        };
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(TomlVal::Array(Vec::new()));
        }
        let items = inner
            .split(',')
            .map(parse_scalar)
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(TomlVal::Array(items));
    }
    parse_scalar(s)
}

/// Strip a trailing comment that is not inside a string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

impl Manifest {
    /// Parse a manifest from TOML-subset text.
    pub fn parse(text: &str) -> Result<Manifest, CampaignError> {
        let err = |m: String| CampaignError::Manifest(m);
        let mut section = String::new();
        let mut entries: Vec<(String, TomlVal)> = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(err(format!("line {}: malformed section", ln + 1)));
                };
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(format!("line {}: expected `key = value`", ln + 1)));
            };
            let key = format!("{section}.{}", key.trim());
            let value = parse_value(value).map_err(|e| err(format!("line {}: {e}", ln + 1)))?;
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(err(format!("line {}: duplicate key {key}", ln + 1)));
            }
            entries.push((key, value));
        }
        let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let req = |key: &str| get(key).ok_or_else(|| err(format!("missing key {key}")));
        let as_u64 = |key: &str, v: &TomlVal| match v {
            TomlVal::Int(i) if *i >= 0 => Ok(*i as u64),
            _ => Err(err(format!("{key}: expected a non-negative integer"))),
        };
        let opt_u64 = |key: &str| -> Result<Option<u64>, CampaignError> {
            get(key).map(|v| as_u64(key, v)).transpose()
        };
        let arr = |key: &str| -> Result<&[TomlVal], CampaignError> {
            match req(key)? {
                TomlVal::Array(items) if !items.is_empty() => Ok(items),
                TomlVal::Array(_) => Err(err(format!("{key}: must not be empty"))),
                _ => Err(err(format!("{key}: expected an array"))),
            }
        };

        let name = match req("campaign.name")? {
            TomlVal::Str(s)
                if !s.is_empty()
                    && s.chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_') =>
            {
                s.clone()
            }
            _ => return Err(err("campaign.name: expected a [A-Za-z0-9_-]+ string".into())),
        };
        let seed = opt_u64("campaign.seed")?.unwrap_or(2009);
        let time_limit = Duration::from_millis(opt_u64("campaign.time_limit_ms")?.unwrap_or(1000));
        let instances_per_cell = opt_u64("campaign.instances_per_cell")?
            .filter(|&c| c > 0)
            .ok_or_else(|| err("campaign.instances_per_cell: required, > 0".into()))?;
        let shard_size = opt_u64("campaign.shard_size")?.unwrap_or(32).max(1) as usize;
        let max_shard = opt_u64("campaign.max_shard_ms")?.map(Duration::from_millis);
        let band_scan_limit = opt_u64("campaign.band_scan_limit")?.unwrap_or(200_000);

        let ns = arr("grid.n")?
            .iter()
            .map(|v| as_u64("grid.n", v).map(|n| n as usize))
            .collect::<Result<Vec<_>, _>>()?;
        let ms = arr("grid.m")?
            .iter()
            .map(|v| match v {
                TomlVal::Int(i) if *i > 0 => Ok(CellM::Fixed(*i as usize)),
                TomlVal::Str(s) if s == "auto" => Ok(CellM::Auto),
                _ => Err(err(
                    "grid.m: entries are positive integers or \"auto\"".into()
                )),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let t_maxes = arr("grid.t_max")?
            .iter()
            .map(|v| as_u64("grid.t_max", v))
            .collect::<Result<Vec<_>, _>>()?;
        let bands = match get("grid.utilization") {
            None => vec![None],
            Some(TomlVal::Array(items)) if !items.is_empty() => items
                .iter()
                .map(|v| match v {
                    TomlVal::Str(s) if s == "*" => Ok(None),
                    TomlVal::Str(s) => {
                        let (lo, hi) = s.split_once("..").ok_or_else(|| {
                            err(format!("grid.utilization: `{s}` is not `lo..hi`"))
                        })?;
                        let lo: f64 = lo.trim().parse().map_err(|_| {
                            err(format!("grid.utilization: bad lower bound in `{s}`"))
                        })?;
                        let hi: f64 = hi.trim().parse().map_err(|_| {
                            err(format!("grid.utilization: bad upper bound in `{s}`"))
                        })?;
                        if lo >= hi || lo.is_nan() || hi.is_nan() {
                            return Err(err(format!("grid.utilization: empty band `{s}`")));
                        }
                        Ok(Some((lo, hi)))
                    }
                    _ => Err(err("grid.utilization: entries are strings".into())),
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err(err("grid.utilization: expected an array".into())),
        };
        let heteros = match get("grid.hetero") {
            None => vec![false],
            Some(TomlVal::Array(items)) if !items.is_empty() => items
                .iter()
                .map(|v| match v {
                    TomlVal::Bool(b) => Ok(*b),
                    _ => Err(err("grid.hetero: entries are booleans".into())),
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err(err("grid.hetero: expected an array".into())),
        };
        let roster = arr("grid.solvers")?
            .iter()
            .map(|v| match v {
                TomlVal::Str(s) => s.parse::<SolverSpec>().map_err(err),
                _ => Err(err("grid.solvers: entries are strings".into())),
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Records are keyed by (cell, instance, solver); a duplicated
        // roster entry would run twice but collapse to one record.
        if let Some(dup) = roster
            .iter()
            .enumerate()
            .find(|(i, s)| roster[..*i].contains(s))
        {
            return Err(err(format!("grid.solvers: duplicate entry `{}`", *dup.1)));
        }

        let mode = match get("policy.mode") {
            None => PolicyKind::Single,
            Some(TomlVal::Str(s)) => s.parse::<PolicyKind>().map_err(err)?,
            Some(_) => return Err(err("policy.mode: expected a string".into())),
        };
        let adaptive = match get("policy.adaptive_quantile") {
            None => {
                if get("policy.adaptive_min_samples").is_some() {
                    return Err(err(
                        "policy.adaptive_min_samples requires policy.adaptive_quantile".into(),
                    ));
                }
                None
            }
            Some(v) => {
                let quantile = match v {
                    TomlVal::Float(f) => *f,
                    TomlVal::Int(i) => *i as f64,
                    _ => return Err(err("policy.adaptive_quantile: expected a number".into())),
                };
                let min_samples = opt_u64("policy.adaptive_min_samples")?
                    .unwrap_or(AdaptiveSpec::DEFAULT_MIN_SAMPLES);
                Some(
                    AdaptiveSpec::new(quantile, min_samples)
                        .map_err(|e| err(format!("policy.adaptive_quantile: {e}")))?,
                )
            }
        };
        let policy = PolicySpec { mode, adaptive };

        let mut cells = Vec::new();
        for &n in &ns {
            for &m in &ms {
                for &t_max in &t_maxes {
                    for &band in &bands {
                        for &hetero in &heteros {
                            if let CellM::Fixed(m) = m {
                                if m == 0 {
                                    return Err(err("grid.m: m must be ≥ 1".into()));
                                }
                            }
                            if n == 0 || t_max == 0 {
                                return Err(err("grid.n/t_max: must be ≥ 1".into()));
                            }
                            cells.push(Cell {
                                n,
                                m,
                                t_max,
                                band,
                                hetero,
                            });
                        }
                    }
                }
            }
        }

        Ok(Manifest {
            name,
            seed,
            time_limit,
            instances_per_cell,
            shard_size,
            max_shard,
            band_scan_limit,
            cells,
            roster,
            policy,
        })
    }

    /// Load from a file.
    pub fn load(path: &Path) -> Result<Manifest, CampaignError> {
        Manifest::parse(&std::fs::read_to_string(path)?)
    }

    /// Canonical TOML re-serialization — what `run` stores in the record
    /// store so `resume`/`report` are self-contained. Note the grid is
    /// stored in expanded per-cell form: parsing it back yields the same
    /// cells (expansion is idempotent for single-value axes, so the
    /// canonical form lists one axis entry per original combination only
    /// when axes were singletons; to stay exact we store each axis's
    /// de-duplicated values, which regenerate the identical product).
    #[must_use]
    pub fn to_toml(&self) -> String {
        fn uniq<T: PartialEq + Clone>(items: impl Iterator<Item = T>) -> Vec<T> {
            let mut out = Vec::new();
            for x in items {
                if !out.contains(&x) {
                    out.push(x);
                }
            }
            out
        }
        let ns = uniq(self.cells.iter().map(|c| c.n));
        let ms = uniq(self.cells.iter().map(|c| c.m));
        let t_maxes = uniq(self.cells.iter().map(|c| c.t_max));
        let bands = uniq(self.cells.iter().map(|c| c.band));
        let heteros = uniq(self.cells.iter().map(|c| c.hetero));
        let join = |items: Vec<String>| items.join(", ");
        let mut out = String::from("[campaign]\n");
        out.push_str(&format!("name = \"{}\"\n", self.name));
        out.push_str(&format!("seed = {}\n", self.seed));
        out.push_str(&format!(
            "time_limit_ms = {}\n",
            self.time_limit.as_millis()
        ));
        out.push_str(&format!(
            "instances_per_cell = {}\n",
            self.instances_per_cell
        ));
        out.push_str(&format!("shard_size = {}\n", self.shard_size));
        if let Some(d) = self.max_shard {
            out.push_str(&format!("max_shard_ms = {}\n", d.as_millis()));
        }
        out.push_str(&format!("band_scan_limit = {}\n", self.band_scan_limit));
        out.push_str("\n[grid]\n");
        out.push_str(&format!(
            "n = [{}]\n",
            join(ns.iter().map(ToString::to_string).collect())
        ));
        out.push_str(&format!(
            "m = [{}]\n",
            join(
                ms.iter()
                    .map(|m| match m {
                        CellM::Fixed(m) => m.to_string(),
                        CellM::Auto => "\"auto\"".to_string(),
                    })
                    .collect()
            )
        ));
        out.push_str(&format!(
            "t_max = [{}]\n",
            join(t_maxes.iter().map(ToString::to_string).collect())
        ));
        out.push_str(&format!(
            "utilization = [{}]\n",
            join(
                bands
                    .iter()
                    .map(|b| match b {
                        None => "\"*\"".to_string(),
                        Some((lo, hi)) => format!("\"{lo}..{hi}\""),
                    })
                    .collect()
            )
        ));
        out.push_str(&format!(
            "hetero = [{}]\n",
            join(heteros.iter().map(ToString::to_string).collect())
        ));
        out.push_str(&format!(
            "solvers = [{}]\n",
            join(self.roster.iter().map(|s| format!("\"{s}\"")).collect())
        ));
        if !self.policy.is_default() {
            out.push_str("\n[policy]\n");
            out.push_str(&format!("mode = \"{}\"\n", self.policy.mode));
            if let Some(a) = &self.policy.adaptive {
                out.push_str(&format!("adaptive_quantile = {}\n", a.quantile));
                out.push_str(&format!("adaptive_min_samples = {}\n", a.min_samples));
            }
        }
        out
    }

    /// Canonical fingerprint over everything that determines the work —
    /// the prefix of every shard's content hash. The campaign *name* is
    /// deliberately excluded: two differently-named campaigns over the
    /// same grid do the same work, share shard hashes, and gate against
    /// each other. A non-default `[policy]` appends its tag, so changing
    /// the policy re-shards; the default appends nothing, keeping
    /// pre-policy stores and committed baselines valid.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut fp = self.workload_fingerprint();
        if !self.policy.is_default() {
            fp.push_str(&format!(";policy={}", self.policy.tag()));
        }
        fp
    }

    /// The policy-independent part of the fingerprint: the generated
    /// workload itself. Two campaigns with equal workload fingerprints
    /// solve the same instances under the same roster and global limit —
    /// the precondition of the cross-policy [`parity`] comparison.
    #[must_use]
    pub fn workload_fingerprint(&self) -> String {
        let cells: Vec<String> = self.cells.iter().map(|c| c.tag()).collect();
        let roster: Vec<&str> = self.roster.iter().map(|s| s.name()).collect();
        format!(
            "seed={};limit_ms={};per_cell={};shard={};max_shard_ms={};scan={};cells=[{}];roster=[{}]",
            self.seed,
            self.time_limit.as_millis(),
            self.instances_per_cell,
            self.shard_size,
            self.max_shard.map_or("none".to_string(), |d| d.as_millis().to_string()),
            self.band_scan_limit,
            cells.join(","),
            roster.join(","),
        )
    }

    /// The Tables I–III workload as a campaign: one cell with the paper's
    /// m = 5, n = 10, Tmax = 7 and the six-solver roster. Both the
    /// `table1`/`table3` binaries and the committed smoke manifest reduce
    /// to this constructor, which is what makes `mgrts bench campaign run`
    /// + `report table1` reproduce the binary byte-for-byte.
    #[must_use]
    pub fn table1(name: &str, instances: u64, seed: u64, time_limit: Duration) -> Manifest {
        Manifest {
            name: name.to_string(),
            seed,
            time_limit,
            instances_per_cell: instances,
            shard_size: 24,
            max_shard: None,
            band_scan_limit: 200_000,
            cells: vec![Cell {
                n: 10,
                m: CellM::Fixed(5),
                t_max: 7,
                band: None,
                hetero: false,
            }],
            roster: SolverSpec::TABLE1_ROSTER.to_vec(),
            policy: PolicySpec::default(),
        }
    }

    /// The Table IV workload as a campaign: one cell per n with Tmax = 15,
    /// m = ⌈U⌉, solved by CSP1 and CSP2+(D-C).
    #[must_use]
    pub fn table4(ns: &[usize], instances: u64, seed: u64, time_limit: Duration) -> Manifest {
        Manifest {
            name: "table4".to_string(),
            seed,
            time_limit,
            instances_per_cell: instances,
            shard_size: 4,
            max_shard: None,
            band_scan_limit: 200_000,
            cells: ns
                .iter()
                .map(|&n| Cell {
                    n,
                    m: CellM::Auto,
                    t_max: 15,
                    band: None,
                    hetero: false,
                })
                .collect(),
            roster: vec![
                SolverSpec::Csp1,
                SolverSpec::Csp2(mgrts_core::heuristics::TaskOrder::DeadlineMinusWcet),
            ],
            policy: PolicySpec::default(),
        }
    }

    /// The campaign's deterministic shard plan.
    #[must_use]
    pub fn plan(&self) -> Vec<Shard> {
        plan_shards(
            &self.cells,
            self.instances_per_cell,
            &self.roster,
            self.shard_size,
            &self.fingerprint(),
            self.policy.mode,
        )
    }

    /// Total run units in the campaign (racing policies collapse the
    /// solver axis into one unit per instance).
    #[must_use]
    pub fn total_runs(&self) -> u64 {
        self.cells.len() as u64
            * self.instances_per_cell
            * self.policy.mode.units_per_instance(self.roster.len()) as u64
    }

    /// Build this campaign's execution policy over a snapshot of `store`.
    pub fn build_policy(&self, store: &dyn RecordStore) -> Result<Policy, CampaignError> {
        Policy::new(self, store)
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// Execution knobs orthogonal to the manifest (they do not change the
/// work, only how fast / how much of it runs this invocation).
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads.
    pub threads: usize,
    /// Progress lines on stderr.
    pub progress: bool,
    /// Stop (resumably) after committing this many shards this invocation.
    pub max_shards: Option<u64>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            progress: false,
            max_shards: None,
        }
    }
}

/// What one `run`, `resume` or `worker` invocation accomplished.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Summary over the whole store at exit (also written to
    /// `BENCH_<name>.json`).
    pub summary: Summary,
    /// Shards committed by this invocation.
    pub shards_committed: u64,
    /// Shards parked as poison (repeated panics) at exit: the drain
    /// finished everything *else*; these need operator attention. `run`
    /// and `resume` turn a parked shard into an error instead.
    pub parked: Vec<ParkedShard>,
}

/// Start a campaign from scratch in `out_dir`: clears any previous record
/// store, writes the canonical manifest, executes every shard. This is a
/// fresh [`dispatch`](crate::queue::dispatch) followed by [`resume`].
pub fn run_fresh(
    manifest: &Manifest,
    out_dir: &Path,
    opts: &CampaignOptions,
    cancel: &CancelGroup,
) -> Result<CampaignOutcome, CampaignError> {
    // A killed predecessor's leases would otherwise hold the store
    // "busy" for a lease TTL.
    crate::queue::clear_leases(out_dir, Some(LOCAL_WRITER))?;
    crate::queue::dispatch(manifest, out_dir, true)?;
    resume(out_dir, opts, cancel)
}

/// Resume the campaign recorded in `out_dir`: reload its manifest, skip
/// every checkpointed shard, run the rest in this process — as the
/// worker [`LOCAL_WRITER`], which commits to the default segment.
///
/// Every unchecked shard gets [`PARK_AFTER`](crate::queue::PARK_AFTER)
/// fresh attempts. A shard that panics that often fails the call, after
/// every other shard has been drained.
pub fn resume(
    out_dir: &Path,
    opts: &CampaignOptions,
    cancel: &CancelGroup,
) -> Result<CampaignOutcome, CampaignError> {
    let (store, manifest, shards) = crate::queue::open_plan(out_dir)?;
    // One store has at most one in-process run: take over the leases a
    // killed predecessor left instead of waiting out their TTL, and
    // forget every strike.
    crate::queue::clear_leases(out_dir, Some(LOCAL_WRITER))?;
    let worker = WorkerOptions {
        id: LOCAL_WRITER.to_string(),
        threads: opts.threads,
        max_shards: opts.max_shards,
        progress: opts.progress,
        ..WorkerOptions::default()
    };
    let outcome = crate::queue::drain(out_dir, &store, &manifest, &shards, &worker, cancel)?;
    let poisoned = shards.iter().find_map(|shard| {
        let p = outcome.parked.iter().find(|p| p.shard == shard.hash)?;
        Some((shard, p))
    });
    if let Some((shard, p)) = poisoned {
        return Err(CampaignError::Store(format!(
            "shard {} (index {}) panicked {} times, giving up: {}",
            shard.hash, shard.index, p.fails, p.reason
        )));
    }
    Ok(outcome)
}

/// Human-readable reason from a caught panic payload (`&str` / `String`
/// payloads verbatim, anything else a placeholder).
pub(crate) fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Run every unit of one shard through the campaign's execution policy.
/// Returns `Ok(None)` when cancellation preempted the shard (nothing is
/// committed; resume re-runs it whole). A shard's records depend only on
/// the manifest + policy, never on which worker runs it.
pub(crate) fn run_shard(
    manifest: &Manifest,
    policy: &Policy,
    shard: &Shard,
    cancel: &CancelGroup,
) -> Result<Option<Vec<CampaignRecord>>, CampaignError> {
    let token = cancel.register();
    let mut sp = flight::span("shard.run", &shard.hash);
    let deadline = manifest.max_shard.map(|d| Instant::now() + d);
    let mut records = Vec::with_capacity(shard.units.len());
    // Units are ordered (cell, instance, solver), so the whole roster of
    // one instance is consecutive — generate the instance once and reuse
    // it (for banded cells generation is a rejection *scan*, not a lookup).
    let mut cached: Option<((usize, u64), rt_gen::Problem)> = None;
    for unit in &shard.units {
        if token.is_cancelled() {
            sp.set_detail("cancelled");
            return Ok(None);
        }
        let cell = &manifest.cells[unit.cell];
        // For racing policies the plan pins unit.solver to 0, so this is
        // the deterministic roster-head placeholder race records carry.
        let solver = manifest.roster[unit.solver];
        let p = match &cached {
            Some((key, p)) if *key == (unit.cell, unit.instance) => p.clone(),
            _ => {
                let gen = ProblemGenerator::new(cell.generator_config(), manifest.seed);
                let p = match cell.band {
                    None => gen.nth(unit.instance),
                    Some((lo, hi)) => gen
                        .nth_in_band(unit.instance, lo, hi, manifest.band_scan_limit)
                        .ok_or_else(|| {
                            CampaignError::Store(format!(
                                "cell {}: fewer than {} instances in utilization band \
                                 [{lo}, {hi}) within the first {} samples",
                                cell.tag(),
                                unit.instance + 1,
                                manifest.band_scan_limit
                            ))
                        })?,
                };
                cached = Some(((unit.cell, unit.instance), p.clone()));
                p
            }
        };
        let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let (budget, budget_source) = policy.unit_budget(unit.cell);
        let budget = budget.capped(remaining);
        let spec = if cell.hetero {
            PlatformSpec::Heterogeneous(RateMatrixGen::default().generate(
                p.taskset.len(),
                p.m,
                derive_stream_seed(p.seed, "platform"),
            ))
        } else {
            PlatformSpec::identical(p.m)
        };
        let exec = policy.execute(&p, &spec, unit.solver, &budget, &token);
        if exec.outcome == InstanceOutcome::Cancelled {
            // Don't commit half-truths: a cancelled unit means the shard
            // must re-run on resume.
            sp.set_detail("cancelled");
            return Ok(None);
        }
        records.push(CampaignRecord {
            shard: shard.hash.clone(),
            cell: unit.cell,
            instance: unit.instance,
            global_instance: unit.cell as u64 * manifest.instances_per_cell + unit.instance,
            solver,
            outcome: exec.outcome,
            time_us: exec.time_us,
            ratio: p.utilization_ratio(),
            filtered: p.filtered_out(),
            m: p.m,
            n: cell.n,
            t_max: cell.t_max,
            hetero: cell.hetero,
            hyperperiod: p.taskset.hyperperiod().unwrap_or(0),
            seed: p.seed,
            policy: Some(policy.kind),
            winner: exec.winner,
            budget_source: Some(budget_source),
            cancel_latency_us: exec.cancel_latency_us,
            backends: exec.backends,
            search: exec.search,
        });
    }
    sp.set_detail(&format!("{} units", records.len()));
    Ok(Some(records))
}

// ---------------------------------------------------------------------------
// Summary + perf gate
// ---------------------------------------------------------------------------

/// Per-solver aggregate of a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverSummary {
    /// Total runs.
    pub runs: u64,
    /// Feasible schedules found (verified).
    pub solved: u64,
    /// Infeasibility proofs.
    pub infeasible: u64,
    /// Wall-clock overruns.
    pub overrun: u64,
    /// Encoding-size-guard hits.
    pub too_large: u64,
    /// Runs without a decision procedure for the cell's platform.
    pub unsupported: u64,
    /// Overruns / runs.
    pub timeout_rate: f64,
    /// Mean wall-clock per run, microseconds.
    pub mean_time_us: u64,
}

/// The machine-readable `BENCH_<name>.json` artifact: the perf-trajectory
/// sample a campaign invocation leaves behind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Campaign name.
    pub campaign: String,
    /// Manifest fingerprint (ties the summary to the exact work).
    pub fingerprint: String,
    /// Did every shard commit?
    pub completed: bool,
    /// Shards in the plan.
    pub shards_total: u64,
    /// Shards committed so far (across invocations).
    pub shards_done: u64,
    /// Believable records in the store.
    pub records: u64,
    /// Wall-clock of this invocation, milliseconds.
    pub wall_ms: u64,
    /// Per-solver aggregates, in roster order.
    pub solvers: Vec<(String, SolverSummary)>,
}

/// Reduce a record set to its [`Summary`]. Under the `single` policy the
/// rows are the roster solvers; a racing campaign collapses to one
/// `portfolio` row (each unit ran the whole roster — per-backend splits
/// live in `report winners`, not the summary).
#[must_use]
pub fn summarize(
    manifest: &Manifest,
    records: &[CampaignRecord],
    shards_total: u64,
    shards_done: u64,
    wall_ms: u64,
) -> Summary {
    let aggregate = |runs: &[&CampaignRecord]| {
        let count = |o: InstanceOutcome| runs.iter().filter(|r| r.outcome == o).count() as u64;
        let total = runs.len() as u64;
        let overrun = count(InstanceOutcome::Overrun);
        let mean_time_us = if runs.is_empty() {
            0
        } else {
            runs.iter().map(|r| r.time_us).sum::<u64>() / total
        };
        SolverSummary {
            runs: total,
            solved: count(InstanceOutcome::Solved),
            infeasible: count(InstanceOutcome::ProvedInfeasible),
            overrun,
            too_large: count(InstanceOutcome::TooLarge),
            unsupported: count(InstanceOutcome::Unsupported),
            timeout_rate: if total == 0 {
                0.0
            } else {
                overrun as f64 / total as f64
            },
            mean_time_us,
        }
    };
    let solvers = match manifest.policy.mode {
        PolicyKind::Single => manifest
            .roster
            .iter()
            .map(|&spec| {
                let runs: Vec<&CampaignRecord> =
                    records.iter().filter(|r| r.solver == spec).collect();
                (spec.name().to_string(), aggregate(&runs))
            })
            .collect(),
        PolicyKind::PortfolioRace => {
            let all: Vec<&CampaignRecord> = records.iter().collect();
            vec![("portfolio".to_string(), aggregate(&all))]
        }
    };
    Summary {
        campaign: manifest.name.clone(),
        fingerprint: manifest.fingerprint(),
        completed: shards_done == shards_total,
        shards_total,
        shards_done,
        records: records.len() as u64,
        wall_ms,
        solvers,
    }
}

/// Outcome of a perf-gate comparison.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Did the summary pass the gate?
    pub ok: bool,
    /// Human-readable findings, failures first.
    pub lines: Vec<String>,
}

/// Compare a fresh summary against a committed baseline: fail on a
/// wall-time regression beyond `tolerance` (0.25 = +25%) or on any solver
/// *verdict drift* — decided-count movement not explainable by budget
/// straddles, plus any too-large / unsupported / run-count change. Runs
/// trading places between a decided verdict and Overrun are timing noise
/// and only warn.
#[must_use]
pub fn gate(current: &Summary, baseline: &Summary, tolerance: f64) -> GateReport {
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    if current.fingerprint != baseline.fingerprint {
        failures.push(format!(
            "fingerprint mismatch: current `{}` vs baseline `{}` — the gate \
             compares different campaigns",
            current.fingerprint, baseline.fingerprint
        ));
    }
    if !current.completed {
        failures.push("current campaign is incomplete".to_string());
    }
    let allowed = baseline.wall_ms as f64 * (1.0 + tolerance);
    if (current.wall_ms as f64) > allowed {
        failures.push(format!(
            "wall-time regression: {} ms vs baseline {} ms (> +{:.0}%)",
            current.wall_ms,
            baseline.wall_ms,
            tolerance * 100.0
        ));
    } else {
        notes.push(format!(
            "wall time {} ms within budget ({} ms baseline, +{:.0}% allowed)",
            current.wall_ms,
            baseline.wall_ms,
            tolerance * 100.0
        ));
    }
    for (name, base) in &baseline.solvers {
        match current.solvers.iter().find(|(n, _)| n == name) {
            None => failures.push(format!("solver {name} missing from current summary")),
            Some((_, cur)) => {
                // A run whose solve time straddles the budget flips between
                // a decided verdict and Overrun across machines, so raw
                // solved/infeasible counts are timing-dependent. What no
                // amount of timing noise can produce is decided-count
                // movement *beyond* the overrun exchange: every budget
                // straddle moves one decided count and the overrun count by
                // one each, so |Δsolved| + |Δinfeasible| ≤ |Δoverrun|
                // always holds under timing noise, while a genuine verdict
                // flip (Solved↔Infeasible — a soundness bug) violates it.
                let d = |b: u64, c: u64| b.abs_diff(c);
                if d(base.solved, cur.solved) + d(base.infeasible, cur.infeasible)
                    > d(base.overrun, cur.overrun)
                {
                    failures.push(format!(
                        "verdict drift: {name} solved {} → {}, infeasible {} → {} is not \
                         explainable by overrun movement ({} → {})",
                        base.solved,
                        cur.solved,
                        base.infeasible,
                        cur.infeasible,
                        base.overrun,
                        cur.overrun
                    ));
                }
                for (what, b, c) in [
                    ("too_large", base.too_large, cur.too_large),
                    ("unsupported", base.unsupported, cur.unsupported),
                    ("runs", base.runs, cur.runs),
                ] {
                    if b != c {
                        failures.push(format!("verdict drift: {name}.{what} {b} → {c}"));
                    }
                }
                if base.overrun != cur.overrun {
                    notes.push(format!(
                        "note: {name}.overrun {} → {} (timing-dependent, not gated)",
                        base.overrun, cur.overrun
                    ));
                }
            }
        }
    }
    for (name, _) in &current.solvers {
        if !baseline.solvers.iter().any(|(n, _)| n == name) {
            failures.push(format!("solver {name} absent from baseline"));
        }
    }
    let ok = failures.is_empty();
    let mut lines = failures;
    lines.extend(notes);
    GateReport { ok, lines }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Which report to render from a record store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// Tables I & II (overruns by solved partition and by filter).
    Table1,
    /// Table III (instance distribution / mean time by utilization bucket).
    Table3,
    /// Table IV (scaling rows, one per grid cell).
    Table4,
    /// The heterogeneity dimension: per-backend support/verdict counts on
    /// the grid's heterogeneous cells.
    Hetero,
    /// Per-cell winner counts of a portfolio-race campaign (the paper's
    /// Table I as a single racing campaign).
    Winners,
    /// Per-cell aggregated search telemetry (decisions, backtracks,
    /// propagator activity) from the records' `search` blocks.
    Profile,
    /// The `BENCH_<name>.json` summary, as text.
    Summary,
}

impl std::str::FromStr for ReportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "table1" | "table2" => ReportKind::Table1,
            "table3" => ReportKind::Table3,
            "table4" => ReportKind::Table4,
            "hetero" => ReportKind::Hetero,
            "winners" => ReportKind::Winners,
            "profile" => ReportKind::Profile,
            "summary" => ReportKind::Summary,
            other => {
                return Err(format!(
                "unknown report `{other}` (expected table1|table3|table4|hetero|winners|profile|summary)"
            ))
            }
        })
    }
}

/// Render a report over a record store directory.
pub fn report(out_dir: &Path, kind: ReportKind) -> Result<String, CampaignError> {
    report_store(&LocalStore::open(out_dir)?, kind)
}

/// Render a report over any [`RecordStore`].
///
/// The per-solver paper tables (`table1`/`table3`/`table4`) are refused
/// over a portfolio-race store: race units carry a deterministic
/// placeholder in their `solver` field, so grouping by it would silently
/// attribute every unit to the roster head. `report winners` is the
/// race-aware view.
pub fn report_store(store: &dyn RecordStore, kind: ReportKind) -> Result<String, CampaignError> {
    let manifest = Manifest::parse(&store.read_manifest()?)?;
    if manifest.policy.mode == PolicyKind::PortfolioRace
        && matches!(
            kind,
            ReportKind::Table1 | ReportKind::Table3 | ReportKind::Table4
        )
    {
        return Err(CampaignError::Store(format!(
            "store {} was produced by a portfolio-race policy; race units carry a \
             placeholder solver, so the per-solver paper tables would misattribute \
             every unit to the roster head — use `report winners` instead",
            manifest.name
        )));
    }
    let records = store.load_records()?;
    Ok(match kind {
        ReportKind::Table1 => report_table1(&manifest, &records),
        ReportKind::Table3 => report_table3(&manifest, &records),
        ReportKind::Table4 => report_table4(&manifest, &records),
        ReportKind::Hetero => report_hetero(&manifest, &records),
        ReportKind::Winners => report_winners(&manifest, &records),
        ReportKind::Profile => report_profile(&manifest, &records),
        ReportKind::Summary => {
            let done = store.done_shards()?;
            let shards = manifest.plan().len() as u64;
            let summary = summarize(&manifest, &records, shards, done.len() as u64, 0);
            check_verdicts(&records, &summary)?;
            render_summary(&summary)
        }
    })
}

/// Per-cell aggregated search telemetry: merge every record's `search`
/// block within each grid cell. Works over any store — single, race
/// (the winner's telemetry) and pre-telemetry segments (counted but
/// excluded) alike.
#[must_use]
pub fn report_profile(manifest: &Manifest, records: &[CampaignRecord]) -> String {
    let mut rows = Vec::new();
    for (ci, cell) in manifest.cells.iter().enumerate() {
        let mut row = tables::ProfileRow {
            cell: cell.tag(),
            with_stats: 0,
            without_stats: 0,
            stats: mgrts_obs::SearchStats::default(),
        };
        for r in records.iter().filter(|r| r.cell == ci) {
            match &r.search {
                Some(st) => {
                    row.with_stats += 1;
                    row.stats.merge(st);
                }
                None => row.without_stats += 1,
            }
        }
        if row.with_stats + row.without_stats > 0 {
            rows.push(row);
        }
    }
    format!(
        "\nPROFILE — aggregated search statistics per grid cell\n\n{}",
        tables::profile(&rows)
    )
}

/// Tables I & II over campaign records — byte-identical to the `table1`
/// binary's stdout for an equivalent manifest. Callers going through
/// [`report_store`] never reach this with a portfolio-race store (the
/// per-solver grouping is meaningless there — see `report winners`).
#[must_use]
pub fn report_table1(manifest: &Manifest, records: &[CampaignRecord]) -> String {
    let total = manifest.cells.len() as u64 * manifest.instances_per_cell;
    format!(
        "\nTABLE I — number of runs reaching the time limit\n\n{}\n\nTABLE II — unsolved runs reaching the limit, by r > 1 filter\n\n{}",
        tables::table1(records, &manifest.roster, total),
        tables::table2(records, &manifest.roster)
    )
}

/// Table III over campaign records. (`_manifest` kept for signature
/// symmetry with the other table renderers; Table III has no per-solver
/// columns.)
#[must_use]
pub fn report_table3(_manifest: &Manifest, records: &[CampaignRecord]) -> String {
    format!(
        "\nTABLE III — instance distribution and mean resolution time by r\n\n{}",
        tables::table3(records)
    )
}

/// Table IV over campaign records: one row per grid cell, in manifest
/// order.
#[must_use]
pub fn report_table4(manifest: &Manifest, records: &[CampaignRecord]) -> String {
    let mut rows = Vec::new();
    for (ci, cell) in manifest.cells.iter().enumerate() {
        let cell_records: Vec<&CampaignRecord> = records.iter().filter(|r| r.cell == ci).collect();
        // Per-instance means: each instance appears once per solver; dedup
        // on the instance index.
        let mut seen = HashSet::new();
        let instances: Vec<&&CampaignRecord> = cell_records
            .iter()
            .filter(|r| seen.insert(r.instance))
            .collect();
        if instances.is_empty() {
            continue;
        }
        let mean = |f: &dyn Fn(&CampaignRecord) -> f64| -> f64 {
            instances.iter().map(|r| f(r)).sum::<f64>() / instances.len() as f64
        };
        let per_solver = manifest
            .roster
            .iter()
            .map(|&s| {
                let runs: Vec<&&CampaignRecord> =
                    cell_records.iter().filter(|r| r.solver == s).collect();
                if runs.is_empty() {
                    return (0.0, 0.0, false);
                }
                let solved = runs
                    .iter()
                    .filter(|r| r.outcome == InstanceOutcome::Solved)
                    .count() as f64
                    / runs.len() as f64;
                let t_ms =
                    runs.iter().map(|r| r.time_us as f64).sum::<f64>() / runs.len() as f64 / 1000.0;
                let all_too_large = runs.iter().all(|r| r.outcome == InstanceOutcome::TooLarge);
                (solved, t_ms, all_too_large)
            })
            .collect();
        rows.push(tables::Table4Row {
            n: cell.n,
            mean_r: mean(&|r| r.ratio),
            mean_m: mean(&|r| r.m as f64),
            mean_h: mean(&|r| r.hyperperiod as f64),
            per_solver,
        });
    }
    format!(
        "\nTABLE IV — experiments with a growing number of tasks\n\n{}",
        tables::table4(&rows, &manifest.roster)
    )
}

/// The heterogeneity dimension: per-backend verdict counts — including
/// the `unsupported` column the summary records but no paper table
/// shows — for every heterogeneous grid cell.
#[must_use]
pub fn report_hetero(manifest: &Manifest, records: &[CampaignRecord]) -> String {
    let mut rows = Vec::new();
    for (ci, cell) in manifest.cells.iter().enumerate() {
        if !cell.hetero {
            continue;
        }
        let per_solver = manifest
            .roster
            .iter()
            .map(|&s| {
                let runs: Vec<&CampaignRecord> = records
                    .iter()
                    .filter(|r| r.cell == ci && r.solver == s)
                    .collect();
                let count =
                    |o: InstanceOutcome| runs.iter().filter(|r| r.outcome == o).count() as u64;
                tables::HeteroCounts {
                    runs: runs.len() as u64,
                    solved: count(InstanceOutcome::Solved),
                    infeasible: count(InstanceOutcome::ProvedInfeasible),
                    overrun: count(InstanceOutcome::Overrun),
                    unsupported: count(InstanceOutcome::Unsupported),
                }
            })
            .collect();
        rows.push(tables::HeteroRow {
            cell: cell.tag(),
            per_solver,
        });
    }
    format!(
        "\nHETERO — per-backend support on heterogeneous cells\n\n{}",
        tables::hetero(&rows, &manifest.roster)
    )
}

/// Per-cell winner counts of a racing campaign — which backend won how
/// many units, per grid cell, plus the units nobody decided. This is the
/// paper's Table I comparison restated for a portfolio execution: instead
/// of six sequential columns of overrun counts, one race per instance and
/// a tally of whose verdict arrived first.
#[must_use]
pub fn report_winners(manifest: &Manifest, records: &[CampaignRecord]) -> String {
    // Flow settles identical races ahead of the roster, so it gets a
    // column of its own whenever it won a unit.
    let flow = SolverSpec::Flow;
    let mut columns = manifest.roster.clone();
    if !columns.contains(&flow)
        && records
            .iter()
            .any(|r| r.winner.as_deref() == Some(flow.name()))
    {
        columns.insert(0, flow);
    }
    let mut rows = Vec::new();
    for (ci, cell) in manifest.cells.iter().enumerate() {
        let cell_records: Vec<&CampaignRecord> = records.iter().filter(|r| r.cell == ci).collect();
        if cell_records.is_empty() {
            continue;
        }
        let wins = columns
            .iter()
            .map(|s| {
                cell_records
                    .iter()
                    .filter(|r| r.winner.as_deref() == Some(s.name()))
                    .count() as u64
            })
            .collect();
        let none = cell_records.iter().filter(|r| r.winner.is_none()).count() as u64;
        rows.push(tables::WinnerRow {
            cell: cell.tag(),
            wins,
            none,
            units: cell_records.len() as u64,
        });
    }
    let mut out = format!(
        "\nWINNERS — per-cell race winners ({} campaign)\n\n{}",
        manifest.policy.tag(),
        tables::winners(&rows, &columns)
    );
    if manifest.policy.mode != PolicyKind::PortfolioRace {
        out.push_str(
            "\nnote: this store was produced by a non-racing policy; every unit \
             reports no winner\n",
        );
    }
    out
}

/// Cross-policy parity: compare a portfolio-race campaign's per-unit
/// verdicts against a single-solver campaign over the *same workload*
/// (equal [`Manifest::workload_fingerprint`]). The race must agree with
/// the best single-solver verdict of each `(cell, instance)`; exchanges
/// where either side ran out of wall clock are budget straddles and only
/// warn, exactly like [`gate`]. A `Solved`-vs-`ProvedInfeasible` split is
/// a soundness failure.
pub fn parity(race_dir: &Path, single_dir: &Path) -> Result<GateReport, CampaignError> {
    let race_store = LocalStore::open(race_dir)?;
    let single_store = LocalStore::open(single_dir)?;
    let race_manifest = Manifest::parse(&race_store.read_manifest()?)?;
    let single_manifest = Manifest::parse(&single_store.read_manifest()?)?;
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    if race_manifest.workload_fingerprint() != single_manifest.workload_fingerprint() {
        return Err(CampaignError::Store(format!(
            "parity compares one workload under two policies, but the stores hold \
             different workloads:\n  race:   {}\n  single: {}",
            race_manifest.workload_fingerprint(),
            single_manifest.workload_fingerprint()
        )));
    }
    if race_manifest.policy.mode != PolicyKind::PortfolioRace {
        return Err(CampaignError::Store(format!(
            "parity: store {} was not produced by a portfolio-race policy",
            race_dir.display()
        )));
    }
    let race_records = race_store.load_records()?;
    let single_records = single_store.load_records()?;
    // A unit with no single-solver entry at all is a coverage failure —
    // comparing against a partially-drained single-solver store must not
    // silently pass.
    let single_best = decided_units(&single_records);
    let mut straddles = 0u64;
    for r in &race_records {
        let key = format!("cell {} instance {}", r.cell, r.instance);
        let Some(best) = single_best.get(&(r.cell, r.instance)).copied() else {
            failures.push(format!("{key}: no single-solver record found"));
            continue;
        };
        match r.outcome {
            InstanceOutcome::Solved => {
                if best.infeasible {
                    failures.push(format!(
                        "{key}: race Solved but a single-solver run proved infeasible"
                    ));
                } else if !best.solved {
                    // The race decided something every sequential run
                    // timed out on — a portfolio advantage, not drift.
                    straddles += 1;
                }
            }
            InstanceOutcome::ProvedInfeasible => {
                if best.solved {
                    failures.push(format!(
                        "{key}: race ProvedInfeasible but a single-solver run solved it"
                    ));
                } else if !best.infeasible {
                    straddles += 1;
                }
            }
            _ => {
                if best.solved || best.infeasible {
                    // The race ran out of budget where a sequential run
                    // decided: a budget straddle (races split cores
                    // between backends).
                    straddles += 1;
                }
            }
        }
    }
    // Coverage must hold in *both* directions: per-unit lookups above
    // catch single-solver gaps, and this catches a partially drained race
    // store — a gate that only compared the few units a crashed worker
    // managed to commit must not certify the whole workload.
    let expected_units = race_manifest.total_runs();
    if (race_records.len() as u64) < expected_units {
        failures.push(format!(
            "race store holds {} of {} expected units (campaign incomplete)",
            race_records.len(),
            expected_units
        ));
    }
    if straddles > 0 {
        notes.push(format!(
            "note: {straddles} budget-straddle exchange(s) between the race and the \
             sequential runs (timing-dependent, not gated)"
        ));
    }
    notes.push(format!(
        "{} race unit(s) compared against {} single-solver record(s)",
        race_records.len(),
        single_records.len()
    ));
    let ok = failures.is_empty();
    let mut lines = failures;
    lines.extend(notes);
    Ok(GateReport { ok, lines })
}

/// Per-`(cell, instance)` verdicts of a record set: did any of the unit's
/// runs solve it, did any prove it infeasible?
#[derive(Debug, Default, Clone, Copy)]
struct Decided {
    solved: bool,
    infeasible: bool,
}

/// Fold `records` into one [`Decided`] per `(cell, instance)` that has a
/// record.
fn decided_units(records: &[CampaignRecord]) -> HashMap<(usize, u64), Decided> {
    let mut units: HashMap<(usize, u64), Decided> = HashMap::new();
    for r in records {
        let entry = units.entry((r.cell, r.instance)).or_default();
        match r.outcome {
            InstanceOutcome::Solved => entry.solved = true,
            InstanceOutcome::ProvedInfeasible => entry.infeasible = true,
            _ => {}
        }
    }
    units
}

/// Every `(cell, instance)` on which one run of `records` found a verified
/// schedule and another proved infeasibility — a soundness bug in an exact
/// backend. One line per unit, in unit order, naming the backends on each
/// side. Budget outcomes (overrun, too large, …) never conflict.
#[must_use]
pub fn verdict_conflicts(records: &[CampaignRecord]) -> Vec<String> {
    let mut split: Vec<(usize, u64)> = decided_units(records)
        .into_iter()
        .filter(|(_, d)| d.solved && d.infeasible)
        .map(|(unit, _)| unit)
        .collect();
    split.sort_unstable();
    split
        .into_iter()
        .map(|(cell, instance)| {
            let by = |o: InstanceOutcome| {
                records
                    .iter()
                    .filter(|r| r.cell == cell && r.instance == instance && r.outcome == o)
                    .map(|r| r.solver.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            format!(
                "cell {cell} instance {instance}: Solved by {}, ProvedInfeasible by {}",
                by(InstanceOutcome::Solved),
                by(InstanceOutcome::ProvedInfeasible)
            )
        })
        .collect()
}

/// Refuse a record set with [`verdict_conflicts`]: the error carries the
/// rendered `summary` and one line per conflicting unit.
pub(crate) fn check_verdicts(
    records: &[CampaignRecord],
    summary: &Summary,
) -> Result<(), CampaignError> {
    let conflicts = verdict_conflicts(records);
    if conflicts.is_empty() {
        return Ok(());
    }
    let mut text = render_summary(summary);
    for c in &conflicts {
        text.push_str(&format!("VERDICT CONFLICT {c}\n"));
    }
    text.push_str(&format!(
        "{} unit(s) split Solved / ProvedInfeasible between backends",
        conflicts.len()
    ));
    Err(CampaignError::Conflicts(text))
}

/// Text rendering of a [`Summary`].
#[must_use]
pub fn render_summary(s: &Summary) -> String {
    let mut out = format!(
        "campaign {} — {} records, shards {}/{}{}, wall {} ms\n",
        s.campaign,
        s.records,
        s.shards_done,
        s.shards_total,
        if s.completed { " (complete)" } else { "" },
        s.wall_ms,
    );
    out.push_str(&format!(
        "{:<14} {:>7} {:>7} {:>10} {:>8} {:>9} {:>11} {:>13}\n",
        "solver",
        "runs",
        "solved",
        "infeasible",
        "overrun",
        "too-large",
        "unsupported",
        "mean t (µs)"
    ));
    for (name, sv) in &s.solvers {
        out.push_str(&format!(
            "{:<14} {:>7} {:>7} {:>10} {:>8} {:>9} {:>11} {:>13}\n",
            name,
            sv.runs,
            sv.solved,
            sv.infeasible,
            sv.overrun,
            sv.too_large,
            sv.unsupported,
            sv.mean_time_us
        ));
    }
    out
}

/// Canonical, replay-stable export of a store's record set (see
/// [`crate::sink::canonical_export`]): the artifact the resume-determinism
/// property is stated over.
pub fn canonical_store_export(out_dir: &Path) -> Result<String, CampaignError> {
    Ok(canonical_export(&load_records(out_dir)?))
}

/// What [`compact`] accomplished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactReport {
    /// Record lines across all segments before compaction (including
    /// superseded and uncheckpointed copies).
    pub lines_before: u64,
    /// Believable records after compaction.
    pub records: u64,
    /// Committed shards carried over.
    pub shards: u64,
    /// Worker segments merged into the canonical pair.
    pub segments_merged: u64,
}

/// Rewrite a record store without superseded / stale shard copies: merge
/// every worker segment into the canonical `records.jsonl` +
/// `checkpoint.jsonl` pair (believable records only, deduped by unit key,
/// deterministic unit order), drop everything the loader would ignore,
/// and snapshot the canonical export to `canonical.jsonl`. Refuses while
/// workers are active (live leases); expired leases are swept.
///
/// Idempotent: compacting a compacted store changes nothing, and
/// [`crate::sink::load_records`] returns the same record set before and
/// after.
pub fn compact(out_dir: &Path) -> Result<CompactReport, CampaignError> {
    let store = LocalStore::open(out_dir)?;
    // The manifest must parse — compaction must not silently bless a
    // foreign directory.
    let _ = Manifest::parse(&store.read_manifest()?)?;
    // Merging unlinks segment files other processes may hold open, so the
    // store must be quiesced: no in-flight shard leases and no attached
    // workers (presence leases). Expired debris is swept first. (A
    // concurrent single-process `run`/`resume` takes no leases — don't
    // compact a store one of those is writing, same as you wouldn't run
    // two `campaign run`s into one directory.)
    crate::queue::reclaim_expired(out_dir)?;
    crate::queue::ensure_quiesced(out_dir, "compact")?;

    let mut lines_before = 0u64;
    let mut segments = 0u64;
    for entry in std::fs::read_dir(out_dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let is_default = name == RECORDS_FILE;
        let is_segment = name.starts_with("records-") && name.ends_with(".jsonl");
        if is_default || is_segment {
            lines_before += std::fs::read_to_string(entry.path())?.lines().count() as u64;
            if is_segment {
                segments += 1;
            }
        }
    }

    let records = store.load_records()?;
    let done = store.done_shards()?;
    let mut done: Vec<String> = done.into_iter().collect();
    done.sort();
    let mut per_shard: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    for r in &records {
        *per_shard.entry(r.shard.as_str()).or_default() += 1;
    }

    // Stage the canonical pair, then swap both in and drop the merged
    // segments. A crash between the renames and the removals leaves
    // duplicate copies — which the loader dedupes, so a re-run of
    // `compact` heals the store.
    let mut records_text = String::new();
    for r in &records {
        records_text.push_str(&serde_json::to_string(r).map_err(std::io::Error::other)?);
        records_text.push('\n');
    }
    let mut checkpoint_text = String::new();
    for hash in &done {
        checkpoint_text.push_str(
            &serde_json::to_string(&crate::sink::CheckpointLine {
                shard: hash.clone(),
                records: per_shard.get(hash.as_str()).copied().unwrap_or(0),
                // Compaction is not a commit: carrying a fresh timestamp
                // would fabricate throughput, so the merged lines carry
                // none.
                unix_ms: None,
            })
            .map_err(std::io::Error::other)?,
        );
        checkpoint_text.push('\n');
    }
    store.put_artifact(RECORDS_FILE, &records_text)?;
    store.put_artifact(CHECKPOINT_FILE, &checkpoint_text)?;
    for stem in ["records", "checkpoint"] {
        let prefix = format!("{stem}-");
        for entry in std::fs::read_dir(out_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(&prefix) && name.ends_with(".jsonl") {
                std::fs::remove_file(entry.path())?;
            }
        }
    }
    store.put_artifact(CANONICAL_FILE, &canonical_export(&records))?;

    Ok(CompactReport {
        lines_before,
        records: records.len() as u64,
        shards: done.len() as u64,
        segments_merged: segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MANIFEST_FILE;

    const SMOKE: &str = r#"
# tiny but real
[campaign]
name = "unit"
seed = 42
time_limit_ms = 2000
instances_per_cell = 3
shard_size = 4

[grid]
n = [3, 4]
m = [2]
t_max = [4]
utilization = ["*"]
hetero = [false]
solvers = ["csp2-dc", "sat"]
"#;

    #[test]
    fn manifest_parses_and_round_trips_canonically() {
        let m = Manifest::parse(SMOKE).unwrap();
        assert_eq!(m.name, "unit");
        assert_eq!(m.seed, 42);
        assert_eq!(m.cells.len(), 2);
        assert_eq!(m.roster.len(), 2);
        assert_eq!(m.total_runs(), 12);
        let back = Manifest::parse(&m.to_toml()).unwrap();
        assert_eq!(m, back, "canonical form re-parses to the same manifest");
        assert_eq!(m.fingerprint(), back.fingerprint());
    }

    #[test]
    fn smoke_manifest_is_the_table1_campaign() {
        // The acceptance pin: the committed CI smoke manifest does exactly
        // the work of `table1 --instances 24` (same fingerprint ⇒ same
        // shard plan ⇒ same records ⇒ identical `report table1`).
        let smoke = Manifest::load(Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../bench/manifests/smoke.toml"
        )))
        .unwrap();
        let t1 = Manifest::table1(
            "table1",
            smoke.instances_per_cell,
            smoke.seed,
            smoke.time_limit,
        );
        assert_eq!(smoke.fingerprint(), t1.fingerprint());
        assert_eq!(
            smoke
                .plan()
                .iter()
                .map(|s| s.hash.clone())
                .collect::<Vec<_>>(),
            t1.plan().iter().map(|s| s.hash.clone()).collect::<Vec<_>>(),
        );
        assert_eq!(smoke.roster.len(), 6, "all six roster solvers");
    }

    #[test]
    fn ext_sat_manifest_is_the_smoke_workload_with_the_sat_roster() {
        let load = |name: &str| {
            Manifest::load(
                &Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join(format!("../../bench/manifests/{name}.toml")),
            )
            .unwrap()
        };
        let (smoke, ext) = (load("smoke"), load("ext_sat"));
        assert_eq!(
            ext.roster,
            [
                SolverSpec::Csp1,
                SolverSpec::Csp2(mgrts_core::heuristics::TaskOrder::DeadlineMinusWcet),
                SolverSpec::Csp1Sat
            ]
        );
        assert_eq!(
            Manifest {
                name: smoke.name.clone(),
                roster: smoke.roster.clone(),
                ..ext
            },
            smoke,
            "same seed, limit, instances, shards and Table I cell as smoke.toml"
        );
    }

    #[test]
    fn manifest_rejects_malformed_input() {
        for (bad, why) in [
            ("", "missing everything"),
            ("[campaign]\nname = \"x\"\n", "missing grid"),
            (
                "[campaign]\nname = \"x\"\ninstances_per_cell = 1\n[grid]\nn = [2]\nm = [0]\nt_max = [3]\nsolvers = [\"csp1\"]",
                "m = 0",
            ),
            (
                "[campaign]\nname = \"x\"\ninstances_per_cell = 1\n[grid]\nn = [2]\nm = [2]\nt_max = [3]\nsolvers = [\"nonsense\"]",
                "unknown solver",
            ),
            (
                "[campaign]\nname = \"x\"\ninstances_per_cell = 1\n[grid]\nn = [2]\nm = [2]\nt_max = [3]\nutilization = [\"2.0..1.0\"]\nsolvers = [\"csp1\"]",
                "empty band",
            ),
            (
                "[campaign]\nname = \"x\"\nname = \"y\"\ninstances_per_cell = 1\n[grid]\nn = [2]\nm = [2]\nt_max = [3]\nsolvers = [\"csp1\"]",
                "duplicate key",
            ),
            (
                "[campaign]\nname = \"x\"\ninstances_per_cell = 1\n[grid]\nn = [2]\nm = [2]\nt_max = [3]\nsolvers = [\"csp1\", \"csp1\"]",
                "duplicate roster entry",
            ),
        ] {
            assert!(Manifest::parse(bad).is_err(), "{why}");
        }
    }

    #[test]
    fn comments_and_inline_comments_are_stripped() {
        let m = Manifest::parse(
            "[campaign]\nname = \"c\" # trailing\ninstances_per_cell = 2\n# full line\n[grid]\nn = [2]\nm = [2]\nt_max = [3]\nsolvers = [\"csp1\"]\n",
        )
        .unwrap();
        assert_eq!(m.name, "c");
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mgrts-campaign-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_run_completes_and_reports() {
        let manifest = Manifest::parse(SMOKE).unwrap();
        let dir = tmp("fresh");
        let outcome = run_fresh(
            &manifest,
            &dir,
            &CampaignOptions {
                threads: 2,
                progress: false,
                max_shards: None,
            },
            &CancelGroup::new(),
        )
        .unwrap();
        assert!(outcome.summary.completed);
        assert_eq!(outcome.summary.records, 12);
        assert_eq!(outcome.summary.shards_done, outcome.summary.shards_total);
        assert!(dir.join("BENCH_unit.json").exists());
        // Reports render over the store.
        let t1 = report(&dir, ReportKind::Table1).unwrap();
        assert!(t1.contains("TABLE I"));
        assert!(t1.contains("TABLE II"));
        let t4 = report(&dir, ReportKind::Table4).unwrap();
        assert!(t4.contains("TABLE IV"));
        let s = report(&dir, ReportKind::Summary).unwrap();
        assert!(s.contains("campaign unit"));
        // The summary verdicts balance: every run is accounted for.
        for (_, sv) in &outcome.summary.solvers {
            assert_eq!(
                sv.runs,
                sv.solved + sv.infeasible + sv.overrun + sv.too_large + sv.unsupported
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_solver_tables_refuse_a_portfolio_race_store() {
        let mut manifest = Manifest::parse(SMOKE).unwrap();
        manifest.policy.mode = PolicyKind::PortfolioRace;
        let dir = tmp("race-report");
        run_fresh(
            &manifest,
            &dir,
            &CampaignOptions {
                threads: 2,
                progress: false,
                max_shards: None,
            },
            &CancelGroup::new(),
        )
        .unwrap();
        // The per-solver paper tables would misattribute race units to the
        // roster head; the report layer refuses and points at `winners`.
        for kind in [ReportKind::Table1, ReportKind::Table3, ReportKind::Table4] {
            let err = report(&dir, kind).unwrap_err().to_string();
            assert!(err.contains("`report winners`"), "unexpected error: {err}");
        }
        // The race-aware views still render.
        assert!(report(&dir, ReportKind::Winners)
            .unwrap()
            .contains("WINNERS"));
        report(&dir, ReportKind::Summary).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_run_resumes_to_the_same_canonical_records() {
        let manifest = Manifest::parse(SMOKE).unwrap();
        let a = tmp("uninterrupted");
        let b = tmp("interrupted");
        let opts = CampaignOptions {
            threads: 2,
            progress: false,
            max_shards: None,
        };
        run_fresh(&manifest, &a, &opts, &CancelGroup::new()).unwrap();
        // Stop after one shard, then resume.
        let partial = run_fresh(
            &manifest,
            &b,
            &CampaignOptions {
                max_shards: Some(1),
                ..opts.clone()
            },
            &CancelGroup::new(),
        )
        .unwrap();
        assert!(!partial.summary.completed);
        assert_eq!(partial.shards_committed, 1);
        let resumed = resume(&b, &opts, &CancelGroup::new()).unwrap();
        assert!(resumed.summary.completed);
        assert_eq!(
            canonical_store_export(&a).unwrap(),
            canonical_store_export(&b).unwrap(),
            "resume must reconstruct the exact record set"
        );
        std::fs::remove_dir_all(&a).ok();
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn resume_rejects_a_store_from_another_manifest() {
        let manifest = Manifest::parse(SMOKE).unwrap();
        let dir = tmp("reject");
        run_fresh(
            &manifest,
            &dir,
            &CampaignOptions {
                threads: 1,
                progress: false,
                max_shards: Some(1),
            },
            &CancelGroup::new(),
        )
        .unwrap();
        // Swap the stored manifest for a different campaign.
        let other = SMOKE.replace("seed = 42", "seed = 43");
        std::fs::write(
            dir.join(MANIFEST_FILE),
            Manifest::parse(&other).unwrap().to_toml(),
        )
        .unwrap();
        let err = resume(&dir, &CampaignOptions::default(), &CancelGroup::new());
        assert!(matches!(err, Err(CampaignError::Store(_))), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_rejects_a_non_product_cell_list() {
        // A programmatic manifest whose cells are not the full axis
        // product cannot round-trip through the stored canonical TOML, so
        // run_fresh must refuse before writing anything.
        let mut manifest = Manifest::parse(SMOKE).unwrap();
        manifest.cells = vec![
            Cell {
                n: 4,
                m: CellM::Fixed(2),
                t_max: 4,
                band: None,
                hetero: false,
            },
            Cell {
                n: 6,
                m: CellM::Fixed(3),
                t_max: 5,
                band: None,
                hetero: false,
            },
        ];
        let dir = tmp("nonproduct");
        let err = run_fresh(
            &manifest,
            &dir,
            &CampaignOptions::default(),
            &CancelGroup::new(),
        );
        assert!(matches!(err, Err(CampaignError::Manifest(_))), "{err:?}");
        assert!(!dir.join(RECORDS_FILE).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gate_tolerates_budget_straddles_but_catches_verdict_flips() {
        let manifest = Manifest::parse(SMOKE).unwrap();
        let records: Vec<CampaignRecord> = Vec::new();
        let mut base = summarize(&manifest, &records, 3, 3, 1000);
        base.solvers[0].1.runs = 10;
        base.solvers[0].1.solved = 6;
        base.solvers[0].1.infeasible = 2;
        base.solvers[0].1.overrun = 2;
        // A run straddling the budget: Solved → Overrun. Timing noise, not
        // drift — the gate must pass.
        let mut straddle = base.clone();
        straddle.solvers[0].1.solved = 5;
        straddle.solvers[0].1.overrun = 3;
        assert!(gate(&straddle, &base, 0.25).ok, "budget straddle gated");
        // A genuine verdict flip: Solved → Infeasible. Soundness drift —
        // the gate must fail.
        let mut flip = base.clone();
        flip.solvers[0].1.solved = 5;
        flip.solvers[0].1.infeasible = 3;
        let report = gate(&flip, &base, 0.25);
        assert!(!report.ok, "verdict flip passed the gate");
        assert!(report.lines.iter().any(|l| l.contains("verdict drift")));
    }

    #[test]
    fn cancelled_campaign_stops_early_and_is_resumable() {
        let manifest = Manifest::parse(SMOKE).unwrap();
        let dir = tmp("cancelled");
        let cancel = CancelGroup::new();
        cancel.cancel_all();
        let outcome = run_fresh(&manifest, &dir, &CampaignOptions::default(), &cancel).unwrap();
        assert_eq!(outcome.shards_committed, 0);
        assert!(!outcome.summary.completed);
        let resumed = resume(&dir, &CampaignOptions::default(), &CancelGroup::new()).unwrap();
        assert!(resumed.summary.completed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gate_passes_identical_and_fails_drift_and_regression() {
        let manifest = Manifest::parse(SMOKE).unwrap();
        let records: Vec<CampaignRecord> = Vec::new();
        let base = summarize(&manifest, &records, 3, 3, 1000);
        let same = summarize(&manifest, &records, 3, 3, 1100);
        assert!(gate(&same, &base, 0.25).ok, "10% slower is within +25%");
        let slow = summarize(&manifest, &records, 3, 3, 1500);
        assert!(!gate(&slow, &base, 0.25).ok, "50% slower must fail");
        let mut drift = base.clone();
        drift.wall_ms = 1000;
        drift.solvers[0].1.solved += 1;
        let report = gate(&drift, &base, 0.25);
        assert!(!report.ok, "verdict drift must fail");
        assert!(report.lines.iter().any(|l| l.contains("verdict drift")));
        let incomplete = summarize(&manifest, &records, 3, 2, 1000);
        assert!(!gate(&incomplete, &base, 0.25).ok);
    }

    #[test]
    fn utilization_band_cells_only_contain_banded_instances() {
        let text = SMOKE.replace("utilization = [\"*\"]", "utilization = [\"0.5..2.0\"]");
        let manifest = Manifest::parse(&text).unwrap();
        let dir = tmp("band");
        run_fresh(
            &manifest,
            &dir,
            &CampaignOptions {
                threads: 1,
                progress: false,
                max_shards: None,
            },
            &CancelGroup::new(),
        )
        .unwrap();
        let records = load_records(&dir).unwrap();
        assert!(!records.is_empty());
        for r in &records {
            assert!(
                (0.5..2.0).contains(&r.ratio),
                "ratio {} out of band",
                r.ratio
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A hand-made single-policy record of unit `(cell, instance)`.
    fn unit_record(
        cell: usize,
        instance: u64,
        solver: &str,
        outcome: InstanceOutcome,
    ) -> CampaignRecord {
        CampaignRecord {
            shard: String::new(),
            cell,
            instance,
            global_instance: cell as u64 * 3 + instance,
            solver: solver.parse().unwrap(),
            outcome,
            time_us: 1000,
            ratio: 0.9,
            filtered: false,
            m: 2,
            n: 3,
            t_max: 4,
            hetero: false,
            hyperperiod: 12,
            seed: 7,
            policy: Some(crate::policy::PolicyKind::Single),
            winner: None,
            budget_source: Some(crate::policy::BudgetSource::Manifest),
            cancel_latency_us: None,
            backends: None,
            search: None,
        }
    }

    #[test]
    fn verdict_conflicts_name_each_split_unit() {
        let records = [
            unit_record(0, 2, "csp1", InstanceOutcome::Solved),
            unit_record(0, 2, "csp2-dc", InstanceOutcome::ProvedInfeasible),
            unit_record(0, 2, "sat", InstanceOutcome::ProvedInfeasible),
            // Same instance index in another cell: a different unit.
            unit_record(1, 2, "csp1", InstanceOutcome::Solved),
        ];
        assert_eq!(
            verdict_conflicts(&records),
            ["cell 0 instance 2: Solved by csp1, ProvedInfeasible by csp2-dc, sat"]
        );
    }

    #[test]
    fn overrun_next_to_a_verdict_is_not_a_conflict() {
        let records = [
            unit_record(0, 0, "csp1", InstanceOutcome::Overrun),
            unit_record(0, 0, "csp2-dc", InstanceOutcome::Solved),
            unit_record(0, 1, "csp1", InstanceOutcome::TooLarge),
            unit_record(0, 1, "csp2-dc", InstanceOutcome::ProvedInfeasible),
        ];
        assert!(verdict_conflicts(&records).is_empty());
    }

    #[test]
    fn summary_report_fails_on_a_verdict_split() {
        let manifest = Manifest::parse(SMOKE).unwrap();
        let dir = tmp("conflict");
        let store = LocalStore::open(&dir).unwrap();
        store.write_manifest(&manifest.to_toml()).unwrap();
        let shard = &manifest.plan()[0];
        let records: Vec<CampaignRecord> = [
            ("csp2-dc", InstanceOutcome::Solved),
            ("sat", InstanceOutcome::ProvedInfeasible),
        ]
        .into_iter()
        .map(|(solver, outcome)| CampaignRecord {
            shard: shard.hash.clone(),
            ..unit_record(0, 0, solver, outcome)
        })
        .collect();
        store
            .open_writer("")
            .unwrap()
            .commit_shard(shard, &records)
            .unwrap();
        let err = report(&dir, ReportKind::Summary).unwrap_err().to_string();
        assert!(err.contains("campaign unit"), "{err}");
        assert!(
            err.contains(
                "VERDICT CONFLICT cell 0 instance 0: Solved by csp2-dc, ProvedInfeasible by sat"
            ),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hetero_cells_run_and_record() {
        let text = SMOKE.replace("hetero = [false]", "hetero = [true]");
        let manifest = Manifest::parse(&text).unwrap();
        let dir = tmp("hetero");
        let outcome = run_fresh(
            &manifest,
            &dir,
            &CampaignOptions {
                threads: 1,
                progress: false,
                max_shards: None,
            },
            &CancelGroup::new(),
        )
        .unwrap();
        assert!(outcome.summary.completed);
        let records = load_records(&dir).unwrap();
        assert!(records.iter().all(|r| r.hetero));
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! The record store: streaming JSONL segments with shard checkpoints,
//! behind the [`RecordStore`] abstraction.
//!
//! A campaign's record store is a directory:
//!
//! * `records.jsonl` / `records-<writer>.jsonl` — one [`CampaignRecord`]
//!   per line, appended shard by shard (a shard's lines are contiguous
//!   within its segment). The unsuffixed segment belongs to the
//!   single-process executor; every distributed worker appends to its own
//!   `-<writer>` segment so concurrent processes never interleave writes;
//! * `checkpoint.jsonl` / `checkpoint-<writer>.jsonl` — one line per
//!   **committed** shard, appended and flushed *after* that shard's
//!   records hit the record segment;
//! * `manifest.toml` — the canonical manifest, so `resume`, `worker` and
//!   `report` need no external input.
//!
//! Crash safety is append-only ordering: a shard is only believed once its
//! checkpoint line exists (in any segment), so a SIGKILL can at worst
//! leave (a) a truncated trailing record line and (b) record lines of an
//! uncheckpointed shard. The loader drops both, and the resumed campaign
//! re-runs exactly the shards without checkpoint lines; a shard that ends
//! up recorded twice (killed between record flush and checkpoint write,
//! then re-run — possibly by a *different* worker) is deduplicated by unit
//! key, keeping one checkpointed copy.
//!
//! [`RecordStore`] is the seam for remote backends: every operation is
//! either a whole-object read, an append to a writer-exclusive segment, or
//! an atomic artifact put — the compare-and-append vocabulary of an
//! object store with conditional writes. [`LocalStore`] is the
//! local-directory backend.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use mgrts_core::engine::SolverSpec;
use mgrts_core::portfolio::BackendStat;
use mgrts_fault::FaultFs;

use crate::policy::{BudgetSource, PolicyKind};
use crate::runner::{InstanceOutcome, RunRecord};
use crate::shard::Shard;

/// One campaign run record: a [`RunRecord`] plus full scenario provenance,
/// so reports never need to re-derive which grid cell a line came from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRecord {
    /// Content hash of the shard that produced this record.
    pub shard: String,
    /// Index of the grid cell in manifest order.
    pub cell: usize,
    /// Instance index within the cell's stream.
    pub instance: u64,
    /// Campaign-wide instance number (`cell × instances_per_cell +
    /// instance`) — the instance key table reports aggregate on.
    pub global_instance: u64,
    /// Which solver ran.
    pub solver: SolverSpec,
    /// Classified outcome.
    pub outcome: InstanceOutcome,
    /// Wall-clock solve time (µs) — the only field that varies between
    /// replays of the same shard.
    pub time_us: u64,
    /// Utilization ratio r = U/m.
    pub ratio: f64,
    /// Pruned by the r > 1 filter?
    pub filtered: bool,
    /// Resolved processor count.
    pub m: usize,
    /// Task count of the cell.
    pub n: usize,
    /// Maximum period of the cell.
    pub t_max: u64,
    /// Heterogeneous platform?
    pub hetero: bool,
    /// Hyperperiod of the instance (0 when it overflows).
    pub hyperperiod: u64,
    /// The instance's derived seed (replay handle).
    pub seed: u64,
    /// Which execution policy produced this record. `None` on pre-policy
    /// segments (PR ≤ 4), which ran the single-solver path.
    pub policy: Option<PolicyKind>,
    /// Winning backend of a portfolio-race unit (a measurement: arrival
    /// order, normalized away by [`canonical_export`]).
    pub winner: Option<String>,
    /// Where the unit's wall-clock allowance came from. `None` on
    /// pre-policy segments (always the manifest limit back then).
    pub budget_source: Option<BudgetSource>,
    /// Race cancellation latency, microseconds (portfolio units with a
    /// winner only).
    pub cancel_latency_us: Option<u64>,
    /// Per-backend race stats in roster order (portfolio units only —
    /// the loser statistics the race would otherwise discard).
    pub backends: Option<Vec<BackendStat>>,
    /// Search telemetry of the unit's solve (the winner's, for races).
    /// `None` on pre-telemetry segments (PR ≤ 7) and for backends without
    /// counters; absent keys deserialize as `None`, so old JSONL loads
    /// unchanged.
    pub search: Option<mgrts_obs::SearchStats>,
}

impl CampaignRecord {
    /// Project onto the classic bench [`RunRecord`] shape the table
    /// formatters consume.
    #[must_use]
    pub fn to_run_record(&self) -> RunRecord {
        RunRecord {
            instance: self.global_instance,
            solver: self.solver,
            outcome: self.outcome,
            time_us: self.time_us,
            ratio: self.ratio,
            filtered: self.filtered,
        }
    }

    /// The unit key a resumed campaign dedupes on. Race units carry a
    /// deterministic placeholder in `solver` (the roster head), so the key
    /// is replay-stable under every policy.
    #[must_use]
    pub fn unit_key(&self) -> (usize, u64, SolverSpec) {
        (self.cell, self.instance, self.solver)
    }

    /// The record's policy, defaulting pre-policy segments to `Single`.
    #[must_use]
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy.unwrap_or(PolicyKind::Single)
    }

    /// The record's budget provenance, defaulting pre-policy segments to
    /// the manifest limit.
    #[must_use]
    pub fn budget_src(&self) -> BudgetSource {
        self.budget_source.unwrap_or(BudgetSource::Manifest)
    }
}

/// One checkpoint line: shard `hash` committed with `records` record lines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointLine {
    /// Shard content hash.
    pub shard: String,
    /// Number of records the shard contributed.
    pub records: u64,
    /// Commit wall-clock, milliseconds since the Unix epoch — the sample
    /// `status` derives per-worker throughput (and the campaign ETA) from.
    /// `None` on pre-policy segments.
    pub unix_ms: Option<u64>,
}

/// File names inside a record-store directory.
pub const RECORDS_FILE: &str = "records.jsonl";
/// Checkpoint file name.
pub const CHECKPOINT_FILE: &str = "checkpoint.jsonl";
/// Canonical manifest copy.
pub const MANIFEST_FILE: &str = "manifest.toml";
/// Canonical-export snapshot written by `campaign compact`.
pub const CANONICAL_FILE: &str = "canonical.jsonl";
/// Quarantine ledger: one line per corrupt record/checkpoint line found
/// by the loaders (deduplicated by content hash), instead of silently
/// skipping them.
pub const QUARANTINE_FILE: &str = "quarantine.jsonl";

/// How many fresh segment pairs a [`RecordSink`] tries before giving up
/// on a shard commit (the original pair plus two fail-overs).
const COMMIT_ATTEMPTS: u32 = 3;

/// Display name of the default (unsuffixed) writer segment.
pub const LOCAL_WRITER: &str = "local";

/// One line of the quarantine ledger: a record or checkpoint line that
/// exists in a segment but does not parse — silent corruption, not the
/// expected truncated-tail-after-SIGKILL case.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// Segment file name the corrupt line was found in.
    pub segment: String,
    /// 1-based line number at quarantine time.
    pub line_no: usize,
    /// FNV-1a hash of (segment, raw line) — the ledger's dedupe key, so
    /// repeated loads do not grow the ledger.
    pub hash: String,
    /// The corrupt line, truncated to 512 bytes.
    pub raw: String,
    /// Wall-clock at quarantine time (ms since the Unix epoch).
    pub unix_ms: u64,
}

pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Milliseconds since the Unix epoch (the commit-timestamp clock).
pub(crate) fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// The RecordStore abstraction
// ---------------------------------------------------------------------------

/// Exclusive append handle of one writer's record + checkpoint segments.
///
/// [`commit_shard`](ShardWriter::commit_shard) is the only mutation:
/// records first, checkpoint after, each append flushed before the next
/// step — the crash guarantee every loader relies on.
pub trait ShardWriter {
    /// Commit one completed shard: stream its records, flush them durably,
    /// then append + flush the checkpoint line. A checkpoint line never
    /// precedes its records.
    fn commit_shard(&mut self, shard: &Shard, records: &[CampaignRecord]) -> std::io::Result<()>;
}

/// Abstract record store: append-only record/checkpoint segments (one
/// pair per writer, so concurrent writers never contend on an object),
/// whole-store reads, and atomic artifact puts.
///
/// The local-directory backend is [`LocalStore`]; the trait is the seam
/// for an object-store backend (segment appends become append-or-create
/// conditional writes, artifact puts become PUTs, loads become LISTs +
/// GETs) without touching the executor or the queue.
pub trait RecordStore: Send + Sync {
    /// The stored canonical manifest text.
    fn read_manifest(&self) -> std::io::Result<String>;

    /// Store the canonical manifest text.
    fn write_manifest(&self, toml: &str) -> std::io::Result<()>;

    /// Remove every record / checkpoint segment and derived artifact —
    /// a fresh start. The manifest is left alone.
    fn clear(&self) -> std::io::Result<()>;

    /// Open the exclusive append writer of `writer_id`'s segments. The
    /// empty id names the default single-process segment; worker ids are
    /// `[A-Za-z0-9_-]{1,64}`.
    fn open_writer(&self, writer_id: &str) -> std::io::Result<Box<dyn ShardWriter + Send>>;

    /// Shard hashes with a committed checkpoint line in any segment.
    /// Tolerates truncated trailing lines (the SIGKILL case).
    fn done_shards(&self) -> std::io::Result<HashSet<String>>;

    /// The believable records across all segments: lines that parse,
    /// belong to a checkpointed shard, deduplicated by unit key and
    /// restored to deterministic unit order.
    fn load_records(&self) -> std::io::Result<Vec<CampaignRecord>>;

    /// Committed-shard count per writer, sorted by writer id (status
    /// reporting; the default segment reports as [`LOCAL_WRITER`]).
    fn writer_progress(&self) -> std::io::Result<Vec<(String, u64)>>;

    /// Per-writer commit timestamps (ascending ms since the Unix epoch,
    /// untimestamped pre-policy lines skipped), sorted by writer id — the
    /// raw series behind per-worker throughput and the `status` ETA.
    fn writer_checkpoints(&self) -> std::io::Result<Vec<(String, Vec<u64>)>>;

    /// Atomically publish a derived artifact (e.g. `BENCH_<name>.json`):
    /// concurrent writers may race, but readers never observe a torn
    /// write.
    fn put_artifact(&self, name: &str, contents: &str) -> std::io::Result<()>;
}

/// Reject writer ids that would escape the segment naming scheme.
pub(crate) fn validate_writer_id(id: &str) -> std::io::Result<()> {
    if id.is_empty()
        || id.len() > 64
        || !id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("writer id `{id}`: expected [A-Za-z0-9_-]{{1,64}}"),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Local-directory backend
// ---------------------------------------------------------------------------

/// The local-directory [`RecordStore`]: JSONL segments in one directory
/// (shareable between processes, or between machines over a common
/// mount).
#[derive(Debug, Clone)]
pub struct LocalStore {
    dir: PathBuf,
}

impl LocalStore {
    /// Open (creating the directory if needed).
    pub fn open(dir: &Path) -> std::io::Result<LocalStore> {
        std::fs::create_dir_all(dir)?;
        Ok(LocalStore {
            dir: dir.to_path_buf(),
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Segment files for `stem` ("records" / "checkpoint"), as
    /// (writer id, path) sorted by writer id; the default segment sorts
    /// first with an empty id.
    fn segments(&self, stem: &str) -> std::io::Result<Vec<(String, PathBuf)>> {
        let mut out = Vec::new();
        let plain = self.dir.join(format!("{stem}.jsonl"));
        if plain.exists() {
            out.push((String::new(), plain));
        }
        let prefix = format!("{stem}-");
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix(".jsonl"))
            {
                out.push((id.to_string(), entry.path()));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Content hashes already present in the quarantine ledger.
    fn quarantine_ledger(&self) -> HashSet<String> {
        let mut seen = HashSet::new();
        let Ok(text) = std::fs::read_to_string(self.dir.join(QUARANTINE_FILE)) else {
            return seen;
        };
        for line in text.lines() {
            if let Ok(entry) = serde_json::from_str::<QuarantineEntry>(line) {
                seen.insert(entry.hash);
            }
        }
        seen
    }

    /// Record one corrupt line in the quarantine ledger (best-effort,
    /// deduplicated by content hash) and bump the quarantine counter.
    /// `seen` caches the ledger across one load pass.
    fn quarantine_line(
        &self,
        seen: &mut Option<HashSet<String>>,
        segment: &str,
        line_no: usize,
        raw: &str,
    ) {
        let seen = seen.get_or_insert_with(|| self.quarantine_ledger());
        let hash = format!("{:016x}", fnv64(format!("{segment}\n{raw}").as_bytes()));
        if !seen.insert(hash.clone()) {
            return;
        }
        mgrts_obs::global()
            .counter(
                "mgrts_store_quarantined_total",
                "Corrupt JSONL lines quarantined by the record store loaders",
            )
            .inc();
        let entry = QuarantineEntry {
            segment: segment.to_string(),
            line_no,
            hash,
            raw: raw.chars().take(512).collect(),
            unix_ms: unix_ms_now(),
        };
        // The ledger is diagnostic: failing to append must not fail the
        // load that discovered the corruption.
        if let Ok(mut f) = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(QUARANTINE_FILE))
        {
            if let Ok(line) = serde_json::to_string(&entry) {
                let _ = writeln!(f, "{line}");
            }
        }
    }

    /// Iterate the parseable `T` lines of every `stem` segment,
    /// quarantining corrupt lines. A final unterminated line is the
    /// expected SIGKILL truncation and is dropped silently; everything
    /// else that fails to parse goes to the ledger.
    fn scan_segments<T: serde::Deserialize>(
        &self,
        stem: &str,
        mut visit: impl FnMut(&str, T),
    ) -> std::io::Result<()> {
        let mut ledger: Option<HashSet<String>> = None;
        for (_, path) in self.segments(stem)? {
            let text = std::fs::read_to_string(&path)?;
            let terminated = text.ends_with('\n');
            let total = text.lines().count();
            let segment = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or(stem)
                .to_string();
            for (idx, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match serde_json::from_str::<T>(line) {
                    Ok(value) => visit(&segment, value),
                    Err(_) => {
                        if idx + 1 == total && !terminated {
                            continue; // truncated tail: expected after SIGKILL
                        }
                        self.quarantine_line(&mut ledger, &segment, idx + 1, line);
                    }
                }
            }
        }
        Ok(())
    }
}

impl RecordStore for LocalStore {
    fn read_manifest(&self) -> std::io::Result<String> {
        std::fs::read_to_string(self.dir.join(MANIFEST_FILE))
    }

    fn write_manifest(&self, toml: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        FaultFs::write(
            "store.manifest",
            &self.dir.join(MANIFEST_FILE),
            toml.as_bytes(),
        )
    }

    fn clear(&self) -> std::io::Result<()> {
        for stem in ["records", "checkpoint"] {
            for (_, path) in self.segments(stem)? {
                std::fs::remove_file(&path)?;
            }
        }
        // Derived artifacts of the previous campaign must not survive a
        // fresh start: a stale BENCH_<oldname>.json would pollute perf
        // trend aggregation over this directory.
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name == CANONICAL_FILE
                || name == QUARANTINE_FILE
                || (name.starts_with("BENCH_") && name.ends_with(".json"))
            {
                std::fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }

    fn open_writer(&self, writer_id: &str) -> std::io::Result<Box<dyn ShardWriter + Send>> {
        Ok(Box::new(RecordSink::open_segment(&self.dir, writer_id)?))
    }

    fn done_shards(&self) -> std::io::Result<HashSet<String>> {
        let mut done = HashSet::new();
        self.scan_segments::<CheckpointLine>("checkpoint", |_, cp| {
            done.insert(cp.shard);
        })?;
        Ok(done)
    }

    fn load_records(&self) -> std::io::Result<Vec<CampaignRecord>> {
        let done = self.done_shards()?;
        let mut records: Vec<CampaignRecord> = Vec::new();
        self.scan_segments::<CampaignRecord>("records", |_, rec| {
            if done.contains(&rec.shard) {
                records.push(rec);
            }
        })?;
        // Last occurrence per unit wins (within the deterministic segment
        // iteration order); then restore deterministic unit order. Replays
        // of one shard differ only in wall-clock, so which copy survives
        // never changes a verdict.
        let mut seen = HashSet::new();
        let mut deduped: Vec<CampaignRecord> = Vec::with_capacity(records.len());
        for rec in records.into_iter().rev() {
            if seen.insert(rec.unit_key()) {
                deduped.push(rec);
            }
        }
        deduped.sort_by(|a, b| {
            a.unit_key()
                .0
                .cmp(&b.unit_key().0)
                .then(a.instance.cmp(&b.instance))
                .then(a.solver.name().cmp(b.solver.name()))
        });
        Ok(deduped)
    }

    fn writer_progress(&self) -> std::io::Result<Vec<(String, u64)>> {
        let mut out = Vec::new();
        for (id, path) in self.segments("checkpoint")? {
            let mut shards = 0u64;
            for line in BufReader::new(File::open(path)?).lines() {
                let line = line?;
                if serde_json::from_str::<CheckpointLine>(&line).is_ok() {
                    shards += 1;
                }
            }
            let id = if id.is_empty() {
                LOCAL_WRITER.to_string()
            } else {
                id
            };
            out.push((id, shards));
        }
        Ok(out)
    }

    fn writer_checkpoints(&self) -> std::io::Result<Vec<(String, Vec<u64>)>> {
        let mut out = Vec::new();
        for (id, path) in self.segments("checkpoint")? {
            let mut times = Vec::new();
            for line in BufReader::new(File::open(path)?).lines() {
                let line = line?;
                if let Ok(cp) = serde_json::from_str::<CheckpointLine>(&line) {
                    if let Some(ms) = cp.unix_ms {
                        times.push(ms);
                    }
                }
            }
            times.sort_unstable();
            let id = if id.is_empty() {
                LOCAL_WRITER.to_string()
            } else {
                id
            };
            out.push((id, times));
        }
        Ok(out)
    }

    fn put_artifact(&self, name: &str, contents: &str) -> std::io::Result<()> {
        // The tmp name must be unique per *writer*, not just per process:
        // concurrent worker threads publishing the same artifact would
        // otherwise tear each other's staging file.
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".{name}.tmp-{}-{seq}", std::process::id()));
        FaultFs::write("store.artifact", &tmp, contents.as_bytes())?;
        FaultFs::rename("store.artifact", &tmp, &self.dir.join(name))
    }
}

// ---------------------------------------------------------------------------
// Segment writer
// ---------------------------------------------------------------------------

/// Append-only writer half of one segment pair. One per campaign
/// run / worker process; shared behind a lock by the executor's threads.
///
/// Commits retry: when any step of a shard commit fails, the (possibly
/// wedged) segment pair is abandoned and the whole shard is re-committed
/// to a fresh *fail-over* pair (`records-<id>-f1.jsonl`, …). The loaders
/// aggregate all segments and dedupe by unit key, so an abandoned pair's
/// partial lines are harmless — either their shard's checkpoint never
/// landed anywhere (dropped), or the fail-over copy wins the dedupe.
#[derive(Debug)]
pub struct RecordSink {
    dir: PathBuf,
    writer_id: String,
    failover: u32,
    records: BufWriter<File>,
    checkpoint: BufWriter<File>,
}

impl RecordSink {
    /// Open the default (single-process) segment for appending.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        Self::open_segment(dir, "")
    }

    /// Open the segment pair of `writer_id` (empty = default) for
    /// appending. A SIGKILL can leave either file ending in a truncated
    /// line; new appends must not concatenate onto it, so a missing
    /// trailing newline is healed first (the half-line itself stays and is
    /// quarantined by the loader).
    pub fn open_segment(dir: &Path, writer_id: &str) -> std::io::Result<Self> {
        let (records, checkpoint) = Self::open_pair(dir, writer_id)?;
        Ok(RecordSink {
            dir: dir.to_path_buf(),
            writer_id: writer_id.to_string(),
            failover: 0,
            records,
            checkpoint,
        })
    }

    fn open_pair(
        dir: &Path,
        writer_id: &str,
    ) -> std::io::Result<(BufWriter<File>, BufWriter<File>)> {
        if !writer_id.is_empty() {
            validate_writer_id(writer_id)?;
        }
        std::fs::create_dir_all(dir)?;
        let suffix = if writer_id.is_empty() {
            String::new()
        } else {
            format!("-{writer_id}")
        };
        let append = |stem: &str| -> std::io::Result<File> {
            FaultFs::check("sink.open")?;
            let path = dir.join(format!("{stem}{suffix}.jsonl"));
            let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
            let len = file.metadata()?.len();
            if len > 0 {
                use std::io::{Read, Seek, SeekFrom};
                let mut last = [0u8; 1];
                let mut reader = File::open(&path)?;
                reader.seek(SeekFrom::End(-1))?;
                reader.read_exact(&mut last)?;
                if last[0] != b'\n' {
                    file.write_all(b"\n")?;
                    file.flush()?;
                }
            }
            Ok(file)
        };
        Ok((
            BufWriter::new(append("records")?),
            BufWriter::new(append("checkpoint")?),
        ))
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The writer id of the segment pair currently being appended to
    /// (`<base>-f<n>` after `n` fail-overs).
    #[must_use]
    pub fn current_writer_id(&self) -> String {
        if self.failover == 0 {
            self.writer_id.clone()
        } else if self.writer_id.is_empty() {
            format!("f{}", self.failover)
        } else {
            // Keep the fail-over id within the 64-char writer-id limit.
            let base: String = self.writer_id.chars().take(58).collect();
            format!("{base}-f{}", self.failover)
        }
    }

    /// Abandon the current segment pair and open the next fail-over pair.
    fn fail_over(&mut self) -> std::io::Result<()> {
        self.failover += 1;
        let id = self.current_writer_id();
        let (records, checkpoint) = Self::open_pair(&self.dir, &id)?;
        self.records = records;
        self.checkpoint = checkpoint;
        mgrts_obs::global()
            .counter(
                "mgrts_store_segment_failovers_total",
                "Segment pairs abandoned after a failed shard commit",
            )
            .inc();
        Ok(())
    }

    /// One full commit attempt on the current segment pair: records,
    /// flush, sync, checkpoint line, flush, sync — the crash-safety
    /// ordering every loader relies on.
    fn try_commit(&mut self, shard: &Shard, records: &[CampaignRecord]) -> std::io::Result<()> {
        for r in records {
            let line = serde_json::to_string(r).map_err(std::io::Error::other)?;
            FaultFs::write_all("sink.append", &mut self.records, line.as_bytes())?;
            self.records.write_all(b"\n")?;
        }
        FaultFs::flush("sink.flush", &mut self.records)?;
        FaultFs::sync_data("sink.sync", self.records.get_ref())?;
        let line = serde_json::to_string(&CheckpointLine {
            shard: shard.hash.clone(),
            records: records.len() as u64,
            unix_ms: Some(unix_ms_now()),
        })
        .map_err(std::io::Error::other)?;
        FaultFs::write_all("sink.checkpoint", &mut self.checkpoint, line.as_bytes())?;
        self.checkpoint.write_all(b"\n")?;
        FaultFs::flush("sink.flush", &mut self.checkpoint)?;
        FaultFs::sync_data("sink.sync", self.checkpoint.get_ref())?;
        Ok(())
    }
}

impl ShardWriter for RecordSink {
    fn commit_shard(&mut self, shard: &Shard, records: &[CampaignRecord]) -> std::io::Result<()> {
        let mut last_err = None;
        for attempt in 0..COMMIT_ATTEMPTS {
            if attempt > 0 {
                mgrts_obs::global()
                    .counter(
                        "mgrts_store_commit_retries_total",
                        "Shard commits retried on a fail-over segment pair",
                    )
                    .inc();
            }
            match self.try_commit(shard, records) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    last_err = Some(e);
                    // The pair may be wedged (failed sync, half-buffered
                    // line): abandon it and retry on a fresh one. If even
                    // opening the fail-over pair fails, give up now.
                    self.fail_over()?;
                }
            }
        }
        Err(last_err.expect("at least one attempt ran"))
    }
}

// ---------------------------------------------------------------------------
// Directory-level convenience wrappers (the historical API)
// ---------------------------------------------------------------------------

/// Shard hashes with a committed checkpoint line in any segment of `dir`.
pub fn load_done_shards(dir: &Path) -> std::io::Result<HashSet<String>> {
    if !dir.exists() {
        return Ok(HashSet::new());
    }
    LocalStore::open(dir)?.done_shards()
}

/// Load the believable records of a store directory: see
/// [`RecordStore::load_records`].
pub fn load_records(dir: &Path) -> std::io::Result<Vec<CampaignRecord>> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    LocalStore::open(dir)?.load_records()
}

/// Canonical, replay-stable serialization of a record set: sorted unit
/// order (as produced by [`RecordStore::load_records`]) with every
/// measurement-domain field normalized — wall clock zeroed, and the race /
/// budget measurements (`winner` is arrival order, `backends` carry
/// per-backend timings, `budget_source` depends on which samples a worker
/// had seen) cleared. Two campaigns over the same manifest produce
/// byte-identical canonical exports regardless of interruption,
/// resumption, thread schedule or how many workers drained the queue.
#[must_use]
pub fn canonical_export(records: &[CampaignRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let mut norm = r.clone();
        norm.time_us = 0;
        norm.winner = None;
        norm.budget_source = None;
        norm.cancel_latency_us = None;
        norm.backends = None;
        norm.search = None;
        out.push_str(&serde_json::to_string(&norm).expect("record serializes"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::RunUnit;

    fn rec(shard: &str, cell: usize, instance: u64, time_us: u64) -> CampaignRecord {
        CampaignRecord {
            shard: shard.to_string(),
            cell,
            instance,
            global_instance: cell as u64 * 10 + instance,
            solver: SolverSpec::Csp1,
            outcome: InstanceOutcome::Solved,
            time_us,
            ratio: 0.9,
            filtered: false,
            m: 2,
            n: 4,
            t_max: 5,
            hetero: false,
            hyperperiod: 60,
            seed: 7,
            policy: Some(PolicyKind::Single),
            winner: None,
            budget_source: Some(BudgetSource::Manifest),
            cancel_latency_us: None,
            backends: None,
            search: None,
        }
    }

    fn shard(hash: &str) -> Shard {
        Shard {
            index: 0,
            hash: hash.to_string(),
            units: vec![RunUnit {
                cell: 0,
                instance: 0,
                solver: 0,
            }],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mgrts-sink-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Serialize against the tests that install a process-global fault
    /// plan: the empty plan keeps every fault site a no-op while held.
    fn no_faults() -> mgrts_fault::PlanGuard {
        mgrts_fault::install_guarded(mgrts_fault::FaultPlan::empty())
    }

    #[test]
    fn pre_telemetry_jsonl_still_deserializes() {
        // A record line exactly as PR <= 7 builds wrote it: no `search`
        // key anywhere. The telemetry field must load as `None`, not
        // reject the segment.
        let line = concat!(
            r#"{"shard":"ab12","cell":3,"instance":1,"global_instance":31,"#,
            r#""solver":"Csp1","outcome":"Solved","time_us":523,"ratio":0.9,"#,
            r#""filtered":false,"m":2,"n":4,"t_max":5,"hetero":false,"#,
            r#""hyperperiod":60,"seed":7,"policy":"Single","winner":null,"#,
            r#""budget_source":"Manifest","cancel_latency_us":null,"backends":null}"#
        );
        let rec: CampaignRecord = serde_json::from_str(line).unwrap();
        assert_eq!(rec.shard, "ab12");
        assert_eq!(rec.cell, 3);
        assert_eq!(rec.time_us, 523);
        assert!(rec.search.is_none());

        // And the modern writer round-trips a populated block.
        let mut modern = rec.clone();
        modern.search = Some(mgrts_obs::SearchStats {
            solves: 1,
            decisions: 42,
            ..Default::default()
        });
        let json = serde_json::to_string(&modern).unwrap();
        let back: CampaignRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.search.as_ref().map(|s| s.decisions), Some(42));
    }

    #[test]
    fn commit_then_load_round_trips() {
        let _faults = no_faults();
        let dir = tmp("roundtrip");
        let mut sink = RecordSink::open(&dir).unwrap();
        sink.commit_shard(&shard("aa"), &[rec("aa", 0, 0, 5), rec("aa", 0, 1, 6)])
            .unwrap();
        let loaded = load_records(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].instance, 0);
        assert_eq!(load_done_shards(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncheckpointed_and_truncated_lines_are_dropped() {
        let _faults = no_faults();
        let dir = tmp("partial");
        let mut sink = RecordSink::open(&dir).unwrap();
        sink.commit_shard(&shard("aa"), &[rec("aa", 0, 0, 5)])
            .unwrap();
        // Simulate a SIGKILL mid-shard: records of an uncheckpointed shard
        // plus a truncated trailing line.
        let mut raw = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(RECORDS_FILE))
            .unwrap();
        let stale = serde_json::to_string(&rec("bb", 1, 0, 9)).unwrap();
        writeln!(raw, "{stale}").unwrap();
        write!(raw, "{}", &stale[..stale.len() / 2]).unwrap();
        drop(raw);
        let loaded = load_records(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].shard, "aa");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replayed_shard_dedupes_by_unit_key() {
        let _faults = no_faults();
        let dir = tmp("dedupe");
        let mut sink = RecordSink::open(&dir).unwrap();
        // Stale copy: records written but imagine the process died before
        // the checkpoint... then the shard was re-run and committed. Both
        // copies end up in the file; only one survives loading.
        sink.commit_shard(&shard("aa"), &[rec("aa", 0, 0, 111)])
            .unwrap();
        sink.commit_shard(&shard("aa"), &[rec("aa", 0, 0, 222)])
            .unwrap();
        let loaded = load_records(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].time_us, 222, "later copy wins");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_segments_aggregate_and_dedupe_across_writers() {
        let _faults = no_faults();
        let dir = tmp("segments");
        let store = LocalStore::open(&dir).unwrap();
        let mut w1 = store.open_writer("w1").unwrap();
        let mut w2 = store.open_writer("w2").unwrap();
        w1.commit_shard(&shard("aa"), &[rec("aa", 0, 0, 5)])
            .unwrap();
        w2.commit_shard(&shard("bb"), &[rec("bb", 0, 1, 6)])
            .unwrap();
        // The same shard replayed by another worker: one copy survives.
        w2.commit_shard(&shard("aa"), &[rec("aa", 0, 0, 9)])
            .unwrap();
        let loaded = store.load_records().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(store.done_shards().unwrap().len(), 2);
        let progress = store.writer_progress().unwrap();
        assert_eq!(progress, vec![("w1".to_string(), 1), ("w2".to_string(), 2)]);
        // Directory-level wrappers see the segments too.
        assert_eq!(load_records(&dir).unwrap().len(), 2);
        // Canonical export is identical no matter which copy of `aa` won.
        assert!(canonical_export(&loaded).contains("\"time_us\":0"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_ids_are_validated() {
        let _faults = no_faults();
        let dir = tmp("writer-ids");
        let store = LocalStore::open(&dir).unwrap();
        assert!(store.open_writer("ok-id_9").is_ok());
        assert!(store.open_writer("").is_ok(), "empty = default segment");
        for bad in ["a/b", "a b", "..", &*"x".repeat(65)] {
            assert!(store.open_writer(bad).is_err(), "{bad:?} accepted");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clear_removes_segments_but_keeps_manifest() {
        let _faults = no_faults();
        let dir = tmp("clear");
        let store = LocalStore::open(&dir).unwrap();
        store.write_manifest("[campaign]\n").unwrap();
        let mut w = store.open_writer("w1").unwrap();
        w.commit_shard(&shard("aa"), &[rec("aa", 0, 0, 5)]).unwrap();
        drop(w);
        store.clear().unwrap();
        assert!(store.done_shards().unwrap().is_empty());
        assert!(store.load_records().unwrap().is_empty());
        assert_eq!(store.read_manifest().unwrap(), "[campaign]\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_artifact_is_atomic_rename() {
        let _faults = no_faults();
        let dir = tmp("artifact");
        let store = LocalStore::open(&dir).unwrap();
        store.put_artifact("BENCH_x.json", "{}").unwrap();
        store.put_artifact("BENCH_x.json", "{\"a\":1}").unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("BENCH_x.json")).unwrap(),
            "{\"a\":1}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_fails_over_to_fresh_segment_on_io_fault() {
        let dir = tmp("failover");
        let mut sink = RecordSink::open(&dir).unwrap();
        // First sync attempt fails; the commit must retry on a fail-over
        // pair and succeed overall.
        let _guard = mgrts_fault::install_guarded(
            mgrts_fault::FaultPlan::parse("sink.sync:full:n1").unwrap(),
        );
        sink.commit_shard(&shard("aa"), &[rec("aa", 0, 0, 5)])
            .unwrap();
        assert_eq!(sink.current_writer_id(), "f1");
        assert!(dir.join("records-f1.jsonl").exists(), "fail-over segment");
        let loaded = load_records(&dir).unwrap();
        assert_eq!(loaded.len(), 1, "shard committed despite the fault");
        // Subsequent commits stay on the fail-over pair without drama.
        sink.commit_shard(&shard("bb"), &[rec("bb", 0, 1, 6)])
            .unwrap();
        assert_eq!(load_records(&dir).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_gives_up_after_exhausting_failovers() {
        let dir = tmp("failover-exhaust");
        let mut sink = RecordSink::open(&dir).unwrap();
        let _guard = mgrts_fault::install_guarded(
            mgrts_fault::FaultPlan::parse("sink.sync:full:always").unwrap(),
        );
        let err = sink
            .commit_shard(&shard("aa"), &[rec("aa", 0, 0, 5)])
            .expect_err("every pair faults");
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_mid_segment_lines_are_quarantined_once() {
        let _faults = no_faults();
        let dir = tmp("quarantine");
        let mut sink = RecordSink::open(&dir).unwrap();
        sink.commit_shard(&shard("aa"), &[rec("aa", 0, 0, 5)])
            .unwrap();
        // Scribble a complete (newline-terminated) garbage line into the
        // middle of the record segment, then a valid committed shard
        // after it — the garbage is not a truncated tail.
        let mut raw = OpenOptions::new()
            .append(true)
            .open(dir.join(RECORDS_FILE))
            .unwrap();
        writeln!(raw, "###corrupt###").unwrap();
        drop(raw);
        sink.commit_shard(&shard("bb"), &[rec("bb", 0, 1, 6)])
            .unwrap();

        let store = LocalStore::open(&dir).unwrap();
        let loaded = store.load_records().unwrap();
        assert_eq!(loaded.len(), 2, "valid records still load");
        let ledger = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
        assert_eq!(ledger.lines().count(), 1, "one corrupt line ledgered");
        let entry: QuarantineEntry = serde_json::from_str(ledger.lines().next().unwrap()).unwrap();
        assert_eq!(entry.raw, "###corrupt###");
        assert_eq!(entry.segment, RECORDS_FILE);

        // Re-loading does not grow the ledger (hash dedupe).
        store.load_records().unwrap();
        store.load_records().unwrap();
        let ledger = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
        assert_eq!(ledger.lines().count(), 1, "ledger did not grow");

        // A truncated (unterminated) tail is NOT quarantined: that is the
        // expected SIGKILL shape.
        let mut raw = OpenOptions::new()
            .append(true)
            .open(dir.join(RECORDS_FILE))
            .unwrap();
        write!(raw, "{{\"half\":").unwrap();
        drop(raw);
        store.load_records().unwrap();
        let ledger = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
        assert_eq!(ledger.lines().count(), 1, "tail not quarantined");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_line_unbelieves_shard_and_is_quarantined() {
        let _faults = no_faults();
        let dir = tmp("quarantine-cp");
        let mut sink = RecordSink::open(&dir).unwrap();
        sink.commit_shard(&shard("aa"), &[rec("aa", 0, 0, 5)])
            .unwrap();
        // Corrupt the (only) checkpoint line, then land a valid one after
        // it so it is mid-file.
        let text = std::fs::read_to_string(dir.join(CHECKPOINT_FILE)).unwrap();
        std::fs::write(
            dir.join(CHECKPOINT_FILE),
            text.replace("aa", "\u{0}\u{0}").replace('{', "#"),
        )
        .unwrap();
        sink.commit_shard(&shard("bb"), &[rec("bb", 0, 1, 6)])
            .unwrap();
        let store = LocalStore::open(&dir).unwrap();
        let loaded = store.load_records().unwrap();
        assert_eq!(loaded.len(), 1, "shard aa is no longer believed");
        assert_eq!(loaded[0].shard, "bb");
        let ledger = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
        assert_eq!(ledger.lines().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn canonical_export_zeroes_time_and_is_stable() {
        let a = canonical_export(&[rec("aa", 0, 0, 111)]);
        let b = canonical_export(&[rec("aa", 0, 0, 999)]);
        assert_eq!(a, b, "wall-clock noise must not leak into the export");
        assert!(a.contains("\"time_us\":0"));
    }
}

//! Lease-based distributed work queue over the shard planner.
//!
//! One campaign, many machines: every worker process points at the same
//! record store (a shared directory today; the [`RecordStore`] trait is
//! the seam for an object store) and cooperatively drains the manifest's
//! shard plan. Coordination is *leases* — small JSON files under
//! `<store>/leases/`, one per in-flight shard:
//!
//! * **claim** — a worker creates `leases/<hash>.lease` with `O_EXCL`
//!   (`create_new`), so exactly one claimer wins; the file names the
//!   worker, a random nonce and a heartbeat timestamp;
//! * **heartbeat** — while solving, a background thread rewrites every
//!   held lease (atomic tmp + rename) to push the expiry forward;
//! * **expiry / reclaim** — a lease whose heartbeat is older than its TTL
//!   belongs to a dead worker. Reclaim is a two-phase steal: atomically
//!   `rename` the expired file to a claimer-unique tombstone (only one
//!   renamer can win, the others get `NotFound`), then re-claim with
//!   `create_new`. The SIGKILLed worker's shard re-runs and its partial
//!   records are superseded by hash, exactly like single-process resume;
//! * **release** — after the records-then-checkpoint commit, the lease is
//!   deleted.
//!
//! Leases are an *efficiency* protocol, not a correctness one: if clock
//! skew or a pathological race ever lets two workers run the same shard,
//! both commits are idempotent — the record store dedupes replayed shards
//! by content hash and unit key, and the canonical export is byte-stable.
//! No ordering between workers is required beyond each worker's own
//! records-then-checkpoint append ordering.
//!
//! Entry points: [`dispatch`] prepares (or joins) a shared store from a
//! manifest and reclaims expired leases, [`run_worker`] drains shards
//! until the campaign completes, and [`status`] reports per-worker
//! progress, in-flight and stale leases, and completion — surfaced as the
//! `mgrts bench campaign dispatch|worker|status` CLI verbs.
//!
//! The drain loop is the only campaign executor. `campaign run` is a fresh
//! [`dispatch`] plus `campaign resume`, and `resume` drains in process as
//! the worker [`LOCAL_WRITER`], whose records go to the default
//! `records.jsonl` / `checkpoint.jsonl` segment. Within one worker, a
//! thread with nothing left to claim but its siblings' shards exits; only
//! other workers' leases are polled for.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use mgrts_core::engine::CancelGroup;
use mgrts_fault::{backoff_delay, is_transient_io, FaultFs};
use mgrts_obs::flight;

use crate::campaign::{
    check_verdicts, panic_reason, run_shard, summarize, CampaignError, CampaignOutcome, Manifest,
};
use crate::policy::Policy;
use crate::shard::Shard;
use crate::sink::{fnv64, validate_writer_id, LocalStore, RecordStore, ShardWriter, LOCAL_WRITER};

/// Lease subdirectory inside a record store.
pub const LEASE_DIR: &str = "leases";

/// Shard failures (panics) tolerated before a shard is *parked* as
/// poison: workers stop re-claiming it, so one bad shard cannot wedge the
/// whole campaign in a crash loop.
pub const PARK_AFTER: u32 = 3;

/// Transient-IO retry attempts before a lease operation is declared
/// genuinely failed.
const LEASE_RETRIES: u32 = 5;

/// Run `op`, retrying transient IO errors (interruptions, timeouts, full
/// disks — see [`mgrts_fault::is_transient_io`]) with jittered
/// exponential backoff and a counted metric. Structural errors (missing
/// store dir, permissions) fail immediately.
pub(crate) fn retry_transient<T>(
    salt: u64,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient_io(&e) && attempt < LEASE_RETRIES => {
                mgrts_obs::global()
                    .counter(
                        "mgrts_lease_transient_errors_total",
                        "Transient IO errors absorbed by lease-operation retries",
                    )
                    .inc();
                std::thread::sleep(backoff_delay(attempt, 5, 200, salt));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One parked (poison) shard: the marker workers consult before
/// claiming.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParkedShard {
    /// Shard content hash.
    pub shard: String,
    /// Recorded failures when the shard was parked.
    pub fails: u32,
    /// Last failure's panic message.
    pub reason: String,
    /// Park wall-clock, milliseconds since the Unix epoch.
    pub unix_ms: u64,
}

fn fails_path(lease_dir: &Path, shard: &str) -> PathBuf {
    lease_dir.join(format!("{shard}.fails"))
}

fn parked_path(lease_dir: &Path, shard: &str) -> PathBuf {
    lease_dir.join(format!("{shard}.parked"))
}

/// Durably count one failure of `shard` (best-effort: racing workers may
/// under-count, which only delays parking by a round). Returns the new
/// count and parks the shard once it reaches [`PARK_AFTER`].
pub(crate) fn note_shard_failure(lease_dir: &Path, shard: &str, reason: &str) -> u32 {
    mgrts_obs::global()
        .counter(
            "mgrts_worker_panics_total",
            "Shard executions that panicked and were caught by the worker supervisor",
        )
        .inc();
    let path = fails_path(lease_dir, shard);
    let fails = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| s.trim().parse::<u32>().ok())
        .unwrap_or(0)
        .saturating_add(1);
    // tmp + rename: a torn count would otherwise reset the tally.
    let tmp = lease_dir.join(format!("{shard}.fails.tmp-{}", std::process::id()));
    if std::fs::write(&tmp, fails.to_string()).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
    if fails >= PARK_AFTER {
        mgrts_obs::global()
            .counter(
                "mgrts_shards_parked_total",
                "Shards parked as poison after repeated failures",
            )
            .inc();
        let entry = ParkedShard {
            shard: shard.to_string(),
            fails,
            reason: reason.chars().take(512).collect(),
            unix_ms: now_unix_ms(),
        };
        if let Ok(json) = serde_json::to_string(&entry) {
            let tmp = lease_dir.join(format!("{shard}.parked.tmp-{}", std::process::id()));
            if std::fs::write(&tmp, json).is_ok() {
                let _ = std::fs::rename(&tmp, parked_path(lease_dir, shard));
            }
        }
    }
    fails
}

/// A committed shard forgets its strikes.
fn forget_strikes(lease_dir: &Path, shard: &str) {
    let _ = remove_if_present(&fails_path(lease_dir, shard));
    let _ = remove_if_present(&parked_path(lease_dir, shard));
}

/// Every parked shard of a store, sorted by hash.
pub fn parked_shards(store_dir: &Path) -> Vec<ParkedShard> {
    parked_in(&store_dir.join(LEASE_DIR))
}

/// Parked shards read straight from a lease directory.
pub(crate) fn parked_in(lease_dir: &Path) -> Vec<ParkedShard> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(lease_dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.ends_with(".parked") {
            continue;
        }
        if let Ok(text) = std::fs::read_to_string(entry.path()) {
            if let Ok(parked) = serde_json::from_str::<ParkedShard>(&text) {
                out.push(parked);
            }
        }
    }
    out.sort_by(|a, b| a.shard.cmp(&b.shard));
    out
}

/// Milliseconds since the Unix epoch — the heartbeat clock. Workers on
/// different machines only compare this against TTLs (tens of seconds),
/// so ordinary clock sync is ample.
#[must_use]
pub fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// One lease file: who holds a shard, and until when.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lease {
    /// Shard content hash the lease covers.
    pub shard: String,
    /// Holder's worker id.
    pub worker: String,
    /// Claim-unique nonce: distinguishes a restarted worker reusing its id
    /// from the dead incarnation's stale lease.
    pub nonce: u64,
    /// Last heartbeat, milliseconds since the Unix epoch.
    pub heartbeat_unix_ms: u64,
    /// Time-to-live after the last heartbeat.
    pub ttl_ms: u64,
}

impl Lease {
    /// Expired at `now` (heartbeat + TTL elapsed)?
    #[must_use]
    pub fn is_expired(&self, now_ms: u64) -> bool {
        now_ms > self.heartbeat_unix_ms.saturating_add(self.ttl_ms)
    }
}

/// The lease directory of one record store, bound to one worker identity.
#[derive(Debug)]
pub struct LeaseBoard {
    dir: PathBuf,
    worker: String,
    nonce: u64,
    ttl: Duration,
}

impl LeaseBoard {
    /// Open `store_dir/leases` for `worker` with lease TTL `ttl`.
    ///
    /// A missing store directory is *structural* (nothing was dispatched
    /// here — retrying cannot help) and fails immediately with
    /// `NotFound`; transient errors creating the lease directory are
    /// retried with backoff.
    pub fn open(store_dir: &Path, worker: &str, ttl: Duration) -> std::io::Result<LeaseBoard> {
        validate_writer_id(worker)?;
        if !store_dir.exists() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!(
                    "store directory {} does not exist — run `dispatch` first",
                    store_dir.display()
                ),
            ));
        }
        let dir = store_dir.join(LEASE_DIR);
        retry_transient(fnv64(worker.as_bytes()), || {
            FaultFs::check("lease.open")?;
            std::fs::create_dir_all(&dir)
        })?;
        // A per-process nonce: claim identity across a worker restart that
        // reuses the same id. Derived from the clock + pid, not security-
        // sensitive — it only disambiguates, mutual exclusion comes from
        // `create_new` / `rename`.
        let nonce = now_unix_ms()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(std::process::id()));
        Ok(LeaseBoard {
            dir,
            worker: worker.to_string(),
            nonce,
            ttl,
        })
    }

    fn lease_path(&self, shard: &str) -> PathBuf {
        self.dir.join(format!("{shard}.lease"))
    }

    /// The lease directory this board manages (`store_dir/leases`).
    pub(crate) fn lease_dir(&self) -> &Path {
        &self.dir
    }

    fn fresh_lease(&self, shard: &str) -> Lease {
        Lease {
            shard: shard.to_string(),
            worker: self.worker.clone(),
            nonce: self.nonce,
            heartbeat_unix_ms: now_unix_ms(),
            ttl_ms: self.ttl.as_millis() as u64,
        }
    }

    /// Create-exclusive claim attempt; `false` means someone else holds a
    /// live lease (or won the race).
    pub fn try_claim(&self, shard: &str) -> std::io::Result<bool> {
        FaultFs::check("lease.claim")?;
        let path = self.lease_path(shard);
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut file) => {
                use std::io::Write;
                let lease = self.fresh_lease(shard);
                file.write_all(
                    serde_json::to_string(&lease)
                        .map_err(std::io::Error::other)?
                        .as_bytes(),
                )?;
                file.sync_all()?;
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                self.try_reclaim(shard, &path)
            }
            Err(e) => Err(e),
        }
    }

    /// Steal an expired lease: atomically rename it to a claimer-unique
    /// tombstone (only one renamer wins), then claim fresh.
    fn try_reclaim(&self, shard: &str, path: &Path) -> std::io::Result<bool> {
        let now = now_unix_ms();
        match read_lease(path) {
            Some(lease) if !lease.is_expired(now) => return Ok(false),
            Some(_) => {}
            None => {
                // Unreadable or torn lease. Only treat it as dead once it
                // is older than our TTL — a claimer between `create_new`
                // and its first write looks exactly like this.
                let age_ok = std::fs::metadata(path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age > self.ttl);
                if !age_ok {
                    return Ok(false);
                }
            }
        }
        let tomb = self.dir.join(format!(
            "{shard}.reclaim-{}-{:016x}",
            self.worker, self.nonce
        ));
        if std::fs::rename(path, &tomb).is_err() {
            return Ok(false); // another claimer stole it first
        }
        let _ = std::fs::remove_file(&tomb);
        // Re-claim with create_new: a third claimer that observed NotFound
        // may race us here; exclusivity still holds.
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
        {
            Ok(mut file) => {
                use std::io::Write;
                let lease = self.fresh_lease(shard);
                file.write_all(
                    serde_json::to_string(&lease)
                        .map_err(std::io::Error::other)?
                        .as_bytes(),
                )?;
                file.sync_all()?;
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Push a held lease's expiry forward (atomic tmp + rename). Returns
    /// `false` — and leaves the file alone — if the lease is no longer
    /// ours (it expired and someone reclaimed it); the caller keeps
    /// running, because a double-run is deduped anyway.
    pub fn renew(&self, shard: &str) -> std::io::Result<bool> {
        FaultFs::check("lease.renew")?;
        let path = self.lease_path(shard);
        match read_lease(&path) {
            Some(l) if l.worker == self.worker && l.nonce == self.nonce => {}
            _ => return Ok(false),
        }
        let tmp = self
            .dir
            .join(format!("{shard}.renew-{}-{:016x}", self.worker, self.nonce));
        std::fs::write(
            &tmp,
            serde_json::to_string(&self.fresh_lease(shard)).map_err(std::io::Error::other)?,
        )?;
        std::fs::rename(&tmp, &path)?;
        Ok(true)
    }

    /// Drop a lease we hold (after commit). Leaves foreign leases alone.
    /// Transient IO errors are retried: a leaked lease costs a full TTL
    /// of another worker's time, so releases try hard.
    pub fn release(&self, shard: &str) -> std::io::Result<()> {
        let path = self.lease_path(shard);
        retry_transient(fnv64(shard.as_bytes()), || {
            FaultFs::check("lease.release")?;
            match read_lease(&path) {
                Some(l) if l.worker == self.worker && l.nonce == self.nonce => {
                    let _ = std::fs::remove_file(&path);
                }
                _ => {}
            }
            Ok(())
        })
    }

    /// Every parseable lease on the board.
    pub fn list(&self) -> std::io::Result<Vec<Lease>> {
        list_leases(&self.dir)
    }
}

fn read_lease(path: &Path) -> Option<Lease> {
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// Every parseable lease in a store's lease directory.
pub fn list_leases(lease_dir: &Path) -> std::io::Result<Vec<Lease>> {
    let mut out = Vec::new();
    if !lease_dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(lease_dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.ends_with(".lease") {
            continue;
        }
        if let Some(lease) = read_lease(&entry.path()) {
            out.push(lease);
        }
    }
    out.sort_by(|a, b| a.shard.cmp(&b.shard));
    Ok(out)
}

/// Delete every expired lease (the coordinator's reclaim sweep). Returns
/// the shard hashes freed.
///
/// Uses the same two-phase steal as worker reclaim: rename the
/// expired-looking file to a sweeper-unique tombstone, *re-read what was
/// actually stolen*, and put a still-live lease back — a bare
/// `remove_file` here could race a worker that just reclaimed the lease
/// and delete its fresh claim.
pub fn reclaim_expired(store_dir: &Path) -> std::io::Result<Vec<String>> {
    let lease_dir = store_dir.join(LEASE_DIR);
    let mut freed = Vec::new();
    let sweep_tag = format!("sweep-{}-{}", std::process::id(), now_unix_ms());
    for lease in list_leases(&lease_dir)? {
        if !lease.is_expired(now_unix_ms()) {
            continue;
        }
        let path = lease_dir.join(format!("{}.lease", lease.shard));
        let tomb = lease_dir.join(format!("{}.{sweep_tag}", lease.shard));
        if std::fs::rename(&path, &tomb).is_err() {
            continue; // already reclaimed by someone else
        }
        match read_lease(&tomb) {
            // Stole a *live* lease (a worker reclaimed between our list and
            // rename): hand it back. The path is vacant unless a third
            // claimer sneaked in — then the rename-back clobbers its claim,
            // which at worst double-runs a shard (deduped by design).
            Some(current) if !current.is_expired(now_unix_ms()) => {
                let _ = std::fs::rename(&tomb, &path);
            }
            _ => {
                let _ = std::fs::remove_file(&tomb);
                freed.push(lease.shard);
            }
        }
    }
    Ok(freed)
}

/// The lease key a worker holds for its entire lifetime (its *presence*),
/// as opposed to the per-shard leases it claims and releases while
/// draining. Shard hashes are 16 hex digits, so the prefix cannot collide
/// with one.
#[must_use]
pub fn presence_key(worker_id: &str) -> String {
    format!("worker-{worker_id}")
}

/// Is this lease a worker-presence lease (vs an in-flight shard lease)?
#[must_use]
pub fn is_presence(lease: &Lease) -> bool {
    lease.shard.starts_with("worker-")
}

/// Error unless no unexpired lease exists — neither in-flight shards nor
/// live worker presences. The guard `compact` and `dispatch --fresh` run
/// before touching segment files other processes might hold open.
pub(crate) fn ensure_quiesced(store_dir: &Path, then: &str) -> Result<(), CampaignError> {
    let now = now_unix_ms();
    let live: Vec<String> = list_leases(&store_dir.join(LEASE_DIR))?
        .into_iter()
        .filter(|l| !l.is_expired(now))
        .map(|l| l.shard)
        .collect();
    if !live.is_empty() {
        return Err(CampaignError::Store(format!(
            "{} live lease(s) [{}] — workers are still using this store; {then} \
             after they finish (or their leases expire)",
            live.len(),
            live.join(", ")
        )));
    }
    Ok(())
}

/// Remove lease files (every one, or only those `holder` holds, expired
/// or not) together with every strike marker, so each shard gets
/// [`PARK_AFTER`] fresh attempts. Removing another worker's lease is only
/// safe after [`ensure_quiesced`].
pub(crate) fn clear_leases(store_dir: &Path, holder: Option<&str>) -> std::io::Result<()> {
    let lease_dir = store_dir.join(LEASE_DIR);
    if !lease_dir.exists() {
        return Ok(());
    }
    for entry in std::fs::read_dir(&lease_dir)? {
        let entry = entry?;
        let Some(name) = entry.file_name().to_str().map(ToString::to_string) else {
            continue;
        };
        let doomed = if name.ends_with(".lease") {
            holder.is_none_or(|id| read_lease(&entry.path()).is_some_and(|l| l.worker == id))
        } else {
            name.ends_with(".fails") || name.ends_with(".parked") || name.contains(".tmp-")
        };
        if doomed {
            remove_if_present(&entry.path())?;
        }
    }
    Ok(())
}

/// `remove_file` that treats an already-missing file as removed.
fn remove_if_present(path: &Path) -> std::io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Dispatch: prepare / join a shared store
// ---------------------------------------------------------------------------

/// What [`dispatch`] found or prepared.
#[derive(Debug)]
pub struct DispatchReport {
    /// Shards in the plan.
    pub shards_total: u64,
    /// Shards already checkpointed.
    pub shards_done: u64,
    /// Expired leases reclaimed by this dispatch.
    pub leases_reclaimed: u64,
    /// True when the store was initialized by this call (vs joined).
    pub initialized: bool,
}

/// Prepare a shared record store for workers: write the canonical
/// manifest (validating round-trip stability), create the lease
/// directory, and sweep expired leases. Joining an existing store with
/// the *same* fingerprint is idempotent and keeps its records; a
/// different fingerprint is an error unless `fresh` clears the store.
pub fn dispatch(
    manifest: &Manifest,
    store_dir: &Path,
    fresh: bool,
) -> Result<DispatchReport, CampaignError> {
    // The store must be self-contained: the canonical manifest it carries
    // has to regenerate *this* campaign, or workers and `report` would
    // operate on different work. A programmatic Manifest whose cells are
    // not a full axis product cannot round-trip — reject it up front
    // rather than strand the store.
    let round_trip = Manifest::parse(&manifest.to_toml())?;
    if round_trip != *manifest {
        return Err(CampaignError::Manifest(
            "manifest does not survive canonical re-serialization (the cell list \
             must be the full cartesian product of its axis values)"
                .into(),
        ));
    }
    let store = LocalStore::open(store_dir)?;
    if fresh {
        // Clearing unlinks segment files live workers hold open — refuse
        // while any of them is present, then drop their stale leases
        // along with the data.
        ensure_quiesced(store_dir, "start it fresh")?;
        store.clear()?;
        clear_leases(store_dir, None)?;
    }
    let initialized = match store.read_manifest() {
        Ok(existing) if !fresh => {
            if Manifest::parse(&existing)?.fingerprint() != manifest.fingerprint() {
                return Err(CampaignError::Store(format!(
                    "store {} holds a different campaign (fingerprint mismatch); \
                     pass --fresh to clear it",
                    store_dir.display()
                )));
            }
            false // idempotent join
        }
        Ok(_) => true,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => true,
        Err(e) => return Err(CampaignError::Io(e)),
    };
    if initialized {
        store.write_manifest(&manifest.to_toml())?;
    }
    std::fs::create_dir_all(store_dir.join(LEASE_DIR))?;
    let freed = reclaim_expired(store_dir)?;
    let done = store.done_shards()?;
    Ok(DispatchReport {
        shards_total: manifest.plan().len() as u64,
        shards_done: done.len() as u64,
        leases_reclaimed: freed.len() as u64,
        initialized,
    })
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Knobs of one worker process.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Worker id (`[A-Za-z0-9_-]{1,64}`); also names the record segment.
    pub id: String,
    /// Solver threads inside this worker (each claims its own shard).
    pub threads: usize,
    /// Lease time-to-live: how long after the last heartbeat peers may
    /// reclaim this worker's shards.
    pub lease_ttl: Duration,
    /// Poll interval while waiting on peers' leases.
    pub poll: Duration,
    /// Stop after committing this many shards (test/CI hook).
    pub max_shards: Option<u64>,
    /// Progress lines on stderr.
    pub progress: bool,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            id: format!("w{}", std::process::id()),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            lease_ttl: Duration::from_secs(30),
            poll: Duration::from_millis(250),
            max_shards: None,
            progress: false,
        }
    }
}

/// Load a dispatched store's manifest and shard plan, refusing a store
/// whose checkpoints name a shard outside that plan.
pub(crate) fn open_plan(
    store_dir: &Path,
) -> Result<(LocalStore, Manifest, Vec<Shard>), CampaignError> {
    let store = LocalStore::open(store_dir)?;
    let manifest = Manifest::parse(&store.read_manifest().map_err(|e| {
        CampaignError::Store(format!(
            "store {} has no manifest — start it with `run` or `dispatch` ({e})",
            store_dir.display()
        ))
    })?)?;
    let shards = manifest.plan();
    let planned: HashSet<&str> = shards.iter().map(|s| s.hash.as_str()).collect();
    if let Some(stranger) = store
        .done_shards()?
        .into_iter()
        .find(|h| !planned.contains(h.as_str()))
    {
        return Err(CampaignError::Store(format!(
            "checkpointed shard {stranger} is not part of this manifest's plan \
             (the store was produced by a different manifest); use `run` to start fresh"
        )));
    }
    Ok((store, manifest, shards))
}

/// Drain shards from a dispatched store until the campaign completes (or
/// `max_shards` / cancellation stops this worker early). Any number of
/// worker processes may run concurrently against one store; each claims
/// shards via leases, heartbeats while solving, commits through its own
/// record segment, and reclaims peers' expired leases.
pub fn run_worker(
    store_dir: &Path,
    opts: &WorkerOptions,
    cancel: &CancelGroup,
) -> Result<CampaignOutcome, CampaignError> {
    let (store, manifest, shards) = open_plan(store_dir)?;
    drain(store_dir, &store, &manifest, &shards, opts, cancel)
}

/// The one shard loop behind `run`, `resume` and `worker`: hold a
/// presence lease, drain with `opts.threads` claimer threads while the
/// calling thread heartbeats every held lease, then summarize the store.
pub(crate) fn drain(
    store_dir: &Path,
    store: &LocalStore,
    manifest: &Manifest,
    shards: &[Shard],
    opts: &WorkerOptions,
    cancel: &CancelGroup,
) -> Result<CampaignOutcome, CampaignError> {
    let started = Instant::now();
    // The worker's policy snapshot: a joining or restarted worker sees
    // whatever peers have committed so far, so an adaptive wrapper's
    // quantile allowances engage as the shared store fills up. Budgets are
    // measurement-domain — differing snapshots across workers never change
    // what the record store dedupes on.
    let policy = manifest.build_policy(store)?;

    let board = LeaseBoard::open(store_dir, &opts.id, opts.lease_ttl)?;
    // Presence lease: held for the worker's whole lifetime, not per shard.
    // Between shards a worker holds no shard lease, so without this a
    // concurrent `compact` / `dispatch --fresh` could judge the store
    // quiesced and unlink the segment this worker is appending to. A
    // restarted worker reusing its id waits out the dead incarnation's
    // presence TTL here.
    let presence = presence_key(&opts.id);
    loop {
        if retry_transient(fnv64(presence.as_bytes()), || board.try_claim(&presence))? {
            break;
        }
        if cancel.is_cancelled() {
            return Err(CampaignError::Store(format!(
                "worker id {} is still present (live lease) and the start was cancelled",
                opts.id
            )));
        }
        std::thread::sleep(opts.poll);
    }
    let segment = if opts.id == LOCAL_WRITER {
        ""
    } else {
        &opts.id
    };
    let worker = Drain {
        manifest,
        policy: &policy,
        shards,
        store,
        board: &board,
        opts,
        cancel,
        writer: Mutex::new(store.open_writer(segment)?),
        held: Mutex::new(HashSet::from([presence.clone()])),
        slots: AtomicU64::new(0),
        committed: AtomicU64::new(0),
        failure: Mutex::new(None),
    };
    let recorder = mgrts_obs::FlightRecorder::new(256);
    let (alive, all_exited) = mpsc::channel::<()>();

    crossbeam::scope(|scope| {
        for t in 0..opts.threads.max(1) {
            let (worker, recorder, alive) = (&worker, &recorder, alive.clone());
            scope.spawn(move |_| {
                let _ring = flight::install(recorder, &format!("campaign-worker-{t}"));
                worker.claim_loop();
                drop(alive);
            });
        }
        drop(alive);
        // Heartbeat: push every held lease's expiry forward at a quarter
        // of the TTL, so a live worker never looks dead. It stops the
        // moment the last claimer thread drops its sender.
        let tick = (opts.lease_ttl / 4).max(Duration::from_millis(20));
        while let Err(RecvTimeoutError::Timeout) = all_exited.recv_timeout(tick) {
            // Snapshot outside the lock: renewals are file writes and
            // must not stall the claimer threads' scans.
            let to_renew: Vec<String> = worker.held.lock().iter().cloned().collect();
            for shard in &to_renew {
                let _ = board.renew(shard);
            }
        }
    })
    .expect("worker thread panicked");
    let _ = board.release(&presence);

    // A cancelled drain leaves its merged timeline behind: which thread
    // held which shard when the stop landed.
    if cancel.is_cancelled() {
        let dump = recorder.dump();
        if !dump.is_empty() {
            let _ = store.put_artifact("flight-campaign.jsonl", &dump);
        }
    }
    if let Some(e) = worker.failure.into_inner() {
        return Err(e);
    }

    let parked = parked_shards(store_dir);
    if opts.progress {
        for p in &parked {
            eprintln!(
                "  [{}] shard {} is parked as poison after {} failures: {}",
                opts.id, p.shard, p.fails, p.reason
            );
        }
    }
    let done_after = store.done_shards()?;
    let records = store.load_records()?;
    let summary = summarize(
        manifest,
        &records,
        shards.len() as u64,
        done_after.len() as u64,
        started.elapsed().as_millis() as u64,
    );
    store.put_artifact(
        &format!("BENCH_{}.json", manifest.name),
        &serde_json::to_string_pretty(&summary).map_err(std::io::Error::other)?,
    )?;
    check_verdicts(&records, &summary)?;
    Ok(CampaignOutcome {
        summary,
        shards_committed: worker.committed.into_inner(),
        parked,
    })
}

/// State the claimer threads of one drain share.
struct Drain<'a> {
    manifest: &'a Manifest,
    policy: &'a Policy,
    shards: &'a [Shard],
    store: &'a LocalStore,
    board: &'a LeaseBoard,
    opts: &'a WorkerOptions,
    cancel: &'a CancelGroup,
    writer: Mutex<Box<dyn ShardWriter + Send>>,
    /// Leases this worker holds or is claiming: its presence and one
    /// shard per busy thread.
    held: Mutex<HashSet<String>>,
    /// Shards committed plus shards in flight: claims reserve a slot so
    /// `max_shards` holds at any thread count.
    slots: AtomicU64,
    committed: AtomicU64,
    failure: Mutex<Option<CampaignError>>,
}

impl<'a> Drain<'a> {
    fn fail(&self, e: CampaignError) {
        self.failure.lock().get_or_insert(e);
        self.cancel.cancel_all();
    }

    fn claim_loop(&self) {
        let cap = self.opts.max_shards.unwrap_or(u64::MAX);
        while !self.cancel.is_cancelled() {
            if self
                .slots
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < cap).then_some(n + 1)
                })
                .is_err()
            {
                return;
            }
            let shard = match self.claim() {
                Ok(Some(shard)) => shard,
                unclaimed => {
                    self.slots.fetch_sub(1, Ordering::Relaxed);
                    if let Err(e) = unclaimed {
                        self.fail(e);
                    }
                    return;
                }
            };
            if !self.run(shard) {
                self.slots.fetch_sub(1, Ordering::Relaxed);
            }
            self.held.lock().remove(&shard.hash);
            let _ = self.board.release(&shard.hash);
        }
    }

    /// Lease the first pending shard in plan order (contention clusters
    /// at the frontier and resolves by `create_new` exclusivity). `None`
    /// once nothing is left for this thread: every pending shard is
    /// done, parked, or held by a sibling thread. Shards leased by other
    /// workers are polled for until they commit or their leases expire.
    fn claim(&self) -> Result<Option<&'a Shard>, CampaignError> {
        loop {
            // Refresh the done set from the shared store: peers commit
            // concurrently, and their checkpoints are the ground truth.
            // This re-read is deliberate, not cached — it costs one pass
            // over the (small) checkpoint segments per claim, and
            // staleness here would be far more expensive: a shard a peer
            // just committed looks pending, its lease is already
            // released, and we would re-solve it whole.
            let done = self.store.done_shards()?;
            // Parked (poison) shards are skipped: the campaign drains
            // everything else and exits instead of crash-looping on one
            // bad shard.
            let parked: HashSet<String> = parked_in(self.board.lease_dir())
                .into_iter()
                .map(|p| p.shard)
                .collect();
            let mut foreign = false;
            for shard in self
                .shards
                .iter()
                .filter(|s| !done.contains(&s.hash) && !parked.contains(&s.hash))
            {
                if !self.held.lock().insert(shard.hash.clone()) {
                    continue; // a sibling thread has it
                }
                let claimed = retry_transient(fnv64(shard.hash.as_bytes()), || {
                    self.board.try_claim(&shard.hash)
                });
                if !matches!(claimed, Ok(true)) {
                    self.held.lock().remove(&shard.hash);
                }
                if claimed? {
                    return Ok(Some(shard));
                }
                foreign = true;
            }
            if !foreign || self.cancel.is_cancelled() {
                return Ok(None);
            }
            std::thread::sleep(self.opts.poll);
        }
    }

    /// Run and commit one leased shard; `true` when it committed.
    ///
    /// A panicking solver must not take the worker (and its held leases)
    /// down with it: the caught shard gets a durable strike and is parked
    /// as poison after [`PARK_AFTER`] of them; the caller releases its
    /// lease at once, not after a TTL.
    fn run(&self, shard: &Shard) -> bool {
        flight::event(
            "shard.claim",
            &shard.hash,
            &format!("shard {} of {}", shard.index, self.shards.len()),
        );
        // Re-derive store-dependent policy state (adaptive allowances) so
        // this shard's budgets reflect every record committed so far, not
        // the snapshot this worker started with.
        if let Err(e) = self.policy.refresh(self.store) {
            self.fail(e);
            return false;
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_shard(self.manifest, self.policy, shard, self.cancel)
        }));
        match result {
            Ok(Ok(Some(records))) => {
                if let Err(e) = self.writer.lock().commit_shard(shard, &records) {
                    self.fail(CampaignError::Io(e));
                    return false;
                }
                forget_strikes(self.board.lease_dir(), &shard.hash);
                let n = self.committed.fetch_add(1, Ordering::Relaxed) + 1;
                if self.opts.progress {
                    eprintln!(
                        "  [{}] shard {} committed ({n} this run, {} units)",
                        self.opts.id,
                        shard.index,
                        records.len(),
                    );
                }
                true
            }
            Ok(Ok(None)) => false, // cancelled mid-shard: it re-runs later
            Ok(Err(e)) => {
                self.fail(e);
                false
            }
            Err(payload) => {
                let reason = panic_reason(payload.as_ref());
                flight::event("shard.panic", &shard.hash, &reason);
                let fails = note_shard_failure(self.board.lease_dir(), &shard.hash, &reason);
                if self.opts.progress {
                    eprintln!(
                        "  [{}] shard {} panicked (strike {fails}/{PARK_AFTER}): {reason}",
                        self.opts.id, shard.index,
                    );
                }
                false
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

/// One worker's committed-shard throughput, derived from the commit
/// timestamps in its checkpoint segment.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerRate {
    /// Worker id (segment name).
    pub worker: String,
    /// Timestamped shard commits.
    pub shards: u64,
    /// Commit rate in shards per minute, measured from the worker's first
    /// commit to now.
    pub shards_per_min: f64,
    /// Does a live presence lease back this worker (dead workers are
    /// excluded from the aggregate rate)?
    pub live: bool,
}

/// Campaign ETA derived from per-worker throughput: `shards remaining /
/// aggregate live-worker rate`. The machine-readable autoscaling hint —
/// an orchestrator reading `status --json` scales workers until `eta_ms`
/// fits its deadline.
#[derive(Debug, Clone, Serialize)]
pub struct EtaReport {
    /// Shards not yet checkpointed.
    pub shards_remaining: u64,
    /// Workers with a live presence lease.
    pub live_workers: u64,
    /// Summed commit rate of the live workers, shards per minute.
    pub aggregate_shards_per_min: f64,
    /// Estimated milliseconds until the campaign completes; `None` when
    /// nothing remains or no live worker has a measurable rate.
    pub eta_ms: Option<u64>,
}

/// Queue-level progress of a shared store.
#[derive(Debug, Serialize)]
pub struct StatusReport {
    /// Campaign name.
    pub campaign: String,
    /// Shards in the plan.
    pub shards_total: u64,
    /// Shards checkpointed.
    pub shards_done: u64,
    /// Believable records in the store.
    pub records: u64,
    /// Committed-shard count per worker segment.
    pub workers: Vec<(String, u64)>,
    /// Per-worker throughput (timestamped commits only; pre-policy
    /// checkpoint lines carry no timestamp and are skipped).
    pub rates: Vec<WorkerRate>,
    /// The derived completion estimate.
    pub eta: EtaReport,
    /// In-flight *shard* leases, each flagged `true` when expired (stale).
    pub leases: Vec<(Lease, bool)>,
    /// Worker-presence leases (live workers attached to the store), each
    /// flagged `true` when expired (a dead worker not yet swept).
    pub presences: Vec<(Lease, bool)>,
    /// Shards parked as poison after repeated failures.
    pub parked: Vec<ParkedShard>,
    /// All shards checkpointed?
    pub complete: bool,
}

/// Inspect a shared store: per-worker progress and throughput, live and
/// stale leases, the completion ETA.
pub fn status(store_dir: &Path) -> Result<StatusReport, CampaignError> {
    let store = LocalStore::open(store_dir)?;
    let manifest = Manifest::parse(&store.read_manifest().map_err(|e| {
        CampaignError::Store(format!(
            "store {} has no manifest ({e})",
            store_dir.display()
        ))
    })?)?;
    let shards_total = manifest.plan().len() as u64;
    let done = store.done_shards()?;
    let records = store.load_records()?;
    let now = now_unix_ms();
    let (presences, leases): (Vec<_>, Vec<_>) = list_leases(&store_dir.join(LEASE_DIR))?
        .into_iter()
        .map(|l| {
            let expired = l.is_expired(now);
            (l, expired)
        })
        .partition(|(l, _)| is_presence(l));
    // strip_prefix, not trim_start_matches: the latter strips repeatedly,
    // so a worker whose *id* itself starts with "worker-" would never
    // match its own presence key.
    let live_ids: HashSet<String> = presences
        .iter()
        .filter(|(_, expired)| !expired)
        .filter_map(|(l, _)| l.shard.strip_prefix("worker-").map(ToString::to_string))
        .collect();
    let rates: Vec<WorkerRate> = store
        .writer_checkpoints()?
        .into_iter()
        .map(|(worker, times)| {
            let live = live_ids.contains(&worker);
            let shards = times.len() as u64;
            // Inter-commit rate over the window first-commit → now:
            // (shards - 1) commits happened *after* the window opened, so
            // counting all `shards` would inflate the rate unboundedly at
            // low counts (1 shard / 1 s since it ≠ 60 shards/min). "To
            // now", not "to last commit": an idle-but-alive worker's rate
            // must decay instead of freezing at its historical best. One
            // commit carries no interval information — rate 0 until the
            // second.
            let shards_per_min = match times.first() {
                Some(&first) if shards >= 2 && now > first => {
                    (shards - 1) as f64 / ((now - first) as f64 / 60_000.0)
                }
                _ => 0.0,
            };
            WorkerRate {
                worker,
                shards,
                shards_per_min,
                live,
            }
        })
        .collect();
    let shards_remaining = shards_total.saturating_sub(done.len() as u64);
    // fold from +0.0, not sum(): std's empty f64 sum is -0.0, which would
    // leak a confusing "-0.0" into the JSON surface.
    let aggregate: f64 = rates
        .iter()
        .filter(|r| r.live)
        .fold(0.0, |a, r| a + r.shards_per_min);
    let eta = EtaReport {
        shards_remaining,
        live_workers: live_ids.len() as u64,
        aggregate_shards_per_min: aggregate,
        eta_ms: if shards_remaining == 0 || aggregate <= 0.0 {
            None
        } else {
            Some((shards_remaining as f64 / aggregate * 60_000.0) as u64)
        },
    };
    Ok(StatusReport {
        campaign: manifest.name,
        shards_total,
        shards_done: done.len() as u64,
        records: records.len() as u64,
        workers: store.writer_progress()?,
        rates,
        eta,
        leases,
        presences,
        parked: parked_shards(store_dir),
        complete: done.len() as u64 >= shards_total,
    })
}

/// Text rendering of a [`StatusReport`].
#[must_use]
pub fn render_status(s: &StatusReport) -> String {
    let mut out = format!(
        "campaign {} — shards {}/{}{}, {} records\n",
        s.campaign,
        s.shards_done,
        s.shards_total,
        if s.complete { " (complete)" } else { "" },
        s.records,
    );
    if s.workers.is_empty() {
        out.push_str("no worker has committed yet\n");
    } else {
        out.push_str(&format!(
            "{:<20} {:>10} {:>14}\n",
            "worker", "shards", "shards/min"
        ));
        for (id, shards) in &s.workers {
            let rate = s
                .rates
                .iter()
                .find(|r| r.worker == *id)
                .map(|r| format!("{:.2}{}", r.shards_per_min, if r.live { "" } else { " †" }))
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!("{id:<20} {shards:>10} {rate:>14}\n"));
        }
    }
    match s.eta.eta_ms {
        Some(ms) => out.push_str(&format!(
            "eta: {} shard(s) remaining / {:.2} shards/min over {} live worker(s) ≈ {:.1} s\n",
            s.eta.shards_remaining,
            s.eta.aggregate_shards_per_min,
            s.eta.live_workers,
            ms as f64 / 1000.0
        )),
        None if s.eta.shards_remaining > 0 => out.push_str(&format!(
            "eta: {} shard(s) remaining, no live worker rate to estimate from\n",
            s.eta.shards_remaining
        )),
        None => {}
    }
    let now = now_unix_ms();
    let dead = s.presences.iter().filter(|(_, e)| *e).count();
    out.push_str(&format!(
        "{} worker(s) attached, {dead} dead (presence expired)\n",
        s.presences.len()
    ));
    for (lease, expired) in &s.presences {
        let age_ms = now.saturating_sub(lease.heartbeat_unix_ms);
        out.push_str(&format!(
            "  {} (heartbeat {age_ms} ms ago{})\n",
            lease.worker,
            if *expired { ", DEAD" } else { "" },
        ));
    }
    let stale = s.leases.iter().filter(|(_, e)| *e).count();
    out.push_str(&format!(
        "{} lease(s) in flight, {stale} stale\n",
        s.leases.len()
    ));
    for (lease, expired) in &s.leases {
        let age_ms = now.saturating_sub(lease.heartbeat_unix_ms);
        out.push_str(&format!(
            "  shard {} held by {} (heartbeat {age_ms} ms ago{})\n",
            lease.shard,
            lease.worker,
            if *expired { ", EXPIRED" } else { "" },
        ));
    }
    if !s.parked.is_empty() {
        out.push_str(&format!("{} shard(s) PARKED as poison\n", s.parked.len()));
        for p in &s.parked {
            out.push_str(&format!(
                "  shard {} parked after {} failure(s): {}\n",
                p.shard, p.fails, p.reason
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mgrts-queue-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Serialize against the tests that install a process-global fault
    /// plan: the empty plan keeps every fault site a no-op while held.
    fn no_faults() -> mgrts_fault::PlanGuard {
        mgrts_fault::install_guarded(mgrts_fault::FaultPlan::empty())
    }

    /// A dispatched one-shard store (one instance, one solver).
    fn one_shard_store(name: &str) -> PathBuf {
        let dir = tmp(name);
        let manifest = Manifest::parse(
            "[campaign]\nname = \"one\"\nseed = 3\ninstances_per_cell = 1\n\
             [grid]\nn = [3]\nm = [2]\nt_max = [4]\nsolvers = [\"csp2-dc\"]\n",
        )
        .unwrap();
        assert_eq!(manifest.plan().len(), 1);
        dispatch(&manifest, &dir, false).unwrap();
        dir
    }

    #[test]
    fn a_shard_that_panics_once_then_commits_leaves_no_lease_files() {
        let dir = one_shard_store("strike");
        let _panic_once = mgrts_fault::install_guarded(
            mgrts_fault::FaultPlan::parse("seed=1;engine.solve:panic:n1").unwrap(),
        );
        let opts = WorkerOptions {
            id: "w1".to_string(),
            threads: 1,
            ..WorkerOptions::default()
        };
        let outcome = run_worker(&dir, &opts, &CancelGroup::new()).unwrap();
        assert!(outcome.summary.completed);
        assert_eq!(outcome.shards_committed, 1);
        assert!(outcome.parked.is_empty());
        let left: Vec<_> = std::fs::read_dir(dir.join(LEASE_DIR))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(left.is_empty(), "lease files left behind: {left:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn idle_threads_exit_instead_of_polling_their_siblings() {
        let _faults = no_faults();
        let dir = one_shard_store("no-tail");
        // Three of the four threads find the only shard held by a sibling;
        // the heartbeat's tick is 15 s. Neither may hold the drain up.
        let opts = WorkerOptions {
            id: "w1".to_string(),
            threads: 4,
            lease_ttl: Duration::from_secs(60),
            poll: Duration::from_secs(10),
            ..WorkerOptions::default()
        };
        let started = Instant::now();
        let outcome = run_worker(&dir, &opts, &CancelGroup::new()).unwrap();
        assert!(outcome.summary.completed);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "drain took {:?}",
            started.elapsed()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn claim_is_exclusive_until_released() {
        let _faults = no_faults();
        let dir = tmp("claim");
        let a = LeaseBoard::open(&dir, "a", Duration::from_secs(60)).unwrap();
        let b = LeaseBoard::open(&dir, "b", Duration::from_secs(60)).unwrap();
        assert!(a.try_claim("s1").unwrap());
        assert!(!b.try_claim("s1").unwrap(), "live lease stolen");
        assert!(b.try_claim("s2").unwrap(), "other shards stay claimable");
        a.release("s1").unwrap();
        assert!(b.try_claim("s1").unwrap(), "released lease re-claimable");
        // b's release must not delete a lease it doesn't hold.
        a.release("s2").unwrap();
        assert!(!a.try_claim("s2").unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Move the last heartbeat of the lease on `shard` `ms` into the
    /// past, as if its holder had stopped renewing that long ago. Expiry
    /// is then decided by heartbeat timestamps minutes apart, not by how
    /// long a test thread slept.
    fn age_lease(dir: &Path, shard: &str, ms: u64) {
        let path = dir.join(LEASE_DIR).join(format!("{shard}.lease"));
        let mut lease = read_lease(&path).expect("a lease to age");
        lease.heartbeat_unix_ms -= ms;
        std::fs::write(&path, serde_json::to_string(&lease).unwrap()).unwrap();
    }

    #[test]
    fn expired_leases_are_reclaimable_and_renew_extends() {
        let _faults = no_faults();
        let dir = tmp("expiry");
        let ttl = Duration::from_secs(60);
        let fast = LeaseBoard::open(&dir, "fast", ttl).unwrap();
        let other = LeaseBoard::open(&dir, "other", ttl).unwrap();
        assert!(fast.try_claim("s1").unwrap());
        assert!(fast.try_claim("s2").unwrap());
        // Both leases go two TTLs without a heartbeat; then s1's holder
        // renews and s2's does not.
        age_lease(&dir, "s1", 120_000);
        age_lease(&dir, "s2", 120_000);
        let now = now_unix_ms();
        assert!(fast.list().unwrap().iter().all(|l| l.is_expired(now)));
        assert!(fast.renew("s1").unwrap());
        let s1 = fast.list().unwrap().remove(0);
        assert_eq!(s1.shard, "s1");
        assert!(!s1.is_expired(now_unix_ms()), "renew did not extend");
        assert!(!s1.is_expired(s1.heartbeat_unix_ms + 60_000));
        assert!(s1.is_expired(s1.heartbeat_unix_ms + 60_001));
        assert!(!other.try_claim("s1").unwrap(), "renewed lease stolen");
        assert!(
            other.try_claim("s2").unwrap(),
            "expired lease not reclaimed"
        );
        // The original holder notices it lost s2: renew refuses.
        assert!(!fast.renew("s2").unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reclaim_sweep_frees_only_expired() {
        let _faults = no_faults();
        let dir = tmp("sweep");
        let a = LeaseBoard::open(&dir, "a", Duration::from_secs(1)).unwrap();
        let b = LeaseBoard::open(&dir, "b", Duration::from_secs(60)).unwrap();
        a.try_claim("dead").unwrap();
        b.try_claim("live").unwrap();
        // Both are older than a's TTL; only `dead` is older than its own.
        age_lease(&dir, "dead", 120_000);
        age_lease(&dir, "live", 30_000);
        let freed = reclaim_expired(&dir).unwrap();
        assert_eq!(freed, vec!["dead".to_string()]);
        let left = list_leases(&dir.join(LEASE_DIR)).unwrap();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].shard, "live");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_claims_admit_exactly_one_winner() {
        let _faults = no_faults();
        let dir = tmp("race");
        let winners = Mutex::new(0u32);
        crossbeam::scope(|scope| {
            for i in 0..8 {
                let dir = &dir;
                let winners = &winners;
                scope.spawn(move |_| {
                    let board =
                        LeaseBoard::open(dir, &format!("w{i}"), Duration::from_secs(60)).unwrap();
                    if board.try_claim("contested").unwrap() {
                        *winners.lock() += 1;
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(*winners.lock(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_ids_are_validated() {
        let dir = tmp("ids");
        assert!(LeaseBoard::open(&dir, "ok-id", Duration::from_secs(1)).is_ok());
        assert!(LeaseBoard::open(&dir, "bad/id", Duration::from_secs(1)).is_err());
        assert!(LeaseBoard::open(&dir, "", Duration::from_secs(1)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_on_missing_store_dir_is_structural_not_found() {
        let missing =
            std::env::temp_dir().join(format!("mgrts-queue-no-such-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&missing);
        let err = LeaseBoard::open(&missing, "w", Duration::from_secs(1)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        assert!(err.to_string().contains("dispatch"), "err: {err}");
    }

    #[test]
    fn transient_claim_faults_are_retried_structural_are_not() {
        let dir = tmp("transient");
        // Occurrences 1 and 2 of lease.claim are interrupted — transient,
        // absorbed by retry_transient — so the claim still lands.
        let _guard = mgrts_fault::install_guarded(
            mgrts_fault::FaultPlan::parse(
                "seed=7;lease.claim:interrupted:n1;lease.claim:interrupted:n2",
            )
            .unwrap(),
        );
        let board = LeaseBoard::open(&dir, "w", Duration::from_secs(60)).unwrap();
        let claimed =
            retry_transient(fnv64(b"s1"), || board.try_claim("s1")).expect("transient absorbed");
        assert!(claimed);
        assert_eq!(mgrts_fault::injected_total(), 2);
        drop(_guard);

        // A structural fault (permission denied) fails without retry.
        let _guard = mgrts_fault::install_guarded(
            mgrts_fault::FaultPlan::parse("seed=7;lease.claim:denied:always").unwrap(),
        );
        let err = retry_transient(fnv64(b"s2"), || board.try_claim("s2")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
        assert_eq!(mgrts_fault::injected_total(), 1, "no retries on structural");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_failures_park_after_threshold_and_clear_leases_sweeps() {
        let dir = tmp("park");
        let lease_dir = dir.join(LEASE_DIR);
        std::fs::create_dir_all(&lease_dir).unwrap();
        for strike in 1..=PARK_AFTER {
            let fails = note_shard_failure(&lease_dir, "abc123", "boom");
            assert_eq!(fails, strike);
        }
        let parked = parked_shards(&dir);
        assert_eq!(parked.len(), 1);
        assert_eq!(parked[0].shard, "abc123");
        assert_eq!(parked[0].fails, PARK_AFTER);
        assert_eq!(parked[0].reason, "boom");
        // One strike on a different shard does not park it.
        note_shard_failure(&lease_dir, "other", "meh");
        assert_eq!(parked_shards(&dir).len(), 1);
        // clear_leases sweeps fail counts and park markers with the leases.
        clear_leases(&dir, None).unwrap();
        assert!(parked_shards(&dir).is_empty());
        assert!(std::fs::read_dir(&lease_dir).unwrap().next().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}

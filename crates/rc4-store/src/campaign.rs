//! Lease-based fleet campaigns: many lease children over one seed-disjoint
//! key space.
//!
//! The paper's headline counts were collected on ~80 machines and merged
//! afterwards. This module reproduces that workflow: a campaign splits the
//! logical worker range of one [`GenerationConfig`] into contiguous,
//! seed-disjoint *leases*, each backed by its own shard file, and tracks
//! them in a versioned, atomically-rewritten JSON *manifest*. [`run_leases`]
//! runs each grant of a lease as one child (a process in `repro`, a thread
//! in the tests) that generates or resumes that lease's shard and exits.
//! The child's progress is its shard's last checkpoint, so the coordinator
//! needs no channel to it: it polls the shard header for heartbeats, re-issues
//! leases whose child died or went silent, and — once every lease is
//! complete — [`CampaignManifest::merge`] merges the lease shards with the
//! ordinary seed-disjoint merge, producing a table byte-identical to a
//! single-process run.
//!
//! # Lease lifecycle
//!
//! ```text
//! pending ──grant──▶ granted ──first checkpoint──▶ running ──▶ complete
//!    ▲                  │                             │
//!    └──────(regrant)── expired ◀──crash/timeout──────┘
//! ```
//!
//! Expiry is safe — not merely tolerated — because leases are deterministic:
//! worker `w` of `config` always derives its key stream from
//! `(config.seed, w)`, so a re-granted lease regenerates exactly the cells
//! the lost child would have produced, and the replacement resumes from the
//! lost child's last on-disk checkpoint. Even the pathological race (a hung
//! child revives after its lease was re-granted) is benign: both write
//! identical cells, shard writes are atomic (salted temp + rename), so the
//! last rename wins with a complete, correct file either way.

use std::path::{Component, Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use serde::{DeError, Deserialize, Serialize, Value};

use rc4_stats::{DatasetError, GenerationConfig, StorableDataset};

use crate::format::ShardHeader;
use crate::generate::{generate_shard, resume_shard, GenerateOptions, GenerateStatus, ShardSpec};
use crate::merge::{merge_shards, MergeOptions};
use crate::shard::{peek_shard, read_shard, write_shard_with};

/// Manifest format version, bumped on breaking layout changes.
pub const MANIFEST_VERSION: u64 = 1;

/// Lifecycle state of one lease, as recorded in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    /// Never granted.
    Pending,
    /// Held by a child whose shard shows no new checkpoint since the grant.
    Granted,
    /// Held by a child whose shard has checkpointed progress.
    Running,
    /// All of the lease's keys are generated; its shard is mergeable.
    Complete,
    /// The holding child crashed or went silent; awaiting re-grant.
    Expired,
}

impl LeaseState {
    /// The manifest name.
    pub fn name(self) -> &'static str {
        match self {
            LeaseState::Pending => "pending",
            LeaseState::Granted => "granted",
            LeaseState::Running => "running",
            LeaseState::Complete => "complete",
            LeaseState::Expired => "expired",
        }
    }

    /// Parses a manifest name.
    pub fn parse(name: &str) -> Option<Self> {
        use LeaseState::*;
        [Pending, Granted, Running, Complete, Expired]
            .into_iter()
            .find(|s| s.name() == name)
    }

    /// Whether a coordinator may grant this lease right now.
    pub fn is_grantable(self) -> bool {
        matches!(self, LeaseState::Pending | LeaseState::Expired)
    }

    /// Whether the lease is currently held by a child.
    pub fn is_owned(self) -> bool {
        matches!(self, LeaseState::Granted | LeaseState::Running)
    }
}

impl Serialize for LeaseState {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for LeaseState {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => {
                LeaseState::parse(s).ok_or_else(|| DeError(format!("unknown lease state `{s}`")))
            }
            other => Err(DeError(format!(
                "lease state must be a string, found {}",
                other.kind()
            ))),
        }
    }
}

/// One contiguous, seed-disjoint slice of the campaign's worker range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lease {
    /// Stable lease ID (its index in the manifest).
    pub id: u64,
    /// First logical worker index covered.
    pub worker_lo: u64,
    /// One past the last logical worker index covered.
    pub worker_hi: u64,
    /// Current lifecycle state.
    pub state: LeaseState,
    /// Owner name of the child currently holding the lease.
    pub owner: Option<String>,
    /// Times the lease has been granted (1 on first grant; >1 means it was
    /// re-issued after an expiry).
    pub attempts: u64,
    /// Keys the holding child's shard showed at its last checkpoint.
    pub keys_done: u64,
    /// Coordinator-clock milliseconds of the last grant/heartbeat, for
    /// heartbeat-timeout expiry. Relative to the coordinator's start, never
    /// wall time.
    pub heartbeat_ms: u64,
    /// Shard file name, relative to the manifest's directory.
    pub shard: String,
}

/// What the campaign generates: the dataset identity every lease shares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Dataset kind tag ([`rc4_stats::StorableDataset::kind`]).
    pub kind: String,
    /// Dataset shape descriptor.
    pub shape: Vec<u64>,
    /// The master generation configuration (the *single-process* config; its
    /// worker count is what leases partition).
    pub config: GenerationConfig,
}

/// The campaign manifest: spec + leases, persisted as one JSON document that
/// is atomically rewritten (temp + rename) on every state transition, so
/// however the coordinator dies the manifest on disk is a complete,
/// parseable account and `campaign resume` can pick up where it left off.
#[derive(Debug)]
pub struct CampaignManifest {
    path: PathBuf,
    /// The dataset identity every lease contributes to.
    pub spec: CampaignSpec,
    /// All leases, in worker order.
    pub leases: Vec<Lease>,
}

impl CampaignManifest {
    /// Plans a fresh campaign: validates the spec, splits the configuration's
    /// worker range into `num_leases` contiguous leases (sized within one
    /// worker of each other), and persists the manifest to `path`.
    ///
    /// # Errors
    ///
    /// [`DatasetError::InvalidConfig`] on an invalid configuration or an
    /// unsatisfiable lease count, [`DatasetError::Io`] when `path` already
    /// exists (resume instead) or the write fails.
    pub fn plan(
        path: impl Into<PathBuf>,
        spec: CampaignSpec,
        num_leases: u64,
    ) -> Result<Self, DatasetError> {
        let path = path.into();
        spec.config.validate()?;
        let workers = spec.config.workers as u64;
        if num_leases == 0 || num_leases > workers {
            return Err(DatasetError::InvalidConfig(format!(
                "cannot split {workers} workers into {num_leases} leases \
                 (need 1..={workers})"
            )));
        }
        if path.exists() {
            return Err(DatasetError::io(
                &path,
                "campaign manifest already exists; use resume to continue it",
            ));
        }
        let leases = (0..num_leases)
            .map(|i| Lease {
                id: i,
                worker_lo: i * workers / num_leases,
                worker_hi: (i + 1) * workers / num_leases,
                state: LeaseState::Pending,
                owner: None,
                attempts: 0,
                keys_done: 0,
                heartbeat_ms: 0,
                shard: format!("lease-{i:04}.ds"),
            })
            .collect();
        let manifest = CampaignManifest { path, spec, leases };
        manifest.save()?;
        Ok(manifest)
    }

    /// Loads an existing manifest, verifying version and internal
    /// consistency (contiguous lease coverage of the full worker range).
    ///
    /// # Errors
    ///
    /// [`DatasetError::Io`] on unreadable files, [`DatasetError::Corrupt`]
    /// on unparseable, wrong-version, or self-contradictory content.
    pub fn load(path: impl Into<PathBuf>) -> Result<Self, DatasetError> {
        let path = path.into();
        let bytes = std::fs::read(&path).map_err(|e| DatasetError::io(&path, e))?;
        let text = String::from_utf8(bytes)
            .map_err(|_| DatasetError::corrupt(&path, "manifest is not UTF-8"))?;
        let value: Value = serde_json::from_str(&text)
            .map_err(|e| DatasetError::corrupt(&path, format!("not valid JSON: {e}")))?;
        let version = match value.field("version") {
            Ok(Value::UInt(n)) => *n,
            _ => 0,
        };
        if version != MANIFEST_VERSION {
            return Err(DatasetError::corrupt(
                &path,
                format!("manifest version {version}, this build reads {MANIFEST_VERSION}"),
            ));
        }
        let spec = value
            .field("spec")
            .ok()
            .map(CampaignSpec::from_value)
            .transpose()
            .map_err(|e| DatasetError::corrupt(&path, e.0))?
            .ok_or_else(|| DatasetError::corrupt(&path, "manifest lacks a `spec` object"))?;
        let leases = match value.field("leases") {
            Ok(Value::Array(items)) => items
                .iter()
                .map(Lease::from_value)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| DatasetError::corrupt(&path, e.0))?,
            _ => {
                return Err(DatasetError::corrupt(
                    &path,
                    "manifest lacks a `leases` array",
                ))
            }
        };
        let manifest = CampaignManifest { path, spec, leases };
        manifest.validate()?;
        Ok(manifest)
    }

    /// Internal-consistency check: leases must tile `0..config.workers`
    /// contiguously in ID order, each with its own shard, named by a plain
    /// file name so no lease writes outside the campaign directory.
    fn validate(&self) -> Result<(), DatasetError> {
        self.spec.config.validate().map_err(|e| {
            DatasetError::corrupt(&self.path, format!("invalid stored config: {e}"))
        })?;
        let mut expect_lo = 0u64;
        let mut names = std::collections::HashSet::new();
        for (i, lease) in self.leases.iter().enumerate() {
            let mut parts = Path::new(&lease.shard).components();
            let plain = matches!((parts.next(), parts.next()),
                (Some(Component::Normal(name)), None) if name == lease.shard.as_str());
            if !plain || !names.insert(lease.shard.as_str()) {
                return Err(DatasetError::corrupt(
                    &self.path,
                    format!(
                        "lease {i} shard `{}` is not a file name of its own in the campaign directory",
                        lease.shard
                    ),
                ));
            }
            if lease.id != i as u64
                || lease.worker_lo != expect_lo
                || lease.worker_hi <= lease.worker_lo
            {
                return Err(DatasetError::corrupt(
                    &self.path,
                    format!(
                        "lease {} covers workers {}..{}, expected a contiguous tiling from {expect_lo}",
                        lease.id, lease.worker_lo, lease.worker_hi
                    ),
                ));
            }
            expect_lo = lease.worker_hi;
        }
        if expect_lo != self.spec.config.workers as u64 {
            return Err(DatasetError::corrupt(
                &self.path,
                format!(
                    "leases cover workers 0..{expect_lo} of a {}-worker configuration",
                    self.spec.config.workers
                ),
            ));
        }
        Ok(())
    }

    /// The manifest's own path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The directory lease shards live in (the manifest's directory).
    pub fn dir(&self) -> &Path {
        self.path.parent().unwrap_or_else(|| Path::new("."))
    }

    /// Absolute path of a lease's shard file.
    pub fn shard_path(&self, lease: &Lease) -> PathBuf {
        self.dir().join(&lease.shard)
    }

    /// Atomically rewrites the manifest file (temp + rename).
    ///
    /// # Errors
    ///
    /// [`DatasetError::Io`] when the write or rename fails.
    pub fn save(&self) -> Result<(), DatasetError> {
        let value = Value::Object(vec![
            ("version".to_string(), Value::UInt(MANIFEST_VERSION)),
            ("spec".to_string(), self.spec.to_value()),
            (
                "leases".to_string(),
                Value::Array(self.leases.iter().map(Lease::to_value).collect()),
            ),
        ]);
        let text = serde_json::to_string_pretty(&value).expect("manifest serializes");
        let tmp = self
            .path
            .with_extension(format!("json.{}.tmp", std::process::id()));
        std::fs::write(&tmp, format!("{text}\n")).map_err(|e| DatasetError::io(&tmp, e))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| DatasetError::io(&self.path, e))
    }

    /// Grants the lowest-ID grantable lease to `owner`, persists, and
    /// returns a copy of it; `None` (without touching the file) when no
    /// lease is grantable.
    ///
    /// # Errors
    ///
    /// [`DatasetError::Io`] when persisting fails (the in-memory grant is
    /// rolled back).
    pub fn grant_next(&mut self, owner: &str, now_ms: u64) -> Result<Option<Lease>, DatasetError> {
        let Some(i) = self.leases.iter().position(|l| l.state.is_grantable()) else {
            return Ok(None);
        };
        let before = self.leases[i].clone();
        let regrant = before.state == LeaseState::Expired;
        {
            let lease = &mut self.leases[i];
            lease.state = LeaseState::Granted;
            lease.owner = Some(owner.to_string());
            lease.attempts += 1;
            lease.heartbeat_ms = now_ms;
        }
        if let Err(e) = self.save() {
            self.leases[i] = before;
            return Err(e);
        }
        rc4_obs::metrics::counter_add("campaign.lease.granted", 1);
        if regrant {
            rc4_obs::metrics::counter_add("campaign.lease.regranted", 1);
        }
        Ok(Some(self.leases[i].clone()))
    }

    /// Records a progress heartbeat from `owner` for lease `id`, persisting
    /// the transition. Returns `false` — ignoring the report — when the
    /// lease is not currently owned by `owner` (a child whose lease was
    /// re-granted).
    ///
    /// # Errors
    ///
    /// [`DatasetError::InvalidConfig`] for an unknown lease ID,
    /// [`DatasetError::Io`] when persisting fails.
    pub fn heartbeat(
        &mut self,
        id: u64,
        owner: &str,
        keys_done: u64,
        now_ms: u64,
    ) -> Result<bool, DatasetError> {
        let lease = self.lease_mut(id)?;
        if !lease.state.is_owned() || lease.owner.as_deref() != Some(owner) {
            return Ok(false);
        }
        lease.state = LeaseState::Running;
        lease.keys_done = keys_done;
        lease.heartbeat_ms = now_ms;
        self.save()?;
        Ok(true)
    }

    /// Marks lease `id` complete on `owner`'s report, persisting. Returns
    /// `false` — ignoring the report — for stale owners, matching
    /// [`CampaignManifest::heartbeat`].
    ///
    /// # Errors
    ///
    /// As [`CampaignManifest::heartbeat`].
    pub fn complete(&mut self, id: u64, owner: &str) -> Result<bool, DatasetError> {
        let lease = self.lease_mut(id)?;
        if !lease.state.is_owned() || lease.owner.as_deref() != Some(owner) {
            return Ok(false);
        }
        lease.state = LeaseState::Complete;
        lease.owner = None;
        self.save()?;
        rc4_obs::metrics::counter_add("campaign.lease.completed", 1);
        Ok(true)
    }

    /// Expires every lease currently owned by `owner` (its child crashed or
    /// exited early), persisting. Returns the expired lease IDs.
    ///
    /// # Errors
    ///
    /// [`DatasetError::Io`] when persisting fails.
    pub fn expire_owner(&mut self, owner: &str) -> Result<Vec<u64>, DatasetError> {
        self.expire(|l| l.owner.as_deref() == Some(owner))
    }

    /// Expires every owned lease whose last heartbeat is older than
    /// `timeout_ms` (hung child), persisting. Returns the expired IDs.
    ///
    /// # Errors
    ///
    /// [`DatasetError::Io`] when persisting fails.
    pub fn expire_stale(&mut self, timeout_ms: u64, now_ms: u64) -> Result<Vec<u64>, DatasetError> {
        self.expire(|l| now_ms.saturating_sub(l.heartbeat_ms) > timeout_ms)
    }

    /// Expires every owned lease `doomed` selects, persisting; returns
    /// their IDs.
    fn expire(&mut self, doomed: impl Fn(&Lease) -> bool) -> Result<Vec<u64>, DatasetError> {
        let mut ids = Vec::new();
        for lease in self.leases.iter_mut() {
            if lease.state.is_owned() && doomed(lease) {
                lease.state = LeaseState::Expired;
                lease.owner = None;
                ids.push(lease.id);
            }
        }
        if !ids.is_empty() {
            self.save()?;
            rc4_obs::metrics::counter_add("campaign.lease.expired", ids.len() as u64);
        }
        Ok(ids)
    }

    /// Whether every lease is complete (the campaign is ready to merge).
    pub fn all_complete(&self) -> bool {
        self.leases.iter().all(|l| l.state == LeaseState::Complete)
    }

    /// Keys reported done across all leases.
    pub fn keys_done(&self) -> u64 {
        self.leases
            .iter()
            .map(|l| {
                if l.state == LeaseState::Complete {
                    self.lease_keys_total(l)
                } else {
                    l.keys_done
                }
            })
            .sum()
    }

    /// Total keys a lease will hold when complete.
    pub fn lease_keys_total(&self, lease: &Lease) -> u64 {
        (lease.worker_lo..lease.worker_hi)
            .map(|w| self.spec.config.keys_for_worker(w))
            .sum()
    }

    /// Per-state lease counts, in [`LeaseState`] declaration order
    /// (pending, granted, running, complete, expired).
    pub fn state_counts(&self) -> [u64; 5] {
        let mut counts = [0u64; 5];
        for lease in &self.leases {
            counts[lease.state as usize] += 1;
        }
        counts
    }

    /// Generates lease `id`'s shard, or resumes it from the checkpoint an
    /// earlier child left: the whole work of one lease child. `progress`
    /// sees `(keys done, keys total)` after every checkpoint.
    ///
    /// # Errors
    ///
    /// [`DatasetError::InvalidConfig`] for an unknown lease ID,
    /// [`DatasetError::Corrupt`] when the file at the lease's shard path
    /// holds another configuration, shape or worker range (say, left over
    /// from an earlier campaign in the same directory), and everything
    /// [`generate_shard`] / [`resume_shard`] return.
    pub fn generate_lease<D: StorableDataset>(
        &self,
        id: u64,
        opts: &GenerateOptions,
        cancel: Option<&AtomicBool>,
        progress: &mut dyn FnMut(u64, u64),
    ) -> Result<GenerateStatus, DatasetError> {
        let lease = self.lease(id)?;
        let path = self.shard_path(lease);
        let empty = D::empty_with_shape(&self.spec.shape)?;
        let spec = ShardSpec::workers(self.spec.config, lease.worker_lo, lease.worker_hi);
        if !path.exists() {
            return generate_shard(&path, empty, &spec, opts, cancel, progress);
        }
        let (header, _) = peek_shard(&path)?;
        let found = ShardSpec::workers(header.config, header.worker_lo, header.worker_hi);
        if found != spec || header.shape != empty.shape_params() {
            return Err(DatasetError::corrupt(
                &path,
                format!("is not lease {id}'s shard (another configuration, shape or worker range)"),
            ));
        }
        drop(empty);
        resume_shard::<D>(&path, opts, cancel, progress)
    }

    /// Merges the lease shards into `out` under `options`. A one-lease
    /// campaign's shard is re-encoded through the shard reader and writer,
    /// so it gets the same CRC and completeness checks and the same encoding
    /// as a multi-shard merge.
    ///
    /// # Errors
    ///
    /// Everything [`merge_shards`] and [`read_shard`] return; an incomplete
    /// lease shard is [`DatasetError::InvalidConfig`].
    pub fn merge<D: StorableDataset>(
        &self,
        out: &Path,
        options: &MergeOptions,
    ) -> Result<ShardHeader, DatasetError> {
        let shards: Vec<PathBuf> = self.leases.iter().map(|l| self.shard_path(l)).collect();
        let [only] = shards.as_slice() else {
            let refs: Vec<&Path> = shards.iter().map(PathBuf::as_path).collect();
            return merge_shards::<D>(&refs, out, options);
        };
        let shard = read_shard::<D>(only)?;
        if !shard.header.is_complete() {
            return Err(DatasetError::InvalidConfig(format!(
                "{}: shard is incomplete; run the campaign before merging",
                only.display()
            )));
        }
        write_shard_with(out, &shard.header, &shard.dataset, options.encoding)?;
        Ok(shard.header)
    }

    fn lease(&self, id: u64) -> Result<&Lease, DatasetError> {
        self.leases
            .iter()
            .find(|l| l.id == id)
            .ok_or_else(|| DatasetError::InvalidConfig(format!("campaign has no lease {id}")))
    }

    fn lease_mut(&mut self, id: u64) -> Result<&mut Lease, DatasetError> {
        self.leases
            .iter_mut()
            .find(|l| l.id == id)
            .ok_or_else(|| DatasetError::InvalidConfig(format!("campaign has no lease {id}")))
    }
}

/// Starts and watches lease children for [`run_leases`]: child processes in
/// `repro`, threads in tests.
pub trait Launcher {
    /// A running lease child.
    type Child;

    /// Starts a child that generates or resumes `lease`'s shard (see
    /// [`CampaignManifest::generate_lease`]) and exits successfully only
    /// once the shard is complete.
    ///
    /// # Errors
    ///
    /// Whatever keeps the child from starting; it aborts the run.
    fn launch(&mut self, lease: &Lease) -> Result<Self::Child, DatasetError>;

    /// `None` while `child` runs, `Some(success)` once it has exited.
    fn try_wait(&mut self, child: &mut Self::Child) -> Option<bool>;

    /// Stops `child` and waits until it has exited.
    fn kill(&mut self, child: &mut Self::Child);
}

/// The coordinator's clock, in milliseconds from an arbitrary origin.
pub trait Clock {
    /// The current time.
    fn now_ms(&mut self) -> u64;
    /// Waits `ms` milliseconds.
    fn sleep_ms(&mut self, ms: u64);
}

/// Real time, counted from the instant itself.
impl Clock for Instant {
    fn now_ms(&mut self) -> u64 {
        self.elapsed().as_millis() as u64
    }

    fn sleep_ms(&mut self, ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Pause between two coordinator ticks: the longest a reaped child's
/// slot stays empty. Each tick reads one shard header per running child.
const POLL_MS: u64 = 50;

/// How [`run_leases`] bounds a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Lease children alive at once.
    pub procs: usize,
    /// A child whose shard shows no new checkpoint for longer than this is
    /// killed and its lease re-granted.
    pub heartbeat_timeout_ms: u64,
    /// A lease that fails on its `max_attempts`-th grant aborts the run.
    pub max_attempts: u64,
}

/// Why [`run_leases`] stopped before every lease was complete.
#[derive(Debug)]
pub enum CampaignError {
    /// A lease failed on each of its `attempts` grants.
    LeaseFailed {
        /// The failing lease.
        id: u64,
        /// Its worker range, `worker_lo..worker_hi`.
        workers: (u64, u64),
        /// Grants it has had.
        attempts: u64,
    },
    /// The manifest could not be persisted or a child could not start.
    Dataset(DatasetError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::LeaseFailed {
                id,
                workers: (lo, hi),
                attempts,
            } => write!(
                f,
                "campaign aborted: lease {id} (workers {lo}..{hi}) failed {attempts} time(s)"
            ),
            CampaignError::Dataset(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<DatasetError> for CampaignError {
    fn from(e: DatasetError) -> Self {
        CampaignError::Dataset(e)
    }
}

/// One live lease child and the owner name its grant carries.
struct Running<C> {
    id: u64,
    owner: String,
    child: C,
}

/// Runs `manifest` until every lease is complete, one child per grant and
/// at most `opts.procs` at once, reporting each lease transition to `log`.
///
/// Every tick it reaps exited children (complete when the child succeeded
/// and its shard header says so, expired otherwise), turns each child's
/// newer shard checkpoint into a heartbeat, expires and kills children
/// silent for longer than the heartbeat timeout, and fills free slots with
/// [`CampaignManifest::grant_next`]. Leases still owned when the run starts
/// belong to children of an earlier coordinator and are expired first.
///
/// # Errors
///
/// [`CampaignError::LeaseFailed`] once a lease fails on its
/// `opts.max_attempts`-th grant, [`CampaignError::Dataset`] when the
/// manifest cannot be saved or a child cannot start. No child is left
/// running on return.
pub fn run_leases<L: Launcher>(
    manifest: &mut CampaignManifest,
    launcher: &mut L,
    clock: &mut dyn Clock,
    opts: &RunOptions,
    log: &mut dyn FnMut(String),
) -> Result<(), CampaignError> {
    let mut children = Vec::new();
    let result = lease_loop(manifest, launcher, clock, opts, log, &mut children);
    for mut running in children {
        launcher.kill(&mut running.child);
        let _ = manifest.expire_owner(&running.owner);
    }
    result
}

fn lease_loop<L: Launcher>(
    manifest: &mut CampaignManifest,
    launcher: &mut L,
    clock: &mut dyn Clock,
    opts: &RunOptions,
    log: &mut dyn FnMut(String),
    children: &mut Vec<Running<L::Child>>,
) -> Result<(), CampaignError> {
    manifest.expire(|_| true)?;
    let mut launched = 0u64;
    loop {
        let now = clock.now_ms();
        let mut failed = Vec::new();
        let mut i = 0;
        while i < children.len() {
            let Some(success) = launcher.try_wait(&mut children[i].child) else {
                i += 1;
                continue;
            };
            let Running { id, owner, .. } = children.remove(i);
            let shard = manifest.shard_path(manifest.lease(id)?);
            let complete = success && peek_shard(&shard).is_ok_and(|(h, _)| h.is_complete());
            if complete && manifest.complete(id, &owner)? {
                let done = manifest.state_counts()[3];
                log(format!(
                    "lease {id} complete ({done}/{} lease(s) done)",
                    manifest.leases.len()
                ));
            } else {
                let expired = manifest.expire_owner(&owner)?;
                log(format!("worker {owner} died; re-leasing {expired:?}"));
                failed.extend(expired);
            }
        }
        for running in children.iter() {
            let lease = manifest.lease(running.id)?;
            if let Ok((header, _)) = peek_shard(&manifest.shard_path(lease)) {
                if header.keys_done() != lease.keys_done {
                    manifest.heartbeat(running.id, &running.owner, header.keys_done(), now)?;
                }
            }
        }
        let stale = manifest.expire_stale(opts.heartbeat_timeout_ms, now)?;
        if !stale.is_empty() {
            for running in children.iter_mut().filter(|r| stale.contains(&r.id)) {
                launcher.kill(&mut running.child);
            }
            children.retain(|r| !stale.contains(&r.id));
            log(format!("lease(s) {stale:?} expired (heartbeat timeout)"));
            failed.extend(stale);
        }
        for id in failed {
            let lease = manifest.lease(id)?;
            if lease.attempts >= opts.max_attempts {
                return Err(CampaignError::LeaseFailed {
                    id,
                    workers: (lease.worker_lo, lease.worker_hi),
                    attempts: lease.attempts,
                });
            }
        }
        if manifest.all_complete() {
            return Ok(());
        }
        while children.len() < opts.procs {
            let owner = format!("child-{launched}");
            let Some(lease) = manifest.grant_next(&owner, now)? else {
                break;
            };
            launched += 1;
            log(format!(
                "lease {} (workers {}..{}) -> {owner} (attempt {})",
                lease.id, lease.worker_lo, lease.worker_hi, lease.attempts
            ));
            match launcher.launch(&lease) {
                Ok(child) => children.push(Running {
                    id: lease.id,
                    owner,
                    child,
                }),
                Err(e) => {
                    manifest.expire_owner(&owner)?;
                    return Err(e.into());
                }
            }
        }
        clock.sleep_ms(POLL_MS);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;

    use rc4_stats::single::SingleByteDataset;

    use super::*;

    fn spec(keys: u64, workers: usize) -> CampaignSpec {
        CampaignSpec {
            kind: "single".to_string(),
            shape: vec![8],
            config: GenerationConfig::with_keys(keys).workers(workers).seed(11),
        }
    }

    fn temp_manifest(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rc4-store-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("campaign.json")
    }

    #[test]
    fn plan_tiles_the_worker_range() {
        let path = temp_manifest("plan");
        let m = CampaignManifest::plan(&path, spec(1000, 10), 4).unwrap();
        let ranges: Vec<(u64, u64)> = m
            .leases
            .iter()
            .map(|l| (l.worker_lo, l.worker_hi))
            .collect();
        assert_eq!(ranges, vec![(0, 2), (2, 5), (5, 7), (7, 10)]);
        assert!(m.leases.iter().all(|l| l.state == LeaseState::Pending));
        assert_eq!(m.keys_done(), 0, "fresh campaign has no progress");

        // Too many leases for the worker count is a typed error.
        let over = temp_manifest("plan-over");
        assert!(matches!(
            CampaignManifest::plan(&over, spec(1000, 2), 3),
            Err(DatasetError::InvalidConfig(_))
        ));
        // Planning over an existing manifest is refused.
        assert!(matches!(
            CampaignManifest::plan(&path, spec(1000, 10), 4),
            Err(DatasetError::Io(msg)) if msg.contains("resume")
        ));
    }

    #[test]
    fn lease_lifecycle_persists_across_reloads() {
        let path = temp_manifest("lifecycle");
        let mut m = CampaignManifest::plan(&path, spec(600, 4), 2).unwrap();

        let lease = m.grant_next("w1", 100).unwrap().unwrap();
        assert_eq!(lease.id, 0);
        assert_eq!(lease.state, LeaseState::Granted);
        assert_eq!(lease.attempts, 1);

        assert!(m.heartbeat(0, "w1", 50, 200).unwrap());
        // A zombie owner's reports are ignored, not fatal.
        assert!(!m.heartbeat(0, "w2", 999, 201).unwrap());
        assert!(!m.complete(0, "w2").unwrap());

        // Crash: the worker's leases expire, then re-grant to a new worker.
        let expired = m.expire_owner("w1").unwrap();
        assert_eq!(expired, vec![0]);
        let again = m.grant_next("w2", 300).unwrap().unwrap();
        assert_eq!(again.id, 0, "expired lease is re-granted first");
        assert_eq!(again.attempts, 2);
        assert!(m.complete(0, "w2").unwrap());

        // The second lease via the stale-heartbeat path.
        let l1 = m.grant_next("w3", 400).unwrap().unwrap();
        assert_eq!(l1.id, 1);
        assert_eq!(m.expire_stale(1000, 5000).unwrap(), vec![1]);
        let l1 = m.grant_next("w4", 5100).unwrap().unwrap();
        assert_eq!(l1.attempts, 2);
        assert!(m.complete(1, "w4").unwrap());
        assert!(m.all_complete());
        assert!(m.grant_next("w5", 6000).unwrap().is_none());

        // Everything above survives a reload.
        let reloaded = CampaignManifest::load(&path).unwrap();
        assert!(reloaded.all_complete());
        assert_eq!(reloaded.leases[0].attempts, 2);
        assert_eq!(reloaded.keys_done(), 600);
        assert_eq!(reloaded.state_counts(), [0, 0, 0, 2, 0]);
    }

    #[test]
    fn corrupt_or_wrong_version_manifests_are_typed_errors() {
        let path = temp_manifest("corrupt");
        std::fs::write(&path, "{ nope").unwrap();
        assert!(matches!(
            CampaignManifest::load(&path),
            Err(DatasetError::Corrupt(_))
        ));
        std::fs::write(&path, r#"{"version": 99, "spec": {}, "leases": []}"#).unwrap();
        assert!(matches!(
            CampaignManifest::load(&path),
            Err(DatasetError::Corrupt(msg)) if msg.contains("version 99")
        ));

        // A manifest whose leases leave a gap is rejected on load.
        let mut m = CampaignManifest::plan(temp_manifest("gap"), spec(100, 4), 2).unwrap();
        m.leases[1].worker_lo = 3;
        m.save().unwrap();
        assert!(matches!(
            CampaignManifest::load(m.path()),
            Err(DatasetError::Corrupt(msg)) if msg.contains("contiguous")
        ));
    }

    #[test]
    fn a_shard_of_another_campaign_is_not_resumed() {
        let opts = GenerateOptions::default();
        let old = CampaignManifest::plan(temp_manifest("stale-old"), spec(200, 2), 2).unwrap();
        old.generate_lease::<SingleByteDataset>(0, &opts, None, &mut |_, _| {})
            .unwrap();
        let mut other = spec(200, 2);
        other.config.seed = 12;
        let new = CampaignManifest::plan(temp_manifest("stale-new"), other, 2).unwrap();
        std::fs::copy(
            old.shard_path(&old.leases[0]),
            new.shard_path(&new.leases[0]),
        )
        .unwrap();
        let resumed = new.generate_lease::<SingleByteDataset>(0, &opts, None, &mut |_, _| {});
        assert!(
            matches!(resumed, Err(DatasetError::Corrupt(ref msg)) if msg.contains("lease 0")),
            "{resumed:?}"
        );
    }

    /// Saves `m` with lease 1's shard renamed to `name`; loading it again
    /// must fail as corrupt.
    fn assert_shard_name_rejected(tag: &str, name: &str) {
        let mut m = CampaignManifest::plan(temp_manifest(tag), spec(100, 4), 2).unwrap();
        m.leases[1].shard = name.to_string();
        m.save().unwrap();
        assert!(
            matches!(CampaignManifest::load(m.path()), Err(DatasetError::Corrupt(msg)) if msg.contains("file name")),
            "shard name {name:?} must be rejected"
        );
    }

    #[test]
    fn absolute_shard_names_are_rejected() {
        let outside = std::env::temp_dir().join("lease-0001.ds");
        assert_shard_name_rejected("abs", outside.to_str().unwrap());
    }

    #[test]
    fn parent_dir_shard_names_are_rejected() {
        assert_shard_name_rejected("dotdot", "..");
    }

    #[test]
    fn shard_names_with_a_separator_are_rejected() {
        assert_shard_name_rejected("slash", "../lease-0001.ds");
        assert_shard_name_rejected("subdir", "sub/lease-0001.ds");
    }

    #[test]
    fn leases_sharing_a_shard_are_rejected() {
        assert_shard_name_rejected("shared", "lease-0000.ds");
    }

    /// What a thread lease child does with its grant.
    #[derive(Debug, Clone, Copy)]
    enum Act {
        /// Generate or resume the lease to completion.
        Finish,
        /// Like `Finish`, in lockstep with the fake clock: one checkpoint
        /// per coordinator tick, so it heartbeats on every tick.
        Paced,
        /// Checkpoint at least this many keys, then exit "successfully"
        /// with the shard still incomplete.
        StopAfter(u64),
        /// Make no progress until killed.
        Hang,
        /// Exit unsuccessfully at once.
        Fail,
    }

    /// Fake time, shared by the coordinator's clock and the paced children.
    #[derive(Default)]
    struct FakeTime {
        now_ms: AtomicU64,
        /// Paced children alive; while there is one, the clock advances only
        /// after it has written its next checkpoint.
        paced: AtomicUsize,
        checkpointed: AtomicBool,
    }

    /// Waits, without a timeout, until `done` holds.
    fn wait_until(done: impl Fn() -> bool) {
        while !done() {
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// The coordinator's side of [`FakeTime`]: each sleep waits for a
    /// paced child's next checkpoint (if one is alive), then advances the
    /// time by the requested milliseconds at once.
    struct FakeClock(Arc<FakeTime>);

    impl Clock for FakeClock {
        fn now_ms(&mut self) -> u64 {
            self.0.now_ms.load(Ordering::SeqCst)
        }

        fn sleep_ms(&mut self, ms: u64) {
            let time = &self.0;
            wait_until(|| {
                time.paced.load(Ordering::SeqCst) == 0
                    || time.checkpointed.swap(false, Ordering::SeqCst)
            });
            time.now_ms.fetch_add(ms, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Lease children on threads, each acting as `script` says for its
    /// lease and attempt.
    struct Threads {
        manifest: PathBuf,
        script: fn(&Lease) -> Act,
        time: Arc<FakeTime>,
        live: Arc<AtomicUsize>,
        launches: usize,
    }

    struct ThreadChild {
        stop: Arc<AtomicBool>,
        handle: Option<JoinHandle<bool>>,
    }

    impl Launcher for Threads {
        type Child = ThreadChild;

        fn launch(&mut self, lease: &Lease) -> Result<ThreadChild, DatasetError> {
            let (act, id) = ((self.script)(lease), lease.id);
            self.launches += 1;
            self.live.fetch_add(1, Ordering::SeqCst);
            if let Act::Paced = act {
                self.time.paced.fetch_add(1, Ordering::SeqCst);
            }
            let stop = Arc::new(AtomicBool::new(false));
            let (path, flag) = (self.manifest.clone(), Arc::clone(&stop));
            let (time, live) = (Arc::clone(&self.time), Arc::clone(&self.live));
            let handle = std::thread::spawn(move || {
                let ok = run_child(&path, id, act, &flag, &time);
                if let Act::Paced = act {
                    time.paced.fetch_sub(1, Ordering::SeqCst);
                }
                live.fetch_sub(1, Ordering::SeqCst);
                ok
            });
            Ok(ThreadChild {
                stop,
                handle: Some(handle),
            })
        }

        fn try_wait(&mut self, child: &mut ThreadChild) -> Option<bool> {
            if !child.handle.as_ref()?.is_finished() {
                return None;
            }
            Some(child.handle.take()?.join().unwrap())
        }

        fn kill(&mut self, child: &mut ThreadChild) {
            child.stop.store(true, Ordering::SeqCst);
            if let Some(handle) = child.handle.take() {
                handle.join().unwrap();
            }
        }
    }

    fn run_child(path: &Path, id: u64, act: Act, stop: &AtomicBool, time: &FakeTime) -> bool {
        let manifest = CampaignManifest::load(path).unwrap();
        let mut opts = GenerateOptions {
            checkpoint_keys: 2,
            ..GenerateOptions::default()
        };
        // Called once each checkpoint is on disk: hand the clock one tick.
        let mut pace = |_: u64, _: u64| {
            let tick = time.now_ms.load(Ordering::SeqCst);
            time.checkpointed.store(true, Ordering::SeqCst);
            wait_until(|| {
                time.now_ms.load(Ordering::SeqCst) != tick || stop.load(Ordering::SeqCst)
            });
        };
        let mut progress: &mut dyn FnMut(u64, u64) = &mut |_, _| {};
        match act {
            Act::Finish => {}
            Act::Paced => progress = &mut pace,
            Act::StopAfter(n) => opts.stop_after_keys = Some(n),
            Act::Hang => {
                wait_until(|| stop.load(Ordering::SeqCst));
                return false;
            }
            Act::Fail => return false,
        }
        let status = manifest.generate_lease::<SingleByteDataset>(id, &opts, Some(stop), progress);
        matches!(
            status,
            Ok(GenerateStatus::Complete | GenerateStatus::Stopped)
        )
    }

    /// No child goes stale: only the hang test sets a timeout.
    const OPTS: RunOptions = RunOptions {
        procs: 2,
        heartbeat_timeout_ms: u64::MAX,
        max_attempts: 3,
    };

    /// Plans a single-byte campaign of `leases` leases over `workers`
    /// streams (400 keys per stream) and returns it with a thread launcher.
    fn fleet(
        tag: &str,
        workers: usize,
        leases: u64,
        script: fn(&Lease) -> Act,
    ) -> (CampaignManifest, Threads) {
        let spec = spec(400 * workers as u64, workers);
        let manifest = CampaignManifest::plan(temp_manifest(tag), spec, leases).unwrap();
        let threads = Threads {
            manifest: manifest.path().to_path_buf(),
            script,
            time: Arc::default(),
            live: Arc::default(),
            launches: 0,
        };
        (manifest, threads)
    }

    fn drive(
        m: &mut CampaignManifest,
        threads: &mut Threads,
        opts: &RunOptions,
    ) -> (Result<(), CampaignError>, Vec<String>) {
        let mut lines = Vec::new();
        let mut clock = FakeClock(Arc::clone(&threads.time));
        let result = run_leases(m, threads, &mut clock, opts, &mut |line| lines.push(line));
        (result, lines)
    }

    /// The merged campaign equals one single-process shard, byte for byte.
    fn assert_merge_is_single_process(m: &CampaignManifest) {
        let merged = m.dir().join("merged.ds");
        let single = m.dir().join("single.ds");
        m.merge::<SingleByteDataset>(&merged, &MergeOptions::default())
            .unwrap();
        let empty = SingleByteDataset::new(8);
        let full = ShardSpec::full(m.spec.config);
        generate_shard(
            &single,
            empty,
            &full,
            &GenerateOptions::default(),
            None,
            &mut |_, _| {},
        )
        .unwrap();
        assert_eq!(
            std::fs::read(merged).unwrap(),
            std::fs::read(single).unwrap()
        );
    }

    #[test]
    fn a_hung_child_is_expired_while_another_heartbeats() {
        let (mut m, mut threads) = fleet("hang", 2, 2, |l| match (l.id, l.attempts) {
            (0, 1) => Act::Hang,
            (1, _) => Act::Paced,
            _ => Act::Finish,
        });
        // The paced child checkpoints on each of its ~200 ticks; the hung
        // one expires after 100.
        let opts = RunOptions {
            heartbeat_timeout_ms: 100 * POLL_MS,
            ..OPTS
        };
        let (result, log) = drive(&mut m, &mut threads, &opts);
        result.unwrap();
        let expiry = log
            .iter()
            .position(|l| l == "lease(s) [0] expired (heartbeat timeout)");
        let other_done = log.iter().position(|l| l.starts_with("lease 1 complete"));
        assert!(expiry.unwrap() < other_done.unwrap(), "{log:?}");
        assert!(
            log.contains(&"lease 0 (workers 0..1) -> child-2 (attempt 2)".to_string()),
            "{log:?}"
        );
        assert_eq!((m.leases[0].attempts, m.leases[1].attempts), (2, 1));
        assert!(m.all_complete());
        assert_eq!(threads.live.load(Ordering::SeqCst), 0);
        assert_merge_is_single_process(&m);
    }

    #[test]
    fn an_incomplete_shard_is_resumed_to_identical_cells() {
        let (mut m, mut threads) = fleet("resume", 3, 3, |l| match (l.id, l.attempts) {
            (0, 1) => Act::StopAfter(30),
            _ => Act::Finish,
        });
        let (result, log) = drive(&mut m, &mut threads, &OPTS);
        result.unwrap();
        assert!(
            log.contains(&"worker child-0 died; re-leasing [0]".to_string()),
            "{log:?}"
        );
        assert_eq!(m.leases[0].attempts, 2);
        assert_eq!(threads.launches, 4);
        assert_merge_is_single_process(&m);
        // The state on disk agrees.
        let reloaded = CampaignManifest::load(m.path()).unwrap();
        assert_eq!(reloaded.state_counts(), [0, 0, 0, 3, 0]);
    }

    #[test]
    fn max_attempts_failures_abort_with_no_child_left() {
        let (mut m, mut threads) = fleet("abort", 2, 2, |l| match l.id {
            0 => Act::Fail,
            _ => Act::Hang,
        });
        let (result, _) = drive(&mut m, &mut threads, &OPTS);
        let err = result.unwrap_err();
        assert!(
            matches!(
                err,
                CampaignError::LeaseFailed {
                    id: 0,
                    workers: (0, 1),
                    attempts: 3
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("lease 0"), "{err}");
        assert_eq!(
            threads.live.load(Ordering::SeqCst),
            0,
            "every child is stopped"
        );
        assert!(
            m.leases.iter().all(|l| !l.state.is_owned()),
            "{:?}",
            m.leases
        );
    }

    #[test]
    fn a_complete_manifest_launches_nothing() {
        let (mut m, mut threads) = fleet("done", 2, 2, |_| Act::Fail);
        for id in 0..2 {
            m.grant_next("old", 0).unwrap();
            assert!(m.complete(id, "old").unwrap());
        }
        let (result, log) = drive(&mut m, &mut threads, &OPTS);
        result.unwrap();
        assert_eq!((threads.launches, log.len()), (0, 0));
    }

    #[test]
    fn leases_owned_by_a_gone_coordinator_are_regranted() {
        let (mut m, mut threads) = fleet("orphan", 2, 2, |_| Act::Finish);
        m.grant_next("pid-1", 5_000_000).unwrap();
        let (result, log) = drive(&mut m, &mut threads, &OPTS);
        result.unwrap();
        assert!(
            log.contains(&"lease 0 (workers 0..1) -> child-0 (attempt 2)".to_string()),
            "{log:?}"
        );
        assert_merge_is_single_process(&m);
    }
}

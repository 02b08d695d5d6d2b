//! The service: `S` id-partitioned [shards](crate::shard) behind one
//! submit/snapshot/watch/shutdown surface — `S = 1` by default.
//!
//! Partitioning is by tuple id — shard `id % S` owns the tuple for its
//! whole lifetime, so every operation on one id flows through one
//! shard's queue and per-id ordering is exactly the single-engine
//! guarantee. With one shard, reads return that shard's published
//! snapshot and watchers register with its applier directly. With
//! several, reads merge the per-shard snapshots into one
//! [`ResultSnapshot`] — per-shard epochs, summed [`ServiceStats`], and
//! the union of the shard solutions re-trimmed to the configured `r` by
//! the sampled-greedy step ([`GreedyStar`](rms_baselines::GreedyStar)) —
//! cached by epoch vector, and a router thread turns the merged states
//! into the watch stream.

use crate::shard::{Shard, ShardHandle};
use crate::snapshot::{ResultSnapshot, ServiceStats, SnapshotDelta};
use crate::sync::recover_poisoned;
use crate::wal;
use fdrms::{FdRms, FdRmsBuilder, FdRmsError, Op};
use rms_baselines::{GreedyStar, StaticRms};
use rms_geom::Point;
use rms_metrics::{Counter, Registry};
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, RecvError, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Utility-vector samples for the multi-shard re-trim. The union being
/// trimmed holds at most `S·r` tuples, so the sampled greedy is cheap;
/// the merge cache amortises it to one run per published shard state.
const TRIM_SAMPLES: usize = 512;
const TRIM_SEED: u64 = 0x5AD3;

/// Tuning knobs for [`RmsService`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Number of id-partitioned shards `S` (default 1): shard `id % S`
    /// owns each tuple, with its own engine, applier thread, ingestion
    /// queue and (when WAL-backed) log. Ingestion scales with shards
    /// because the per-op maintenance cost lands on `S` applier threads
    /// instead of one; reads stay non-blocking through a merge cache.
    pub shards: usize,
    /// Capacity of each shard's bounded ingestion queue. A full queue
    /// blocks [`RmsHandle::submit`] (backpressure) until the applier
    /// drains.
    pub queue_capacity: usize,
    /// Upper bound on the ops coalesced into one `apply_batch` call. The
    /// actual batch size adapts to load: whatever is queued when the
    /// applier comes around, up to this cap.
    pub max_batch: usize,
    /// Monte-Carlo test directions for the published max-regret-ratio
    /// estimate; `0` (the default) disables estimation — it costs
    /// `O(directions × n)` per refresh.
    pub mrr_directions: usize,
    /// Refresh the regret estimate every this many epochs (when
    /// `mrr_directions > 0`).
    pub mrr_every: u64,
    /// Seed for the regret estimator's test directions.
    pub mrr_seed: u64,
    /// When serving with a write-ahead log
    /// ([`RmsService::start_with_wal`]): `fsync` the log once per
    /// coalesced batch (group commit). Off, the log still survives a
    /// process kill (records reach the OS before acknowledgement) but
    /// not a power failure; on, every *acknowledged* op is on stable
    /// storage no later than the batch commit after its acknowledgement
    /// (the record lands between the enqueue and the ack, so the commit
    /// covering its own batch can race it), at the cost of one
    /// `fdatasync` per batch.
    pub wal_fsync: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            queue_capacity: 1024,
            max_batch: 512,
            mrr_directions: 0,
            mrr_every: 16,
            mrr_seed: 0xE7A1,
            wal_fsync: false,
        }
    }
}

/// Why starting a service failed.
#[derive(Debug)]
pub enum ServeError {
    /// Engine construction, replay-base validation, or the shard count
    /// failed.
    Engine(FdRmsError),
    /// The write-ahead log could not be opened, scanned, or created, or
    /// was written under a different shard count.
    Wal(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine: {e}"),
            ServeError::Wal(e) => write!(f, "write-ahead log: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FdRmsError> for ServeError {
    fn from(e: FdRmsError) -> Self {
        ServeError::Engine(e)
    }
}

/// Why a submission failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The service has shut down; the operation (returned) was not
    /// enqueued.
    Disconnected(Op),
    /// [`RmsHandle::try_submit`] only: the queue is at capacity; the
    /// operation (returned) was not enqueued.
    Full(Op),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Disconnected(_) => write!(f, "service has shut down"),
            SubmitError::Full(_) => write!(f, "ingestion queue is full"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The receiving end of a delta subscription: the starting
/// [`ResultSnapshot`] plus a stream of [`SnapshotDelta`]s that apply on
/// top of it, pushed by the publish path (no polling). The stream is
/// *gap-free*: the first delta's `from_version` equals the base
/// snapshot's version and each subsequent delta continues where the
/// previous ended. It closes when the service shuts down or the
/// receiver is dropped.
///
/// Delivery is unbounded-buffered: a subscriber that stops receiving
/// accumulates pending deltas (each at most `2r` entries) until it is
/// dropped — it can never stall the applier.
#[derive(Debug)]
pub struct DeltaReceiver {
    rx: Receiver<SnapshotDelta>,
    base: Arc<ResultSnapshot>,
}

impl DeltaReceiver {
    pub(crate) fn new(rx: Receiver<SnapshotDelta>, base: Arc<ResultSnapshot>) -> Self {
        Self { rx, base }
    }

    /// The published state the delta stream starts from.
    pub fn base(&self) -> &ResultSnapshot {
        &self.base
    }

    /// Blocks for the next delta; `Err` means the stream closed (the
    /// service shut down).
    pub fn recv(&self) -> Result<SnapshotDelta, RecvError> {
        self.rx.recv()
    }

    /// Non-blocking [`DeltaReceiver::recv`].
    pub fn try_recv(&self) -> Result<SnapshotDelta, TryRecvError> {
        self.rx.try_recv()
    }

    /// [`DeltaReceiver::recv`] with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<SnapshotDelta, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// Iterates deltas until the stream closes.
    pub fn iter(&self) -> impl Iterator<Item = SnapshotDelta> + '_ {
        self.rx.iter()
    }
}

/// The merge state of a multi-shard service, shared by every
/// [`RmsHandle`]: gathering the per-shard snapshots and merging them
/// happens under one lock, which both serializes merges (making
/// published epoch vectors pointwise monotone) and caches the result —
/// readers at the same shard state pay an `Arc` clone, not a re-merge.
#[derive(Debug)]
struct Merger {
    k: usize,
    r: usize,
    cache: Mutex<Option<Arc<ResultSnapshot>>>,
    /// Reads served by the cached merge (an `Arc` clone). Lives in the
    /// service's metrics registry as `rms_shard_merge_hits_total`, and
    /// is exposed as `merge_hits=` in `STATS` so the epoch-vector
    /// cache's effectiveness is observable from outside.
    hits: Counter,
    /// Reads that had to re-merge because some shard published a new
    /// epoch (`rms_shard_merge_misses_total` / `merge_misses=`).
    misses: Counter,
}

impl Merger {
    fn new(k: usize, r: usize, registry: &Registry) -> Self {
        Merger {
            k,
            r,
            cache: Mutex::new(None),
            hits: registry.register_counter(
                "rms_shard_merge_hits_total",
                "Merged-snapshot reads served from the epoch-vector cache.",
                &[],
            ),
            misses: registry.register_counter(
                "rms_shard_merge_misses_total",
                "Merged-snapshot reads that re-merged after a shard published.",
                &[],
            ),
        }
    }

    fn snapshot(&self, shards: &[ShardHandle]) -> Arc<ResultSnapshot> {
        let mut guard = recover_poisoned(self.cache.lock());
        let snaps: Vec<Arc<ResultSnapshot>> = shards.iter().map(ShardHandle::snapshot).collect();
        if let Some(cached) = guard.as_ref() {
            if snaps
                .iter()
                .zip(&cached.epochs)
                .all(|(s, &e)| s.version() == e)
            {
                self.hits.inc();
                return Arc::clone(cached);
            }
        }
        self.misses.inc();
        let merged = Arc::new(self.merge(&snaps));
        *guard = Some(Arc::clone(&merged));
        merged
    }

    fn merge(&self, snaps: &[Arc<ResultSnapshot>]) -> ResultSnapshot {
        let mut stats = ServiceStats::default();
        let mut union: Vec<Point> = Vec::new();
        let mut len = 0;
        let mut m = 0;
        let mut mrr: Option<f64> = None;
        for snap in snaps {
            stats.absorb(&snap.stats);
            union.extend(snap.result.iter().cloned());
            len += snap.len;
            m += snap.m;
            if let Some(v) = snap.mrr {
                mrr = Some(mrr.map_or(v, |w: f64| w.max(v)));
            }
        }
        // Shards own disjoint id partitions, so the union is dup-free;
        // it only needs trimming when it exceeds the budget.
        let mut result = if union.len() > self.r {
            GreedyStar {
                samples: TRIM_SAMPLES,
                seed: TRIM_SEED,
            }
            .compute(&[], &union, self.k, self.r)
        } else {
            union
        };
        result.sort_unstable_by_key(Point::id);
        ResultSnapshot {
            epochs: snaps.iter().map(|s| s.version()).collect(),
            result,
            len,
            m,
            mrr,
            stats,
        }
    }
}

/// A cheap, cloneable client of a running [`RmsService`]: submit
/// operations (blocking or not), read published snapshots, and watch
/// the delta stream. Mutations route to their id's shard. Handles
/// outlive the service gracefully — submissions after shutdown return
/// [`SubmitError::Disconnected`], snapshot reads keep returning the last
/// published state.
#[derive(Debug, Clone)]
pub struct RmsHandle {
    shards: Arc<[ShardHandle]>,
    /// `Some` only with several shards; a single shard's reads never
    /// merge.
    merger: Option<Arc<Merger>>,
}

impl RmsHandle {
    fn shard_of(&self, op: &Op) -> &ShardHandle {
        &self.shards[(op.id() % self.shards.len() as u64) as usize]
    }

    /// Enqueues one operation on its id's shard, blocking while that
    /// shard's queue is full (backpressure). `Ok` means the operation
    /// *will* be applied — a graceful shutdown drains every acknowledged
    /// op — and on a WAL-backed service that the op is on the log before
    /// this returns. Per-id ordering is preserved: one id always maps to
    /// one shard queue.
    ///
    /// **WAL ordering**: the enqueue and the log append happen atomically
    /// under the shard's log mutex, which makes log order equal apply
    /// order even when different threads race conflicting ops on the
    /// same id; recovery replays exactly the serialization the live
    /// service applied. An acknowledged op is fsync-durable (with
    /// [`ServeConfig::wal_fsync`]) no later than the batch commit *after*
    /// its acknowledgement.
    ///
    /// The application itself is asynchronous; a later
    /// [`RmsHandle::snapshot`] whose stats show it absorbed reflects it.
    pub fn submit(&self, op: Op) -> Result<(), SubmitError> {
        self.shard_of(&op).submit(op)
    }

    /// Non-blocking [`RmsHandle::submit`]: fails fast with
    /// [`SubmitError::Full`] instead of waiting out backpressure. A
    /// `Full` bounce is never logged (recovery must not replay ops the
    /// caller knows were rejected).
    pub fn try_submit(&self, op: Op) -> Result<(), SubmitError> {
        self.shard_of(&op).try_submit(op)
    }

    /// The most recently published state. Never blocks on maintenance:
    /// with one shard the call clones an `Arc` out of the publication
    /// cell; with several it gathers one `Arc` per shard and returns the
    /// cached merge, re-merging only after some shard published a new
    /// epoch.
    pub fn snapshot(&self) -> Arc<ResultSnapshot> {
        match &self.merger {
            None => self.shards[0].snapshot(),
            Some(merger) => merger.snapshot(&self.shards),
        }
    }

    /// Operations currently queued across all shards (including
    /// submitters blocked on backpressure). Approximate under
    /// concurrency.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(ShardHandle::queue_depth).sum()
    }

    /// Merge-cache counters `(hits, misses)` since start — `Some` only
    /// with several shards, where a hit means a read was served by the
    /// cached merge (an `Arc` clone) instead of a re-merge.
    pub(crate) fn merge_cache_stats(&self) -> Option<(u64, u64)> {
        self.merger
            .as_ref()
            .map(|m| (m.hits.value(), m.misses.value()))
    }

    /// Subscribes to the delta stream: the returned receiver carries the
    /// current snapshot as its base plus every subsequent
    /// [`SnapshotDelta`], gap-free, pushed at publish time. The stream
    /// closes on shutdown; registration after shutdown yields an
    /// already-closed stream.
    ///
    /// With one shard the applier computes and pushes each delta itself.
    /// With several, every shard applier funnels its publish signal into
    /// one channel; a router thread then re-merges through the
    /// (serialized, cached) merge path and pushes the diff between
    /// consecutive merged states. Bursts coalesce — a subscriber sees a
    /// gap-free chain of deltas over merged states, not one delta per
    /// shard epoch.
    pub fn watch(&self) -> DeltaReceiver {
        let Some(merger) = &self.merger else {
            return self.shards[0].watch();
        };
        let (signal_tx, signal_rx) = channel();
        for shard in self.shards.iter() {
            // Signal-only registration: the router diffs merged
            // snapshots itself, so the shard appliers never compute a
            // per-shard delta on its behalf (and can never double-apply).
            shard.watch_signal(signal_tx.clone());
        }
        drop(signal_tx);
        // The base merge runs *after* registration: anything published
        // before it is already in the base, anything after wakes the
        // router and shows up as a delta.
        let base = merger.snapshot(&self.shards);
        let (tx, rx) = channel();
        let mut prev = Arc::clone(&base);
        let shards = Arc::clone(&self.shards);
        let merger = Arc::clone(merger);
        let router = move || {
            loop {
                let closed = signal_rx.recv().is_err();
                // Coalesce the burst: one merge covers every signal
                // drained here.
                while signal_rx.try_recv().is_ok() {}
                let cur = merger.snapshot(&shards);
                if cur.epochs != prev.epochs {
                    if tx.send(cur.delta_from(&prev)).is_err() {
                        return; // subscriber hung up
                    }
                    prev = cur;
                }
                if closed {
                    return; // every shard shut down; final merge done
                }
            }
        };
        if std::thread::Builder::new()
            .name("rms-delta-router".into())
            .spawn(router)
            .is_err()
        {
            // Spawn failure: fall back to an already-closed stream (the
            // sender side was moved into the failed closure and dropped).
        }
        DeltaReceiver::new(rx, base)
    }
}

/// A running FD-RMS service: `S` id-partitioned [`ServeConfig::shards`]
/// (default 1), each an engine on its own applier thread behind a
/// bounded ingestion queue.
///
/// Each applier drains whatever is queued (up to
/// [`ServeConfig::max_batch`]) into one [`FdRms::apply_batch`] call — so
/// batch sizes adapt to load, amortising maintenance exactly where the
/// batch engine makes it cheap — and after every batch publishes an
/// immutable [`ResultSnapshot`] behind a swapped `Arc`. Any number of
/// readers call [`RmsHandle::snapshot`] concurrently without ever
/// blocking ingestion (and vice versa).
///
/// A batch containing an invalid operation is rejected atomically by the
/// engine; the applier then replays that batch one op at a time, so one
/// bad op costs only itself — its batch-mates still apply ([`ServiceStats`]
/// counts `ops_rejected`, and the whole salvage counts as **one** logical
/// batch, tallied in `replayed_batches`).
///
/// Started via [`RmsService::start_with_wal`], every acknowledged op is
/// also framed into a [write-ahead log](crate::wal) before the
/// acknowledgement, replayed by the next start after an unclean death.
#[derive(Debug)]
pub struct RmsService {
    shards: Vec<Shard>,
    handle: RmsHandle,
    registry: Arc<Registry>,
}

impl RmsService {
    /// Partitions `initial` by `id % S`, builds each shard's engine from
    /// `builder` (synchronously, so configuration errors surface here),
    /// publishes the epoch-0 snapshots, and starts the applier threads.
    /// Instruments register into a fresh [`Registry::from_env`] (so
    /// `KRMS_METRICS_DISABLED` is honored); read it back via
    /// [`RmsService::registry`].
    pub fn start(
        builder: FdRmsBuilder,
        initial: Vec<Point>,
        cfg: ServeConfig,
    ) -> Result<Self, ServeError> {
        Self::launch(builder, initial, cfg, None)
    }

    /// [`RmsService::start`] with crash durability. One shard logs to
    /// `wal_path` itself; `S > 1` shards log to `<wal_path>.<i>` and
    /// record `S` in a `<wal_path>.meta` sidecar, and a start against
    /// logs written under a different shard count is refused. Each shard
    /// opens (or creates) its log and replays whatever a previous unclean
    /// death left there — the log's last checkpoint, if any, supersedes
    /// `initial` as the replay base; ops after it are applied one batch at
    /// a time with the per-op salvage fallback, and the accepted count is
    /// published as `wal_recovered_ops` — and only then goes live. From
    /// then on every acknowledged op is appended to the log before its
    /// acknowledgement, and a graceful [`RmsService::shutdown`] compacts
    /// each log to a checkpoint of the final state.
    ///
    /// **Ordering**: enqueue and append are serialized under the log
    /// mutex (see [`RmsHandle::submit`]), so log order equals apply order
    /// even when different threads race conflicting ops on the same id —
    /// pinned by `tests/wal.rs::contended_id_recovery_matches_live_outcome`.
    pub fn start_with_wal(
        builder: FdRmsBuilder,
        initial: Vec<Point>,
        cfg: ServeConfig,
        wal_path: &Path,
    ) -> Result<Self, ServeError> {
        Self::launch(builder, initial, cfg, Some(wal_path))
    }

    fn launch(
        builder: FdRmsBuilder,
        initial: Vec<Point>,
        cfg: ServeConfig,
        wal_base: Option<&Path>,
    ) -> Result<Self, ServeError> {
        let shards = cfg.shards;
        if shards == 0 {
            return Err(ServeError::Engine(FdRmsError::InvalidParameter(
                "shard count must be positive".into(),
            )));
        }
        let logs = match wal_base {
            Some(base) => Some(wal::shard_log_paths(base, shards).map_err(ServeError::Wal)?),
            None => None,
        };
        let mut partitions: Vec<Vec<Point>> = (0..shards).map(|_| Vec::new()).collect();
        for p in initial {
            partitions[(p.id() % shards as u64) as usize].push(p);
        }
        // One registry for the whole service; with several shards every
        // shard's families carry a `shard="N"` label, so one exposition
        // covers the group.
        let registry = Arc::new(Registry::from_env());
        let mut members = Vec::with_capacity(shards);
        for (i, part) in partitions.into_iter().enumerate() {
            let log = logs.as_ref().map(|paths| paths[i].as_path());
            let label = (shards > 1).then_some(i);
            members.push(Shard::start(builder, part, cfg, log, &registry, label)?);
        }
        if let Some(base) = wal_base {
            // Recorded only now, with every shard's log open: a failed
            // startup must not pin a shard count nothing was written
            // under.
            wal::record_shard_count(base, shards).map_err(ServeError::Wal)?;
        }
        let merger =
            (shards > 1).then(|| Arc::new(Merger::new(members[0].k, members[0].r, &registry)));
        let handle = RmsHandle {
            shards: members.iter().map(|s| s.handle.clone()).collect(),
            merger,
        };
        Ok(Self {
            shards: members,
            handle,
            registry,
        })
    }

    /// The metrics registry every subsystem of this service reports
    /// into: applier and WAL families (labeled `shard="N"` with several
    /// shards, plus the merge-cache counters), and whatever a front end
    /// registers (the TCP server adds its connection/request families
    /// here).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A new cloneable client handle.
    pub fn handle(&self) -> RmsHandle {
        self.handle.clone()
    }

    /// See [`RmsHandle::snapshot`].
    pub fn snapshot(&self) -> Arc<ResultSnapshot> {
        self.handle.snapshot()
    }

    /// See [`RmsHandle::watch`].
    pub fn watch(&self) -> DeltaReceiver {
        self.handle.watch()
    }

    /// See [`RmsHandle::submit`].
    pub fn submit(&self, op: Op) -> Result<(), SubmitError> {
        self.handle.submit(op)
    }

    /// The configured tuple dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.shards[0].dim
    }

    /// The configured rank depth `k`.
    pub fn k(&self) -> usize {
        self.shards[0].k
    }

    /// The configured result size budget `r` (per shard and for the
    /// merged result).
    pub fn r(&self) -> usize {
        self.shards[0].r
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Graceful shutdown, one shard after another: each applier drains
    /// and applies every *acknowledged* operation (every `submit` that
    /// returned `Ok`, even from senders still blocked on a full queue),
    /// publishes a final snapshot, and compacts its write-ahead log (when
    /// configured) to a checkpoint of the final state. Returns the
    /// engines, indexed by shard (e.g. for invariant checks or
    /// persistence). Submissions racing the start of shutdown either
    /// fail with [`SubmitError::Disconnected`] or are applied — never
    /// acknowledged and dropped.
    ///
    /// Panics if an applier thread panicked (an engine invariant
    /// failure), propagating that error.
    pub fn shutdown(self) -> Vec<FdRms> {
        self.shards.into_iter().map(Shard::shutdown).collect()
    }

    /// Durability-testing hook: stop every shard as an unclean kill
    /// would. The appliers exit without draining, without publishing a
    /// final snapshot, and — crucially — **without compacting the
    /// write-ahead logs**; the in-memory engine state is discarded. A
    /// subsequent [`RmsService::start_with_wal`] on the same logs must
    /// recover every acknowledged op. (A real kill −9 needs no
    /// cooperation; this exists so tests can exercise the recovery path
    /// in-process.)
    pub fn crash(self) {
        for shard in self.shards {
            shard.crash();
        }
    }
}

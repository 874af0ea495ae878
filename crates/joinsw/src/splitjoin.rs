//! Multithreaded uni-flow stream join (SplitJoin) — the software system
//! measured in Figs. 14d and 16 of the paper.
//!
//! Architecture (mirroring the hardware design of Fig. 9 in threads):
//!
//! ```text
//!            caller thread (distribution network)
//!           /         |          \
//!      join core   join core   join core      (N worker threads)
//!           \         |          /
//!             collector thread (result gathering network)
//! ```
//!
//! Each worker owns one sub-window per stream and receives *every* tuple:
//! it probes the tuple against its share of the opposite window and stores
//! it round-robin ("each join core independently counts the number of
//! tuples received and, based on its position among other join cores,
//! determines its turn to store") — no central coordination.
//!
//! # The batched data path
//!
//! The paper observes that in software "the distribution and result
//! gathering network also consume a portion of the processors' capacity";
//! naïvely that cost is one cross-thread channel message *per tuple per
//! worker* on the way in and one *per match* on the way out, which
//! dominates the short per-tuple probe. This implementation batches both
//! directions:
//!
//! * **Distribution** — [`SplitJoin::process`] accumulates tuples in a
//!   caller-side buffer and ships one batch message per
//!   [`JoinConfig::batch_size`](crate::config::JoinConfig::batch_size)
//!   tuples to every worker (one arena publish per batch, N sequence
//!   numbers — not N copies).
//! * **Collection** — workers buffer matches locally and emit them to the
//!   collector in chunks; in counting-only mode
//!   ([`JoinConfig::counting_only`](crate::config::JoinConfig::counting_only))
//!   no collector thread exists at all and matches are folded from
//!   per-worker counters at shutdown.
//!
//! Batching never changes results: [`SplitJoin::flush`] and
//! [`SplitJoin::shutdown`] both drain the partial batch first, so
//! `batch_size = 1` reproduces the unbatched message-per-tuple path
//! exactly and every batch size yields the same result multiset.
//!
//! # Transport
//!
//! Both directions run over lock-free SPSC rings ([`streamcore::ring`]):
//! one ring per worker for distribution, one per worker for results, and
//! — in broadcast mode — a shared [batch
//! arena](streamcore::ring::batch_arena), so a broadcast ships one
//! sequence number per worker while every join core probes the
//! arena-resident batch *in place*: zero-copy from router to probe. The
//! flush barrier needs no reverse link either: each worker publishes the
//! flush token it has reached to its supervision cell and the router
//! polls the cells.
//!
//! # Probe paths
//!
//! A worker picks its probe path from what it observes, never from an
//! option. A broadcast batch of at least
//! [`MIN_BLOCK_PROBES`] tuples
//! against nested-loop windows runs the blocked batch×window compare
//! tiles ([`streamcore::kernel`]); smaller batches (a caller that feeds
//! per tuple and polls) and hash windows, whose chain walks cannot be
//! tiled, run the per-tuple probe. The two are bit-identical in results
//! and in [`WorkerStats`] — the per-tuple path is the in-tree reference
//! the blocked path is tested against.
//!
//! Workers can optionally be pinned to cores
//! ([`JoinConfig::pin_workers`]) so each ring's two hot cache lines
//! stay put — the software analogue of the hardware design's
//! hard-wired point-to-point links.
//!
//! # Partitioned dispatch (PanJoin mode)
//!
//! Broadcast distribution sends every tuple to every worker — each probe
//! pays O(window) regardless of core count. With
//! [`Partitioning::Hash`]
//! ([`JoinConfig::partitioning`], overridable process-wide with
//! `ACCEL_SW_PARTITIONING`) the window is instead *content-partitioned*
//! by join key, PanJoin-style: rendezvous hashing
//! ([`PartitionMap::key_owner`]) assigns each key an owning worker, the
//! router ships each tuple only to its owner as a keyed sub-batch
//! (tuple + global stream coordinates), and the owner
//! probes a per-key chain ([`streamcore::PartitionedWindow`]) instead of
//! scanning a sub-window. Eviction uses the router-stamped global
//! sequence watermarks — never local counts — so the union of the shards
//! equals the broadcast window at every probe and the result multiset is
//! identical to broadcast mode (the cross-impl equivalence suite pins
//! this, uniform and zipf, healthy and under kills).
//!
//! Skew is handled online: a Misra–Gries sketch ([`FreqSketch`]) watches
//! routed keys, and a key that exceeds
//! [`SplitJoinConfig::hot_key_factor`] fair shares of the traffic is
//! *split* — its stores rotate round-robin over all live workers while
//! its probes broadcast, so one hot key no longer pins a whole stream to
//! one core. Old data stays where it was stored; probes reach everyone,
//! so the transition loses nothing. Per-worker shard occupancy, split
//! counts, and routing fan-out surface as
//! [`PartitionStats`] (`splitjoin.partition.*` in the registry).
//! Recovery keeps working — a dead position's ledger is its exact orphan
//! count, and rendezvous hashing re-homes only the dead worker's keys —
//! but replication is rejected at spawn, and non-equi predicates cannot
//! be content-partitioned. See `docs/PARTITIONING.md` for a measured
//! walkthrough.
//!
//! # Fault tolerance
//!
//! Every data-path operation is fallible ([`accel_error::JoinError`])
//! instead of `.expect`-ing peers alive, and the distribution side is a
//! supervised *router*:
//!
//! * ring pushes and arena publishes retry with a yield phase and then
//!   bounded exponential backoff (1 ms doubling to 64 ms) while watching
//!   the lagging worker's heartbeat counter — back-pressure with
//!   progress waits forever, a frozen heartbeat with a full ring (or
//!   arena) for the whole supervision deadline reports
//!   [`JoinError::Saturated`];
//! * a worker found dead (scripted kill from the
//!   [`FaultPlan`], scripted panic, or organic
//!   death) is *recovered*: the router retires its position from the
//!   shared [`PartitionMap`], broadcasts the new map so survivors
//!   re-partition future storage turns at the same message boundary, and
//!   records the exact completeness loss — the tuples orphaned inside the
//!   dead worker's sub-window — in the outcome's
//!   [`FaultReport`];
//! * with [`SplitJoinConfig::with_replication`], the router additionally
//!   keeps a replica ring of the last `effective_window` tuples per
//!   stream and re-inserts the orphans into survivor sub-windows on
//!   recovery.
//!
//! Scripted kills are recovered *proactively* at the exact batch boundary
//! the plan names, which is what makes the orphan accounting exact: the
//! dead worker's occupancy is the closed-form round-robin share of the
//! streams sent so far, clamped to the sub-window size. With an empty
//! plan none of this machinery runs per tuple: the router counts stream
//! tags per batch and nothing else.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use accel_error::JoinError;
pub use accel_error::WorkerStats;
use streamcore::kernel::{self, KernelStats, MIN_BLOCK_PROBES};
use streamcore::ring::{self, ArenaReader, ArenaWriter, PopError, RingConsumer, RingProducer};
use streamcore::{
    FlatWindow, FreqSketch, HashIndexWindow, JoinPredicate, MatchPair, PartitionMap,
    PartitionedWindow, StreamTag, Tuple,
};

use crate::config::{JoinConfig, JoinParams, Partitioning};
use crate::fault::{round_robin_share, FaultPlan, FaultReport};
use crate::supervise::{
    supervised_push, AliveGuard, SendStatus, SendSupervisor, WorkerCell, CLAIM_SPIN_YIELDS,
    SATURATION_DEADLINE,
};

/// Per-worker result-ring capacity (individual [`MatchPair`]s, not
/// chunks). Generous enough that a draining collector never
/// back-pressures the probe loop in practice.
const RESULT_RING_CAPACITY: usize = 8_192;

/// How long an idle thread sleeps between ring polls once spinning and
/// yielding have not produced work.
const IDLE_SLEEP: Duration = Duration::from_micros(50);

pub use crate::config::{default_batch_size, DEFAULT_BATCH_SIZE};

/// Default hot-key promotion factor (see
/// [`SplitJoinConfig::hot_key_factor`]): a key is split once it exceeds
/// half a fair share of the routed traffic.
pub const DEFAULT_HOT_KEY_FACTOR: f64 = 0.5;

/// Default minimum routed-tuple sample before any hot-key promotion
/// (see [`SplitJoinConfig::hot_min_sample`]).
pub const DEFAULT_HOT_MIN_SAMPLE: u64 = 1_024;

/// Tracked-key capacity of the router's Misra–Gries sketch
/// ([`FreqSketch`]) in partitioned mode. Any key above a
/// `1/(capacity+1)` traffic share is guaranteed tracked, far below the
/// promotion threshold for any plausible core count.
const SKETCH_CAPACITY: usize = 64;

/// Join algorithm inside each worker (mirrors `joinhw::JoinAlgorithm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwJoinAlgorithm {
    /// Scan the whole opposite sub-window per probe — any predicate.
    /// Backed by [`FlatWindow`]: the scan walks a dense `u32` key array.
    NestedLoop,
    /// Probe a per-key hash index — equi-joins only, O(matches) probes.
    /// Backed by [`HashIndexWindow`]: a flat ring plus an
    /// open-addressing key index.
    Hash,
}

/// Configuration of a [`SplitJoin`] instance: the shared
/// [`JoinConfig`] plus the SplitJoin-specific extensions. Derefs to
/// [`JoinConfig`], so the shared fields and `&self` helpers
/// (`config.window_size`, `config.sub_window()`) read and write exactly
/// as before the convergence.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitJoinConfig {
    /// The engine-independent configuration fields.
    pub common: JoinConfig,
    /// Join algorithm (default nested-loop, as the paper measures).
    pub algorithm: SwJoinAlgorithm,
    /// Keep a coordinator-side replica ring of the last
    /// `effective_window` tuples per stream and re-insert a dead
    /// worker's orphans into survivor sub-windows on recovery. Costs a
    /// per-tuple copy on the router thread; off by default.
    pub replicate_on_loss: bool,
    /// Hot-key promotion threshold in partitioned mode
    /// ([`Partitioning::Hash`]): a key is split across all live workers
    /// once its sketched frequency reaches `hot_key_factor` fair shares
    /// of the routed traffic (`estimate ≥ hot_key_factor × total /
    /// live_workers`). Default [`DEFAULT_HOT_KEY_FACTOR`]; must be
    /// positive. Set it absurdly high (e.g. `1e9`) to disable splitting.
    pub hot_key_factor: f64,
    /// Minimum routed tuples (prefill included) before any hot-key
    /// promotion — keeps early sketch noise from splitting cold keys.
    /// Default [`DEFAULT_HOT_MIN_SAMPLE`].
    pub hot_min_sample: u64,
}

impl Deref for SplitJoinConfig {
    type Target = JoinConfig;
    fn deref(&self) -> &JoinConfig {
        &self.common
    }
}

impl DerefMut for SplitJoinConfig {
    fn deref_mut(&mut self) -> &mut JoinConfig {
        &mut self.common
    }
}

impl JoinParams for SplitJoinConfig {
    fn common(&self) -> &JoinConfig {
        &self.common
    }
    fn common_mut(&mut self) -> &mut JoinConfig {
        &mut self.common
    }
}

impl SplitJoinConfig {
    /// An equi-join configuration with default channel and batch sizing
    /// (see [`default_batch_size`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` or `window_size` is zero.
    pub fn new(num_cores: usize, window_size: usize) -> Self {
        Self {
            common: JoinConfig::new(num_cores, window_size),
            algorithm: SwJoinAlgorithm::NestedLoop,
            replicate_on_loss: false,
            hot_key_factor: DEFAULT_HOT_KEY_FACTOR,
            hot_min_sample: DEFAULT_HOT_MIN_SAMPLE,
        }
    }

    /// Replaces the join predicate.
    #[must_use]
    pub fn with_predicate(mut self, predicate: JoinPredicate) -> Self {
        self.common = self.common.with_predicate(predicate);
        self
    }

    /// Selects the join algorithm.
    ///
    /// # Panics
    ///
    /// Panics if [`SwJoinAlgorithm::Hash`] is combined with a non-equi
    /// predicate.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: SwJoinAlgorithm) -> Self {
        assert!(
            algorithm != SwJoinAlgorithm::Hash || self.predicate == JoinPredicate::Equi,
            "hash join requires an equi-join predicate"
        );
        self.algorithm = algorithm;
        self
    }

    /// Sets the distribution batch size (see
    /// [`JoinConfig::batch_size`] for the semantics and the interaction
    /// with `channel_capacity`).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.common = self.common.with_batch_size(batch_size);
        self
    }

    /// Sets the per-worker channel capacity (in batch messages; see
    /// [`JoinConfig::channel_capacity`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_channel_capacity(mut self, capacity: usize) -> Self {
        self.common = self.common.with_channel_capacity(capacity);
        self
    }

    /// Disables result retention and collection (counting only).
    #[must_use]
    pub fn counting_only(mut self) -> Self {
        self.common = self.common.counting_only();
        self
    }

    /// Installs a fault plan (validated against the core count).
    ///
    /// # Panics
    ///
    /// Panics if the plan targets a worker `>= num_cores`.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.common = self.common.with_fault_plan(plan);
        self
    }

    /// Enables sub-window re-replication on worker loss (see
    /// [`SplitJoinConfig::replicate_on_loss`]).
    #[must_use]
    pub fn with_replication(mut self) -> Self {
        self.replicate_on_loss = true;
        self
    }

    /// Selects the dispatch discipline (see [`Partitioning`]).
    /// [`Partitioning::Hash`] requires an equi-join predicate and no
    /// replication, checked at spawn.
    #[must_use]
    pub fn with_partitioning(mut self, partitioning: Partitioning) -> Self {
        self.common = self.common.with_partitioning(partitioning);
        self
    }

    /// Sets the hot-key promotion factor (see
    /// [`SplitJoinConfig::hot_key_factor`]).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    #[must_use]
    pub fn with_hot_key_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "hot-key factor must be positive");
        self.hot_key_factor = factor;
        self
    }

    /// Sets the minimum sample before hot-key promotion (see
    /// [`SplitJoinConfig::hot_min_sample`]).
    #[must_use]
    pub fn with_hot_sample(mut self, min_sample: u64) -> Self {
        self.hot_min_sample = min_sample;
        self
    }

    /// Pins each join core to a CPU (see [`JoinConfig::pin_workers`]).
    #[must_use]
    pub fn with_pinning(mut self) -> Self {
        self.common = self.common.with_pinning();
        self
    }
}

enum Msg {
    /// One distribution batch resident in the shared
    /// [`batch arena`](streamcore::ring::batch_arena): the worker probes
    /// arena slot `seq % slots` in place — zero-copy — and releases it
    /// afterwards so the slot can be reused.
    ArenaBatch {
        /// Arena sequence number identifying the batch.
        seq: u64,
    },
    /// One keyed-dispatch sub-batch (partitioned mode): only the
    /// entries this worker owns or must probe, each stamped with the
    /// global stream coordinates that keep its shard window-equivalent
    /// to the broadcast realization.
    Part(Arc<[PartEntry]>),
    /// Window pre-fill (no probing), shared across all workers.
    Prefill(StreamTag, Arc<[Tuple]>),
    /// Re-replicated orphans of a dead worker: insert directly into this
    /// worker's own sub-window, without probing or advancing the
    /// round-robin counters.
    Adopt(StreamTag, Arc<[Tuple]>),
    /// A worker died: switch to this partition map for future storage
    /// turns. All survivors see it at the same position in their FIFO
    /// queues, so they switch at an identical tuple boundary.
    Reconfigure(Arc<PartitionMap>),
    /// Barrier token: drain local result buffers, then publish the
    /// token to [`WorkerCell::flushed`], which the router polls.
    Flush(u64),
    Stop,
}

/// One keyed-dispatch entry: a tuple plus the global stream coordinates
/// the receiving worker needs to evict its shard by exactly the
/// watermarks the broadcast window realizes.
#[derive(Debug, Clone, Copy)]
struct PartEntry {
    tag: StreamTag,
    tuple: Tuple,
    /// Global per-stream sequence number of this tuple (0-based).
    seq: u64,
    /// Opposite-stream tuple count at this tuple's arrival — the probe
    /// watermark: the shard evicts below `opp - window` before probing.
    opp: u64,
    /// Store into the own-stream shard (the key's owner, or the hot
    /// round-robin turn).
    store: bool,
    /// Probe the opposite-stream shard (`false` for prefill).
    probe: bool,
}

/// Blocking receive on a worker's distribution ring. `None` means the
/// router is gone and the ring is fully drained. Spins briefly, then
/// yields, then parks in short sleeps: the latency-critical wakeups
/// (next batch in a loaded run) are caught by the spin/yield phases.
fn recv_msg(msgs: &mut RingConsumer<Msg>) -> Option<Msg> {
    let mut spins = 0u32;
    loop {
        match msgs.try_pop() {
            Ok(msg) => return Some(msg),
            Err(PopError::Disconnected) => return None,
            Err(PopError::Empty) => {
                if spins < 64 {
                    spins += 1;
                    std::hint::spin_loop();
                } else if spins < 192 {
                    spins += 1;
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(IDLE_SLEEP);
                }
            }
        }
    }
}

/// Distribution-ring and arena telemetry, attached to every outcome.
#[derive(Debug, Default)]
pub struct RingStats {
    /// Distribution-ring occupancy (queued messages) sampled at every
    /// router send.
    pub occupancy: obs::Histogram,
    /// Peak of the occupancy samples — the high-water gauge.
    pub peak_occupancy: obs::Gauge,
    /// Nanoseconds the router waited for ring or arena space, one sample
    /// per send/publish that could not complete on the fast path.
    pub claim_wait_ns: obs::Histogram,
}

impl Clone for RingStats {
    fn clone(&self) -> Self {
        // `obs::Gauge` is deliberately not `Clone` (it is a live cell);
        // cloning the stats copies its reading into a fresh gauge.
        let peak_occupancy = obs::Gauge::new();
        peak_occupancy.set(self.peak_occupancy.get());
        Self {
            occupancy: self.occupancy.clone(),
            peak_occupancy,
            claim_wait_ns: self.claim_wait_ns.clone(),
        }
    }
}

/// Partitioned-dispatch telemetry, attached to the outcome when the run
/// used [`Partitioning::Hash`].
#[derive(Debug, Clone, Default)]
pub struct PartitionStats {
    /// Live (unexpired) stored tuples per worker position at shutdown,
    /// both streams combined, from the router's exact ledger. Retired
    /// positions report zero.
    pub occupancy: Vec<u64>,
    /// Worker positions still live at shutdown.
    pub live: Vec<usize>,
    /// Keys the frequency sketch promoted to hot (split across all live
    /// workers) during the run.
    pub hot_splits: u64,
    /// Total dispatch entries shipped; a hot-key tuple counts once per
    /// worker reached, so `routed / tuples` is the effective fan-out.
    pub routed: u64,
}

impl PartitionStats {
    /// Max-over-mean occupancy across the live positions — the
    /// load-balance figure the skew sweep gates on (`1.0` is perfectly
    /// even; broadcast-free skew pathologies push it toward the live
    /// worker count). `0.0` when nothing is stored.
    #[must_use]
    pub fn balance(&self) -> f64 {
        let live: Vec<u64> = self.live.iter().map(|&w| self.occupancy[w]).collect();
        if live.is_empty() {
            return 0.0;
        }
        let max = live.iter().copied().max().unwrap_or(0) as f64;
        let mean = live.iter().sum::<u64>() as f64 / live.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean
        }
    }
}

/// Everything a [`SplitJoin`] leaves behind at shutdown.
#[derive(Debug, Clone, Default)]
pub struct JoinOutcome {
    /// Collected results no mid-run [`SplitJoin::drain_results`] call
    /// harvested (all of them when nothing drained; empty when
    /// configured counting-only).
    pub results: Vec<MatchPair>,
    /// Total matches ever collected — including drained ones — or the
    /// per-worker counters folded together when counting-only.
    pub result_count: u64,
    /// Per-worker statistics, indexed by core position. A lost worker's
    /// entry is its last published snapshot.
    pub worker_stats: Vec<WorkerStats>,
    /// Distribution batch sizes (tuples per batch message), as recorded
    /// by the distributor: `total()` is the number of batch messages
    /// sent per worker.
    pub batch_sizes: obs::Histogram,
    /// Wall-clock span rings, one per worker (`sw.worker.<position>`):
    /// receive waits and per-batch probe/prefill/flush work. A run that
    /// recovered workers also carries a `sw.router` ring with one
    /// `recover` span per loss. Empty unless tracing was enabled when
    /// the workers were spawned (see `obs::trace`).
    pub trace: Vec<obs::trace::TraceRing>,
    /// What went wrong, if anything: lost workers, orphaned tuples,
    /// recovery latency. All-zero (and [`FaultReport::degraded`] is
    /// `false`) for a healthy run.
    pub fault: FaultReport,
    /// Distribution-ring telemetry. Always `Some`; the `Option` is what
    /// the ledger benchmark compiles against.
    pub ring_stats: Option<RingStats>,
    /// Partitioned-dispatch telemetry; `None` in broadcast mode, so
    /// broadcast manifests keep their exact pre-partitioning shape.
    pub partition_stats: Option<PartitionStats>,
    /// Probe-kernel telemetry, folded across workers (`tiles` stays 0
    /// when only the per-tuple path ran). Always `Some`; the `Option` is
    /// what the ledger benchmark compiles against.
    pub kernel_stats: Option<KernelStats>,
}

impl JoinOutcome {
    /// Publishes the run's counters under stable dotted names
    /// (`splitjoin.worker<i>.probes`, `.stored`, `.matches`,
    /// `splitjoin.batches`, …) for a
    /// [`RunManifest`](obs::RunManifest). Degraded runs additionally
    /// publish the `fault.*` namespace; healthy runs do **not**, so
    /// manifests keep their exact pre-fault-model shape.
    pub fn registry(&self) -> obs::Registry {
        let mut reg = obs::Registry::new();
        reg.record("splitjoin.batches", self.batch_sizes.total());
        reg.record("splitjoin.matches", self.result_count);
        for (i, ws) in self.worker_stats.iter().enumerate() {
            reg.record(format!("splitjoin.worker{i}.probes"), ws.comparisons);
            reg.record(format!("splitjoin.worker{i}.stored"), ws.stored);
            reg.record(format!("splitjoin.worker{i}.matches"), ws.matches);
        }
        if self.fault.degraded() {
            self.fault.publish(&mut reg);
        }
        if let Some(rs) = &self.ring_stats {
            reg.record("splitjoin.ring.occupancy_peak", rs.peak_occupancy.get());
            reg.record("splitjoin.ring.claim_waits", rs.claim_wait_ns.total());
        }
        if let Some(ps) = &self.partition_stats {
            reg.record("splitjoin.partition.hot_splits", ps.hot_splits);
            reg.record("splitjoin.partition.routed", ps.routed);
            let mut max = 0u64;
            for (i, &occ) in ps.occupancy.iter().enumerate() {
                reg.record(format!("splitjoin.partition.worker{i}.occupancy"), occ);
                max = max.max(occ);
            }
            reg.record("splitjoin.partition.occupancy_max", max);
            // Fixed-point (×1000) so the integer registry carries it.
            reg.record(
                "splitjoin.partition.balance_x1000",
                (ps.balance() * 1_000.0).round() as u64,
            );
        }
        if let Some(ks) = &self.kernel_stats {
            reg.record("splitjoin.kernel.tiles", ks.tiles);
            reg.record("splitjoin.kernel.lanes", ks.lanes);
            reg.record("splitjoin.kernel.match_density_x1000", ks.density_x1000());
            reg.record("splitjoin.kernel.scalar_fallbacks", ks.scalar_fallbacks);
        }
        reg
    }
}

/// Coordinator-side replica ring: the last `cap` tuples of one stream,
/// each tagged with the worker that owned its storage turn when it was
/// sent.
#[derive(Debug)]
struct ReplicaBuf {
    cap: usize,
    buf: VecDeque<(usize, Tuple)>,
}

impl ReplicaBuf {
    fn new(cap: usize) -> Self {
        Self { cap, buf: VecDeque::with_capacity(cap) }
    }

    fn push(&mut self, owner: usize, tuple: Tuple) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back((owner, tuple));
    }

    /// The last `limit` tuples owned by `worker`, oldest first — exactly
    /// the content of its sub-window ring at this moment.
    fn orphans_of(&self, worker: usize, limit: usize) -> Vec<Tuple> {
        let mut found: Vec<Tuple> = self
            .buf
            .iter()
            .rev()
            .filter(|&&(o, _)| o == worker)
            .take(limit)
            .map(|&(_, t)| t)
            .collect();
        found.reverse();
        found
    }
}

/// Router-side state of the keyed dispatch ([`Partitioning::Hash`]):
/// the frequency sketch, the hot-key set, the per-worker outboxes, and
/// the exact storage ledger that replaces broadcast's closed-form
/// round-robin accounting.
#[derive(Debug)]
struct PartRouter {
    /// Effective global window size — the count-based expiry horizon
    /// stamped into every dispatch entry's eviction watermark.
    window: u64,
    /// Misra–Gries heavy-hitter summary over routed keys.
    sketch: FreqSketch,
    /// Promoted keys → round-robin store cursor over the live workers.
    /// Promotion is sticky: data already spread never re-concentrates.
    hot: HashMap<u32, u64>,
    hot_factor: f64,
    min_sample: u64,
    /// Per-worker FIFO of stored R-stream sequence numbers, expired by
    /// the same watermark the workers use — exact live occupancy, and
    /// exact orphan counts when a worker dies.
    ledger_r: Vec<VecDeque<u64>>,
    /// As `ledger_r`, for the S stream.
    ledger_s: Vec<VecDeque<u64>>,
    /// Per-worker sub-batches being assembled for the current caller
    /// batch; flushed as one [`Msg::Part`] each.
    outbox: Vec<Vec<PartEntry>>,
    hot_splits: u64,
    routed: u64,
}

/// Router-side handles into the process-global live telemetry plane
/// (`obs::live`), created at spawn only when the plane was armed
/// (`obs::live::set_active(true)` *before* [`SplitJoin::spawn`]). Every
/// update is a relaxed atomic at per-batch granularity — an armed plane
/// costs a handful of stores per *batch*, an unarmed one a single
/// relaxed load at spawn.
#[derive(Debug)]
struct LiveRouter {
    /// `splitjoin.batches` — caller batches routed.
    batches: obs::live::SharedCounter,
    /// `splitjoin.tuples` — stream tuples routed through batches.
    tuples: obs::live::SharedCounter,
    /// `splitjoin.partition.routed` — keyed-dispatch tuples routed
    /// (stays 0 in broadcast mode).
    routed: obs::live::SharedCounter,
    /// `splitjoin.ring.occupancy` — queued messages on the lane most
    /// recently pushed to (ring transport; instantaneous, the sampler
    /// turns it into a trajectory).
    ring_occupancy: obs::live::SharedGauge,
    /// `splitjoin.arena.lag` — published sequence minus the slowest
    /// reader's release watermark while the router waits on arena reuse.
    arena_lag: obs::live::SharedGauge,
    /// `splitjoin.workers.live` — live positions in the partition map.
    workers_live: obs::live::SharedGauge,
    /// `fault.workers_lost` / `fault.orphaned_tuples` — degradation as
    /// it happens (the post-mortem `fault.*` registry only exists after
    /// shutdown).
    workers_lost: obs::live::SharedCounter,
    orphaned: obs::live::SharedCounter,
    /// `splitjoin.worker.<i>.heartbeat_age_ns` — nanoseconds since each
    /// live worker's last heartbeat, refreshed once per routed batch (and
    /// for the laggard while the router waits on the arena), so a
    /// stalling worker is scrape-visible long before the 10 s
    /// saturation deadline.
    heartbeat_age: Vec<obs::live::SharedGauge>,
}

impl LiveRouter {
    fn new(config: &SplitJoinConfig) -> Self {
        let reg = obs::live::global();
        let this = Self {
            batches: reg.counter("splitjoin.batches"),
            tuples: reg.counter("splitjoin.tuples"),
            routed: reg.counter("splitjoin.partition.routed"),
            ring_occupancy: reg.gauge("splitjoin.ring.occupancy"),
            arena_lag: reg.gauge("splitjoin.arena.lag"),
            workers_live: reg.gauge("splitjoin.workers.live"),
            workers_lost: reg.counter("fault.workers_lost"),
            orphaned: reg.counter("fault.orphaned_tuples"),
            heartbeat_age: (0..config.num_cores)
                .map(|i| reg.gauge(&format!("splitjoin.worker.{i}.heartbeat_age_ns")))
                .collect(),
        };
        this.workers_live.set(config.num_cores as u64);
        // Lane capacity is a constant of the run; exporting it lets
        // `obs::health` turn occupancy into a pressure fraction.
        reg.gauge("splitjoin.ring.capacity")
            .set(config.channel_capacity as u64);
        this
    }

    /// Per-batch router-side refresh: throughput counters plus the
    /// heartbeat-age gauge of every live worker (one clock read).
    fn on_batch(&self, len: usize, cells: &[Arc<WorkerCell>], live: &[usize]) {
        self.batches.incr();
        self.tuples.add(len as u64);
        let now = obs::trace::now_ns();
        for &w in live {
            if let Some(age) = cells[w].heartbeat_age_ns(now) {
                self.heartbeat_age[w].set(age);
            }
        }
    }

    /// A retired worker must stop alarming: its age gauge pins to zero
    /// and the loss shows up in `fault.workers_lost` instead.
    fn on_worker_lost(&self, worker: usize, orphans: u64, live_count: usize) {
        self.workers_lost.incr();
        self.orphaned.add(orphans);
        self.workers_live.set(live_count as u64);
        self.heartbeat_age[worker].set(0);
    }
}

/// Worker-side live handles (`splitjoin.worker.<i>.*`), updated once per
/// processed message from the worker thread itself. The deltas against
/// the last publication keep every exported counter monotone.
#[derive(Debug)]
struct LiveWorker {
    batches: obs::live::SharedCounter,
    tuples: obs::live::SharedCounter,
    matches: obs::live::SharedCounter,
    /// `splitjoin.matches` — pool-wide match total. Each match is found
    /// by exactly one worker, so the per-worker deltas sum exactly.
    matches_total: obs::live::SharedCounter,
    busy_ns: obs::live::SharedCounter,
    wait_ns: obs::live::SharedCounter,
    last_tuples: u64,
    last_matches: u64,
}

impl LiveWorker {
    fn new(position: usize) -> Self {
        let reg = obs::live::global();
        let name = |suffix: &str| format!("splitjoin.worker.{position}.{suffix}");
        Self {
            batches: reg.counter(&name("batches")),
            tuples: reg.counter(&name("tuples")),
            matches: reg.counter(&name("matches")),
            matches_total: reg.counter("splitjoin.matches"),
            busy_ns: reg.counter(&name("busy_ns")),
            wait_ns: reg.counter(&name("wait_ns")),
            last_tuples: 0,
            last_matches: 0,
        }
    }

    /// One processed message: service time plus stat deltas.
    fn after_msg(&mut self, stats: &WorkerStats, busy_start_ns: u64) {
        self.busy_ns
            .add(obs::trace::now_ns().saturating_sub(busy_start_ns));
        self.batches.incr();
        self.tuples.add(stats.tuples_seen - self.last_tuples);
        self.last_tuples = stats.tuples_seen;
        let dm = stats.matches - self.last_matches;
        self.last_matches = stats.matches;
        if dm > 0 {
            self.matches.add(dm);
            self.matches_total.add(dm);
        }
    }
}

/// The supervised distribution side: senders, supervision cells, the
/// live partition map, and the bookkeeping that makes loss accounting
/// exact.
#[derive(Debug)]
struct Router {
    /// Per-position distribution ring; `None` once the position is
    /// retired (the drop disconnects the link and frees queued messages
    /// once the worker's receiving side is gone too).
    senders: Vec<Option<RingProducer<Msg>>>,
    cells: Vec<Arc<WorkerCell>>,
    map: PartitionMap,
    plan: FaultPlan,
    sub_window: usize,
    batches_sent: u64,
    batch_hist: obs::Histogram,
    /// Tuples sent per stream (prefill included) — each healthy worker's
    /// local per-stream count equals these.
    r_sent: u64,
    s_sent: u64,
    /// Exact per-worker storage-turn counts `(R, S)`. `None` while the
    /// map is full (the closed form reproduces them on demand); kept
    /// incrementally once degraded.
    owned: Option<(Vec<u64>, Vec<u64>)>,
    /// Replica rings `(R, S)`, only with `replicate_on_loss`.
    replicas: Option<(ReplicaBuf, ReplicaBuf)>,
    report: FaultReport,
    /// `sw.router` span ring (`recover` spans); attached to the outcome
    /// trace only when non-empty, so healthy traced runs are unchanged.
    ring: Option<obs::trace::TraceRing>,
    /// Writer side of the shared batch arena; `None` in partitioned
    /// mode, which ships keyed sub-batches instead of broadcasts.
    arena: Option<ArenaWriter<(StreamTag, Tuple)>>,
    /// Ring occupancy / claim-wait telemetry.
    ring_stats: RingStats,
    /// Flush tokens issued so far (see [`Msg::Flush`]).
    flush_seq: u64,
    /// Keyed-dispatch state; `None` in broadcast mode.
    part: Option<PartRouter>,
    /// Live-telemetry handles; `None` unless the plane was armed at
    /// spawn ([`obs::live::set_active`]).
    live: Option<LiveRouter>,
}

impl Router {
    /// Sends one message down worker `w`'s ring under supervision,
    /// recording ring telemetry on the way. A retired position reports
    /// [`SendStatus::Lost`].
    fn send_msg(&mut self, w: usize, msg: Msg) -> Result<SendStatus, JoinError> {
        // Split borrows: the ring is &mut while cells/stats are read.
        let Router { senders, cells, ring_stats, live, .. } = self;
        let Some(prod) = senders[w].as_mut() else { return Ok(SendStatus::Lost) };
        let depth = prod.len() as u64;
        ring_stats.occupancy.record_value(depth);
        ring_stats.peak_occupancy.max(depth);
        if let Some(lv) = live.as_ref() {
            lv.ring_occupancy.set(depth);
        }
        let (status, waited_ns) = supervised_push(prod, &cells[w], w, msg)?;
        if waited_ns > 0 {
            ring_stats.claim_wait_ns.record_value(waited_ns);
        }
        Ok(status)
    }

    /// [`Router::send_msg`] to every live worker that still has a ring,
    /// returning the positions found dead on the way.
    fn send_to_live(&mut self, make: impl Fn() -> Msg) -> Result<Vec<usize>, JoinError> {
        let mut lost = Vec::new();
        for w in self.map.live().to_vec() {
            if self.senders[w].is_none() {
                continue;
            }
            if let SendStatus::Lost = self.send_msg(w, make())? {
                lost.push(w);
            }
        }
        Ok(lost)
    }

    /// Fails with [`JoinError::AllWorkersLost`] once no position is live.
    fn require_live(&self) -> Result<(), JoinError> {
        if self.map.live_count() == 0 {
            return Err(JoinError::AllWorkersLost);
        }
        Ok(())
    }

    /// Publishes one batch into the shared arena, waiting (supervised)
    /// for slot reuse when the slowest reader is behind: a laggard that
    /// keeps beating is back-pressure and waits forever; a frozen
    /// laggard holding the arena full for the whole deadline is
    /// [`JoinError::Saturated`].
    fn publish_to_arena(&mut self, batch: &[(StreamTag, Tuple)]) -> Result<u64, JoinError> {
        let mut sup = SendSupervisor::new();
        let mut spins = 0u32;
        let mut wait_started: Option<Instant> = None;
        loop {
            let arena = self.arena.as_mut().expect("broadcast mode has an arena");
            match arena.try_publish(batch) {
                Ok(seq) => {
                    if let Some(t0) = wait_started {
                        self.ring_stats
                            .claim_wait_ns
                            .record_value(t0.elapsed().as_nanos().max(1) as u64);
                    }
                    return Ok(seq);
                }
                Err(ring::ArenaFull) => {
                    wait_started.get_or_insert_with(Instant::now);
                    // No active readers left: deactivation freed every
                    // slot, so the retry succeeds (or AllWorkersLost
                    // surfaces at the caller's live-count check).
                    let Some(laggard) = arena.laggard() else { continue };
                    if self.cells[laggard].is_dead() {
                        // The slot hog died — recover it (which also
                        // deactivates its arena reader) and retry.
                        self.reap_dead()?;
                        self.require_live()?;
                        continue;
                    }
                    if spins < CLAIM_SPIN_YIELDS {
                        spins += 1;
                        std::thread::yield_now();
                    } else {
                        // Slow path only: export how far behind the
                        // slowest reader is and refresh its heartbeat
                        // age, so an armed scrape shows *which* worker
                        // is holding the arena and for how long.
                        if let Some(lv) = self.live.as_ref() {
                            let (seq, min) = {
                                let a = self.arena.as_ref().expect("broadcast mode has an arena");
                                (a.seq(), a.min_released())
                            };
                            lv.arena_lag.set(seq.saturating_sub(min));
                            let now = obs::trace::now_ns();
                            if let Some(age) = self.cells[laggard].heartbeat_age_ns(now) {
                                lv.heartbeat_age[laggard].set(age);
                            }
                        }
                        let beat = self.cells[laggard].heartbeat.load(Ordering::Relaxed);
                        let wait = sup.next_wait(Instant::now(), laggard, beat)?;
                        std::thread::sleep(wait);
                    }
                }
            }
        }
    }

    /// Per-stream accounting for an outgoing batch. Healthy fast path:
    /// one tag-count pass. Degraded or replicating: per-tuple ownership
    /// tracking.
    fn note_batch(&mut self, batch: &[(StreamTag, Tuple)]) {
        if self.owned.is_some() || self.replicas.is_some() {
            for &(tag, tuple) in batch {
                self.note_tuple(tag, tuple);
            }
        } else {
            let r = batch.iter().filter(|&&(tag, _)| tag == StreamTag::R).count() as u64;
            self.r_sent += r;
            self.s_sent += batch.len() as u64 - r;
        }
    }

    fn note_prefill(&mut self, tag: StreamTag, tuples: &[Tuple]) {
        if self.owned.is_some() || self.replicas.is_some() {
            for &t in tuples {
                self.note_tuple(tag, t);
            }
        } else {
            match tag {
                StreamTag::R => self.r_sent += tuples.len() as u64,
                StreamTag::S => self.s_sent += tuples.len() as u64,
            }
        }
    }

    fn note_tuple(&mut self, tag: StreamTag, tuple: Tuple) {
        let seq = match tag {
            StreamTag::R => self.r_sent,
            StreamTag::S => self.s_sent,
        };
        let owner = self.map.owner(seq);
        if let Some((owned_r, owned_s)) = &mut self.owned {
            match tag {
                StreamTag::R => owned_r[owner] += 1,
                StreamTag::S => owned_s[owner] += 1,
            }
        }
        if let Some((rep_r, rep_s)) = &mut self.replicas {
            match tag {
                StreamTag::R => rep_r.push(owner, tuple),
                StreamTag::S => rep_s.push(owner, tuple),
            }
        }
        match tag {
            StreamTag::R => self.r_sent += 1,
            StreamTag::S => self.s_sent += 1,
        }
    }

    /// Sends `make()` to every live worker; workers found dead are
    /// recovered and the broadcast continues over the survivors.
    fn broadcast(&mut self, make: impl Fn() -> Msg) -> Result<(), JoinError> {
        let lost = self.send_to_live(make)?;
        self.recover_all(lost)?;
        self.require_live()
    }

    /// Routes one tuple under keyed dispatch: stamp its global stream
    /// coordinates, feed the sketch (promoting the key if it crossed
    /// the hot threshold), expire the ledgers, then append dispatch
    /// entries to the owner's outbox — or, for a hot key, a probe entry
    /// to every live worker with the store turn rotating round-robin.
    fn route_tuple(&mut self, tag: StreamTag, tuple: Tuple, probe: bool) {
        let key = tuple.key();
        let (seq, opp) = match tag {
            StreamTag::R => (self.r_sent, self.s_sent),
            StreamTag::S => (self.s_sent, self.r_sent),
        };
        match tag {
            StreamTag::R => self.r_sent += 1,
            StreamTag::S => self.s_sent += 1,
        }
        let live_count = self.map.live_count();
        let part = self.part.as_mut().expect("route_tuple is partitioned-mode only");
        part.sketch.observe(key);
        // Promote once the key's sketched share reaches `hot_factor`
        // fair shares of the routed traffic. Splitting on a single
        // worker would be a no-op, so wait for company.
        if live_count > 1
            && !part.hot.contains_key(&key)
            && part.sketch.total() >= part.min_sample
            && part.sketch.estimate(key) as f64 * live_count as f64
                >= part.hot_factor * part.sketch.total() as f64
        {
            part.hot.insert(key, 0);
            part.hot_splits += 1;
        }
        // Expire this stream's ledgers by the same watermark the
        // workers evict with, so occupancy and orphan counts stay
        // exact. Amortized O(1): each stored seq is popped once.
        {
            let min_live = (seq + 1).saturating_sub(part.window);
            let ledger = match tag {
                StreamTag::R => &mut part.ledger_r,
                StreamTag::S => &mut part.ledger_s,
            };
            for stored in ledger.iter_mut() {
                while stored.front().is_some_and(|&s| s < min_live) {
                    stored.pop_front();
                }
            }
        }
        let store_at = if part.hot.contains_key(&key) {
            let live = self.map.live();
            let rr = part.hot.get_mut(&key).expect("just checked");
            let store_at = live[(*rr % live.len() as u64) as usize];
            *rr += 1;
            for &w in live {
                // Probe everywhere (any worker may hold this key's
                // spread-out opposite data); store on the rr turn.
                part.outbox[w].push(PartEntry {
                    tag,
                    tuple,
                    seq,
                    opp,
                    store: w == store_at,
                    probe,
                });
            }
            part.routed += live.len() as u64;
            store_at
        } else {
            let w = self.map.key_owner(key);
            part.outbox[w].push(PartEntry { tag, tuple, seq, opp, store: true, probe });
            part.routed += 1;
            w
        };
        match tag {
            StreamTag::R => part.ledger_r[store_at].push_back(seq),
            StreamTag::S => part.ledger_s[store_at].push_back(seq),
        }
    }

    /// Ships every non-empty per-worker sub-batch as one [`Msg::Part`].
    /// A worker found dead mid-send is recovered and its sub-batch dies
    /// with it: the ledger already counts those tuples as stored there,
    /// so the loss surfaces as exact orphan accounting, and the dead
    /// position's keys re-home to survivors from the next tuple on
    /// (rendezvous hashing moves only its keys).
    fn flush_outboxes(&mut self) -> Result<(), JoinError> {
        let n = self.senders.len();
        let mut lost = Vec::new();
        for w in 0..n {
            let entries = {
                let part = self.part.as_mut().expect("partitioned mode");
                if part.outbox[w].is_empty() {
                    continue;
                }
                std::mem::take(&mut part.outbox[w])
            };
            if self.senders[w].is_none() {
                continue;
            }
            let shared: Arc<[PartEntry]> = entries.into();
            if let SendStatus::Lost = self.send_msg(w, Msg::Part(shared))? {
                lost.push(w);
            }
        }
        self.recover_all(lost)?;
        self.require_live()
    }

    /// Ships one caller batch. Broadcast mode: one arena publish, N
    /// sequence numbers (zero-copy). Partitioned mode: route every tuple,
    /// then flush at most one keyed sub-batch per worker.
    fn send_batch(&mut self, batch: &[(StreamTag, Tuple)]) -> Result<(), JoinError> {
        if batch.is_empty() {
            return Ok(());
        }
        self.require_live()?;
        self.batch_hist.record_value(batch.len() as u64);
        self.batches_sent += 1;
        if let Some(lv) = self.live.as_ref() {
            lv.on_batch(batch.len(), &self.cells, self.map.live());
            if self.part.is_some() {
                lv.routed.add(batch.len() as u64);
            }
        }
        if self.part.is_some() {
            for &(tag, tuple) in batch {
                self.route_tuple(tag, tuple, true);
            }
            self.flush_outboxes()?;
        } else {
            self.note_batch(batch);
            let seq = self.publish_to_arena(batch)?;
            self.broadcast(|| Msg::ArenaBatch { seq })?;
        }
        // Proactive recovery at the scripted kill boundary: the victim
        // processes this batch and no more (its ring closes here, it
        // drains what was already queued and exits), so the ownership
        // model — closed-form shares or the keyed ledger — is exactly its
        // occupancy at death.
        let kills: Vec<usize> = self.plan.kills_after(self.batches_sent).collect();
        if !kills.is_empty() {
            self.recover_all(kills)?;
            self.require_live()?;
        }
        Ok(())
    }

    fn send_prefill(&mut self, tag: StreamTag, tuples: &[Tuple]) -> Result<(), JoinError> {
        if tuples.is_empty() {
            return Ok(());
        }
        self.require_live()?;
        if self.part.is_some() {
            // Same keyed routing path, probing disabled — prefill still
            // advances the stream counters and the sketch.
            for &t in tuples {
                self.route_tuple(tag, t, false);
            }
            return self.flush_outboxes();
        }
        self.note_prefill(tag, tuples);
        let shared: Arc<[Tuple]> = tuples.to_vec().into();
        self.broadcast(|| Msg::Prefill(tag, shared.clone()))
    }

    fn recover_all(&mut self, mut pending: Vec<usize>) -> Result<(), JoinError> {
        while let Some(w) = pending.pop() {
            pending.extend(self.recover_one(w)?);
        }
        Ok(())
    }

    /// Retires one dead worker — exact orphan accounting plus the
    /// mode's own repair — and times the whole recovery. Returns any
    /// further workers discovered dead while notifying the survivors.
    fn recover_one(&mut self, worker: usize) -> Result<Vec<usize>, JoinError> {
        if !self.map.is_live(worker) {
            return Ok(Vec::new());
        }
        let t0 = Instant::now();
        let span_start = obs::trace::now_ns();
        let lost = if self.part.is_some() {
            self.retire_part(worker);
            Vec::new()
        } else {
            self.retire_broadcast(worker)?
        };
        self.report
            .recovery_ns
            .record_value(t0.elapsed().as_nanos().max(1) as u64);
        if let Some(r) = self.ring.as_mut() {
            let now = obs::trace::now_ns();
            r.record_arg("recover", span_start, now.saturating_sub(span_start), worker as u64);
        }
        Ok(lost)
    }

    /// The bookkeeping every retirement shares: drop the position from
    /// the map, close its ring, and report the loss.
    fn retire_position(&mut self, worker: usize, orphans: u64) {
        self.map.retire(worker);
        self.senders[worker] = None;
        self.report.workers_lost.push(worker);
        self.report.orphaned_tuples += orphans;
        if let Some(lv) = self.live.as_ref() {
            lv.on_worker_lost(worker, orphans, self.map.live_count());
        }
    }

    /// Broadcast-mode recovery: closed-form orphan count, partition-map
    /// broadcast so survivors re-partition future storage turns at the
    /// same message boundary, optional re-replication.
    fn retire_broadcast(&mut self, worker: usize) -> Result<Vec<usize>, JoinError> {
        let sub = self.sub_window as u64;
        // Materialize exact per-worker turn counts before mutating the
        // map: while it is still full the closed form reproduces them
        // from the two stream counters alone.
        if self.owned.is_none() {
            let n = self.map.total();
            let owned_r = (0..n).map(|w| round_robin_share(&self.map, w, self.r_sent)).collect();
            let owned_s = (0..n).map(|w| round_robin_share(&self.map, w, self.s_sent)).collect();
            self.owned = Some((owned_r, owned_s));
        }
        let (owned_r, owned_s) = self.owned.as_ref().expect("just materialized");
        let orphans = owned_r[worker].min(sub) + owned_s[worker].min(sub);
        self.retire_position(worker, orphans);
        self.retire_reader(worker)?;
        if self.map.live_count() == 0 {
            return Ok(Vec::new());
        }

        let shared = Arc::new(self.map.clone());
        let mut lost = self.send_to_live(|| Msg::Reconfigure(Arc::clone(&shared)))?;
        let adoptable = self.replicas.as_ref().map(|(rep_r, rep_s)| {
            (
                rep_r.orphans_of(worker, sub as usize),
                rep_s.orphans_of(worker, sub as usize),
            )
        });
        if let Some((adopt_r, adopt_s)) = adoptable {
            for (tag, adoptees) in [(StreamTag::R, adopt_r), (StreamTag::S, adopt_s)] {
                if adoptees.is_empty() {
                    continue;
                }
                self.report.readopted_tuples += adoptees.len() as u64;
                let live = self.map.live().to_vec();
                let mut per_worker: Vec<Vec<Tuple>> = vec![Vec::new(); live.len()];
                for (i, t) in adoptees.into_iter().enumerate() {
                    per_worker[i % live.len()].push(t);
                }
                for (slot, tuples) in per_worker.into_iter().enumerate() {
                    let w = live[slot];
                    if tuples.is_empty() || lost.contains(&w) || self.senders[w].is_none() {
                        continue;
                    }
                    let shared: Arc<[Tuple]> = tuples.into();
                    if let SendStatus::Lost = self.send_msg(w, Msg::Adopt(tag, shared))? {
                        lost.push(w);
                    }
                }
            }
        }
        Ok(lost)
    }

    /// Partitioned-mode recovery: retire the position and count its
    /// ledger occupancy as orphans. No partition-map broadcast is
    /// needed — partitioned workers are ownership-free (they store what
    /// the router stamps `store` on), future keys re-home through
    /// rendezvous hashing the moment the map retires the position, and
    /// replication is rejected at spawn. No arena reader to retire
    /// either: partitioned mode never creates the arena.
    fn retire_part(&mut self, worker: usize) {
        let part = self.part.as_mut().expect("partitioned mode");
        let orphans = (part.ledger_r[worker].len() + part.ledger_s[worker].len()) as u64;
        part.ledger_r[worker].clear();
        part.ledger_s[worker].clear();
        part.outbox[worker].clear();
        self.retire_position(worker, orphans);
    }

    /// Drops a retired worker from the arena's reuse watermark. The arena contract requires that the reader never
    /// reads again, so this waits — bounded by the supervision deadline
    /// — for the worker thread to actually exit (its `AliveGuard` flips
    /// the cell dead on the way out, scripted kills and panics alike);
    /// a scripted-kill victim may still be probing its final arena
    /// batch when the router recovers it proactively.
    fn retire_reader(&mut self, worker: usize) -> Result<(), JoinError> {
        let t0 = Instant::now();
        let mut spins = 0u32;
        while !self.cells[worker].is_dead() {
            if t0.elapsed() >= SATURATION_DEADLINE {
                return Err(JoinError::Saturated {
                    worker,
                    waited_ms: t0.elapsed().as_millis() as u64,
                });
            }
            if spins < 1_024 {
                spins += 1;
                std::thread::yield_now();
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        self.arena
            .as_mut()
            .expect("broadcast mode has an arena")
            .deactivate(worker);
        Ok(())
    }

    /// Recovers any live-mapped worker whose cell reports it dead
    /// (reactive detection: scripted panics and organic deaths).
    fn reap_dead(&mut self) -> Result<(), JoinError> {
        let dead: Vec<usize> = self
            .map
            .live()
            .iter()
            .copied()
            .filter(|&w| self.cells[w].is_dead())
            .collect();
        self.recover_all(dead)
    }

    /// Flush barrier over the survivors: every live worker gets a
    /// [`Msg::Flush`] token, publishes it to its cell
    /// ([`WorkerCell::flushed`]) once it has drained its result buffer,
    /// and the router polls the cells — no reverse link needed. A worker
    /// that dies mid-flush simply never acknowledges: recovering it
    /// retires its position, and the barrier covers the survivors
    /// instead of deadlocking.
    fn flush(&mut self) -> Result<(), JoinError> {
        self.require_live()?;
        self.flush_seq += 1;
        let token = self.flush_seq;
        let lost = self.send_to_live(|| Msg::Flush(token))?;
        self.recover_all(lost)?;
        let mut waiting = self.map.live().to_vec();
        let mut spins = 0u32;
        loop {
            // Acquire pairs with the worker's Release store: once we see
            // the token, everything the worker did before acknowledging
            // (probes, stores, result sends) is visible.
            waiting.retain(|&w| {
                self.map.is_live(w) && self.cells[w].flushed.load(Ordering::Acquire) < token
            });
            if waiting.is_empty() {
                break;
            }
            if waiting.iter().any(|&w| self.cells[w].is_dead()) {
                self.reap_dead()?;
                continue;
            }
            if spins < 1_024 {
                spins += 1;
                std::thread::yield_now();
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        self.require_live()
    }
}

/// What each worker thread leaves behind at exit.
type WorkerExit = (WorkerStats, KernelStats, Option<obs::trace::TraceRing>);

/// A running SplitJoin: N join-core threads plus (when collecting) a
/// collector thread.
///
/// See the [crate-level example](crate) for basic usage.
#[derive(Debug)]
pub struct SplitJoin {
    router: RefCell<Router>,
    workers: Vec<JoinHandle<WorkerExit>>,
    collector: Option<JoinHandle<()>>,
    /// Shared deposit point the collector thread feeds and
    /// [`SplitJoin::drain_results`] harvests; `None` when counting-only.
    sink: Option<Arc<crate::collect::ResultSink>>,
    batch_size: usize,
    /// Caller-side distribution buffer; drained on flush/shutdown so a
    /// partial batch is never lost.
    pending: RefCell<Vec<(StreamTag, Tuple)>>,
}

impl SplitJoin {
    /// Spawns the worker (and, unless counting-only, collector) threads.
    ///
    /// # Panics
    ///
    /// Panics if `config.channel_capacity` or `config.batch_size` is
    /// zero, or the fault plan targets a worker out of range (the
    /// builder methods reject these, but the fields are public).
    pub fn spawn(config: SplitJoinConfig) -> Self {
        config.common.validate();
        let partitioned = config.partitioning == Partitioning::Hash;
        if partitioned {
            // Checked here rather than in `JoinConfig::validate` so a
            // process-wide `ACCEL_SW_PARTITIONING=hash` override does
            // not panic engines that ignore the knob (the handshake
            // chain validates the same shared config).
            assert!(
                config.predicate == JoinPredicate::Equi,
                "hash partitioning requires an equi-join predicate"
            );
            assert!(
                !config.replicate_on_loss,
                "replication is not supported with hash partitioning: orphan \
                 re-adoption would need out-of-order shard inserts; use broadcast mode"
            );
            assert!(config.hot_key_factor > 0.0, "hot-key factor must be positive");
        }

        // Result path: one dedicated SPSC ring per worker, drained by the
        // collector thread.
        let mut collector = None;
        let mut sink = None;
        let mut result_rings: Vec<RingProducer<MatchPair>> = Vec::new();
        if config.collect_results {
            let shared = Arc::new(crate::collect::ResultSink::default());
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..config.num_cores)
                .map(|_| ring::spsc::<MatchPair>(RESULT_RING_CAPACITY))
                .unzip();
            result_rings = txs;
            let dst = Arc::clone(&shared);
            collector = Some(std::thread::spawn(move || collector_thread(rxs, &dst)));
            sink = Some(shared);
        }
        let mut result_rings = result_rings.into_iter();

        // Distribution path. The arena holds `channel_capacity + 2`
        // batch slots: every batch a worker can have queued, plus the
        // one it is probing, plus the one being published — so arena
        // reuse only ever waits when a ring is itself saturated.
        // Partitioned mode ships per-worker keyed sub-batches, not
        // broadcasts — the shared arena would be pure overhead, so it is
        // never created and recovery never retires readers.
        let (arena, readers) = if partitioned {
            (None, Vec::new())
        } else {
            let (writer, readers) = ring::batch_arena::<(StreamTag, Tuple)>(
                config.channel_capacity + 2,
                config.num_cores,
            );
            (Some(writer), readers)
        };
        let mut readers = readers.into_iter();

        let mut senders = Vec::with_capacity(config.num_cores);
        let mut cells = Vec::with_capacity(config.num_cores);
        let mut workers = Vec::with_capacity(config.num_cores);
        for position in 0..config.num_cores {
            let cell = Arc::new(WorkerCell::default());
            cells.push(Arc::clone(&cell));
            let (tx, msgs) = ring::spsc::<Msg>(config.channel_capacity);
            senders.push(Some(tx));
            let arena = readers.next();
            let results = result_rings.next();
            let cfg = config.clone();
            let live = obs::live::active().then(|| LiveWorker::new(position));
            workers.push(std::thread::spawn(move || {
                worker_loop(position, &cfg, msgs, arena, results, &cell, live)
            }));
        }
        let replicas = config.replicate_on_loss.then(|| {
            let cap = config.effective_window();
            (ReplicaBuf::new(cap), ReplicaBuf::new(cap))
        });
        let ring = obs::trace::enabled().then(|| {
            obs::trace::TraceRing::new("sw.router".to_string(), obs::trace::TimeDomain::Wall)
        });
        let part = partitioned.then(|| PartRouter {
            window: config.effective_window() as u64,
            sketch: FreqSketch::new(SKETCH_CAPACITY),
            hot: HashMap::new(),
            hot_factor: config.hot_key_factor,
            min_sample: config.hot_min_sample,
            ledger_r: vec![VecDeque::new(); config.num_cores],
            ledger_s: vec![VecDeque::new(); config.num_cores],
            outbox: vec![Vec::new(); config.num_cores],
            hot_splits: 0,
            routed: 0,
        });
        Self {
            router: RefCell::new(Router {
                senders,
                cells,
                map: PartitionMap::identity(config.num_cores),
                plan: config.fault_plan.clone(),
                sub_window: config.sub_window(),
                batches_sent: 0,
                batch_hist: obs::Histogram::new(),
                r_sent: 0,
                s_sent: 0,
                owned: None,
                replicas,
                report: FaultReport::default(),
                ring,
                arena,
                ring_stats: RingStats::default(),
                flush_seq: 0,
                part,
                live: obs::live::active().then(|| LiveRouter::new(&config)),
            }),
            workers,
            collector,
            sink,
            batch_size: config.batch_size,
            pending: RefCell::new(Vec::with_capacity(config.batch_size)),
        }
    }

    /// Submits one tuple to the distribution network. The tuple is
    /// buffered; every `batch_size` tuples, one batch message is
    /// broadcast to all live join cores. Blocks (with supervision) when
    /// worker queues are full — natural back-pressure.
    ///
    /// # Errors
    ///
    /// [`JoinError::AllWorkersLost`] when no live worker remains;
    /// [`JoinError::Saturated`] when a worker's ring stays full with a
    /// frozen heartbeat past the supervision deadline. Losing *some*
    /// workers is not an error — the router re-partitions over the
    /// survivors and reports the damage in [`JoinOutcome::fault`].
    pub fn process(&self, tag: StreamTag, tuple: Tuple) -> Result<(), JoinError> {
        let mut pending = self.pending.borrow_mut();
        pending.push((tag, tuple));
        if pending.len() >= self.batch_size {
            let result = self.router.borrow_mut().send_batch(&pending);
            pending.clear();
            return result;
        }
        Ok(())
    }

    /// Broadcasts a pre-assembled batch as a single message per worker
    /// (after draining any partial [`SplitJoin::process`] buffer, so
    /// submission order is preserved).
    ///
    /// # Errors
    ///
    /// See [`SplitJoin::process`].
    pub fn process_batch(&self, batch: &[(StreamTag, Tuple)]) -> Result<(), JoinError> {
        self.drain_pending()?;
        self.router.borrow_mut().send_batch(batch)
    }

    fn drain_pending(&self) -> Result<(), JoinError> {
        let mut pending = self.pending.borrow_mut();
        if pending.is_empty() {
            return Ok(());
        }
        let result = self.router.borrow_mut().send_batch(&pending);
        pending.clear();
        result
    }

    /// Number of batch messages broadcast so far (per worker).
    pub fn batches_sent(&self) -> u64 {
        self.router.borrow().batches_sent
    }

    /// Loads `tuples` directly into the sliding windows without probing —
    /// measurement setup, mirroring the hardware pre-fill path. Drains
    /// the pending batch first so earlier `process` calls stay ordered.
    ///
    /// # Errors
    ///
    /// See [`SplitJoin::process`].
    pub fn prefill(&self, tag: StreamTag, tuples: &[Tuple]) -> Result<(), JoinError> {
        self.drain_pending()?;
        self.router.borrow_mut().send_prefill(tag, tuples)
    }

    /// Blocks until every live worker has drained its queue and processed
    /// everything submitted before this call (including the partial
    /// batch, which is flushed first), and has handed any buffered
    /// results to the collector.
    ///
    /// # Errors
    ///
    /// See [`SplitJoin::process`]. A worker dying *during* the flush is
    /// recovered, not an error: the barrier then covers the survivors.
    pub fn flush(&self) -> Result<(), JoinError> {
        self.drain_pending()?;
        self.router.borrow_mut().flush()
    }

    /// Flushes, then removes and returns every match produced so far
    /// and not yet drained — see
    /// [`StreamJoin::drain_results`](crate::streamjoin::StreamJoin::drain_results).
    /// Counting-only runs return an empty vector.
    ///
    /// # Errors
    ///
    /// See [`SplitJoin::flush`]; additionally
    /// [`JoinError::DrainStalled`] if the collector fails to catch up
    /// with the workers' successful result handoffs.
    pub fn drain_results(&self) -> Result<Vec<MatchPair>, JoinError> {
        self.flush()?;
        let Some(sink) = &self.sink else { return Ok(Vec::new()) };
        // The flush barrier guarantees every live worker has handed its
        // buffered results to its ring; killed workers already accounted
        // their unflushed buffers as `results_dropped`, never as sent.
        // So the summed successful handoffs are exactly what must reach
        // the sink.
        let sent: u64 = {
            let router = self.router.borrow();
            router
                .cells
                .iter()
                .map(|c| c.results_sent.load(Ordering::Acquire))
                .sum()
        };
        sink.await_received(sent)?;
        Ok(sink.take())
    }

    /// Stops all threads and returns the accumulated outcome. Any
    /// buffered partial batch is drained first — workers never observe
    /// their ring close with submitted-but-unsent tuples outstanding, so an
    /// explicit [`SplitJoin::flush`] before shutdown is not required for
    /// completeness.
    ///
    /// # Errors
    ///
    /// [`JoinError::WorkerPanicked`] if a worker thread panicked (with
    /// its last published statistics snapshot — the stats the
    /// pre-fault-model shutdown used to lose by re-panicking);
    /// [`JoinError::CollectorPanicked`] if the collector died. Workers
    /// lost to *scripted kills* exit cleanly and do not error: their
    /// damage is in [`JoinOutcome::fault`].
    pub fn shutdown(self) -> Result<JoinOutcome, JoinError> {
        // Best-effort drain: during shutdown a failed drain (e.g. every
        // worker already dead) degrades to dropping the buffered batch,
        // which the fault report already accounts as worker loss.
        let _ = self.drain_pending();
        let mut router = self.router.into_inner();
        // Best effort: a full ring skips the Stop, and the producer drop
        // below closes the ring — the worker drains what is queued and
        // exits on disconnect, which is the same exit path.
        for prod in router.senders.iter_mut().flatten() {
            let _ = prod.try_push(Msg::Stop);
        }
        router.senders.clear();
        let mut worker_stats = Vec::with_capacity(self.workers.len());
        let mut trace = Vec::new();
        let mut panicked: Option<usize> = None;
        let mut kernel_stats = KernelStats::default();
        for (i, w) in self.workers.into_iter().enumerate() {
            match w.join() {
                Ok((stats, kstats, ring)) => {
                    worker_stats.push(stats);
                    kernel_stats.merge(&kstats);
                    trace.extend(ring);
                }
                Err(_) => {
                    if panicked.is_none() {
                        panicked = Some(i);
                    }
                    worker_stats.push(router.cells[i].snapshot());
                }
            }
        }
        let collected = self.collector.map(|c| c.join());
        for cell in &router.cells {
            router.report.injected_stalls += cell.stalls.load(Ordering::Relaxed);
            router.report.injected_drops += cell.drops.load(Ordering::Relaxed);
            router.report.results_dropped += cell.results_dropped.load(Ordering::Relaxed);
        }
        if let Some(worker) = panicked {
            return Err(JoinError::WorkerPanicked {
                worker,
                stats_so_far: router.cells[worker].snapshot(),
            });
        }
        let (results, result_count) = match (collected, self.sink) {
            (Some(Ok(())), Some(sink)) => {
                // `results` holds only what no mid-run drain harvested;
                // the sink's running total is every match ever
                // collected, so the count survives draining.
                let count = sink.received();
                (sink.take(), count)
            }
            (Some(Err(_)), _) => return Err(JoinError::CollectorPanicked),
            // Counting-only: fold the per-worker match counters.
            _ => (Vec::new(), worker_stats.iter().map(|w| w.matches).sum()),
        };
        if let Some(ring) = router.ring.take() {
            if !ring.is_empty() {
                trace.push(ring);
            }
        }
        let partition_stats = router.part.take().map(|part| PartitionStats {
            occupancy: part
                .ledger_r
                .iter()
                .zip(&part.ledger_s)
                .map(|(r, s)| (r.len() + s.len()) as u64)
                .collect(),
            live: router.map.live().to_vec(),
            hot_splits: part.hot_splits,
            routed: part.routed,
        });
        Ok(JoinOutcome {
            results,
            result_count,
            worker_stats,
            batch_sizes: router.batch_hist,
            trace,
            fault: router.report,
            ring_stats: Some(router.ring_stats),
            partition_stats,
            kernel_stats: Some(kernel_stats),
        })
    }
}

impl crate::streamjoin::StreamJoin for SplitJoin {
    type Config = SplitJoinConfig;
    type Outcome = JoinOutcome;

    fn spawn(config: SplitJoinConfig) -> Self {
        SplitJoin::spawn(config)
    }
    fn process(&self, tag: StreamTag, tuple: Tuple) -> Result<(), JoinError> {
        SplitJoin::process(self, tag, tuple)
    }
    fn process_batch(&self, batch: &[(StreamTag, Tuple)]) -> Result<(), JoinError> {
        SplitJoin::process_batch(self, batch)
    }
    fn prefill(&self, tag: StreamTag, tuples: &[Tuple]) -> Result<(), JoinError> {
        SplitJoin::prefill(self, tag, tuples)
    }
    fn flush(&self) -> Result<(), JoinError> {
        SplitJoin::flush(self)
    }
    fn drain_results(&self) -> Result<Vec<MatchPair>, JoinError> {
        SplitJoin::drain_results(self)
    }
    fn shutdown(self) -> Result<JoinOutcome, JoinError> {
        SplitJoin::shutdown(self)
    }
}

impl crate::streamjoin::JoinSummary for JoinOutcome {
    fn result_count(&self) -> u64 {
        self.result_count
    }
    fn results(&self) -> &[MatchPair] {
        &self.results
    }
    fn batch_sizes(&self) -> &obs::Histogram {
        &self.batch_sizes
    }
    fn trace(&self) -> &[obs::trace::TraceRing] {
        &self.trace
    }
    fn fault(&self) -> &FaultReport {
        &self.fault
    }
}

/// Result gathering: drains every worker's SPSC result ring round-robin
/// until all of them disconnect (their producers drop when the workers
/// exit). Each sweep's harvest is deposited into the shared sink as one
/// chunk, so a concurrent drain sees results land in batches, not one
/// at a time.
fn collector_thread(mut rxs: Vec<RingConsumer<MatchPair>>, sink: &crate::collect::ResultSink) {
    let mut scratch = Vec::new();
    let mut spins = 0u32;
    loop {
        let mut drained = 0usize;
        let mut open = false;
        for rx in &mut rxs {
            match rx.pop_batch(&mut scratch, usize::MAX) {
                Ok(n) => {
                    drained += n;
                    open = true;
                }
                Err(PopError::Empty) => open = true,
                Err(PopError::Disconnected) => {}
            }
        }
        if drained > 0 {
            sink.deposit(std::mem::take(&mut scratch));
        }
        if !open {
            return;
        }
        if drained == 0 {
            if spins < 256 {
                spins += 1;
                std::thread::yield_now();
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        } else {
            spins = 0;
        }
    }
}

/// Worker-local sub-window storage, specialized per algorithm. Both
/// variants are flat ring buffers (see `streamcore::window`).
#[derive(Debug, Clone)]
enum SwWindow {
    Nested(FlatWindow),
    Hash(HashIndexWindow),
}

impl SwWindow {
    fn new(algorithm: SwJoinAlgorithm, capacity: usize) -> Self {
        match algorithm {
            SwJoinAlgorithm::NestedLoop => SwWindow::Nested(FlatWindow::new(capacity)),
            SwJoinAlgorithm::Hash => SwWindow::Hash(HashIndexWindow::new(capacity)),
        }
    }

    fn insert(&mut self, tuple: Tuple) {
        match self {
            SwWindow::Nested(w) => {
                w.insert(tuple);
            }
            SwWindow::Hash(w) => {
                w.insert(tuple);
            }
        }
    }
}

/// Worker-side state of the keyed dispatch: one key-sharded window per
/// stream, evicted by the router-stamped global sequence watermarks
/// (never local counts — that is what keeps the shard union exactly
/// equal to the broadcast window at every probe).
struct PartState {
    window_r: PartitionedWindow,
    window_s: PartitionedWindow,
    /// Effective global window size.
    horizon: u64,
}

/// One probe of the blocked batch path: the tuple plus the index spans
/// describing exactly which stored tuples were visible to it at its
/// position in the batch (the windows themselves are only mutated after
/// the whole batch is probed).
#[derive(Debug, Clone, Copy)]
struct BlockedProbe {
    tuple: Tuple,
    /// Opposite-side intra-batch stores made before this probe ran.
    j: u32,
    /// First snapshot index still in the ring when this probe ran
    /// (earlier entries were overwritten by intra-batch stores).
    sn_start: u32,
    /// First intra-batch store still in the ring when this probe ran.
    new_lo: u32,
}

/// Reused per-batch buffers of the blocked path. Arrays are indexed by
/// window side (`0` = R, `1` = S, see [`tag_side`]); capacity persists
/// across batches so steady state allocates nothing.
#[derive(Debug, Default)]
struct BlockedScratch {
    /// Oldest-first copy of each sub-window's keys.
    snap_keys: [Vec<u32>; 2],
    /// Payloads parallel to `snap_keys`; filled only when materializing.
    snap_pays: [Vec<u32>; 2],
    /// Tuples this worker stores into each window during the batch.
    news: [Vec<Tuple>; 2],
    /// Keys parallel to `news` — counting-mode corrections scan this
    /// contiguous slice instead of walking `news` pair by pair.
    news_keys: [Vec<u32>; 2],
    /// Probes against each window, in batch order.
    probes: [Vec<BlockedProbe>; 2],
    /// Keys parallel to `probes` — the contiguous slice the kernel scans.
    probe_keys: [Vec<u32>; 2],
}

/// Scratch-array index of a stream side (R = 0, S = 1).
fn tag_side(tag: StreamTag) -> usize {
    match tag {
        StreamTag::R => 0,
        StreamTag::S => 1,
    }
}

struct WorkerState {
    position: u64,
    n: u64,
    predicate: JoinPredicate,
    window_r: SwWindow,
    window_s: SwWindow,
    r_count: u64,
    s_count: u64,
    stats: WorkerStats,
    kstats: KernelStats,
    /// Re-partitioned ownership after a sibling died; `None` means the
    /// original `count % n == position` discipline.
    map: Option<Arc<PartitionMap>>,
    /// Locally buffered matches awaiting a chunked send (empty when
    /// counting-only).
    out: Vec<MatchPair>,
    out_chunk: usize,
    /// This worker's result ring toward the collector; `None` when
    /// counting-only, and dropped on the first failed send — a dead
    /// collector degrades result delivery, it doesn't kill the worker.
    results: Option<RingProducer<MatchPair>>,
    cell: Arc<WorkerCell>,
    /// Keyed-dispatch shards; `None` in broadcast mode.
    part: Option<PartState>,
    /// Blocked-path batch buffers.
    scratch: BlockedScratch,
}

/// Hands one buffered chunk to the collector; a dead collector degrades
/// to counting (`results_dropped` accounting), it doesn't kill the
/// worker. Free function so the probe loop can call it while the
/// opposite window is borrowed.
fn send_result_chunk(
    results: &mut Option<RingProducer<MatchPair>>,
    cell: &WorkerCell,
    out: &mut Vec<MatchPair>,
) {
    let Some(tx) = results else { return };
    let mut sent = 0usize;
    let mut spins = 0u32;
    while sent < out.len() {
        match tx.push_batch(&out[sent..]) {
            Ok(0) => {
                // Collector back-pressure: wait for ring space.
                if spins < 256 {
                    spins += 1;
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(IDLE_SLEEP);
                }
            }
            Ok(n) => {
                cell.results_sent.fetch_add(n as u64, Ordering::Release);
                sent += n;
                spins = 0;
            }
            Err(_) => {
                cell.results_dropped
                    .fetch_add((out.len() - sent) as u64, Ordering::Relaxed);
                *results = None;
                break;
            }
        }
    }
    out.clear();
}

impl WorkerState {
    /// One distribution batch. The blocked kernel applies only where it
    /// pays: nested-loop windows with enough probes to fill compare
    /// tiles ([`MIN_BLOCK_PROBES`]). Everything else — hash windows
    /// (whose chain walks are pointer-chasing, not scannable) and
    /// undersized batches — runs the per-tuple path.
    fn handle_batch(&mut self, batch: &[(StreamTag, Tuple)]) {
        if matches!(self.window_r, SwWindow::Nested(_)) {
            if batch.len() >= MIN_BLOCK_PROBES {
                self.handle_batch_blocked(batch);
                return;
            }
            self.kstats.scalar_fallbacks += batch.len() as u64;
        }
        for &(tag, tuple) in batch {
            self.handle_tuple(tag, tuple);
        }
    }

    /// The blocked probe path: snapshot both sub-windows once, probe the
    /// whole batch against the snapshots in cache-sized compare tiles
    /// ([`kernel::count_block`] / [`kernel::emit_block`]), then apply the
    /// deferred stores.
    ///
    /// Deferring stores is exact, not approximate. Per probe we record
    /// `j` — how many opposite-side tuples this worker had stored so far
    /// in the batch — so the window it *would* have seen is: snapshot
    /// entries `[sn_start..len)` plus intra-batch stores `[new_lo..j)`,
    /// where the two lower bounds come from the flat ring's overwrite
    /// rule (at most `capacity` newest entries survive). The kernel
    /// probes the full snapshot; per-probe scalar corrections subtract
    /// the evicted prefix and add the intra-batch span, reproducing the
    /// per-tuple path's `comparisons`/`matches`/`stored` bit for bit.
    fn handle_batch_blocked(&mut self, batch: &[(StreamTag, Tuple)]) {
        let materialize = self.results.is_some();
        let mut lens = [0usize; 2];
        let mut caps = [0usize; 2];
        {
            let WorkerState { window_r, window_s, scratch, .. } = self;
            for (side, w) in [(0, &*window_r), (1, &*window_s)] {
                let SwWindow::Nested(f) = w else {
                    unreachable!("blocked batch path requires nested-loop windows")
                };
                f.snapshot_into(
                    &mut scratch.snap_keys[side],
                    &mut scratch.snap_pays[side],
                    materialize,
                );
                lens[side] = f.len();
                caps[side] = f.capacity();
                scratch.news[side].clear();
                scratch.news_keys[side].clear();
                scratch.probes[side].clear();
                scratch.probe_keys[side].clear();
            }
        }
        self.stats.tuples_seen += batch.len() as u64;
        // Phase 1: walk the batch in arrival order, recording each
        // probe's visibility span and making the round-robin store
        // decision exactly as [`WorkerState::store`] would — but
        // deferring the inserts themselves.
        for &(tag, tuple) in batch {
            let side = tag_side(tag);
            let g = 1 - side; // the window this tuple probes
            let j = self.scratch.news[g].len();
            let (l, cap) = (lens[g], caps[g]);
            self.stats.comparisons += (l + j).min(cap) as u64;
            let start = (l + j).saturating_sub(cap);
            self.scratch.probes[g].push(BlockedProbe {
                tuple,
                j: j as u32,
                sn_start: start.min(l) as u32,
                new_lo: start.saturating_sub(l) as u32,
            });
            self.scratch.probe_keys[g].push(tuple.key());
            let count = match tag {
                StreamTag::R => &mut self.r_count,
                StreamTag::S => &mut self.s_count,
            };
            let turn = *count;
            *count += 1;
            let my_turn = match &self.map {
                None => turn % self.n == self.position,
                Some(map) => map.owner(turn) == self.position as usize,
            };
            if my_turn {
                self.stats.stored += 1;
                self.scratch.news[side].push(tuple);
                self.scratch.news_keys[side].push(tuple.key());
            }
        }
        // Phase 2: blocked probe per window, plus per-probe scalar
        // corrections (each correction is tallied as a fallback lane).
        let WorkerState {
            predicate,
            stats,
            kstats,
            out,
            out_chunk,
            results,
            cell,
            scratch,
            ..
        } = self;
        for g in 0..2 {
            let probes = &scratch.probes[g];
            if probes.is_empty() {
                continue;
            }
            // Probes against the S window (`g == 1`) carry R tuples.
            let probe_is_r = g == 1;
            let tag = if probe_is_r { StreamTag::R } else { StreamTag::S };
            let snap_keys = &scratch.snap_keys[g];
            let news = &scratch.news[g];
            if !materialize {
                let mut matched = kernel::count_block(
                    *predicate,
                    probe_is_r,
                    &scratch.probe_keys[g],
                    snap_keys,
                    kstats,
                );
                let news_keys = &scratch.news_keys[g];
                for p in probes {
                    let span = &news_keys[p.new_lo as usize..p.j as usize];
                    if p.sn_start > 0 || !span.is_empty() {
                        kstats.scalar_fallbacks += 1;
                    }
                    if p.sn_start > 0 {
                        matched -= predicate.count_matches(
                            p.tuple.key(),
                            probe_is_r,
                            &snap_keys[..p.sn_start as usize],
                        ) as u64;
                    }
                    // The intra-batch span is a contiguous key slice, so
                    // the correction vectorizes like a window sweep.
                    matched += predicate.count_matches(p.tuple.key(), probe_is_r, span) as u64;
                }
                stats.matches += matched;
            } else {
                let snap_pays = &scratch.snap_pays[g];
                kernel::emit_block(
                    *predicate,
                    probe_is_r,
                    &scratch.probe_keys[g],
                    snap_keys,
                    kstats,
                    |pi, ki| {
                        let p = &probes[pi];
                        if (ki as u32) < p.sn_start {
                            return;
                        }
                        stats.matches += 1;
                        if results.is_some() {
                            out.push(MatchPair::oriented(
                                tag,
                                p.tuple,
                                Tuple::new(snap_keys[ki], snap_pays[ki]),
                            ));
                            if out.len() >= *out_chunk {
                                send_result_chunk(results, cell, out);
                            }
                        }
                    },
                );
                for p in probes {
                    let span = &news[p.new_lo as usize..p.j as usize];
                    if p.sn_start > 0 || !span.is_empty() {
                        kstats.scalar_fallbacks += 1;
                    }
                    for t in span {
                        if predicate.matches_oriented(p.tuple.key(), probe_is_r, t.key()) {
                            stats.matches += 1;
                            if results.is_some() {
                                out.push(MatchPair::oriented(tag, p.tuple, *t));
                                if out.len() >= *out_chunk {
                                    send_result_chunk(results, cell, out);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Phase 3: the deferred stores, in arrival order per side (the
        // two windows are independent, so side-major application lands
        // the same final ring state as the interleaved per-tuple path).
        for side in 0..2 {
            let window = if side == 0 { &mut self.window_r } else { &mut self.window_s };
            for &t in &self.scratch.news[side] {
                window.insert(t);
            }
        }
    }

    fn handle_tuple(&mut self, tag: StreamTag, tuple: Tuple) {
        self.stats.tuples_seen += 1;
        // Probe the opposite sub-window. The nested-loop path scans the
        // contiguous key segments of the flat window and touches a
        // payload only when the key predicate holds. Disjoint field
        // borrows: the window stays shared while stats/out/results
        // mutate.
        let WorkerState {
            predicate,
            window_r,
            window_s,
            stats,
            kstats,
            out,
            out_chunk,
            results,
            cell,
            ..
        } = self;
        let opposite = match tag {
            StreamTag::R => &*window_s,
            StreamTag::S => &*window_r,
        };
        let probe_key = tuple.key();
        match opposite {
            SwWindow::Nested(w) => {
                if results.is_none() {
                    // Counting-only: no pair materialization, so each
                    // segment reduces to one predicate sweep over the
                    // contiguous key array that the compiler can
                    // vectorize (`count_matches` hoists the dispatch).
                    let probe_is_r = tag == StreamTag::R;
                    for (keys, _) in w.segments() {
                        stats.comparisons += keys.len() as u64;
                        stats.matches +=
                            predicate.count_matches(probe_key, probe_is_r, keys) as u64;
                    }
                } else {
                    for (keys, payloads) in w.segments() {
                        // One comparison per stored key, counted per
                        // segment so the scan itself stays branch-light.
                        stats.comparisons += keys.len() as u64;
                        for (i, &key) in keys.iter().enumerate() {
                            let key_match = match tag {
                                StreamTag::R => predicate.matches_keys(probe_key, key),
                                StreamTag::S => predicate.matches_keys(key, probe_key),
                            };
                            if key_match {
                                stats.matches += 1;
                                out.push(MatchPair::oriented(
                                    tag,
                                    tuple,
                                    Tuple::new(key, payloads[i]),
                                ));
                                if out.len() >= *out_chunk {
                                    send_result_chunk(results, cell, out);
                                }
                            }
                        }
                    }
                }
            }
            SwWindow::Hash(w) => {
                // A hash chain walk can't be tiled, but its latency can
                // be hidden: prefetch the next chain node while
                // evaluating the current one.
                let mut matched = 0u64;
                for stored in w.probe_prefetch(probe_key) {
                    stats.comparisons += 1;
                    stats.matches += 1;
                    matched += 1;
                    if results.is_some() {
                        out.push(MatchPair::oriented(tag, tuple, stored));
                        if out.len() >= *out_chunk {
                            send_result_chunk(results, cell, out);
                        }
                    }
                }
                kstats.lanes += matched;
                kstats.match_bits += matched;
            }
        }
        self.store(tag, tuple, true);
    }

    /// One keyed-dispatch entry ([`Msg::Part`]): probe the opposite
    /// shard inside its eviction watermark, then store into the own
    /// shard when the router stamped this worker as the storage site.
    /// Probes are per-key chain walks (equi-join only), so comparisons
    /// equal matches, as in [`SwJoinAlgorithm::Hash`].
    fn handle_part_entry(&mut self, e: PartEntry) {
        if e.probe {
            // Prefill entries are uncounted, as in broadcast mode.
            self.stats.tuples_seen += 1;
        }
        // Disjoint field borrows, as in `handle_tuple`.
        let WorkerState { part, stats, kstats, out, out_chunk, results, cell, .. } = self;
        let ps = part.as_mut().expect("keyed dispatch needs shard state");
        let horizon = ps.horizon;
        let (own, opposite) = match e.tag {
            StreamTag::R => (&mut ps.window_r, &mut ps.window_s),
            StreamTag::S => (&mut ps.window_s, &mut ps.window_r),
        };
        if e.probe {
            opposite.evict_below(e.opp.saturating_sub(horizon));
            if results.is_none() {
                // Keyed shards chain by exact key, so every chain entry
                // matches: counting-only probes collapse to the O(1)
                // chain length instead of walking it.
                let n = opposite.probe_len(e.tuple.key()) as u64;
                stats.comparisons += n;
                stats.matches += n;
                kstats.lanes += n;
                kstats.match_bits += n;
            } else {
                for stored in opposite.probe(e.tuple.key()) {
                    stats.comparisons += 1;
                    stats.matches += 1;
                    if results.is_some() {
                        out.push(MatchPair::oriented(e.tag, e.tuple, stored));
                        if out.len() >= *out_chunk {
                            send_result_chunk(results, cell, out);
                        }
                    }
                }
            }
        }
        if e.store {
            own.evict_below((e.seq + 1).saturating_sub(horizon));
            own.insert(e.seq, e.tuple);
            if e.probe {
                // Prefill stores are uncounted, as in broadcast mode.
                stats.stored += 1;
            }
        }
    }

    /// Round-robin storage without central coordination; after a
    /// reconfigure, the broadcast partition map replaces the modulo.
    fn store(&mut self, tag: StreamTag, tuple: Tuple, count_stat: bool) {
        let count = match tag {
            StreamTag::R => &mut self.r_count,
            StreamTag::S => &mut self.s_count,
        };
        let turn = *count;
        *count += 1;
        let my_turn = match &self.map {
            None => turn % self.n == self.position,
            Some(map) => map.owner(turn) == self.position as usize,
        };
        if my_turn {
            if count_stat {
                self.stats.stored += 1;
            }
            match tag {
                StreamTag::R => self.window_r.insert(tuple),
                StreamTag::S => self.window_s.insert(tuple),
            };
        }
    }

    /// Hands any buffered matches to the collector (barrier points and
    /// shutdown); degrades to counting on a dead collector.
    fn flush_results(&mut self) {
        if !self.out.is_empty() {
            send_result_chunk(&mut self.results, &self.cell, &mut self.out);
        }
    }

    /// Publishes the statistics snapshot and advances the heartbeat —
    /// once per processed message. With the live plane armed this also
    /// timestamps the beat, which the router exports as
    /// `splitjoin.worker.<i>.heartbeat_age_ns`.
    fn publish(&self) {
        self.cell.tuples_seen.store(self.stats.tuples_seen, Ordering::Relaxed);
        self.cell.stored.store(self.stats.stored, Ordering::Relaxed);
        self.cell.comparisons.store(self.stats.comparisons, Ordering::Relaxed);
        self.cell.matches.store(self.stats.matches, Ordering::Relaxed);
        self.cell.heartbeat.fetch_add(1, Ordering::Relaxed);
        self.cell.stamp_beat();
    }
}

/// What a scripted batch told the worker to do next.
enum BatchOutcome {
    Continue,
    /// Scripted kill: exit the thread abruptly.
    Kill,
}

/// One distribution message through the fault script: stall, drop-or-
/// probe, scripted panic, scripted kill. `probe` is the mode's own work
/// on the message's `len` entries — [`WorkerState::handle_batch`] for a
/// broadcast batch, [`WorkerState::handle_part_entry`] per entry for a
/// keyed sub-batch — so both dispatch modes share one script. `batch_no`
/// is this worker's own received-message count (which, in keyed
/// dispatch, can lag the router's batch count — a worker only gets a
/// message when a key routes to it).
fn run_scripted_batch(
    w: &mut WorkerState,
    plan: &FaultPlan,
    position: usize,
    batch_no: u64,
    len: usize,
    ring: &mut Option<obs::trace::TraceRing>,
    probe: impl FnOnce(&mut WorkerState),
) -> BatchOutcome {
    let stall = plan.stall_ms(position, batch_no);
    if stall > 0 {
        w.cell.stalls.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(stall));
    }
    if plan.drops(position, batch_no) {
        // The batch is lost in transit: no probes, no stores, and this
        // worker's round-robin counters silently fall behind its
        // siblings' — deliberate corruption.
        w.cell.drops.fetch_add(1, Ordering::Relaxed);
    } else {
        let t0 = obs::trace::now_ns();
        probe(w);
        if let Some(r) = ring.as_mut() {
            let t1 = obs::trace::now_ns();
            r.record_arg("probe", t0, t1.saturating_sub(t0), len as u64);
        }
    }
    if plan.panics(position, batch_no) {
        w.publish();
        panic!("fault injection: worker {position} scripted panic at batch {batch_no}");
    }
    if plan.kills(position, batch_no) {
        // Abrupt exit: buffered un-flushed results die here.
        w.cell
            .results_dropped
            .fetch_add(w.out.len() as u64, Ordering::Relaxed);
        w.publish();
        return BatchOutcome::Kill;
    }
    BatchOutcome::Continue
}

fn worker_loop(
    position: usize,
    config: &SplitJoinConfig,
    mut msgs: RingConsumer<Msg>,
    // This worker's reader into the shared batch arena, where
    // [`Msg::ArenaBatch`] payloads live; `None` in partitioned mode,
    // which ships keyed sub-batches ([`Msg::Part`]) instead.
    mut arena: Option<ArenaReader<(StreamTag, Tuple)>>,
    results: Option<RingProducer<MatchPair>>,
    cell: &Arc<WorkerCell>,
    mut live: Option<LiveWorker>,
) -> WorkerExit {
    let _guard = AliveGuard(Arc::clone(cell));
    if config.pin_workers {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Best effort: a refused pin just runs unpinned.
        let _ = streamcore::affinity::pin_to_core(position % cpus);
    }
    let partitioned = config.partitioning == Partitioning::Hash;
    // Partitioned mode never touches the round-robin windows; capacity
    // 1 keeps their allocation negligible without a zero-capacity edge.
    let sub = if partitioned { 1 } else { config.sub_window() };
    let plan = &config.fault_plan;
    let mut w = WorkerState {
        position: position as u64,
        n: config.num_cores as u64,
        predicate: config.predicate,
        window_r: SwWindow::new(config.algorithm, sub),
        window_s: SwWindow::new(config.algorithm, sub),
        r_count: 0,
        s_count: 0,
        stats: WorkerStats::default(),
        kstats: KernelStats::default(),
        map: None,
        out: Vec::new(),
        out_chunk: config.batch_size.max(1),
        results,
        cell: Arc::clone(cell),
        part: partitioned.then(|| PartState {
            window_r: PartitionedWindow::new(),
            window_s: PartitionedWindow::new(),
            horizon: config.effective_window() as u64,
        }),
        scratch: BlockedScratch::default(),
    };

    let mut ring = obs::trace::enabled().then(|| {
        obs::trace::TraceRing::new(
            format!("sw.worker.{position}"),
            obs::trace::TimeDomain::Wall,
        )
    });
    let mut idle_since = obs::trace::now_ns();
    let mut batch_no: u64 = 0;

    loop {
        // With the live plane armed, time spent blocked in `recv` is
        // exported as `.wait_ns` and the rest of the iteration as
        // `.busy_ns`; unarmed, neither clock is read.
        let wait_start = live.as_ref().map(|_| obs::trace::now_ns());
        let Some(msg) = recv_msg(&mut msgs) else { break };
        let busy_start = wait_start.map(|t0| {
            let now = obs::trace::now_ns();
            if let Some(lv) = live.as_ref() {
                lv.wait_ns.add(now.saturating_sub(t0));
            }
            now
        });
        if let Some(r) = ring.as_mut() {
            let t = obs::trace::now_ns();
            r.record("recv", idle_since, t.saturating_sub(idle_since));
        }
        match msg {
            Msg::ArenaBatch { seq } => {
                batch_no += 1;
                // Probe the arena slot in place; release it only after
                // the whole batch is processed (a scripted panic unwinds
                // without releasing — recovery then waits for this
                // thread to die before retiring the reader).
                let reader = arena
                    .as_mut()
                    .expect("arena batches only arrive in broadcast mode");
                let batch = reader.read(seq);
                let outcome =
                    run_scripted_batch(&mut w, plan, position, batch_no, batch.len(), &mut ring, |w| {
                        w.handle_batch(batch)
                    });
                reader.release(seq);
                if let BatchOutcome::Kill = outcome {
                    return (w.stats, w.kstats, ring);
                }
            }
            Msg::Part(entries) => {
                batch_no += 1;
                let outcome =
                    run_scripted_batch(&mut w, plan, position, batch_no, entries.len(), &mut ring, |w| {
                        for &e in entries.iter() {
                            w.handle_part_entry(e);
                        }
                    });
                if let BatchOutcome::Kill = outcome {
                    return (w.stats, w.kstats, ring);
                }
            }
            Msg::Prefill(tag, tuples) => {
                // Same round-robin discipline, no probing.
                let t0 = obs::trace::now_ns();
                for &t in tuples.iter() {
                    w.store(tag, t, false);
                }
                if let Some(r) = ring.as_mut() {
                    let t1 = obs::trace::now_ns();
                    r.record_arg("insert", t0, t1.saturating_sub(t0), tuples.len() as u64);
                }
            }
            Msg::Adopt(tag, tuples) => {
                // A dead sibling's orphans, re-homed here: straight into
                // our own window, no probing, no counter advance.
                for &t in tuples.iter() {
                    match tag {
                        StreamTag::R => w.window_r.insert(t),
                        StreamTag::S => w.window_s.insert(t),
                    }
                }
                w.cell.adopted.fetch_add(tuples.len() as u64, Ordering::Relaxed);
            }
            Msg::Reconfigure(map) => {
                w.map = Some(map);
            }
            Msg::Flush(token) => {
                let t0 = obs::trace::now_ns();
                w.flush_results();
                if let Some(r) = ring.as_mut() {
                    let t1 = obs::trace::now_ns();
                    r.record("send", t0, t1.saturating_sub(t0));
                }
                // Release pairs with the router's Acquire poll: the token
                // becomes visible only after the result flush above.
                w.cell.flushed.store(token, Ordering::Release);
            }
            Msg::Stop => break,
        }
        if let (Some(lv), Some(t0)) = (live.as_mut(), busy_start) {
            lv.after_msg(&w.stats, t0);
        }
        w.publish();
        idle_since = obs::trace::now_ns();
    }
    w.flush_results();
    w.publish();
    (w.stats, w.kstats, ring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::reference_join;
    use crate::fault::FaultEvent;
    use std::collections::HashMap;
    use streamcore::workload::{KeyDist, WorkloadSpec};

    fn as_multiset(results: &[MatchPair]) -> HashMap<(u64, u64), u32> {
        let mut m = HashMap::new();
        for p in results {
            *m.entry((p.r.raw(), p.s.raw())).or_insert(0) += 1;
        }
        m
    }

    fn run_workload(config: SplitJoinConfig, inputs: &[(StreamTag, Tuple)]) -> JoinOutcome {
        let join = SplitJoin::spawn(config);
        for &(tag, t) in inputs {
            join.process(tag, t).unwrap();
        }
        join.flush().unwrap();
        join.shutdown().unwrap()
    }

    #[test]
    fn matches_reference_exactly() {
        let inputs: Vec<_> = WorkloadSpec::new(500, KeyDist::Uniform { domain: 16 })
            .generate()
            .collect();
        // Core counts dividing the window: the effective window equals the
        // nominal one (see `effective_window`).
        for cores in [1usize, 2, 4, 8] {
            let outcome = run_workload(SplitJoinConfig::new(cores, 64), &inputs);
            let want = reference_join(&inputs, 64, JoinPredicate::Equi);
            assert_eq!(
                as_multiset(&outcome.results),
                as_multiset(&want),
                "mismatch with {cores} cores"
            );
            assert!(!want.is_empty());
            assert!(!outcome.fault.degraded(), "healthy run must not degrade");
        }
    }

    #[test]
    fn every_batch_size_yields_identical_results() {
        let inputs: Vec<_> = WorkloadSpec::new(700, KeyDist::Uniform { domain: 12 })
            .generate()
            .collect();
        let want = as_multiset(&reference_join(&inputs, 48, JoinPredicate::Equi));
        assert!(!want.is_empty());
        for batch in [1usize, 2, 7, 64, 256, 4_096] {
            let outcome = run_workload(
                SplitJoinConfig::new(3, 48).with_batch_size(batch),
                &inputs,
            );
            assert_eq!(
                as_multiset(&outcome.results),
                want,
                "mismatch at batch size {batch}"
            );
        }
    }

    #[test]
    fn shutdown_drains_partial_batches() {
        // Regression: with `batch_size` larger than the whole stream, no
        // batch is ever full — shutdown (without an explicit flush) must
        // still deliver every buffered tuple before workers see their
        // ring close.
        let inputs: Vec<_> = WorkloadSpec::new(40, KeyDist::Uniform { domain: 4 })
            .generate()
            .collect();
        let want = reference_join(&inputs, 16, JoinPredicate::Equi);
        assert!(!want.is_empty());
        let join = SplitJoin::spawn(SplitJoinConfig::new(2, 16).with_batch_size(1_024));
        for &(tag, t) in &inputs {
            join.process(tag, t).unwrap();
        }
        let outcome = join.shutdown().unwrap(); // no flush
        assert_eq!(as_multiset(&outcome.results), as_multiset(&want));
        assert_eq!(outcome.batch_sizes.total(), 1, "one partial batch");
        assert_eq!(outcome.batch_sizes.max(), Some(40));
    }

    #[test]
    fn uneven_core_count_rounds_the_window_up() {
        let config = SplitJoinConfig::new(7, 64);
        assert_eq!(config.sub_window(), 10);
        assert_eq!(config.effective_window(), 70);
        // Against a reference with the *effective* window, results match.
        let inputs: Vec<_> = WorkloadSpec::new(600, KeyDist::Uniform { domain: 16 })
            .generate()
            .collect();
        let outcome = run_workload(config, &inputs);
        let want = reference_join(&inputs, 70, JoinPredicate::Equi);
        assert_eq!(as_multiset(&outcome.results), as_multiset(&want));
    }

    #[test]
    fn batch_processing_matches_per_tuple_processing() {
        let inputs: Vec<_> = WorkloadSpec::new(300, KeyDist::Uniform { domain: 8 })
            .generate()
            .collect();
        let per_tuple = run_workload(
            SplitJoinConfig::new(4, 32).with_batch_size(1),
            &inputs,
        );
        let join = SplitJoin::spawn(SplitJoinConfig::new(4, 32));
        for chunk in inputs.chunks(37) {
            join.process_batch(chunk).unwrap();
        }
        join.flush().unwrap();
        let batched = join.shutdown().unwrap();
        assert_eq!(
            as_multiset(&batched.results),
            as_multiset(&per_tuple.results)
        );
    }

    #[test]
    fn matches_reference_with_expiry() {
        let inputs: Vec<_> = WorkloadSpec::new(2_000, KeyDist::Uniform { domain: 8 })
            .generate()
            .collect();
        let outcome = run_workload(SplitJoinConfig::new(4, 32), &inputs);
        let want = reference_join(&inputs, 32, JoinPredicate::Equi);
        assert_eq!(as_multiset(&outcome.results), as_multiset(&want));
    }

    #[test]
    fn every_worker_sees_every_tuple_but_stores_its_share() {
        let inputs: Vec<_> = WorkloadSpec::new(400, KeyDist::Uniform { domain: 1 << 20 })
            .generate()
            .collect();
        let outcome = run_workload(SplitJoinConfig::new(4, 80), &inputs);
        for (i, ws) in outcome.worker_stats.iter().enumerate() {
            assert_eq!(ws.tuples_seen, 400, "worker {i}");
            assert_eq!(ws.stored, 100, "worker {i}");
        }
    }

    #[test]
    fn prefill_skips_probing_but_keeps_rotation() {
        let config = SplitJoinConfig::new(2, 8);
        let join = SplitJoin::spawn(config);
        let fill: Vec<Tuple> = (0..4u32).map(|i| Tuple::new(i, i)).collect();
        join.prefill(StreamTag::S, &fill).unwrap();
        // Probe matches exactly one prefilled tuple.
        join.process(StreamTag::R, Tuple::new(2, 99)).unwrap();
        join.flush().unwrap();
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.result_count, 1);
        let total_comparisons: u64 =
            outcome.worker_stats.iter().map(|w| w.comparisons).sum();
        assert_eq!(total_comparisons, 4, "prefill must not probe");
    }

    #[test]
    fn counting_only_discards_results() {
        let config = SplitJoinConfig::new(2, 16).counting_only();
        let join = SplitJoin::spawn(config);
        join.process(StreamTag::S, Tuple::new(1, 0)).unwrap();
        join.process(StreamTag::R, Tuple::new(1, 1)).unwrap();
        join.flush().unwrap();
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.result_count, 1);
        assert!(outcome.results.is_empty());
    }

    #[test]
    fn counting_only_agrees_with_collection_at_every_batch_size() {
        let inputs: Vec<_> = WorkloadSpec::new(900, KeyDist::Uniform { domain: 8 })
            .generate()
            .collect();
        let collected = run_workload(SplitJoinConfig::new(3, 24), &inputs);
        for batch in [1usize, 5, 256] {
            let counted = run_workload(
                SplitJoinConfig::new(3, 24).with_batch_size(batch).counting_only(),
                &inputs,
            );
            assert_eq!(counted.result_count, collected.result_count);
            assert!(counted.results.is_empty());
        }
    }

    #[test]
    fn band_predicate_propagates_to_workers() {
        let config =
            SplitJoinConfig::new(3, 9).with_predicate(JoinPredicate::Band { delta: 5 });
        let join = SplitJoin::spawn(config);
        join.process(StreamTag::S, Tuple::new(100, 0)).unwrap();
        join.process(StreamTag::R, Tuple::new(104, 1)).unwrap();
        join.process(StreamTag::R, Tuple::new(106, 2)).unwrap();
        join.flush().unwrap();
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.result_count, 1);
    }

    #[test]
    fn hash_algorithm_matches_nested_loop_exactly() {
        let inputs: Vec<_> = WorkloadSpec::new(800, KeyDist::Uniform { domain: 12 })
            .generate()
            .collect();
        let nested = run_workload(SplitJoinConfig::new(4, 32), &inputs);
        let hashed = run_workload(
            SplitJoinConfig::new(4, 32).with_algorithm(SwJoinAlgorithm::Hash),
            &inputs,
        );
        assert_eq!(
            as_multiset(&hashed.results),
            as_multiset(&nested.results)
        );
        // Hash workers compare only matching tuples.
        let nested_cmp: u64 = nested.worker_stats.iter().map(|w| w.comparisons).sum();
        let hashed_cmp: u64 = hashed.worker_stats.iter().map(|w| w.comparisons).sum();
        let matches: u64 = hashed.worker_stats.iter().map(|w| w.matches).sum();
        assert_eq!(hashed_cmp, matches);
        assert!(nested_cmp > 2 * hashed_cmp);
    }

    #[test]
    #[should_panic(expected = "hash join requires an equi-join")]
    fn hash_with_band_predicate_is_rejected() {
        let _ = SplitJoinConfig::new(2, 8)
            .with_predicate(JoinPredicate::Band { delta: 2 })
            .with_algorithm(SwJoinAlgorithm::Hash);
    }

    #[test]
    #[should_panic(expected = "channel capacity must be positive")]
    fn zero_channel_capacity_is_rejected() {
        let _ = SplitJoinConfig::new(2, 8).with_channel_capacity(0);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_is_rejected() {
        let _ = SplitJoinConfig::new(2, 8).with_batch_size(0);
    }

    #[test]
    #[should_panic(expected = "channel capacity must be positive")]
    fn spawn_validates_direct_field_writes() {
        let mut config = SplitJoinConfig::new(2, 8);
        config.channel_capacity = 0;
        let _ = SplitJoin::spawn(config);
    }

    #[test]
    #[should_panic(expected = "targets worker 9")]
    fn spawn_validates_fault_plan_targets() {
        let mut config = SplitJoinConfig::new(2, 8);
        config.common.fault_plan =
            crate::fault::FaultPlan::parse("kill9").unwrap();
        let _ = SplitJoin::spawn(config);
    }

    #[test]
    fn flush_is_a_real_barrier() {
        let config = SplitJoinConfig::new(4, 4_096);
        let join = SplitJoin::spawn(config);
        let fill: Vec<Tuple> = (0..4_096u32).map(|i| Tuple::new(i, i)).collect();
        join.prefill(StreamTag::S, &fill).unwrap();
        for i in 0..64u32 {
            join.process(StreamTag::R, Tuple::new(i, 1 << 20 | i)).unwrap();
        }
        join.flush().unwrap();
        // After flush all probes are done: every R probed its key once.
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.result_count, 64);
    }

    #[test]
    fn batch_histogram_records_distribution_shape() {
        let join = SplitJoin::spawn(SplitJoinConfig::new(2, 8).with_batch_size(4));
        for i in 0..10u32 {
            join.process(StreamTag::R, Tuple::new(i, i)).unwrap();
        }
        join.flush().unwrap(); // two full batches of 4, one partial of 2
        assert_eq!(join.batches_sent(), 3);
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.batch_sizes.total(), 3);
        assert_eq!(outcome.batch_sizes.max(), Some(4));
        assert_eq!(outcome.batch_sizes.min(), Some(2));
        let reg = outcome.registry();
        assert_eq!(reg.get("splitjoin.batches"), Some(3));
        assert!(reg.get("splitjoin.worker0.probes").is_some());
        // Healthy run: the fault namespace must be absent.
        assert_eq!(reg.get("fault.workers_lost"), None);
    }

    #[test]
    fn fallible_surface_round_trips_a_match() {
        let join = SplitJoin::spawn(SplitJoinConfig::new(2, 8));
        join.process(StreamTag::S, Tuple::new(3, 0)).unwrap();
        join.process(StreamTag::R, Tuple::new(3, 1)).unwrap();
        join.flush().unwrap();
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.result_count, 1);
    }

    /// Batch sizes below [`MIN_BLOCK_PROBES`] keep a broadcast worker on
    /// the per-tuple probe — the in-tree reference path.
    const PER_TUPLE_BATCHES: [usize; 2] = [1, 7];
    /// Batch sizes that engage the blocked compare tiles.
    const BLOCKED_BATCHES: [usize; 3] = [8, 64, 512];

    /// Runs `mk(batch)` at every per-tuple-path and blocked-path batch
    /// size and asserts result multisets, counts and per-worker
    /// [`WorkerStats`] all equal the `batch_size = 1` run. Returns that
    /// reference run plus the `(batch, outcome)` pairs of the rest.
    fn assert_batch_size_invariant(
        mk: impl Fn(usize) -> SplitJoinConfig,
        inputs: &[(StreamTag, Tuple)],
        label: &str,
    ) -> (JoinOutcome, Vec<(usize, JoinOutcome)>) {
        let reference = run_workload(mk(1), inputs);
        let rest: Vec<_> = PER_TUPLE_BATCHES[1..]
            .iter()
            .chain(&BLOCKED_BATCHES)
            .map(|&batch| (batch, run_workload(mk(batch), inputs)))
            .collect();
        for (batch, outcome) in &rest {
            assert_eq!(
                as_multiset(&outcome.results),
                as_multiset(&reference.results),
                "{label}: result mismatch at batch {batch}"
            );
            assert_eq!(outcome.result_count, reference.result_count, "{label}: batch {batch}");
            assert_eq!(
                outcome.worker_stats, reference.worker_stats,
                "{label}: per-worker stat mismatch at batch {batch}"
            );
        }
        (reference, rest)
    }

    fn tiles(outcome: &JoinOutcome) -> u64 {
        outcome.kernel_stats.expect("every run carries kernel stats").tiles
    }

    #[test]
    fn blocked_path_is_bit_identical_to_per_tuple_path() {
        let inputs: Vec<_> = WorkloadSpec::new(900, KeyDist::Uniform { domain: 24 })
            .generate()
            .collect();
        for pred in [
            JoinPredicate::Equi,
            JoinPredicate::Band { delta: 3 },
            JoinPredicate::LessThan,
            JoinPredicate::All,
        ] {
            let mk = |batch| {
                SplitJoinConfig::new(3, 48).with_predicate(pred).with_batch_size(batch)
            };
            let (reference, rest) = assert_batch_size_invariant(mk, &inputs, &format!("{pred:?}"));
            assert_eq!(
                as_multiset(&reference.results),
                as_multiset(&reference_join(&inputs, 48, pred)),
                "{pred:?}: vs reference join"
            );
            assert_eq!(tiles(&reference), 0, "batch 1 must stay on the per-tuple path");
            for (batch, outcome) in &rest {
                let blocked = *batch >= MIN_BLOCK_PROBES;
                if !blocked {
                    assert_eq!(tiles(outcome), 0, "{pred:?} batch {batch} must not tile");
                } else if pred != JoinPredicate::All {
                    assert!(tiles(outcome) > 0, "{pred:?} batch {batch} never tiled");
                }
            }
        }
    }

    #[test]
    fn blocked_path_survives_intra_batch_window_wrap() {
        // Window far smaller than the batch: most probes see snapshot
        // entries evicted mid-batch plus freshly stored siblings, so the
        // correction spans do all the work.
        let inputs: Vec<_> = WorkloadSpec::new(800, KeyDist::Uniform { domain: 6 })
            .generate()
            .collect();
        for cores in [1usize, 2, 3] {
            let mk = |batch| SplitJoinConfig::new(cores, 8).with_batch_size(batch);
            let (reference, rest) =
                assert_batch_size_invariant(mk, &inputs, &format!("{cores} cores"));
            let want = reference_join(&inputs, mk(1).effective_window(), JoinPredicate::Equi);
            assert_eq!(as_multiset(&reference.results), as_multiset(&want));
            let (_, widest) = rest.last().expect("blocked batch sizes ran");
            assert!(
                widest.kernel_stats.unwrap().scalar_fallbacks > 0,
                "wrap corrections must be accounted"
            );
        }
    }

    #[test]
    fn blocked_counting_matches_per_tuple_counting() {
        let inputs: Vec<_> = WorkloadSpec::new(1_000, KeyDist::Uniform { domain: 16 })
            .generate()
            .collect();
        let mk = |batch| SplitJoinConfig::new(3, 24).with_batch_size(batch).counting_only();
        let (reference, rest) = assert_batch_size_invariant(mk, &inputs, "counting");
        assert_eq!(
            reference.result_count,
            reference_join(&inputs, 24, JoinPredicate::Equi).len() as u64
        );
        for (batch, outcome) in rest.iter().filter(|(b, _)| *b >= MIN_BLOCK_PROBES) {
            let ks = outcome.kernel_stats.unwrap();
            assert!(ks.tiles > 0 && ks.lanes > 0, "batch {batch}");
        }
    }

    #[test]
    fn hash_algorithm_stays_on_the_per_tuple_path_at_every_batch_size() {
        // Hash windows take the prefetched chain walk, never the tiles:
        // identical results, zero tiles, lanes mirroring the hits.
        let inputs: Vec<_> = WorkloadSpec::new(600, KeyDist::Uniform { domain: 12 })
            .generate()
            .collect();
        let mk = |batch| {
            SplitJoinConfig::new(2, 32)
                .with_algorithm(SwJoinAlgorithm::Hash)
                .with_batch_size(batch)
        };
        let (reference, rest) = assert_batch_size_invariant(mk, &inputs, "hash");
        assert_eq!(
            as_multiset(&reference.results),
            as_multiset(&reference_join(&inputs, 32, JoinPredicate::Equi))
        );
        for (batch, outcome) in std::iter::once(&(1, reference)).chain(&rest) {
            let ks = outcome.kernel_stats.unwrap();
            assert_eq!(ks.tiles, 0, "hash probing never tiles (batch {batch})");
            let matches: u64 = outcome.worker_stats.iter().map(|w| w.matches).sum();
            assert_eq!(ks.lanes, matches, "one lane per chain hit (batch {batch})");
        }
    }

    #[test]
    fn kernel_stats_surface_in_registry() {
        let inputs: Vec<_> = WorkloadSpec::new(400, KeyDist::Uniform { domain: 8 })
            .generate()
            .collect();
        let outcome =
            run_workload(SplitJoinConfig::new(2, 16).with_batch_size(64), &inputs);
        let reg = outcome.registry();
        assert!(reg.get("splitjoin.kernel.tiles").is_some_and(|t| t > 0));
        assert!(reg.get("splitjoin.kernel.lanes").is_some());
        assert!(reg.get("splitjoin.kernel.match_density_x1000").is_some());
        assert!(reg.get("splitjoin.kernel.scalar_fallbacks").is_some());
    }

    #[test]
    fn replica_buf_keeps_owner_positions_at_full_width() {
        // Regression: owners were stored as `u8`, so position 256 aliased
        // position 0 and recovery re-adopted the wrong orphans.
        let mut buf = ReplicaBuf::new(8);
        let t = Tuple::new(7, 70);
        buf.push(256, t);
        assert!(buf.orphans_of(0, 8).is_empty());
        assert_eq!(buf.orphans_of(256, 8), vec![t]);
    }

    #[test]
    #[cfg(feature = "obs")]
    fn tracing_records_worker_spans_without_changing_results() {
        let inputs: Vec<_> = WorkloadSpec::new(600, KeyDist::Uniform { domain: 16 })
            .generate()
            .collect();
        let prefill: Vec<Tuple> = (0..32u32).map(|i| Tuple::new(i, i)).collect();
        let config = || SplitJoinConfig::new(3, 64).with_batch_size(32);

        let run = |traced: bool| {
            if traced {
                obs::trace::enable(1);
            }
            let join = SplitJoin::spawn(config());
            join.prefill(StreamTag::S, &prefill).unwrap();
            for &(tag, t) in &inputs {
                join.process(tag, t).unwrap();
            }
            join.flush().unwrap();
            let outcome = join.shutdown().unwrap();
            if traced {
                obs::trace::disable();
            }
            outcome
        };

        let plain = run(false);
        assert!(plain.trace.is_empty());
        let traced = run(true);

        assert_eq!(as_multiset(&plain.results), as_multiset(&traced.results));
        assert_eq!(plain.worker_stats, traced.worker_stats);

        // Healthy run: the router ring stays empty and is not attached.
        assert_eq!(traced.trace.len(), 3);
        let mut tracks: Vec<_> = traced.trace.iter().map(|r| r.track().to_string()).collect();
        tracks.sort();
        assert_eq!(tracks, ["sw.worker.0", "sw.worker.1", "sw.worker.2"]);
        for ring in &traced.trace {
            assert_eq!(ring.domain(), obs::trace::TimeDomain::Wall);
            assert!(!ring.is_empty(), "worker ring {} is empty", ring.track());
            let names: HashMap<&str, u32> =
                ring.events().iter().fold(HashMap::new(), |mut m, e| {
                    *m.entry(e.name).or_insert(0) += 1;
                    m
                });
            for name in names.keys() {
                assert!(
                    ["recv", "probe", "insert", "send"].contains(name),
                    "unexpected span name {name}"
                );
            }
            assert!(names.contains_key("probe"), "no probe spans on {}", ring.track());
            assert!(names.contains_key("insert"), "no insert spans on {}", ring.track());
        }
    }

    // ---- partitioned (keyed) dispatch ----

    fn part_config(cores: usize, window: usize) -> SplitJoinConfig {
        SplitJoinConfig::new(cores, window).with_partitioning(Partitioning::Hash)
    }

    #[test]
    fn partitioned_counting_shortcut_matches_the_chain_walk() {
        // Keyed dispatch + counting-only takes the O(1) chain-length
        // shortcut; collecting runs walk the chain. The tallies must not
        // move, at any batch size.
        let inputs: Vec<_> = WorkloadSpec::new(800, KeyDist::Zipf { domain: 64, s: 1.2 })
            .generate()
            .collect();
        let (walked, _) = assert_batch_size_invariant(
            |batch| part_config(4, 32).with_batch_size(batch),
            &inputs,
            "keyed collecting",
        );
        let (counted, _) = assert_batch_size_invariant(
            |batch| part_config(4, 32).with_batch_size(batch).counting_only(),
            &inputs,
            "keyed counting",
        );
        assert_eq!(
            as_multiset(&walked.results),
            as_multiset(&reference_join(&inputs, 32, JoinPredicate::Equi))
        );
        assert_eq!(counted.result_count, walked.result_count);
        assert_eq!(counted.worker_stats, walked.worker_stats);
        let ks = counted.kernel_stats.unwrap();
        assert_eq!(ks.tiles, 0, "keyed dispatch never tiles");
        assert_eq!(ks.lanes, counted.result_count, "one lane per chain entry");
    }

    #[test]
    fn partitioned_matches_reference_exactly() {
        let inputs: Vec<_> = WorkloadSpec::new(500, KeyDist::Uniform { domain: 16 })
            .generate()
            .collect();
        let want = as_multiset(&reference_join(&inputs, 64, JoinPredicate::Equi));
        assert!(!want.is_empty());
        for cores in [1usize, 2, 4, 8] {
            let outcome = run_workload(part_config(cores, 64), &inputs);
            assert_eq!(
                as_multiset(&outcome.results),
                want,
                "partitioned mismatch with {cores} cores"
            );
            assert!(!outcome.fault.degraded(), "healthy run must not degrade");
            let ps = outcome.partition_stats.expect("partitioned runs carry stats");
            assert_eq!(ps.live.len(), cores);
            // Steady state: the shards together hold exactly one window
            // per stream (the streams alternate, 250 tuples each > 64).
            assert_eq!(ps.occupancy.iter().sum::<u64>(), 128);
        }
    }

    #[test]
    fn partitioned_matches_broadcast_under_skew() {
        let inputs: Vec<_> = WorkloadSpec::new(600, KeyDist::Zipf { domain: 12, s: 0.8 })
            .generate()
            .collect();
        let want = as_multiset(&reference_join(&inputs, 48, JoinPredicate::Equi));
        assert!(!want.is_empty());
        let broadcast = run_workload(SplitJoinConfig::new(3, 48), &inputs);
        let partitioned = run_workload(part_config(3, 48), &inputs);
        assert_eq!(as_multiset(&broadcast.results), want);
        assert_eq!(as_multiset(&partitioned.results), want);
    }

    #[test]
    fn partitioned_hot_split_keeps_results_and_rebalances() {
        // Heavy skew on a tiny domain: key 0 takes ~45% of the traffic.
        // With the sample floor lowered the router must split it, and
        // splitting must not change the result multiset.
        let inputs: Vec<_> = WorkloadSpec::new(4_000, KeyDist::Zipf { domain: 8, s: 1.2 })
            .generate()
            .collect();
        let want = as_multiset(&reference_join(&inputs, 64, JoinPredicate::Equi));
        let split = run_workload(part_config(4, 64).with_hot_sample(64), &inputs);
        let nosplit =
            run_workload(part_config(4, 64).with_hot_key_factor(1e9), &inputs);
        assert_eq!(as_multiset(&split.results), want, "hot-split broke the join");
        assert_eq!(as_multiset(&nosplit.results), want, "nosplit broke the join");
        let split_stats = split.partition_stats.unwrap();
        let nosplit_stats = nosplit.partition_stats.unwrap();
        assert!(split_stats.hot_splits >= 1, "skewed run must promote a key");
        assert_eq!(nosplit_stats.hot_splits, 0);
        assert!(
            split_stats.balance() < nosplit_stats.balance(),
            "splitting must improve occupancy balance: split {:.2} vs nosplit {:.2}",
            split_stats.balance(),
            nosplit_stats.balance()
        );
    }

    #[test]
    fn partitioned_counting_only_agrees_with_collected() {
        let inputs: Vec<_> = WorkloadSpec::new(800, KeyDist::Zipf { domain: 10, s: 1.0 })
            .generate()
            .collect();
        let collected = run_workload(part_config(4, 32), &inputs);
        let counted = run_workload(part_config(4, 32).counting_only(), &inputs);
        assert!(collected.result_count > 0);
        assert_eq!(counted.result_count, collected.result_count);
        assert!(counted.results.is_empty());
    }

    #[test]
    fn partitioned_prefill_loads_without_probing() {
        let join = SplitJoin::spawn(part_config(2, 16));
        let warm: Vec<Tuple> = (0..8).map(|k| Tuple::new(k, 100 + u32::from(k as u8))).collect();
        join.prefill(StreamTag::S, &warm).unwrap();
        // One probe against the warmed S shard: exactly one match, and
        // the prefill itself produced none.
        join.process(StreamTag::R, Tuple::new(3, 7)).unwrap();
        join.flush().unwrap();
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.result_count, 1);
        assert_eq!(outcome.results[0].r.raw(), Tuple::new(3, 7).raw());
        // Keyed probes only touch the matching chain: comparisons ==
        // matches, like the hash algorithm.
        let comparisons: u64 = outcome.worker_stats.iter().map(|w| w.comparisons).sum();
        assert_eq!(comparisons, 1);
    }

    #[test]
    fn partitioned_kill_is_recovered_with_exact_orphans() {
        let inputs: Vec<_> = WorkloadSpec::new(600, KeyDist::Uniform { domain: 16 })
            .generate()
            .collect();
        let victim = 1usize;
        let config = part_config(4, 64)
            .with_batch_size(50)
            .with_fault_plan(FaultPlan::none().with(FaultEvent::Kill {
                worker: victim,
                after_batch: 4,
            }));
        let outcome = run_workload(config, &inputs);
        assert!(outcome.fault.degraded());
        assert_eq!(outcome.fault.workers_lost, vec![victim]);
        // The victim owned a share of a full two-stream window when it
        // died (4 batches of 50 ≫ 2×64 window).
        assert!(outcome.fault.orphaned_tuples > 0);
        assert!(outcome.fault.orphaned_tuples <= 128);
        let ps = outcome.partition_stats.unwrap();
        assert!(!ps.live.contains(&victim));
        assert_eq!(ps.occupancy[victim], 0, "retired ledger must be cleared");
        // Results from the healthy run form a superset: losing a shard
        // only ever loses matches.
        let healthy = run_workload(part_config(4, 64).with_batch_size(50), &inputs);
        let lossy = as_multiset(&outcome.results);
        let full = as_multiset(&healthy.results);
        for (pair, n) in &lossy {
            assert!(full.get(pair).is_some_and(|m| m >= n), "degraded run invented {pair:?}");
        }
        assert!(outcome.result_count < healthy.result_count);
    }

    #[test]
    fn partitioned_kill_leaves_the_flush_and_drain_barriers_live() {
        // Keyed dispatch acknowledges flushes through the per-worker
        // token cells: a retired position must drop out of the barrier
        // instead of wedging it, the drain must complete over the
        // survivors, and the orphan count must be exactly the victim's
        // ledger — its share of the last window of each stream.
        let inputs: Vec<_> = WorkloadSpec::new(600, KeyDist::Uniform { domain: 16 })
            .generate()
            .collect();
        let (cores, window, batch, victim, after_batch) = (4usize, 64usize, 50usize, 1usize, 4u64);
        // Splitting disabled, so every key is stored at its rendezvous owner.
        let config = part_config(cores, window)
            .with_batch_size(batch)
            .with_hot_key_factor(1e9)
            .with_fault_plan(FaultPlan::none().with(FaultEvent::Kill {
                worker: victim,
                after_batch,
            }));
        let join = SplitJoin::spawn(config);
        for &(tag, t) in &inputs {
            join.process(tag, t).unwrap();
        }
        join.flush().expect("barrier must cover the survivors");
        let drained = join.drain_results().expect("drain must complete after a kill");
        assert!(!drained.is_empty());
        let outcome = join.shutdown().unwrap();
        assert_eq!(outcome.fault.workers_lost, vec![victim]);
        assert_eq!(drained.len() as u64, outcome.result_count, "the drain harvested everything");

        let map = PartitionMap::identity(cores);
        let before_kill = &inputs[..batch * after_batch as usize];
        let ledger: usize = [StreamTag::R, StreamTag::S]
            .into_iter()
            .map(|side| {
                before_kill
                    .iter()
                    .rev()
                    .filter(|&&(tag, _)| tag == side)
                    .take(window)
                    .filter(|&&(_, t)| map.key_owner(t.key()) == victim)
                    .count()
            })
            .sum();
        assert!(ledger > 0);
        assert_eq!(outcome.fault.orphaned_tuples, ledger as u64);
    }

    #[test]
    #[should_panic(expected = "equi-join predicate")]
    fn partitioned_rejects_non_equi_predicates() {
        let _ = SplitJoin::spawn(
            part_config(2, 16).with_predicate(JoinPredicate::Band { delta: 2 }),
        );
    }

    #[test]
    #[should_panic(expected = "replication is not supported")]
    fn partitioned_rejects_replication() {
        let _ = SplitJoin::spawn(part_config(2, 16).with_replication());
    }

    #[test]
    fn partitioned_registry_publishes_partition_counters() {
        let inputs: Vec<_> = WorkloadSpec::new(400, KeyDist::Uniform { domain: 8 })
            .generate()
            .collect();
        let outcome = run_workload(part_config(2, 32), &inputs);
        let reg = outcome.registry();
        assert!(reg.get("splitjoin.partition.routed").is_some_and(|v| v > 0));
        assert!(reg.get("splitjoin.partition.hot_splits").is_some());
        assert!(reg.get("splitjoin.partition.occupancy_max").is_some_and(|v| v > 0));
        assert!(reg.get("splitjoin.partition.balance_x1000").is_some_and(|v| v > 0));
        assert!(reg.get("splitjoin.partition.worker0.occupancy").is_some());
        assert!(reg.get("splitjoin.partition.worker1.occupancy").is_some());
        // Broadcast runs must keep their exact pre-partitioning shape.
        let broadcast = run_workload(SplitJoinConfig::new(2, 32), &inputs);
        assert!(broadcast.partition_stats.is_none());
        assert!(!broadcast
            .registry()
            .iter()
            .any(|(n, _)| n.starts_with("splitjoin.partition.")));
    }

    #[test]
    #[cfg(feature = "obs")]
    fn live_plane_exports_router_and_worker_metrics() {
        // The live registry is process-global: arm the plane, run one
        // engine, then check the global snapshot for
        // every exported key family. Sibling tests running concurrently
        // can only *add* to the shared counters, so the floor
        // assertions below stay race-free.
        obs::live::set_active(true);
        let inputs: Vec<_> = WorkloadSpec::new(600, KeyDist::Uniform { domain: 16 })
            .generate()
            .collect();
        let outcome = run_workload(SplitJoinConfig::new(2, 32).with_batch_size(64), &inputs);
        obs::live::set_active(false);
        assert!(!outcome.results.is_empty());

        let snap = obs::live::global().snapshot();
        for key in [
            "splitjoin.batches",
            "splitjoin.tuples",
            "splitjoin.matches",
            "splitjoin.partition.routed",
            "splitjoin.ring.occupancy",
            "splitjoin.ring.capacity",
            "splitjoin.arena.lag",
            "splitjoin.workers.live",
            "fault.workers_lost",
            "fault.orphaned_tuples",
            "splitjoin.worker.0.batches",
            "splitjoin.worker.0.tuples",
            "splitjoin.worker.0.matches",
            "splitjoin.worker.0.busy_ns",
            "splitjoin.worker.0.wait_ns",
            "splitjoin.worker.0.heartbeat_age_ns",
            "splitjoin.worker.1.heartbeat_age_ns",
        ] {
            assert!(snap.get(key).is_some(), "missing live key {key}");
        }
        assert!(snap.get("splitjoin.tuples").unwrap() >= 600);
        assert!(snap.get("splitjoin.batches").unwrap() >= 600 / 64);
        assert!(snap.get("splitjoin.matches").unwrap() > 0);
        assert!(snap.get("splitjoin.ring.capacity").unwrap() > 0);
        assert!(snap.get("splitjoin.worker.0.busy_ns").unwrap() > 0);
    }

    #[test]
    #[cfg(feature = "obs")]
    fn unarmed_live_plane_registers_nothing_new() {
        // Spawning without `obs::live::set_active(true)` must not touch
        // the global registry — the engine's `live` field stays `None`.
        obs::live::set_active(false);
        let inputs: Vec<_> = WorkloadSpec::new(50, KeyDist::Uniform { domain: 4 })
            .generate()
            .collect();
        let outcome = run_workload(SplitJoinConfig::new(2, 16), &inputs);
        assert!(!outcome.results.is_empty());
        // No assertion on registry size (armed sibling tests may be
        // interleaved); instead prove the cheap-path predicate directly.
        assert!(!obs::live::active());
    }
}

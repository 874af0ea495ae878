//! [`JoinOutcome`]: everything a run leaves behind at shutdown, whichever
//! engine ran it, and the metric names it publishes under.

use crate::error::WorkerStats;
use streamcore::kernel::KernelStats;
use streamcore::MatchPair;

use crate::fault::FaultReport;

/// The metric names an engine publishes both ways — live, into
/// `obs::live::global()` while it runs, and post-mortem, in
/// [`JoinOutcome::values`]. Spelling each here once is what makes the
/// two agree key for key. Each engine's keys live under its own
/// namespace, which is also its [`JoinOutcome::engine`].
pub(crate) mod key {
    pub const SPLITJOIN: &str = "splitjoin";
    pub const HANDSHAKE: &str = "handshake";
    pub const BASELINE: &str = "baseline";
    pub const ROUTED: &str = "splitjoin.partition.routed";

    /// `<engine>.batches`.
    pub fn batches(engine: &str) -> String {
        format!("{engine}.batches")
    }

    /// `<engine>.matches`.
    pub fn matches(engine: &str) -> String {
        format!("{engine}.matches")
    }

    /// `<engine>.worker.<position>.<what>`.
    pub fn worker(engine: &str, position: usize, what: &str) -> String {
        format!("{engine}.worker.{position}.{what}")
    }
}

/// Distribution-ring and arena telemetry, attached to every SplitJoin
/// outcome.
#[derive(Debug, Clone, Default)]
pub struct RingStats {
    /// Distribution-ring occupancy (queued messages) sampled at every
    /// router send.
    pub occupancy: obs::Histogram,
    /// Peak of the occupancy samples (`occupancy.max()`), set once at
    /// shutdown.
    pub peak_occupancy: obs::Gauge,
    /// Nanoseconds the router waited for ring or arena space, one sample
    /// per send/publish that could not complete on the fast path.
    pub claim_wait_ns: obs::Histogram,
}

/// Partitioned-dispatch telemetry, attached to the outcome when the run
/// used [`Partitioning::Hash`](crate::config::Partitioning::Hash).
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
    /// load-balance figure `figs partition` reports as
    /// `zipf.<variant>.occupancy_ratio` (`1.0` is perfectly even;
    /// broadcast-free skew pathologies push it toward the live worker
    /// count). `0.0` when nothing is stored.
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

/// Everything a software join engine leaves behind at shutdown — the
/// one outcome of [`StreamJoin::shutdown`](crate::streamjoin::StreamJoin::shutdown),
/// whichever engine ran. The three `Option` telemetry fields are
/// SplitJoin's.
#[derive(Debug, Clone, Default)]
pub struct JoinOutcome {
    /// The engine that built the outcome — `"splitjoin"`, `"handshake"`
    /// or `"baseline"` — and the namespace of [`JoinOutcome::values`].
    pub engine: &'static str,
    /// Collected results no mid-run
    /// [`drain_results`](crate::streamjoin::StreamJoin::drain_results) call
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
    /// sent per worker (on the chain: wave groups injected at the
    /// entries).
    pub batch_sizes: obs::Histogram,
    /// Wall-clock span rings, one per worker (`sw.worker.<position>`,
    /// `hs.core.<position>` on the chain): receive waits and per-batch
    /// probe/prefill/flush work. A SplitJoin run that
    /// recovered workers also carries a `sw.router` ring with one
    /// `recover` span per loss. Empty unless tracing was enabled when
    /// the workers were spawned (see `obs::trace`).
    pub trace: Vec<obs::trace::TraceRing>,
    /// What went wrong, if anything: lost workers, orphaned tuples,
    /// recovery latency. All-zero (and [`FaultReport::degraded`] is
    /// `false`) for a healthy run.
    pub fault: FaultReport,
    /// Distribution-ring telemetry: `Some` from SplitJoin, `None` from
    /// the chain and the baseline.
    pub ring_stats: Option<RingStats>,
    /// Partitioned-dispatch telemetry; `None` in broadcast mode, so
    /// broadcast manifests keep their exact pre-partitioning shape.
    pub partition_stats: Option<PartitionStats>,
    /// Probe-kernel telemetry, folded across workers (`tiles` stays 0
    /// when only the per-tuple path ran): `Some` from SplitJoin, `None`
    /// from the chain and the baseline.
    pub kernel_stats: Option<KernelStats>,
}

impl JoinOutcome {
    /// The run's counters under stable dotted names in the engine's
    /// namespace (`<engine>.worker.<i>.probes`, `.stored`, `.matches`,
    /// `<engine>.batches`, `<engine>.matches`; SplitJoin's ring,
    /// partition and kernel telemetry under `splitjoin.*`) for a
    /// [`RunManifest`](obs::RunManifest). A key the live plane also
    /// exports carries the value its cell reached at shutdown. Degraded
    /// runs additionally publish the `fault.*` namespace; healthy runs
    /// do **not**, so manifests keep their exact pre-fault-model shape.
    pub fn values(&self) -> obs::Values {
        let engine = self.engine;
        let mut reg = obs::Values::new();
        reg.record(key::batches(engine), self.batch_sizes.total());
        reg.record(key::matches(engine), self.result_count);
        for (i, ws) in self.worker_stats.iter().enumerate() {
            reg.record(key::worker(engine, i, "probes"), ws.comparisons);
            reg.record(key::worker(engine, i, "stored"), ws.stored);
            reg.record(key::worker(engine, i, "matches"), ws.matches);
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
            reg.record(key::ROUTED, ps.routed);
            let mut max = 0u64;
            for (i, &occ) in ps.occupancy.iter().enumerate() {
                reg.record(format!("splitjoin.partition.worker.{i}.occupancy"), occ);
                max = max.max(occ);
            }
            reg.record("splitjoin.partition.occupancy_max", max);
            // Fixed-point (×1000) so the integer map carries it.
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

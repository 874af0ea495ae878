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

/// Distribution-ring telemetry, attached to every SplitJoin
/// outcome.
#[derive(Debug, Clone, Default)]
pub struct RingStats {
    /// Peak distribution-ring occupancy (queued messages) seen at any
    /// router send.
    pub peak_occupancy: obs::Metric,
    /// Nanoseconds the router waited for ring space, one sample per
    /// send that could not complete on the fast path.
    pub claim_wait_ns: obs::Histogram,
}

/// Everything a software join engine leaves behind at shutdown — the
/// one outcome of [`StreamJoin::shutdown`](crate::streamjoin::StreamJoin::shutdown),
/// whichever engine ran. The two `Option` telemetry fields are
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
    /// Probe-kernel telemetry, folded across workers (`tiles` stays 0
    /// when only the per-tuple path ran): `Some` from SplitJoin, `None`
    /// from the chain and the baseline.
    pub kernel_stats: Option<KernelStats>,
}

impl JoinOutcome {
    /// The run's counters under stable dotted names in the engine's
    /// namespace (`<engine>.worker.<i>.probes`, `.stored`, `.matches`,
    /// `<engine>.batches`, `<engine>.matches`; SplitJoin's ring and
    /// kernel telemetry under `splitjoin.*`) for a
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
        if let Some(ks) = &self.kernel_stats {
            reg.record("splitjoin.kernel.tiles", ks.tiles);
            reg.record("splitjoin.kernel.lanes", ks.lanes);
            reg.record("splitjoin.kernel.match_density_x1000", ks.density_x1000());
            reg.record("splitjoin.kernel.scalar_fallbacks", ks.scalar_fallbacks);
        }
        reg
    }
}

//! Handles into the process-global live telemetry plane (`obs::live`)
//! for what only the router and the worker loop know: routing counts,
//! lane depths, busy and wait time, and the pool's match total. A
//! worker's statistics and beat stamp reach the plane through its
//! `WorkerCell` (`WorkerCell::new`), not from here.

use crate::error::WorkerStats;

use super::SplitJoinConfig;
use crate::fault;
use crate::outcome::key::{self, SPLITJOIN};

/// Router-side handles into the process-global live telemetry plane
/// (`obs::live`), created at spawn only when the plane was armed
/// (`obs::live::set_active(true)` *before*
/// [`SplitJoin::spawn`](super::SplitJoin::spawn)). Every update is a
/// relaxed atomic at per-batch granularity — an armed plane costs a
/// handful of stores per *batch*, an unarmed one a single relaxed load
/// at spawn.
#[derive(Debug)]
pub(super) struct LiveRouter {
    /// `splitjoin.batches` — caller batches routed.
    batches: obs::Counter,
    /// `splitjoin.tuples` — stream tuples routed through batches.
    tuples: obs::Counter,
    /// `splitjoin.worker.<i>.ring_occupancy` — messages queued on each
    /// worker's lane, read at every push to it here and at every pop by
    /// [`LiveWorker`] (instantaneous; the sampler turns it into a
    /// trajectory).
    pub(super) ring_occupancy: Vec<obs::Gauge>,
    /// `splitjoin.workers.live` — live positions in the partition map.
    workers_live: obs::Gauge,
    /// `fault.workers_lost` / `fault.orphaned_tuples` — degradation as
    /// it happens (the outcome's `fault.*` values only exist after
    /// shutdown).
    workers_lost: obs::Counter,
    orphaned: obs::Counter,
}

impl LiveRouter {
    pub(super) fn new(config: &SplitJoinConfig) -> Self {
        let reg = obs::live::global();
        let this = Self {
            batches: reg.counter(&key::batches(SPLITJOIN)),
            tuples: reg.counter("splitjoin.tuples"),
            ring_occupancy: (0..config.num_cores)
                .map(|i| reg.gauge(&key::worker(SPLITJOIN, i, "ring_occupancy")))
                .collect(),
            workers_live: reg.gauge("splitjoin.workers.live"),
            workers_lost: reg.counter(fault::KEY_WORKERS_LOST),
            orphaned: reg.counter(fault::KEY_ORPHANED_TUPLES),
        };
        this.workers_live.set(config.num_cores as u64);
        // Lane capacity is a constant of the run; exporting it lets
        // `obs::health` turn each lane's occupancy into a fraction.
        reg.gauge("splitjoin.ring.capacity")
            .set(config.channel_capacity as u64);
        this
    }

    /// One routed batch.
    pub(super) fn on_batch(&self, len: usize) {
        self.batches.incr();
        self.tuples.add(len as u64);
    }

    /// One retired worker. Its beat stamp is cleared by its own exit, so
    /// it stops reading as silent and the loss shows here instead.
    pub(super) fn on_worker_lost(&self, orphans: u64, live_count: usize) {
        self.workers_lost.incr();
        self.orphaned.add(orphans);
        self.workers_live.set(live_count as u64);
    }
}

/// Worker-side live handles (`splitjoin.worker.<i>.*`), updated once per
/// processed message from the worker thread itself.
#[derive(Debug)]
pub(super) struct LiveWorker {
    batches: obs::Counter,
    /// `splitjoin.matches` — pool-wide match total. Each match is found
    /// by exactly one worker, so the per-worker deltas sum exactly.
    matches_total: obs::Counter,
    busy_ns: obs::Counter,
    pub(super) wait_ns: obs::Counter,
    /// The lane's `ring_occupancy` gauge, shared with [`LiveRouter`]:
    /// the pop side keeps a lane that drained while the router was
    /// blocked elsewhere from reading as full.
    pub(super) ring_occupancy: obs::Gauge,
    /// The worker's match count at its last message, for the delta.
    last_matches: u64,
}

impl LiveWorker {
    pub(super) fn new(position: usize) -> Self {
        let reg = obs::live::global();
        let name = |what: &str| key::worker(SPLITJOIN, position, what);
        Self {
            batches: reg.counter(&name("batches")),
            matches_total: reg.counter(&key::matches(SPLITJOIN)),
            busy_ns: reg.counter(&name("busy_ns")),
            wait_ns: reg.counter(&name("wait_ns")),
            ring_occupancy: reg.gauge(&name("ring_occupancy")),
            last_matches: 0,
        }
    }

    /// One processed message: service time, and its matches into the
    /// pool total. The matches of a message a scripted kill took stay in
    /// the worker's own tally, as they do in its `WorkerStats`, but were
    /// never `handed_over` to the pool total (`fault.results_dropped`).
    pub(super) fn after_msg(&mut self, stats: &WorkerStats, busy_start_ns: u64, handed_over: bool) {
        self.busy_ns
            .add(obs::trace::now_ns().saturating_sub(busy_start_ns));
        self.batches.incr();
        if handed_over {
            self.matches_total.add(stats.matches - self.last_matches);
        }
        self.last_matches = stats.matches;
    }
}

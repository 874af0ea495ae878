//! Handles into the process-global live telemetry plane (`obs::live`).

use std::sync::Arc;

use crate::error::WorkerStats;

use super::SplitJoinConfig;
use crate::fault;
use crate::outcome::key::{self, SPLITJOIN};
use crate::supervise::WorkerCell;

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
    /// `splitjoin.worker.<i>.heartbeat_age_ns` — nanoseconds since each
    /// live worker's last heartbeat, refreshed once per routed batch and
    /// for the worker whose full lane the router is waiting on, so a
    /// stalling worker shows in the live series long before the 10 s
    /// saturation deadline.
    pub(super) heartbeat_age: Vec<obs::Gauge>,
}

impl LiveRouter {
    pub(super) fn new(config: &SplitJoinConfig) -> Self {
        let reg = obs::live::global();
        let per_worker = |what: &str| -> Vec<obs::Gauge> {
            (0..config.num_cores)
                .map(|i| reg.gauge(&key::worker(SPLITJOIN, i, what)))
                .collect()
        };
        let this = Self {
            batches: reg.counter(&key::batches(SPLITJOIN)),
            tuples: reg.counter("splitjoin.tuples"),
            ring_occupancy: per_worker("ring_occupancy"),
            workers_live: reg.gauge("splitjoin.workers.live"),
            workers_lost: reg.counter(fault::KEY_WORKERS_LOST),
            orphaned: reg.counter(fault::KEY_ORPHANED_TUPLES),
            heartbeat_age: per_worker("heartbeat_age_ns"),
        };
        this.workers_live.set(config.num_cores as u64);
        // Lane capacity is a constant of the run; exporting it lets
        // `obs::health` turn each lane's occupancy into a fraction.
        reg.gauge("splitjoin.ring.capacity")
            .set(config.channel_capacity as u64);
        this
    }

    /// Per-batch router-side refresh: throughput counters plus the
    /// heartbeat-age gauge of every live worker (one clock read).
    pub(super) fn on_batch(&self, len: usize, cells: &[Arc<WorkerCell>], live: &[usize]) {
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
    pub(super) fn on_worker_lost(&self, worker: usize, orphans: u64, live_count: usize) {
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
pub(super) struct LiveWorker {
    batches: obs::Counter,
    tuples: obs::Counter,
    matches: obs::Counter,
    /// `splitjoin.matches` — pool-wide match total. Each match is found
    /// by exactly one worker, so the per-worker deltas sum exactly.
    matches_total: obs::Counter,
    busy_ns: obs::Counter,
    pub(super) wait_ns: obs::Counter,
    /// The lane's `ring_occupancy` gauge, shared with [`LiveRouter`]:
    /// the pop side keeps a lane that drained while the router was
    /// blocked elsewhere from reading as full.
    pub(super) ring_occupancy: obs::Gauge,
    last_tuples: u64,
    last_matches: u64,
}

impl LiveWorker {
    pub(super) fn new(position: usize) -> Self {
        let reg = obs::live::global();
        let name = |what: &str| key::worker(SPLITJOIN, position, what);
        Self {
            batches: reg.counter(&name("batches")),
            tuples: reg.counter(&name("tuples")),
            matches: reg.counter(&name("matches")),
            matches_total: reg.counter(&key::matches(SPLITJOIN)),
            busy_ns: reg.counter(&name("busy_ns")),
            wait_ns: reg.counter(&name("wait_ns")),
            ring_occupancy: reg.gauge(&name("ring_occupancy")),
            last_tuples: 0,
            last_matches: 0,
        }
    }

    /// One processed message: service time plus stat deltas. The
    /// matches of a message a scripted kill took stay in the worker's own
    /// tally, as they do in its `WorkerStats`, but were never
    /// `handed_over` to the pool total (`fault.results_dropped`).
    pub(super) fn after_msg(&mut self, stats: &WorkerStats, busy_start_ns: u64, handed_over: bool) {
        self.busy_ns
            .add(obs::trace::now_ns().saturating_sub(busy_start_ns));
        self.batches.incr();
        self.tuples.add(stats.tuples_seen - self.last_tuples);
        self.last_tuples = stats.tuples_seen;
        let dm = stats.matches - self.last_matches;
        self.last_matches = stats.matches;
        if dm > 0 {
            self.matches.add(dm);
            if handed_over {
                self.matches_total.add(dm);
            }
        }
    }
}

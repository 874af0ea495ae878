//! Handles into the process-global live telemetry plane (`obs::live`)
//! for what only SplitJoin's router knows: the live positions of the
//! partition map and the losses as they happen. What the caller injects
//! is counted by the engines' shared `supervise::LiveIntake`, and every
//! per-core reading lives in the core's `WorkerCell` (`WorkerCell::new`).

use crate::fault;

/// Router-side handles into the process-global live telemetry plane
/// (`obs::live`), created at spawn only when the plane was armed
/// (`obs::live::set_active(true)` *before*
/// [`SplitJoin::spawn`](super::SplitJoin::spawn)). Updated only when a
/// worker is lost.
#[derive(Debug)]
pub(super) struct LiveRouter {
    /// `splitjoin.workers.live` — live positions in the partition map.
    workers_live: obs::Metric,
    /// `fault.workers_lost` / `fault.orphaned_tuples` — degradation as
    /// it happens (the outcome's `fault.*` values only exist after
    /// shutdown).
    workers_lost: obs::Metric,
    orphaned: obs::Metric,
}

impl LiveRouter {
    pub(super) fn new(num_cores: usize) -> Self {
        use obs::MetricKind::{Level, Total};
        let reg = obs::live::global();
        let this = Self {
            workers_live: reg.metric("splitjoin.workers.live", Level),
            workers_lost: reg.metric(fault::KEY_WORKERS_LOST, Total),
            orphaned: reg.metric(fault::KEY_ORPHANED_TUPLES, Total),
        };
        this.workers_live.set(num_cores as u64);
        this
    }

    /// One retired worker. Its beat stamp is cleared by its own exit, so
    /// it stops reading as silent and the loss shows here instead.
    pub(super) fn on_worker_lost(&self, orphans: u64, live_count: usize) {
        self.workers_lost.add(1);
        self.orphaned.add(orphans);
        self.workers_live.set(live_count as u64);
    }
}

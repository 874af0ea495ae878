//! Deterministic fault injection for the software join runtimes.
//!
//! A [`FaultPlan`] is a list of scripted [`FaultEvent`]s — kill worker *k*
//! after batch *n*, stall worker *k* for *d* ms at batch *n*, drop a
//! batch on a channel, panic a worker — indexed entirely by **message
//! counts**, never wall-clock randomness, so every run of a plan unfolds
//! identically. The plan travels inside the join configuration
//! ([`crate::config::JoinConfig::fault_plan`]): the coordinator consults
//! it to recover *proactively* at the exact batch boundary a kill is
//! scripted for (which is what makes completeness-loss accounting exact),
//! and each worker consults it to act out its own stalls, drops, and
//! panics.
//!
//! [`FaultReport`] is the other half: every join outcome carries one,
//! summarizing what actually went wrong — which workers were lost, how
//! many stored tuples their sub-windows orphaned, and the recovery
//! latency distribution. An empty plan yields a report for which
//! [`FaultReport::degraded`] is `false` and the outcome (including its
//! published values) is byte-identical to a build without the fault
//! layer.

use streamcore::PartitionMap;

/// One scripted fault. Batch numbers are 1-indexed counts of data batch
/// messages (prefill and control messages don't count), as observed
/// identically by the coordinator and by every worker — the channels are
/// FIFO and batches are broadcast, so "batch 100" is the same instant
/// everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Worker `worker` exits abruptly after fully processing batch
    /// `after_batch` (buffered un-flushed results are lost with it).
    Kill {
        /// Core position of the victim.
        worker: usize,
        /// Last batch the worker processes before dying.
        after_batch: u64,
    },
    /// Worker `worker` freezes for `millis` before processing batch
    /// `at_batch` — back-pressure builds while its channel saturates.
    Stall {
        /// Core position of the victim.
        worker: usize,
        /// Batch whose processing is delayed.
        at_batch: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Batch `at_batch` is dropped on the floor by worker `worker`'s
    /// channel: the worker never probes or stores its tuples. Its
    /// round-robin counters silently diverge from the other workers' —
    /// deliberate, realistic corruption that the drop scenario measures.
    Drop {
        /// Core position of the victim.
        worker: usize,
        /// Batch that is lost in transit.
        at_batch: u64,
    },
    /// Worker `worker` panics while processing batch `at_batch` (after
    /// publishing its statistics snapshot, so shutdown can report them
    /// via `JoinError::WorkerPanicked`).
    Panic {
        /// Core position of the victim.
        worker: usize,
        /// Batch the panic fires on.
        at_batch: u64,
    },
}

impl FaultEvent {
    /// Core position this event targets.
    pub fn worker(&self) -> usize {
        match *self {
            FaultEvent::Kill { worker, .. }
            | FaultEvent::Stall { worker, .. }
            | FaultEvent::Drop { worker, .. }
            | FaultEvent::Panic { worker, .. } => worker,
        }
    }
}

/// A deterministic fault schedule (see the [module docs](self)).
///
/// The default plan is empty: no faults, and a data path that behaves
/// (and measures) exactly like the pre-fault-model runtime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scripted events, in no particular order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no faults are scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds one event (builder style).
    #[must_use]
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Parses the compact scenario grammar used by the fault test
    /// tables and the `faults` bench binary: a comma-separated list of
    ///
    /// * `kill<W>[@B]` — kill worker W after batch B (default 100);
    /// * `stall[<W>][@B[x<MS>]]` — stall worker W (default 0) at batch B
    ///   (default 50) for MS milliseconds (default 20);
    /// * `drop<W>[@B]` — drop worker W's batch B (default 10);
    /// * `panic<W>[@B]` — panic worker W at batch B (default 5).
    ///
    /// ```
    /// use joinsw::fault::{FaultEvent, FaultPlan};
    ///
    /// let plan = FaultPlan::parse("kill1,stall0@50x20").unwrap();
    /// assert_eq!(plan.events[0], FaultEvent::Kill { worker: 1, after_batch: 100 });
    /// assert_eq!(
    ///     plan.events[1],
    ///     FaultEvent::Stall { worker: 0, at_batch: 50, millis: 20 },
    /// );
    /// ```
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            plan.events.push(parse_event(token)?);
        }
        Ok(plan)
    }

    /// Validates the plan against a concrete core count, the same way
    /// `batch_size` / `channel_capacity` are validated at spawn.
    ///
    /// # Panics
    ///
    /// Panics if any event targets a worker position `>= num_cores`.
    pub fn validate(&self, num_cores: usize) {
        for event in &self.events {
            assert!(
                event.worker() < num_cores,
                "fault plan targets worker {} but the join has {} cores",
                event.worker(),
                num_cores
            );
        }
    }

    /// Workers scripted to die immediately after `batch` (coordinator
    /// side: recover these proactively at that exact boundary).
    pub fn kills_after(&self, batch: u64) -> impl Iterator<Item = usize> + '_ {
        self.events.iter().filter_map(move |e| match *e {
            FaultEvent::Kill {
                worker,
                after_batch,
            } if after_batch == batch => Some(worker),
            _ => None,
        })
    }

    /// True when `worker` is scripted to exit after `batch`.
    pub fn kills(&self, worker: usize, batch: u64) -> bool {
        self.events.iter().any(|e| {
            matches!(*e, FaultEvent::Kill { worker: w, after_batch } if w == worker && after_batch == batch)
        })
    }

    /// Total stall milliseconds scripted for `worker` at `batch`.
    pub fn stall_ms(&self, worker: usize, batch: u64) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::Stall {
                    worker: w,
                    at_batch,
                    millis,
                } if w == worker && at_batch == batch => Some(millis),
                _ => None,
            })
            .sum()
    }

    /// True when `worker`'s batch `batch` is scripted to be dropped.
    pub fn drops(&self, worker: usize, batch: u64) -> bool {
        self.events.iter().any(|e| {
            matches!(*e, FaultEvent::Drop { worker: w, at_batch } if w == worker && at_batch == batch)
        })
    }

    /// True when `worker` is scripted to panic at `batch`.
    pub fn panics(&self, worker: usize, batch: u64) -> bool {
        self.events.iter().any(|e| {
            matches!(*e, FaultEvent::Panic { worker: w, at_batch } if w == worker && at_batch == batch)
        })
    }
}

fn parse_event(token: &str) -> Result<FaultEvent, String> {
    let (head, tail) = match token.split_once('@') {
        Some((h, t)) => (h, Some(t)),
        None => (token, None),
    };
    let split_kind = |kind: &str| -> Option<&str> { head.strip_prefix(kind) };
    let parse_num = |s: &str, what: &str| -> Result<u64, String> {
        s.parse::<u64>()
            .map_err(|_| format!("bad {what} in fault token {token:?}"))
    };
    if let Some(w) = split_kind("kill") {
        let worker = parse_num(w, "worker")? as usize;
        let after_batch = match tail {
            Some(t) => parse_num(t, "batch")?,
            None => 100,
        };
        return Ok(FaultEvent::Kill {
            worker,
            after_batch,
        });
    }
    if let Some(w) = split_kind("stall") {
        let worker = if w.is_empty() {
            0
        } else {
            parse_num(w, "worker")? as usize
        };
        let (at_batch, millis) = match tail {
            Some(t) => match t.split_once('x') {
                Some((b, ms)) => (parse_num(b, "batch")?, parse_num(ms, "millis")?),
                None => (parse_num(t, "batch")?, 20),
            },
            None => (50, 20),
        };
        return Ok(FaultEvent::Stall {
            worker,
            at_batch,
            millis,
        });
    }
    if let Some(w) = split_kind("drop") {
        let worker = parse_num(w, "worker")? as usize;
        let at_batch = match tail {
            Some(t) => parse_num(t, "batch")?,
            None => 10,
        };
        return Ok(FaultEvent::Drop { worker, at_batch });
    }
    if let Some(w) = split_kind("panic") {
        let worker = parse_num(w, "worker")? as usize;
        let at_batch = match tail {
            Some(t) => parse_num(t, "batch")?,
            None => 5,
        };
        return Ok(FaultEvent::Panic { worker, at_batch });
    }
    Err(format!("unknown fault token {token:?}"))
}

/// What actually went wrong during a run: the damage summary every join
/// outcome carries. With an empty [`FaultPlan`] and no organic failures
/// every field is zero and [`FaultReport::degraded`] is `false`.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Core positions lost during the run (killed, panicked, or organically
    /// dead), in recovery order.
    pub workers_lost: Vec<usize>,
    /// Stored tuples whose sub-window died with its worker: the exact
    /// match-completeness loss (each orphan can no longer be found by
    /// future probes). Counted from the coordinator's ownership model at
    /// the recovery boundary, not from the dead worker's own claims.
    pub orphaned_tuples: u64,
    /// Scripted stalls that fired.
    pub injected_stalls: u64,
    /// Scripted channel drops that fired.
    pub injected_drops: u64,
    /// Matches a worker found but never published: those of the message
    /// it was processing when a scripted kill took it.
    pub results_dropped: u64,
    /// Wall-clock nanoseconds per SplitJoin recovery (retire +
    /// re-partition), one histogram value per lost worker.
    pub recovery_ns: obs::Histogram,
}

/// The two `fault.*` names the live plane exports as they happen and
/// [`FaultReport::publish`] repeats at shutdown.
pub(crate) const KEY_WORKERS_LOST: &str = "fault.workers_lost";
pub(crate) const KEY_ORPHANED_TUPLES: &str = "fault.orphaned_tuples";

impl FaultReport {
    /// True when the run deviated from healthy behavior in any way.
    /// Outcomes publish their `fault.*` counters only in this
    /// case, so healthy manifests keep their exact pre-fault-model shape.
    pub fn degraded(&self) -> bool {
        !self.workers_lost.is_empty()
            || self.injected_stalls > 0
            || self.injected_drops > 0
            || self.results_dropped > 0
    }

    /// Publishes the report's counters under `fault.*` names into `reg`
    /// (call only when [`FaultReport::degraded`]; see there).
    pub fn publish(&self, reg: &mut obs::Values) {
        reg.record(KEY_WORKERS_LOST, self.workers_lost.len() as u64);
        reg.record(KEY_ORPHANED_TUPLES, self.orphaned_tuples);
        reg.record("fault.injected_stalls", self.injected_stalls);
        reg.record("fault.injected_drops", self.injected_drops);
        reg.record("fault.results_dropped", self.results_dropped);
        reg.record("fault.recoveries", self.recovery_ns.total());
    }
}

/// Closed-form count of round-robin storage turns owner `worker` received
/// in a stream of `sent` tuples distributed over `map` — the
/// coordinator's ownership model while the map is still full (owner of
/// turn `i` is `i % total`). Used to materialize exact per-worker
/// occupancy lazily at the first recovery, so the healthy hot path never
/// does per-tuple ownership accounting.
pub fn round_robin_share(map: &PartitionMap, worker: usize, sent: u64) -> u64 {
    debug_assert!(
        map.is_full(),
        "closed form only valid before any retirement"
    );
    let n = map.total() as u64;
    let w = worker as u64;
    sent / n + u64::from(sent % n > w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_the_whole_grammar() {
        let plan = FaultPlan::parse("kill1@7, stall@3x5, drop2, panic0@9, stall1").unwrap();
        assert_eq!(
            plan.events,
            vec![
                FaultEvent::Kill {
                    worker: 1,
                    after_batch: 7
                },
                FaultEvent::Stall {
                    worker: 0,
                    at_batch: 3,
                    millis: 5
                },
                FaultEvent::Drop {
                    worker: 2,
                    at_batch: 10
                },
                FaultEvent::Panic {
                    worker: 0,
                    at_batch: 9
                },
                FaultEvent::Stall {
                    worker: 1,
                    at_batch: 50,
                    millis: 20
                },
            ]
        );
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(FaultPlan::parse("explode3").is_err());
        assert!(FaultPlan::parse("kill").is_err());
        assert!(FaultPlan::parse("stall0@axb").is_err());
    }

    #[test]
    fn empty_specs_parse_to_the_empty_plan() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ").unwrap().is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn queries_index_by_worker_and_batch() {
        let plan = FaultPlan::parse("kill1@100,stall0@50x20,drop2@10,panic3@5").unwrap();
        assert!(plan.kills(1, 100));
        assert!(!plan.kills(1, 99));
        assert!(!plan.kills(0, 100));
        assert_eq!(plan.kills_after(100).collect::<Vec<_>>(), vec![1]);
        assert_eq!(plan.stall_ms(0, 50), 20);
        assert_eq!(plan.stall_ms(0, 51), 0);
        assert!(plan.drops(2, 10));
        assert!(plan.panics(3, 5));
        assert!(!plan.panics(3, 6));
    }

    #[test]
    #[should_panic(expected = "targets worker 4")]
    fn validate_rejects_out_of_range_workers() {
        FaultPlan::parse("kill4").unwrap().validate(4);
    }

    #[test]
    fn round_robin_share_matches_brute_force() {
        let map = PartitionMap::identity(4);
        for sent in [0u64, 1, 3, 4, 5, 100, 101, 102, 103] {
            for worker in 0..4usize {
                let brute = (0..sent).filter(|s| s % 4 == worker as u64).count() as u64;
                assert_eq!(
                    round_robin_share(&map, worker, sent),
                    brute,
                    "worker {worker}, sent {sent}"
                );
            }
        }
    }

    #[test]
    fn report_is_healthy_by_default() {
        let report = FaultReport::default();
        assert!(!report.degraded());
        let mut degraded = FaultReport::default();
        degraded.workers_lost.push(1);
        assert!(degraded.degraded());
    }

    #[test]
    fn publish_emits_the_fault_namespace() {
        let mut report = FaultReport::default();
        report.workers_lost.push(2);
        report.orphaned_tuples = 17;
        report.recovery_ns.record_value(1_000);
        let mut reg = obs::Values::new();
        report.publish(&mut reg);
        assert_eq!(reg.get("fault.workers_lost"), Some(1));
        assert_eq!(reg.get("fault.orphaned_tuples"), Some(17));
        assert_eq!(reg.get("fault.recoveries"), Some(1));
    }
}

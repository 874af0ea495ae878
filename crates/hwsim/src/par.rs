//! Parallel scheduling layer for the two-phase simulation kernel.
//!
//! The two-phase discipline ([`Component`]) guarantees that *sibling*
//! components — components that do not touch each other's state within a
//! phase — can evaluate in any order. [`ParSimulator`] exploits the
//! stronger corollary: siblings can evaluate *concurrently*. A design
//! exposes its independent sub-trees ("shards") through the [`Sharded`]
//! trait, and the parallel engine partitions them across a pool of worker
//! threads that stays alive for an entire [`run_driven`](Engine::run_driven)
//! call, amortizing thread start-up over the whole run.
//!
//! # Barrier schedule
//!
//! Every simulated cycle executes the same phase sequence, with a
//! rendezvous (`⊣`) after each parallel region:
//!
//! ```text
//! coord_begin_cycle → [shard begin_cycle ∥ …] ⊣
//! coord_eval_pre    → [shard eval        ∥ …] ⊣
//! coord_eval_post   →
//! coord_commit      → [shard commit      ∥ …] ⊣
//! ```
//!
//! Coordinator phases run exclusively on the driving thread; shard phases
//! run across the pool (the driving thread processes chunk 0 itself).
//! Because shards never share state with each other, and the coordinator
//! only touches shard state in its exclusive phases, every cross-thread
//! interaction is ordered by a barrier — the schedule is *cycle-exact*:
//! it produces bit-identical state evolution to the sequential
//! [`Simulator`] stepping the same design.
//!
//! # Why this is safe
//!
//! Shard references are re-borrowed from the design (via
//! [`Sharded::shards`]) immediately before each parallel region and
//! released at its barrier; the coordinator does not touch the design
//! while workers hold them. The pointer hand-off to worker threads is the
//! one place `unsafe` appears (see `SendPtr`), with disjointness
//! guaranteed by chunked partitioning and ordering guaranteed by the
//! barrier's release/acquire pairs.

#![allow(unsafe_code)]

use crate::sim::{Component, Simulator};
use obs::MetricKind::{Level, Total};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Driver verdict returned by a [`run_driven`](Engine::run_driven) tick
/// callback, controlling how the engine proceeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Simulate one cycle, then call the tick again.
    Continue,
    /// Stop before simulating another cycle.
    Stop,
    /// Simulate `n` cycles (at least one) without calling the tick —
    /// the batched drive mode. Only legal when the driver knows no
    /// observation or injection is needed inside the gap; per-cycle
    /// drivers (saturation offers, latency tracking) must use
    /// [`Control::Continue`] to stay cycle-exact.
    Skip(u64),
}

/// A unit of parallel work: an independent sub-tree of a design.
///
/// Automatically implemented for every `Component + Send` type. Shards
/// handed out by one [`Sharded::shards`] call must be mutually disjoint
/// (the borrow checker enforces this) and independent: a shard's
/// `begin_cycle`/`eval`/`commit` must not observe any other shard's
/// state.
pub trait Shard: Send {
    /// [`Component::begin_cycle`] for this shard.
    fn begin_cycle(&mut self);
    /// [`Component::eval`] for this shard.
    fn eval(&mut self);
    /// [`Component::commit`] for this shard.
    fn commit(&mut self);
}

impl<T: Component + Send> Shard for T {
    fn begin_cycle(&mut self) {
        Component::begin_cycle(self);
    }
    fn eval(&mut self) {
        Component::eval(self);
    }
    fn commit(&mut self) {
        Component::commit(self);
    }
}

/// A design that can expose parallel shards to a [`ParSimulator`].
///
/// The decomposition must be *exactly equivalent* to the plain
/// [`Component`] cycle:
///
/// * `begin_cycle()` ≡ `coord_begin_cycle()` + every shard's
///   `begin_cycle()` (any order — the states are disjoint);
/// * `eval()` ≡ `coord_eval_pre()`, then every shard's `eval()` (any
///   order), then `coord_eval_post()`;
/// * `commit()` ≡ `coord_commit()` + every shard's `commit()` (any
///   order).
///
/// Contract for implementors:
///
/// * [`coord_begin_cycle`](Sharded::coord_begin_cycle) and
///   [`coord_commit`](Sharded::coord_commit) must not touch shard state
///   (they may run while shards are mid-phase on other threads);
/// * [`coord_eval_pre`](Sharded::coord_eval_pre) and
///   [`coord_eval_post`](Sharded::coord_eval_post) run exclusively and
///   *may* touch shard state — this is where networks push into and pop
///   out of the shards' two-phase FIFOs;
/// * [`shards`](Sharded::shards) must report the same decomposition on
///   every call within one run.
///
/// Every method has a default forwarding to the sequential [`Component`]
/// implementation with an empty shard list, so `impl Sharded for T {}`
/// opts a design out of parallelism (a [`ParSimulator`] then degenerates
/// to the sequential schedule, still cycle-exact).
pub trait Sharded: Component {
    /// Begin-phase work for coordinator-owned state only.
    fn coord_begin_cycle(&mut self) {
        Component::begin_cycle(self);
    }

    /// Eval-phase work that must happen *before* shard evaluation
    /// (e.g. distribution networks staging pushes into shard FIFOs).
    fn coord_eval_pre(&mut self) {
        Component::eval(self);
    }

    /// Eval-phase work that must happen *after* shard evaluation
    /// (e.g. gathering networks collecting from shard FIFOs).
    fn coord_eval_post(&mut self) {}

    /// Commit-phase work for coordinator-owned state only.
    fn coord_commit(&mut self) {
        Component::commit(self);
    }

    /// The design's independent sub-trees. Empty (the default) means the
    /// design is driven entirely by the coordinator phases.
    fn shards(&mut self) -> Vec<&mut dyn Shard> {
        Vec::new()
    }
}

/// A simulation engine that can drive a [`Sharded`] design under a
/// driver callback. Implemented by the sequential [`Simulator`] and the
/// parallel [`ParSimulator`], so harnesses can be generic over both.
pub trait Engine {
    /// Clock cycles simulated so far.
    fn cycle(&self) -> u64;

    /// Drives `root` for at most `max_cycles` cycles. Before each cycle
    /// the `tick` callback runs on the driving thread (with every worker
    /// quiescent, so it may freely inspect and mutate the design) and
    /// decides how to proceed; see [`Control`]. Returns `true` if the
    /// tick stopped the run, `false` if the cycle budget ran out.
    fn run_driven<S: Sharded + ?Sized>(
        &mut self,
        root: &mut S,
        max_cycles: u64,
        tick: &mut dyn FnMut(&mut S, u64) -> Control,
    ) -> bool;
}

impl Engine for Simulator {
    fn cycle(&self) -> u64 {
        Simulator::cycle(self)
    }

    // `#[inline]` puts the drive loop in its caller's codegen unit, where
    // the caller's `tick` closure can be inlined into it.
    #[inline]
    fn run_driven<S: Sharded + ?Sized>(
        &mut self,
        root: &mut S,
        max_cycles: u64,
        tick: &mut dyn FnMut(&mut S, u64) -> Control,
    ) -> bool {
        let mut free = 0u64;
        for _ in 0..max_cycles {
            if free == 0 {
                match tick(root, self.cycle()) {
                    Control::Stop => return true,
                    Control::Continue => free = 1,
                    Control::Skip(n) => free = n.max(1),
                }
            }
            self.step(root);
            free -= 1;
        }
        false
    }
}

/// Per-worker utilization accounting for one
/// [`run_driven`](Engine::run_driven) call (worker 0 is the driving
/// thread).
///
/// The cycle-domain fields are always collected — they are a handful of
/// integer adds per phase and deterministic, so the accounting identity
/// `busy_cycles + wait_cycles == ParStats::cycles` holds exactly for
/// every worker at any thread count. The `_ns` wall-clock fields are
/// `Instant` reads around each phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Simulated cycles in which this worker executed at least one shard
    /// phase.
    pub busy_cycles: u64,
    /// Simulated cycles in which this worker's chunk was empty in every
    /// phase (it only rendezvoused at the barriers).
    pub wait_cycles: u64,
    /// Total shard-phase executions (3 per shard per cycle in steady
    /// state) — unequal chunk sizes show up here as load imbalance.
    /// 0 under the sequential fallback, which does not decompose the
    /// design into shards.
    pub shards_executed: u64,
    /// Wall-clock nanoseconds spent executing shard phases.
    pub busy_ns: u64,
    /// Wall-clock nanoseconds spent waiting at phase barriers — for
    /// workers this includes the coordinator's exclusive phases.
    pub wait_ns: u64,
}

impl WorkerStats {
    /// Fraction of this worker's wall-clock spent executing shards
    /// (`busy_ns / (busy_ns + wait_ns)`), or `None` when no time was recorded.
    #[must_use]
    pub fn utilization(&self) -> Option<f64> {
        let total = self.busy_ns + self.wait_ns;
        (total > 0).then(|| self.busy_ns as f64 / total as f64)
    }
}

/// Utilization report for the most recent
/// [`run_driven`](Engine::run_driven) call of a [`ParSimulator`] —
/// retrieved with [`ParSimulator::last_stats`] /
/// [`ParSimulator::take_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Worker threads used, including the driving thread. 1 means the
    /// sequential fallback ran (thread budget 1, or fewer than two
    /// shards).
    pub threads: usize,
    /// Simulated cycles covered by this report.
    pub cycles: u64,
    /// Wall-clock nanoseconds for the whole run.
    pub run_ns: u64,
    /// Wall-clock nanoseconds in the coordinator's exclusive phases —
    /// network pushes/pops, result gathering, shard staging.
    pub coord_ns: u64,
    /// Per-worker accounting; index 0 is the driving thread.
    pub workers: Vec<WorkerStats>,
    /// Per-worker wall-clock span rings (`sim.worker.N` tracks, one span
    /// per shard phase chunk), collected only while
    /// [`obs::trace::enabled`] — empty otherwise and under the
    /// sequential fallback.
    pub rings: Vec<obs::trace::TraceRing>,
}

impl ParStats {
    /// Fraction of the run's wall-clock spent in exclusive coordinator
    /// phases — the serial share that bounds parallel speedup (Amdahl).
    /// `None` when no time was recorded.
    #[must_use]
    pub fn coordinator_share(&self) -> Option<f64> {
        (self.run_ns > 0).then(|| self.coord_ns as f64 / self.run_ns as f64)
    }

    /// The report as `(key, value, kind)` readings — the one place the
    /// engine's metric names are spelled: `hwsim.par.threads` (a level),
    /// and the totals `hwsim.par.{cycles, run_ns, coord_ns}` and
    /// `hwsim.par.worker.N.{busy_cycles, wait_cycles, shards_executed,
    /// busy_ns, wait_ns}`.
    fn metrics(&self) -> Vec<(String, u64, obs::MetricKind)> {
        let mut out = vec![
            ("hwsim.par.threads".to_string(), self.threads as u64, Level),
            ("hwsim.par.cycles".to_string(), self.cycles, Total),
            ("hwsim.par.run_ns".to_string(), self.run_ns, Total),
            ("hwsim.par.coord_ns".to_string(), self.coord_ns, Total),
        ];
        for (i, w) in self.workers.iter().enumerate() {
            for (what, value) in [
                ("busy_cycles", w.busy_cycles),
                ("wait_cycles", w.wait_cycles),
                ("shards_executed", w.shards_executed),
                ("busy_ns", w.busy_ns),
                ("wait_ns", w.wait_ns),
            ] {
                out.push((format!("hwsim.par.worker.{i}.{what}"), value, Total));
            }
        }
        out
    }

    /// The report as a frozen map, under the same `hwsim.par.*` keys the
    /// live plane accumulates each drive segment into — so after a single
    /// segment the two agree key for key.
    #[must_use]
    pub fn values(&self) -> obs::Values {
        self.metrics().into_iter().map(|(k, v, _)| (k, v)).collect()
    }
}

/// Wall-clock nanoseconds since `since`.
fn lap(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

const OP_BEGIN: u64 = 0;
const OP_EVAL: u64 = 1;
const OP_COMMIT: u64 = 2;
const OP_EXIT: u64 = 3;

fn op_name(op: u64) -> &'static str {
    match op {
        OP_BEGIN => "begin",
        OP_EVAL => "eval",
        _ => "commit",
    }
}

/// A worker's span ring, allocated only when tracing is on at pool
/// start-up so the traced-off hot path carries a `None` check and
/// nothing else.
fn worker_ring(index: usize) -> Option<obs::trace::TraceRing> {
    obs::trace::enabled().then(|| {
        obs::trace::TraceRing::new(format!("sim.worker.{index}"), obs::trace::TimeDomain::Wall)
    })
}

/// A raw pointer to a shard that may cross a thread boundary.
///
/// Safety rests on the pool protocol, not the type: each pointer is
/// dereferenced by exactly one thread per phase (disjoint chunks), only
/// between a phase release and that thread's completion signal, while
/// the `&mut` borrow it was derived from is live on the coordinator.
#[derive(Clone, Copy)]
struct SendPtr(*mut dyn Shard);

// SAFETY: see `SendPtr` — exclusivity and ordering are enforced by the
// phase barriers in `Gate`.
unsafe impl Send for SendPtr {}

/// Shared state between the coordinator and the worker pool.
struct Gate {
    /// Bumped once per phase release; workers wait for it to change.
    epoch: AtomicU64,
    /// Which shard operation the current phase runs (`OP_*`).
    op: AtomicU64,
    /// Workers that have not finished the current phase.
    remaining: AtomicUsize,
    /// Workers that died to a panic (excluded from future phases so the
    /// run unwinds instead of deadlocking; the panic resurfaces when the
    /// thread scope joins).
    dead: AtomicUsize,
    /// Shard pointers for the current phase, re-staged every phase.
    jobs: Mutex<Vec<SendPtr>>,
    /// Per-worker utilization and span ring, published by each worker at
    /// `OP_EXIT` and collected by the coordinator after the pool joins.
    stats: Mutex<Vec<(usize, WorkerStats, Option<obs::trace::TraceRing>)>>,
    /// Pool size including the coordinator.
    threads: usize,
}

impl Gate {
    fn new(threads: usize) -> Self {
        Gate {
            epoch: AtomicU64::new(0),
            op: AtomicU64::new(OP_EXIT),
            remaining: AtomicUsize::new(0),
            dead: AtomicUsize::new(0),
            jobs: Mutex::new(Vec::new()),
            stats: Mutex::new(Vec::new()),
            threads,
        }
    }

    /// The job range worker `index` owns when `len` shards are staged.
    fn chunk(&self, len: usize, index: usize) -> (usize, usize) {
        (len * index / self.threads, len * (index + 1) / self.threads)
    }

    /// Stages the shard pointers for the next phase. Callable only while
    /// every worker is quiescent.
    fn stage(&self, shards: Vec<&mut dyn Shard>) {
        let mut jobs = self.jobs.lock().expect("pool poisoned");
        jobs.clear();
        jobs.extend(shards.into_iter().map(|s| {
            let ptr: *mut (dyn Shard + '_) = s;
            // SAFETY: pure lifetime erasure (identical layout); every use
            // of the pointer happens before the next exclusive access to
            // the design, i.e. while the erased borrow is still live.
            SendPtr(unsafe {
                std::mem::transmute::<*mut (dyn Shard + '_), *mut (dyn Shard + 'static)>(ptr)
            })
        }));
    }

    /// Releases the pool into a phase running `op` on every shard.
    fn release(&self, op: u64) {
        let live = self.threads - 1 - self.dead.load(Ordering::Acquire);
        self.remaining.store(live, Ordering::Release);
        self.op.store(op, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Runs worker `index`'s chunk of the current phase on this thread.
    /// Returns the number of shards executed.
    fn run_chunk(&self, index: usize, op: u64, scratch: &mut Vec<SendPtr>) -> usize {
        scratch.clear();
        {
            let jobs = self.jobs.lock().expect("pool poisoned");
            let (lo, hi) = self.chunk(jobs.len(), index);
            scratch.extend_from_slice(&jobs[lo..hi]);
        }
        for ptr in scratch.iter() {
            // SAFETY: `ptr` came from a `&mut dyn Shard` staged for this
            // phase; chunks are disjoint, so this thread has exclusive
            // access, and the release/acquire pair on `epoch` /
            // `remaining` orders the access against the coordinator.
            let shard = unsafe { &mut *ptr.0 };
            match op {
                OP_BEGIN => shard.begin_cycle(),
                OP_EVAL => shard.eval(),
                _ => shard.commit(),
            }
        }
        scratch.len()
    }

    /// Spins (then yields) until every worker finished the phase.
    fn wait_workers(&self) {
        spin_until(|| self.remaining.load(Ordering::Acquire) == 0);
    }
}

fn spin_until(cond: impl Fn() -> bool) {
    let mut spins = 0u32;
    while !cond() {
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            // On oversubscribed hosts (more workers than CPUs) this path
            // keeps barriers making progress instead of burning a quantum.
            std::thread::yield_now();
        }
    }
}

/// Marks the worker dead if its shard work panics, so the coordinator's
/// barriers keep functioning while the panic propagates to the scope
/// join.
struct WorkerPanicGuard<'a> {
    gate: &'a Gate,
    in_phase: bool,
}

impl Drop for WorkerPanicGuard<'_> {
    fn drop(&mut self) {
        if self.in_phase {
            self.gate.dead.fetch_add(1, Ordering::Release);
            self.gate.remaining.fetch_sub(1, Ordering::Release);
        }
    }
}

fn worker_loop(gate: &Gate, index: usize) {
    // The epoch at pool creation is 0; starting from the *current* value
    // instead would race with an early first release and miss the phase.
    let mut seen = 0u64;
    let mut scratch: Vec<SendPtr> = Vec::new();
    let mut guard = WorkerPanicGuard {
        gate,
        in_phase: false,
    };
    let mut stats = WorkerStats::default();
    let mut ring = worker_ring(index);
    let mut cycle_had_work = false;
    loop {
        let waiting = Instant::now();
        spin_until(|| gate.epoch.load(Ordering::Acquire) != seen);
        stats.wait_ns += lap(waiting);
        seen = gate.epoch.load(Ordering::Acquire);
        let op = gate.op.load(Ordering::Acquire);
        if op == OP_EXIT {
            gate.stats
                .lock()
                .expect("pool poisoned")
                .push((index, stats, ring));
            return;
        }
        guard.in_phase = true;
        let busy = Instant::now();
        let span = ring.as_ref().map(|_| obs::trace::now_ns());
        let executed = gate.run_chunk(index, op, &mut scratch);
        if let (Some(ring), Some(t0)) = (ring.as_mut(), span) {
            let dur = obs::trace::now_ns().saturating_sub(t0);
            ring.record_arg(op_name(op), t0, dur, executed as u64);
        }
        stats.busy_ns += lap(busy);
        guard.in_phase = false;
        stats.shards_executed += executed as u64;
        cycle_had_work |= executed > 0;
        if op == OP_COMMIT {
            // The commit barrier closes the cycle; classify it. A run
            // only stops between cycles, so triples are never partial.
            if cycle_had_work {
                stats.busy_cycles += 1;
            } else {
                stats.wait_cycles += 1;
            }
            cycle_had_work = false;
        }
        gate.remaining.fetch_sub(1, Ordering::Release);
    }
}

/// Releases the pool for exit even when the coordinator unwinds, so the
/// thread scope can always join.
struct ShutdownGuard<'a>(&'a Gate);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.release(OP_EXIT);
    }
}

/// A drop-in parallel alternative to [`Simulator`] for [`Sharded`]
/// designs.
///
/// With `threads <= 1`, or for designs with fewer than two shards, it
/// runs the plain sequential [`Component`] schedule — zero threads, zero
/// barriers, bit-identical to [`Simulator`]. Otherwise it runs the
/// barrier schedule described in the [module docs](self), which is
/// cycle-exact by construction: every test configuration must produce
/// identical cycle counts, results, and statistics to the sequential
/// engine (see the cross-engine equivalence suite at the workspace
/// root).
#[derive(Debug, Clone)]
pub struct ParSimulator {
    threads: usize,
    cycle: u64,
    last_stats: Option<ParStats>,
}

impl ParSimulator {
    /// Creates an engine using up to `threads` OS threads per run
    /// (including the driving thread). `0` is treated as [`auto`](Self::auto).
    pub fn new(threads: usize) -> Self {
        if threads == 0 {
            Self::auto()
        } else {
            ParSimulator {
                threads,
                cycle: 0,
                last_stats: None,
            }
        }
    }

    /// Creates an engine sized from the host's available parallelism.
    pub fn auto() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The number of clock cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Utilization report for the most recent
    /// [`run_driven`](Engine::run_driven) / [`run`](Self::run) /
    /// [`run_until`](Self::run_until) call. `None` before the first run.
    /// Each run replaces the previous report.
    pub fn last_stats(&self) -> Option<&ParStats> {
        self.last_stats.as_ref()
    }

    /// Takes ownership of the most recent utilization report, leaving
    /// `None`.
    pub fn take_stats(&mut self) -> Option<ParStats> {
        self.last_stats.take()
    }

    /// Advances the design by one clock cycle, sequentially (one cycle
    /// cannot amortize a pool; use [`run`](Self::run) or
    /// [`run_driven`](Engine::run_driven) for parallel execution).
    pub fn step<S: Sharded + ?Sized>(&mut self, root: &mut S) {
        root.begin_cycle();
        root.eval();
        root.commit();
        self.cycle += 1;
    }

    /// Advances the design by `cycles` clock cycles with the worker pool
    /// held for the whole batch (the batched drive mode).
    pub fn run<S: Sharded + ?Sized>(&mut self, root: &mut S, cycles: u64) {
        if cycles > 0 {
            self.run_driven(root, cycles, &mut |_, _| Control::Skip(cycles));
        }
    }

    /// Steps until `done` returns `true` (checked between cycles), or
    /// until `max_cycles` elapse. Returns `true` if the predicate fired.
    /// Matches [`Simulator::run_until`] exactly, cycle for cycle.
    pub fn run_until<S, F>(&mut self, root: &mut S, max_cycles: u64, mut done: F) -> bool
    where
        S: Sharded + ?Sized,
        F: FnMut(&S) -> bool,
    {
        let start = self.cycle;
        let fired = self.run_driven(root, max_cycles, &mut |r, c| {
            if c > start && done(r) {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        // The sequential engine checks the predicate after the final
        // cycle of the budget; the driven loop's tick runs only before
        // cycles, so mirror that last check here.
        fired || (self.cycle > start && done(root))
    }

    fn run_driven_sequential<S: Sharded + ?Sized>(
        &mut self,
        root: &mut S,
        max_cycles: u64,
        tick: &mut dyn FnMut(&mut S, u64) -> Control,
    ) -> bool {
        let start_cycle = self.cycle;
        let run_start = Instant::now();
        let mut stopped = false;
        let mut free = 0u64;
        for _ in 0..max_cycles {
            if free == 0 {
                match tick(root, self.cycle) {
                    Control::Stop => {
                        stopped = true;
                        break;
                    }
                    Control::Continue => free = 1,
                    Control::Skip(n) => free = n.max(1),
                }
            }
            root.begin_cycle();
            root.eval();
            root.commit();
            self.cycle += 1;
            free -= 1;
        }
        // The fallback is one fully-busy worker: the driving thread runs
        // every phase of every cycle and never waits.
        let cycles = self.cycle - start_cycle;
        let run_ns = lap(run_start);
        self.last_stats = Some(ParStats {
            threads: 1,
            cycles,
            run_ns,
            coord_ns: 0,
            workers: vec![WorkerStats {
                busy_cycles: cycles,
                wait_cycles: 0,
                shards_executed: 0,
                busy_ns: run_ns,
                wait_ns: 0,
            }],
            rings: Vec::new(),
        });
        publish_live(self.last_stats.as_ref().expect("just set"));
        stopped
    }

    fn run_driven_parallel<S: Sharded + ?Sized>(
        &mut self,
        root: &mut S,
        max_cycles: u64,
        tick: &mut dyn FnMut(&mut S, u64) -> Control,
        threads: usize,
    ) -> bool {
        let start_cycle = self.cycle;
        let run_start = Instant::now();
        let gate = Gate::new(threads);
        let mut coord = WorkerStats::default();
        let mut coord_ring = worker_ring(0);
        let mut coord_ns = 0u64;
        let stopped = std::thread::scope(|scope| {
            for index in 1..threads {
                let gate = &gate;
                scope.spawn(move || worker_loop(gate, index));
            }
            let _shutdown = ShutdownGuard(&gate);
            let mut scratch: Vec<SendPtr> = Vec::new();
            let mut free = 0u64;
            let mut stopped = false;
            for _ in 0..max_cycles {
                if free == 0 {
                    // Workers are quiescent here: the tick may inspect
                    // and mutate the whole design (offer tuples, drain
                    // results, test quiescence).
                    match tick(root, self.cycle) {
                        Control::Stop => {
                            stopped = true;
                            break;
                        }
                        Control::Continue => free = 1,
                        Control::Skip(n) => free = n.max(1),
                    }
                }
                let mut executed = 0usize;
                // Begin phase.
                let t = Instant::now();
                root.coord_begin_cycle();
                gate.stage(root.shards());
                coord_ns += lap(t);
                gate.release(OP_BEGIN);
                let t = Instant::now();
                let span = coord_ring.as_ref().map(|_| obs::trace::now_ns());
                let ran = gate.run_chunk(0, OP_BEGIN, &mut scratch);
                if let (Some(ring), Some(t0)) = (coord_ring.as_mut(), span) {
                    let dur = obs::trace::now_ns().saturating_sub(t0);
                    ring.record_arg("begin", t0, dur, ran as u64);
                }
                executed += ran;
                coord.busy_ns += lap(t);
                let t = Instant::now();
                gate.wait_workers();
                coord.wait_ns += lap(t);
                // Eval phase.
                let t = Instant::now();
                root.coord_eval_pre();
                gate.stage(root.shards());
                coord_ns += lap(t);
                gate.release(OP_EVAL);
                let t = Instant::now();
                let span = coord_ring.as_ref().map(|_| obs::trace::now_ns());
                let ran = gate.run_chunk(0, OP_EVAL, &mut scratch);
                if let (Some(ring), Some(t0)) = (coord_ring.as_mut(), span) {
                    let dur = obs::trace::now_ns().saturating_sub(t0);
                    ring.record_arg("eval", t0, dur, ran as u64);
                }
                executed += ran;
                coord.busy_ns += lap(t);
                let t = Instant::now();
                gate.wait_workers();
                coord.wait_ns += lap(t);
                let t = Instant::now();
                root.coord_eval_post();
                // Commit phase.
                root.coord_commit();
                gate.stage(root.shards());
                coord_ns += lap(t);
                gate.release(OP_COMMIT);
                let t = Instant::now();
                let span = coord_ring.as_ref().map(|_| obs::trace::now_ns());
                let ran = gate.run_chunk(0, OP_COMMIT, &mut scratch);
                if let (Some(ring), Some(t0)) = (coord_ring.as_mut(), span) {
                    let dur = obs::trace::now_ns().saturating_sub(t0);
                    ring.record_arg("commit", t0, dur, ran as u64);
                }
                executed += ran;
                coord.busy_ns += lap(t);
                let t = Instant::now();
                gate.wait_workers();
                coord.wait_ns += lap(t);
                coord.shards_executed += executed as u64;
                if executed > 0 {
                    coord.busy_cycles += 1;
                } else {
                    coord.wait_cycles += 1;
                }
                self.cycle += 1;
                free -= 1;
            }
            stopped
        });
        // The scope has joined every worker, so the published per-worker
        // stats are complete; slot them in by index (worker 0 is us).
        let mut workers = vec![WorkerStats::default(); threads];
        workers[0] = coord;
        let mut indexed_rings: Vec<(usize, obs::trace::TraceRing)> =
            coord_ring.into_iter().map(|r| (0, r)).collect();
        for (index, stats, ring) in gate.stats.into_inner().expect("pool poisoned") {
            workers[index] = stats;
            indexed_rings.extend(ring.map(|r| (index, r)));
        }
        indexed_rings.sort_by_key(|(index, _)| *index);
        self.last_stats = Some(ParStats {
            threads,
            cycles: self.cycle - start_cycle,
            run_ns: lap(run_start),
            coord_ns,
            workers,
            rings: indexed_rings.into_iter().map(|(_, r)| r).collect(),
        });
        publish_live(self.last_stats.as_ref().expect("just set"));
        stopped
    }
}

/// Publishes one finished drive segment into the process-global live
/// plane (`obs::live`) when it is armed: every [`ParStats::metrics`]
/// reading under its own key, plus a pool-wide
/// `hwsim.par.utilization_pct` level. Drive segments repeat (each
/// `run`/`run_until` call is one), so the totals accumulate across a
/// simulation while the levels track the most recent segment. Costs one
/// relaxed load when the plane is unarmed.
fn publish_live(stats: &ParStats) {
    if !obs::live::active() {
        return;
    }
    let reg = obs::live::global();
    for (key, value, kind) in stats.metrics() {
        let cell = reg.metric(&key, kind);
        match kind {
            Total => cell.add(value),
            _ => cell.set(value),
        }
    }
    let busy: u64 = stats.workers.iter().map(|w| w.busy_ns).sum();
    let wait: u64 = stats.workers.iter().map(|w| w.wait_ns).sum();
    if let Some(pct) = (busy * 100).checked_div(busy + wait) {
        reg.metric("hwsim.par.utilization_pct", Level).set(pct);
    }
}

impl Default for ParSimulator {
    fn default() -> Self {
        Self::auto()
    }
}

impl Engine for ParSimulator {
    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn run_driven<S: Sharded + ?Sized>(
        &mut self,
        root: &mut S,
        max_cycles: u64,
        tick: &mut dyn FnMut(&mut S, u64) -> Control,
    ) -> bool {
        let threads = self.threads.min(root.shards().len());
        if threads <= 1 {
            self.run_driven_sequential(root, max_cycles, tick)
        } else {
            self.run_driven_parallel(root, max_cycles, tick, threads)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bank of independent counters: the canonical sharded design.
    /// Each lane's `eval` stages its next value and `commit` latches it;
    /// each lane also counts its evals, so tests can verify the
    /// schedule, not just the end state.
    #[derive(Default)]
    struct Lane {
        value: u64,
        next: u64,
        evals: u64,
    }

    impl Component for Lane {
        fn begin_cycle(&mut self) {}
        fn eval(&mut self) {
            self.evals += 1;
            self.next = self.value + 1;
        }
        fn commit(&mut self) {
            self.value = self.next;
        }
    }

    struct Bank {
        lanes: Vec<Lane>,
        coord_pre: u64,
        coord_post: u64,
    }

    impl Bank {
        fn new(n: usize) -> Self {
            Bank {
                lanes: (0..n).map(|_| Lane::default()).collect(),
                coord_pre: 0,
                coord_post: 0,
            }
        }
    }

    impl Component for Bank {
        fn begin_cycle(&mut self) {}
        fn eval(&mut self) {
            self.coord_pre += 1;
            for lane in &mut self.lanes {
                Component::eval(lane);
            }
            self.coord_post += 1;
        }
        fn commit(&mut self) {
            for lane in &mut self.lanes {
                Component::commit(lane);
            }
        }
    }

    impl Sharded for Bank {
        fn coord_begin_cycle(&mut self) {}
        fn coord_eval_pre(&mut self) {
            self.coord_pre += 1;
        }
        fn coord_eval_post(&mut self) {
            self.coord_post += 1;
        }
        fn coord_commit(&mut self) {}
        fn shards(&mut self) -> Vec<&mut dyn Shard> {
            self.lanes.iter_mut().map(|l| l as &mut dyn Shard).collect()
        }
    }

    fn check_bank(bank: &Bank, cycles: u64) {
        for lane in &bank.lanes {
            assert_eq!(lane.value, cycles);
            assert_eq!(lane.evals, cycles);
        }
        assert_eq!(bank.coord_pre, cycles);
        assert_eq!(bank.coord_post, cycles);
    }

    #[test]
    fn parallel_run_matches_sequential() {
        for threads in [1usize, 2, 3, 4, 8] {
            let mut bank = Bank::new(7);
            let mut sim = ParSimulator::new(threads);
            sim.run(&mut bank, 100);
            assert_eq!(sim.cycle(), 100);
            check_bank(&bank, 100);
        }
    }

    #[test]
    fn thread_budget_exceeding_shards_is_clamped() {
        let mut bank = Bank::new(2);
        let mut sim = ParSimulator::new(64);
        sim.run(&mut bank, 10);
        check_bank(&bank, 10);
    }

    #[test]
    fn driven_tick_sees_committed_state_every_cycle() {
        let mut bank = Bank::new(5);
        let mut sim = ParSimulator::new(4);
        let mut observed = Vec::new();
        sim.run_driven(&mut bank, 50, &mut |b: &mut Bank, cycle| {
            observed.push((cycle, b.lanes[0].value));
            Control::Continue
        });
        // At each tick the lane value equals the cycle count: every
        // commit landed before the tick ran.
        assert_eq!(observed.len(), 50);
        for (cycle, value) in observed {
            assert_eq!(value, cycle);
        }
    }

    #[test]
    fn stop_ends_run_immediately() {
        let mut bank = Bank::new(4);
        let mut sim = ParSimulator::new(4);
        let stopped = sim.run_driven(&mut bank, 1_000, &mut |_, cycle| {
            if cycle == 17 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert!(stopped);
        assert_eq!(sim.cycle(), 17);
        check_bank(&bank, 17);
    }

    #[test]
    fn skip_batches_cycles_between_ticks() {
        let mut bank = Bank::new(4);
        let mut sim = ParSimulator::new(4);
        let mut ticks = 0u64;
        sim.run_driven(&mut bank, 100, &mut |_, _| {
            ticks += 1;
            Control::Skip(25)
        });
        assert_eq!(ticks, 4);
        check_bank(&bank, 100);
    }

    #[test]
    fn run_until_matches_sequential_semantics() {
        // Fire mid-run.
        let mut bank = Bank::new(3);
        let mut par = ParSimulator::new(3);
        let fired = par.run_until(&mut bank, 100, |b| b.lanes[0].value == 7);
        assert!(fired);
        assert_eq!(par.cycle(), 7);

        // Budget exhaustion: predicate never fires.
        let mut bank = Bank::new(3);
        let mut par = ParSimulator::new(3);
        let fired = par.run_until(&mut bank, 5, |b| b.lanes[0].value == 7);
        assert!(!fired);
        assert_eq!(par.cycle(), 5);

        // Fires exactly on the last budgeted cycle, like Simulator.
        let mut bank = Bank::new(3);
        let mut par = ParSimulator::new(3);
        let fired = par.run_until(&mut bank, 7, |b| b.lanes[0].value == 7);
        assert!(fired);
    }

    #[test]
    fn unsharded_designs_fall_back_to_sequential() {
        struct Plain(Lane);
        impl Component for Plain {
            fn begin_cycle(&mut self) {}
            fn eval(&mut self) {
                Component::eval(&mut self.0);
            }
            fn commit(&mut self) {
                Component::commit(&mut self.0);
            }
        }
        impl Sharded for Plain {}
        let mut plain = Plain(Lane::default());
        let mut sim = ParSimulator::new(8);
        sim.run(&mut plain, 42);
        assert_eq!(plain.0.value, 42);
        assert_eq!(sim.cycle(), 42);
    }

    #[test]
    fn engine_trait_is_interchangeable() {
        fn drive<E: Engine>(engine: &mut E, bank: &mut Bank) -> u64 {
            engine.run_driven(bank, 1_000, &mut |b: &mut Bank, _| {
                if b.lanes[0].value >= 13 {
                    Control::Stop
                } else {
                    Control::Continue
                }
            });
            engine.cycle()
        }
        let (mut a, mut b) = (Bank::new(4), Bank::new(4));
        let seq_cycles = drive(&mut Simulator::new(), &mut a);
        let par_cycles = drive(&mut ParSimulator::new(4), &mut b);
        assert_eq!(seq_cycles, par_cycles);
        assert_eq!(a.coord_pre, b.coord_pre);
    }

    #[test]
    fn stats_account_every_cycle_for_every_worker() {
        for threads in [1usize, 2, 3, 4] {
            let mut bank = Bank::new(7);
            let mut sim = ParSimulator::new(threads);
            assert!(sim.last_stats().is_none());
            sim.run(&mut bank, 50);
            let stats = sim.last_stats().expect("run recorded stats").clone();
            assert_eq!(stats.cycles, 50);
            assert_eq!(stats.threads, threads);
            assert_eq!(stats.workers.len(), if threads <= 1 { 1 } else { threads });
            for w in &stats.workers {
                assert_eq!(w.busy_cycles + w.wait_cycles, stats.cycles);
            }
            if threads > 1 {
                // Every shard runs all 3 phases of all 50 cycles exactly
                // once, across whichever workers own it.
                let total: u64 = stats.workers.iter().map(|w| w.shards_executed).sum();
                assert_eq!(total, 7 * 3 * 50);
            }
            let values = stats.values();
            assert_eq!(values.get("hwsim.par.cycles"), Some(50));
            assert_eq!(values.get("hwsim.par.worker.0.wait_cycles"), Some(0));
            assert_eq!(sim.take_stats().as_ref(), Some(&stats));
            assert!(sim.last_stats().is_none());
        }
    }

    #[test]
    fn stats_replace_per_run_and_cover_stopped_runs() {
        let mut bank = Bank::new(4);
        let mut sim = ParSimulator::new(4);
        sim.run(&mut bank, 10);
        let stopped = sim.run_driven(&mut bank, 1_000, &mut |_, cycle| {
            if cycle == 13 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert!(stopped);
        // 10 cycles from the first run, stopped at absolute cycle 13.
        let stats = sim.last_stats().unwrap();
        assert_eq!(stats.cycles, 3);
        for w in &stats.workers {
            assert_eq!(w.busy_cycles + w.wait_cycles, 3);
        }
    }

    #[test]
    fn tracing_collects_worker_rings_without_changing_results() {
        obs::trace::enable(1);
        let mut bank = Bank::new(7);
        let mut sim = ParSimulator::new(4);
        sim.run(&mut bank, 50);
        obs::trace::disable();
        check_bank(&bank, 50);
        let stats = sim.take_stats().unwrap();
        assert_eq!(stats.rings.len(), 4);
        assert_eq!(stats.rings[0].track(), "sim.worker.0");
        for ring in &stats.rings {
            assert!(!ring.is_empty(), "{} recorded no spans", ring.track());
            assert_eq!(ring.domain(), obs::trace::TimeDomain::Wall);
            for e in ring.events() {
                assert!(matches!(e.name, "begin" | "eval" | "commit"));
            }
        }
        // Tracing off: the next run collects no rings.
        let mut bank = Bank::new(7);
        sim.run(&mut bank, 10);
        assert!(sim.take_stats().unwrap().rings.is_empty());
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        struct Bomb(u64);
        impl Component for Bomb {
            fn begin_cycle(&mut self) {}
            fn eval(&mut self) {
                self.0 += 1;
                assert!(self.0 < 3, "shard exploded");
            }
            fn commit(&mut self) {}
        }
        struct Bombs(Vec<Bomb>);
        impl Component for Bombs {
            fn begin_cycle(&mut self) {}
            fn eval(&mut self) {
                for b in &mut self.0 {
                    Component::eval(b);
                }
            }
            fn commit(&mut self) {}
        }
        impl Sharded for Bombs {
            fn coord_begin_cycle(&mut self) {}
            fn coord_eval_pre(&mut self) {}
            fn coord_commit(&mut self) {}
            fn shards(&mut self) -> Vec<&mut dyn Shard> {
                self.0.iter_mut().map(|b| b as &mut dyn Shard).collect()
            }
        }
        let result = std::panic::catch_unwind(|| {
            let mut bombs = Bombs((0..4).map(Bomb).collect());
            let mut sim = ParSimulator::new(4);
            sim.run(&mut bombs, 100);
        });
        assert!(result.is_err(), "the shard panic must surface");
    }
}

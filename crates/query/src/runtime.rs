//! The multi-tenant standing-query runtime.
//!
//! A [`QueryRuntime`] admits compiled standing queries, shares one
//! physical join engine between every query over the same stream pair
//! and window (see [`GroupKey`]), routes arrivals, fans drained matches
//! through each query's post pipeline, and supports *live re-planning*:
//! swapping a group's engine mid-run without losing a single result.
//!
//! # Sharing model
//!
//! Window contents are raw arrivals (CQL semantics — see
//! [`crate::logical`]), so two queries
//! `trades ⋈ quotes WINDOW 1024 WHERE qty > 10` and
//! `… WHERE px < 50` need exactly the same join work. The runtime keeps
//! one engine per [`GroupKey`] and applies each query's
//! [`PostPipeline`](crate::compile::PostPipeline) to the shared match
//! stream, so N standing queries cost one engine's worker pool, not N.
//!
//! # Data path: routes and blocks
//!
//! `admit` and `cancel` maintain a route table — one entry per stream
//! that currently has a consumer, listing the engine groups that take
//! the stream (and on which side) and the single-stream queries over
//! it. [`QueryRuntime::push`] finds the stream's entry with an
//! allocation-free case-insensitive compare and touches only those
//! consumers; groups, members and queries live in index-stable slots
//! and are reached by index. Per arrival the runtime does exactly that
//! much: one route lookup, one engine `process` and one shadow-window
//! append per consuming group.
//!
//! Everything downstream of the engines is per *block*. A
//! [`QueryRuntime::poll`] drains each group once and hands every member
//! query the whole drained `&[MatchPair]` run: the record layout, the
//! conditions and the projection are resolved once, the row buffer is
//! reserved once, and the query's counters advance once by the block's
//! totals. The residual of a retiring engine (`replan`, `cancel`,
//! `finish`) and the arrivals of single-stream queries take the same
//! path with blocks of their own size.
//!
//! A large block fans out on up to [`RuntimeConfig::cores`] threads,
//! which the engine workers are not using while the caller drains
//! them. The consumers are dealt round-robin over the threads, the
//! calling thread keeps the first share and spawns the others in a
//! [`std::thread::scope`], and each query absorbs the block whole on
//! exactly one thread, so its rows come out in the same order and its
//! counters advance by the same amounts as on one thread. Before the
//! split the calling thread reserves every consumer's row vector, so a
//! spawned thread allocates only row payloads: large buffers stay in
//! the caller's allocator arena, whose frees otherwise trim the helper's
//! arena and cost thousands of page faults per block. A block splits
//! only from 2 048 evaluations (matches × consumers) on: a scoped spawn
//! plus its join costs 27–40 µs and one match through one query about
//! 38 ns (on a 2-thread x86-64 Xeon), so halving the work pays for the
//! spawn near 2 k evaluations. A single-arrival `push` and a `poll`
//! after one arrival (a few dozen matches through a handful of queries)
//! stay on the calling thread.
//!
//! # Re-planning without loss
//!
//! [`QueryRuntime::replan`] performs drain-and-handoff:
//!
//! 1. flush + [`drain_results`](joinsw::StreamJoin::drain_results) the
//!    old engine (behind the flush barrier every core has published
//!    every match of everything flushed) and fan the harvest out;
//! 2. shut the old engine down and verify completeness: total-ever
//!    result count equals drained + residual, nothing orphaned, nothing
//!    dropped;
//! 3. spawn the new engine and reload its windows from the runtime's
//!    shadow windows — the last `window` arrivals per stream — through
//!    its [`prefill`](joinsw::StreamJoin::prefill), once per stream. A
//!    stream's window contents depend only on that stream's own arrival
//!    order (SplitJoin's storage turns are counted per stream, the
//!    baseline stores without probing, and the chain's storage cascade
//!    parks a lane's tuples by that lane alone), so the new engine's
//!    windows are exactly the old engine's. SplitJoin and the baseline
//!    prefill without probing; the chain's prefill is ordinary
//!    processing, which re-produces matches between shadow tuples that
//!    the old engine already delivered, so the runtime drains and
//!    discards whatever the prefill produced, keeping each query's
//!    result stream an exact continuation.
//!
//! The returned [`HandoffReport`] carries the full accounting;
//! [`HandoffReport::lossless`] is the zero-lost-tuples check.
//!
//! # Exactness and the handshake chain
//!
//! Joined results must equal a single-query reference run tuple for
//! tuple. SplitJoin and the baseline are exact under pipelined feeding;
//! the handshake chain is exact only when waves are serialized (see
//! `joinsw::handshake`'s equivalence tests), so the runtime flushes
//! handshake groups after every arrival — which suits the engine's
//! role: [`compile`] picks it only under [`Objective::MinLatency`],
//! whatever the query's filter or projection.
//!
//! # Telemetry
//!
//! Every query publishes `query.<id>.rows` / `query.<id>.matches_in` /
//! `query.<id>.replans` counters and every group
//! `group.<key>.arrivals` / `group.<key>.drained` into the runtime's
//! [`Registry`](obs::Registry) (see
//! [`QueryRuntime::live`]), and [`QueryRuntime::finish`] emits one
//! [`RunManifest`](obs::RunManifest) per query. A query holds its three
//! cells from admission on, and its report and manifest read them. The
//! `query.*` cells advance once per block, so a sampler sees them step
//! at each `poll`; `cancel` unregisters them (the report still reads the
//! detached handles), while `group.*` cells outlive their group as its
//! final totals.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use fqp::plan::Catalog;
use joinsw::handshake::{HandshakeConfig, HandshakeJoin};
use joinsw::prelude::{
    BaselineJoin, JoinConfig, JoinError, JoinOutcome, SplitJoin, SplitJoinConfig, StreamJoin,
};
use streamcore::{MatchPair, StreamTag, Tuple};

use crate::compile::{
    compile, engine_for, CompileError, CompiledQuery, EngineKind, GroupKey, Objective, Shape,
};
use crate::logical::LogicalPlan;

/// Errors surfaced by the runtime.
#[derive(Debug)]
pub enum RuntimeError {
    /// Admission failed at compile time.
    Compile(CompileError),
    /// A query with this id is already admitted.
    Duplicate {
        /// The clashing id.
        id: String,
    },
    /// No admitted query has this id.
    Unknown {
        /// The missing id.
        id: String,
    },
    /// The operation only applies to joined queries.
    NotJoined {
        /// The single-stream query's id.
        id: String,
    },
    /// An arrival was pushed on a stream the catalog does not know.
    UnknownStream {
        /// The stream name as pushed.
        stream: String,
    },
    /// An engine verb failed.
    Engine(JoinError),
    /// An engine's shutdown accounting did not balance: results were
    /// produced that neither a drain nor the final outcome carried.
    Completeness {
        /// The group whose engine failed the check.
        group: String,
        /// Results the engine reports producing since spawn.
        produced: u64,
        /// Results actually delivered (drained + residual).
        delivered: u64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Compile(e) => write!(f, "{e}"),
            RuntimeError::Duplicate { id } => write!(f, "query {id:?} is already admitted"),
            RuntimeError::Unknown { id } => write!(f, "no standing query {id:?}"),
            RuntimeError::NotJoined { id } => {
                write!(f, "query {id:?} runs inline (no join engine to re-plan)")
            }
            RuntimeError::UnknownStream { stream } => {
                write!(f, "stream {stream:?} is not in the catalog")
            }
            RuntimeError::Engine(e) => write!(f, "{e}"),
            RuntimeError::Completeness {
                group,
                produced,
                delivered,
            } => write!(
                f,
                "group {group} engine produced {produced} results but only \
                 {delivered} were delivered"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<CompileError> for RuntimeError {
    fn from(e: CompileError) -> Self {
        RuntimeError::Compile(e)
    }
}

impl From<JoinError> for RuntimeError {
    fn from(e: JoinError) -> Self {
        RuntimeError::Engine(e)
    }
}

/// Runtime construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Worker-pool size shared by every spawned engine.
    pub cores: usize,
    /// Objective that picks the engine of each admitted query's group.
    pub objective: Objective,
}

impl RuntimeConfig {
    /// A pool of `cores` workers optimizing for throughput.
    pub fn new(cores: usize) -> Self {
        Self {
            cores,
            objective: Objective::MaxThroughput,
        }
    }
}

/// Any physical engine behind one dispatchable surface. The
/// [`StreamJoin`] trait has an engine-specific `Config` type, so the
/// runtime erases it with this enum rather than boxing.
enum AnyEngine {
    Baseline(Box<BaselineJoin>),
    Split(Box<SplitJoin>),
    Handshake(Box<HandshakeJoin>),
}

impl AnyEngine {
    /// Spawns an engine of `kind` with windows that realize `window`
    /// exactly: the worker count is clamped to the largest pool divisor
    /// of `window` so `effective_window == window` and shared-engine
    /// results match a single-query reference run tuple for tuple.
    fn spawn(kind: EngineKind, pool: usize, window: usize) -> Self {
        let cores = (1..=pool.max(1))
            .rev()
            .find(|c| window.is_multiple_of(*c))
            .unwrap_or(1);
        match kind {
            EngineKind::Baseline | EngineKind::Inline => {
                AnyEngine::Baseline(Box::new(BaselineJoin::spawn(JoinConfig::new(1, window))))
            }
            EngineKind::Split => AnyEngine::Split(Box::new(SplitJoin::spawn(
                SplitJoinConfig::new(cores, window),
            ))),
            EngineKind::Handshake => AnyEngine::Handshake(Box::new(HandshakeJoin::spawn(
                HandshakeConfig::new(cores, window),
            ))),
        }
    }

    fn process(&self, tag: StreamTag, tuple: Tuple) -> Result<(), JoinError> {
        match self {
            AnyEngine::Baseline(e) => e.process(tag, tuple),
            AnyEngine::Split(e) => e.process(tag, tuple),
            AnyEngine::Handshake(e) => e.process(tag, tuple),
        }
    }

    fn flush(&self) -> Result<(), JoinError> {
        match self {
            AnyEngine::Baseline(e) => e.flush(),
            AnyEngine::Split(e) => e.flush(),
            AnyEngine::Handshake(e) => e.flush(),
        }
    }

    fn prefill(&self, tag: StreamTag, tuples: &[Tuple]) -> Result<(), JoinError> {
        match self {
            AnyEngine::Baseline(e) => e.prefill(tag, tuples),
            AnyEngine::Split(e) => e.prefill(tag, tuples),
            AnyEngine::Handshake(e) => e.prefill(tag, tuples),
        }
    }

    fn drain_results(&self) -> Result<Vec<MatchPair>, JoinError> {
        match self {
            AnyEngine::Baseline(e) => e.drain_results(),
            AnyEngine::Split(e) => e.drain_results(),
            AnyEngine::Handshake(e) => e.drain_results(),
        }
    }

    /// Shuts the engine of group `key` down and balances its books:
    /// every result it produced since spawn was either `delivered` by
    /// an earlier drain or is in the returned outcome's `results`.
    fn retire(self, key: &GroupKey, delivered: u64) -> Result<JoinOutcome, RuntimeError> {
        let outcome = match self {
            AnyEngine::Baseline(e) => e.shutdown(),
            AnyEngine::Split(e) => e.shutdown(),
            AnyEngine::Handshake(e) => e.shutdown(),
        }?;
        let delivered = delivered + outcome.results.len() as u64;
        if delivered != outcome.result_count {
            return Err(RuntimeError::Completeness {
                group: key.to_string(),
                produced: outcome.result_count,
                delivered,
            });
        }
        Ok(outcome)
    }
}

/// Index-stable storage: a removed entry leaves a hole the next insert
/// reuses, so the slot numbers held by routes, group member lists and
/// the id index never shift and the data path reaches everything by
/// index.
struct Slots<T> {
    slots: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Slots<T> {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, value: T) -> usize {
        if let Some(at) = self.free.pop() {
            self.slots[at] = Some(value);
            at
        } else {
            self.slots.push(Some(value));
            self.slots.len() - 1
        }
    }

    fn remove(&mut self, at: usize) -> Option<T> {
        let value = self.slots.get_mut(at)?.take()?;
        self.free.push(at);
        Some(value)
    }

    fn get(&self, at: usize) -> Option<&T> {
        self.slots.get(at)?.as_ref()
    }

    fn get_mut(&mut self, at: usize) -> Option<&mut T> {
        self.slots.get_mut(at)?.as_mut()
    }

    /// The live entries at the distinct slots `at`, in that order.
    fn get_many_mut(&mut self, at: &[usize]) -> Vec<&mut T> {
        let mut all: Vec<Option<&mut T>> = self.slots.iter_mut().map(Option::as_mut).collect();
        at.iter().filter_map(|&i| all.get_mut(i)?.take()).collect()
    }

    /// Live entries with their slots, in slot order.
    fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(at, slot)| Some((at, slot.as_ref()?)))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }

    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Empties the storage, yielding the live entries in slot order.
    fn drain(&mut self) -> impl Iterator<Item = T> {
        self.free.clear();
        std::mem::take(&mut self.slots).into_iter().flatten()
    }
}

/// One engine shared by every query over the same [`GroupKey`].
struct EngineGroup {
    key: GroupKey,
    engine: AnyEngine,
    kind: EngineKind,
    /// Query slots of the member queries, in admission order.
    members: Vec<usize>,
    /// Last `window` arrivals per stream — what a handoff reloads into
    /// the new engine's windows.
    shadow_r: VecDeque<Tuple>,
    shadow_s: VecDeque<Tuple>,
    /// Results harvested from the *current* engine since it spawned.
    drained_since_spawn: u64,
    arrivals: obs::Counter,
    drained: obs::Counter,
}

impl EngineGroup {
    /// Hands one arrival to the engine and to its stream's shadow.
    fn push(&mut self, tag: StreamTag, tuple: Tuple) -> Result<(), JoinError> {
        self.engine.process(tag, tuple)?;
        // The handshake chain is only exact when waves are serialized —
        // see the module docs.
        if self.kind == EngineKind::Handshake {
            self.engine.flush()?;
        }
        let shadow = match tag {
            StreamTag::R => &mut self.shadow_r,
            StreamTag::S => &mut self.shadow_s,
        };
        shadow.push_back(tuple);
        if shadow.len() > self.key.window {
            shadow.pop_front();
        }
        self.arrivals.incr();
        Ok(())
    }

    /// Harvests the engine's pending matches and fans them out to the
    /// member queries as one block on up to `cores` threads. Returns the
    /// number drained.
    fn drain(&mut self, queries: &mut Slots<Standing>, cores: usize) -> Result<u64, JoinError> {
        let matches = self.engine.drain_results()?;
        let drained = matches.len() as u64;
        self.drained_since_spawn += drained;
        self.drained.add(drained);
        fan_out(queries, &self.members, Block::Matches(&matches), cores);
        Ok(drained)
    }

    fn metric_key(key: &GroupKey) -> String {
        format!("{}_{}_w{}", key.left, key.right, key.window)
    }
}

/// A run of records bound for standing queries, handed over whole:
/// the matches of one engine drain, or a batch of arrivals on one
/// stream.
#[derive(Clone, Copy)]
enum Block<'a> {
    Matches(&'a [MatchPair]),
    Arrivals(&'a [Tuple]),
}

impl Block<'_> {
    fn len(&self) -> usize {
        match self {
            Block::Matches(matches) => matches.len(),
            Block::Arrivals(tuples) => tuples.len(),
        }
    }
}

/// One admitted standing query.
struct Standing {
    id: String,
    compiled: CompiledQuery,
    /// Slot of the engine group a joined query is a member of.
    group: Option<usize>,
    rows: Vec<Vec<u64>>,
    /// Records fanned in (`query.<id>.matches_in`).
    matches_in: obs::Counter,
    /// Rows emitted (`query.<id>.rows`).
    rows_out: obs::Counter,
    /// Re-plans lived through (`query.<id>.replans`).
    replans: obs::Counter,
}

/// `query.<id>.<what>`: a query's key in the live registry and in its
/// manifest alike.
fn query_key(id: &str, what: &str) -> String {
    format!("query.{id}.{what}")
}

impl Standing {
    fn new(id: &str, compiled: CompiledQuery, group: Option<usize>, live: &obs::Registry) -> Self {
        Self {
            id: id.to_string(),
            compiled,
            group,
            rows: Vec::new(),
            matches_in: live.counter(&query_key(id, "matches_in")),
            rows_out: live.counter(&query_key(id, "rows")),
            replans: live.counter(&query_key(id, "replans")),
        }
    }

    /// Makes room for every row `block` can produce: one per record,
    /// except for an aggregate, which emits per window.
    fn reserve(&mut self, block: Block<'_>) {
        if let Shape::Single {
            aggregate: Some(_), ..
        } = self.compiled.shape
        {
            return;
        }
        self.rows.reserve(block.len());
    }

    /// Runs a whole block through the query: every record is widened to
    /// its field values (layout resolved once per block), filtered and
    /// projected by [`PostPipeline::apply`](crate::compile::PostPipeline::apply)
    /// or folded into the aggregate, and the counters advance once for
    /// the block. Rows come out in block order; the row vector is
    /// [`reserve`](Standing::reserve)d by the caller.
    fn absorb(&mut self, block: Block<'_>) {
        let before = self.rows.len();
        let seen = match (&mut self.compiled.shape, block) {
            (
                Shape::Joined {
                    left_arity,
                    right_arity,
                    post,
                    ..
                },
                Block::Matches(matches),
            ) => {
                let (left, width) = (*left_arity, *left_arity + *right_arity);
                self.rows.extend(matches.iter().filter_map(|m| {
                    // Both sides written whole, the right one at the
                    // left arity: with one-field streams the slot past
                    // each side is overwritten or cut off by `width`.
                    let mut values = [0u64; 4];
                    values[0] = m.r.key() as u64;
                    values[1] = m.r.payload() as u64;
                    values[left] = m.s.key() as u64;
                    values[left + 1] = m.s.payload() as u64;
                    post.apply(&values[..width])
                }));
                matches.len() as u64
            }
            (
                Shape::Single {
                    arity,
                    post,
                    aggregate,
                    ..
                },
                Block::Arrivals(tuples),
            ) => {
                let records = tuples.iter().map(|t| [t.key() as u64, t.payload() as u64]);
                if let Some(agg) = aggregate {
                    // Aggregates: filter, then fold into the window.
                    for values in records.filter(|v| post.accepts(&v[..*arity])) {
                        self.rows
                            .extend(agg.push(&values[..*arity]).map(|out| vec![out]));
                    }
                } else {
                    self.rows
                        .extend(records.filter_map(|v| post.apply(&v[..*arity])));
                }
                tuples.len() as u64
            }
            // Routes pair joined queries with matches and single-stream
            // queries with arrivals; nothing else reaches a query.
            _ => return,
        };
        if seen == 0 {
            // An idle `poll`: leave the shared cells alone.
            return;
        }
        self.matches_in.add(seen);
        self.rows_out.add((self.rows.len() - before) as u64);
    }
}

/// Matches × consumers below which a block stays on the calling thread.
/// Splitting `n` evaluations over two threads saves `n` × 38 ns / 2 and
/// costs one scoped spawn plus join, 27–40 µs, so it pays from about
/// 2 k evaluations on (see the module docs).
const SPLIT_MIN_EVALUATIONS: usize = 2_048;

/// The one fan-out path: hands `block` whole to each of `consumers`
/// (query slots). Drained matches, the residual of a retiring engine
/// and single-stream arrivals all come through here. A block of at
/// least [`SPLIT_MIN_EVALUATIONS`] is dealt round-robin, one query at a
/// time, over `min(cores, consumers)` threads, the calling thread
/// taking the first share; every row vector is reserved before the
/// split. A panic on a spawned thread resumes on the caller when the
/// scope ends.
fn fan_out(queries: &mut Slots<Standing>, consumers: &[usize], block: Block<'_>, cores: usize) {
    let threads = cores.min(consumers.len());
    if threads < 2 || block.len() * consumers.len() < SPLIT_MIN_EVALUATIONS {
        // Every single-arrival `push` lands here: allocation-free.
        for &slot in consumers {
            if let Some(q) = queries.get_mut(slot) {
                q.reserve(block);
                q.absorb(block);
            }
        }
        return;
    }
    let mut shares: Vec<Vec<&mut Standing>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, q) in queries.get_many_mut(consumers).into_iter().enumerate() {
        q.reserve(block);
        shares[i % threads].push(q);
    }
    let mut shares = shares.into_iter();
    let own = shares.next().unwrap_or_default();
    std::thread::scope(|scope| {
        for share in shares {
            scope.spawn(move || share.into_iter().for_each(|q| q.absorb(block)));
        }
        own.into_iter().for_each(|q| q.absorb(block));
    });
}

/// Where one stream's arrivals go. The runtime keeps one route per
/// stream that currently has a consumer, so `push` touches only those.
struct Route {
    /// The stream's name as the catalog spells it.
    stream: String,
    /// Engine groups consuming the stream, with the side they take it on.
    groups: Vec<(usize, StreamTag)>,
    /// Query slots of the single-stream queries over the stream.
    singles: Vec<usize>,
}

impl Route {
    /// Stream names match as the catalog matches them: ignoring ASCII
    /// case, and here without allocating.
    fn carries(&self, stream: &str) -> bool {
        self.stream.eq_ignore_ascii_case(stream)
    }
}

/// The route of `stream`, added empty if it has none yet.
fn route_mut<'a>(routes: &'a mut Vec<Route>, stream: &str) -> &'a mut Route {
    let at = routes
        .iter()
        .position(|r| r.carries(stream))
        .unwrap_or_else(|| {
            routes.push(Route {
                stream: stream.to_string(),
                groups: Vec::new(),
                singles: Vec::new(),
            });
            routes.len() - 1
        });
    &mut routes[at]
}

/// The accounting of one drain-and-handoff re-plan. All counts are for
/// the group's *old* engine unless stated otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandoffReport {
    /// The re-planned group.
    pub group: GroupKey,
    /// Engine before the handoff.
    pub from: EngineKind,
    /// Engine after the handoff.
    pub to: EngineKind,
    /// Results harvested by the handoff's final drain.
    pub drained: u64,
    /// Results the shutdown outcome still carried after that drain
    /// (zero in a healthy handoff: nothing arrives between the drain
    /// barrier and shutdown).
    pub residual: u64,
    /// Total results the old engine produced over its whole life — all
    /// of them delivered, or `replan` fails with
    /// [`RuntimeError::Completeness`].
    pub produced_total: u64,
    /// Window tuples orphaned by worker loss (0 unless faults were
    /// injected).
    pub orphaned_tuples: u64,
    /// Results dropped on the engine's floor (0 unless faults).
    pub results_dropped: u64,
    /// Tuples reloaded into the new engine's windows `(R, S)`.
    pub prefilled: (usize, usize),
    /// Matches the reload re-produced and the runtime discarded — each
    /// one a duplicate of a result the old engine already delivered.
    /// Zero unless the new engine is the handshake chain, whose prefill
    /// is ordinary processing.
    pub duplicates_discarded: u64,
}

impl HandoffReport {
    /// `true` when the handoff lost nothing: no window tuple was
    /// orphaned and no result dropped, so the new engine's windows hold
    /// exactly the old engine's contents. (Every result the old engine
    /// produced reached the standing queries, or there is no report.)
    pub fn lossless(&self) -> bool {
        self.orphaned_tuples == 0 && self.results_dropped == 0
    }
}

impl fmt::Display for HandoffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} -> {}, drained {} (+{} residual) of {} produced, \
             prefilled {}R/{}S{}",
            self.group,
            self.from,
            self.to,
            self.drained,
            self.residual,
            self.produced_total,
            self.prefilled.0,
            self.prefilled.1,
            if self.lossless() {
                ", lossless"
            } else {
                ", LOSSY"
            }
        )
    }
}

/// Final per-query accounting, with its archival manifest.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// The query id.
    pub id: String,
    /// Engine the query ran on at the end.
    pub engine: EngineKind,
    /// Sharing group, for joined queries.
    pub group: Option<GroupKey>,
    /// Output rows not yet taken via [`QueryRuntime::take_rows`].
    pub rows: Vec<Vec<u64>>,
    /// Records fanned into the query (arrivals or join matches).
    pub matches_in: u64,
    /// Output rows emitted over the query's life.
    pub rows_emitted: u64,
    /// Re-plans this query lived through.
    pub replans: u64,
    /// The per-query archival manifest (`query_<id>`), carrying the
    /// query text, engine, group, and counters.
    pub manifest: obs::RunManifest,
}

/// The multi-tenant standing-query runtime. See the module docs for the
/// sharing and re-planning model.
pub struct QueryRuntime {
    catalog: Catalog,
    config: RuntimeConfig,
    live: obs::Registry,
    groups: Slots<EngineGroup>,
    queries: Slots<Standing>,
    /// Query id → slot in `queries`.
    ids: BTreeMap<String, usize>,
    /// One entry per stream with a consumer; see the module docs.
    routes: Vec<Route>,
}

impl QueryRuntime {
    /// Creates a runtime over `catalog`.
    pub fn new(catalog: Catalog, config: RuntimeConfig) -> Self {
        Self {
            catalog,
            config,
            live: obs::Registry::new(),
            groups: Slots::new(),
            queries: Slots::new(),
            ids: BTreeMap::new(),
            routes: Vec::new(),
        }
    }

    /// The runtime's live-metric registry (`query.*` and `group.*`
    /// series) — hand it to an [`obs::live::Sampler`] to watch standing
    /// queries in flight.
    pub fn live(&self) -> &obs::Registry {
        &self.live
    }

    /// Number of live engine groups (shared engines).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The engine a query currently runs on.
    pub fn engine_of(&self, id: &str) -> Option<EngineKind> {
        let q = self.queries.get(*self.ids.get(id)?)?;
        Some(q.compiled.engine)
    }

    /// Compiles and admits a standing query under `id`. Joined queries
    /// attach to an existing engine group when one matches their
    /// [`GroupKey`] (the group keeps its current engine); otherwise the
    /// compiled engine choice is spawned. Returns the engine the query
    /// runs on.
    ///
    /// A query admitted after arrivals have already flowed only sees
    /// matches from its admission point onward (its group's windows are
    /// shared, its result stream starts now).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Duplicate`] for an id collision, or any
    /// [`CompileError`] via [`RuntimeError::Compile`].
    pub fn admit(&mut self, id: &str, logical: &LogicalPlan) -> Result<EngineKind, RuntimeError> {
        if self.ids.contains_key(id) {
            return Err(RuntimeError::Duplicate { id: id.to_string() });
        }
        let mut compiled = compile(
            logical,
            &self.catalog,
            self.config.cores,
            self.config.objective,
        )?;
        let (group, single) = match &compiled.shape {
            Shape::Single { stream, .. } => (None, Some(stream.clone())),
            Shape::Joined { key, .. } => {
                let existing = self.groups.iter().find(|(_, g)| g.key == *key);
                let slot = match existing.map(|(slot, g)| (slot, g.kind)) {
                    Some((slot, kind)) => {
                        compiled.engine = kind;
                        slot
                    }
                    None => self.spawn_group(key, compiled.engine),
                };
                (Some(slot), None)
            }
        };
        let engine = compiled.engine;
        let slot = self
            .queries
            .insert(Standing::new(id, compiled, group, &self.live));
        self.ids.insert(id.to_string(), slot);
        if let Some(group) = group.and_then(|g| self.groups.get_mut(g)) {
            group.members.push(slot);
        }
        if let Some(stream) = single {
            route_mut(&mut self.routes, &stream).singles.push(slot);
        }
        Ok(engine)
    }

    /// Spawns the engine group of `key` on `kind` and routes both its
    /// streams to it. Returns the group's slot.
    fn spawn_group(&mut self, key: &GroupKey, kind: EngineKind) -> usize {
        let metric = EngineGroup::metric_key(key);
        let slot = self.groups.insert(EngineGroup {
            key: key.clone(),
            engine: AnyEngine::spawn(kind, self.config.cores, key.window),
            kind,
            members: Vec::new(),
            shadow_r: VecDeque::with_capacity(key.window + 1),
            shadow_s: VecDeque::with_capacity(key.window + 1),
            drained_since_spawn: 0,
            arrivals: self.live.counter(&format!("group.{metric}.arrivals")),
            drained: self.live.counter(&format!("group.{metric}.drained")),
        });
        route_mut(&mut self.routes, &key.left)
            .groups
            .push((slot, StreamTag::R));
        route_mut(&mut self.routes, &key.right)
            .groups
            .push((slot, StreamTag::S));
        slot
    }

    /// Routes one arrival on `stream` to every standing query and
    /// engine group that consumes it. A catalogued stream nothing
    /// consumes right now is a no-op.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownStream`] when `stream` is not in the
    /// catalog, [`RuntimeError::Engine`] when an engine rejects the
    /// tuple.
    pub fn push(&mut self, stream: &str, tuple: Tuple) -> Result<(), RuntimeError> {
        self.push_batch(stream, std::slice::from_ref(&tuple))
    }

    /// Routes a batch of arrivals on `stream`: the route is resolved
    /// once, each consuming engine is fed the batch tuple by tuple, and
    /// single-stream queries take it as one block.
    ///
    /// # Errors
    ///
    /// See [`QueryRuntime::push`].
    pub fn push_batch(&mut self, stream: &str, tuples: &[Tuple]) -> Result<(), RuntimeError> {
        let Some(route) = self.routes.iter().find(|r| r.carries(stream)) else {
            return match self.catalog.schema(stream) {
                Some(_) => Ok(()),
                None => Err(RuntimeError::UnknownStream {
                    stream: stream.to_string(),
                }),
            };
        };
        for &(slot, tag) in &route.groups {
            if let Some(group) = self.groups.get_mut(slot) {
                for &tuple in tuples {
                    group.push(tag, tuple)?;
                }
            }
        }
        fan_out(
            &mut self.queries,
            &route.singles,
            Block::Arrivals(tuples),
            self.config.cores,
        );
        Ok(())
    }

    /// Harvests every group engine's pending matches and fans them
    /// through the member queries' post pipelines, one block per group.
    /// Returns the total number of matches drained.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Engine`] — whatever a group engine's flush
    /// barrier reports (see [`joinsw::StreamJoin::drain_results`]).
    pub fn poll(&mut self) -> Result<u64, RuntimeError> {
        let mut total = 0;
        for group in self.groups.iter_mut() {
            total += group.drain(&mut self.queries, self.config.cores)?;
        }
        Ok(total)
    }

    /// Takes the rows a query has produced since the last take.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unknown`] for an unadmitted id.
    pub fn take_rows(&mut self, id: &str) -> Result<Vec<Vec<u64>>, RuntimeError> {
        let q = self
            .ids
            .get(id)
            .and_then(|&slot| self.queries.get_mut(slot))
            .ok_or_else(|| RuntimeError::Unknown { id: id.to_string() })?;
        Ok(std::mem::take(&mut q.rows))
    }

    /// Re-plans a joined query's group onto the engine `objective`
    /// prefers, using drain-and-handoff (see the module docs). Every
    /// member query of the group moves with it. Returns the handoff
    /// accounting; a no-op handoff (same engine) still drains and
    /// reports.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unknown`], [`RuntimeError::NotJoined`] for
    /// inline queries, [`RuntimeError::Engine`] on a failed verb, or
    /// [`RuntimeError::Completeness`] if the old engine's accounting
    /// does not balance.
    pub fn replan(
        &mut self,
        id: &str,
        objective: Objective,
    ) -> Result<HandoffReport, RuntimeError> {
        let unknown = || RuntimeError::Unknown { id: id.to_string() };
        let q = self
            .ids
            .get(id)
            .and_then(|&slot| self.queries.get(slot))
            .ok_or_else(unknown)?;
        let slot = q
            .group
            .ok_or_else(|| RuntimeError::NotJoined { id: id.to_string() })?;
        let target = engine_for(objective, self.config.cores);
        let group = self.groups.get_mut(slot).ok_or_else(unknown)?;

        // 1. Drain the old engine and fan the harvest out.
        let drained = group.drain(&mut self.queries, self.config.cores)?;
        let from = group.kind;

        // 2. Shut it down and verify completeness. The residual is
        // whatever slipped between the drain barrier and shutdown
        // (nothing, absent concurrent pushes); it is fanned out too, so
        // it is delivered, not lost.
        let old = std::mem::replace(
            &mut group.engine,
            AnyEngine::spawn(target, self.config.cores, group.key.window),
        );
        let delivered_before = std::mem::take(&mut group.drained_since_spawn);
        group.kind = target;
        let outcome = old.retire(&group.key, delivered_before)?;
        fan_out(
            &mut self.queries,
            &group.members,
            Block::Matches(&outcome.results),
            self.config.cores,
        );

        // 3. Reload the new engine's windows from the shadows, then
        // discard whatever matches the reload produced (only the chain's
        // prefill probes, and what it finds was already delivered by the
        // old engine — see the module docs). After this the new engine's
        // windows are exactly the old engine's and its result stream
        // continues seamlessly.
        for (tag, shadow) in [
            (StreamTag::R, &mut group.shadow_r),
            (StreamTag::S, &mut group.shadow_s),
        ] {
            group.engine.prefill(tag, shadow.make_contiguous())?;
        }
        let duplicates = group.engine.drain_results()?.len() as u64;
        group.drained_since_spawn += duplicates;

        for &member in &group.members {
            if let Some(q) = self.queries.get_mut(member) {
                q.compiled.engine = target;
                q.replans.incr();
            }
        }

        Ok(HandoffReport {
            group: group.key.clone(),
            from,
            to: target,
            drained,
            residual: outcome.results.len() as u64,
            produced_total: outcome.result_count,
            orphaned_tuples: outcome.fault.orphaned_tuples,
            results_dropped: outcome.fault.results_dropped,
            prefilled: (group.shadow_r.len(), group.shadow_s.len()),
            duplicates_discarded: duplicates,
        })
    }

    /// Cancels a standing query and unregisters its `query.<id>.*` live
    /// cells. When it was the last member of its engine group, the
    /// group's engine is drained (the final harvest still reaches the
    /// query's report) and shut down with the same completeness check
    /// as [`QueryRuntime::finish`]; the group's `group.*` cells stay
    /// registered as its final totals.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unknown`], [`RuntimeError::Engine`], or
    /// [`RuntimeError::Completeness`]. After a failed engine shutdown
    /// the query is gone all the same.
    pub fn cancel(&mut self, id: &str) -> Result<QueryReport, RuntimeError> {
        let unknown = || RuntimeError::Unknown { id: id.to_string() };
        let slot = *self.ids.get(id).ok_or_else(unknown)?;
        let home = self.queries.get(slot).ok_or_else(unknown)?.group;
        if let Some(group) = home.and_then(|g| self.groups.get_mut(g)) {
            group.drain(&mut self.queries, self.config.cores)?;
            group.members.retain(|&m| m != slot);
        }
        self.ids.remove(id);
        let q = self.queries.remove(slot).ok_or_else(unknown)?;
        self.live.remove_prefix(&query_key(id, ""));
        match home {
            None => self.unroute(|route| route.singles.retain(|&s| s != slot)),
            Some(g)
                if self
                    .groups
                    .get(g)
                    .is_some_and(|group| group.members.is_empty()) =>
            {
                self.unroute(|route| route.groups.retain(|&(group, _)| group != g));
                if let Some(group) = self.groups.remove(g) {
                    // The last member is gone, so the residual has no
                    // audience — but it must still balance the books.
                    group.engine.retire(&group.key, group.drained_since_spawn)?;
                }
            }
            Some(_) => {}
        }
        Ok(Self::report(&self.config, q))
    }

    /// Applies `detach` to every route and drops the routes it leaves
    /// without a consumer.
    fn unroute(&mut self, detach: impl Fn(&mut Route)) {
        self.routes.iter_mut().for_each(detach);
        self.routes
            .retain(|r| !(r.groups.is_empty() && r.singles.is_empty()));
    }

    /// Drains and shuts down every engine, verifies completeness, and
    /// returns one [`QueryReport`] (with archival manifest) per query,
    /// sorted by id.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Engine`] or [`RuntimeError::Completeness`].
    pub fn finish(mut self) -> Result<Vec<QueryReport>, RuntimeError> {
        for mut group in self.groups.drain() {
            group.drain(&mut self.queries, self.config.cores)?;
            let outcome = group.engine.retire(&group.key, group.drained_since_spawn)?;
            fan_out(
                &mut self.queries,
                &group.members,
                Block::Matches(&outcome.results),
                self.config.cores,
            );
        }
        let ids = std::mem::take(&mut self.ids);
        Ok(ids
            .into_values()
            .filter_map(|slot| self.queries.remove(slot))
            .map(|q| Self::report(&self.config, q))
            .collect())
    }

    fn report(config: &RuntimeConfig, q: Standing) -> QueryReport {
        let (id, engine) = (q.id, q.compiled.engine);
        let mut manifest = obs::RunManifest::new(format!("query_{id}"));
        manifest.config("query", &q.compiled.plan.query);
        manifest.config("engine", engine);
        manifest.config("objective", format!("{:?}", config.objective));
        manifest.config("cores", config.cores);
        if let Some(key) = q.compiled.group() {
            manifest.config("group", key);
        }
        let (matches_in, rows_emitted, replans) =
            (q.matches_in.get(), q.rows_out.get(), q.replans.get());
        manifest.counter(query_key(&id, "matches_in"), matches_in);
        manifest.counter(query_key(&id, "rows"), rows_emitted);
        manifest.counter(query_key(&id, "replans"), replans);
        QueryReport {
            engine,
            group: q.compiled.group().cloned(),
            matches_in,
            rows_emitted,
            replans,
            rows: q.rows,
            manifest,
            id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::PostPipeline;
    use fqp::query::{AggFunc, CmpOp, WindowKind};
    use joinsw::baseline::reference_join;
    use proptest::prelude::*;
    use streamcore::JoinPredicate;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_spec("trades=sym:32,qty:32").unwrap();
        c.register_spec("quotes=sym:32,px:32").unwrap();
        c
    }

    fn runtime(cores: usize) -> QueryRuntime {
        QueryRuntime::new(catalog(), RuntimeConfig::new(cores))
    }

    fn joined() -> LogicalPlan {
        LogicalPlan::source("trades").join(LogicalPlan::source("quotes"), "sym", 16)
    }

    /// Deterministic interleaved workload over both streams.
    fn workload(tuples: usize, domain: u32) -> Vec<(StreamTag, Tuple)> {
        use streamcore::workload::{KeyDist, WorkloadSpec};
        WorkloadSpec::new(tuples, KeyDist::Zipf { domain, s: 0.8 })
            .with_seed(7)
            .generate()
            .collect()
    }

    fn feed(rt: &mut QueryRuntime, inputs: &[(StreamTag, Tuple)]) {
        for &(tag, t) in inputs {
            let stream = match tag {
                StreamTag::R => "trades",
                StreamTag::S => "quotes",
            };
            rt.push(stream, t).unwrap();
        }
    }

    fn sorted(mut rows: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
        rows.sort();
        rows
    }

    #[test]
    fn shared_group_fans_matches_through_each_query() {
        let mut rt = runtime(4);
        rt.admit("all", &joined()).unwrap();
        rt.admit("big", &joined().filter("qty", CmpOp::Gt, 500))
            .unwrap();
        rt.admit("slim", &joined().project(["qty", "px"])).unwrap();
        assert_eq!(rt.group_count(), 1, "all three share one engine");

        let inputs = workload(400, 24);
        feed(&mut rt, &inputs);
        let reports = rt.finish().unwrap();

        let reference = reference_join(&inputs, 16, JoinPredicate::Equi);
        let whole: Vec<Vec<u64>> = reference
            .iter()
            .map(|m| {
                vec![
                    m.r.key() as u64,
                    m.r.payload() as u64,
                    m.s.key() as u64,
                    m.s.payload() as u64,
                ]
            })
            .collect();
        assert!(!whole.is_empty(), "workload produced no matches");

        let by_id: BTreeMap<&str, &QueryReport> =
            reports.iter().map(|r| (r.id.as_str(), r)).collect();
        assert_eq!(sorted(by_id["all"].rows.clone()), sorted(whole.clone()));
        assert_eq!(
            sorted(by_id["big"].rows.clone()),
            sorted(whole.iter().filter(|v| v[1] > 500).cloned().collect())
        );
        assert_eq!(
            sorted(by_id["slim"].rows.clone()),
            sorted(whole.iter().map(|v| vec![v[1], v[3]]).collect())
        );
    }

    #[test]
    fn a_warmup_sized_poll_fans_out_on_two_threads_and_stays_exact() {
        const WINDOW: usize = 128;
        let join =
            || LogicalPlan::source("trades").join(LogicalPlan::source("quotes"), "sym", WINDOW);
        let mut rt = runtime(2);
        rt.admit("all", &join()).unwrap();
        rt.admit("big", &join().filter("qty", CmpOp::Gt, 500))
            .unwrap();
        rt.admit(
            "view",
            &join().filter("px", CmpOp::Gt, 300).project(["qty", "px"]),
        )
        .unwrap();
        rt.admit("slim", &join().project(["sym", "px"])).unwrap();
        rt.admit(
            "volume",
            &LogicalPlan::source("trades").aggregate(
                AggFunc::Sum,
                Some("qty"),
                4,
                WindowKind::Tumbling,
            ),
        )
        .unwrap();
        assert_eq!(rt.group_count(), 1);

        // Warm-up as the ledger does it: four windows of arrivals, one
        // poll, then single arrivals each followed by a poll.
        let inputs = workload(6 * WINDOW, 8);
        let (warmup, singles) = inputs.split_at(4 * WINDOW);
        feed(&mut rt, warmup);
        let drained = rt.poll().unwrap() as usize;
        assert!(
            drained * 4 >= SPLIT_MIN_EVALUATIONS,
            "the poll must split: {drained} matches"
        );
        for &arrival in singles {
            feed(&mut rt, &[arrival]);
            rt.poll().unwrap();
        }
        let reports = rt.finish().unwrap();

        let reference = reference_join(&inputs, WINDOW, JoinPredicate::Equi);
        let whole: Vec<[u64; 4]> = reference
            .iter()
            .map(|m| {
                [
                    m.r.key() as u64,
                    m.r.payload() as u64,
                    m.s.key() as u64,
                    m.s.payload() as u64,
                ]
            })
            .collect();
        let rows = |keep: fn(&[u64; 4]) -> bool, project: fn(&[u64; 4]) -> Vec<u64>| {
            sorted(whole.iter().filter(|v| keep(v)).map(project).collect())
        };
        let by_id: BTreeMap<&str, &QueryReport> =
            reports.iter().map(|r| (r.id.as_str(), r)).collect();
        let want = [
            ("all", rows(|_| true, |v| v.to_vec())),
            ("big", rows(|v| v[1] > 500, |v| v.to_vec())),
            ("view", rows(|v| v[3] > 300, |v| vec![v[1], v[3]])),
            ("slim", rows(|_| true, |v| vec![v[2], v[3]])),
        ];
        for (id, want) in want {
            let report = by_id[id];
            assert_eq!(sorted(report.rows.clone()), want, "{id}");
            assert_eq!(
                (report.matches_in, report.rows_emitted),
                (whole.len() as u64, want.len() as u64),
                "{id}"
            );
        }
        let trades: Vec<u64> = inputs
            .iter()
            .filter(|(tag, _)| *tag == StreamTag::R)
            .map(|(_, t)| t.payload() as u64)
            .collect();
        let sums: Vec<Vec<u64>> = trades
            .chunks_exact(4)
            .map(|w| vec![w.iter().sum()])
            .collect();
        assert_eq!(by_id["volume"].rows, sums);
        assert_eq!(by_id["volume"].matches_in, trades.len() as u64);
    }

    #[test]
    fn replan_is_lossless_and_preserves_equivalence() {
        let mut rt = runtime(4);
        rt.admit("q", &joined()).unwrap();
        assert_eq!(rt.engine_of("q"), Some(EngineKind::Split));

        let inputs = workload(600, 16);
        let (first, rest) = inputs.split_at(300);
        let (chain_leg, rest) = rest.split_at(150);
        feed(&mut rt, first);
        let handoff = rt.replan("q", Objective::MinLatency).unwrap();
        assert!(handoff.lossless(), "{handoff}");
        assert_eq!(handoff.to, EngineKind::Handshake);
        assert_eq!(rt.engine_of("q"), Some(EngineKind::Handshake));
        assert_eq!(
            handoff.prefilled,
            (
                first
                    .iter()
                    .filter(|(t, _)| *t == StreamTag::R)
                    .count()
                    .min(16),
                first
                    .iter()
                    .filter(|(t, _)| *t == StreamTag::S)
                    .count()
                    .min(16),
            )
        );
        feed(&mut rt, chain_leg);

        // Back onto SplitJoin: its prefill stores without probing, so
        // the reload re-produces nothing.
        let handoff = rt.replan("q", Objective::MaxThroughput).unwrap();
        assert!(handoff.lossless(), "{handoff}");
        assert_eq!(handoff.to, EngineKind::Split);
        assert_eq!(handoff.prefilled, (16, 16));
        assert_eq!(handoff.duplicates_discarded, 0, "{handoff}");
        feed(&mut rt, rest);

        let reports = rt.finish().unwrap();
        let reference = reference_join(&inputs, 16, JoinPredicate::Equi);
        let want: Vec<Vec<u64>> = reference
            .iter()
            .map(|m| {
                vec![
                    m.r.key() as u64,
                    m.r.payload() as u64,
                    m.s.key() as u64,
                    m.s.payload() as u64,
                ]
            })
            .collect();
        assert_eq!(sorted(reports[0].rows.clone()), sorted(want));
        assert_eq!(reports[0].replans, 2);
    }

    #[test]
    fn single_stream_pipelines_run_inline() {
        let mut rt = runtime(2);
        rt.admit(
            "hot",
            &LogicalPlan::source("trades")
                .filter("qty", CmpOp::Gt, 10)
                .project(["sym"]),
        )
        .unwrap();
        rt.admit(
            "volume",
            &LogicalPlan::source("trades").aggregate(
                AggFunc::Sum,
                Some("qty"),
                4,
                WindowKind::Tumbling,
            ),
        )
        .unwrap();
        assert_eq!(rt.group_count(), 0);

        for (i, qty) in [5u32, 20, 30, 40].iter().enumerate() {
            rt.push("trades", Tuple::new(i as u32, *qty)).unwrap();
        }
        assert_eq!(
            rt.take_rows("hot").unwrap(),
            vec![vec![1], vec![2], vec![3]]
        );
        // Tumbling SUM over the unfiltered arrivals: one row per 4.
        assert_eq!(rt.take_rows("volume").unwrap(), vec![vec![95]]);
    }

    #[test]
    fn a_projected_member_replans_its_group_where_a_bare_one_does() {
        // The objective alone picks the engine, so re-planning a shared
        // group through its projected member lands where re-planning it
        // through the bare join does.
        let mut rt = runtime(2);
        assert_eq!(rt.admit("all", &joined()).unwrap(), EngineKind::Split);
        let slim = joined().project(["qty", "px"]);
        assert_eq!(rt.admit("slim", &slim).unwrap(), EngineKind::Split);
        feed(&mut rt, &workload(64, 8));
        for id in ["slim", "all"] {
            let handoff = rt.replan(id, Objective::MaxThroughput).unwrap();
            assert!(handoff.lossless(), "{id}: {handoff}");
            assert_eq!(handoff.to, EngineKind::Split, "{id}: {handoff}");
            assert_eq!(rt.engine_of("all"), Some(EngineKind::Split), "{id}");
            assert_eq!(rt.engine_of("slim"), Some(EngineKind::Split), "{id}");
        }
    }

    #[test]
    fn duplicate_unknown_and_inline_replans_are_typed_errors() {
        let mut rt = runtime(2);
        rt.admit("q", &joined()).unwrap();
        assert!(matches!(
            rt.admit("q", &joined()),
            Err(RuntimeError::Duplicate { .. })
        ));
        assert!(matches!(
            rt.take_rows("ghost"),
            Err(RuntimeError::Unknown { .. })
        ));
        rt.admit("inline", &LogicalPlan::source("trades")).unwrap();
        assert!(matches!(
            rt.replan("inline", Objective::MinLatency),
            Err(RuntimeError::NotJoined { .. })
        ));
        assert!(matches!(
            rt.admit("bad", &LogicalPlan::source("nope")),
            Err(RuntimeError::Compile(_))
        ));
    }

    #[test]
    fn a_zero_window_is_a_typed_error_for_joins_and_aggregates() {
        use crate::compile::CompileError;
        use fqp::plan::PlanError;

        let mut rt = runtime(2);
        let zero_join = LogicalPlan::source("trades").join(LogicalPlan::source("quotes"), "sym", 0);
        let zero_sum = LogicalPlan::source("trades").aggregate(
            AggFunc::Sum,
            Some("qty"),
            0,
            WindowKind::Sliding,
        );
        for (id, plan, stream) in [("join", zero_join, "quotes"), ("sum", zero_sum, "trades")] {
            match rt.admit(id, &plan) {
                Err(RuntimeError::Compile(CompileError::Plan(PlanError::ZeroWindow {
                    stream: named,
                }))) => assert_eq!(named, stream, "{id}"),
                other => panic!("{id}: expected a zero-window error, got {other:?}"),
            }
        }
        assert_eq!(rt.group_count(), 0, "nothing was admitted");
        rt.push("trades", Tuple::new(1, 5)).unwrap();
        assert!(matches!(
            rt.take_rows("sum"),
            Err(RuntimeError::Unknown { .. })
        ));
    }

    #[test]
    fn cancel_detaches_and_reaps_empty_groups() {
        let mut rt = runtime(2);
        rt.admit("a", &joined()).unwrap();
        rt.admit("b", &joined().filter("qty", CmpOp::Gt, 0))
            .unwrap();
        assert_eq!(rt.group_count(), 1);

        let inputs = workload(100, 8);
        feed(&mut rt, &inputs);
        let report = rt.cancel("a").unwrap();
        assert!(report.matches_in > 0);
        assert_eq!(rt.group_count(), 1, "b still holds the group");
        let report = rt.cancel("b").unwrap();
        assert_eq!(rt.group_count(), 0, "last member reaps the engine");
        assert!(report.rows_emitted > 0);
        assert!(rt.finish().unwrap().is_empty());
    }

    #[test]
    fn live_counters_and_manifests_are_tagged_per_query() {
        let mut rt = runtime(2);
        rt.admit("tagged", &joined()).unwrap();
        let inputs = workload(120, 8);
        feed(&mut rt, &inputs);
        rt.poll().unwrap();

        let live = rt.live().clone();
        assert!(
            live.values()
                .get("group.trades_quotes_w16.arrivals")
                .unwrap()
                > 0
        );
        assert!(live.values().get("query.tagged.matches_in").unwrap() > 0);

        let reports = rt.finish().unwrap();
        let manifest = &reports[0].manifest;
        assert_eq!(manifest.name(), "query_tagged");
        // One key, one number: the manifest's query counters are the
        // registry's final reading.
        let last = live.values();
        for (name, value) in manifest.counters().iter() {
            if let Some(cell) = last.get(name) {
                assert_eq!(cell, value, "{name}");
            }
        }
        assert!(last.get("query.tagged.rows").is_some());
        let json = manifest.to_json();
        assert!(json.contains("query.tagged.rows"), "{json}");
        assert!(json.contains("trades"), "{json}");
    }

    #[test]
    fn cancel_unregisters_the_querys_live_cells() {
        let mut rt = runtime(2);
        rt.admit("keeper", &joined()).unwrap();
        let start = rt.live().len();
        for i in 0..1_000 {
            let id = format!("q{i}");
            if i % 3 == 0 {
                rt.admit(&id, &LogicalPlan::source("trades")).unwrap();
            } else {
                rt.admit(&id, &joined().filter("qty", CmpOp::Gt, i))
                    .unwrap();
            }
            if i % 300 == 1 {
                rt.replan(&id, Objective::MaxThroughput).unwrap();
            }
            rt.cancel(&id).unwrap();
        }
        assert_eq!(rt.live().len(), start);

        // The last member reaps the group; its cells stay as final totals.
        rt.cancel("keeper").unwrap();
        let names: Vec<String> = rt.live().entries().into_iter().map(|e| e.0).collect();
        assert_eq!(
            names,
            [
                "group.trades_quotes_w16.arrivals",
                "group.trades_quotes_w16.drained"
            ]
        );
    }

    #[test]
    fn cancel_reports_the_per_record_counts_and_a_readmit_starts_from_zero() {
        /// `(matches, rows)` of `joined().filter(qty > 100)` by the
        /// reference join, one record at a time.
        fn reference(inputs: &[(StreamTag, Tuple)]) -> (u64, u64) {
            let matches = reference_join(inputs, 16, JoinPredicate::Equi);
            let rows = matches.iter().filter(|m| m.r.payload() > 100).count();
            (matches.len() as u64, rows as u64)
        }
        let counts = |report: &QueryReport| {
            let counters = report.manifest.counters();
            (
                (report.matches_in, report.rows_emitted),
                (
                    counters.get("query.q.matches_in"),
                    counters.get("query.q.rows"),
                    counters.get("query.q.replans"),
                ),
            )
        };
        let plan = joined().filter("qty", CmpOp::Gt, 100);
        let mut rt = runtime(2);

        rt.admit("q", &plan).unwrap();
        let inputs = workload(300, 12);
        let (head, tail) = inputs.split_at(120);
        feed(&mut rt, head);
        rt.poll().unwrap();
        feed(&mut rt, tail);
        let (matches, rows) = reference(&inputs);
        assert!(matches > 0 && rows > 0, "workload produced no rows");
        let report = rt.cancel("q").unwrap();
        assert_eq!(
            counts(&report),
            ((matches, rows), (Some(matches), Some(rows), Some(0)))
        );

        // The same id again: fresh cells, and a fresh group (the cancel
        // reaped the old one), so the counts cover the new arrivals only.
        rt.admit("q", &plan).unwrap();
        assert_eq!(rt.live().values().get("query.q.matches_in"), Some(0));
        let again = workload(100, 12);
        feed(&mut rt, &again);
        let (matches, rows) = reference(&again);
        let report = rt.cancel("q").unwrap();
        assert_eq!(
            counts(&report),
            ((matches, rows), (Some(matches), Some(rows), Some(0)))
        );
    }

    #[test]
    fn push_on_an_uncatalogued_stream_is_a_typed_error() {
        let mut rt = runtime(2);
        let t = Tuple::new(1, 2);
        assert!(matches!(
            rt.push("nope", t),
            Err(RuntimeError::UnknownStream { stream }) if stream == "nope"
        ));
        assert!(matches!(
            rt.push_batch("nope", &[]),
            Err(RuntimeError::UnknownStream { .. })
        ));
        // Catalogued, but nothing consumes it yet: a no-op.
        rt.push("quotes", t).unwrap();
        rt.admit("all", &LogicalPlan::source("trades")).unwrap();
        rt.push("quotes", t).unwrap();
        rt.push("TRADES", t).unwrap();
        assert_eq!(rt.take_rows("all").unwrap(), vec![vec![1, 2]]);
    }

    /// A stream's consumers: `(group slot, side)` pairs and single-query slots.
    type Consumers = (Vec<(usize, StreamTag)>, Vec<usize>);

    /// The route table the admitted queries imply, built from scratch.
    fn expected_routes(rt: &QueryRuntime) -> BTreeMap<String, Consumers> {
        let mut routes: BTreeMap<String, Consumers> = BTreeMap::new();
        for (slot, group) in rt.groups.iter() {
            let key = &group.key;
            routes
                .entry(key.left.clone())
                .or_default()
                .0
                .push((slot, StreamTag::R));
            routes
                .entry(key.right.clone())
                .or_default()
                .0
                .push((slot, StreamTag::S));
        }
        for (slot, q) in rt.queries.iter() {
            if let Shape::Single { stream, .. } = &q.compiled.shape {
                routes.entry(stream.clone()).or_default().1.push(slot);
            }
        }
        routes
    }

    /// The route table the runtime maintained, consumers in slot order.
    fn actual_routes(rt: &QueryRuntime) -> BTreeMap<String, Consumers> {
        rt.routes
            .iter()
            .map(|r| {
                let (mut groups, mut singles) = (r.groups.clone(), r.singles.clone());
                groups.sort_unstable_by_key(|&(slot, _)| slot);
                singles.sort_unstable();
                (r.stream.clone(), (groups, singles))
            })
            .collect()
    }

    /// Arrivals each group has taken, as `(arrivals, R-shadow, S-shadow)`
    /// by key.
    fn group_arrivals(rt: &QueryRuntime) -> BTreeMap<String, (u64, usize, usize)> {
        rt.groups
            .iter()
            .map(|(_, g)| {
                (
                    g.key.to_string(),
                    (g.arrivals.get(), g.shadow_r.len(), g.shadow_s.len()),
                )
            })
            .collect()
    }

    #[test]
    fn routes_stay_exact_through_admit_cancel_readmit_and_replan() {
        let mut c = catalog();
        c.register_spec("orders=sym:32,lot:32").unwrap();
        let mut rt = QueryRuntime::new(c, RuntimeConfig::new(2));
        // `quotes` is the right side of one group and the left of another.
        let tq = joined();
        let qo = LogicalPlan::source("quotes").join(LogicalPlan::source("orders"), "sym", 16);
        rt.admit("tq", &tq).unwrap();
        rt.admit("qo", &qo).unwrap();
        rt.admit("tap", &LogicalPlan::source("quotes")).unwrap();
        assert_eq!(actual_routes(&rt), expected_routes(&rt));
        assert_eq!(rt.routes.len(), 3);

        rt.cancel("tq").unwrap();
        assert_eq!(actual_routes(&rt), expected_routes(&rt));
        assert_eq!(rt.routes.len(), 2, "nothing consumes trades any more");
        rt.push("trades", Tuple::new(1, 1)).unwrap();

        rt.admit("tq2", &tq.clone().project(["qty"])).unwrap();
        rt.cancel("tap").unwrap();
        rt.admit("tq3", &tq).unwrap();
        rt.replan("qo", Objective::MinLatency).unwrap();
        assert_eq!(actual_routes(&rt), expected_routes(&rt));
        assert_eq!((rt.group_count(), rt.routes.len()), (2, 3));

        for i in 0..5 {
            rt.push("quotes", Tuple::new(i, i)).unwrap();
        }
        rt.push_batch("orders", &[Tuple::new(1, 9), Tuple::new(2, 9)])
            .unwrap();
        rt.push("trades", Tuple::new(3, 7)).unwrap();
        let arrivals = group_arrivals(&rt);
        assert_eq!(arrivals["trades⋈quotes/w16"], (6, 1, 5));
        assert_eq!(arrivals["quotes⋈orders/w16"], (7, 5, 2));

        let reports = rt.finish().unwrap();
        let by_id: BTreeMap<&str, &QueryReport> =
            reports.iter().map(|r| (r.id.as_str(), r)).collect();
        assert_eq!(by_id["tq3"].rows, vec![vec![3, 7, 3, 3]]);
        assert_eq!(by_id["tq2"].rows, vec![vec![7]]);
        assert_eq!(
            sorted(by_id["qo"].rows.clone()),
            vec![vec![1, 1, 1, 9], vec![2, 2, 2, 9]]
        );
    }

    #[test]
    fn poll_mid_run_streams_rows_incrementally() {
        let mut rt = runtime(2);
        rt.admit("inc", &joined()).unwrap();
        let inputs = workload(200, 8);
        let mut seen = 0u64;
        for chunk in inputs.chunks(50) {
            feed(&mut rt, chunk);
            rt.poll().unwrap();
            seen += rt.take_rows("inc").unwrap().len() as u64;
        }
        let reports = rt.finish().unwrap();
        let reference = reference_join(&inputs, 16, JoinPredicate::Equi);
        assert_eq!(seen + reports[0].rows.len() as u64, reference.len() as u64);
    }

    /// A joined standing query over streams of the given arities, with
    /// `post` in place of the compiled pipeline.
    fn joined_standing(left: usize, right: usize, post: &PostPipeline) -> Standing {
        let mut c = Catalog::new();
        for spec in ["l1=k:32", "l2=k:32,v:32", "r1=k:32", "r2=k:32,w:32"] {
            c.register_spec(spec).unwrap();
        }
        let plan = LogicalPlan::source(format!("l{left}")).join(
            LogicalPlan::source(format!("r{right}")),
            "k",
            8,
        );
        let mut compiled = compile(&plan, &c, 2, Objective::MaxThroughput).unwrap();
        let Shape::Joined { post: slot, .. } = &mut compiled.shape else {
            panic!("expected a joined shape");
        };
        *slot = post.clone();
        Standing::new("p", compiled, None, &obs::Registry::new())
    }

    /// A pipeline over `width`-field records from unconstrained draws.
    fn pipeline(
        width: usize,
        conditions: &[(usize, CmpOp, u64)],
        projection: &(bool, Vec<usize>),
    ) -> PostPipeline {
        let conditions = conditions
            .iter()
            .map(|&(field, op, value)| fqp::plan::BoundCondition {
                field: field % width,
                op,
                value,
            })
            .collect();
        PostPipeline {
            filter: Some(fqp::plan::PlanOp::Select { conditions }),
            projection: projection
                .0
                .then(|| projection.1.iter().map(|i| i % width).collect()),
        }
    }

    fn arb_op() -> impl Strategy<Value = CmpOp> {
        prop::sample::select(vec![
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whole blocks through `absorb`, split at arbitrary poll points,
        /// give the rows of a per-record `PostPipeline::apply` loop in
        /// the same order, and the same counts.
        #[test]
        fn block_fan_out_equals_the_per_record_reference(
            left in 1usize..3,
            right in 1usize..3,
            conditions in prop::collection::vec((0usize..4, arb_op(), 0u64..5), 0..4),
            projection in (any::<bool>(), prop::collection::vec(0usize..4, 1..6)),
            matches in prop::collection::vec((0u32..5, 0u32..5, 0u32..5, 0u32..5), 0..48),
            cuts in prop::collection::vec(0usize..49, 0..4),
        ) {
            let post = pipeline(left + right, &conditions, &projection);
            let matches: Vec<MatchPair> = matches
                .iter()
                .map(|&(rk, rp, sk, sp)| MatchPair { r: Tuple::new(rk, rp), s: Tuple::new(sk, sp) })
                .collect();
            let want: Vec<Vec<u64>> = matches
                .iter()
                .filter_map(|m| {
                    let mut values = vec![m.r.key() as u64];
                    if left == 2 {
                        values.push(m.r.payload() as u64);
                    }
                    values.push(m.s.key() as u64);
                    if right == 2 {
                        values.push(m.s.payload() as u64);
                    }
                    post.apply(&values)
                })
                .collect();

            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (matches.len() + 1)).collect();
            cuts.extend([0, matches.len()]);
            cuts.sort_unstable();
            let mut q = joined_standing(left, right, &post);
            let mut got = Vec::new();
            for span in cuts.windows(2) {
                q.absorb(Block::Matches(&matches[span[0]..span[1]]));
                got.append(&mut q.rows);
            }
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(
                (q.matches_in.get(), q.rows_out.get()),
                (matches.len() as u64, want.len() as u64)
            );
        }

        /// `fan_out` on 1–4 threads, for blocks below and above
        /// [`SPLIT_MIN_EVALUATIONS`], gives every member the rows, in
        /// order, and the counts of a serial `absorb` loop.
        #[test]
        fn threaded_fan_out_equals_a_serial_absorb_loop(
            left in 1usize..3,
            right in 1usize..3,
            members in prop::collection::vec(
                (
                    prop::collection::vec((0usize..4, arb_op(), 0u64..5), 0..3),
                    (any::<bool>(), prop::collection::vec(0usize..4, 1..5)),
                ),
                1..7,
            ),
            matches in prop::collection::vec((0u32..5, 0u32..5, 0u32..5, 0u32..5), 0..1_500),
            cores in 1usize..5,
            rotate in 0usize..6,
        ) {
            let posts: Vec<PostPipeline> = members
                .iter()
                .map(|(conditions, projection)| pipeline(left + right, conditions, projection))
                .collect();
            let matches: Vec<MatchPair> = matches
                .iter()
                .map(|&(rk, rp, sk, sp)| MatchPair { r: Tuple::new(rk, rp), s: Tuple::new(sk, sp) })
                .collect();
            let block = Block::Matches(&matches);

            let mut serial: Vec<Standing> =
                posts.iter().map(|post| joined_standing(left, right, post)).collect();
            serial.iter_mut().for_each(|q| q.absorb(block));

            let mut queries = Slots::new();
            for post in &posts {
                queries.insert(joined_standing(left, right, post));
            }
            let mut consumers: Vec<usize> = (0..posts.len()).collect();
            consumers.rotate_left(rotate % posts.len());
            fan_out(&mut queries, &consumers, block, cores);

            for (slot, want) in serial.iter().enumerate() {
                let got = queries.get(slot).unwrap();
                prop_assert_eq!(&got.rows, &want.rows);
                prop_assert_eq!(
                    (got.matches_in.get(), got.rows_out.get()),
                    (want.matches_in.get(), want.rows_out.get())
                );
            }
        }

        /// The same for single-stream queries, whose blocks are arrivals.
        #[test]
        fn arrival_blocks_equal_the_per_record_reference(
            two_fields in any::<bool>(),
            conditions in prop::collection::vec((0usize..2, arb_op(), 0u64..5), 0..4),
            projection in (any::<bool>(), prop::collection::vec(0usize..2, 1..4)),
            tuples in prop::collection::vec((0u32..5, 0u32..5), 0..48),
            cut in 0usize..49,
        ) {
            let mut c = catalog();
            c.register_spec("beats=node:32").unwrap();
            let (stream, arity) = if two_fields { ("trades", 2) } else { ("beats", 1) };
            let post = pipeline(arity, &conditions, &projection);
            let mut compiled =
                compile(&LogicalPlan::source(stream), &c, 2, Objective::MaxThroughput).unwrap();
            let Shape::Single { post: slot, .. } = &mut compiled.shape else {
                panic!("expected a single-stream shape");
            };
            *slot = post.clone();
            let mut q = Standing::new("p", compiled, None, &obs::Registry::new());

            let tuples: Vec<Tuple> = tuples.iter().map(|&(k, p)| Tuple::new(k, p)).collect();
            let want: Vec<Vec<u64>> = tuples
                .iter()
                .filter_map(|t| post.apply(&[t.key() as u64, t.payload() as u64][..arity]))
                .collect();
            let (head, tail) = tuples.split_at(cut % (tuples.len() + 1));
            q.absorb(Block::Arrivals(head));
            let mut got = std::mem::take(&mut q.rows);
            q.absorb(Block::Arrivals(tail));
            got.append(&mut q.rows);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(
                (q.matches_in.get(), q.rows_out.get()),
                (tuples.len() as u64, want.len() as u64)
            );
        }
    }
}

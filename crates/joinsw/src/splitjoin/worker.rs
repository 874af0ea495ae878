//! One join core: window state, its storage turn
//! ([`WorkerState::take_turn`]), the two probe paths, and its part of the
//! core loop (`supervise::run_core`): its non-blocking receive (its
//! ring's `try_pop`), and what each distribution message means to it.
//! The loop does the waiting, and ends the core once the ring closes.
//!
//! A message below [`MIN_BLOCK_PROBES`] tuples takes the per-tuple path:
//! each tuple is one [`FlatWindow::probe`] of the opposite sub-window and
//! a store. A larger one takes the blocked path, whose kernels probe a
//! snapshot of both sub-windows and whose per-probe corrections sweep the
//! batch's own stores with the same predicate sweeps the probe uses
//! ([`JoinPredicate::count_matches`], [`JoinPredicate::emit_matches`]).

use std::sync::Arc;

use crate::error::WorkerStats;
use streamcore::kernel::{self, KernelStats, MIN_BLOCK_PROBES};
use streamcore::ring::{PopError, RingConsumer};
use streamcore::{FlatWindow, JoinPredicate, MatchPair, PartitionMap, StreamTag, Tuple};

use super::lanes::Msg;
use super::SplitJoinConfig;
use crate::supervise::{span_start, Core, WorkerCell};

/// What each worker thread leaves behind at exit besides its statistics,
/// which stay in its cell.
pub(super) type WorkerExit = (KernelStats, Option<obs::trace::TraceRing>);

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
/// window side (see [`tag_side`]); capacity persists across batches so
/// steady state allocates nothing.
#[derive(Debug, Default)]
struct BlockedScratch {
    /// Oldest-first copy of each sub-window's keys.
    snap_keys: [Vec<u32>; 2],
    /// Payloads parallel to `snap_keys`; filled only when materializing.
    snap_pays: [Vec<u32>; 2],
    /// Keys of the tuples this worker stores into each window during
    /// the batch, in arrival order.
    news_keys: [Vec<u32>; 2],
    /// Payloads parallel to `news_keys`.
    news_pays: [Vec<u32>; 2],
    /// Probes against each window, in batch order.
    probes: [Vec<BlockedProbe>; 2],
    /// Keys parallel to `probes` — the contiguous slice the kernel scans.
    probe_keys: [Vec<u32>; 2],
}

/// Index of a stream's window and its scratch arrays (R = 0, S = 1).
fn tag_side(tag: StreamTag) -> usize {
    match tag {
        StreamTag::R => 0,
        StreamTag::S => 1,
    }
}

pub(super) struct WorkerState {
    msgs: RingConsumer<Msg>,
    position: u64,
    n: u64,
    predicate: JoinPredicate,
    /// The R and S sub-windows, indexed by [`tag_side`].
    windows: [FlatWindow; 2],
    /// Arrivals seen per stream, indexed by [`tag_side`]: the storage
    /// turns ([`WorkerState::take_turn`]).
    turns: [u64; 2],
    stats: WorkerStats,
    kstats: KernelStats,
    /// Re-partitioned ownership after a sibling died; `None` means the
    /// original `count % n == position` discipline.
    map: Option<Arc<PartitionMap>>,
    /// Matches of the message being processed; moved into the cell's
    /// outbox at the message boundary, so empty between messages (and
    /// always when counting-only).
    out: Vec<MatchPair>,
    /// Materialize matches (`false` = counting-only).
    collect: bool,
    cell: Arc<WorkerCell>,
    /// Blocked-path batch buffers.
    scratch: BlockedScratch,
}

impl WorkerState {
    pub(super) fn new(
        position: usize,
        config: &SplitJoinConfig,
        msgs: RingConsumer<Msg>,
        cell: Arc<WorkerCell>,
    ) -> Self {
        let sub = config.sub_window();
        Self {
            msgs,
            position: position as u64,
            n: config.num_cores as u64,
            predicate: config.predicate,
            windows: [FlatWindow::new(sub), FlatWindow::new(sub)],
            turns: [0; 2],
            stats: WorkerStats::default(),
            kstats: KernelStats::default(),
            map: None,
            out: Vec::new(),
            collect: config.collect_results,
            cell,
            scratch: BlockedScratch::default(),
        }
    }

    /// One distribution batch. The blocked kernel applies only where it
    /// pays — batches with enough probes to fill compare tiles
    /// ([`MIN_BLOCK_PROBES`]); undersized ones run the per-tuple path.
    fn handle_batch(&mut self, batch: &[(StreamTag, Tuple)]) {
        if batch.len() >= MIN_BLOCK_PROBES {
            self.handle_batch_blocked(batch);
            return;
        }
        self.kstats.scalar_fallbacks += batch.len() as u64;
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
        let materialize = self.collect;
        let mut lens = [0usize; 2];
        let mut caps = [0usize; 2];
        let scratch = &mut self.scratch;
        for (side, f) in self.windows.iter().enumerate() {
            f.snapshot_into(
                &mut scratch.snap_keys[side],
                &mut scratch.snap_pays[side],
                materialize,
            );
            lens[side] = f.len();
            caps[side] = f.capacity();
            scratch.news_keys[side].clear();
            scratch.news_pays[side].clear();
            scratch.probes[side].clear();
            scratch.probe_keys[side].clear();
        }
        self.stats.tuples_seen += batch.len() as u64;
        // Phase 1: walk the batch in arrival order, recording each
        // probe's visibility span and taking each storage turn — but
        // deferring the inserts themselves.
        for &(tag, tuple) in batch {
            let side = tag_side(tag);
            let g = 1 - side; // the window this tuple probes
            let j = self.scratch.news_keys[g].len();
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
            if self.take_turn(tag) {
                self.stats.stored += 1;
                self.scratch.news_keys[side].push(tuple.key());
                self.scratch.news_pays[side].push(tuple.payload());
            }
        }
        // Phase 2: blocked probe per window, plus per-probe scalar
        // corrections (each correction is tallied as a fallback lane).
        let WorkerState {
            predicate,
            stats,
            kstats,
            out,
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
            let tag = if probe_is_r {
                StreamTag::R
            } else {
                StreamTag::S
            };
            let snap_keys = &scratch.snap_keys[g];
            if !materialize {
                let mut matched = kernel::count_block(
                    *predicate,
                    probe_is_r,
                    &scratch.probe_keys[g],
                    snap_keys,
                    kstats,
                );
                // The evicted snapshot prefix, which the kernel counted.
                for p in probes.iter().filter(|p| p.sn_start > 0) {
                    matched -= predicate.count_matches(
                        p.tuple.key(),
                        probe_is_r,
                        &snap_keys[..p.sn_start as usize],
                    ) as u64;
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
                        out.push(MatchPair::oriented(
                            tag,
                            p.tuple,
                            Tuple::new(snap_keys[ki], snap_pays[ki]),
                        ));
                    },
                );
            }
            // The intra-batch span each probe saw: a contiguous slice of
            // the batch's own stores, swept like a window segment.
            let (news_keys, news_pays) = (&scratch.news_keys[g], &scratch.news_pays[g]);
            for p in probes {
                let span = p.new_lo as usize..p.j as usize;
                if p.sn_start > 0 || !span.is_empty() {
                    kstats.scalar_fallbacks += 1;
                }
                let keys = &news_keys[span.clone()];
                stats.matches += if materialize {
                    predicate.emit_matches(tag, p.tuple, keys, &news_pays[span], out)
                } else {
                    predicate.count_matches(p.tuple.key(), probe_is_r, keys)
                } as u64;
            }
        }
        // Phase 3: the deferred stores, in arrival order per side (the
        // two windows are independent, so side-major application lands
        // the same final ring state as the interleaved per-tuple path).
        for (side, window) in self.windows.iter_mut().enumerate() {
            let scratch = &self.scratch;
            for (&k, &p) in scratch.news_keys[side].iter().zip(&scratch.news_pays[side]) {
                window.insert(Tuple::new(k, p));
            }
        }
    }

    fn handle_tuple(&mut self, tag: StreamTag, tuple: Tuple) {
        self.stats.tuples_seen += 1;
        let opposite = &self.windows[1 - tag_side(tag)];
        self.stats.comparisons += opposite.len() as u64;
        let out = self.collect.then_some(&mut self.out);
        self.stats.matches += opposite.probe(self.predicate, tag, tuple, out) as u64;
        self.store(tag, tuple, true);
    }

    /// Advances stream `tag`'s arrival count and says whether this
    /// worker stores that arrival: round-robin without central
    /// coordination; after a reconfigure, the broadcast partition map
    /// replaces the modulo.
    fn take_turn(&mut self, tag: StreamTag) -> bool {
        let count = &mut self.turns[tag_side(tag)];
        let turn = *count;
        *count += 1;
        match &self.map {
            None => turn % self.n == self.position,
            Some(map) => map.owner(turn) == self.position as usize,
        }
    }

    fn store(&mut self, tag: StreamTag, tuple: Tuple, count_stat: bool) {
        if self.take_turn(tag) {
            if count_stat {
                self.stats.stored += 1;
            }
            self.windows[tag_side(tag)].insert(tuple);
        }
    }
}

impl Core for WorkerState {
    type Msg = Msg;
    /// Probed in place; this worker's handle drops with the work (or on
    /// unwind, under a scripted panic).
    type Data = Arc<[(StreamTag, Tuple)]>;
    type Exit = WorkerExit;
    const TRACK: &'static str = "sw.worker";
    const WORK_SPAN: &'static str = "probe";
    const HAND_OFF_SPAN: Option<&'static str> = Some("send");

    fn parts(&mut self) -> (&Arc<WorkerCell>, &WorkerStats, &mut Vec<MatchPair>) {
        (&self.cell, &self.stats, &mut self.out)
    }

    fn try_recv(&mut self) -> Result<Msg, PopError> {
        self.msgs.try_pop()
    }

    fn queued(&self) -> usize {
        self.msgs.len()
    }

    fn open(
        &mut self,
        msg: Msg,
        ring: &mut Option<obs::trace::TraceRing>,
    ) -> Option<(Self::Data, usize)> {
        match msg {
            Msg::Batch(batch) => {
                let len = batch.len();
                return Some((batch, len));
            }
            Msg::Prefill(tag, tuples) => {
                // Same round-robin discipline, no probing.
                let t0 = span_start(ring);
                for &t in tuples.iter() {
                    self.store(tag, t, false);
                }
                if let Some(r) = ring.as_mut() {
                    let t1 = obs::trace::now_ns();
                    r.record_arg("insert", t0, t1.saturating_sub(t0), tuples.len() as u64);
                }
            }
            Msg::Reconfigure(map) => self.map = Some(map),
        }
        None
    }

    fn work(&mut self, batch: Self::Data) {
        self.handle_batch(&batch);
    }

    fn exit(self, ring: Option<obs::trace::TraceRing>) -> WorkerExit {
        (self.kstats, ring)
    }
}

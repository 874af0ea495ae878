//! One join core: window state, the two probe paths, and its part of
//! the core loop (`supervise::run_core`): its non-blocking receive (its
//! ring's `try_pop`), and what each distribution message means to it.
//! The loop does the waiting, and ends the core once the ring closes.

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

pub(super) struct WorkerState {
    msgs: RingConsumer<Msg>,
    position: u64,
    n: u64,
    predicate: JoinPredicate,
    window_r: FlatWindow,
    window_s: FlatWindow,
    r_count: u64,
    s_count: u64,
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
            window_r: FlatWindow::new(sub),
            window_s: FlatWindow::new(sub),
            r_count: 0,
            s_count: 0,
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
        {
            let WorkerState {
                window_r,
                window_s,
                scratch,
                ..
            } = self;
            for (side, f) in [(0, &*window_r), (1, &*window_s)] {
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
                        out.push(MatchPair::oriented(
                            tag,
                            p.tuple,
                            Tuple::new(snap_keys[ki], snap_pays[ki]),
                        ));
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
                            out.push(MatchPair::oriented(tag, p.tuple, *t));
                        }
                    }
                }
            }
        }
        // Phase 3: the deferred stores, in arrival order per side (the
        // two windows are independent, so side-major application lands
        // the same final ring state as the interleaved per-tuple path).
        for side in 0..2 {
            let window = if side == 0 {
                &mut self.window_r
            } else {
                &mut self.window_s
            };
            for &t in &self.scratch.news[side] {
                window.insert(t);
            }
        }
    }

    fn handle_tuple(&mut self, tag: StreamTag, tuple: Tuple) {
        self.stats.tuples_seen += 1;
        // Probe the opposite sub-window: scan the contiguous key
        // segments of the flat window, touching a payload only when the
        // key predicate holds. Disjoint field borrows: the window stays
        // shared while stats/out mutate.
        let WorkerState {
            predicate,
            window_r,
            window_s,
            stats,
            out,
            collect,
            ..
        } = self;
        let opposite = match tag {
            StreamTag::R => &*window_s,
            StreamTag::S => &*window_r,
        };
        let probe_key = tuple.key();
        if !*collect {
            // Counting-only: no pair materialization, so each segment
            // reduces to one predicate sweep over the contiguous key
            // array that the compiler can vectorize (`count_matches`
            // hoists the dispatch).
            let probe_is_r = tag == StreamTag::R;
            for (keys, _) in opposite.segments() {
                stats.comparisons += keys.len() as u64;
                stats.matches += predicate.count_matches(probe_key, probe_is_r, keys) as u64;
            }
        } else {
            for (keys, payloads) in opposite.segments() {
                // One comparison per stored key, counted per segment so
                // the scan itself stays branch-light.
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
                    }
                }
            }
        }
        self.store(tag, tuple, true);
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

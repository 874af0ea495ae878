//! One join core: window state, the two probe paths and the thread
//! loop.

use std::sync::Arc;

use accel_error::WorkerStats;
use streamcore::kernel::{self, KernelStats, MIN_BLOCK_PROBES};
use streamcore::ring::{ArenaReader, RingConsumer};
use streamcore::{
    FlatWindow, JoinPredicate, MatchPair, PartitionMap, PartitionedWindow, StreamTag, Tuple,
};

use super::lanes::{recv_msg, Msg, PartEntry};
use super::live::LiveWorker;
use super::SplitJoinConfig;
use crate::config::Partitioning;
use crate::supervise::{
    run_scripted_batch, span_start, AliveGuard, BatchOutcome, ScriptedCore, WorkerCell,
};

/// What each worker thread leaves behind at exit.
pub(super) type WorkerExit = (WorkerStats, KernelStats, Option<obs::trace::TraceRing>);

/// Worker-side state of the keyed dispatch: one key-sharded window per
/// stream, evicted by the router-stamped global sequence watermarks
/// (never local counts — that is what keeps the shard union exactly
/// equal to the broadcast window at every probe).
struct PartState {
    window_r: PartitionedWindow,
    window_s: PartitionedWindow,
    /// Effective global window size.
    horizon: u64,
}

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

struct WorkerState {
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
    /// Keyed-dispatch shards; `None` in broadcast mode.
    part: Option<PartState>,
    /// Blocked-path batch buffers.
    scratch: BlockedScratch,
}

impl WorkerState {
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
            let WorkerState { window_r, window_s, scratch, .. } = self;
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
            let tag = if probe_is_r { StreamTag::R } else { StreamTag::S };
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
            let window = if side == 0 { &mut self.window_r } else { &mut self.window_s };
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
        let WorkerState { predicate, window_r, window_s, stats, out, collect, .. } = self;
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
                        out.push(MatchPair::oriented(tag, tuple, Tuple::new(key, payloads[i])));
                    }
                }
            }
        }
        self.store(tag, tuple, true);
    }

    /// One keyed-dispatch entry ([`Msg::Part`]): probe the opposite
    /// shard inside its eviction watermark, then store into the own
    /// shard when the router stamped this worker as the storage site.
    /// Probes are per-key chain walks (equi-join only), so comparisons
    /// equal matches.
    fn handle_part_entry(&mut self, e: PartEntry) {
        if e.probe {
            // Prefill entries are uncounted, as in broadcast mode.
            self.stats.tuples_seen += 1;
        }
        // Disjoint field borrows, as in `handle_tuple`.
        let WorkerState { part, stats, kstats, out, collect, .. } = self;
        let ps = part.as_mut().expect("keyed dispatch needs shard state");
        let horizon = ps.horizon;
        let (own, opposite) = match e.tag {
            StreamTag::R => (&mut ps.window_r, &mut ps.window_s),
            StreamTag::S => (&mut ps.window_s, &mut ps.window_r),
        };
        if e.probe {
            opposite.evict_below(e.opp.saturating_sub(horizon));
            if !*collect {
                // Keyed shards chain by exact key, so every chain entry
                // matches: counting-only probes collapse to the O(1)
                // chain length instead of walking it.
                let n = opposite.probe_len(e.tuple.key()) as u64;
                stats.comparisons += n;
                stats.matches += n;
                kstats.lanes += n;
                kstats.match_bits += n;
            } else {
                for stored in opposite.probe(e.tuple.key()) {
                    stats.comparisons += 1;
                    stats.matches += 1;
                    out.push(MatchPair::oriented(e.tag, e.tuple, stored));
                }
            }
        }
        if e.store {
            own.evict_below((e.seq + 1).saturating_sub(horizon));
            own.insert(e.seq, e.tuple);
            if e.probe {
                // Prefill stores are uncounted, as in broadcast mode.
                stats.stored += 1;
            }
        }
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

impl ScriptedCore for WorkerState {
    const WORK_SPAN: &'static str = "probe";
    const HAND_OFF_SPAN: Option<&'static str> = Some("send");

    fn parts(&mut self) -> (&WorkerCell, &WorkerStats, &mut Vec<MatchPair>) {
        (&self.cell, &self.stats, &mut self.out)
    }
}

pub(super) fn worker_loop(
    position: usize,
    config: &SplitJoinConfig,
    mut msgs: RingConsumer<Msg>,
    // This worker's reader into the shared batch arena, where
    // [`Msg::ArenaBatch`] payloads live; `None` in partitioned mode,
    // which ships keyed sub-batches ([`Msg::Part`]) instead.
    mut arena: Option<ArenaReader<(StreamTag, Tuple)>>,
    cell: &Arc<WorkerCell>,
    mut live: Option<LiveWorker>,
) -> WorkerExit {
    let _guard = AliveGuard(Arc::clone(cell));
    let partitioned = config.partitioning == Partitioning::Hash;
    // Partitioned mode never touches the round-robin windows; capacity
    // 1 keeps their allocation negligible without a zero-capacity edge.
    let sub = if partitioned { 1 } else { config.sub_window() };
    let plan = &config.fault_plan;
    let mut w = WorkerState {
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
        cell: Arc::clone(cell),
        part: partitioned.then(|| PartState {
            window_r: PartitionedWindow::new(),
            window_s: PartitionedWindow::new(),
            horizon: config.effective_window() as u64,
        }),
        scratch: BlockedScratch::default(),
    };

    let mut ring = obs::trace::enabled().then(|| {
        obs::trace::TraceRing::new(
            format!("sw.worker.{position}"),
            obs::trace::TimeDomain::Wall,
        )
    });
    let mut idle_since = span_start(&ring);
    let mut batch_no: u64 = 0;

    loop {
        // With the live plane armed, time spent blocked in `recv` is
        // exported as `.wait_ns` and the rest of the iteration as
        // `.busy_ns`; unarmed, neither clock is read.
        let wait_start = live.as_ref().map(|_| obs::trace::now_ns());
        let Some(msg) = recv_msg(&mut msgs) else { break };
        let busy_start = wait_start.map(|t0| {
            let now = obs::trace::now_ns();
            if let Some(lv) = live.as_ref() {
                lv.wait_ns.add(now.saturating_sub(t0));
            }
            now
        });
        if let Some(r) = ring.as_mut() {
            let t = obs::trace::now_ns();
            r.record("recv", idle_since, t.saturating_sub(idle_since));
        }
        // A scripted kill took this message: the core exits below, after
        // the live plane saw the message's tallies.
        let mut killed = false;
        match msg {
            Msg::ArenaBatch { seq } => {
                batch_no += 1;
                // Probe the arena slot in place; release it only after
                // the whole batch is processed (a scripted panic unwinds
                // without releasing — recovery then waits for this
                // thread to die before retiring the reader).
                let reader = arena
                    .as_mut()
                    .expect("arena batches only arrive in broadcast mode");
                let batch = reader.read(seq);
                let len = batch.len();
                let outcome =
                    run_scripted_batch(&mut w, plan, position, batch_no, len, &mut ring, |w| {
                        w.handle_batch(batch)
                    });
                reader.release(seq);
                killed = matches!(outcome, BatchOutcome::Kill);
            }
            Msg::Part(entries) => {
                batch_no += 1;
                let len = entries.len();
                let outcome =
                    run_scripted_batch(&mut w, plan, position, batch_no, len, &mut ring, |w| {
                        for &e in entries.iter() {
                            w.handle_part_entry(e);
                        }
                    });
                killed = matches!(outcome, BatchOutcome::Kill);
            }
            Msg::Prefill(tag, tuples) => {
                // Same round-robin discipline, no probing.
                let t0 = span_start(&ring);
                for &t in tuples.iter() {
                    w.store(tag, t, false);
                }
                if let Some(r) = ring.as_mut() {
                    let t1 = obs::trace::now_ns();
                    r.record_arg("insert", t0, t1.saturating_sub(t0), tuples.len() as u64);
                }
            }
            Msg::Reconfigure(map) => {
                w.map = Some(map);
            }
            Msg::Stop => break,
        }
        if let (Some(lv), Some(t0)) = (live.as_mut(), busy_start) {
            lv.after_msg(&w.stats, t0, !killed);
        }
        if killed {
            return (w.stats, w.kstats, ring);
        }
        // The epoch step `Router::flush` waits for, behind the outbox publish.
        w.cell.finish_message(&w.stats);
        idle_since = span_start(&ring);
    }
    debug_assert!(w.out.is_empty(), "matches are published at every message boundary");
    (w.stats, w.kstats, ring)
}

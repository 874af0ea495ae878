//! Distribution and result-gathering networks of the uni-flow design
//! (Fig. 9).
//!
//! Both networks come in the paper's two variants:
//!
//! * **lightweight** — a single broadcast stage (distribution) and a
//!   round-robin collector visiting one core per cycle (gathering). Cheap,
//!   but the broadcast fan-out scales with the core count and drags the
//!   clock down, and round-robin collection latency grows linearly;
//! * **scalable** — trees of DNodes / GNodes. A tuple traverses
//!   `log_k N` pipeline stages, but every stage has constant fan-out, so
//!   the clock frequency stays flat as the design grows.
//!
//! The tree fan-out `k` is a parameter (default 2, as drawn in Fig. 9).
//! The paper explicitly flags wider trees as worth exploring: "other
//! fan-out sizes (e.g., 1→4) could be interesting … since they reduce the
//! height of the distribution network and lower communication latency" —
//! the `fanout` ablation bench quantifies that trade-off against the
//! per-stage fan-out's clock cost.

use hwsim::Fifo;
use streamcore::{Frame, MatchPair, Tuple};

use super::core::JoinCore;
use crate::NetworkKind;

/// Depth of each DNode/GNode pipeline buffer.
const NODE_BUFFER_DEPTH: usize = 2;

/// `true` if `n` is an exact power of `k`.
pub(crate) fn is_power_of(mut n: usize, k: usize) -> bool {
    if n == 0 {
        return false;
    }
    while n.is_multiple_of(k) {
        n /= k;
    }
    n == 1
}

fn validate_tree(kind: NetworkKind, num_cores: usize, fanout: usize) {
    assert!(num_cores > 0, "need at least one core");
    assert!(fanout >= 2, "tree fan-out must be at least 2");
    if kind == NetworkKind::Scalable && num_cores > 1 {
        assert!(
            is_power_of(num_cores, fanout),
            "scalable network requires the core count ({num_cores}) to be a \
             power of the tree fan-out ({fanout})"
        );
    }
}

/// Internal node count of a complete `k`-ary tree with `n` leaves.
fn internal_nodes(kind: NetworkKind, n: usize, k: usize) -> usize {
    match kind {
        NetworkKind::Lightweight => 0,
        NetworkKind::Scalable => (n.saturating_sub(1)) / (k - 1),
    }
}

/// The distribution network: transfers frames from the system input to
/// every join core's fetcher.
#[derive(Debug, Clone)]
pub struct DistributionNetwork {
    kind: NetworkKind,
    input: Fifo<Frame>,
    /// Internal DNodes in `k`-ary heap order (scalable only). Node `i`
    /// feeds nodes `k·i+1 ..= k·i+k`; indices past the internal count
    /// address core fetchers directly.
    dnodes: Vec<Fifo<Frame>>,
    num_cores: usize,
    fanout: usize,
    /// Provenance watch: the sampled frame currently traversing the
    /// network, if any. Pure observation — never steers a frame.
    watch: Option<Frame>,
    /// Fetcher deliveries of the watched frame so far (a frame is fully
    /// distributed once every core received its copy).
    watch_count: usize,
    /// Latched completion flag, consumed by `take_watch_delivered`.
    watch_done: bool,
}

impl DistributionNetwork {
    /// Builds a network for `num_cores` cores with the given tree
    /// `fanout` (ignored by the lightweight variant).
    ///
    /// # Panics
    ///
    /// Panics if a scalable network is requested and `num_cores` is not a
    /// power of `fanout`, or if `fanout < 2`.
    pub fn new(kind: NetworkKind, num_cores: usize, fanout: usize) -> Self {
        validate_tree(kind, num_cores, fanout);
        Self {
            kind,
            input: Fifo::new(NODE_BUFFER_DEPTH),
            dnodes: (0..internal_nodes(kind, num_cores, fanout))
                .map(|_| Fifo::new(NODE_BUFFER_DEPTH))
                .collect(),
            num_cores,
            fanout,
            watch: None,
            watch_count: 0,
            watch_done: false,
        }
    }

    /// Starts watching `frame`: `take_watch_delivered` latches once every
    /// core has received its copy. One watch at a time (a new watch
    /// replaces the old).
    pub fn set_watch(&mut self, frame: Frame) {
        self.watch = Some(frame);
        self.watch_count = 0;
        self.watch_done = false;
    }

    /// Consumes the watch-completion flag (set the cycle the watched
    /// frame's last per-core copy reached a fetcher).
    pub fn take_watch_delivered(&mut self) -> bool {
        std::mem::take(&mut self.watch_done)
    }

    /// Per-copy delivery accounting for the provenance watch.
    fn note_delivery(&mut self, frame: Frame) {
        if self.watch == Some(frame) {
            self.watch_count += 1;
            if self.watch_count >= self.num_cores {
                self.watch = None;
                self.watch_done = true;
            }
        }
    }

    /// Pipeline stages a frame traverses from input to a fetcher.
    pub fn depth(&self) -> u32 {
        match self.kind {
            NetworkKind::Lightweight => 1,
            NetworkKind::Scalable => {
                1 + (self.num_cores as f64).log(self.fanout as f64).round() as u32
            }
        }
    }

    /// `true` if the input port can accept a frame this cycle.
    pub fn can_accept(&self) -> bool {
        self.input.can_push()
    }

    /// Offers a frame to the input port; returns `false` if back-pressured.
    pub fn offer(&mut self, frame: Frame) -> bool {
        self.input.push(frame).is_ok()
    }

    /// `true` when no frame is buffered anywhere in the network.
    pub fn is_empty(&self) -> bool {
        self.input.is_empty()
            && self.input.committed_len() == 0
            && self
                .dnodes
                .iter()
                .all(|n| n.is_empty() && n.committed_len() == 0)
    }

    fn children(&self, i: usize) -> std::ops::RangeInclusive<usize> {
        self.fanout * i + 1..=self.fanout * i + self.fanout
    }

    pub(crate) fn begin_cycle(&mut self) {
        self.input.begin_cycle();
        for n in &mut self.dnodes {
            n.begin_cycle();
        }
    }

    pub(crate) fn eval(&mut self, cores: &mut [JoinCore]) {
        match self.kind {
            NetworkKind::Lightweight => {
                // Broadcast to all fetchers at once; the broadcast is
                // atomic, so it waits until every fetcher has room.
                if self.input.can_pop() && cores.iter().all(JoinCore::fetcher_ready) {
                    let frame = self.input.pop().expect("frame available");
                    for core in cores.iter_mut() {
                        core.fetcher().push(frame).expect("checked fetcher_ready");
                        self.note_delivery(frame);
                    }
                }
            }
            NetworkKind::Scalable => {
                if self.num_cores == 1 {
                    // Degenerate tree: input feeds the single fetcher.
                    if self.input.can_pop() && cores[0].fetcher_ready() {
                        let f = self.input.pop().expect("frame available");
                        cores[0].fetcher().push(f).expect("checked ready");
                        self.note_delivery(f);
                    }
                    return;
                }
                // Root DNode pulls from the input port.
                if self.input.can_pop() && self.dnodes[0].can_push() {
                    let f = self.input.pop().expect("frame available");
                    self.dnodes[0].push(f).expect("checked can_push");
                }
                // Each DNode broadcasts its front frame to all children
                // when every one can accept ("provided the next DNodes are
                // not full").
                for i in 0..self.dnodes.len() {
                    if !self.dnodes[i].can_pop() {
                        continue;
                    }
                    let ready = |this: &Self, cores: &[JoinCore], c: usize| {
                        if c < this.dnodes.len() {
                            this.dnodes[c].can_push()
                        } else {
                            cores[c - this.dnodes.len()].fetcher_ready()
                        }
                    };
                    if !self.children(i).all(|c| ready(self, cores, c)) {
                        continue;
                    }
                    let frame = self.dnodes[i].pop().expect("frame available");
                    for c in self.children(i) {
                        if c < self.dnodes.len() {
                            self.dnodes[c].push(frame).expect("checked ready");
                        } else {
                            cores[c - self.dnodes.len()]
                                .fetcher()
                                .push(frame)
                                .expect("checked ready");
                            self.note_delivery(frame);
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn commit(&mut self) {
        self.input.commit();
        for n in &mut self.dnodes {
            n.commit();
        }
    }
}

/// The result-gathering network: collects result tuples from the join
/// cores into the system output.
#[derive(Debug, Clone)]
pub struct GatheringNetwork {
    kind: NetworkKind,
    /// Round-robin pointer (lightweight).
    pointer: usize,
    /// Internal GNodes in `k`-ary heap order (scalable); mirrors the
    /// DNode tree.
    gnodes: Vec<Fifo<MatchPair>>,
    /// Rotating-grant state per GNode: which upper port holds the grant
    /// (the paper's Toggle Grant, generalized to `k` ports).
    grants: Vec<usize>,
    num_cores: usize,
    fanout: usize,
    /// Provenance watch: the sampled probe tuple whose result pairs are
    /// being counted at the sink. Pure observation.
    watch: Option<Tuple>,
    /// Sink deliveries involving the watched tuple since the last
    /// `take_watch_delivered` call.
    watch_hits: u64,
}

impl GatheringNetwork {
    /// Builds a gathering network for `num_cores` cores with the given
    /// tree `fanout`.
    ///
    /// # Panics
    ///
    /// Panics if a scalable network is requested and `num_cores` is not a
    /// power of `fanout`, or if `fanout < 2`.
    pub fn new(kind: NetworkKind, num_cores: usize, fanout: usize) -> Self {
        validate_tree(kind, num_cores, fanout);
        let internal = internal_nodes(kind, num_cores, fanout);
        Self {
            kind,
            pointer: 0,
            gnodes: (0..internal)
                .map(|_| Fifo::new(NODE_BUFFER_DEPTH))
                .collect(),
            grants: vec![0; internal],
            num_cores,
            fanout,
            watch: None,
            watch_hits: 0,
        }
    }

    /// Starts watching `probe`: sink deliveries whose pair involves this
    /// tuple are counted until `clear_watch`.
    pub fn set_watch(&mut self, probe: Tuple) {
        self.watch = Some(probe);
        self.watch_hits = 0;
    }

    /// Stops counting sink deliveries for the current watch.
    pub fn clear_watch(&mut self) {
        self.watch = None;
        self.watch_hits = 0;
    }

    /// Consumes the count of watched-tuple sink deliveries since the last
    /// call (intended to be polled once per cycle).
    pub fn take_watch_delivered(&mut self) -> u64 {
        std::mem::take(&mut self.watch_hits)
    }

    /// Watch accounting for one sink delivery.
    fn note_sink(&mut self, m: &MatchPair) {
        if let Some(w) = self.watch {
            if m.r == w || m.s == w {
                self.watch_hits += 1;
            }
        }
    }

    /// `true` when no result is buffered inside the network.
    pub fn is_empty(&self) -> bool {
        self.gnodes
            .iter()
            .all(|n| n.is_empty() && n.committed_len() == 0)
    }

    pub(crate) fn begin_cycle(&mut self) {
        for n in &mut self.gnodes {
            n.begin_cycle();
        }
    }

    /// One cycle of collection; delivered results are appended to `sink`.
    pub(crate) fn eval(&mut self, cores: &mut [JoinCore], sink: &mut Vec<MatchPair>) {
        match self.kind {
            NetworkKind::Lightweight => {
                // Visit one core per cycle, round-robin; this serial scan
                // is why lightweight collection latency grows with the
                // core count.
                if let Some(m) = cores[self.pointer].results().pop() {
                    self.note_sink(&m);
                    sink.push(m);
                }
                self.pointer = (self.pointer + 1) % self.num_cores;
            }
            NetworkKind::Scalable => {
                if self.num_cores == 1 {
                    if let Some(m) = cores[0].results().pop() {
                        self.note_sink(&m);
                        sink.push(m);
                    }
                    return;
                }
                // Root GNode drains to the sink, one result per cycle.
                if let Some(m) = self.gnodes[0].pop() {
                    self.note_sink(&m);
                    sink.push(m);
                }
                // Each GNode pulls from the granted upper port; the grant
                // rotates every cycle (single-direction signalling, no
                // handshake).
                for i in 0..self.gnodes.len() {
                    let granted = self.fanout * i + 1 + self.grants[i];
                    self.grants[i] = (self.grants[i] + 1) % self.fanout;
                    if !self.gnodes[i].can_push() {
                        continue;
                    }
                    let pulled = if granted < self.gnodes.len() {
                        self.gnodes[granted].pop()
                    } else {
                        cores[granted - self.gnodes.len()].results().pop()
                    };
                    if let Some(m) = pulled {
                        self.gnodes[i].push(m).expect("checked can_push");
                    }
                }
            }
        }
    }

    pub(crate) fn commit(&mut self) {
        for n in &mut self.gnodes {
            n.commit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamcore::Tuple;

    fn cores(n: usize) -> Vec<JoinCore> {
        (0..n).map(|i| JoinCore::new(i as u32, 8)).collect()
    }

    fn cycle_dist(net: &mut DistributionNetwork, cores: &mut [JoinCore]) {
        net.begin_cycle();
        for c in cores.iter_mut() {
            c.begin_cycle();
        }
        net.eval(cores);
        net.commit();
        for c in cores.iter_mut() {
            c.commit();
        }
    }

    #[test]
    fn power_of_helper() {
        assert!(is_power_of(1, 2));
        assert!(is_power_of(64, 2));
        assert!(is_power_of(64, 4));
        assert!(is_power_of(64, 8));
        assert!(!is_power_of(64, 3));
        assert!(!is_power_of(0, 2));
        assert!(!is_power_of(48, 4));
    }

    #[test]
    fn lightweight_broadcast_reaches_all_cores_in_one_stage() {
        let mut net = DistributionNetwork::new(NetworkKind::Lightweight, 4, 2);
        let mut cs = cores(4);
        assert!(net.offer(Frame::TupleR(Tuple::new(1, 0))));
        net.commit(); // latch the offered frame
        cycle_dist(&mut net, &mut cs);
        for c in &mut cs {
            c.begin_cycle();
            assert_eq!(c.fetcher().pop(), Some(Frame::TupleR(Tuple::new(1, 0))));
            c.commit();
        }
        assert_eq!(net.depth(), 1);
    }

    #[test]
    fn scalable_delivery_takes_log_stages() {
        for (n, k, expected_depth) in [(8usize, 2usize, 4u32), (16, 4, 3), (8, 8, 2)] {
            let mut net = DistributionNetwork::new(NetworkKind::Scalable, n, k);
            assert_eq!(net.depth(), expected_depth, "{n} cores, fan-out {k}");
            let mut cs = cores(n);
            assert!(net.offer(Frame::TupleS(Tuple::new(9, 0))));
            net.commit();
            let mut stages = 0;
            loop {
                let delivered = cs.iter_mut().all(|c| c.fetcher().len() == 1);
                if delivered {
                    break;
                }
                cycle_dist(&mut net, &mut cs);
                stages += 1;
                assert!(stages <= 10, "frame lost in the tree");
            }
            assert_eq!(stages as u32, net.depth(), "{n} cores, fan-out {k}");
            assert!(net.is_empty());
        }
    }

    #[test]
    fn scalable_sustains_one_frame_per_cycle() {
        for k in [2usize, 4] {
            let n = 16;
            let mut net = DistributionNetwork::new(NetworkKind::Scalable, n, k);
            let mut cs = cores(n);
            let mut offered = 0u32;
            for _ in 0..50 {
                net.begin_cycle();
                for c in cs.iter_mut() {
                    c.begin_cycle();
                }
                if net.can_accept() {
                    net.offer(Frame::TupleR(Tuple::new(offered, offered)));
                    offered += 1;
                }
                net.eval(&mut cs);
                // Drain fetchers so cores never back-pressure.
                for c in cs.iter_mut() {
                    c.fetcher().pop();
                }
                net.commit();
                for c in cs.iter_mut() {
                    c.commit();
                }
            }
            assert!(offered >= 48, "fan-out {k}: only {offered} in 50 cycles");
        }
    }

    #[test]
    fn lightweight_backpressure_blocks_broadcast_atomically() {
        let mut net = DistributionNetwork::new(NetworkKind::Lightweight, 2, 2);
        let mut cs = cores(2);
        // Fill core 1's fetcher completely.
        for i in 0..4u32 {
            cs[1].fetcher().load(Frame::TupleR(Tuple::new(i, 0)));
        }
        net.offer(Frame::TupleS(Tuple::new(5, 0)));
        net.commit();
        cycle_dist(&mut net, &mut cs);
        // Nothing delivered anywhere: broadcast is all-or-nothing.
        cs[0].begin_cycle();
        assert_eq!(cs[0].fetcher().pop(), None);
        cs[0].commit();
        assert!(!net.is_empty());
    }

    #[test]
    #[should_panic(expected = "power of the tree fan-out")]
    fn scalable_rejects_mismatched_core_count() {
        let _ = DistributionNetwork::new(NetworkKind::Scalable, 6, 2);
    }

    #[test]
    #[should_panic(expected = "power of the tree fan-out")]
    fn scalable_rejects_non_power_of_fanout() {
        let _ = DistributionNetwork::new(NetworkKind::Scalable, 8, 4);
    }

    fn gather_cycle(net: &mut GatheringNetwork, cores: &mut [JoinCore], sink: &mut Vec<MatchPair>) {
        net.begin_cycle();
        for c in cores.iter_mut() {
            c.begin_cycle();
        }
        net.eval(cores, sink);
        net.commit();
        for c in cores.iter_mut() {
            c.commit();
        }
    }

    fn pair(k: u32) -> MatchPair {
        MatchPair {
            r: Tuple::new(k, 0),
            s: Tuple::new(k, 1),
        }
    }

    #[test]
    fn lightweight_gather_visits_one_core_per_cycle() {
        let mut net = GatheringNetwork::new(NetworkKind::Lightweight, 4, 2);
        let mut cs = cores(4);
        cs[2].results().load(pair(2));
        let mut sink = Vec::new();
        // Pointer starts at 0; core 2 is visited on the third cycle.
        for _ in 0..2 {
            gather_cycle(&mut net, &mut cs, &mut sink);
            assert!(sink.is_empty());
        }
        gather_cycle(&mut net, &mut cs, &mut sink);
        assert_eq!(sink, vec![pair(2)]);
    }

    #[test]
    fn scalable_gather_collects_everything() {
        for (n, k) in [(8usize, 2usize), (16, 4), (8, 8)] {
            let mut net = GatheringNetwork::new(NetworkKind::Scalable, n, k);
            let mut cs = cores(n);
            for (i, c) in cs.iter_mut().enumerate() {
                c.results().load(pair(i as u32));
            }
            let mut sink = Vec::new();
            for _ in 0..120 {
                gather_cycle(&mut net, &mut cs, &mut sink);
            }
            assert_eq!(sink.len(), n, "{n} cores, fan-out {k}");
            let mut keys: Vec<u32> = sink.iter().map(|m| m.r.key()).collect();
            keys.sort_unstable();
            assert_eq!(keys, (0..n as u32).collect::<Vec<_>>());
            assert!(net.is_empty());
        }
    }

    #[test]
    fn scalable_gather_single_core_is_direct() {
        let mut net = GatheringNetwork::new(NetworkKind::Scalable, 1, 2);
        let mut cs = cores(1);
        cs[0].results().load(pair(7));
        let mut sink = Vec::new();
        gather_cycle(&mut net, &mut cs, &mut sink);
        assert_eq!(sink, vec![pair(7)]);
    }

    #[test]
    fn wider_fanout_reduces_tree_height() {
        let k2 = DistributionNetwork::new(NetworkKind::Scalable, 64, 2);
        let k4 = DistributionNetwork::new(NetworkKind::Scalable, 64, 4);
        let k8 = DistributionNetwork::new(NetworkKind::Scalable, 64, 8);
        assert_eq!(k2.depth(), 7);
        assert_eq!(k4.depth(), 4);
        assert_eq!(k8.depth(), 3);
    }
}

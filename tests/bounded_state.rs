//! State is bounded by the window, not by the run: each executor of a
//! windowed join runs `L` and then `4L` arrivals (`L` eight windows) and
//! reports the same at both lengths, through what it already exposes.
//!
//! Every arrival carries one key, so every stored tuple matches every
//! probe. After the stream is drained, one more primary-stream arrival
//! of that key must return exactly one window's worth of matches (an
//! executor that kept more than its window would return more), and a
//! second drain must return nothing (none are held back). The runtime
//! also keeps its live-metric entries and its re-plan's reloaded windows
//! at their size, and the FQP manager keeps nothing of a query it has
//! taken off.

use accel_landscape::fqp::manager::QueryManager;
use accel_landscape::fqp::plan::{bind, Catalog};
use accel_landscape::fqp::query::Query;
use accel_landscape::joinsw::prelude::*;
use accel_landscape::query::prelude::*;
use accel_landscape::streamcore::{Record, StreamTag, Tuple};

const WINDOW: usize = 16;
const KEY: u32 = 7;
const QUERY: &str = "SELECT * FROM l JOIN r ON k WINDOW 16";

/// The two stream lengths every test compares.
const LENGTHS: [usize; 2] = [8 * WINDOW, 4 * 8 * WINDOW];

/// `n` arrivals alternating between the streams, all of key [`KEY`].
fn arrivals(n: usize) -> impl Iterator<Item = (StreamTag, Tuple)> {
    (0..n).map(|seq| {
        let tag = if seq % 2 == 0 {
            StreamTag::R
        } else {
            StreamTag::S
        };
        (tag, Tuple::new(KEY, seq as u32))
    })
}

fn stream(tag: StreamTag) -> &'static str {
    match tag {
        StreamTag::R => "l",
        StreamTag::S => "r",
    }
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register_spec("l=k:32,a:32").unwrap();
    c.register_spec("r=k:32,b:32").unwrap();
    c
}

/// Runs `n` arrivals through a threaded engine and returns the probe's
/// match count, the second drain's and the shutdown's undrained results.
fn engine_after<J: StreamJoin>(config: J::Config, n: usize) -> [usize; 3] {
    let join = J::spawn(config);
    for (tag, tuple) in arrivals(n) {
        join.process(tag, tuple).unwrap();
    }
    assert!(!join.drain_results().unwrap().is_empty());
    join.process(StreamTag::R, Tuple::new(KEY, 0)).unwrap();
    let probe = join.drain_results().unwrap().len();
    let again = join.drain_results().unwrap().len();
    let undrained = join.shutdown().unwrap().results.len();
    [probe, again, undrained]
}

#[test]
fn splitjoin_state_is_bounded_by_the_window() {
    for n in LENGTHS {
        let counts = engine_after::<SplitJoin>(SplitJoinConfig::new(2, WINDOW), n);
        assert_eq!(counts, [WINDOW, 0, 0], "{n} arrivals");
    }
}

#[test]
fn handshake_state_is_bounded_by_the_window() {
    for n in LENGTHS {
        let counts = engine_after::<HandshakeJoin>(HandshakeConfig::new(2, WINDOW), n);
        assert_eq!(counts, [WINDOW, 0, 0], "{n} arrivals");
    }
}

#[test]
fn query_manager_state_is_bounded_by_the_window() {
    let plan = bind(&Query::parse(QUERY).unwrap(), &catalog()).unwrap();
    for n in LENGTHS {
        let mut mgr = QueryManager::new(plan.block_count());
        let id = mgr.deploy(&plan).unwrap();
        for (tag, t) in arrivals(n) {
            let record = Record::new(vec![u64::from(t.key()), u64::from(t.payload())]);
            mgr.push(stream(tag), record).unwrap();
        }
        assert!(!mgr.take_results(id).unwrap().is_empty());
        mgr.push("l", Record::new(vec![u64::from(KEY), 0])).unwrap();
        let probe = mgr.take_results(id).unwrap().len();
        let again = mgr.take_results(id).unwrap().len();
        assert_eq!([probe, again], [WINDOW, 0], "{n} arrivals");
    }
}

/// A thousand deploy → push → undeploy cycles of one plan leave the
/// manager as it started: every block idle, no query output left in its
/// topology, and each undeploy hands back the one result its query had
/// not taken.
#[test]
fn query_manager_churn_leaves_nothing_behind() {
    for text in ["SELECT * FROM l WHERE a > 0", QUERY] {
        let plan = bind(&Query::parse(text).unwrap(), &catalog()).unwrap();
        let mut mgr = QueryManager::new(plan.block_count());
        for seq in 1..=1_000u64 {
            let id = mgr.deploy(&plan).unwrap();
            // A join's secondary first, so the primary record matches it.
            for (stream, _) in plan.inputs.iter().rev() {
                mgr.push(stream, Record::new(vec![u64::from(KEY), seq]))
                    .unwrap();
            }
            assert_eq!(mgr.undeploy(id).unwrap().len(), 1, "{text}, cycle {seq}");
        }
        let dot = mgr.to_dot();
        assert_eq!(dot.matches("shape=doublecircle").count(), 0, "{text}");
        assert_eq!(mgr.idle_blocks(), plan.block_count(), "{text}");
    }
}

#[test]
fn query_runtime_state_is_bounded_by_the_window() {
    let mut per_length = Vec::new();
    for n in LENGTHS {
        let mut rt = QueryRuntime::new(catalog(), RuntimeConfig::new(2));
        rt.admit("q", &LogicalPlan::from(Query::parse(QUERY).unwrap()))
            .unwrap();
        for (tag, tuple) in arrivals(n) {
            rt.push(stream(tag), tuple).unwrap();
        }
        rt.poll().unwrap();
        assert!(!rt.take_rows("q").unwrap().is_empty());
        let handoff = rt.replan("q", Objective::MinLatency).unwrap();
        assert_eq!(handoff.prefilled, (WINDOW, WINDOW), "{n} arrivals");
        rt.push("l", Tuple::new(KEY, 0)).unwrap();
        rt.poll().unwrap();
        let probe = rt.take_rows("q").unwrap().len();
        let again = rt.take_rows("q").unwrap().len();
        assert_eq!([probe, again], [WINDOW, 0], "{n} arrivals");
        per_length.push(rt.live().entries().len());
        rt.finish().unwrap();
    }
    assert_eq!(per_length[0], per_length[1], "live-metric entries");
}

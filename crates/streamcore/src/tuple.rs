//! The 64-bit tuple model of the paper's case study.

use std::fmt;

/// Which input stream a tuple belongs to.
///
/// The stream join compares every *R* tuple against the sliding window of
/// *S* and vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StreamTag {
    /// The R input stream.
    R,
    /// The S input stream.
    S,
}

impl StreamTag {
    /// The opposite stream: the one whose window this tuple probes.
    pub fn other(self) -> StreamTag {
        match self {
            StreamTag::R => StreamTag::S,
            StreamTag::S => StreamTag::R,
        }
    }
}

impl fmt::Display for StreamTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamTag::R => write!(f, "R"),
            StreamTag::S => write!(f, "S"),
        }
    }
}

/// A 64-bit stream tuple: a 32-bit join key and a 32-bit payload.
///
/// Matches the input format of the paper's experiments ("the input streams
/// consist of 64-bit tuples that are joined against each other using an
/// equi-join").
///
/// ```
/// use streamcore::Tuple;
///
/// let t = Tuple::new(7, 99);
/// assert_eq!(t.key(), 7);
/// assert_eq!(t.payload(), 99);
/// assert_eq!(Tuple::from_raw(t.raw()), t);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    raw: u64,
}

impl Tuple {
    /// Creates a tuple from its join key and payload.
    pub fn new(key: u32, payload: u32) -> Self {
        Self {
            raw: (payload as u64) << 32 | key as u64,
        }
    }

    /// Reconstructs a tuple from its 64-bit wire representation.
    pub fn from_raw(raw: u64) -> Self {
        Self { raw }
    }

    /// The 64-bit wire representation (payload in the high half).
    pub fn raw(&self) -> u64 {
        self.raw
    }

    /// The 32-bit join key.
    pub fn key(&self) -> u32 {
        self.raw as u32
    }

    /// The 32-bit payload.
    pub fn payload(&self) -> u32 {
        (self.raw >> 32) as u32
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.key(), self.payload())
    }
}

impl From<(u32, u32)> for Tuple {
    fn from((key, payload): (u32, u32)) -> Self {
        Tuple::new(key, payload)
    }
}

/// One word on the hardware data bus: a 2-bit header plus payload.
///
/// The paper's buses carry "tuples, including their 2-bit headers. The
/// header defines whether we are dealing with a new join operator or a
/// tuple belonging to either the R or S stream."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Frame {
    /// A tuple from the R stream.
    TupleR(Tuple),
    /// A tuple from the S stream.
    TupleS(Tuple),
    /// Half of a join-operator instruction (operators are programmed in two
    /// consecutive words; see the storage-core FSM, Fig. 12).
    Operator(u64),
}

impl Frame {
    /// Wraps `tuple` in the frame variant for `tag`.
    pub fn tuple(tag: StreamTag, tuple: Tuple) -> Self {
        match tag {
            StreamTag::R => Frame::TupleR(tuple),
            StreamTag::S => Frame::TupleS(tuple),
        }
    }
}

/// A join result: the pair of input tuples that satisfied the join
/// condition. On the result bus this is twice the input width plus the
/// header, as the paper notes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatchPair {
    /// The tuple from the R stream.
    pub r: Tuple,
    /// The tuple from the S stream.
    pub s: Tuple,
}

impl MatchPair {
    /// Creates a result pair, orienting `probe` and `stored` by
    /// `probe_tag`.
    pub fn oriented(probe_tag: StreamTag, probe: Tuple, stored: Tuple) -> Self {
        match probe_tag {
            StreamTag::R => MatchPair {
                r: probe,
                s: stored,
            },
            StreamTag::S => MatchPair {
                r: stored,
                s: probe,
            },
        }
    }
}

impl fmt::Display for MatchPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[R{} ⋈ S{}]", self.r, self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_round_trips_key_and_payload() {
        let t = Tuple::new(u32::MAX, 0);
        assert_eq!(t.key(), u32::MAX);
        assert_eq!(t.payload(), 0);
        let t2 = Tuple::new(0, u32::MAX);
        assert_eq!(t2.key(), 0);
        assert_eq!(t2.payload(), u32::MAX);
    }

    #[test]
    fn tuple_raw_round_trip() {
        let t = Tuple::new(0xdead_beef, 0x1234_5678);
        assert_eq!(Tuple::from_raw(t.raw()), t);
        assert_eq!(t.raw(), 0x1234_5678_dead_beef);
    }

    #[test]
    fn tuple_from_pair() {
        let t: Tuple = (3u32, 4u32).into();
        assert_eq!(t, Tuple::new(3, 4));
    }

    #[test]
    fn stream_tag_other_is_involutive() {
        assert_eq!(StreamTag::R.other(), StreamTag::S);
        assert_eq!(StreamTag::S.other(), StreamTag::R);
        assert_eq!(StreamTag::R.other().other(), StreamTag::R);
    }

    #[test]
    fn frame_tuple_picks_the_streams_variant() {
        let t = Tuple::new(1, 2);
        assert_eq!(Frame::tuple(StreamTag::R, t), Frame::TupleR(t));
        assert_eq!(Frame::tuple(StreamTag::S, t), Frame::TupleS(t));
    }

    #[test]
    fn match_pair_orientation() {
        let probe = Tuple::new(1, 10);
        let stored = Tuple::new(1, 20);
        let from_r = MatchPair::oriented(StreamTag::R, probe, stored);
        assert_eq!(from_r.r, probe);
        assert_eq!(from_r.s, stored);
        let from_s = MatchPair::oriented(StreamTag::S, probe, stored);
        assert_eq!(from_s.r, stored);
        assert_eq!(from_s.s, probe);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Tuple::new(1, 2).to_string(), "(1, 2)");
        assert_eq!(StreamTag::R.to_string(), "R");
        let m = MatchPair {
            r: Tuple::new(1, 0),
            s: Tuple::new(1, 5),
        };
        assert_eq!(m.to_string(), "[R(1, 0) ⋈ S(1, 5)]");
    }
}

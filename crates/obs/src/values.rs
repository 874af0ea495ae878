//! [`Values`]: the one frozen name → value map, and [`Snapshot`], a
//! `Values` stamped with its capture time.
//!
//! Everything that holds measured numbers *after* they were read holds
//! this type: a [`RunManifest`](crate::RunManifest)'s counters, each
//! [`Sampler`](crate::live::Sampler) tick, each parsed line of a
//! [series file](crate::series), the two inputs of
//! [`Health::derive`](crate::health::Health::derive), and what an engine
//! publishes at shutdown. A manifest's counters are therefore the same
//! shape as — and, for a key an engine publishes both ways, the same
//! number as — the final sample of the run's series.

use std::collections::BTreeMap;

use crate::json::Json;

/// A name-sorted map of `u64` readings.
///
/// ```
/// let mut values = obs::Values::new();
/// values.record("join.stalls", 3);
/// values.record("join.accepted", 42);
/// assert_eq!(values.get("join.stalls"), Some(3));
/// let names: Vec<_> = values.iter().map(|(name, _)| name).collect();
/// assert_eq!(names, ["join.accepted", "join.stalls"]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Values {
    entries: BTreeMap<String, u64>,
}

impl Values {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a value under `name`, overwriting any previous entry.
    pub fn record(&mut self, name: impl Into<String>, value: u64) {
        self.entries.insert(name.into(), value);
    }

    /// Looks up a value by exact name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries.get(name).copied()
    }

    /// Iterates entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Copies every entry of `other` into `self` (overwriting name
    /// collisions).
    pub fn absorb(&mut self, other: &Values) {
        for (name, value) in other.iter() {
            self.record(name, value);
        }
    }

    /// The JSON object every artifact stores a map as.
    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_string(), Json::UInt(v)))
                .collect(),
        )
    }

    /// Inverse of [`Values::to_json`]; the error names the bad entry.
    pub(crate) fn from_json(json: &Json) -> Result<Self, String> {
        json.as_obj()
            .ok_or("must be an object")?
            .iter()
            .map(|(k, v)| match v.as_u64() {
                Some(v) => Ok((k.clone(), v)),
                None => Err(format!("value `{k}` must be a u64")),
            })
            .collect()
    }
}

impl<S: Into<String>> FromIterator<(S, u64)> for Values {
    fn from_iter<I: IntoIterator<Item = (S, u64)>>(iter: I) -> Self {
        Self {
            entries: iter.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        }
    }
}

/// A [`Values`] map and the moment it was read.
///
/// `t_ns` is monotonic nanoseconds on the process trace anchor
/// ([`crate::trace::now_ns`]), so differences between snapshots are exact
/// elapsed time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Capture time, monotonic process nanoseconds.
    pub t_ns: u64,
    /// The readings.
    pub values: Values,
}

impl Snapshot {
    /// The increase of `name` since `prev` (saturating at zero; `None`
    /// when either snapshot lacks the key).
    #[must_use]
    pub fn delta(&self, prev: &Snapshot, name: &str) -> Option<u64> {
        Some(
            self.values
                .get(name)?
                .saturating_sub(prev.values.get(name)?),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_name_ordered_whatever_the_insertion_order() {
        // Artifact diffs in CI depend on it: the same entries recorded
        // in any order serialize identically.
        let names = ["z.last", "a.first", "m.mid", "a.second", "fault.x"];
        let forward: Values = names.iter().zip(0u64..).map(|(n, i)| (*n, i)).collect();
        let mut reverse = Values::new();
        for (i, n) in names.iter().enumerate().rev() {
            reverse.record(*n, i as u64);
        }
        assert_eq!(forward, reverse);
        assert_eq!(
            forward.to_json().to_compact(),
            reverse.to_json().to_compact()
        );
        let got: Vec<_> = forward.iter().map(|(k, _)| k).collect();
        assert_eq!(got, ["a.first", "a.second", "fault.x", "m.mid", "z.last"]);

        let mut sink: Values = [("c", 9u64), ("z.last", 7)].into_iter().collect();
        sink.absorb(&forward);
        assert_eq!(sink.len(), 6);
        assert_eq!(sink.get("z.last"), Some(0), "absorb overwrites");
    }

    #[test]
    fn json_round_trips_and_rejects_non_u64_entries() {
        let values: Values = [("b", u64::MAX), ("a", 0)].into_iter().collect();
        let json = values.to_json();
        assert_eq!(json.to_compact(), "{\"a\":0,\"b\":18446744073709551615}");
        assert_eq!(Values::from_json(&json), Ok(values));
        let bad = Json::parse("{\"a\":-1}").unwrap();
        assert_eq!(
            Values::from_json(&bad),
            Err("value `a` must be a u64".to_string())
        );
        assert!(Values::from_json(&Json::UInt(1)).is_err());
    }

    #[test]
    fn snapshot_deltas() {
        let snap = |t_ns, a| Snapshot {
            t_ns,
            values: [("a", a), ("b", 7)].into_iter().collect(),
        };
        let (prev, cur) = (snap(1_000_000_000, 100), snap(3_000_000_000, 400));
        assert_eq!(cur.delta(&prev, "a"), Some(300));
        assert_eq!(cur.delta(&prev, "b"), Some(0));
        assert_eq!(cur.delta(&prev, "missing"), None);
        assert_eq!(prev.delta(&cur, "a"), Some(0), "saturates at zero");
    }
}

//! Waveform tracing: record signal values per cycle and export standard
//! VCD (Value Change Dump) files readable by GTKWave and friends.
//!
//! Designs are plain Rust structs, so tracing is opt-in and external: a
//! [`TraceRecorder`] holds named signals, and the code driving the clock
//! samples whatever design state it wants after each
//! [`Simulator::step`](crate::Simulator::step). Only *changes* are
//! stored, as in the VCD format itself.
//!
//! # Example: wiring a recorder into a measurement loop
//!
//! A benchmark drives the design exactly as it would without tracing —
//! the recorder rides along in the drive loop, and the probe is ordinary
//! field access. Dropping the two trace lines recovers the untraced
//! harness:
//!
//! ```
//! use hwsim::{TraceRecorder, Simulator, Component, Register};
//!
//! struct Counter(Register<u64>);
//! impl Component for Counter {
//!     fn begin_cycle(&mut self) {}
//!     fn eval(&mut self) { let n = self.0.get() + 1; self.0.set(n); }
//!     fn commit(&mut self) { self.0.commit(); }
//! }
//!
//! /// The benchmark's cycle loop, with the recorder wired in.
//! fn run_traced(cycles: u64) -> (Counter, TraceRecorder) {
//!     let mut trace = TraceRecorder::new();
//!     let count = trace.signal("count", 8);
//!     let mut counter = Counter(Register::new(0));
//!     let mut sim = Simulator::new();
//!     for _ in 0..cycles {
//!         sim.step(&mut counter);
//!         trace.set_cycle(sim.cycle());
//!         trace.sample(count, *counter.0.get());
//!     }
//!     (counter, trace)
//! }
//!
//! let (counter, trace) = run_traced(4);
//! assert_eq!(*counter.0.get(), 4);
//! let vcd = trace.to_vcd();
//! assert!(vcd.contains("$var wire 8"));
//! assert!(vcd.contains("#4"));
//! ```

use std::fmt::Write as _;

/// Handle to a declared trace signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignalId(usize);

#[derive(Debug, Clone)]
struct SignalDef {
    name: String,
    width: u32,
}

/// Records value changes of named signals across simulated cycles.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    signals: Vec<SignalDef>,
    last: Vec<Option<u64>>,
    /// (cycle, signal, value) change events in sample order.
    changes: Vec<(u64, usize, u64)>,
    cycle: u64,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a signal of `width` bits (1–64).
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside 1–64 or `name` is empty.
    pub fn signal(&mut self, name: impl Into<String>, width: u32) -> SignalId {
        let name = name.into();
        assert!(!name.is_empty(), "signal name must be non-empty");
        assert!((1..=64).contains(&width), "signal width must be 1..=64");
        self.signals.push(SignalDef { name, width });
        self.last.push(None);
        SignalId(self.signals.len() - 1)
    }

    /// Sets the cycle subsequent samples belong to. Must not go backwards.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is before the current trace position.
    pub fn set_cycle(&mut self, cycle: u64) {
        assert!(cycle >= self.cycle, "trace time cannot run backwards");
        self.cycle = cycle;
    }

    /// Samples a signal; a change event is stored only when the value
    /// differs from the previous sample.
    pub fn sample(&mut self, id: SignalId, value: u64) {
        if self.last[id.0] != Some(value) {
            self.last[id.0] = Some(value);
            self.changes.push((self.cycle, id.0, value));
        }
    }

    /// Number of stored change events.
    pub fn change_count(&self) -> usize {
        self.changes.len()
    }

    /// Renders the trace as a VCD document (timescale: one unit = one
    /// clock cycle).
    pub fn to_vcd(&self) -> String {
        let mut out = String::new();
        out.push_str("$timescale 1ns $end\n$scope module design $end\n");
        for (i, s) in self.signals.iter().enumerate() {
            let _ = writeln!(out, "$var wire {} {} {} $end", s.width, vcd_id(i), s.name);
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        let mut current = u64::MAX;
        for &(cycle, sig, value) in &self.changes {
            if cycle != current {
                let _ = writeln!(out, "#{cycle}");
                current = cycle;
            }
            if self.signals[sig].width == 1 {
                let _ = writeln!(out, "{}{}", value & 1, vcd_id(sig));
            } else {
                let _ = writeln!(out, "b{value:b} {}", vcd_id(sig));
            }
        }
        out
    }

    /// Writes the VCD document to `writer`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_vcd<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<()> {
        writer.write_all(self.to_vcd().as_bytes())
    }
}

/// VCD identifier codes: printable ASCII starting at `!`.
fn vcd_id(index: usize) -> String {
    let mut s = String::new();
    let mut i = index;
    loop {
        s.push((b'!' + (i % 94) as u8) as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_only_changes() {
        let mut t = TraceRecorder::new();
        let a = t.signal("a", 8);
        t.set_cycle(0);
        t.sample(a, 1);
        t.set_cycle(1);
        t.sample(a, 1); // unchanged: no event
        t.set_cycle(2);
        t.sample(a, 2);
        assert_eq!(t.change_count(), 2);
    }

    #[test]
    fn vcd_output_is_well_formed() {
        let mut t = TraceRecorder::new();
        let flag = t.signal("valid", 1);
        let bus = t.signal("data", 16);
        t.set_cycle(3);
        t.sample(flag, 1);
        t.sample(bus, 0xab);
        let vcd = t.to_vcd();
        assert!(vcd.contains("$var wire 1 ! valid $end"));
        assert!(vcd.contains("$var wire 16 \" data $end"));
        assert!(vcd.contains("#3"));
        assert!(vcd.contains("1!"));
        assert!(vcd.contains("b10101011 \""));
        assert!(vcd.contains("$enddefinitions"));
    }

    #[test]
    fn write_vcd_round_trips_through_a_buffer() {
        let mut t = TraceRecorder::new();
        let s = t.signal("x", 4);
        t.sample(s, 7);
        let mut buf = Vec::new();
        t.write_vcd(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), t.to_vcd());
    }

    #[test]
    fn vcd_ids_are_unique_for_many_signals() {
        let mut t = TraceRecorder::new();
        for i in 0..200 {
            t.signal(format!("s{i}"), 1);
        }
        let ids: std::collections::HashSet<String> = (0..200).map(vcd_id).collect();
        assert_eq!(ids.len(), 200);
    }

    #[test]
    #[should_panic(expected = "cannot run backwards")]
    fn time_cannot_reverse() {
        let mut t = TraceRecorder::new();
        t.set_cycle(5);
        t.set_cycle(4);
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn zero_width_rejected() {
        let mut t = TraceRecorder::new();
        t.signal("bad", 0);
    }
}

//! Integration tests for the VCD waveform export: a real two-phase
//! design driven by the simulator, with the recorder riding along in the
//! drive loop, checked against the VCD grammar (header structure,
//! monotone timestamps, change-only encoding).

use hwsim::{Component, Register, Simulator, TraceRecorder};

/// A two-bit Gray-code counter: `value` changes every cycle, `msb` only
/// every other cycle — a known change pattern to pin the change-only
/// encoding against.
struct Gray {
    value: Register<u64>,
}

impl Component for Gray {
    fn begin_cycle(&mut self) {}
    fn eval(&mut self) {
        let n = (self.value.get() + 1) % 4;
        self.value.set(n);
    }
    fn commit(&mut self) {
        self.value.commit();
    }
}

fn run_traced(cycles: u64) -> TraceRecorder {
    let mut trace = TraceRecorder::new();
    let value = trace.signal("value", 2);
    let msb = trace.signal("msb", 1);
    let mut design = Gray {
        value: Register::new(0),
    };
    let mut sim = Simulator::new();
    for _ in 0..cycles {
        sim.step(&mut design);
        trace.set_cycle(sim.cycle());
        let v = *design.value.get();
        trace.sample(value, v);
        trace.sample(msb, v >> 1);
    }
    trace
}

#[test]
fn header_declares_every_signal_before_definitions_end() {
    let vcd = run_traced(4).to_vcd();
    let defs_end = vcd.find("$enddefinitions").expect("definitions section");
    let var_value = vcd
        .find("$var wire 2 ! value $end")
        .expect("value declared");
    let var_msb = vcd.find("$var wire 1 \" msb $end").expect("msb declared");
    assert!(vcd.starts_with("$timescale"));
    assert!(var_value < defs_end && var_msb < defs_end);
    assert!(vcd[..defs_end].contains("$scope module design $end"));
    assert!(vcd[..defs_end].contains("$upscope $end"));
    // No value-change lines before the definitions end.
    assert!(!vcd[..defs_end].contains('#'));
}

#[test]
fn timestamps_are_strictly_increasing_and_deduplicated() {
    let vcd = run_traced(8).to_vcd();
    let stamps: Vec<u64> = vcd
        .lines()
        .filter_map(|l| l.strip_prefix('#'))
        .map(|n| n.parse().expect("numeric timestamp"))
        .collect();
    assert!(!stamps.is_empty());
    assert!(
        stamps.windows(2).all(|w| w[0] < w[1]),
        "timestamps must be strictly increasing: {stamps:?}"
    );
}

#[test]
fn change_only_encoding_skips_unchanged_samples() {
    let trace = run_traced(8);
    // `value` changes all 8 cycles; `msb` follows 0,1,1,0,0,1,1,0 — the
    // first sample always records, then changes land on cycles 2, 4, 6,
    // and 8 (5 events).
    assert_eq!(trace.change_count(), 8 + 5);
    let vcd = trace.to_vcd();
    // Cycle 3 (value 3 -> msb stays 1): the msb id `"` must not appear
    // in cycle 3's change block.
    let block: Vec<&str> = vcd
        .lines()
        .skip_while(|l| *l != "#3")
        .skip(1)
        .take_while(|l| !l.starts_with('#'))
        .collect();
    assert_eq!(block, vec!["b11 !"], "cycle 3 must only re-emit `value`");
}

#[test]
fn scalar_and_vector_changes_use_their_vcd_forms() {
    let vcd = run_traced(4).to_vcd();
    // 1-bit signals: `<bit><id>` with no `b` prefix and no space.
    assert!(vcd.lines().any(|l| l == "1\""));
    // Multi-bit signals: `b<binary> <id>`.
    assert!(vcd.lines().any(|l| l == "b1 !"));
    assert!(vcd.lines().any(|l| l == "b10 !"));
}

#[test]
fn write_vcd_matches_to_vcd_exactly() {
    let trace = run_traced(6);
    let mut buf = Vec::new();
    trace.write_vcd(&mut buf).unwrap();
    assert_eq!(String::from_utf8(buf).unwrap(), trace.to_vcd());
}

#[test]
fn write_vcd_propagates_io_errors() {
    struct Broken;
    impl std::io::Write for Broken {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk on fire"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    assert!(run_traced(2).write_vcd(Broken).is_err());
}

#[test]
fn empty_recorder_exports_a_valid_skeleton() {
    let trace = TraceRecorder::new();
    let vcd = trace.to_vcd();
    assert!(vcd.contains("$timescale"));
    assert!(vcd.contains("$enddefinitions $end"));
    assert!(!vcd.contains('#'));
}

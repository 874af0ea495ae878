//! The paper's quantitative claims (Section V), asserted end to end
//! against the models and the cycle-accurate simulation. Each test quotes
//! the claim it checks.

use accel_landscape::hwsim::devices::{XC5VLX50T, XC7VX485T};
use accel_landscape::hwsim::{estimate_fmax, Frequency, PowerModel};
use accel_landscape::joinhw::harness::{
    biflow_throughput_model, build, prefill_steady_state, run_throughput, uniflow_throughput_model,
};
use accel_landscape::joinhw::{DesignParams, FlowModel, NetworkKind};

/// "We were able to instantiate 16 join cores on our platform with up to
/// W: 2^13 window size (per stream) … We were not able to realize window
/// sizes larger than 2^11 when instantiating 32 and 64 join cores."
#[test]
fn v5_feasibility_matrix() {
    let fits = |cores, window| {
        DesignParams::new(FlowModel::UniFlow, cores, window)
            .synthesize(&XC5VLX50T)
            .is_ok()
    };
    for cores in [2, 4, 8, 16] {
        assert!(fits(cores, 1 << 13), "{cores} cores @ 2^13 should fit");
    }
    for cores in [32, 64] {
        assert!(fits(cores, 1 << 11), "{cores} cores @ 2^11 should fit");
        assert!(!fits(cores, 1 << 12), "{cores} cores @ 2^12 must not fit");
    }
}

/// "We were not able to instantiate 16 join cores with 2^13 in bi-flow
/// hardware, unlike the uni-flow one, because each join core is more
/// complex and requires a greater amount of resources."
#[test]
fn biflow_is_the_one_that_does_not_fit() {
    let uni = DesignParams::new(FlowModel::UniFlow, 16, 1 << 13);
    let bi = DesignParams::new(FlowModel::BiFlow, 16, 1 << 13);
    assert!(uni.synthesize(&XC5VLX50T).is_ok());
    assert!(bi.synthesize(&XC5VLX50T).is_err());
}

/// "We observe a linear speedup with respects to the number of join cores
/// as expected." (Fig. 14a)
#[test]
fn linear_speedup_with_cores() {
    let window = 1usize << 11;
    let mut prev = 0.0;
    for cores in [2u32, 4, 8, 16] {
        let params = DesignParams::new(FlowModel::UniFlow, cores, window);
        let mut join = build(&params);
        prefill_steady_state(join.as_mut(), window);
        let rate = run_throughput(join.as_mut(), 128, 1 << 20).tuples_per_cycle();
        if prev > 0.0 {
            let ratio = rate / prev;
            assert!(
                (1.8..2.2).contains(&ratio),
                "{cores} cores: speedup ratio {ratio:.2}"
            );
        }
        prev = rate;
    }
}

/// "We observe nearly an order of magnitude speedup when using a uni-flow
/// compared to a bi-flow model." (Fig. 14b)
#[test]
fn uniflow_beats_biflow_by_an_order_of_magnitude() {
    for exp in [8u32, 10, 12] {
        let w = 1usize << exp;
        let ratio = uniflow_throughput_model(w, 16, 100.0) / biflow_throughput_model(w, 16, 100.0);
        assert!(
            ratio >= 8.0,
            "window 2^{exp}: uni/bi ratio {ratio:.1} below an order of magnitude"
        );
    }
}

/// "We were able to realize a uni-flow parallel stream join with as many
/// as 512 join cores and window sizes as large as 2^18." (Fig. 14c)
#[test]
fn v7_ceiling_is_512_cores_at_2_18() {
    let max =
        DesignParams::new(FlowModel::UniFlow, 512, 1 << 18).with_network(NetworkKind::Scalable);
    assert!(max.synthesize(&XC7VX485T).is_ok());
    let beyond_window =
        DesignParams::new(FlowModel::UniFlow, 512, 1 << 19).with_network(NetworkKind::Scalable);
    assert!(beyond_window.synthesize(&XC7VX485T).is_err());
    // Every window of Fig. 14c's sweep is realizable.
    for exp in 11..=18u32 {
        let p = DesignParams::new(FlowModel::UniFlow, 512, 1usize << exp)
            .with_network(NetworkKind::Scalable);
        assert!(p.synthesize(&XC7VX485T).is_ok(), "512 cores @ 2^{exp}");
    }
}

/// "As a result of having more join cores and a higher clock frequency, we
/// see acceleration of around two orders of magnitude when we utilize a
/// window size of 2^13 compared to the realization on Virtex-5."
#[test]
fn v7_is_two_orders_over_v5_at_2_13() {
    let v5 = uniflow_throughput_model(1 << 13, 16, 100.0);
    let v7 = uniflow_throughput_model(1 << 13, 512, 300.0);
    let ratio = v7 / v5;
    assert!(
        (50.0..200.0).contains(&ratio),
        "V7/V5 ratio {ratio:.0} not ~two orders of magnitude"
    );
}

/// "…consumed 1647.53 mW and 800.35 mW power for parallel stream join
/// based on bi-flow and uni-flow, respectively … more than 50% power
/// saving."
#[test]
fn power_claim() {
    let clock = Frequency::from_mhz(100.0);
    let model = PowerModel::calibrated();
    let uni = DesignParams::new(FlowModel::UniFlow, 16, 1 << 13);
    let bi = DesignParams::new(FlowModel::BiFlow, 16, 1 << 13);
    let p_uni = model
        .report(&XC5VLX50T, uni.resources(&XC5VLX50T), clock, uni.activity())
        .total_mw();
    let p_bi = model
        .report(&XC5VLX50T, bi.resources(&XC5VLX50T), clock, bi.activity())
        .total_mw();
    assert!((p_uni - 800.35).abs() < 4.0, "uni-flow power {p_uni:.2}");
    assert!((p_bi - 1647.53).abs() < 8.0, "bi-flow power {p_bi:.2}");
    assert!(p_uni < 0.5 * p_bi, "saving must exceed 50%");
}

/// "For the realization on our Virtex-5 FPGA, we do not see any
/// significant drop … we even see an increase in the clock frequency when
/// utilizing 16 join cores." / "the clock frequency of the lightweight
/// version drops as we increase the number of join cores … For the
/// scalable … no significant variations." (Fig. 17)
#[test]
fn clock_frequency_claims() {
    let fmax = |device, params: DesignParams| estimate_fmax(device, &params.timing_profile()).mhz();
    // V5: flat with a bump at 16.
    let v5 = |n| {
        fmax(
            &XC5VLX50T,
            DesignParams::new(FlowModel::UniFlow, n, 1 << 13),
        )
    };
    assert!(v5(16) > v5(8), "V5 bump at 16 cores");
    assert!((v5(2) - v5(8)).abs() / v5(2) < 0.10, "V5 flat 2..8");
    // V7 lightweight: monotone-ish decline, ~200 MHz at 512.
    let v7 = |n| {
        fmax(
            &XC7VX485T,
            DesignParams::new(FlowModel::UniFlow, n, 1 << 18),
        )
    };
    assert!(
        v7(512) < 0.7 * v7(2),
        "V7 lightweight must drop substantially"
    );
    assert!((180.0..230.0).contains(&v7(512)));
    // V7 scalable: flat at ~300 for every size.
    for exp in 1..=9u32 {
        let p = DesignParams::new(FlowModel::UniFlow, 1 << exp, 1 << 18)
            .with_network(NetworkKind::Scalable);
        let f = fmax(&XC7VX485T, p);
        assert!((295.0..310.0).contains(&f), "V7s at 2^{exp} cores: {f:.1}");
    }
}

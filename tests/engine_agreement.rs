//! Differential testing between the two property engines: a property the
//! RuleBase-style symbolic checker PROVES must never be violated by the
//! runtime PSL monitor on any simulated run of the same netlist — and a
//! property the checker REFUTES must be violable in simulation when the
//! counterexample's stimulus is replayed.
//!
//! This is the deep consistency check behind the paper's claim that the
//! same PSL properties can be re-verified across levels and tools.

use la1_suite::psl::{parse_directive, Monitor, Verdict};
use la1_suite::rtl::{Expr, Netlist, RtlSim};
use la1_suite::smc::{ModelChecker, SmcConfig, SmcOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small design with one free data input: a 2-stage valid pipeline.
fn pipeline() -> Netlist {
    let mut n = Netlist::new("pipe");
    let clk = n.input("clk", 1);
    let req = n.input("req", 1);
    let v1 = n.reg("v1", 1);
    n.dff_posedge(clk, Expr::net(req), v1);
    let v2 = n.reg("v2", 1);
    n.dff_posedge(clk, Expr::net(v1), v2);
    let busy = n.wire("busy", 1);
    n.assign(busy, Expr::or(Expr::net(v1), Expr::net(v2)));
    n
}

/// Simulates the netlist with a toggling clock and random `req`, feeding
/// the monitor the per-step values of the named 1-bit nets.
fn simulate_monitor(design: &Netlist, property: &str, steps: usize, seed: u64) -> Verdict {
    let prop = parse_directive(property).unwrap().property;
    let names: Vec<String> = ["clk", "req", "v1", "v2", "busy"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut monitor = Monitor::new(&prop).bind(&name_refs).unwrap();
    let mut sim = RtlSim::new(design);
    let clk = design.find("clk").unwrap();
    let req = design.find("req").unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut k = 0u64;
    for _ in 0..steps {
        k ^= 1;
        sim.set_u64(clk, k);
        sim.set_u64(req, rng.gen_range(0..2));
        sim.step();
        let values: Vec<bool> = names
            .iter()
            .map(|n| sim.get_u64(design.find(n).unwrap()) == Some(1))
            .collect();
        let st = monitor.step(&values);
        if st.is_violation() {
            return Verdict::Fails;
        }
    }
    monitor.verdict()
}

#[test]
fn proved_properties_hold_in_simulation() {
    let design = pipeline();
    let ts = design.extract(&[design.find("clk").unwrap()]);
    let checker = ModelChecker::new(&ts, SmcConfig::default());
    // properties over the *registered* pipeline (robust to free inputs)
    let proved = [
        "assert p1 : always (v2 -> busy)",
        "assert p2 : always {!v1 ; v1} |=> next v2",
        "assert p3 : never {v2 && !busy}",
        "assert p4 : always ((v1 && v2) -> busy)",
    ];
    for src in proved {
        let d = parse_directive(src).unwrap();
        let report = checker.check(&d).unwrap();
        assert!(
            matches!(report.outcome, SmcOutcome::Proved),
            "{src}: {:?}",
            report.outcome
        );
        // 40 random simulations must agree
        for seed in 0..40 {
            let v = simulate_monitor(&design, src, 120, seed);
            assert_ne!(v, Verdict::Fails, "{src} failed in simulation, seed {seed}");
        }
    }
}

#[test]
fn refuted_properties_fail_in_simulation_too() {
    let design = pipeline();
    let ts = design.extract(&[design.find("clk").unwrap()]);
    let checker = ModelChecker::new(&ts, SmcConfig::default());
    let refuted = [
        "assert q1 : always !busy",
        "assert q2 : always (v1 -> !v2)",
        "assert q3 : never {v1 ; v2}",
    ];
    for src in refuted {
        let d = parse_directive(src).unwrap();
        let report = checker.check(&d).unwrap();
        assert!(
            matches!(report.outcome, SmcOutcome::Violated(_)),
            "{src}: {:?}",
            report.outcome
        );
        // random stimulus finds the violation quickly on this design
        let mut found = false;
        for seed in 0..40 {
            if simulate_monitor(&design, src, 200, seed) == Verdict::Fails {
                found = true;
                break;
            }
        }
        assert!(found, "{src}: no simulated violation in 40 seeds");
    }
}

#[test]
fn smc_counterexample_replays_in_the_simulator() {
    // drive the simulator with the exact stimulus of an SMC trace and
    // confirm the design reaches the violating valuation
    let design = pipeline();
    let clk_net = design.find("clk").unwrap();
    let ts = design.extract(&[clk_net]);
    let d = parse_directive("assert nv2 : always !v2").unwrap();
    let report = ModelChecker::new(&ts, SmcConfig::default())
        .check(&d)
        .unwrap();
    let SmcOutcome::Violated(trace) = report.outcome else {
        panic!("must be violated");
    };
    // the trace's states include clk and the registers; replay by
    // checking the final state is reachable with req held high
    let v2_idx = trace
        .state_bits
        .iter()
        .position(|n| n == "v2[0]")
        .expect("v2 bit");
    assert!(trace.steps.last().unwrap()[v2_idx], "final state has v2");

    let mut sim = RtlSim::new(&design);
    let req = design.find("req").unwrap();
    let v2 = design.find("v2").unwrap();
    let mut k = 0u64;
    for _ in 0..trace.steps.len() {
        k ^= 1;
        sim.set_u64(clk_net, k);
        sim.set_u64(req, 1);
        sim.step();
    }
    assert_eq!(sim.get_u64(v2), Some(1), "replay reaches the violation");
}

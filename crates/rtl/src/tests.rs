//! Unit and property tests for the RTL crate.

use crate::*;

// ---- logic values -----------------------------------------------------------

#[test]
fn logic_not_table() {
    assert_eq!(Logic::L0.not(), Logic::L1);
    assert_eq!(Logic::L1.not(), Logic::L0);
    assert_eq!(Logic::X.not(), Logic::X);
    assert_eq!(Logic::Z.not(), Logic::X);
}

#[test]
fn logic_and_dominant_zero() {
    assert_eq!(Logic::L0.and(Logic::X), Logic::L0);
    assert_eq!(Logic::X.and(Logic::L0), Logic::L0);
    assert_eq!(Logic::L1.and(Logic::L1), Logic::L1);
    assert_eq!(Logic::L1.and(Logic::X), Logic::X);
    assert_eq!(Logic::Z.and(Logic::L1), Logic::X);
}

#[test]
fn logic_or_dominant_one() {
    assert_eq!(Logic::L1.or(Logic::X), Logic::L1);
    assert_eq!(Logic::X.or(Logic::L1), Logic::L1);
    assert_eq!(Logic::L0.or(Logic::L0), Logic::L0);
    assert_eq!(Logic::L0.or(Logic::Z), Logic::X);
}

#[test]
fn logic_resolution() {
    assert_eq!(Logic::Z.resolve(Logic::L1), Logic::L1);
    assert_eq!(Logic::L0.resolve(Logic::Z), Logic::L0);
    assert_eq!(Logic::Z.resolve(Logic::Z), Logic::Z);
    assert_eq!(Logic::L0.resolve(Logic::L1), Logic::X);
    assert_eq!(Logic::L1.resolve(Logic::L1), Logic::L1);
}

#[test]
fn logic_vec_round_trip() {
    let v = LogicVec::from_u64(0b1011, 4);
    assert_eq!(v.to_u64(), Some(0b1011));
    assert_eq!(v.width(), 4);
    assert_eq!(v.bit(0), Logic::L1);
    assert_eq!(v.bit(2), Logic::L0);
    assert_eq!(v.to_string(), "1011");
    assert!(LogicVec::xs(3).to_u64().is_none());
    assert_eq!(LogicVec::zeros(3).to_u64(), Some(0));
}

#[test]
fn logic_vec_slice_and_parity() {
    let v = LogicVec::from_u64(0b1101, 4);
    assert_eq!(v.slice(2, 1).to_u64(), Some(0b10));
    assert_eq!(v.reduce_xor(), Logic::L1); // three ones
    assert_eq!(v.reduce_or(), Logic::L1);
    assert_eq!(LogicVec::zeros(4).reduce_or(), Logic::L0);
}

// ---- netlist + simulator ----------------------------------------------------

/// A toggling register driven by a clock input.
fn toggler() -> (Netlist, NetId, NetId) {
    let mut n = Netlist::new("toggler");
    let clk = n.input("clk", 1);
    let q = n.reg("q", 1);
    n.dff_posedge(clk, Expr::not(Expr::net(q)), q);
    (n, clk, q)
}

/// Drives `clk` through `cycles` full clock periods.
fn run_clock(sim: &mut RtlSim, clk: NetId, cycles: usize) {
    for _ in 0..cycles {
        sim.set_u64(clk, 1);
        sim.step();
        sim.set_u64(clk, 0);
        sim.step();
    }
}

#[test]
fn dff_posedge_toggles() {
    let (n, clk, q) = toggler();
    let mut sim = RtlSim::new(&n);
    assert_eq!(sim.get_u64(q), Some(0));
    run_clock(&mut sim, clk, 1);
    assert_eq!(sim.get_u64(q), Some(1));
    run_clock(&mut sim, clk, 1);
    assert_eq!(sim.get_u64(q), Some(0));
    assert_eq!(sim.steps(), 4);
    assert!(sim.evals() > 0);
}

#[test]
fn dff_negedge_and_enable() {
    let mut n = Netlist::new("d");
    let clk = n.input("clk", 1);
    let en = n.input("en", 1);
    let d = n.input("d", 4);
    let q = n.reg("q", 4);
    n.dff_en(clk, Edge::Neg, Expr::net(en), Expr::net(d), q);
    let mut sim = RtlSim::new(&n);
    sim.set_u64(d, 9);
    sim.set_u64(en, 0);
    sim.set_u64(clk, 1);
    sim.step();
    sim.set_u64(clk, 0); // falling edge, enable low: no capture
    sim.step();
    assert_eq!(sim.get_u64(q), Some(0));
    sim.set_u64(en, 1);
    sim.set_u64(clk, 1);
    sim.step();
    sim.set_u64(clk, 0); // falling edge, enabled
    sim.step();
    assert_eq!(sim.get_u64(q), Some(9));
}

#[test]
fn ddr_captures_both_edges() {
    let mut n = Netlist::new("ddr");
    let clk = n.input("clk", 1);
    let hi = n.input("hi", 8);
    let lo = n.input("lo", 8);
    let q = n.reg("q", 8);
    n.ddr(clk, Expr::net(hi), Expr::net(lo), q);
    let mut sim = RtlSim::new(&n);
    sim.set_u64(hi, 0xAB);
    sim.set_u64(lo, 0xCD);
    sim.set_u64(clk, 1);
    sim.step(); // rising: captures hi
    assert_eq!(sim.get_u64(q), Some(0xAB));
    sim.set_u64(clk, 0);
    sim.step(); // falling: captures lo
    assert_eq!(sim.get_u64(q), Some(0xCD));
}

#[test]
fn combinational_assign_settles() {
    let mut n = Netlist::new("comb");
    let a = n.input("a", 4);
    let b = n.input("b", 4);
    let x = n.wire("x", 4);
    let y = n.wire("y", 4);
    n.assign(x, Expr::and(Expr::net(a), Expr::net(b)));
    n.assign(y, Expr::not(Expr::net(x)));
    let mut sim = RtlSim::new(&n);
    sim.set_u64(a, 0b1100);
    sim.set_u64(b, 0b1010);
    sim.step();
    assert_eq!(sim.get_u64(x), Some(0b1000));
    assert_eq!(sim.get_u64(y), Some(0b0111));
}

#[test]
fn tristate_resolution_on_shared_bus() {
    let mut n = Netlist::new("bus");
    let en0 = n.input("en0", 1);
    let en1 = n.input("en1", 1);
    let bus = n.wire("bus", 4);
    n.tristate(bus, Expr::net(en0), Expr::value(0x5, 4));
    n.tristate(bus, Expr::net(en1), Expr::value(0xA, 4));
    let mut sim = RtlSim::new(&n);
    // nobody drives: Z
    sim.step();
    assert_eq!(*sim.get(bus), LogicVec::zs(4));
    // driver 0 only
    sim.set_u64(en0, 1);
    sim.step();
    assert_eq!(sim.get_u64(bus), Some(0x5));
    // both drive conflicting values: X
    sim.set_u64(en1, 1);
    sim.step();
    assert!(sim.get(bus).iter().all(|b| b == Logic::X));
}

#[test]
fn ram_write_read_with_mask() {
    let mut n = Netlist::new("ram");
    let clk = n.input("clk", 1);
    let we = n.input("we", 1);
    let waddr = n.input("waddr", 2);
    let wdata = n.input("wdata", 8);
    let wmask = n.input("wmask", 8);
    let raddr = n.input("raddr", 2);
    let rdata = n.wire("rdata", 8);
    n.ram(
        clk,
        Expr::net(we),
        Expr::net(waddr),
        Expr::net(wdata),
        Some(Expr::net(wmask)),
        Expr::net(raddr),
        rdata,
        4,
        8,
    );
    let mut sim = RtlSim::new(&n);
    sim.set_u64(we, 1);
    sim.set_u64(waddr, 2);
    sim.set_u64(wdata, 0xFF);
    sim.set_u64(wmask, 0x0F); // low nibble only (byte-write control)
    sim.set_u64(clk, 1);
    sim.step();
    sim.set_u64(clk, 0);
    sim.set_u64(we, 0);
    sim.set_u64(raddr, 2);
    sim.step();
    assert_eq!(sim.get_u64(rdata), Some(0x0F));
    assert_eq!(sim.ram_word(0, 2).to_u64(), Some(0x0F));
    // unwritten word reads zero
    sim.set_u64(raddr, 1);
    sim.step();
    assert_eq!(sim.get_u64(rdata), Some(0));
}

#[test]
fn parity_generator() {
    let mut n = Netlist::new("par");
    let d = n.input("d", 8);
    let p = n.wire("p", 1);
    n.assign(p, Expr::ReduceXor(Box::new(Expr::net(d))));
    let mut sim = RtlSim::new(&n);
    sim.set_u64(d, 0b1011_0001);
    sim.step();
    assert_eq!(sim.get_u64(p), Some(0)); // four ones: even parity 0
    sim.set_u64(d, 0b1011_0000);
    sim.step();
    assert_eq!(sim.get_u64(p), Some(1));
}

#[test]
fn expr_width_checking() {
    let mut n = Netlist::new("w");
    let a = n.input("a", 4);
    let b = n.input("b", 2);
    assert_eq!(n.expr_width(&Expr::net(a)), 4);
    assert_eq!(n.expr_width(&Expr::eq(Expr::net(a), Expr::net(a))), 1);
    assert_eq!(
        n.expr_width(&Expr::Concat(vec![Expr::net(a), Expr::net(b)])),
        6
    );
    let bad = Expr::and(Expr::net(a), Expr::net(b));
    assert!(std::panic::catch_unwind(|| n.expr_width(&bad)).is_err());
}

#[test]
fn find_and_names() {
    let (n, clk, q) = toggler();
    assert_eq!(n.find("clk"), Some(clk));
    assert_eq!(n.find("q"), Some(q));
    assert_eq!(n.find("zzz"), None);
    assert_eq!(n.net_name(q), "q");
    assert_eq!(n.num_nets(), 2);
    assert_eq!(n.num_items(), 1);
}

// ---- Verilog emission --------------------------------------------------------

#[test]
fn verilog_emission_contains_structures() {
    let mut n = Netlist::new("unit");
    let clk = n.input("clk", 1);
    let d = n.input("d", 8);
    let q = n.reg("q", 8);
    let bus = n.wire("bus", 8);
    n.dff_posedge(clk, Expr::net(d), q);
    n.ddr(clk, Expr::net(d), Expr::net(q), q);
    n.tristate(bus, Expr::bit(true), Expr::net(q));
    n.mark_output(bus);
    let v = n.to_verilog();
    assert!(v.contains("module unit"));
    assert!(v.contains("input  wire clk"));
    assert!(v.contains("always @(posedge clk)"));
    assert!(v.contains("always @(negedge clk)"));
    assert!(v.contains("8'bz"));
    assert!(v.contains("output wire [7:0] bus"));
    assert!(v.contains("endmodule"));
}

#[test]
fn verilog_ram_emission() {
    let mut n = Netlist::new("mram");
    let clk = n.input("clk", 1);
    let rdata = n.wire("rdata", 4);
    n.ram(
        clk,
        Expr::bit(true),
        Expr::value(0, 2),
        Expr::value(5, 4),
        None,
        Expr::value(0, 2),
        rdata,
        4,
        4,
    );
    let v = n.to_verilog();
    assert!(v.contains("reg [3:0] mem_0 [0:3];"));
    assert!(v.contains("assign rdata = mem_0["));
}

// ---- extraction --------------------------------------------------------------

#[test]
fn extract_toggler_transition_system() {
    let (n, clk, _) = toggler();
    let ts = n.extract(&[clk]);
    assert_eq!(ts.num_state_bits(), 2); // clk + q
    assert_eq!(ts.num_input_bits(), 0);
    // simulate 4 steps by hand: clk toggles; q toggles on rising edges
    let mut state: Vec<bool> = ts.init.clone();
    let mut qs = Vec::new();
    for _ in 0..6 {
        let next: Vec<bool> = ts
            .next
            .iter()
            .map(|&f| ts.eval_node(f, &state, &[]))
            .collect();
        state = next;
        qs.push(state[1]);
    }
    // clk starts 0; steps: rising, falling, rising, ... q toggles on rising
    assert_eq!(qs, vec![true, true, false, false, true, true]);
}

#[test]
fn extract_probe_names_cover_all_nets() {
    let (n, clk, _) = toggler();
    let ts = n.extract(&[clk]);
    let names: Vec<&str> = ts.probe_names().collect();
    assert!(names.contains(&"clk"));
    assert!(names.contains(&"q"));
    assert!(ts.probe("q").is_some());
    assert!(ts.probe("nope").is_none());
}

#[test]
fn extract_matches_simulator_on_counter() {
    // 3-bit counter with enable input: compare extraction vs RtlSim
    let mut n = Netlist::new("ctr");
    let clk = n.input("clk", 1);
    let en = n.input("en", 1);
    let q = n.reg("q", 3);
    // q + 1 as ripple: bit0 ^= en; carry chain
    let b0 = Expr::Index(q, 0);
    let b1 = Expr::Index(q, 1);
    let b2 = Expr::Index(q, 2);
    let c0 = Expr::net(en);
    let c1 = Expr::and(c0.clone(), b0.clone());
    let c2 = Expr::and(c1.clone(), b1.clone());
    let d = Expr::Concat(vec![
        Expr::xor(b0, c0),
        Expr::xor(b1, c1),
        Expr::xor(b2, c2),
    ]);
    n.dff_posedge(clk, d, q);
    let ts = n.extract(&[clk]);
    let mut sim = RtlSim::new(&n);

    let mut state = ts.init.clone();
    let en_seq = [true, true, false, true, true, true, false, true, true];
    for &e in &en_seq {
        // extraction step (clk bit is state 0; q bits follow)
        let inputs = [e];
        let next: Vec<bool> = ts
            .next
            .iter()
            .map(|&f| ts.eval_node(f, &state, &inputs))
            .collect();
        state = next;
        // sim: full clock cycle (rising edge with en, then falling)
        sim.set_u64(en, e as u64);
        sim.set_u64(clk, 1);
        sim.step();
        sim.set_u64(clk, 0);
        sim.step();
        // compare after each full period (extraction needs 2 steps/period)
        let inputs2 = [e];
        let next2: Vec<bool> = ts
            .next
            .iter()
            .map(|&f| ts.eval_node(f, &state, &inputs2))
            .collect();
        state = next2;
        let q_ts = state[1] as u64 | (state[2] as u64) << 1 | (state[3] as u64) << 2;
        assert_eq!(sim.get_u64(q), Some(q_ts), "divergence at enable={e}");
    }
}

// ---- property tests -----------------------------------------------------------

// Property-based tests live behind the optional `proptest` feature
// (`cargo test --workspace --features proptest`); the dependency is a
// vendored offline shim (see vendor/proptest) that cannot be resolved
// from the registry in the offline build environment.
#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use crate::engine::Value;
    use proptest::prelude::*;

    /// Any of the four states, uniformly.
    fn any_logic() -> impl Strategy<Value = Logic> {
        (0usize..4).prop_map(|i| [Logic::L0, Logic::L1, Logic::X, Logic::Z][i])
    }

    /// A four-state vector of 1..=24 bits.
    fn any_logic_vec() -> impl Strategy<Value = LogicVec> {
        prop::collection::vec(any_logic(), 1..=24).prop_map(LogicVec::from_bits)
    }

    /// `refined` must agree with `pessimistic` wherever the pessimistic
    /// answer is known: concretizing an X/Z input may only *add*
    /// information, never contradict it.
    fn refines(pessimistic: Logic, refined: Logic) -> bool {
        !pessimistic.is_known() || pessimistic == refined
    }

    proptest! {
        #[test]
        fn de_morgan_holds_on_all_four_states(a in any_logic(), b in any_logic()) {
            prop_assert_eq!(a.and(b).not(), a.not().or(b.not()));
            prop_assert_eq!(a.or(b).not(), a.not().and(b.not()));
        }

        #[test]
        fn x_pessimism_is_monotone(a in any_logic(), u in 0usize..2, c in any::<bool>()) {
            // replacing an unknown operand with a concrete bit can only
            // refine the result (IEEE 1364 gates are X-pessimistic)
            let unknown = [Logic::X, Logic::Z][u];
            let concrete = Logic::from_bool(c);
            prop_assert!(refines(a.and(unknown), a.and(concrete)));
            prop_assert!(refines(a.or(unknown), a.or(concrete)));
            prop_assert!(refines(a.xor(unknown), a.xor(concrete)));
            prop_assert!(refines(unknown.not(), concrete.not()));
        }

        #[test]
        fn slice_and_index_round_trip(v in any_logic_vec(), lo_pick in 0u32..1000, hi_pick in 0u32..1000) {
            let w = v.width();
            let lo = lo_pick % w;
            let hi = lo.max(hi_pick % w);
            let s = v.slice(hi, lo);
            prop_assert_eq!(s.width(), hi - lo + 1);
            for i in 0..s.width() {
                prop_assert_eq!(s.bit(i), v.bit(lo + i));
            }
            // reassembling every bit reproduces the vector
            let rebuilt = LogicVec::from_bits(v.iter().collect());
            prop_assert_eq!(&rebuilt, &v);
        }

        #[test]
        fn set_bit_round_trips_and_is_local(v in any_logic_vec(), idx_pick in 0u32..1000, l in any_logic()) {
            let idx = idx_pick % v.width();
            let mut w = v.clone();
            w.set_bit(idx, l);
            prop_assert_eq!(w.bit(idx), l);
            for i in 0..v.width() {
                if i != idx {
                    prop_assert_eq!(w.bit(i), v.bit(i));
                }
            }
        }
        #[test]
        fn logicvec_u64_round_trip(v in any::<u64>(), w in 1u32..=64) {
            let masked = if w == 64 { v } else { v & ((1u64 << w) - 1) };
            let lv = LogicVec::from_u64(masked, w);
            prop_assert_eq!(lv.to_u64(), Some(masked));
        }

        #[test]
        fn resolution_is_commutative(a in 0usize..4, b in 0usize..4) {
            let all = [Logic::L0, Logic::L1, Logic::X, Logic::Z];
            prop_assert_eq!(all[a].resolve(all[b]), all[b].resolve(all[a]));
        }

        #[test]
        fn and_or_de_morgan_on_known(a in any::<bool>(), b in any::<bool>()) {
            let (la, lb) = (Logic::from_bool(a), Logic::from_bool(b));
            prop_assert_eq!(la.and(lb).not(), la.not().or(lb.not()));
        }

        #[test]
        fn sim_parity_matches_count_ones(d in any::<u8>()) {
            let mut n = Netlist::new("p");
            let i = n.input("d", 8);
            let p = n.wire("p", 1);
            n.assign(p, Expr::ReduceXor(Box::new(Expr::net(i))));
            let mut sim = RtlSim::new(&n);
            sim.set_u64(i, d as u64);
            sim.step();
            prop_assert_eq!(sim.get_u64(p), Some((d.count_ones() % 2) as u64));
        }

        #[test]
        fn dff_pipeline_delays_by_n(data in prop::collection::vec(any::<u8>(), 4..12)) {
            // two-stage pipeline: q2 lags the input by 2 cycles
            let mut n = Netlist::new("pipe");
            let clk = n.input("clk", 1);
            let d = n.input("d", 8);
            let q1 = n.reg("q1", 8);
            let q2 = n.reg("q2", 8);
            n.dff_posedge(clk, Expr::net(d), q1);
            n.dff_posedge(clk, Expr::net(q1), q2);
            let mut sim = RtlSim::new(&n);
            let mut seen = Vec::new();
            for &v in &data {
                sim.set_u64(d, v as u64);
                sim.set_u64(clk, 1);
                sim.step();
                sim.set_u64(clk, 0);
                sim.step();
                seen.push(sim.get_u64(q2).unwrap() as u8);
            }
            // both stages sample before committing, so after full cycle i
            // q2 holds the input of cycle i-1
            for i in 1..data.len() {
                prop_assert_eq!(seen[i], data[i - 1]);
            }
        }
    }

    // ---- packed two-plane algebra vs scalar Logic, lane by lane ----

    /// 64 lanes of four-state vectors of one width, as (packed, lanes).
    fn any_packed(width: u32) -> impl Strategy<Value = (PackedVec, Vec<LogicVec>)> {
        prop::collection::vec(
            prop::collection::vec(any_logic(), width as usize..=width as usize)
                .prop_map(LogicVec::from_bits),
            LANES..=LANES,
        )
        .prop_map(move |lanes| {
            let mut p = PackedVec::zeros(width);
            for (l, v) in lanes.iter().enumerate() {
                p.set_lane(l, v);
            }
            (p, lanes)
        })
    }

    /// Whole-vector equality from the truth tables: `X` if any bit of
    /// either side is unknown, else whether every bit agrees.
    fn scalar_eq(a: &LogicVec, b: &LogicVec) -> Logic {
        if !a.iter().chain(b.iter()).all(Logic::is_known) {
            Logic::X
        } else {
            Logic::from_bool(a.iter().zip(b.iter()).all(|(x, y)| x == y))
        }
    }

    /// Runs a scalar kernel into a fresh `width`-bit destination.
    fn scalar(width: u32, kernel: impl FnOnce(&mut LogicVec)) -> LogicVec {
        let mut d = LogicVec::zeros(width);
        kernel(&mut d);
        d
    }

    proptest! {
        #[test]
        fn packed_lane_round_trip((p, lanes) in any_packed(7)) {
            for (l, v) in lanes.iter().enumerate() {
                prop_assert_eq!(&p.get_lane(l), v);
                for i in 0..v.width() {
                    prop_assert_eq!(p.lane_bit(l, i), v.bit(i));
                }
                prop_assert_eq!(p.lane_to_u64(l), v.to_u64());
            }
        }

        /// The transposed bulk drive/sample paths agree with the
        /// per-lane scalar paths: `set_lanes_u64` equals 64
        /// `set_lane_u64` calls, and `lanes_u64` demuxes exactly what
        /// `lane_to_u64` reports per lane.
        #[test]
        fn packed_transposed_bulk_paths_match_per_lane(
            vals in prop::collection::vec(any::<u64>(), LANES..=LANES),
            (px, _) in any_packed(9),
        ) {
            let mut all = [0u64; LANES];
            all.copy_from_slice(&vals);
            let mut bulk = PackedVec::zeros(9);
            let mut scalar = PackedVec::zeros(9);
            bulk.set_lanes_u64(&all);
            for (l, v) in all.iter().enumerate() {
                scalar.set_lane_u64(l, *v);
            }
            prop_assert_eq!(&bulk, &scalar);

            let mut out = [0u64; LANES];
            let known = bulk.lanes_u64(&mut out);
            for (l, &o) in out.iter().enumerate() {
                prop_assert_eq!(known >> l & 1, 1);
                prop_assert_eq!(Some(o), bulk.lane_to_u64(l));
            }

            // a packed vector with X/Z lanes: the known mask must match
            // lane_to_u64's Some/None split, and known lanes' words the
            // per-lane value
            let kx = px.lanes_u64(&mut out);
            for (l, &o) in out.iter().enumerate() {
                match px.lane_to_u64(l) {
                    Some(v) => {
                        prop_assert_eq!(kx >> l & 1, 1);
                        prop_assert_eq!(o, v);
                    }
                    None => prop_assert_eq!(kx >> l & 1, 0),
                }
            }
        }

        #[test]
        fn packed_bitwise_ops_match_scalar_per_lane(
            (pa, la) in any_packed(6),
            (pb, lb) in any_packed(6),
        ) {
            let mut not = PackedVec::zeros(6);
            let mut and = PackedVec::zeros(6);
            let mut or = PackedVec::zeros(6);
            let mut xor = PackedVec::zeros(6);
            not.not_from(&pa);
            and.and_from(&pa, &pb);
            or.or_from(&pa, &pb);
            xor.xor_from(&pa, &pb);
            for l in 0..LANES {
                let (va, vb) = (&la[l], &lb[l]);
                let snot = scalar(6, |d| d.not_from(va));
                let sand = scalar(6, |d| d.and_from(va, vb));
                let sor = scalar(6, |d| d.or_from(va, vb));
                let sxor = scalar(6, |d| d.xor_from(va, vb));
                prop_assert_eq!(not.get_lane(l), snot, "not lane {}", l);
                prop_assert_eq!(and.get_lane(l), sand, "and lane {}", l);
                prop_assert_eq!(or.get_lane(l), sor, "or lane {}", l);
                prop_assert_eq!(xor.get_lane(l), sxor, "xor lane {}", l);
                for i in 0..6 {
                    let (a, b) = (va.bit(i), vb.bit(i));
                    prop_assert_eq!(snot.bit(i), a.not(), "not lane {} bit {}", l, i);
                    prop_assert_eq!(sand.bit(i), a.and(b), "and lane {} bit {}", l, i);
                    prop_assert_eq!(sor.bit(i), a.or(b), "or lane {} bit {}", l, i);
                    prop_assert_eq!(sxor.bit(i), a.xor(b), "xor lane {} bit {}", l, i);
                }
            }
        }

        #[test]
        fn packed_vector_ops_match_scalar_per_lane(
            (pa, la) in any_packed(5),
            (pb, lb) in any_packed(5),
            (psel, lsel) in any_packed(1),
        ) {
            let mut eq = PackedVec::zeros(1);
            let mut rxor = PackedVec::zeros(1);
            let mut ror = PackedVec::zeros(1);
            let mut mux = PackedVec::zeros(5);
            eq.eq_from(&pa, &pb);
            rxor.reduce_xor_from(&pa);
            ror.reduce_or_from(&pa);
            mux.mux_from(&psel, &pa, &pb);
            for l in 0..LANES {
                let (va, vb, vsel) = (&la[l], &lb[l], &lsel[l]);
                let seq = scalar(1, |d| d.eq_from(va, vb));
                let srxor = scalar(1, |d| d.reduce_xor_from(va));
                let sror = scalar(1, |d| d.reduce_or_from(va));
                let smux = scalar(5, |d| d.mux_from(vsel, va, vb));
                prop_assert_eq!(eq.get_lane(l), seq, "eq lane {}", l);
                prop_assert_eq!(rxor.get_lane(l), srxor, "reduce_xor lane {}", l);
                prop_assert_eq!(ror.get_lane(l), sror, "reduce_or lane {}", l);
                prop_assert_eq!(mux.get_lane(l), smux, "mux lane {}", l);
                prop_assert_eq!(seq.bit(0), scalar_eq(va, vb));
                prop_assert_eq!(srxor.bit(0), va.iter().fold(Logic::L0, Logic::xor));
                prop_assert_eq!(sror.bit(0), va.iter().fold(Logic::L0, Logic::or));
                let want = match vsel.bit(0) {
                    Logic::L1 => va.clone(),
                    Logic::L0 => vb.clone(),
                    _ => LogicVec::xs(5),
                };
                prop_assert_eq!(smux, want, "mux lane {}", l);
            }
        }

        #[test]
        fn packed_tristate_fold_matches_scalar_per_lane(
            (pe0, le0) in any_packed(1),
            (pv0, lv0) in any_packed(4),
            (pe1, le1) in any_packed(1),
            (pv1, lv1) in any_packed(4),
        ) {
            let mut acc = PackedVec::zeros(4);
            acc.fill_z();
            acc.tri_accumulate(&pe0, &pv0);
            acc.tri_accumulate(&pe1, &pv1);
            for l in 0..LANES {
                let sacc = scalar(4, |d| {
                    d.fill_z();
                    d.tri_accumulate(&le0[l], &lv0[l]);
                    d.tri_accumulate(&le1[l], &lv1[l]);
                });
                prop_assert_eq!(acc.get_lane(l), sacc, "tri lane {}", l);
                for i in 0..4 {
                    let mut want = Logic::Z;
                    for (en, val) in [(le0[l].bit(0), lv0[l].bit(i)), (le1[l].bit(0), lv1[l].bit(i))] {
                        let contribution = match en {
                            Logic::L1 => val,
                            Logic::L0 => Logic::Z,
                            _ => Logic::X,
                        };
                        want = want.resolve(contribution);
                    }
                    prop_assert_eq!(sacc.bit(i), want, "tri lane {} bit {}", l, i);
                }
            }
        }

        #[test]
        fn packed_de_morgan_and_x_monotone_per_lane(
            (pa, _la) in any_packed(3),
            (pb, lb) in any_packed(3),
        ) {
            // De Morgan: ~(a & b) == ~a | ~b, lane by lane
            let mut and = PackedVec::zeros(3);
            let mut lhs = PackedVec::zeros(3);
            and.and_from(&pa, &pb);
            lhs.not_from(&and);
            let mut na = PackedVec::zeros(3);
            let mut nb = PackedVec::zeros(3);
            let mut rhs = PackedVec::zeros(3);
            na.not_from(&pa);
            nb.not_from(&pb);
            rhs.or_from(&na, &nb);
            prop_assert_eq!(&lhs, &rhs);
            // X-monotonicity: concretizing b's unknown bits to 0 can only
            // refine a & b per lane (never contradict a known result)
            let mut b0 = pb.clone();
            for (l, vb) in lb.iter().enumerate() {
                let mut v = vb.clone();
                for i in 0..3 {
                    if !v.bit(i).is_known() {
                        v.set_bit(i, Logic::L0);
                    }
                }
                b0.set_lane(l, &v);
            }
            let mut refined = PackedVec::zeros(3);
            refined.and_from(&pa, &b0);
            for l in 0..LANES {
                for i in 0..3 {
                    let p = and.lane_bit(l, i);
                    let r = refined.lane_bit(l, i);
                    prop_assert!(refines(p, r), "lane {} bit {}: {} -> {}", l, i, p, r);
                }
            }
        }
    }

    // ---- the compiled probe pass vs a truth-table tree walk ----

    /// A stream of random draws that builds one test case.
    struct Genes(std::vec::IntoIter<u64>);

    impl Genes {
        fn next(&mut self, below: u64) -> u64 {
            self.0.next().unwrap_or(0) % below
        }

        fn logic(&mut self) -> Logic {
            [Logic::L0, Logic::L1, Logic::X, Logic::Z][self.next(4) as usize]
        }

        fn vec(&mut self, width: u32) -> LogicVec {
            LogicVec::from_bits((0..width).map(|_| self.logic()).collect())
        }
    }

    /// Inputs of widths 1, 3, 4, 4 and 8, and a wire `w = a ^ b`.
    fn probe_netlist() -> (Netlist, Vec<NetId>) {
        let mut n = Netlist::new("probes");
        let ins: Vec<NetId> = [("c", 1), ("s", 3), ("a", 4), ("b", 4), ("d", 8)]
            .iter()
            .map(|&(name, w)| n.input(name, w))
            .collect();
        let w = n.wire("w", 4);
        n.assign(w, Expr::xor(Expr::net(ins[2]), Expr::net(ins[3])));
        let nets = ins.into_iter().chain([w]).collect();
        (n, nets)
    }

    /// A random `width`-bit expression over `nets` (`width` ≤ 8).
    fn arb_expr(n: &Netlist, nets: &[NetId], width: u32, depth: u32, g: &mut Genes) -> Expr {
        let choice = g.next(if depth == 0 { 3 } else { 10 });
        let sub = |g: &mut Genes, w| arb_expr(n, nets, w, depth - 1, g);
        let wide = nets[4];
        match choice {
            0 => {
                let fits: Vec<NetId> = nets
                    .iter()
                    .copied()
                    .filter(|&x| n.expr_width(&Expr::net(x)) == width)
                    .collect();
                match fits.len() {
                    0 => Expr::Const(g.vec(width)),
                    k => Expr::net(fits[g.next(k as u64) as usize]),
                }
            }
            1 => Expr::Const(g.vec(width)),
            2 if width == 1 => Expr::Index(wide, g.next(8) as u32),
            2 => {
                let lo = g.next(u64::from(9 - width)) as u32;
                Expr::Slice(wide, lo + width - 1, lo)
            }
            3 => Expr::not(sub(g, width)),
            4 => Expr::and(sub(g, width), sub(g, width)),
            5 => Expr::or(sub(g, width), sub(g, width)),
            6 => Expr::xor(sub(g, width), sub(g, width)),
            7 => Expr::mux(sub(g, 1), sub(g, width), sub(g, width)),
            8 if width == 1 => {
                let w = 1 + g.next(4) as u32;
                Expr::eq(sub(g, w), sub(g, w))
            }
            9 if width == 1 => {
                let w = 1 + g.next(8) as u32;
                let a = Box::new(sub(g, w));
                if g.next(2) == 0 {
                    Expr::ReduceXor(a)
                } else {
                    Expr::ReduceOr(a)
                }
            }
            _ if width == 1 => Expr::not(sub(g, 1)),
            _ => {
                let lo = 1 + g.next(u64::from(width - 1)) as u32;
                Expr::Concat(vec![sub(g, lo), sub(g, width - lo)])
            }
        }
    }

    /// `e` evaluated bit by bit through the [`Logic`] truth tables over
    /// one lane's net values.
    fn reference(e: &Expr, net: &dyn Fn(NetId) -> LogicVec) -> LogicVec {
        let eval = |e: &Expr| reference(e, net);
        let zip = |a: &Expr, b: &Expr, f: fn(Logic, Logic) -> Logic| {
            let (a, b) = (eval(a), eval(b));
            LogicVec::from_bits(a.iter().zip(b.iter()).map(|(x, y)| f(x, y)).collect())
        };
        match e {
            Expr::Const(v) => v.clone(),
            Expr::Net(n) => net(*n),
            Expr::Index(n, i) => LogicVec::from_bits(vec![net(*n).bit(*i)]),
            Expr::Slice(n, hi, lo) => net(*n).slice(*hi, *lo),
            Expr::Not(a) => LogicVec::from_bits(eval(a).iter().map(Logic::not).collect()),
            Expr::And(a, b) => zip(a, b, Logic::and),
            Expr::Or(a, b) => zip(a, b, Logic::or),
            Expr::Xor(a, b) => zip(a, b, Logic::xor),
            Expr::Eq(a, b) => {
                let (a, b) = (eval(a), eval(b));
                let known = a.is_known() && b.is_known();
                let bit = if known {
                    Logic::from_bool(a == b)
                } else {
                    Logic::X
                };
                LogicVec::from_bits(vec![bit])
            }
            Expr::Mux { sel, a, b } => match eval(sel).bit(0) {
                Logic::L1 => eval(a),
                Logic::L0 => eval(b),
                _ => LogicVec::xs(eval(a).width()),
            },
            Expr::Concat(parts) => LogicVec::from_bits(
                parts
                    .iter()
                    .flat_map(|p| eval(p).iter().collect::<Vec<_>>())
                    .collect(),
            ),
            Expr::ReduceXor(a) => LogicVec::from_bits(vec![eval(a).reduce_xor()]),
            Expr::ReduceOr(a) => LogicVec::from_bits(vec![eval(a).reduce_or()]),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random expressions over random four-state per-lane inputs: the
        /// compiled probe pass reads, lane by lane and on both value
        /// types, what the truth-table tree walk gives — whole values and
        /// the per-lane reads monitors sample (bit 0, known value, count
        /// of ones).
        #[test]
        fn probe_pass_matches_truth_table_tree_walk(
            genes in prop::collection::vec(any::<u64>(), 2048..2049),
        ) {
            let mut g = Genes(genes.into_iter());
            let (n, nets) = probe_netlist();
            let exprs: Vec<Expr> = (0..6)
                .map(|_| {
                    let width = [1, 1, 2, 4, 5, 8][g.next(6) as usize];
                    arb_expr(&n, &nets, width, 3, &mut g)
                })
                .collect();
            let mut batched = BatchedRtlSim::new(&n);
            let mut scalars: Vec<RtlSim> = (0..LANES).map(|_| RtlSim::new(&n)).collect();
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                for &net in &nets[..5] {
                    let v = g.vec(n.expr_width(&Expr::net(net)));
                    batched.set_lane(net, lane, &v);
                    scalar.set(net, v);
                }
            }
            batched.step();
            scalars.iter_mut().for_each(RtlSim::step);
            let mut pass = batched.probe_pass(&exprs);
            let probed = batched.run_probes(&mut pass);
            for (lane, sc) in scalars.iter().enumerate() {
                let mut scalar_pass = sc.probe_pass(&exprs);
                let scalar = sc.run_probes(&mut scalar_pass);
                for (i, e) in exprs.iter().enumerate() {
                    let want = reference(e, &|net| batched.get_lane(net, lane));
                    let got = probed.get(i);
                    prop_assert_eq!(&got.get_lane(lane), &want, "lane {} expr {:?}", lane, e);
                    prop_assert_eq!(scalar.get(i), &want, "scalar lane {} expr {:?}", lane, e);
                    prop_assert_eq!(got.lane_bit(lane, 0), want.bit(0));
                    prop_assert_eq!(got.lane_u64(lane), want.to_u64());
                    let ones = want.iter().filter(|&b| b == Logic::L1).count() as u32;
                    prop_assert_eq!(got.lane_ones(lane), want.is_known().then_some(ones));
                    prop_assert_eq!(scalar.get(i).lane_ones(0), want.is_known().then_some(ones));
                }
            }
        }
    }
}

// ---- batched (PPSFP) simulator ---------------------------------------------

/// A design exercising every node kind at once: DFF pipeline, enabled
/// DFF, DDR capture, masked RAM, mux/eq/concat/reduction logic and a
/// two-driver tristate bus.
fn batched_probe_design() -> (Netlist, Vec<NetId>) {
    let mut n = Netlist::new("batched_probe");
    let clk = n.input("clk", 1);
    let we = n.input("we", 1);
    let addr = n.input("addr", 3);
    let wdata = n.input("wdata", 16);
    let en0 = n.input("en0", 1);
    let en1 = n.input("en1", 1);

    let a1 = n.reg("a1", 3);
    n.dff_posedge(clk, Expr::net(addr), a1);
    let a2 = n.reg("a2", 3);
    n.dff_en(clk, Edge::Pos, Expr::net(en0), Expr::net(a1), a2);

    let rdata = n.wire("rdata", 16);
    n.ram(
        clk,
        Expr::net(we),
        Expr::net(addr),
        Expr::net(wdata),
        Some(Expr::value(0x0FF0, 16)),
        Expr::net(a2),
        rdata,
        8,
        16,
    );

    let ddr_q = n.reg("ddr_q", 8);
    n.ddr(
        clk,
        Expr::Slice(wdata, 7, 0),
        Expr::Slice(wdata, 15, 8),
        ddr_q,
    );

    let parity = n.wire("parity", 1);
    n.assign(parity, Expr::ReduceXor(Box::new(Expr::net(rdata))));
    let any = n.wire("any", 1);
    n.assign(any, Expr::ReduceOr(Box::new(Expr::net(ddr_q))));
    let same = n.wire("same", 1);
    n.assign(same, Expr::eq(Expr::net(a1), Expr::net(a2)));
    let mix = n.wire("mix", 16);
    n.assign(
        mix,
        Expr::mux(
            Expr::net(same),
            Expr::net(rdata),
            Expr::Concat(vec![Expr::net(ddr_q), Expr::Slice(rdata, 15, 8)]),
        ),
    );

    let bus = n.wire("bus", 16);
    n.tristate(bus, Expr::net(en0), Expr::net(mix));
    n.tristate(bus, Expr::net(en1), Expr::not(Expr::net(rdata)));
    n.mark_output(bus);

    (n, vec![clk, we, addr, wdata, en0, en1])
}

/// Per-lane stimulus: a cheap deterministic hash of (lane, cycle).
fn lane_stim(lane: u64, cycle: u64) -> u64 {
    let mut z = lane
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(cycle.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z ^= z >> 29;
    z.wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// 64 lanes of the batched simulator against 64 independently-driven
/// scalar simulators: every net identical every cycle, including lanes
/// carrying X injections on the write data, the address (RAM read gather
/// and write select), the write enable and `en0` (the enabled-DFF mask
/// and a tristate enable) — the hooks each value type implements.
#[test]
fn batched_lanes_match_scalar_simulators() {
    let (n, ins) = batched_probe_design();
    let [clk, we, addr, wdata, en0, en1] = ins[..] else {
        unreachable!()
    };
    for mode in [SettleMode::ActivityDriven, SettleMode::Full] {
        let mut batched = BatchedRtlSim::new(&n);
        batched.set_settle_mode(mode);
        let mut scalars: Vec<RtlSim> = (0..LANES)
            .map(|_| {
                let mut s = RtlSim::new(&n);
                s.set_settle_mode(mode);
                s
            })
            .collect();
        for cycle in 0..48u64 {
            for (lane, sc) in scalars.iter_mut().enumerate() {
                let s = lane_stim(lane as u64, cycle);
                // (net, value, inject X in this lane)
                for (net, val, x) in [
                    (we, s & 1, s >> 24 & 15 == 0),
                    (addr, s >> 1 & 7, s >> 28 & 15 == 0),
                    (wdata, s >> 4 & 0xFFFF, s.is_multiple_of(7)),
                    (en0, s >> 20 & 1, s >> 32 & 15 == 0),
                    (en1, s >> 21 & 1, false),
                ] {
                    if x {
                        batched.set_lane_xs(net, lane);
                        sc.set(net, LogicVec::xs(n.width(net)));
                    } else {
                        batched.set_lane_u64(net, lane, val);
                        sc.set_u64(net, val);
                    }
                }
            }
            for phase in [1u64, 0] {
                batched.set_u64_all(clk, phase);
                batched.step();
                for (lane, sc) in scalars.iter_mut().enumerate() {
                    sc.set_u64(clk, phase);
                    sc.step();
                    for net in 0..n.num_nets() as u32 {
                        assert_eq!(
                            &batched.get_lane(NetId(net), lane),
                            sc.get(NetId(net)),
                            "{mode:?} lane {lane} cycle {cycle} phase {phase} net {}",
                            n.net_name(NetId(net))
                        );
                    }
                }
            }
        }
    }
}

/// One probe pass over the batched simulator reads, lane by lane, what
/// a pass over each lane's scalar simulator reads (the monitor path).
#[test]
fn probe_pass_matches_scalar_lanes() {
    let (n, ins) = batched_probe_design();
    let [clk, we, addr, wdata, en0, en1] = ins[..] else {
        unreachable!()
    };
    let rdata = n.find("rdata").unwrap();
    let bus = n.find("bus").unwrap();
    let probe_expr = Expr::mux(
        Expr::eq(Expr::net(addr), Expr::value(3, 3)),
        Expr::and(Expr::net(rdata), Expr::net(bus)),
        Expr::xor(Expr::net(rdata), Expr::net(bus)),
    );
    let probes = [
        probe_expr,
        Expr::net(rdata),
        Expr::Concat(vec![Expr::Slice(bus, 3, 0), Expr::value(5, 3)]),
    ];
    let mut batched = BatchedRtlSim::new(&n);
    let mut scalars: Vec<RtlSim> = (0..LANES).map(|_| RtlSim::new(&n)).collect();
    let mut pass = batched.probe_pass(&probes);
    let mut scalar_pass = scalars[0].probe_pass(&probes);
    for cycle in 0..16u64 {
        for (lane, sc) in scalars.iter_mut().enumerate() {
            let s = lane_stim(lane as u64, cycle);
            for (net, val) in [
                (we, s & 1),
                (addr, s >> 1 & 7),
                (wdata, s >> 4 & 0xFFFF),
                (en0, s >> 20 & 1),
                (en1, s >> 21 & 1),
            ] {
                batched.set_lane_u64(net, lane, val);
                sc.set_u64(net, val);
            }
        }
        for phase in [1u64, 0] {
            batched.set_u64_all(clk, phase);
            batched.step();
            for sc in scalars.iter_mut() {
                sc.set_u64(clk, phase);
                sc.step();
            }
        }
        let evals = batched.evals();
        let probed = batched.run_probes(&mut pass);
        for (lane, sc) in scalars.iter().enumerate() {
            let scalar = sc.run_probes(&mut scalar_pass);
            for i in 0..probes.len() {
                assert_eq!(
                    probed.get(i).get_lane(lane),
                    *scalar.get(i),
                    "probe {i} lane {lane} cycle {cycle}"
                );
            }
        }
        assert_eq!(batched.evals(), evals, "a probe pass is not simulator load");
    }
}

/// RAM addresses the words do not cover: a 33-bit address over 4 words
/// (a read at 2^32+1 is all-X, a write at 2^32+2 changes no word) and a
/// 2-bit address over 8 words (a write at 0 reaches word 0 only). The
/// range checks must see the whole address, on both instances.
#[test]
fn ram_addresses_beyond_the_words_read_x_and_write_nothing_there() {
    let wide = (33, 4, (1u64 << 32) + 1, (1u64 << 32) + 2);
    let narrow = (2, 8, 1, 0);
    for (abits, words, read, write) in [wide, narrow] {
        let mut n = Netlist::new("ram_reach");
        let clk = n.input("clk", 1);
        let we = n.input("we", 1);
        let waddr = n.input("waddr", abits);
        let raddr = n.input("raddr", abits);
        let rdata = n.wire("rdata", 8);
        n.ram(
            clk,
            Expr::net(we),
            Expr::net(waddr),
            Expr::value(0xA5, 8),
            None,
            Expr::net(raddr),
            rdata,
            words,
            8,
        );
        let mut sim = RtlSim::new(&n);
        let mut batched = BatchedRtlSim::new(&n);
        for (net, val) in [(we, 1), (waddr, write), (raddr, read), (clk, 1)] {
            sim.set_u64(net, val);
            batched.set_u64_all(net, val);
        }
        sim.step();
        batched.step();
        if read >= u64::from(words) {
            assert_eq!(*sim.get(rdata), LogicVec::xs(8));
            for lane in 0..LANES {
                assert_eq!(batched.get_lane(rdata, lane), LogicVec::xs(8));
            }
        }
        let rams = batched.export_state().unwrap().rams;
        for (a, (v, x)) in rams[0].iter().enumerate() {
            let want = Some(if a as u64 == write { 0xA5 } else { 0 });
            assert_eq!(sim.ram_word(0, a).to_u64(), want, "{abits}-bit word {a}");
            let word = PackedVec::from_planes(8, v.clone(), x.clone()).unwrap();
            for lane in 0..LANES {
                assert_eq!(
                    word.lane_to_u64(lane),
                    want,
                    "{abits}-bit word {a} lane {lane}"
                );
            }
        }
    }
}

//! Steady-state stepping of the compiled simulator must not touch the
//! heap: every buffer (value arena, dirty bitset, fired list, input
//! staging) is preallocated at construction, and per-step work reuses
//! it. A counting global allocator proves it.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocs_on_this_thread;
use la1_rtl::{BatchedRtlSim, Expr, Netlist, RtlSim, SettleMode, LANES};

/// A design exercising every sequential and combinational node kind the
/// LA-1 netlist uses: DFF pipeline, masked RAM, tristate bus, reduction
/// logic.
fn representative_design() -> (Netlist, Vec<la1_rtl::NetId>) {
    let mut n = Netlist::new("alloc_probe");
    let clk = n.input("clk", 1);
    let we = n.input("we", 1);
    let addr = n.input("addr", 3);
    let wdata = n.input("wdata", 16);
    let en0 = n.input("en0", 1);
    let en1 = n.input("en1", 1);

    let a1 = n.reg("a1", 3);
    n.dff_posedge(clk, Expr::net(addr), a1);
    let a2 = n.reg("a2", 3);
    n.dff_posedge(clk, Expr::net(a1), a2);

    let rdata = n.wire("rdata", 16);
    n.ram(
        clk,
        Expr::net(we),
        Expr::net(addr),
        Expr::net(wdata),
        Some(Expr::value(0x00FF, 16)),
        Expr::net(a2),
        rdata,
        8,
        16,
    );

    let parity = n.wire("parity", 1);
    n.assign(parity, Expr::ReduceXor(Box::new(Expr::net(rdata))));

    let bus = n.wire("bus", 16);
    n.tristate(bus, Expr::net(en0), Expr::net(rdata));
    n.tristate(bus, Expr::net(en1), Expr::not(Expr::net(rdata)));
    n.mark_output(bus);

    (n, vec![clk, we, addr, wdata, en0, en1])
}

fn drive_cycles(sim: &mut RtlSim, ins: &[la1_rtl::NetId], cycles: u64) {
    let [clk, we, addr, wdata, en0, en1] = ins else {
        unreachable!()
    };
    for c in 0..cycles {
        sim.set_u64(*we, c & 1);
        sim.set_u64(*addr, c % 8);
        sim.set_u64(*wdata, c.wrapping_mul(0x9E37) & 0xFFFF);
        sim.set_u64(*en0, (c >> 1) & 1);
        sim.set_u64(*en1, (c >> 1) & 1 ^ 1);
        sim.set_u64(*clk, 1);
        sim.step();
        sim.set_u64(*clk, 0);
        sim.step();
    }
}

/// Same stimulus for the 64-lane batched simulator: clocks and write
/// enables are lane-uniform, data/address/bus enables vary per lane so
/// every lane exercises a distinct trajectory.
fn drive_cycles_batched(sim: &mut BatchedRtlSim, ins: &[la1_rtl::NetId], cycles: u64) {
    let [clk, we, addr, wdata, en0, en1] = ins else {
        unreachable!()
    };
    for c in 0..cycles {
        sim.set_u64_all(*we, c & 1);
        for lane in 0..LANES {
            let s = c.wrapping_add(lane as u64);
            sim.set_lane_u64(*addr, lane, s % 8);
            sim.set_lane_u64(*wdata, lane, s.wrapping_mul(0x9E37) & 0xFFFF);
            sim.set_lane_u64(*en0, lane, (s >> 1) & 1);
            sim.set_lane_u64(*en1, lane, (s >> 1) & 1 ^ 1);
        }
        sim.set_u64_all(*clk, 1);
        sim.step();
        sim.set_u64_all(*clk, 0);
        sim.step();
    }
}

#[test]
fn steady_state_stepping_does_not_allocate() {
    for mode in [SettleMode::ActivityDriven, SettleMode::Full] {
        let (n, ins) = representative_design();
        let mut sim = RtlSim::new(&n);
        sim.set_settle_mode(mode);
        // warm-up: lets every lazily-grown buffer (settle heap, dirty
        // worklist) reach its steady-state capacity
        drive_cycles(&mut sim, &ins, 64);

        let before = allocs_on_this_thread();
        drive_cycles(&mut sim, &ins, 256);
        let after = allocs_on_this_thread();
        assert_eq!(
            after - before,
            0,
            "{mode:?} stepping allocated {} times",
            after - before
        );
    }
}

#[test]
fn batched_steady_state_stepping_does_not_allocate() {
    for mode in [SettleMode::ActivityDriven, SettleMode::Full] {
        let (n, ins) = representative_design();
        let mut sim = BatchedRtlSim::new(&n);
        sim.set_settle_mode(mode);
        drive_cycles_batched(&mut sim, &ins, 64);

        let before = allocs_on_this_thread();
        drive_cycles_batched(&mut sim, &ins, 256);
        let after = allocs_on_this_thread();
        assert_eq!(
            after - before,
            0,
            "batched {mode:?} stepping allocated {} times",
            after - before
        );
    }
}

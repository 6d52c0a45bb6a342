//! Unit and property tests for the event-driven kernel.

use crate::*;
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn signal_read_write_delta_semantics() {
    let mut sim = Simulator::new();
    let s = sim.signal("s", 1u32);
    s.write(&mut sim, 2);
    // not yet visible: update phase hasn't run
    assert_eq!(s.read(&sim), 1);
    sim.run_deltas();
    assert_eq!(s.read(&sim), 2);
}

#[test]
fn last_write_wins_within_a_delta() {
    let mut sim = Simulator::new();
    let s = sim.signal("s", 0u32);
    s.write(&mut sim, 5);
    s.write(&mut sim, 9);
    sim.run_deltas();
    assert_eq!(s.read(&sim), 9);
}

#[test]
fn duplicate_writes_enqueue_one_update() {
    // regression: a signal written several times in one evaluate phase
    // must enqueue exactly one update (last-write-wins, applied once)
    let mut sim = Simulator::new();
    let s = sim.signal("s", 0u32);
    let t = sim.signal("t", 0u32);
    s.write(&mut sim, 5);
    s.write(&mut sim, 9);
    t.write(&mut sim, 1);
    assert_eq!(
        sim.pending_updates(),
        2,
        "two signals written, two queue entries — dedup'd per slot"
    );
    let applied_before = sim.updates_applied();
    sim.run_deltas();
    assert_eq!(s.read(&sim), 9, "last write wins");
    assert_eq!(
        sim.updates_applied() - applied_before,
        2,
        "one update application per written signal, not per write"
    );
}

#[test]
fn write_of_same_value_fires_no_event() {
    let mut sim = Simulator::new();
    let s = sim.signal("s", 3u32);
    let count = Rc::new(RefCell::new(0));
    {
        let count = Rc::clone(&count);
        let sens = [s.event()];
        sim.process("watch", &sens, move |_| *count.borrow_mut() += 1);
    }
    sim.run_deltas(); // initialization run counts once
    assert_eq!(*count.borrow(), 1);
    s.write(&mut sim, 3); // unchanged: no event
    sim.run_deltas();
    assert_eq!(*count.borrow(), 1);
    s.write(&mut sim, 4);
    sim.run_deltas();
    assert_eq!(*count.borrow(), 2);
}

#[test]
fn processes_chain_across_deltas() {
    let mut sim = Simulator::new();
    let a = sim.signal("a", 0u32);
    let b = sim.signal("b", 0u32);
    let c = sim.signal("c", 0u32);
    sim.process("p1", &[a.event()], move |st| {
        let v = a.read(st);
        b.write(st, v + 1);
    });
    sim.process("p2", &[b.event()], move |st| {
        let v = b.read(st);
        c.write(st, v * 10);
    });
    a.write(&mut sim, 4);
    let deltas = sim.run_deltas();
    assert_eq!(b.read(&sim), 5);
    assert_eq!(c.read(&sim), 50);
    assert!(deltas >= 2, "chained evaluation needs at least two deltas");
}

#[test]
fn zero_time_feedback_is_detected() {
    let mut sim = Simulator::new();
    let s = sim.signal("osc", false);
    sim.process("osc", &[s.event()], move |st| {
        let v = s.read(st);
        s.write(st, !v);
    });
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_deltas();
    }));
    assert!(result.is_err(), "combinational loop must be detected");
}

#[test]
fn timed_notification_advances_time() {
    let mut sim = Simulator::new();
    let e = sim.event();
    let hits = Rc::new(RefCell::new(Vec::new()));
    {
        let hits = Rc::clone(&hits);
        sim.process("timed", &[e], move |st| {
            hits.borrow_mut().push(st.time());
        });
    }
    sim.notify_after(e, 10);
    sim.notify_after(e, 25);
    sim.run_until(30);
    // the initialization run at t=0 plus the two timed hits
    assert_eq!(*hits.borrow(), vec![0, 10, 25]);
    assert_eq!(sim.time(), 30);
}

#[test]
fn step_time_returns_each_instant() {
    let mut sim = Simulator::new();
    let e = sim.event();
    sim.process("noop", &[e], |_| {});
    sim.notify_after(e, 5);
    sim.notify_after(e, 9);
    assert_eq!(sim.step_time(), Some(5));
    assert_eq!(sim.step_time(), Some(9));
    assert_eq!(sim.step_time(), None);
}

#[test]
fn activations_counted() {
    let mut sim = Simulator::new();
    let s = sim.signal("s", 0u32);
    sim.process("p", &[s.event()], move |_| {});
    sim.run_deltas();
    let a0 = sim.activations();
    s.write(&mut sim, 1);
    sim.run_deltas();
    assert_eq!(sim.activations(), a0 + 1);
    assert!(sim.delta_cycles() >= 2);
}

// Property-based tests live behind the optional `proptest` feature
// (`cargo test --workspace --features proptest`); the dependency is a
// vendored offline shim (see vendor/proptest) that cannot be resolved
// from the registry in the offline build environment.
#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn signal_holds_any_sequence(values in prop::collection::vec(any::<u16>(), 1..30)) {
            let mut sim = Simulator::new();
            let s = sim.signal("s", 0u16);
            for &v in &values {
                s.write(&mut sim, v);
                sim.run_deltas();
                prop_assert_eq!(s.read(&sim), v);
            }
        }
    }
}

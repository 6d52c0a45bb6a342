//! Value Change Dump (IEEE 1364 §18) output — waveforms any HDL
//! engineer can open, the natural inspection artefact of an RTL
//! simulator.

use crate::engine::RtlSim;
use crate::logic::LogicVec;
use crate::netlist::{NetId, Netlist};
use std::fmt::Write;

/// Records selected nets each step and renders an IEEE-1364 VCD file.
///
/// ```
/// use la1_rtl::{Netlist, Expr, RtlSim, VcdWriter};
/// let mut n = Netlist::new("t");
/// let clk = n.input("clk", 1);
/// let q = n.reg("q", 1);
/// n.dff_posedge(clk, Expr::not(Expr::net(q)), q);
/// let mut sim = RtlSim::new(&n);
/// let mut vcd = VcdWriter::new(&n, &[clk, q]);
/// for i in 0..4 {
///     sim.set_u64(clk, i % 2);
///     sim.step();
///     vcd.sample(&sim);
/// }
/// let text = vcd.render();
/// assert!(text.contains("$var wire 1"));
/// assert!(text.contains("$enddefinitions"));
/// ```
#[derive(Debug, Clone)]
pub struct VcdWriter {
    module: String,
    nets: Vec<(NetId, String, u32, String)>, // (net, name, width, id code)
    /// (time, changes) — only changed values are recorded
    changes: Vec<(u64, Vec<(usize, LogicVec)>)>,
    last: Vec<Option<LogicVec>>,
    time: u64,
}

impl VcdWriter {
    /// Creates a writer watching `nets` of `design`.
    pub fn new(design: &Netlist, nets: &[NetId]) -> Self {
        let entries = nets
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                (
                    n,
                    design.net_name(n).to_string(),
                    design.width(n),
                    idcode(i),
                )
            })
            .collect::<Vec<_>>();
        VcdWriter {
            module: design.name().to_string(),
            last: vec![None; entries.len()],
            nets: entries,
            changes: Vec::new(),
            time: 0,
        }
    }

    /// Samples the watched nets at the next time step.
    pub fn sample(&mut self, sim: &RtlSim) {
        let mut delta = Vec::new();
        for (i, (net, ..)) in self.nets.iter().enumerate() {
            let v = sim.get(*net).clone();
            if self.last[i].as_ref() != Some(&v) {
                self.last[i] = Some(v.clone());
                delta.push((i, v));
            }
        }
        if !delta.is_empty() {
            self.changes.push((self.time, delta));
        }
        self.time += 1;
    }

    /// Renders the collected samples as VCD text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date la1-rtl $end");
        let _ = writeln!(out, "$version la1-rtl vcd writer $end");
        let _ = writeln!(out, "$timescale 1ns $end");
        let _ = writeln!(out, "$scope module {} $end", self.module);
        for (_, name, width, code) in &self.nets {
            let clean = name.replace(['[', ']'], "_");
            let _ = writeln!(out, "$var wire {width} {code} {clean} $end");
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        for (t, delta) in &self.changes {
            let _ = writeln!(out, "#{t}");
            for (i, v) in delta {
                let (_, _, width, code) = &self.nets[*i];
                // a vector renders MSB first, one `01xz` character a bit
                if *width == 1 {
                    let _ = writeln!(out, "{v}{code}");
                } else {
                    let _ = writeln!(out, "b{v} {code}");
                }
            }
        }
        out
    }

    /// Number of change records collected so far.
    pub fn num_changes(&self) -> usize {
        self.changes.len()
    }
}

/// VCD identifier codes: printable ASCII 33..=126, multi-char when
/// needed.
fn idcode(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
        i -= 1;
    }
    s
}

#[cfg(test)]
mod vcd_tests {
    use super::*;
    use crate::netlist::Expr;

    #[test]
    fn vcd_structure_and_changes() {
        let mut n = Netlist::new("dut");
        let clk = n.input("clk", 1);
        let d = n.input("d", 4);
        let q = n.reg("q", 4);
        n.dff_posedge(clk, Expr::net(d), q);
        let mut sim = RtlSim::new(&n);
        let mut vcd = VcdWriter::new(&n, &[clk, d, q]);
        sim.set_u64(d, 0b1010);
        for i in 0..6u64 {
            sim.set_u64(clk, i % 2);
            sim.step();
            vcd.sample(&sim);
        }
        let text = vcd.render();
        assert!(text.contains("$scope module dut $end"));
        assert!(text.contains("$var wire 4"));
        assert!(text.contains("b1010 "));
        assert!(text.starts_with("$date"));
        assert!(vcd.num_changes() >= 3, "clock toggles recorded");
    }

    #[test]
    fn idcodes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let c = idcode(i);
            assert!(c.bytes().all(|b| (33..=126).contains(&b)));
            assert!(seen.insert(c));
        }
    }

    #[test]
    fn unchanged_values_are_not_dumped() {
        let mut n = Netlist::new("d2");
        let a = n.input("a", 1);
        let mut sim = RtlSim::new(&n);
        let mut vcd = VcdWriter::new(&n, &[a]);
        for _ in 0..5 {
            sim.step();
            vcd.sample(&sim);
        }
        // initial record only
        assert_eq!(vcd.num_changes(), 1);
    }
}

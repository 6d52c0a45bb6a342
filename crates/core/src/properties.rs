//! The PSL property suite of the LA-1 interface.
//!
//! The paper extracts the interface's properties "from both the sequence
//! diagrams and the class diagram" and verifies the *same* properties at
//! every level of the flow. Two variants are generated:
//!
//! * [`cycle_properties`] — sampled once per full clock cycle (at the
//!   rising edge of `K`), used by the ASM explorer and the SystemC
//!   monitors;
//! * [`rtl_properties`] — sampled once per clock *edge* (the
//!   granularity at which the extracted RTL transition system steps),
//!   used by the RuleBase-style model checker.
//!
//! Signal naming is uniform across levels: `rd{b}`, `wr{b}`, `dv{b}`,
//! `perr{b}`, `wdone{b}` at cycle level; `rd_v1_{b}`, `wr_v0_{b}`,
//! `dv_{b}`, `perr_{b}`, `wdone_{b}` at the RTL level.

use crate::spec::LaConfig;
use la1_psl::parse_directive;

/// The directive type every suite here is a list of.
pub use la1_psl::Directive;

/// The cycle-level property set for a `banks`-bank device.
///
/// Per bank `b`:
///
/// * `read_latency_{b}` — a read issued in cycle *n* produces valid
///   data exactly [`crate::spec::READ_LATENCY`] cycles later
///   (Fig. 3's reading-mode scenario);
/// * `no_spurious_dv_{b}` — data valid never appears without a read two
///   cycles earlier;
/// * `parity_{b}` — the output parity checker never fires;
/// * `write_commit_{b}` — a write issued in cycle *n* is committed to
///   the SRAM in cycle *n + 1*;
/// * `concurrent_rw_{b}` *(cover)* — concurrent read and write on the
///   same bank is exercised (a headline LA-1 feature).
///
/// # Panics
///
/// Panics only if the internally generated property text fails to
/// parse, which would be a bug in this crate.
pub fn cycle_properties(banks: u32) -> Vec<Directive> {
    let mut out = Vec::new();
    for b in 0..banks {
        out.push(dir(&format!(
            "assert read_latency_{b} : always {{rd{b}}} |=> next dv{b}"
        )));
        out.push(dir(&format!(
            "assert no_spurious_dv_{b} : never {{!rd{b} ; true ; dv{b}}}"
        )));
        out.push(dir(&format!("assert parity_{b} : always !perr{b}")));
        out.push(dir(&format!(
            "assert write_commit_{b} : always {{wr{b}}} |=> wdone{b}"
        )));
        out.push(dir(&format!(
            "cover concurrent_rw_{b} : eventually! {{rd{b} && wr{b}}}"
        )));
    }
    out
}

/// The property suite for a configuration, burst-aware: under the
/// LA-1B extension a read also produces a second data-valid cycle, and
/// the no-spurious check must look one cycle further back.
pub fn cycle_properties_for(config: &LaConfig) -> Vec<Directive> {
    if !config.is_burst() {
        return cycle_properties(config.banks);
    }
    let mut out = Vec::new();
    for b in 0..config.banks {
        out.push(dir(&format!(
            "assert read_latency_{b} : always {{rd{b}}} |=> next dv{b}"
        )));
        out.push(dir(&format!(
            "assert burst_second_beat_{b} : always {{rd{b}}} |=> next[2] dv{b}"
        )));
        out.push(dir(&format!(
            "assert no_spurious_dv_{b} : never {{!rd{b} ; !rd{b} ; true ; dv{b}}}"
        )));
        out.push(dir(&format!("assert parity_{b} : always !perr{b}")));
        out.push(dir(&format!(
            "assert write_commit_{b} : always {{wr{b}}} |=> wdone{b}"
        )));
    }
    out
}

/// Only the assert directives of [`cycle_properties`] (the explorer and
/// monitors treat covers separately in some harnesses).
pub fn cycle_asserts(banks: u32) -> Vec<Directive> {
    cycle_properties(banks)
        .into_iter()
        .filter(|d| d.kind == la1_psl::DirectiveKind::Assert)
        .collect()
}

/// The edge-level (RTL) property set for a `banks`-bank device.
///
/// Each extracted-transition-system step is one clock edge, so cycle
/// offsets double. Triggers use the interface's *pipeline registers*
/// (`rd_v1`, `wr_v0`) rather than raw inputs, making the properties
/// robust to arbitrary input wiggling between edges.
pub fn rtl_properties(banks: u32) -> Vec<Directive> {
    let mut out = Vec::new();
    for b in 0..banks {
        out.push(dir(&format!(
            "assert rtl_read_mode_{b} : always {{!rd_v1_{b} ; rd_v1_{b}}} |=> next[3] dv_{b}"
        )));
        out.push(dir(&format!(
            "assert rtl_write_mode_{b} : always {{!wr_v0_{b} ; wr_v0_{b}}} |=> next wdone_{b}"
        )));
        out.push(dir(&format!("assert rtl_parity_{b} : always !perr_{b}")));
    }
    if banks > 1 {
        out.push(dir("assert rtl_no_bus_conflict : always !dv_conflict"));
    }
    out
}

/// The paper's Table 2 subject: the read-mode property of bank 0 on an
/// N-bank device (the model grows with `banks`; the property does not).
pub fn rtl_read_mode_property() -> Directive {
    dir("assert read_mode : always {!rd_v1_0 ; rd_v1_0} |=> next[3] dv_0")
}

fn dir(src: &str) -> Directive {
    parse_directive(src).unwrap_or_else(|e| panic!("builtin property failed to parse: {e}: {src}"))
}

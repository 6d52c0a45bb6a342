//! Regenerates Table 3: average execution time per cycle of
//! assertion-based verification — SystemC + compiled PSL monitors vs
//! interpreted RTL + OVL monitor modules.
//!
//! Usage: `table3 [sc_cycles] [rtl_cycles] [--json <path>]
//! [--assert-ratio <min>]` — the optional JSON sidecar records one
//! machine-readable row object per bank count; `--assert-ratio` exits
//! non-zero unless every row's OVL/SystemC ratio is at least `min`
//! (the CI gate `scripts/check.sh` checks by exit code instead of
//! parsing JSON).

use la1_bench::{micros, table3_row, write_json, Table3Row};
use la1_core::json::Json;

fn json_row(row: &Table3Row) -> Json {
    Json::obj([
        ("banks", Json::num(row.banks as u64)),
        (
            "sc_ns_per_cycle",
            Json::fixed(row.delta_sc.as_secs_f64() * 1e9, 1),
        ),
        (
            "rtl_ns_per_cycle",
            Json::fixed(row.delta_ovl.as_secs_f64() * 1e9, 1),
        ),
        ("ratio", Json::fixed(row.ratio, 3)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<u64> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut assert_ratio: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--json" {
            json_path = Some(
                args.get(i + 1)
                    .expect("--json requires a path argument")
                    .clone(),
            );
            i += 2;
        } else if args[i] == "--assert-ratio" {
            assert_ratio = Some(
                args.get(i + 1)
                    .expect("--assert-ratio requires a value")
                    .parse()
                    .expect("ratio must be a number"),
            );
            i += 2;
        } else {
            positional.push(args[i].parse().expect("cycle counts must be integers"));
            i += 1;
        }
    }
    let sc_cycles = positional.first().copied().unwrap_or(4000);
    let rtl_cycles = positional.get(1).copied().unwrap_or(400);

    // warm up the allocator and code paths so row 1 is not penalized
    let _ = la1_bench::table3_row(1, sc_cycles / 4, rtl_cycles / 4);
    println!("Table 3. Simulation Results (avg execution time per cycle).");
    println!(
        "{:>6} | {:>16} | {:>16} | {:>14}",
        "Banks", "SystemC (us)", "OVL (us)", "Ratio OVL/SC"
    );
    println!("{}", "-".repeat(62));
    let mut rows = Vec::new();
    for banks in 1..=8 {
        let row = table3_row(banks, sc_cycles, rtl_cycles);
        println!(
            "{:>6} | {:>16} | {:>16} | {:>13.1}x",
            row.banks,
            micros(row.delta_sc),
            micros(row.delta_ovl),
            row.ratio
        );
        rows.push(row);
    }
    if let Some(path) = json_path {
        write_json(&path, rows.iter().map(json_row).collect(), &[]);
    }
    if let Some(min) = assert_ratio {
        let bad: Vec<&Table3Row> = rows.iter().filter(|r| r.ratio < min).collect();
        if !bad.is_empty() {
            for r in &bad {
                eprintln!(
                    "table3 ratio gate FAILED: {} banks: OVL/SystemC ratio {:.3} < {min}",
                    r.banks, r.ratio
                );
            }
            std::process::exit(1);
        }
        println!("table3 ratio gate: ok (all rows >= {min})");
    }
}

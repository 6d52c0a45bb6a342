//! Regenerates Table 1: model checking with the AsmL-style explorer.
//!
//! "CPU time required to verify all the interface properties combined
//! together"; nodes/transitions refer to the generated FSM (a bounded
//! portion, per the AsmL configuration).
//!
//! Usage: `table1 [depth] [--json <path>]` — the optional JSON sidecar
//! records one machine-readable row object per bank count.

use la1_bench::{secs, table1_row, write_json, Table1Row};
use la1_core::json::Json;

fn json_row(row: &Table1Row) -> Json {
    Json::obj([
        ("banks", Json::num(row.banks as u64)),
        ("nodes", Json::num(row.nodes as u64)),
        ("transitions", Json::num(row.transitions as u64)),
        ("cpu_ms", Json::fixed(row.cpu_time.as_secs_f64() * 1e3, 3)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut depth = 3usize;
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--json" {
            json_path = Some(
                args.get(i + 1)
                    .expect("--json requires a path argument")
                    .clone(),
            );
            i += 2;
        } else {
            depth = args[i].parse().expect("depth must be an integer");
            i += 1;
        }
    }

    println!("Table 1. Model Checking Using AsmL (exploration depth {depth} cycles).");
    println!(
        "{:>6} | {:>10} | {:>12} | {:>15} | {:>6}",
        "Banks", "CPU (s)", "FSM Nodes", "Transitions", "Props"
    );
    println!("{}", "-".repeat(64));
    let mut rows = Vec::new();
    for banks in 1..=4 {
        let row = table1_row(banks, depth);
        println!(
            "{:>6} | {:>10} | {:>12} | {:>15} | {:>6}",
            row.banks,
            secs(row.cpu_time),
            row.nodes,
            row.transitions,
            if row.all_pass { "pass" } else { "FAIL" }
        );
        rows.push(row);
    }
    if let Some(path) = json_path {
        write_json(&path, rows.iter().map(json_row).collect(), &[]);
    }
}

//! Raw simulation-kernel throughput: interpreted four-state RTL, one
//! pattern per run ([`LaRtlDriver`]) vs 64 patterns per pass through
//! the bit-parallel two-plane engine ([`LaRtlBatchDriver`]).
//!
//! Unlike `campaign --batched` and `closure --batched`, nothing
//! per-lane rides along here — no scoreboard, no OVL sampling, no
//! coverage observer — so the ratio isolates what PPSFP packing buys
//! on the compiled netlist evaluation itself. Both engines replay the
//! same pre-generated 64-lane stimulus and fold every visible output
//! (per-bank data, write-done) into a per-lane checksum; the checksums
//! must match lane-for-lane or the binary exits non-zero.
//!
//! Usage: `throughput [banks...] [--cycles N] [--seed N]
//! [--json <path>] [--assert-speedup X]`
//!
//! * `banks...` — bank counts to measure (default `1 2 4`);
//! * `--cycles` — cycles per lane (default 2000; the scalar side runs
//!   64 sequential passes of this length);
//! * `--assert-speedup X` — exit non-zero unless every row's batched
//!   engine is at least `X`× faster than the scalar engine.

use la1_bench::{write_json, BenchArgs, Gate};
use la1_core::json::Json;
use la1_core::rtl_model::{LaRtl, LaRtlBatchDriver, LaRtlDriver};
use la1_core::spec::{BankOp, LaConfig};
use la1_core::stimulus::stream_seed;
use la1_core::workloads::{RandomMix, Workload};
use std::time::Instant;

const LANES: usize = 64;

/// Folds one cycle's visible outputs for one lane into a checksum.
fn fold(h: u64, banks: u32, output: impl Fn(u32) -> Option<u64>, done: impl Fn(u32) -> bool) -> u64 {
    let mut h = h;
    for b in 0..banks {
        let v = output(b).map_or(0xA5A5_A5A5_A5A5_A5A5, |v| v ^ 1);
        h = h.rotate_left(7) ^ v ^ u64::from(done(b));
    }
    h
}

fn main() {
    let mut args = BenchArgs::parse();
    let cycles: u64 = args.value("--cycles", 2000);
    let seed: u64 = args.value("--seed", 1);
    let json_path: Option<String> = args.opt("--json");
    let assert_speedup: Option<f64> = args.opt("--assert-speedup");
    let banks_list = args.banks(&[1, 2, 4]);

    println!("Raw RTL kernel throughput: scalar vs 64-lane bit-parallel.");
    println!(
        "{:>6} | {:>14} | {:>14} | {:>8}",
        "Banks", "Scalar (ns/cy)", "Batched (ns/cy)", "Speedup"
    );
    println!("{}", "-".repeat(54));
    let mut jsons = Vec::new();
    let mut gate = Gate::new("throughput");
    for &banks in &banks_list {
        let config = LaConfig::new(banks);
        let design = LaRtl::build(&config, None);

        // Pre-generate the 64-lane stimulus so neither timed loop pays
        // for constrained-random generation.
        let stimulus: Vec<Vec<Vec<BankOp>>> = (0..cycles)
            .scan(
                (0..LANES)
                    .map(|l| RandomMix::new(&config, stream_seed(seed, l as u64), 0.7, 0.5))
                    .collect::<Vec<_>>(),
                |gens, _| Some(gens.iter_mut().map(|g| g.next_cycle()).collect()),
            )
            .collect();

        let mut scalar_sums = [0u64; LANES];
        let t0 = Instant::now();
        for (lane, sum) in scalar_sums.iter_mut().enumerate() {
            let mut driver = LaRtlDriver::new(&design);
            for row in &stimulus {
                driver.cycle(&row[lane]);
                *sum = fold(*sum, banks, |b| driver.bank_output(b), |b| driver.write_done(b));
            }
        }
        let scalar_elapsed = t0.elapsed().as_secs_f64();

        let mut batched_sums = [0u64; LANES];
        let t0 = Instant::now();
        let mut driver = LaRtlBatchDriver::new(&design);
        for row in &stimulus {
            let refs: Vec<&[BankOp]> = row.iter().map(Vec::as_slice).collect();
            driver.cycle(&refs);
            for (lane, sum) in batched_sums.iter_mut().enumerate() {
                *sum = fold(
                    *sum,
                    banks,
                    |b| driver.bank_output(lane, b),
                    |b| driver.write_done(lane, b),
                );
            }
        }
        let batched_elapsed = t0.elapsed().as_secs_f64();

        if scalar_sums != batched_sums {
            gate.fail(format!(
                "{banks} banks: batched output checksums diverged from scalar"
            ));
        }
        let lane_cycles = (cycles as f64) * (LANES as f64);
        let scalar_ns = scalar_elapsed * 1e9 / lane_cycles;
        let batched_ns = batched_elapsed * 1e9 / lane_cycles;
        let speedup = scalar_elapsed / batched_elapsed.max(1e-9);
        println!("{banks:>6} | {scalar_ns:>14.1} | {batched_ns:>15.1} | {speedup:>7.2}x");
        if let Some(floor) = assert_speedup {
            if speedup < floor {
                gate.fail(format!(
                    "{banks} banks: kernel speedup {speedup:.2}x below the {floor}x floor"
                ));
            }
        }
        jsons.push(Json::obj([
            ("banks", Json::num(banks as u64)),
            ("cycles", Json::num(cycles)),
            ("scalar_ns_per_lane_cycle", Json::fixed(scalar_ns, 1)),
            ("batched_ns_per_lane_cycle", Json::fixed(batched_ns, 1)),
            (
                "patterns_per_second",
                Json::fixed(lane_cycles / batched_elapsed.max(1e-9), 0),
            ),
            ("speedup", Json::fixed(speedup, 2)),
        ]));
    }
    if let Some(path) = json_path {
        write_json(&path, jsons, &[]);
    }
    gate.finish(assert_speedup.is_some());
}

//! Realistic NPU traffic through the transaction-level stimulus stack:
//! sustained lookup throughput per refinement level, with the
//! [`TransactionMonitor`] scoreboard as the correctness channel.
//!
//! Three workloads exercise the stack the way a network-processor
//! master would drive a real LA-1 device:
//!
//! * `contention` — several independent masters arbitrated round-robin
//!   by one driver; losing reads are delayed, never dropped;
//! * `qdr` — QDR-style sustained burst-read sweep on the LA-1B
//!   configuration, writes filling a fraction of the burst-gap cycles;
//! * `lookup` — seeded packet-lookup traffic: Zipf-distributed flow
//!   keys hashed onto the banks, bursty arrivals, sparse table updates.
//!
//! Every workload runs against each applicable model level (`asm`
//! skips the burst configuration; `systemc+psl` carries the PSL suite
//! and `rtl+ovl` the OVL suite, as in Table 3) plus the 64-lane
//! bit-parallel RTL engine; per-level transaction counters must agree exactly, every
//! lane and level must scoreboard clean, and the same streams are
//! scored through the tier-3 traffic coverage bins and three
//! monitor-channel fault detections.
//!
//! Usage: `traffic [banks...] [--cycles N] [--seed N] [--masters N]
//! [--json <path>] [--smoke]`
//!
//! * `banks...` — bank counts to run (default `1 2 4`);
//! * `--cycles` — cycles per workload run (default 4000);
//! * `--seed` — base seed (default 7); all streams derive from it with
//!   [`stream_seed`], so counters are byte-deterministic;
//! * `--masters` — masters in the contention workload (default 3);
//! * `--json` — write the machine-readable report to a file
//!   (throughput numbers ride along as perf fields);
//! * `--smoke` — gate mode for `scripts/check.sh`: banks default to
//!   `1 2`, cycles to 1500, and the binary additionally requires the
//!   contention workload to close every tier-3 traffic bin and the
//!   burst stream to hit every per-bank read-stream bin.
//!
//! Counter equality across levels, clean scoreboards, and the three
//! fault detections are asserted on every run, not only under
//! `--smoke`.

use la1_bench::{write_json, BenchArgs, Gate};
use la1_core::asm_model::LaAsmModel;
use la1_core::cycle_model::{BatchLaneModel, CycleModel, CycleObserver, RtlWithOvl};
use la1_core::harness::run_abv_observed;
use la1_core::json::Json;
use la1_core::rtl_model::{LaRtl, LaRtlBatchDriver, LaRtlDriver};
use la1_core::sc_model::LaSystemC;
use la1_core::spec::{BankOp, LaConfig};
use la1_core::stimulus::traffic::{contention, PacketStream, QdrStream};
use la1_core::stimulus::{stream_seed, Agent, TransactionMonitor};
use la1_core::workloads::Workload;
use la1_cover::{CoverageCollector, CoverageModel};
use la1_fault::{FaultModel, FaultPlan, Injector};
use std::time::Instant;

const LANES: usize = 64;

/// One traffic scenario: a name, the configuration it runs on, and a
/// factory producing a fresh deterministic workload for a stream seed.
struct Scenario {
    name: &'static str,
    cfg: LaConfig,
    make: Box<dyn Fn(u64) -> Box<dyn Workload>>,
}

fn scenarios(banks: u32, masters: usize) -> Vec<Scenario> {
    let la1 = LaConfig::new(banks);
    let la1b = LaConfig::la1b(banks);
    let c1 = la1.clone();
    let c2 = la1b.clone();
    let c3 = la1.clone();
    vec![
        Scenario {
            name: "contention",
            cfg: la1.clone(),
            make: Box::new(move |seed| Box::new(contention(&c1, seed, masters))),
        },
        Scenario {
            name: "qdr",
            cfg: la1b,
            make: Box::new(move |seed| Box::new(Agent::new(&c2, QdrStream::new(&c2, seed, 0.3)))),
        },
        Scenario {
            name: "lookup",
            cfg: la1.clone(),
            make: Box::new(move |seed| {
                Box::new(Agent::new(&c3, PacketStream::new(&c3, seed, 256, 1.1)))
            }),
        },
    ]
}

/// The transaction counters every level must reproduce exactly.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Counters {
    reads: u64,
    lookups: u64,
    writes_committed: u64,
}

fn counters(m: &TransactionMonitor) -> Counters {
    let s = m.stats();
    Counters {
        reads: s.reads_issued,
        lookups: s.lookups_completed,
        writes_committed: s.writes_committed,
    }
}

fn check_clean(gate: &mut Gate, label: &str, monitor: &TransactionMonitor, violations: usize) {
    let s = monitor.stats();
    if !s.clean() {
        gate.fail(format!(
            "{label}: scoreboard unclean (mismatch {}, missing_dv {}, spurious_dv {}, \
             missing_wdone {}, parity {})",
            s.data_mismatches, s.missing_dv, s.spurious_dv, s.missing_wdone, s.parity_errors
        ));
    }
    if violations != 0 {
        gate.fail(format!("{label}: {violations} assertion violations"));
    }
}

fn main() {
    let mut args = BenchArgs::parse();
    let seed: u64 = args.value("--seed", 7);
    let cycles_opt: Option<u64> = args.opt("--cycles");
    let masters: usize = args.value("--masters", 3);
    let json_path: Option<String> = args.opt("--json");
    let smoke = args.flag("--smoke");
    let banks_list = args.banks(if smoke { &[1, 2] } else { &[1, 2, 4] });
    let cycles = cycles_opt.unwrap_or(if smoke { 1500 } else { 4000 });

    println!("NPU traffic through the transaction-level stimulus stack.");
    println!(
        "{:>6} | {:>10} | {:>11} | {:>9} | {:>12}",
        "Banks", "Workload", "Level", "Lookups", "Lookups/s"
    );
    println!("{}", "-".repeat(61));

    let mut gate = Gate::new("traffic");
    let mut jsons = Vec::new();
    for &banks in &banks_list {
        let mut scenario_jsons = Vec::new();
        for sc in scenarios(banks, masters) {
            let cfg = &sc.cfg;
            let wseed = stream_seed(
                seed,
                match sc.name {
                    "contention" => 1,
                    "qdr" => 2,
                    _ => 3,
                },
            );

            // --- scalar levels, each scoreboarded by the monitor ---
            // the ASM level models the base LA-1 only; skip it on the
            // burst configuration
            let mut asm = (!cfg.is_burst()).then(|| LaAsmModel::new(cfg));
            // SystemC with its PSL suite beside RTL with its OVL suite:
            // Table 3's two monitored levels
            let mut systemc = LaSystemC::new(cfg);
            systemc.attach_default_monitors();
            let design = LaRtl::build(cfg, None);
            let mut rtl = LaRtlDriver::new(&design);
            let mut ovl = RtlWithOvl::new(&design);
            let mut levels: Vec<(&'static str, &mut dyn CycleModel)> = Vec::new();
            if let Some(asm) = asm.as_mut() {
                levels.push(("asm", asm));
            }
            levels.push(("systemc+psl", &mut systemc));
            levels.push(("rtl", &mut rtl));
            levels.push(("rtl+ovl", &mut ovl));

            let mut reference: Option<Counters> = None;
            let mut level_jsons = Vec::new();
            for (level, model) in levels {
                let mut workload = (sc.make)(wseed);
                let mut monitor = TransactionMonitor::new(cfg);
                let stats = run_abv_observed(model, &mut *workload, cycles, &mut monitor);
                check_clean(
                    &mut gate,
                    &format!("{banks} banks {}/{level}", sc.name),
                    &monitor,
                    stats.violations,
                );
                let c = counters(&monitor);
                match reference {
                    None => reference = Some(c),
                    Some(r) if r != c => gate.fail(format!(
                        "{banks} banks {}: {level} counters {c:?} diverge from {r:?}",
                        sc.name
                    )),
                    Some(_) => {}
                }
                let lps = c.lookups as f64 / stats.elapsed.as_secs_f64().max(1e-9);
                println!(
                    "{banks:>6} | {:>10} | {level:>11} | {:>9} | {lps:>12.0}",
                    sc.name, c.lookups
                );
                level_jsons.push(Json::obj([
                    ("level", Json::str(level)),
                    ("lookups", Json::num(c.lookups)),
                    ("reads", Json::num(c.reads)),
                    ("writes_committed", Json::num(c.writes_committed)),
                    ("lookups_per_second", Json::fixed(lps, 0)),
                ]));
            }
            let reference = reference.expect("at least one level ran");

            // --- 64-lane bit-parallel RTL: timed bare, then one
            // monitored pass scoreboarding every lane ---
            let streams: Vec<Vec<Vec<BankOp>>> = (0..LANES)
                .map(|l| {
                    let mut w = (sc.make)(stream_seed(wseed, l as u64 + 1));
                    (0..cycles).map(|_| w.next_cycle()).collect()
                })
                .collect();
            let mut batch = LaRtlBatchDriver::new(&design);
            let t0 = Instant::now();
            for c in 0..cycles as usize {
                let refs: Vec<&[BankOp]> = streams.iter().map(|s| s[c].as_slice()).collect();
                batch.cycle(&refs);
            }
            let elapsed = t0.elapsed().as_secs_f64();

            let mut batch = LaRtlBatchDriver::new(&design);
            let mut monitors: Vec<TransactionMonitor> =
                (0..LANES).map(|_| TransactionMonitor::new(cfg)).collect();
            for c in 0..cycles as usize {
                let refs: Vec<&[BankOp]> = streams.iter().map(|s| s[c].as_slice()).collect();
                batch.cycle(&refs);
                for (lane, monitor) in monitors.iter_mut().enumerate() {
                    let mut view = BatchLaneModel::new(&mut batch, lane);
                    monitor.observe(&streams[lane][c], &mut view);
                }
            }
            let mut lookups = 0u64;
            for (lane, monitor) in monitors.iter().enumerate() {
                check_clean(
                    &mut gate,
                    &format!("{banks} banks {}/rtl x64 lane {lane}", sc.name),
                    monitor,
                    0,
                );
                lookups += monitor.stats().lookups_completed;
            }
            // lane 0 runs the scalar stream's sibling seed, so its
            // counters are checked for cleanliness above; the scalar
            // reference ties the levels together, the lane sum is the
            // batched throughput numerator
            let lps = lookups as f64 / elapsed.max(1e-9);
            println!(
                "{banks:>6} | {:>10} | {:>11} | {:>9} | {lps:>12.0}",
                sc.name, "rtl x64", lookups
            );
            level_jsons.push(Json::obj([
                ("level", Json::str("rtl x64")),
                ("lookups", Json::num(lookups)),
                ("lookups_per_second", Json::fixed(lps, 0)),
            ]));

            // --- tier-3 traffic coverage over the same stream ---
            let mut workload = (sc.make)(wseed);
            let mut systemc = LaSystemC::new(cfg);
            let mut collector = CoverageCollector::new(CoverageModel::la1_traffic(cfg));
            run_abv_observed(&mut systemc, &mut *workload, cycles, &mut collector);
            let hit = collector.hit_names();
            let unhit = collector.unhit();
            let total = hit.len() + unhit.len();
            println!(
                "{banks:>6} | {:>10} |    coverage | {:>5}/{:<3} | {:>12}",
                sc.name,
                hit.len(),
                total,
                ""
            );
            if smoke {
                let missing: Vec<String> = unhit
                    .iter()
                    .map(|b| b.name())
                    .filter(|n| n.starts_with("traffic_"))
                    .collect();
                let gated = match sc.name {
                    // the arbitrated masters must exercise every
                    // traffic cross bin on the base configuration
                    "contention" => !missing.is_empty(),
                    // the burst sweep must sustain min-spaced read
                    // streams on every bank
                    "qdr" => missing.iter().any(|n| n.starts_with("traffic_read_stream")),
                    _ => false,
                };
                if gated {
                    gate.fail(format!(
                        "{banks} banks {}: traffic bins unhit after {cycles} cycles: {missing:?}",
                        sc.name
                    ));
                }
            }

            scenario_jsons.push(Json::obj([
                ("workload", Json::str(sc.name)),
                ("reads", Json::num(reference.reads)),
                ("lookups", Json::num(reference.lookups)),
                ("writes_committed", Json::num(reference.writes_committed)),
                ("coverage_hit", Json::num(hit.len() as u64)),
                ("coverage_total", Json::num(total as u64)),
                ("levels", Json::Arr(level_jsons)),
            ]));
        }

        // --- fault visibility through the monitor's channels: drive
        // the model with injected ops while the monitor observes the
        // intended ones, the transaction-level detection path. One-shot
        // faults can be masked (a rewrite repairing the flipped word
        // before any read lands on it), so each fault is activated at
        // several points of the stream and the detections summed ---
        let cfg = LaConfig::new(banks);
        let fault_cycles = cycles.max(2000);
        const FAULT_RUNS: u64 = 5;
        let mut fault_jsons = Vec::new();
        for (fault, channel) in [
            (FaultModel::DropReadStrobe, "missing_dv"),
            (FaultModel::DataBitFlip, "data_mismatches"),
            (FaultModel::StuckAt0WriteSel, "missing_wdone"),
        ] {
            let mut count = 0u64;
            let mut detected_runs = 0u64;
            for run in 0..FAULT_RUNS {
                let plan = FaultPlan {
                    model: fault,
                    activation: 20 + run * (fault_cycles - 40) / FAULT_RUNS,
                    bank: 0,
                    bit: 3,
                };
                let mut injector = Injector::new(plan);
                let mut model = LaSystemC::new(&cfg);
                let mut monitor = TransactionMonitor::new(&cfg);
                let mut workload = contention(&cfg, stream_seed(seed, 1), masters);
                for cycle in 0..fault_cycles {
                    let intended = workload.next_cycle();
                    let mut injected = intended.clone();
                    injector.apply(cycle, &cfg, &mut injected);
                    model.cycle(&injected);
                    monitor.observe(&intended, &mut model);
                }
                let s = monitor.stats();
                let run_count = match channel {
                    "missing_dv" => s.missing_dv,
                    "data_mismatches" => s.data_mismatches,
                    _ => s.missing_wdone,
                };
                count += run_count;
                detected_runs += u64::from(run_count > 0);
            }
            println!(
                "{banks:>6} | fault: {:<22} -> {channel} = {count} ({detected_runs}/{FAULT_RUNS} runs)",
                fault.name()
            );
            if count == 0 {
                gate.fail(format!(
                    "{banks} banks: {} invisible on monitor channel {channel} \
                     over {FAULT_RUNS} activations x {fault_cycles} cycles",
                    fault.name()
                ));
            }
            fault_jsons.push(Json::obj([
                ("fault", Json::str(fault.name())),
                ("channel", Json::str(channel)),
                ("count", Json::num(count)),
                ("detected_runs", Json::num(detected_runs)),
                ("runs", Json::num(FAULT_RUNS)),
            ]));
        }

        jsons.push(Json::obj([
            ("banks", Json::num(banks as u64)),
            ("cycles", Json::num(cycles)),
            ("workloads", Json::Arr(scenario_jsons)),
            ("faults", Json::Arr(fault_jsons)),
        ]));
    }

    if let Some(path) = json_path {
        write_json(&path, jsons, &["workloads", "faults"]);
    }
    gate.finish(true);
}

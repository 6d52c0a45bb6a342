use crate::closure::{run_closure, ClosureConfig};
use crate::collect::CoverageCollector;
use crate::guided::GuidedMix;
use crate::model::{BinKind, CoverageModel};
use crate::multi::{run_closure_rtl, run_closure_rtl_batched};
use la1_core::asm_model::LaAsmModel;
use la1_core::cycle_model::{co_execute_observed, CycleModel, CycleObserver, RtlWithOvl};
use la1_core::harness::run_abv_observed;
use la1_core::rtl_model::{LaRtl, LaRtlDriver};
use la1_core::sc_model::LaSystemC;
use la1_core::spec::{BankOp, LaConfig};
use la1_core::stimulus::traffic::{contention, QdrStream};
use la1_core::stimulus::Agent;
use la1_core::workloads::{RandomMix, Workload};
use la1_rtl::{BatchedRtlSim, RtlSim};

/// A small, fast configuration: full protocol, few words.
fn small_cfg(banks: u32) -> LaConfig {
    LaConfig {
        words_per_bank: 8,
        ..LaConfig::new(banks)
    }
}

fn small_burst_cfg(banks: u32) -> LaConfig {
    LaConfig {
        words_per_bank: 8,
        ..LaConfig::la1b(banks)
    }
}

fn small_closure(config: LaConfig, seed: u64) -> ClosureConfig {
    ClosureConfig {
        budget: 60_000,
        epoch: 200,
        ..ClosureConfig::new(config, seed)
    }
}

// ---- coverage model ---------------------------------------------------------

#[test]
fn bin_counts_scale_with_banks() {
    // per bank: 19 base bins (+1 rw-cross when banks > 1), plus one
    // bank-boundary bin per adjacent pair and one global idle bin
    assert_eq!(CoverageModel::la1(&small_cfg(1)).len(), 20);
    assert_eq!(CoverageModel::la1(&small_cfg(2)).len(), 2 * 20 + 1 + 1);
    assert_eq!(CoverageModel::la1(&small_cfg(4)).len(), 4 * 20 + 3 + 1);
}

#[test]
fn burst_config_adds_tier2_bins() {
    let base = CoverageModel::la1(&small_cfg(2));
    let burst = CoverageModel::la1(&small_burst_cfg(2));
    assert_eq!(base.len(), base.tier1_len(), "base config is all tier 1");
    // two burst monitor bins per bank plus the global spacing bin
    assert_eq!(burst.len(), base.len() + 2 * 2 + 1);
    assert_eq!(burst.tier1_len(), base.len());
    assert!(burst
        .bins()
        .iter()
        .any(|b| matches!(b.kind, BinKind::BurstMinSpacing)));
}

#[test]
fn bin_names_are_unique() {
    for cfg in [small_cfg(1), small_cfg(4), small_burst_cfg(2)] {
        let model = CoverageModel::la1(&cfg);
        let mut names: Vec<String> = model.bins().iter().map(|b| b.name()).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate bin names");
    }
}

// ---- collector --------------------------------------------------------------

/// Runs a scripted list of cycles through the SystemC level with a
/// collector attached and returns the hit bin names.
fn collect_script(cfg: &LaConfig, script: Vec<Vec<BankOp>>) -> Vec<String> {
    let mut collector = CoverageCollector::new(CoverageModel::la1(cfg));
    let mut sc = LaSystemC::new(cfg);
    let cycles = script.len() as u64;
    let mut iter = script.into_iter();
    let mut workload = move || iter.next().unwrap_or_default();
    run_abv_observed(&mut sc, &mut workload, cycles, &mut collector);
    collector.hit_names()
}

#[test]
fn directed_stimulus_hits_the_expected_bins() {
    let cfg = small_cfg(1);
    let full = (1u32 << cfg.byte_enables()) - 1;
    // write 5, read-after-write 5, drain the read, then idle
    let script = vec![
        vec![BankOp::write(0, 5, 0xAB, full)],
        vec![BankOp::read(0, 5)],
        vec![],
        vec![],
        vec![],
    ];
    let hit = collect_script(&cfg, script);
    for expected in [
        "op_read_0",
        "op_write_0",
        "seq_raw_0",
        "idle_cycle",
        "mon_write_commit_0_armed",
        "mon_write_commit_0_held",
        "mon_read_latency_0_armed",
        "mon_read_latency_0_held",
        "mon_parity_0_armed",
        "mon_parity_0_held",
    ] {
        assert!(hit.iter().any(|n| n == expected), "missing bin {expected}");
    }
    for absent in [
        "op_write_partial_0",
        "op_rw_same_0",
        "addr_read_lo_0",
        "seq_b2b_read_0",
        "seq_b2b_write_0",
    ] {
        assert!(!hit.iter().any(|n| n == absent), "unexpected bin {absent}");
    }
}

#[test]
fn address_corner_bins_fire_only_on_corners() {
    let cfg = small_cfg(1);
    let hi = cfg.words_per_bank as u64 - 1;
    let hit = collect_script(
        &cfg,
        vec![
            vec![BankOp::read(0, 0)],
            vec![BankOp::read(0, hi)],
            vec![BankOp::read(0, 3)],
        ],
    );
    assert!(hit.iter().any(|n| n == "addr_read_lo_0"));
    assert!(hit.iter().any(|n| n == "addr_read_hi_0"));
    assert!(hit.iter().any(|n| n == "seq_b2b_read_0"));
    assert!(!hit.iter().any(|n| n == "addr_write_lo_0"));
}

#[test]
fn bank_cross_bin_needs_the_boundary_sequence() {
    let cfg = small_cfg(2);
    let full = (1u32 << cfg.byte_enables()) - 1;
    let hi = cfg.words_per_bank as u64 - 1;
    let hit = collect_script(
        &cfg,
        vec![
            vec![BankOp::write(0, hi, 1, full)],
            vec![BankOp::write(1, 0, 2, full)],
        ],
    );
    assert!(hit.iter().any(|n| n == "bank_cross_0_1"));
    // the boundary the stimulus never crossed stays unhit
    let other = collect_script(
        &cfg,
        vec![
            vec![BankOp::write(0, hi, 1, full)],
            vec![BankOp::write(1, 1, 2, full)],
        ],
    );
    assert!(!other.iter().any(|n| n == "bank_cross_0_1"));
}

#[test]
fn collector_json_is_deterministic_and_complete() {
    let cfg = small_cfg(1);
    let run = || {
        let mut collector = CoverageCollector::new(CoverageModel::la1(&cfg));
        let mut sc = LaSystemC::new(&cfg);
        let mut mix = RandomMix::new(&cfg, 9, 0.5, 0.5);
        run_abv_observed(&mut sc, &mut mix, 300, &mut collector);
        collector.to_json()
    };
    let a = run();
    assert_eq!(a, run(), "coverage JSON must be byte-reproducible");
    assert!(a.contains("\"bins_total\": 20"));
}

// ---- cross-level coverage equivalence ---------------------------------------

/// The satellite equivalence check: the same workload must hit the
/// identical bin set at every refinement level; any difference is
/// reported with the offending bins.
fn assert_equivalent_coverage_with(
    cfg: &LaConfig,
    model: CoverageModel,
    workload: &mut dyn Workload,
    cycles: u64,
) -> Vec<String> {
    let mut asm = LaAsmModel::new(&LaConfig {
        burst_len: 1,
        ..cfg.clone()
    });
    let mut sc = LaSystemC::new(cfg);
    let rtl = LaRtl::build(cfg, None);
    let mut drv = LaRtlDriver::new(&rtl);
    let mut ovl = RtlWithOvl::new(&rtl);

    // the ASM level models base LA-1 only; on burst configurations the
    // comparable levels are SystemC, RTL and RTL+OVL
    let mut levels: Vec<&mut dyn CycleModel> = Vec::new();
    let mut names = Vec::new();
    if !cfg.is_burst() {
        levels.push(&mut asm);
        names.push("asm");
    }
    levels.push(&mut sc);
    levels.push(&mut drv);
    levels.push(&mut ovl);
    names.extend(["systemc", "rtl", "rtl+ovl"]);

    let mut collectors: Vec<CoverageCollector> = (0..levels.len())
        .map(|_| CoverageCollector::new(model.clone()))
        .collect();
    let mut observers: Vec<&mut dyn CycleObserver> = collectors
        .iter_mut()
        .map(|c| c as &mut dyn CycleObserver)
        .collect();

    co_execute_observed(cfg.banks, &mut levels, workload, cycles, &mut observers)
        .expect("levels must agree on pins before coverage is comparable");

    let reference = collectors[0].hit_names();
    for (i, c) in collectors.iter().enumerate().skip(1) {
        let other = c.hit_names();
        let missing: Vec<&String> = reference.iter().filter(|n| !other.contains(n)).collect();
        let extra: Vec<&String> = other.iter().filter(|n| !reference.contains(n)).collect();
        assert!(
            missing.is_empty() && extra.is_empty(),
            "coverage diverges between {} and {}: {} lacks {:?}, has extra {:?}",
            names[0],
            names[i],
            names[i],
            missing,
            extra,
        );
    }
    reference
}

fn assert_equivalent_coverage(cfg: &LaConfig, seed: u64, cycles: u64) {
    // the ASM level models full-word writes only
    let mut mix = RandomMix::full_word(cfg, seed, 0.5, 0.5);
    assert_equivalent_coverage_with(cfg, CoverageModel::la1(cfg), &mut mix, cycles);
}

#[test]
fn coverage_is_level_equivalent_one_bank() {
    assert_equivalent_coverage(&small_cfg(1), 21, 400);
}

#[test]
fn coverage_is_level_equivalent_two_banks() {
    assert_equivalent_coverage(&small_cfg(2), 22, 400);
}

#[test]
fn coverage_is_level_equivalent_four_banks() {
    assert_equivalent_coverage(&small_cfg(4), 23, 400);
}

// ---- traffic cross bins (tier 3) --------------------------------------------

#[test]
fn traffic_model_bin_counts_are_pinned() {
    // three per-bank cross bins, plus the global pipe-full bin on
    // non-burst configurations (consecutive reads are illegal on LA-1B)
    assert_eq!(CoverageModel::la1_traffic(&small_cfg(1)).len(), 20 + 3 + 1);
    assert_eq!(CoverageModel::la1_traffic(&small_cfg(2)).len(), 42 + 6 + 1);
    assert_eq!(CoverageModel::la1_traffic(&small_cfg(4)).len(), 84 + 12 + 1);
    for banks in [1, 2, 4] {
        let base = CoverageModel::la1(&small_burst_cfg(banks));
        let traffic = CoverageModel::la1_traffic(&small_burst_cfg(banks));
        assert_eq!(traffic.len(), base.len() + 3 * banks as usize);
        assert_eq!(
            traffic.bins().iter().filter(|b| b.tier() == 3).count(),
            3 * banks as usize
        );
        // the read-stream window (2 * burst_len) outgrows the burst
        // second-beat window the base model needs
        assert_eq!(traffic.lookback(), 4);
        assert_eq!(base.lookback(), 3);
    }
    // the default model must not grow: closure and campaign reports
    // are byte-pinned against it
    assert!(CoverageModel::la1(&small_cfg(2))
        .bins()
        .iter()
        .all(|b| b.tier() < 3));
}

#[test]
fn traffic_bins_level_equivalent_under_contention() {
    let cfg = small_cfg(2);
    let mut workload = contention(&cfg, 0x007A_FF1C, 3);
    let hit =
        assert_equivalent_coverage_with(&cfg, CoverageModel::la1_traffic(&cfg), &mut workload, 800);
    // contention is what the tier-3 bins exist for: all of them close
    for name in [
        "traffic_pipe_full",
        "traffic_read_stream_0",
        "traffic_read_stream_1",
        "traffic_write_stream_0",
        "traffic_write_stream_1",
        "traffic_rw_turnaround_0",
        "traffic_rw_turnaround_1",
    ] {
        assert!(hit.iter().any(|h| h == name), "contention must hit {name}");
    }
}

#[test]
fn traffic_bins_level_equivalent_under_burst_stream() {
    let cfg = small_burst_cfg(2);
    let mut agent = Agent::new(&cfg, QdrStream::new(&cfg, 0x007A_FF1D, 0.7));
    let hit =
        assert_equivalent_coverage_with(&cfg, CoverageModel::la1_traffic(&cfg), &mut agent, 600);
    // a QDR sweep is a sustained min-spaced lookup stream per bank
    for name in ["traffic_read_stream_0", "traffic_read_stream_1"] {
        assert!(hit.iter().any(|h| h == name), "qdr must hit {name}");
    }
}

// ---- guided generation and closure ------------------------------------------

#[test]
fn guided_stream_is_deterministic() {
    let cfg = small_cfg(2);
    let stream = |seed: u64| {
        let mut g = GuidedMix::new(&cfg, seed, 0.4, 0.4);
        let model = CoverageModel::la1(&cfg);
        g.retarget(model.bins());
        let mut agent = Agent::new(&cfg, g);
        (0..300).map(|_| agent.next_cycle()).collect::<Vec<_>>()
    };
    assert_eq!(stream(7), stream(7), "same seed, same stream");
    assert_ne!(stream(7), stream(8), "different seeds diverge");
}

#[test]
fn closure_report_is_byte_reproducible() {
    let cfg = small_closure(small_cfg(2), 3);
    let a = run_closure(&cfg, true).to_json();
    let b = run_closure(&cfg, true).to_json();
    assert_eq!(a, b);
}

#[test]
fn guided_closure_reaches_full_coverage() {
    for banks in [1, 2] {
        let report = run_closure(&small_closure(small_cfg(banks), 1), true);
        assert!(
            report.closed,
            "guided closure must reach 100% at {banks} bank(s); unhit: {:?}",
            report.unhit
        );
        assert_eq!(report.bins_hit, report.bins_total);
    }
}

#[test]
fn guided_closes_faster_than_random() {
    let cfg = small_closure(small_cfg(2), 1);
    let guided = run_closure(&cfg, true);
    let random = run_closure(&cfg, false);
    assert!(guided.closed);
    let guided_cycles = guided.cycles_to_closure.expect("closed");
    // a random run that never closed is censored at the budget
    let random_cycles = random.cycles_to_closure.unwrap_or(cfg.budget);
    assert!(
        guided_cycles < random_cycles,
        "guided {guided_cycles} vs random {random_cycles}"
    );
}

#[test]
fn guided_closure_covers_burst_bins() {
    let report = run_closure(&small_closure(small_burst_cfg(1), 1), true);
    assert!(
        report.closed,
        "burst closure must cover tier-2 bins; unhit: {:?}",
        report.unhit
    );
    assert!(report.burst);
    assert!(report.bins_total > report.tier1_total);
}

#[test]
fn guided_respects_burst_spacing() {
    let cfg = small_burst_cfg(2);
    let mut g = GuidedMix::new(&cfg, 11, 0.7, 0.5);
    let model = CoverageModel::la1(&cfg);
    g.retarget(model.bins());
    let mut agent = Agent::new(&cfg, g);
    let mut last_read: Option<u64> = None;
    for cycle in 0..2_000u64 {
        let ops = agent.next_cycle();
        assert!(ops.iter().filter(|o| o.is_read()).count() <= 1);
        assert!(ops.iter().filter(|o| !o.is_read()).count() <= 1);
        if ops.iter().any(BankOp::is_read) {
            if let Some(prev) = last_read {
                assert!(
                    cycle - prev >= cfg.burst_len as u64,
                    "read at {cycle} violates burst spacing (previous at {prev})"
                );
            }
            last_read = Some(cycle);
        }
    }
}

// ---- multi-stream RTL closure (scalar vs bit-parallel) ----------------------

#[test]
fn batched_closure_matches_scalar_byte_for_byte() {
    // Plain LA-1 at 1 and 2 banks, guided and random, plus an LA-1B
    // burst configuration and more streams than one driver has lanes —
    // in every case the 64-lane bit-parallel runner must reproduce the
    // sequential multi-driver reference's report byte for byte.
    let cases = [
        (small_cfg(1), 5u64, true, 8u32),
        (small_cfg(2), 7, true, 16),
        (small_cfg(2), 7, false, 16),
        (small_burst_cfg(1), 9, true, 8),
        (small_cfg(1), 11, true, 70),
    ];
    for (config, seed, guided, streams) in cases {
        let banks = config.banks;
        let cfg = ClosureConfig {
            budget: 4_000,
            epoch: 250,
            ..ClosureConfig::new(config, seed)
        };
        let scalar = run_closure_rtl(&cfg, guided, streams);
        let batched = run_closure_rtl_batched(&cfg, guided, streams);
        assert_eq!(
            scalar.to_json(),
            batched.to_json(),
            "batched multi-stream closure diverged at {banks} bank(s), \
             guided={guided}, streams={streams}"
        );
    }
}

#[test]
fn multi_stream_merge_equals_sequential_union() {
    // The merged bin set is exactly the union of what the same streams
    // hit when run individually (streams share nothing but guidance,
    // and with guidance off they share nothing at all).
    let cfg = ClosureConfig {
        budget: 2_000,
        epoch: 250,
        ..ClosureConfig::new(small_cfg(2), 13)
    };
    let streams = 6u32;
    let merged = run_closure_rtl(&cfg, false, streams);
    let model = CoverageModel::la1(&cfg.config);
    let mut union = vec![false; model.len()];
    for i in 0..streams {
        let single = ClosureConfig {
            seed: multi_stream_seed(cfg.seed, i as u64),
            ..cfg.clone()
        };
        // replay stream i alone for exactly as many cycles as the
        // merged run gave it (it may have closed before the budget)
        let one = run_closure_rtl_single_raw(&single, &model, merged.cycles_run);
        for (u, h) in union.iter_mut().zip(one) {
            *u |= h;
        }
    }
    let merged_names: Vec<String> = model
        .bins()
        .iter()
        .zip(&union)
        .filter(|(_, &h)| !h)
        .map(|(b, _)| b.name())
        .collect();
    assert_eq!(merged.unhit, merged_names);
    assert_eq!(merged.bins_hit, union.iter().filter(|&&h| h).count());
}

/// Replays exactly one of the multi-run's streams: same derived seed,
/// same epoch-chunked schedule, no guidance. Returns per-bin hit flags.
fn run_closure_rtl_single_raw(
    cfg: &ClosureConfig,
    model: &CoverageModel,
    cycles: u64,
) -> Vec<bool> {
    let design = LaRtl::build(&cfg.config, None);
    let mut driver = LaRtlDriver::new(&design);
    let mut generator = RandomMix::new(&cfg.config, cfg.seed, cfg.read_prob, cfg.write_prob);
    let mut collector = CoverageCollector::new(model.clone());
    for _ in 0..cycles {
        let ops = generator.next_cycle();
        driver.cycle(&ops);
        collector.observe(&ops, &mut driver);
    }
    collector.hits().iter().map(|&h| h > 0).collect()
}

/// Mirrors `multi::stream_seed` so the union test can re-derive the
/// per-stream seeds (kept private in the module under test).
fn multi_stream_seed(base: u64, stream: u64) -> u64 {
    let mut z = base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z
}

#[test]
fn batched_closure_report_is_byte_reproducible() {
    let cfg = ClosureConfig {
        budget: 2_000,
        epoch: 250,
        ..ClosureConfig::new(small_cfg(1), 3)
    };
    let a = run_closure_rtl_batched(&cfg, true, 12).to_json();
    let b = run_closure_rtl_batched(&cfg, true, 12).to_json();
    assert_eq!(a, b);
}

// ---- mergeable bin statistics ------------------------------------------------

#[test]
fn bin_stats_merge_sums_hits_and_takes_earliest_first_hit() {
    let cfg = small_cfg(1);
    let run = |seed: u64| {
        let mut collector = CoverageCollector::new(CoverageModel::la1(&cfg));
        let mut sc = LaSystemC::new(&cfg);
        let mut mix = RandomMix::new(&cfg, seed, 0.5, 0.5);
        run_abv_observed(&mut sc, &mut mix, 400, &mut collector);
        collector.bin_stats()
    };
    let a = run(3);
    let b = run(4);
    let mut merged = a.clone();
    CoverageModel::merge_bins(&mut merged, &b);
    for (name, stat) in &merged {
        let sa = &a[name];
        let sb = &b[name];
        assert_eq!(stat.hits, sa.hits + sb.hits, "{name} hits must sum");
        let expected_first = match (sa.first_hit, sb.first_hit) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        };
        assert_eq!(
            stat.first_hit, expected_first,
            "{name} first hit must be the earliest"
        );
        assert_eq!(stat.tier, sa.tier);
    }
}

#[test]
fn multi_stream_report_carries_mergeable_bins() {
    let cfg = small_closure(small_cfg(1), 9);
    let report = run_closure_rtl_batched(&cfg, true, 4);
    assert_eq!(report.bins.len(), report.bins_total);
    // the mergeable map agrees with the report's own summary figures
    let hit = report.bins.values().filter(|s| s.hits > 0).count();
    assert_eq!(hit, report.bins_hit);
    let unhit: Vec<&String> = report
        .bins
        .iter()
        .filter(|(_, s)| s.hits == 0)
        .map(|(n, _)| n)
        .collect();
    assert_eq!(unhit.len(), report.unhit.len());
}

// ---- property-based checks (vendored proptest) -------------------------------

#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use crate::model::{BinStat, BinStats};
    use proptest::prelude::*;

    /// Arbitrary per-bin statistics over a small shared name universe,
    /// so generated shards overlap on some bins and miss others. Tier
    /// is a function of the name (as it is for real models).
    fn arb_bin_stats() -> impl Strategy<Value = BinStats> {
        prop::collection::vec((0usize..6, 0u64..50, any::<bool>(), 0u64..1_000), 0..6).prop_map(
            |entries| {
                let mut stats = BinStats::new();
                for (name_idx, hits, hit_at_all, first) in entries {
                    stats.insert(
                        format!("bin_{name_idx}"),
                        BinStat {
                            tier: (name_idx % 3) as u32 + 1,
                            hits: if hit_at_all { hits + 1 } else { 0 },
                            first_hit: hit_at_all.then_some(first),
                        },
                    );
                }
                stats
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Same seed ⇒ byte-identical guided op streams.
        #[test]
        fn guided_streams_replay(seed in 0u64..1_000, banks in 1u32..4) {
            let cfg = small_cfg(banks);
            let emit = |s: u64| {
                let mut g = GuidedMix::new(&cfg, s, 0.5, 0.5);
                let model = CoverageModel::la1(&cfg);
                g.retarget(model.bins());
                let mut agent = Agent::new(&cfg, g);
                (0..200).map(|_| agent.next_cycle()).collect::<Vec<_>>()
            };
            prop_assert_eq!(emit(seed), emit(seed));
        }

        /// merge_bins is commutative and associative on full stat maps
        /// (hit sums and first-hit minima both commute and associate).
        #[test]
        fn merge_bins_commutes_and_associates(
            a in arb_bin_stats(),
            b in arb_bin_stats(),
            c in arb_bin_stats(),
        ) {
            let mut ab = a.clone();
            CoverageModel::merge_bins(&mut ab, &b);
            let mut ba = b.clone();
            CoverageModel::merge_bins(&mut ba, &a);
            prop_assert_eq!(&ab, &ba);
            // (a ∪ b) ∪ c == a ∪ (b ∪ c)
            let mut abc = ab;
            CoverageModel::merge_bins(&mut abc, &c);
            let mut bc = b.clone();
            CoverageModel::merge_bins(&mut bc, &c);
            let mut a_bc = a.clone();
            CoverageModel::merge_bins(&mut a_bc, &bc);
            prop_assert_eq!(abc, a_bc);
        }

        /// On the coverage view — the covered bin set and the first-hit
        /// cycles — merging a shard into itself changes nothing: hit
        /// counts are additive volume counters, coverage is a union.
        #[test]
        fn merge_bins_is_idempotent_on_the_coverage_view(a in arb_bin_stats()) {
            let mut aa = a.clone();
            CoverageModel::merge_bins(&mut aa, &a);
            prop_assert_eq!(aa.len(), a.len());
            for (name, stat) in &a {
                let merged = &aa[name];
                prop_assert_eq!(merged.hits > 0, stat.hits > 0);
                prop_assert_eq!(merged.first_hit, stat.first_hit);
                prop_assert_eq!(merged.tier, stat.tier);
            }
        }

        /// Disjoint and overlapping shard families union to the same
        /// result as one sequential fold (merge == sequential union).
        #[test]
        fn merge_bins_equals_sequential_union(
            shards in prop::collection::vec(arb_bin_stats(), 1..5),
            keys in prop::collection::vec(any::<u64>(), 5),
        ) {
            let sequential = shards.iter().fold(BinStats::new(), |mut acc, s| {
                CoverageModel::merge_bins(&mut acc, s);
                acc
            });
            // fold again in a key-shuffled order
            let mut order: Vec<usize> = (0..shards.len()).collect();
            order.sort_by_key(|&i| keys[i]);
            let shuffled = order.iter().fold(BinStats::new(), |mut acc, &i| {
                CoverageModel::merge_bins(&mut acc, &shards[i]);
                acc
            });
            prop_assert_eq!(sequential, shuffled);
        }

        /// Every guided cycle respects the single address bus: at most
        /// one read and one write, addresses in range.
        #[test]
        fn guided_respects_single_address_bus(seed in 0u64..1_000, banks in 1u32..5) {
            let cfg = small_cfg(banks);
            let mut g = GuidedMix::new(&cfg, seed, 0.6, 0.6);
            let model = CoverageModel::la1(&cfg);
            g.retarget(model.bins());
            let mut agent = Agent::new(&cfg, g);
            for _ in 0..400 {
                let ops = agent.next_cycle();
                prop_assert!(ops.iter().filter(|o| o.is_read()).count() <= 1);
                prop_assert!(ops.iter().filter(|o| !o.is_read()).count() <= 1);
                for op in &ops {
                    prop_assert!(op.bank() < cfg.banks);
                    let addr = match *op {
                        BankOp::Read { addr, .. } | BankOp::Write { addr, .. } => addr,
                    };
                    prop_assert!(addr < cfg.words_per_bank as u64);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Golden stimulus streams (transaction-layer equivalence anchors)
// ---------------------------------------------------------------------------

/// Renders one stimulus cycle for the golden stream files.
fn render_cycle(ops: &[BankOp]) -> String {
    if ops.is_empty() {
        return "-".to_string();
    }
    ops.iter()
        .map(|op| match *op {
            BankOp::Read { bank, addr } => format!("R{bank}:{addr}"),
            BankOp::Write {
                bank,
                addr,
                data,
                byte_en,
            } => format!("W{bank}:{addr}:{data:016x}:{byte_en:x}"),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Compares `produced` against the committed golden file (or rewrites
/// it under `UPDATE_GOLDEN=1`).
fn check_golden(file: &str, produced: &str) {
    let path = format!("{}/golden/{}", env!("CARGO_MANIFEST_DIR"), file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, produced).expect("update golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read committed golden file");
    assert_eq!(
        produced, golden,
        "stimulus stream drifted from the committed golden \
         (crates/cover/golden/{file}); if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 cargo test -p la1-cover"
    );
}

/// The pinned guided-stream schedule: random warm-up, a full-model
/// retarget (directed plan, including delayed reads under LA-1B), a
/// mid-plan retarget back to empty (the plan — and any delayed read —
/// must be dropped), and a random tail.
fn guided_stream(cfg: &LaConfig, seed: u64) -> Vec<Vec<BankOp>> {
    let model = CoverageModel::la1(cfg);
    let mut agent = Agent::new(cfg, GuidedMix::new(cfg, seed, 0.45, 0.45));
    let mut out = Vec::new();
    for _ in 0..40 {
        out.push(agent.next_cycle());
    }
    // a retarget replaces the plan wholesale: any item delayed out of
    // the old plan is dropped with it (pending slot cancelled)
    agent.driver_mut().cancel_pending(0);
    agent.seq_mut().retarget(model.bins());
    for _ in 0..130 {
        out.push(agent.next_cycle());
    }
    agent.driver_mut().cancel_pending(0);
    agent.seq_mut().retarget(&[]);
    for _ in 0..30 {
        out.push(agent.next_cycle());
    }
    out
}

fn random_stream(cfg: &LaConfig, seed: u64, full_word: bool) -> Vec<Vec<BankOp>> {
    let mut w = if full_word {
        RandomMix::full_word(cfg, seed, 0.6, 0.45)
    } else {
        RandomMix::new(cfg, seed, 0.6, 0.45)
    };
    (0..150).map(|_| w.next_cycle()).collect()
}

#[test]
fn golden_guided_streams_byte_identical() {
    let mut out = String::new();
    for (label, cfg) in [
        ("la1_banks1", LaConfig::new(1)),
        ("la1_banks2", LaConfig::new(2)),
        ("la1_banks4", LaConfig::new(4)),
        ("la1b_banks1", LaConfig::la1b(1)),
        ("la1b_banks2", LaConfig::la1b(2)),
    ] {
        out.push_str(&format!("# {label} seed={}\n", 0xC0FF + cfg.banks as u64));
        for ops in guided_stream(&cfg, 0xC0FF + cfg.banks as u64) {
            out.push_str(&render_cycle(&ops));
            out.push('\n');
        }
    }
    check_golden("guided_streams.txt", &out);
}

#[test]
fn golden_randommix_streams_byte_identical() {
    let mut out = String::new();
    for (label, cfg, full) in [
        ("la1_banks1", LaConfig::new(1), false),
        ("la1_banks2", LaConfig::new(2), false),
        ("la1_banks4", LaConfig::new(4), false),
        ("la1_banks2_full_word", LaConfig::new(2), true),
    ] {
        out.push_str(&format!("# {label} seed={}\n", 0xAB + cfg.banks as u64));
        for ops in random_stream(&cfg, 0xAB + cfg.banks as u64, full) {
            out.push_str(&render_cycle(&ops));
            out.push('\n');
        }
    }
    check_golden("random_streams.txt", &out);
}

#[test]
fn golden_closure_reports_byte_identical() {
    let mut out = String::new();
    for (cfg, budget) in [(LaConfig::new(1), 4_000), (LaConfig::la1b(2), 6_000)] {
        let mut c = ClosureConfig::new(cfg, 7);
        c.budget = budget;
        c.epoch = 200;
        out.push_str(&run_closure(&c, true).to_json());
        out.push_str(&run_closure(&c, false).to_json());
    }
    let mut c = ClosureConfig::new(LaConfig::new(2), 7);
    c.budget = 1_200;
    c.epoch = 300;
    out.push_str(&run_closure_rtl_batched(&c, true, 8).to_json());
    check_golden("closure_reports.json", &out);
}

#[test]
fn golden_collector_and_staged_renderings_byte_identical() {
    let cfg = small_cfg(1);
    let mut collector = CoverageCollector::new(CoverageModel::la1(&cfg));
    let mut sc = LaSystemC::new(&cfg);
    let mut mix = RandomMix::new(&cfg, 9, 0.5, 0.5);
    run_abv_observed(&mut sc, &mut mix, 300, &mut collector);
    check_golden("collector_report.json", &collector.to_json());

    let mut staged = crate::staged::StagedConfig::new(small_cfg(2), 5);
    staged.guided = false;
    staged.closure.epoch = 20;
    staged.stage1_budget = 40;
    staged.streams = 2;
    staged.stream_budget = 20;
    let report = crate::staged::run_staged(&staged).expect("staged run");
    check_golden("staged_report.json", &report.to_json());

    // a guided stream checkpointed mid-plan
    staged.guided = true;
    let mut sc = LaSystemC::new(&staged.closure.config);
    let mut collector = CoverageCollector::new(CoverageModel::la1(&staged.closure.config));
    let mut generator =
        crate::closure::Generator::for_stream(&staged.closure, staged.guided, staged.closure.seed);
    run_abv_observed(&mut sc, &mut generator, 20, &mut collector);
    generator.retarget(&collector.unhit());
    run_abv_observed(&mut sc, &mut generator, 5, &mut collector);
    let ckpt =
        crate::staged::StageCheckpoint::capture(&staged, &sc, &collector, &generator).unwrap();
    check_golden("stage_checkpoint.jsonl", &ckpt.to_jsonl());
}

// ---- staged closure and warm-start preambles --------------------------------

/// Runs `run_closure`-style epochs straight through for `budget`
/// cycles and returns the final coverage fingerprint (hit counts plus
/// first-hit cycles) and the violation count — everything stream 0 of
/// a staged run must reproduce byte for byte.
fn straight_through(
    cfg: &crate::staged::StagedConfig,
    budget: u64,
) -> (Vec<u64>, Vec<Option<u64>>, usize) {
    let mut sc = LaSystemC::new(&cfg.closure.config);
    let mut collector = CoverageCollector::new(CoverageModel::la1(&cfg.closure.config));
    let mut generator =
        crate::closure::Generator::for_stream(&cfg.closure, cfg.guided, cfg.closure.seed);
    let mut run = 0u64;
    while run < budget && !collector.is_full() {
        if cfg.guided {
            generator.retarget(&collector.unhit());
        }
        let step = cfg.closure.epoch.min(budget - run);
        run_abv_observed(&mut sc, &mut generator, step, &mut collector);
        run += step;
    }
    (
        collector.hits().to_vec(),
        collector.first_hits().to_vec(),
        sc.violation_count(),
    )
}

#[test]
fn staged_stream_zero_is_byte_identical_to_straight_through() {
    let mut cfg = crate::staged::StagedConfig::new(small_cfg(2), 11);
    cfg.closure.epoch = 200;
    cfg.stage1_budget = 1_000; // epoch multiple, so boundaries align
    cfg.streams = 3;
    cfg.stream_budget = 2_000;
    let report = crate::staged::run_staged(&cfg).expect("staged run");
    assert_eq!(report.streams.len(), 3);
    assert_eq!(report.stage1_cycles, 1_000.min(report.stage1_cycles));

    // the straight-through reference stops at the same closure point
    let budget = report.stage1_cycles + report.streams[0].cycles_run;
    let (hits, first, _) = straight_through(&cfg, budget);
    let s0 = &report.streams[0];
    assert!(!s0.reseeded);
    assert_eq!(
        s0.bins_hit,
        hits.iter().filter(|&&h| h > 0).count(),
        "stream 0 must match the run that never checkpointed"
    );
    // the full counter state matters, not just the hit set: re-run the
    // staged flow and compare its stream-0 collector to the reference
    let parsed = {
        // reconstruct the checkpoint exactly as run_staged did
        let mut sc = LaSystemC::new(&cfg.closure.config);
        let mut collector = CoverageCollector::new(CoverageModel::la1(&cfg.closure.config));
        let mut generator =
            crate::closure::Generator::for_stream(&cfg.closure, cfg.guided, cfg.closure.seed);
        let mut run = 0u64;
        while run < cfg.stage1_budget && !collector.is_full() {
            if cfg.guided {
                generator.retarget(&collector.unhit());
            }
            let step = cfg.closure.epoch.min(cfg.stage1_budget - run);
            run_abv_observed(&mut sc, &mut generator, step, &mut collector);
            run += step;
        }
        let ckpt =
            crate::staged::StageCheckpoint::capture(&cfg, &sc, &collector, &generator).unwrap();
        crate::staged::StageCheckpoint::parse(&ckpt.to_jsonl()).unwrap()
    };
    let (mut sc, mut collector, mut generator) = parsed.restore(&cfg).unwrap();
    let mut run2 = 0u64;
    while run2 < cfg.stream_budget && !collector.is_full() {
        if cfg.guided {
            generator.retarget(&collector.unhit());
        }
        let step = cfg.closure.epoch.min(cfg.stream_budget - run2);
        run_abv_observed(&mut sc, &mut generator, step, &mut collector);
        run2 += step;
    }
    assert_eq!(collector.hits(), &hits[..], "hit counters diverged");
    assert_eq!(
        collector.first_hits(),
        &first[..],
        "first-hit cycles diverged"
    );
}

#[test]
fn stage_checkpoint_round_trips_and_rejects_corruption() {
    let mut cfg = crate::staged::StagedConfig::new(small_cfg(1), 5);
    cfg.closure.epoch = 100;
    cfg.stage1_budget = 300;
    let mut sc = LaSystemC::new(&cfg.closure.config);
    let mut collector = CoverageCollector::new(CoverageModel::la1(&cfg.closure.config));
    let mut generator =
        crate::closure::Generator::for_stream(&cfg.closure, cfg.guided, cfg.closure.seed);
    run_abv_observed(&mut sc, &mut generator, 300, &mut collector);
    let ckpt = crate::staged::StageCheckpoint::capture(&cfg, &sc, &collector, &generator).unwrap();
    let text = ckpt.to_jsonl();

    // byte-stable round trip
    let parsed = crate::staged::StageCheckpoint::parse(&text).unwrap();
    assert_eq!(parsed, ckpt);
    assert_eq!(parsed.to_jsonl(), text);

    // truncation at every byte boundary is a typed error, never a panic
    use la1_core::checkpoint::CheckpointError;
    for cut in 0..text.len() {
        let err = crate::staged::StageCheckpoint::parse(&text[..cut])
            .expect_err("every proper prefix must fail");
        assert!(
            matches!(
                err,
                CheckpointError::Truncated | CheckpointError::Malformed { .. }
            ),
            "prefix of {cut} bytes gave {err:?}"
        );
    }

    // wrong configuration refuses with a fingerprint mismatch
    let other = crate::staged::StagedConfig::new(small_cfg(2), 5);
    assert!(matches!(
        parsed.restore(&other),
        Err(CheckpointError::FingerprintMismatch { .. })
    ));
}

#[test]
fn warm_and_cold_preambles_close_identically() {
    let cfg = small_closure(small_cfg(2), 21);
    let cold = crate::multi::ClosurePreamble::record(&cfg.config, 77, 400);
    let warm = cold.clone().with_snapshots(&cfg.config).expect("snapshots");
    assert!(!cold.is_warm());
    assert!(warm.is_warm());

    let from_cold =
        crate::multi::run_closure_rtl_from::<RtlSim>(&cfg, true, 2, Some(&cold)).unwrap();
    let from_warm =
        crate::multi::run_closure_rtl_from::<RtlSim>(&cfg, true, 2, Some(&warm)).unwrap();
    assert_eq!(
        from_cold.to_json(),
        from_warm.to_json(),
        "restoring the preamble snapshot must equal replaying the trace"
    );
    assert_eq!(from_cold.bins, from_warm.bins);

    // the batched path, replaying the trace in every lane or restoring
    // the broadcast snapshot, agrees with the scalar path
    let batched_cold =
        crate::multi::run_closure_rtl_from::<BatchedRtlSim>(&cfg, true, 2, Some(&cold)).unwrap();
    let batched_warm =
        crate::multi::run_closure_rtl_from::<BatchedRtlSim>(&cfg, true, 2, Some(&warm)).unwrap();
    assert_eq!(batched_cold.to_json(), batched_warm.to_json());
    assert_eq!(batched_cold.bins, batched_warm.bins);
    assert_eq!(from_warm.to_json(), batched_warm.to_json());

    // a preamble for a different configuration refuses
    let foreign = crate::multi::ClosurePreamble::record(&small_cfg(4), 77, 50);
    assert!(crate::multi::run_closure_rtl_from::<RtlSim>(&cfg, true, 1, Some(&foreign)).is_err());
}

/// Snapshots of a trace recorded for another configuration are refused:
/// a trace of more banks than the design has, and a plain LA-1 trace
/// offered to the LA-1B design of the same bank count.
#[test]
fn with_snapshots_refuses_a_trace_of_another_configuration() {
    use crate::multi::ClosurePreamble;
    use la1_core::checkpoint::CheckpointError;
    for (recorded, target) in [
        (LaConfig::new(4), LaConfig::new(1)),
        (LaConfig::new(2), LaConfig::la1b(2)),
    ] {
        let result = ClosurePreamble::record(&recorded, 5, 200).with_snapshots(&target);
        assert!(
            matches!(result, Err(CheckpointError::FingerprintMismatch { .. })),
            "{} banks, burst {}: {result:?}",
            target.banks,
            target.burst_len
        );
    }
}

use crate::journal::{result_from_json, result_to_json};
use crate::{ChaosConfig, FarmPlan, Journal, JournalError, MergedReport, RunPolicy};
use la1_asm::ExploreConfig;
use la1_core::json::parse;
use la1_core::spec::LaConfig;
use la1_cover::{ClosureConfig, ClosurePreamble};
use la1_fault::{run_campaign, run_campaign_batched, CampaignConfig};
use std::path::PathBuf;

/// A small scalar campaign plan: 1 bank, one run per cell.
fn small_campaign_plan(jobs: usize, batched: bool) -> FarmPlan {
    let mut config = CampaignConfig::new(1, 17);
    config.runs_per_fault = 1;
    FarmPlan::Campaign {
        config,
        jobs,
        batched,
    }
}

/// A small closure plan on the batched RTL driver.
fn small_closure_plan(jobs: u32) -> FarmPlan {
    let mut cfg = ClosureConfig::new(LaConfig::new(1), 7);
    cfg.budget = 2_000;
    cfg.epoch = 200;
    FarmPlan::Closure {
        cfg,
        jobs,
        streams_per_job: 4,
        guided: true,
        batched: true,
        preamble: None,
    }
}

/// A unique scratch path for one test's journal.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("la1-farm-test-{}-{name}.jsonl", std::process::id()))
}

#[test]
fn campaign_farm_is_worker_count_invariant_and_matches_unsharded() {
    let plan = small_campaign_plan(3, false);
    let sequential = plan.run(1).to_json();
    let parallel = plan.run(4).to_json();
    assert_eq!(sequential, parallel, "worker count leaked into the report");
    let FarmPlan::Campaign { config, .. } = &plan else {
        unreachable!()
    };
    assert_eq!(
        sequential,
        run_campaign(config).to_json(),
        "farm merge diverged from the unsharded campaign"
    );
}

#[test]
fn batched_campaign_farm_matches_unsharded_batched() {
    let mut config = CampaignConfig::new(2, 29);
    config.runs_per_fault = 1;
    let plan = FarmPlan::Campaign {
        config: config.clone(),
        jobs: 4,
        batched: true,
    };
    let merged = plan.run(4).to_json();
    assert_eq!(
        merged,
        run_campaign_batched(&config).0.to_json(),
        "batched farm merge diverged from the unsharded batched campaign"
    );
}

#[test]
fn closure_farm_is_worker_count_invariant() {
    let plan = small_closure_plan(3);
    let sequential = plan.run(1).to_json();
    let parallel = plan.run(4).to_json();
    assert_eq!(sequential, parallel, "worker count leaked into the report");
    let report = plan.run(2);
    assert!(report.is_complete(), "clean run must not degrade");
    let MergedReport::Closure(report) = report.merged else {
        panic!("closure plan must produce a closure report")
    };
    assert_eq!(report.jobs, 3);
    assert!(
        report.lane_cycles > 0 && report.lane_cycles <= 3 * 4 * 2_000,
        "lane cycles out of range: {}",
        report.lane_cycles
    );
    assert!(report.bins_hit > 0, "stimulus hit no coverage at all");
}

#[test]
fn warm_started_closure_farm_matches_cold_and_pins_the_preamble() {
    // the same plan with the same preamble, cold (trace replay) vs
    // warm (snapshot restore): merged reports must be byte-identical
    let cold_preamble = ClosurePreamble::record(&LaConfig::new(1), 7, 300);
    let warm_preamble = cold_preamble
        .clone()
        .with_snapshots(&LaConfig::new(1))
        .expect("snapshotting a fresh preamble");
    let base = small_closure_plan(2);
    let with = |p: Option<&ClosurePreamble>| {
        let FarmPlan::Closure {
            cfg,
            jobs,
            streams_per_job,
            guided,
            batched,
            ..
        } = base.clone()
        else {
            unreachable!()
        };
        FarmPlan::Closure {
            cfg,
            jobs,
            streams_per_job,
            guided,
            batched,
            preamble: p.cloned().map(Box::new),
        }
    };
    let cold = with(Some(&cold_preamble));
    let warm = with(Some(&warm_preamble));
    let bare = with(None);
    assert_eq!(
        cold.run(2).to_json(),
        warm.run(2).to_json(),
        "warm restore must be byte-equivalent to cold replay"
    );
    // non-vacuousness: the warm snapshot really carries 300 cycles of
    // state distinct from a fresh driver (the coverage bins are
    // op-driven, so the *report* legitimately need not differ — the
    // cover crate's own differential tests pin the restored state)
    let design = la1_core::rtl_model::LaRtl::build(&LaConfig::new(1), None);
    let fresh =
        la1_core::checkpoint::Snapshot::of_rtl(&la1_core::rtl_model::LaRtlDriver::new(&design))
            .unwrap();
    let snap = warm_preamble.snapshot.as_ref().expect("warm path present");
    assert_eq!(snap.cycle, 300, "snapshot captured after the full preamble");
    assert_ne!(*snap, fresh, "preamble state must differ from reset state");

    // the preamble is pinned by the plan fingerprint: a journal from
    // the bare plan must not resume the warm-started one (and the two
    // preamble forms of the *same* traffic share one campaign)
    assert_ne!(bare.fingerprint(), warm.fingerprint());
    assert_ne!(cold.fingerprint(), warm.fingerprint());
    let path = scratch("warm-preamble");
    let mut journal = Journal::create(&path, &bare).unwrap();
    bare.run_with(
        1,
        &RunPolicy::default(),
        None,
        Some(&mut journal),
        |_, _, _| {},
    );
    drop(journal);
    let err = warm
        .resume(&path, 1, &RunPolicy::default(), None, |_, _, _| {})
        .unwrap_err();
    assert!(
        matches!(err, JournalError::PlanMismatch { .. }),
        "a bare-plan journal must not warm-resume: {err:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_stream_is_ordered_and_worker_count_invariant() {
    let plan = small_closure_plan(4);
    let capture = |workers: usize| {
        let mut records = Vec::new();
        plan.run_streaming(workers, |i, r| records.push((i, r.record(i))));
        records
    };
    let sequential = capture(1);
    let parallel = capture(4);
    assert_eq!(
        sequential.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
        (0..4).collect::<Vec<_>>(),
        "stream must emit in job-id order"
    );
    assert_eq!(sequential, parallel, "worker count leaked into the stream");
}

/// A small exploration sweep: 1 and 2 banks, depth-bounded.
fn small_explore_plan() -> FarmPlan {
    FarmPlan::Explore {
        configs: vec![LaConfig::mc_small(1), LaConfig::mc_small(2)],
        explore: ExploreConfig {
            max_depth: Some(3),
            max_states: 20_000,
            ..ExploreConfig::default()
        },
    }
}

#[test]
fn explore_farm_summarizes_each_config() {
    let plan = small_explore_plan();
    let sequential = plan.run(1);
    let parallel = plan.run(2);
    assert_eq!(sequential.to_json(), parallel.to_json());
    assert!(
        sequential.is_complete(),
        "structural budgets must not degrade the report"
    );
    let MergedReport::Explore(report) = sequential.merged else {
        panic!("explore plan must produce an explore report")
    };
    assert_eq!(report.runs.len(), 2);
    assert_eq!(report.runs[0].banks, 1);
    assert_eq!(report.runs[1].banks, 2);
    assert!(report.all_pass(), "LA-1 properties must hold within bounds");
    for run in &report.runs {
        assert!(run.states > 0);
        assert!(run.transitions as u64 > 0);
    }
}

// ---------------------------------------------------------------------
// fault tolerance

/// A result list missing its last job (a torn journal's lost tail) or
/// carrying one result too many merges into a degraded report naming
/// that job, for every plan kind; the merged body keeps what the
/// present results contribute.
#[test]
fn merge_spells_out_missing_and_surplus_results() {
    for plan in [
        small_campaign_plan(3, false),
        small_closure_plan(2),
        small_explore_plan(),
    ] {
        let kind = plan.expected_kind();
        let results = crate::run_jobs(&plan.jobs(), 2, |_, _| {});
        let n = results.len();
        assert_eq!(plan.job_count(), n, "{kind}");
        let full = plan.merge(&results);
        assert!(full.is_complete(), "{kind}");

        let short = plan.merge(&results[..n - 1]);
        assert!(
            !short.is_complete(),
            "{kind}: a missing job went unreported"
        );
        let gaps: Vec<(usize, &str)> = short
            .degraded
            .iter()
            .map(|d| (d.job, d.reason.as_str()))
            .collect();
        assert_eq!(gaps, [(n - 1, "missing: no result")], "{kind}");
        assert_ne!(short.to_json(), full.to_json(), "{kind}");

        let mut extra = results.clone();
        extra.push(results[0].clone());
        let surplus = plan.merge(&extra);
        assert_eq!(surplus.degraded.len(), 1, "{kind}");
        assert_eq!(surplus.degraded[0].job, n, "{kind}");
        assert_eq!(
            surplus.merged.json().render(),
            full.merged.json().render(),
            "{kind}: a surplus result was merged"
        );
    }
}

#[test]
fn chaos_with_retries_converges_to_the_clean_run() {
    let plan = small_campaign_plan(4, false);
    let clean = plan.run(1).to_json();
    let chaos = ChaosConfig::new(0xC4A0).plan(plan.jobs().len());
    assert_eq!(chaos.sites().len(), 3, "default chaos sabotages 3 jobs");
    let policy = RunPolicy {
        max_retries: 2,
        ..RunPolicy::default()
    };
    for workers in [1, 4] {
        let (report, stats) = plan.run_with(workers, &policy, Some(&chaos), None, |_, _, _| {});
        assert!(
            report.is_complete(),
            "retries must absorb every injected fault"
        );
        assert_eq!(
            report.to_json(),
            clean,
            "chaos + retries diverged from the clean run at {workers} workers"
        );
        // the delay site needs no retry; the panic and timeout sites
        // need exactly one each
        assert_eq!(stats.retried, 2, "unexpected retry count");
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.jobs_run, 4);
    }
}

#[test]
fn chaos_without_retries_degrades_instead_of_crashing() {
    let plan = small_campaign_plan(4, false);
    let chaos = ChaosConfig::new(0xC4A0).plan(plan.jobs().len());
    let (report, stats) = plan.run_with(2, &RunPolicy::default(), Some(&chaos), None, |_, _, _| {});
    // panic and timeout sites fail for good; the delay site still runs
    assert_eq!(stats.failed, 2);
    assert_eq!(report.degraded.len(), 2);
    assert!(!report.is_complete());
    let reasons = report
        .degraded
        .iter()
        .map(|d| d.reason.as_str())
        .collect::<Vec<_>>()
        .join("; ");
    assert!(reasons.contains("panic"), "missing panic entry: {reasons}");
    assert!(
        reasons.contains("timeout"),
        "missing timeout entry: {reasons}"
    );
    let json = report.to_json();
    assert!(
        json.contains("\"kind\": \"degraded-farm\""),
        "degraded report must be wrapped"
    );
    assert!(
        matches!(report.merged, MergedReport::Campaign(_)),
        "surviving shards must still merge"
    );
    // the degraded wrapper parses as JSON (the journal parser is the
    // reference reader)
    parse(json.trim_end()).expect("degraded report must be valid JSON");
}

#[test]
fn chaos_runs_are_worker_count_invariant() {
    let plan = small_campaign_plan(5, false);
    let chaos = ChaosConfig::new(7).plan(plan.jobs().len());
    let policy = RunPolicy::default(); // no retries: failures stay in the report
    let render = |workers| {
        plan.run_with(workers, &policy, Some(&chaos), None, |_, _, _| {})
            .0
            .to_json()
    };
    let sequential = render(1);
    assert_eq!(sequential, render(3), "degraded report depends on schedule");
    assert_eq!(sequential, render(8), "degraded report depends on schedule");
}

#[test]
fn backoff_is_deterministic_and_bounded() {
    let policy = RunPolicy {
        max_retries: 3,
        backoff_base_ms: 8,
        retry_seed: 42,
        ..RunPolicy::default()
    };
    for job in 0..4 {
        for attempt in 1..4 {
            let a = policy.backoff(job, attempt);
            assert_eq!(a, policy.backoff(job, attempt), "backoff must be pure");
            let base = 8u64 << (attempt - 1);
            assert!(
                (a.as_millis() as u64) >= base && (a.as_millis() as u64) < base + 8,
                "backoff out of range: {a:?} for attempt {attempt}"
            );
        }
    }
    let none = RunPolicy::default();
    assert!(none.backoff(0, 1).is_zero(), "zero base disables backoff");
}

// ---------------------------------------------------------------------
// write-ahead journal

#[test]
fn journal_results_roundtrip_exactly() {
    let plan = small_campaign_plan(2, false);
    for result in crate::run_jobs(&plan.jobs(), 1, |_, _| {}) {
        let line = result_to_json(&result);
        let back = result_from_json(&parse(&line).expect("journal payload must parse"))
            .expect("journal payload must deserialize");
        assert_eq!(
            format!("{back:?}"),
            format!("{result:?}"),
            "journal round-trip changed a campaign result"
        );
    }
    let failed = crate::JobResult::Failed {
        job: 7,
        reason: crate::FailReason::Panic("assert \"x\"\nfailed".to_string()),
    };
    let line = result_to_json(&failed);
    let back = result_from_json(&parse(&line).unwrap()).unwrap();
    assert_eq!(format!("{back:?}"), format!("{failed:?}"));
}

#[test]
fn resume_from_any_truncation_point_reproduces_the_run() {
    let plan = small_campaign_plan(4, false);
    let policy = RunPolicy::default();
    let path = scratch("truncate");
    let mut journal = Journal::create(&path, &plan).expect("create journal");
    let (clean, _) = plan.run_with(2, &policy, None, Some(&mut journal), |_, _, _| {});
    let clean = clean.to_json();
    let full = std::fs::read(&path).expect("read journal");
    let lines = full.split_inclusive(|&b| b == b'\n').collect::<Vec<_>>();
    assert_eq!(lines.len(), 5, "header + one line per job");

    // cut at every line boundary and in the middle of every line —
    // including inside the header
    let mut cuts = vec![0usize];
    let mut off = 0;
    for line in &lines {
        cuts.push(off + line.len() / 2);
        off += line.len();
        cuts.push(off);
    }
    for cut in cuts {
        std::fs::write(&path, &full[..cut]).expect("write truncated journal");
        let mut replayed_ids = Vec::new();
        let (report, stats) = plan
            .resume(&path, 2, &policy, None, |i, _, _| replayed_ids.push(i))
            .expect("resume must succeed on a truncated journal");
        assert_eq!(
            report.to_json(),
            clean,
            "resume from byte {cut} diverged from the clean run"
        );
        // whole lines survive; the torn tail is discarded and re-run
        let intact = lines
            .iter()
            .scan(0usize, |acc, l| {
                *acc += l.len();
                Some(*acc)
            })
            .filter(|&end| end <= cut)
            .count()
            .saturating_sub(1); // header line carries no result
        assert_eq!(stats.replayed, intact, "wrong replay count at byte {cut}");
        assert_eq!(
            stats.jobs_run,
            4 - intact,
            "resume re-ran a committed job at byte {cut}"
        );
        assert_eq!(
            replayed_ids,
            (0..4).collect::<Vec<_>>(),
            "emit order broken at byte {cut}"
        );
        // the journal was repaired in place: a second resume replays
        // everything and runs nothing
        let (_, again) = plan
            .resume(&path, 1, &policy, None, |_, _, _| {})
            .expect("second resume");
        assert_eq!(again.replayed, 4, "repaired journal must be complete");
        assert_eq!(again.jobs_run, 0);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journal_of_a_different_plan_is_rejected() {
    let plan = small_campaign_plan(3, false);
    let path = scratch("mismatch");
    let mut journal = Journal::create(&path, &plan).expect("create journal");
    plan.run_with(
        1,
        &RunPolicy::default(),
        None,
        Some(&mut journal),
        |_, _, _| {},
    );
    let other = small_campaign_plan(4, false); // same kind, different split
    match other.resume(&path, 1, &RunPolicy::default(), None, |_, _, _| {}) {
        Err(JournalError::PlanMismatch { .. }) => {}
        other => panic!("expected a plan mismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journaled_failures_replay_as_failures() {
    let plan = small_campaign_plan(4, false);
    let chaos = ChaosConfig::new(0xC4A0).plan(plan.jobs().len());
    let path = scratch("failures");
    let mut journal = Journal::create(&path, &plan).expect("create journal");
    let (degraded_run, _) = plan.run_with(
        1,
        &RunPolicy::default(),
        Some(&chaos),
        Some(&mut journal),
        |_, _, _| {},
    );
    assert!(!degraded_run.is_complete());
    // resume with no chaos: journaled failures replay verbatim rather
    // than being healed behind the report's back
    let (resumed, stats) = plan
        .resume(&path, 2, &RunPolicy::default(), None, |_, _, _| {})
        .expect("resume");
    assert_eq!(stats.replayed, 4);
    assert_eq!(stats.jobs_run, 0);
    assert_eq!(
        resumed.to_json(),
        degraded_run.to_json(),
        "a replayed failure must reproduce the degraded report"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journal_rejects_out_of_range_counts() {
    let plan = small_campaign_plan(2, false);
    let path = scratch("out-of-range");
    let mut journal = Journal::create(&path, &plan).expect("create journal");
    plan.run_with(
        1,
        &RunPolicy::default(),
        None,
        Some(&mut journal),
        |_, _, _| {},
    );
    drop(journal);
    let text = std::fs::read_to_string(&path).expect("read journal");
    let header_len = text.find('\n').expect("header line") + 1;
    let first_len = text[header_len..].find('\n').expect("first result line") + 1;
    let (header, rest) = text.split_at(header_len);
    let (first, tail) = rest.split_at(first_len);
    // 2^32 + 1 would wrap to 1 in a u32; the typed reader refuses it,
    // so the line counts as corrupt and nothing from it on replays
    for (from, to) in [
        ("\"runs\": 1,", "\"runs\": 4294967297,"),
        ("\"attempts\": 1,", "\"attempts\": 4294967297,"),
        ("\"banks\": 1,", "\"banks\": 4294967297,"),
    ] {
        assert!(first.contains(from), "first result lacks {from}");
        let patched = format!("{header}{}{tail}", first.replacen(from, to, 1));
        std::fs::write(&path, patched).expect("write patched journal");
        let recovered = crate::journal::load(&path, &plan).expect("header still matches");
        assert_eq!(recovered.results.len(), 0, "{to} was accepted");
        assert_eq!(recovered.valid_bytes, header_len as u64);
    }
    let _ = std::fs::remove_file(&path);
}

#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// The unsharded scalar reference, computed once.
    fn reference_json() -> &'static String {
        static REF: OnceLock<String> = OnceLock::new();
        REF.get_or_init(|| {
            let FarmPlan::Campaign { config, .. } = small_campaign_plan(1, false) else {
                unreachable!()
            };
            run_campaign(&config).to_json()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Any (job count, worker count) pair reproduces the unsharded
        /// campaign byte for byte.
        #[test]
        fn any_decomposition_and_worker_count_reproduces_the_campaign(
            jobs in 1usize..5,
            workers in 1usize..5,
        ) {
            let merged = small_campaign_plan(jobs, false).run(workers).to_json();
            prop_assert_eq!(merged, reference_json().clone());
        }

        /// Any chaos seed, at any worker count, converges to the
        /// unsharded campaign once retries cover the faulty attempts.
        #[test]
        fn any_chaos_seed_converges_once_retried(
            seed in any::<u64>(),
            jobs in 1usize..5,
            workers in 1usize..5,
        ) {
            let plan = small_campaign_plan(jobs, false);
            let chaos = ChaosConfig::new(seed).plan(plan.jobs().len());
            let policy = RunPolicy { max_retries: 2, ..RunPolicy::default() };
            let (report, stats) =
                plan.run_with(workers, &policy, Some(&chaos), None, |_, _, _| {});
            prop_assert!(report.is_complete());
            prop_assert_eq!(stats.failed, 0);
            prop_assert_eq!(report.to_json(), reference_json().clone());
        }

        /// A journal truncated at *any* byte offset resumes to the
        /// byte-identical report.
        #[test]
        fn any_truncation_offset_resumes_byte_identically(
            cut_permille in 0u64..1000,
            workers in 1usize..5,
        ) {
            let plan = small_campaign_plan(3, false);
            let policy = RunPolicy::default();
            let path = scratch(&format!("prop-{workers}-{cut_permille}"));
            let mut journal = Journal::create(&path, &plan).expect("create journal");
            let (clean, _) =
                plan.run_with(1, &policy, None, Some(&mut journal), |_, _, _| {});
            let full = std::fs::read(&path).expect("read journal");
            let cut = (full.len() as u64 * cut_permille / 1000) as usize;
            std::fs::write(&path, &full[..cut]).expect("truncate journal");
            let resumed = plan
                .resume(&path, workers, &policy, None, |_, _, _| {})
                .expect("resume")
                .0;
            let _ = std::fs::remove_file(&path);
            prop_assert_eq!(resumed.to_json(), clean.to_json());
        }
    }
}

// ---------------------------------------------------------------------
// byte-pinned renderings

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
        "rendering drifted from the committed golden (crates/farm/golden/{file}); \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1 cargo test -p la1-farm"
    );
}

/// Runs `plan` on one worker, optionally under the default chaos
/// campaign with no retries, journaling to a scratch file. Returns the
/// merged report, the journal text and the `--serve` records.
fn pinned_run(plan: &FarmPlan, chaos: bool, name: &str) -> (String, String, String) {
    let chaos = chaos.then(|| ChaosConfig::new(0xC4A0).plan(plan.jobs().len()));
    let path = scratch(name);
    let mut journal = Journal::create(&path, plan).expect("create journal");
    let mut records = String::new();
    let (report, _) = plan.run_with(
        1,
        &RunPolicy::default(),
        chaos.as_ref(),
        Some(&mut journal),
        |i, r, _| {
            records.push_str(&r.record(i));
            records.push('\n');
        },
    );
    drop(journal);
    let text = std::fs::read_to_string(&path).expect("read journal");
    let _ = std::fs::remove_file(&path);
    (report.to_json(), text, records)
}

#[test]
fn golden_farm_reports_journals_and_records_byte_identical() {
    let (mut reports, mut journals, mut records) = (String::new(), String::new(), String::new());
    for (plan, chaos, name) in [
        (small_campaign_plan(4, false), false, "golden-campaign"),
        (small_campaign_plan(4, false), true, "golden-campaign-chaos"),
        (small_closure_plan(4), false, "golden-closure"),
        (small_closure_plan(4), true, "golden-closure-chaos"),
        (small_explore_plan(), false, "golden-explore"),
    ] {
        let (report, journal, serve) = pinned_run(&plan, chaos, name);
        reports.push_str(&report);
        journals.push_str(&journal);
        records.push_str(&serve);
    }
    assert!(reports.contains("\"kind\": \"degraded-farm\""));
    assert!(journals.contains("\"kind\": \"failed\", \"job\""));
    check_golden("reports.json", &reports);
    check_golden("journals.jsonl", &journals);
    check_golden("serve_records.jsonl", &records);
}

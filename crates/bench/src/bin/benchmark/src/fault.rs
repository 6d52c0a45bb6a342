//! `fault_campaign`: the full fault campaign — every fault model at
//! every level it applies to — on the 64-lane engine, with per-lane
//! OVL probing and fault dropping, and no farm, journal or stimulus
//! stack around it.

use crate::harness::{Bench, Checks, Figure, Scale};
use crate::stats::fnv;
use crate::trace::Tracer;
use la1_fault::{
    run_campaign, run_campaign_batched, BatchStats, CampaignConfig, DetectionMatrix, Level,
};
use std::path::Path;
use std::time::Instant;

/// The campaign's state: its configuration and the last sample's
/// result.
pub struct Campaign {
    config: CampaignConfig,
    matrix: Option<DetectionMatrix>,
    json: String,
    stats: BatchStats,
    /// The first sample's report and stats; every later one must match.
    first: Option<(String, BatchStats)>,
}

/// `fault_campaign`: the set-up is the campaign configuration itself —
/// the engine builds its designs inside every run.
pub fn setup(seed: u64, scale: Scale, _tr: &mut Tracer, _scratch: &Path) -> Box<dyn Bench> {
    Box::new(Campaign {
        config: config(seed, scale),
        matrix: None,
        json: String::new(),
        stats: BatchStats::default(),
        first: None,
    })
}

fn config(seed: u64, scale: Scale) -> CampaignConfig {
    let (banks, runs) = match scale {
        Scale::Full => (4, 20),
        #[cfg(test)]
        Scale::Tiny => (1, 1),
    };
    let mut config = CampaignConfig::new(banks, seed);
    config.runs_per_fault = runs;
    config
}

/// Seeded runs a matrix accounts for: cells × runs plus the healthy
/// controls.
fn patterns(m: &DetectionMatrix) -> u64 {
    let runs: u64 = m
        .cells
        .values()
        .flat_map(|l| l.values())
        .map(|c| c.runs as u64)
        .sum();
    runs + m.healthy.len() as u64
}

fn level_span(level: Level) -> &'static str {
    match level {
        Level::Asm => "fault.level.asm",
        Level::SystemC => "fault.level.systemc",
        Level::Rtl => "fault.level.rtl",
        Level::RtlOvl => "fault.level.rtl_ovl",
    }
}

impl Bench for Campaign {
    fn sample(&mut self, tr: &mut Tracer) -> Vec<Figure> {
        let t = Instant::now();
        tr.enter("fault.run_campaign_batched", "fault");
        let (matrix, stats) = run_campaign_batched(&self.config);
        tr.exit();
        let secs = t.elapsed().as_secs_f64();
        tr.enter("fault.to_json", "fault");
        self.json = matrix.to_json();
        tr.exit();
        let figure = ("patterns_per_s", "1/s", patterns(&matrix) as f64 / secs);
        self.matrix = Some(matrix);
        self.stats = stats;
        vec![figure]
    }

    fn check(&mut self, checks: &mut Checks) {
        let m = self.matrix.as_ref().expect("checked after a sample");
        let first = self
            .first
            .get_or_insert_with(|| (self.json.clone(), self.stats.clone()));
        checks.check(self.json == first.0, || {
            "detection matrix differs between samples".into()
        });
        checks.eq("batch stats vs first sample", &self.stats, &first.1);
        for (level, ok) in &m.healthy {
            checks.check(*ok, || format!("healthy design hung at {level}"));
        }
        for fault in &self.config.faults {
            checks.check(m.detected_somewhere(*fault), || {
                format!("{} escaped every level", fault.name())
            });
        }
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let m = self.matrix.as_ref().expect("counted after a sample");
        vec![
            ("matrix_fnv", fnv(self.json.as_bytes())),
            ("patterns", patterns(m)),
            ("rtl_lane_runs", self.stats.rtl_lane_runs as u64),
            ("lanes_retired_early", self.stats.lanes_retired_early as u64),
            ("lane_cycles_saved", self.stats.lane_cycles_saved),
            ("groups", self.stats.groups as u64),
        ]
    }

    /// The batched matrix must equal the scalar engine's, byte for
    /// byte.
    fn verify_once(&mut self, checks: &mut Checks) {
        let scalar = run_campaign(&self.config).to_json();
        checks.check(scalar == self.json, || {
            "batched campaign matrix differs from run_campaign".into()
        });
    }

    /// One campaign per level, to split the campaign's time by level.
    fn probe(&mut self, tr: &mut Tracer) {
        for level in self.config.levels.clone() {
            let mut config = self.config.clone();
            config.levels = vec![level];
            tr.enter(level_span(level), "fault");
            run_campaign_batched(&config);
            tr.exit();
        }
    }

    fn layers(&self, tr: &Tracer, _wall_s: f64) -> Vec<(&'static str, f64)> {
        let level_s = |level| tr.total(level_span(level)).0 as f64 / 1e9;
        let render = crate::stats::Summary::of(&tr.durations("fault.to_json"));
        let s = &self.stats;
        vec![
            ("fault.level_s.asm", level_s(Level::Asm)),
            ("fault.level_s.systemc", level_s(Level::SystemC)),
            ("fault.level_s.rtl", level_s(Level::Rtl)),
            ("fault.level_s.rtl_ovl", level_s(Level::RtlOvl)),
            ("fault.lane_runs", s.rtl_lane_runs as f64),
            ("fault.lanes_dropped", s.lanes_retired_early as f64),
            ("fault.lane_cycles_saved", s.lane_cycles_saved as f64),
            (
                "fault.drop_ratio",
                s.lanes_retired_early as f64 / s.rtl_lane_runs.max(1) as f64,
            ),
            ("fault.render_ms", render.median / 1e6),
        ]
    }
}

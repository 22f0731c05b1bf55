//! Cross-day parity contract: the [`Tracker`](segugio_core::Tracker) —
//! which carries delta graphs, a rolling abuse index and a feature cache
//! from day to day — produces day reports bit-for-bit identical to the
//! from-scratch reference tracker in `tests/support` — across an 8-day
//! deployment, at every parallelism width, with the reference's graphs
//! built from spilled chunk runs, and under randomized churn scenarios
//! (DHCP lease churn, domain agility, heavier blacklist turnover).

mod support;

use segugio_core::{DayReport, SnapshotInput, TrackerConfig};
use segugio_traffic::{IspConfig, IspNetwork};
use support::Pipeline;

/// Runs a full multi-day deployment through `pipeline` and returns every
/// day's report.
///
/// Each call builds its own network from `cfg`; identical configs generate
/// identical traffic, so two runs are comparable input-for-input.
fn run(
    cfg: &IspConfig,
    days: usize,
    parallelism: Option<usize>,
    mut pipeline: Pipeline,
) -> Vec<DayReport> {
    let mut isp = IspNetwork::new(cfg.clone());
    isp.warm_up(16);
    let mut config = TrackerConfig {
        target_fpr: 0.02,
        ..TrackerConfig::default()
    };
    config.segugio.parallelism = parallelism;
    let mut reports = Vec::with_capacity(days);
    for _ in 0..days {
        let traffic = isp.next_day();
        let input = SnapshotInput {
            day: traffic.day,
            queries: &traffic.queries,
            resolutions: &traffic.resolutions,
            table: isp.table(),
            pdns: isp.pdns(),
            blacklist: isp.commercial_blacklist(),
            whitelist: isp.whitelist(),
            hidden: None,
        };
        let outcome = pipeline.process_day(&input, isp.activity(), &config);
        reports.push(
            outcome
                .report()
                .cloned()
                .expect("warmed-up fixture seeds both classes"),
        );
    }
    reports
}

/// The acceptance scenario: eight consecutive days, the reference at
/// width 1, and both the reference and the tracker at widths 1, 2, 4 and 8
/// matching it report-for-report.
#[test]
fn eight_day_reports_match_at_every_width() {
    let cfg = IspConfig::tiny(90);
    let reference = run(&cfg, 8, Some(1), Pipeline::oracle(None));
    assert!(
        reference.iter().any(|r| !r.new_detections.is_empty()),
        "reference run must detect something for the comparison to mean anything"
    );

    for width in [1usize, 2, 4, 8] {
        let oracle = run(&cfg, 8, Some(width), Pipeline::oracle(None));
        assert_eq!(
            oracle, reference,
            "reference reports diverged at width {width}"
        );
        let tracker = run(&cfg, 8, Some(width), Pipeline::tracker());
        assert_eq!(
            tracker, reference,
            "tracker reports diverged at width {width}"
        );
    }
}

/// The chunked (seal/spill/merge) CSR path is a drop-in replacement: a
/// tiny run capacity forces every reference day through spilled runs and
/// `DaySnapshot::build_from_runs`, and both that reference and the tracker
/// match the in-memory reference bit for bit.
#[test]
fn chunked_run_capacity_keeps_reports_identical() {
    let cfg = IspConfig::tiny(93);
    let reference = run(&cfg, 6, Some(1), Pipeline::oracle(None));
    assert!(
        reference.iter().any(|r| !r.new_detections.is_empty()),
        "reference run must detect something for the comparison to mean anything"
    );
    // ~8k queries/day at capacity 512 ⇒ a dozen-plus spilled runs per day.
    let chunked = run(&cfg, 6, Some(1), Pipeline::oracle(Some(512)));
    assert_eq!(chunked, reference, "chunked CSR path diverged");
    let tracker = run(&cfg, 6, Some(1), Pipeline::tracker());
    assert_eq!(
        tracker, chunked,
        "tracker diverged from the chunked reference"
    );
}

/// Randomized churn scenarios: heavy DHCP lease churn dilutes machine
/// identities day over day, maximum agility rotates control domains fast,
/// and aggressive blacklisting flips many domain labels between days —
/// each stresses a different layer of the delta path (graph merge, feature
/// cache, rolling abuse index).
#[test]
fn churn_scenarios_keep_paths_identical() {
    let scenarios: Vec<(&str, IspConfig)> = vec![
        (
            "dhcp-churn",
            IspConfig {
                dhcp_churn: 0.35,
                ..IspConfig::tiny(91)
            },
        ),
        (
            "agility-and-turnover",
            IspConfig {
                agility: 1.0,
                cnc_lifetime: (1, 3),
                blacklist_coverage: 0.95,
                blacklist_lag_mean: 1.0,
                ..IspConfig::tiny(92)
            },
        ),
    ];
    for (name, cfg) in scenarios {
        let reference = run(&cfg, 7, Some(1), Pipeline::oracle(None));
        let tracker = run(&cfg, 7, Some(1), Pipeline::tracker());
        assert_eq!(tracker, reference, "scenario `{name}` diverged");
    }
}

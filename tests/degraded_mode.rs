//! Chaos contract: multi-day deployments driven through the deterministic
//! fault injector complete without panics, degrade only where a fault
//! actually fired, and — with the injector disabled — are bit-for-bit
//! identical to the clean path. The tracker must also agree with the
//! from-scratch reference tracker in `tests/support` under every fault
//! schedule (the degraded-mode engine resets are part of the parity
//! contract).

mod support;

use segugio_core::{
    DayOutcome, DayReport, Degradation, SnapshotInput, Tracker, TrackerConfig, TrackerError,
};
use segugio_ingest::{IngestError, LogCollector, QuarantinePolicy};
use segugio_model::{Blacklist, Day};
use segugio_pdns::PassiveDns;
use segugio_traffic::{FaultConfig, FaultInjector, IspConfig, IspNetwork};
use support::Pipeline;

/// What happened to one generated day in a chaos deployment.
#[derive(Debug, Clone, PartialEq)]
enum ChaosDay {
    /// The day's traffic never arrived (tap outage).
    NeverDelivered(Day),
    /// The day reached the tracker; here is its outcome.
    Delivered(DayOutcome),
}

/// Runs a full deployment with per-day faults drawn from `faults`.
///
/// Identical `(cfg, faults)` pairs replay identical runs; with
/// [`FaultConfig::disabled`] the inputs equal the clean path exactly.
fn run_chaos(
    cfg: &IspConfig,
    days: usize,
    faults: FaultConfig,
    mut pipeline: Pipeline,
) -> Vec<ChaosDay> {
    let mut isp = IspNetwork::new(cfg.clone());
    isp.warm_up(16);
    let injector = FaultInjector::new(faults);
    let config = serial_config();
    let blank = PassiveDns::new();
    let mut outcomes = Vec::with_capacity(days);
    for _ in 0..days {
        let traffic = isp.next_day();
        let f = injector.faults_for(traffic.day);
        if f.drop_day {
            outcomes.push(ChaosDay::NeverDelivered(traffic.day));
            continue;
        }
        let delayed;
        let blacklist = if f.stale_blacklist {
            delayed = injector.delayed_blacklist(isp.commercial_blacklist(), traffic.day);
            &delayed
        } else {
            isp.commercial_blacklist()
        };
        let pdns = if f.blank_pdns { &blank } else { isp.pdns() };
        let input = SnapshotInput {
            day: traffic.day,
            queries: &traffic.queries,
            resolutions: &traffic.resolutions,
            table: isp.table(),
            pdns,
            blacklist,
            whitelist: isp.whitelist(),
            hidden: None,
        };
        outcomes.push(ChaosDay::Delivered(pipeline.process_day(
            &input,
            isp.activity(),
            &config,
        )));
    }
    outcomes
}

/// The tracker configuration every deployment in this suite runs with.
fn serial_config() -> TrackerConfig {
    let mut config = TrackerConfig {
        target_fpr: 0.02,
        ..TrackerConfig::default()
    };
    config.segugio.parallelism = Some(1);
    config
}

/// What one day of a scripted deployment is fed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feed {
    /// The network's own pDNS feed and blacklist.
    Healthy,
    /// A pDNS feed that has no records at all.
    BlankPdns,
    /// An empty blacklist: the day has no malware seeds.
    EmptyBlacklist,
    /// Both a blank pDNS feed and an empty blacklist.
    Outage,
}

/// Runs a deployment without the injector, one day per `schedule` entry,
/// and returns every day's outcome.
fn run_outcomes(
    cfg: &IspConfig,
    schedule: &[Feed],
    config: &TrackerConfig,
    mut pipeline: Pipeline,
) -> Vec<DayOutcome> {
    let mut isp = IspNetwork::new(cfg.clone());
    isp.warm_up(16);
    let empty_blacklist = Blacklist::new();
    let blank_pdns = PassiveDns::new();
    let mut outcomes = Vec::with_capacity(schedule.len());
    for &feed in schedule {
        let traffic = isp.next_day();
        let input = SnapshotInput {
            day: traffic.day,
            queries: &traffic.queries,
            resolutions: &traffic.resolutions,
            table: isp.table(),
            pdns: if matches!(feed, Feed::BlankPdns | Feed::Outage) {
                &blank_pdns
            } else {
                isp.pdns()
            },
            blacklist: if matches!(feed, Feed::EmptyBlacklist | Feed::Outage) {
                &empty_blacklist
            } else {
                isp.commercial_blacklist()
            },
            whitelist: isp.whitelist(),
            hidden: None,
        };
        outcomes.push(pipeline.process_day(&input, isp.activity(), config));
    }
    outcomes
}

/// [`run_outcomes`], where every day must complete: returns the reports.
fn run_schedule(
    cfg: &IspConfig,
    schedule: &[Feed],
    config: &TrackerConfig,
    pipeline: Pipeline,
) -> Vec<DayReport> {
    run_outcomes(cfg, schedule, config, pipeline)
        .into_iter()
        .map(|outcome| match outcome {
            DayOutcome::Processed(report) => report,
            DayOutcome::Skipped { day, error } => {
                panic!("{day} must complete under the health policy: {error}")
            }
        })
        .collect()
}

/// Chaos seeds used by this suite and by the CI `chaos` job. Keep at
/// least three.
const CHAOS_SEEDS: [u64; 3] = [101, 202, 303];

/// Ten chaotic days at every seed: no panics, every skip is typed, and the
/// tracker agrees with the reference tracker outcome-for-outcome under the
/// identical fault schedule.
#[test]
fn chaos_deployments_complete_at_every_seed() {
    let mut eventful_days = 0usize;
    for seed in CHAOS_SEEDS {
        let cfg = IspConfig::tiny(90);
        let tracker = run_chaos(&cfg, 10, FaultConfig::chaos(seed), Pipeline::tracker());
        let reference = run_chaos(&cfg, 10, FaultConfig::chaos(seed), Pipeline::oracle(None));
        assert_eq!(tracker.len(), 10);
        assert_eq!(
            tracker, reference,
            "tracker and reference diverged under chaos seed {seed}"
        );
        for day in &tracker {
            match day {
                ChaosDay::NeverDelivered(_) => eventful_days += 1,
                ChaosDay::Delivered(DayOutcome::Skipped { error, .. }) => {
                    assert!(
                        matches!(
                            error,
                            TrackerError::InsufficientSeeds { .. }
                                | TrackerError::NonMonotonicDay { .. }
                        ),
                        "unexpected skip reason under seed {seed}: {error}"
                    );
                    eventful_days += 1;
                }
                ChaosDay::Delivered(DayOutcome::Processed(report)) => {
                    eventful_days += usize::from(report.is_degraded());
                }
            }
        }
    }
    // The contract is only meaningful if chaos actually happened.
    assert!(
        eventful_days > 0,
        "no fault fired across {} seeds — the chaos config is inert",
        CHAOS_SEEDS.len()
    );
}

/// With the injector disabled the chaos harness is a pass-through: reports
/// are bit-for-bit identical to a deployment that never saw the injector.
#[test]
fn disabled_injector_is_bit_for_bit_clean() {
    let cfg = IspConfig::tiny(90);
    for oracle in [false, true] {
        let pipeline = || {
            if oracle {
                Pipeline::oracle(None)
            } else {
                Pipeline::tracker()
            }
        };
        let clean = run_schedule(&cfg, &[Feed::Healthy; 8], &serial_config(), pipeline());
        let chaos = run_chaos(&cfg, 8, FaultConfig::disabled(99), pipeline());
        let unwrapped: Vec<DayReport> = chaos
            .into_iter()
            .map(|day| match day {
                ChaosDay::Delivered(DayOutcome::Processed(report)) => report,
                other => panic!("disabled injector must deliver every day, got {other:?}"),
            })
            .collect();
        assert_eq!(unwrapped, clean, "oracle={oracle}");
        assert!(
            unwrapped.iter().all(|r| r.degradation.is_empty()),
            "no fallback may fire on clean inputs"
        );
    }
}

/// Monotonic degradation: days before the first fault are untouched by the
/// faults that come later — their reports equal the clean run's exactly.
#[test]
fn faults_do_not_reach_back_to_clean_days() {
    for seed in CHAOS_SEEDS {
        let cfg = IspConfig::tiny(90);
        let faults = FaultConfig::chaos(seed);
        let injector = FaultInjector::new(faults.clone());
        let clean = run_schedule(
            &cfg,
            &[Feed::Healthy; 10],
            &serial_config(),
            Pipeline::tracker(),
        );
        let chaos = run_chaos(&cfg, 10, faults, Pipeline::tracker());
        let first_fault = clean
            .iter()
            .position(|r| injector.faults_for(r.day).any())
            .unwrap_or(clean.len());
        for i in 0..first_fault {
            assert_eq!(
                ChaosDay::Delivered(DayOutcome::Processed(clean[i].clone())),
                chaos[i],
                "pre-fault day {i} diverged under seed {seed}"
            );
        }
    }
}

/// The acceptance scenario: a deployment with exactly one seedless day and
/// one pDNS-blank day completes end to end, and the reports record exactly
/// which fallback fired on which day.
#[test]
fn seedless_and_blank_pdns_days_fall_back_exactly_once_each() {
    const SEEDLESS: usize = 2;
    const BLANK: usize = 4;
    let cfg = IspConfig::tiny(90);
    let mut schedule = [Feed::Healthy; 7];
    schedule[SEEDLESS] = Feed::EmptyBlacklist;
    schedule[BLANK] = Feed::BlankPdns;

    let reports = run_schedule(&cfg, &schedule, &serial_config(), Pipeline::tracker());
    assert_eq!(reports.len(), 7, "the deployment completed end to end");
    for (i, report) in reports.iter().enumerate() {
        match i {
            SEEDLESS => assert_eq!(
                report.degradation,
                vec![Degradation::StaleModel {
                    trained_on: reports[SEEDLESS - 1].day
                }],
                "the seedless day is scored with yesterday's model"
            ),
            BLANK => assert_eq!(
                report.degradation,
                vec![Degradation::MaskedIpFeatures],
                "the blank-pDNS day trains on F1+F2"
            ),
            _ => assert!(
                report.degradation.is_empty(),
                "day {i} must not degrade: {:?}",
                report.degradation
            ),
        }
    }
    // The stale-model day reuses yesterday's calibrated threshold.
    assert_eq!(reports[SEEDLESS].threshold, reports[SEEDLESS - 1].threshold);

    // The engine resets around the blank day keep the tracker bit-for-bit
    // on the reference.
    assert_eq!(
        run_schedule(&cfg, &schedule, &serial_config(), Pipeline::oracle(None)),
        reports
    );
}

/// A blank-pDNS day between healthy days: the engine is reset before the
/// blank day, which runs as a cold start, and again after it, and every
/// report equals the reference's. With masking off the blank day trains on
/// all-empty abuse features, which a rolling index carried into the blank
/// window would not reproduce.
#[test]
fn blank_pdns_day_matches_reference_report_for_report() {
    let cfg = IspConfig::tiny(94);
    let schedule = [Feed::Healthy, Feed::BlankPdns, Feed::Healthy, Feed::Healthy];
    for mask in [true, false] {
        let mut config = serial_config();
        config.segugio.health.mask_ip_features_on_blank_pdns = mask;
        let reports = run_schedule(&cfg, &schedule, &config, Pipeline::tracker());
        let degradation: Vec<&[Degradation]> =
            reports.iter().map(|r| r.degradation.as_slice()).collect();
        let blank_day: &[Degradation] = if mask {
            &[Degradation::MaskedIpFeatures]
        } else {
            &[]
        };
        assert_eq!(
            degradation,
            [&[][..], blank_day, &[], &[]],
            "only the blank day may degrade (mask={mask})"
        );
        assert_eq!(
            run_schedule(&cfg, &schedule, &config, Pipeline::oracle(None)),
            reports,
            "mask={mask}"
        );
    }
}

/// A first day with neither pDNS records nor seeds is skipped (no model
/// is retained yet); the engine state its snapshot left behind must not
/// leak into the healthy days that follow.
#[test]
fn skipped_blank_pdns_day_matches_reference() {
    let cfg = IspConfig::tiny(94);
    let schedule = [Feed::Outage, Feed::Healthy, Feed::Healthy, Feed::Healthy];
    let config = serial_config();
    let outcomes = run_outcomes(&cfg, &schedule, &config, Pipeline::tracker());
    assert!(
        matches!(
            outcomes[0],
            DayOutcome::Skipped {
                error: TrackerError::InsufficientSeeds { .. },
                ..
            }
        ),
        "the outage day is skipped: {:?}",
        outcomes[0]
    );
    assert!(outcomes[1..].iter().all(|o| o.report().is_some()));
    assert_eq!(
        run_outcomes(&cfg, &schedule, &config, Pipeline::oracle(None)),
        outcomes
    );
}

/// A seedless day between healthy days: the tracker measures it through
/// the engine and scores the retained model on the measured rows, and
/// every report equals the reference's, which scores the one-shot way.
#[test]
fn stale_model_day_matches_reference_report_for_report() {
    let cfg = IspConfig::tiny(95);
    let schedule = [Feed::Healthy, Feed::EmptyBlacklist, Feed::Healthy];
    let reports = run_schedule(&cfg, &schedule, &serial_config(), Pipeline::tracker());
    let degradation: Vec<&[Degradation]> =
        reports.iter().map(|r| r.degradation.as_slice()).collect();
    assert_eq!(
        degradation,
        [
            &[][..],
            &[Degradation::StaleModel {
                trained_on: reports[0].day
            }],
            &[]
        ],
        "only the seedless day degrades"
    );
    assert_eq!(reports[1].threshold, reports[0].threshold);
    assert_eq!(
        run_schedule(&cfg, &schedule, &serial_config(), Pipeline::oracle(None)),
        reports
    );
}

/// Out-of-order delivery (the injector's day-swap fault) is rejected as a
/// typed skip and the tracker keeps going on the days that are in order.
#[test]
fn swapped_days_skip_typed_and_recover() {
    let cfg = IspConfig::tiny(90);
    let injector = FaultInjector::new(FaultConfig {
        swap_adjacent_days: 1.0,
        ..FaultConfig::disabled(4)
    });
    let mut isp = IspNetwork::new(cfg);
    isp.warm_up(16);
    let mut tracker = Tracker::new();
    let config = TrackerConfig {
        target_fpr: 0.02,
        ..TrackerConfig::default()
    };
    // Generate four days up front, then deliver in injector order:
    // 1,0,3,2 — each pair's second element arrives out of order.
    let traffic: Vec<_> = (0..4).map(|_| isp.next_day()).collect();
    let days: Vec<Day> = traffic.iter().map(|t| t.day).collect();
    let order = injector.delivery_order(&days);
    assert_ne!(order, days, "the fault must actually reorder");
    let mut processed = 0;
    let mut skipped = 0;
    for day in order {
        let t = traffic
            .iter()
            .find(|t| t.day == day)
            .expect("order is a permutation");
        let input = SnapshotInput {
            day: t.day,
            queries: &t.queries,
            resolutions: &t.resolutions,
            table: isp.table(),
            pdns: isp.pdns(),
            blacklist: isp.commercial_blacklist(),
            whitelist: isp.whitelist(),
            hidden: None,
        };
        match tracker.process_day_outcome(&input, isp.activity(), &config) {
            DayOutcome::Processed(_) => processed += 1,
            DayOutcome::Skipped { error, .. } => {
                assert!(matches!(error, TrackerError::NonMonotonicDay { .. }));
                skipped += 1;
            }
        }
    }
    // 1,0,3,2: days 1 and 3 process; 0 and 2 arrive late and are skipped.
    assert_eq!(processed, 2);
    assert_eq!(skipped, 2);
    assert_eq!(tracker.days_processed(), 2);
}

/// Line-level chaos drains into the quarantine layer: a corrupted export
/// either ingests with the damage counted by kind, or is rejected as a
/// whole with nothing committed — never a panic, never a half-poisoned
/// collector.
#[test]
fn corrupted_logs_quarantine_instead_of_poisoning() {
    let mut isp = IspNetwork::new(IspConfig::tiny(90));
    isp.warm_up(16);
    let traffic = isp.next_day();
    let text = segugio_ingest::export_day(
        isp.table(),
        traffic.day.0,
        &traffic.queries,
        &traffic.resolutions,
    );
    for seed in CHAOS_SEEDS {
        // Heavy line damage so both quarantine verdicts occur across seeds.
        let injector = FaultInjector::new(FaultConfig {
            corrupt_line: 0.2,
            truncate_line: 0.1,
            duplicate_line: 0.05,
            ..FaultConfig::disabled(seed)
        });
        let corrupted = injector.corrupt_log(traffic.day, &text);
        let mut collector = LogCollector::new();
        match collector.ingest_quarantined(corrupted.as_slice(), &QuarantinePolicy::default()) {
            Ok(stats) => {
                assert!(stats.ingested > 0, "seed {seed}: something must survive");
                assert!(
                    stats.errors() > 0,
                    "seed {seed}: this much damage must be visible in the stats"
                );
            }
            Err(IngestError::QuarantineExceeded {
                errors, considered, ..
            }) => {
                assert!(errors > 0 && considered >= errors);
                assert_eq!(
                    collector.machine_count(),
                    0,
                    "seed {seed}: rejection must commit nothing"
                );
            }
            Err(other) => panic!("seed {seed}: unexpected ingest error: {other}"),
        }
    }
}

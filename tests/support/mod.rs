//! Reference tracker: the parity oracle for [`Tracker`](segugio_core::Tracker).
//!
//! [`OracleTracker`] runs the daily loop from the one-shot public APIs and
//! carries no cross-day engine state: every day builds its snapshot from
//! scratch ([`DaySnapshot::build`], or [`DaySnapshot::build_from_runs`]
//! over spilled chunk runs), measures the training set with
//! [`build_training_set`], trains with [`Segugio::train_prepared`],
//! calibrates on the training rows' hidden-label scores, and scores the
//! unknown domains with [`SegugioModel::score_unknown_with`]. The
//! reconcile, detect, implicate and degradation steps follow the same
//! contract as the production tracker, so on identical inputs the two must
//! agree report for report. [`Pipeline`] drives either one.

use std::collections::BTreeMap;

use segugio_core::{
    build_training_set, DayOutcome, DayReport, DaySnapshot, Degradation, Detection, FeatureGroup,
    ScoreBuffer, Segugio, SegugioModel, SnapshotInput, Tracker, TrackerConfig, TrackerError,
    TrainError, FEATURE_COUNT,
};
use segugio_graph::EdgeRuns;
use segugio_ml::RocCurve;
use segugio_model::{Day, DomainId};
use segugio_pdns::ActivityStore;

/// The tracker under test or the reference it is compared against.
#[derive(Debug)]
pub enum Pipeline {
    /// The production [`Tracker`].
    Tracker(Box<Tracker>),
    /// The from-scratch reference.
    Oracle(Box<OracleTracker>),
}

impl Pipeline {
    /// A fresh production tracker.
    pub fn tracker() -> Self {
        Pipeline::Tracker(Box::default())
    }

    /// A fresh reference tracker; see [`OracleTracker::new`].
    pub fn oracle(run_capacity: Option<usize>) -> Self {
        Pipeline::Oracle(Box::new(OracleTracker::new(run_capacity)))
    }

    /// Feeds one day to the wrapped tracker.
    pub fn process_day(
        &mut self,
        input: &SnapshotInput<'_>,
        activity: &ActivityStore,
        config: &TrackerConfig,
    ) -> DayOutcome {
        match self {
            Pipeline::Tracker(tracker) => tracker.process_day_outcome(input, activity, config),
            Pipeline::Oracle(oracle) => oracle.process_day(input, activity, config),
        }
    }
}

/// A from-scratch tracker built only from one-shot public APIs.
#[derive(Debug, Default)]
pub struct OracleTracker {
    /// When set, each day's graph is built from chunk runs of this
    /// capacity instead of the in-memory builder.
    run_capacity: Option<usize>,
    flagged: BTreeMap<DomainId, Day>,
    confirmed: BTreeMap<DomainId, (Day, Day)>,
    /// The last freshly trained model, its threshold and its training day.
    last_model: Option<(SegugioModel, f32, Day)>,
    last_day: Option<Day>,
    buf: ScoreBuffer,
}

impl OracleTracker {
    /// An oracle that builds every snapshot in memory, or — with
    /// `run_capacity` set — from chunk runs of that capacity.
    pub fn new(run_capacity: Option<usize>) -> Self {
        OracleTracker {
            run_capacity,
            ..OracleTracker::default()
        }
    }

    /// One day of the reference loop, folded into a [`DayOutcome`].
    pub fn process_day(
        &mut self,
        input: &SnapshotInput<'_>,
        activity: &ActivityStore,
        config: &TrackerConfig,
    ) -> DayOutcome {
        match self.try_day(input, activity, config) {
            Ok(report) => DayOutcome::Processed(report),
            Err(error) => DayOutcome::Skipped {
                day: input.day,
                error,
            },
        }
    }

    fn try_day(
        &mut self,
        input: &SnapshotInput<'_>,
        activity: &ActivityStore,
        config: &TrackerConfig,
    ) -> Result<DayReport, TrackerError> {
        let day = input.day;
        let health = &config.segugio.health;
        if let Some(last) = self.last_day.filter(|&last| day <= last) {
            return Err(TrackerError::NonMonotonicDay { last, got: day });
        }

        // A blank pDNS window masks the IP-abuse columns, when that leaves
        // a non-empty column set.
        let mut degradation = Vec::new();
        let window = day.lookback_exclusive(config.segugio.features.abuse_window_days);
        let pdns_blank = input.pdns.records_in(window).next().is_none();
        let mut train_config = config.segugio.clone();
        if pdns_blank && health.mask_ip_features_on_blank_pdns {
            let configured = train_config
                .feature_columns
                .clone()
                .unwrap_or_else(|| (0..FEATURE_COUNT).collect());
            let masked: Vec<usize> = configured
                .iter()
                .copied()
                .filter(|c| !FeatureGroup::IpAbuse.columns().contains(c))
                .collect();
            if masked.len() != configured.len() && !masked.is_empty() {
                degradation.push(Degradation::MaskedIpFeatures);
                train_config.feature_columns = Some(masked);
            }
        }

        let snapshot = match self.run_capacity {
            None => DaySnapshot::build(input, &config.segugio),
            Some(capacity) => {
                let mut runs = EdgeRuns::with_run_capacity(capacity);
                runs.extend(input.queries.iter().copied());
                DaySnapshot::build_from_runs(input, &runs, &config.segugio)
                    .expect("scratch runs re-read")
            }
        };

        // No seeds: reuse a fresh-enough retained model, or skip the day.
        let (malware, benign, _) = snapshot.graph.domain_label_counts();
        let stale = if malware == 0 || benign == 0 {
            let usable = self.last_model.as_ref().filter(|(_, _, trained_on)| {
                health.stale_model_on_insufficient_seeds
                    && day.0.saturating_sub(trained_on.0) <= health.max_model_age_days
            });
            match usable {
                Some(retained) => Some(retained.clone()),
                None => {
                    return Err(TrackerError::InsufficientSeeds {
                        day,
                        malware,
                        benign,
                    })
                }
            }
        } else {
            None
        };

        let mut confirmed_today = Vec::new();
        self.flagged.retain(|&domain, &mut flagged_on| {
            if input.blacklist.contains_as_of(domain, day) {
                confirmed_today.push((domain, flagged_on));
                self.confirmed.insert(domain, (flagged_on, day));
                false
            } else {
                true
            }
        });
        confirmed_today.sort_by_key(|&(d, _)| d);

        let (fresh, threshold) = match stale {
            Some((model, threshold, trained_on)) => {
                degradation.push(Degradation::StaleModel { trained_on });
                model.score_unknown_with(&snapshot, activity, &mut self.buf);
                (None, threshold)
            }
            None => {
                let (train_set, _) = build_training_set(&snapshot, activity, &train_config);
                let model = Segugio::train_prepared(&train_set, &train_config).map_err(
                    |TrainError::InsufficientSeeds { malware, benign }| {
                        TrackerError::InsufficientSeeds {
                            day,
                            malware,
                            benign,
                        }
                    },
                )?;
                model.score_dataset_with(&train_set, &mut self.buf);
                let threshold = RocCurve::from_scores(self.buf.scores(), train_set.labels())
                    .threshold_for_fpr(config.target_fpr);
                model.score_unknown_with(&snapshot, activity, &mut self.buf);
                (Some(model), threshold)
            }
        };

        let all_detections: Vec<Detection> = self
            .buf
            .detections()
            .iter()
            .filter(|d| d.score >= threshold)
            .copied()
            .collect();
        let mut new_detections = Vec::new();
        for det in &all_detections {
            if !self.flagged.contains_key(&det.domain) && !self.confirmed.contains_key(&det.domain)
            {
                self.flagged.insert(det.domain, day);
                new_detections.push(*det);
            }
        }
        let graph = &snapshot.graph;
        let mut implicated_machines = Vec::new();
        for det in &all_detections {
            if let Some(idx) = graph.domain_idx(det.domain) {
                implicated_machines.extend(graph.machines_of(idx).map(|m| graph.machine_id(m)));
            }
        }
        implicated_machines.sort_unstable();
        implicated_machines.dedup();

        if let Some(model) = fresh {
            self.last_model = Some((model, threshold, day));
        }
        self.last_day = Some(day);
        Ok(DayReport {
            day,
            new_detections,
            all_detections,
            implicated_machines,
            confirmed: confirmed_today,
            threshold,
            degradation,
        })
    }
}

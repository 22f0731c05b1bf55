//! The traced decomposition of one tracker day.
//!
//! [`Shadow`] replays `Tracker::process_day`'s incremental path from the
//! layers' public functions, timing each call into a layer:
//!
//! | span        | call                                                            |
//! |-------------|-----------------------------------------------------------------|
//! | `snapshot`  | `IncrementalEngine::build_snapshot` (graph + pdns + pruning)    |
//! | `features`  | `IncrementalEngine::measure_day`                                |
//! | `train`     | `Segugio::train_prepared`                                       |
//! | `calibrate` | `SegugioModel::score_dataset_with` + `RocCurve::threshold_for_fpr` |
//! | `score`     | `SegugioModel::score_rows_with`                                 |
//!
//! Whatever else the day costs — the pDNS probe, the seed check,
//! reconciliation, detection and implicated machines — is the tracker's
//! own share, `tracker.other_s = day span − Σ spans`. The replay keeps its
//! own flag/confirmation state, so its [`DayReport`] must equal the
//! tracker's on every healthy day.
//!
//! Days the tracker does not run through the engine (a blank pDNS window,
//! or no seeds) are not decomposed: the shadow resets its engine the way
//! the tracker does and adopts the tracker's report.

use std::collections::BTreeMap;

use segugio_core::{
    DayOutcome, DayReport, Detection, IncrementalEngine, ScoreBuffer, Segugio, SnapshotInput,
    TrackerConfig,
};
use segugio_graph::{BehaviorGraph, PruneStats};
use segugio_ml::RocCurve;
use segugio_model::{Day, DomainId, MachineId};
use segugio_pdns::ActivityStore;

use crate::probe::{span, Span, Stopwatch};

/// One decomposed day.
#[derive(Debug, Clone)]
pub struct TracedDay {
    /// Wall seconds of the whole replayed day.
    pub day_s: f64,
    /// `IncrementalEngine::build_snapshot`.
    pub snapshot: Span,
    /// `IncrementalEngine::measure_day`.
    pub features: Span,
    /// `Segugio::train_prepared`.
    pub train: Span,
    /// Threshold calibration.
    pub calibrate: Span,
    /// Scoring the unknown domains.
    pub score: Span,
    /// R1–R4 pruning counts of the day's graph.
    pub prune: PruneStats,
    /// Share of today's distinct edges absent yesterday (1.0 on the first
    /// day the shadow sees).
    pub new_edge_fraction: f64,
    /// Feature rows measured (training + unknown).
    pub feature_rows: usize,
    /// Rows that reused yesterday's cached columns.
    pub reused: usize,
    /// Training rows.
    pub train_rows: usize,
    /// Unknown rows scored.
    pub score_rows: usize,
    /// Allocations of a serial re-score into a buffer that has already
    /// held this many rows; `None` on a day the buffer had to grow.
    pub steady_score_allocs: Option<u64>,
    /// Whether the serial re-score reproduced the scored detections
    /// bit for bit.
    pub rescore_matches: bool,
    /// The replayed day's report.
    pub report: DayReport,
}

impl TracedDay {
    /// The sum of the layer spans.
    pub fn layers_s(&self) -> f64 {
        self.snapshot.s + self.features.s + self.train.s + self.calibrate.s + self.score.s
    }

    /// The tracker's own share of the day.
    pub fn other_s(&self) -> f64 {
        self.day_s - self.layers_s()
    }
}

/// Replays tracker days layer by layer.
#[derive(Debug, Default)]
pub struct Shadow {
    engine: IncrementalEngine,
    flagged: BTreeMap<DomainId, Day>,
    confirmed: BTreeMap<DomainId, (Day, Day)>,
    buf: ScoreBuffer,
    serial: ScoreBuffer,
    serial_rows: usize,
    prev_edges: Vec<(MachineId, DomainId)>,
}

impl Shadow {
    /// A shadow with no prior day.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replays `input`'s day. `production` is what the tracker returned for
    /// the same day; it is adopted when the day is not decomposed.
    ///
    /// # Errors
    ///
    /// Fails if the day has seeds but training still fails — the tracker
    /// would have skipped a day the shadow cannot account for.
    pub fn day(
        &mut self,
        input: &SnapshotInput<'_>,
        activity: &ActivityStore,
        config: &TrackerConfig,
        production: &DayOutcome,
    ) -> Result<Option<TracedDay>, String> {
        let new_edge_fraction = self.advance_edges(input.queries);
        let segugio = &config.segugio;
        let day = input.day;
        let clock = Stopwatch::started();

        let window = day.lookback_exclusive(segugio.features.abuse_window_days);
        if input.pdns.records_in(window).next().is_none() {
            self.engine.reset();
            self.adopt(production);
            return Ok(None);
        }
        let (snapshot, snapshot_span) = span(|| self.engine.build_snapshot(input, segugio));
        let (malware, benign, _) = snapshot.graph.domain_label_counts();
        if malware == 0 || benign == 0 {
            self.engine.reset_cache();
            self.adopt(production);
            return Ok(None);
        }

        let mut confirmed_today = Vec::new();
        let confirmed = &mut self.confirmed;
        self.flagged.retain(|&domain, &mut flagged_on| {
            if input.blacklist.contains_as_of(domain, day) {
                confirmed_today.push((domain, flagged_on));
                confirmed.insert(domain, (flagged_on, day));
                false
            } else {
                true
            }
        });
        confirmed_today.sort_by_key(|&(d, _)| d);

        let (features, features_span) =
            span(|| self.engine.measure_day(&snapshot, activity, segugio));
        let (model, train_span) = span(|| Segugio::train_prepared(&features.train, segugio));
        let model = model.map_err(|e| format!("{day}: shadow training failed: {e}"))?;
        let buf = &mut self.buf;
        let (threshold, calibrate_span) = span(|| {
            model.score_dataset_with(&features.train, buf);
            RocCurve::from_scores(buf.scores(), features.train.labels())
                .threshold_for_fpr(config.target_fpr)
        });
        let ((), score_span) =
            span(|| model.score_rows_with(&features.unknown_ids, &features.unknown_rows, buf));

        let all_detections: Vec<Detection> = buf
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
        let graph: &BehaviorGraph = &snapshot.graph;
        let mut implicated = Vec::new();
        for det in &all_detections {
            if let Some(idx) = graph.domain_idx(det.domain) {
                implicated.extend(graph.machines_of(idx).map(|m| graph.machine_id(m)));
            }
        }
        implicated.sort_unstable();
        implicated.dedup();
        let day_s = clock.seconds();

        // Outside the day span: the zero-allocation scoring contract. The
        // daily call above runs at the configured width, where spawning the
        // scoped workers allocates; the scorer's own traffic is read from
        // a serial re-score, which must also reproduce the scores exactly.
        let rows = features.unknown_rows.len();
        let serial = model.clone().with_parallelism(Some(1));
        let ((), rescore) = span(|| {
            serial.score_rows_with(
                &features.unknown_ids,
                &features.unknown_rows,
                &mut self.serial,
            )
        });
        let steady_score_allocs = (rows <= self.serial_rows).then_some(rescore.allocs);
        self.serial_rows = self.serial_rows.max(rows);
        let rescore_matches = detections_identical(self.serial.detections(), buf.detections());

        Ok(Some(TracedDay {
            day_s,
            snapshot: snapshot_span,
            features: features_span,
            train: train_span,
            calibrate: calibrate_span,
            score: score_span,
            prune: snapshot.prune_stats,
            new_edge_fraction,
            feature_rows: features.train.len() + rows,
            reused: features.reused,
            train_rows: features.train.len(),
            score_rows: rows,
            steady_score_allocs,
            rescore_matches,
            report: DayReport {
                day,
                new_detections,
                all_detections,
                implicated_machines: implicated,
                confirmed: confirmed_today,
                threshold,
                degradation: Vec::new(),
            },
        }))
    }

    /// Follows the tracker through a day the shadow did not decompose.
    fn adopt(&mut self, production: &DayOutcome) {
        let Some(report) = production.report() else {
            return;
        };
        for &(domain, flagged_on) in &report.confirmed {
            self.flagged.remove(&domain);
            self.confirmed.insert(domain, (flagged_on, report.day));
        }
        for det in &report.new_detections {
            self.flagged.insert(det.domain, report.day);
        }
    }

    /// Records today's distinct edges and returns the share that were
    /// absent yesterday.
    fn advance_edges(&mut self, queries: &[(MachineId, DomainId)]) -> f64 {
        let mut today = queries.to_vec();
        today.sort_unstable();
        today.dedup();
        let mut old = self.prev_edges.iter().peekable();
        let mut added = 0usize;
        for edge in &today {
            while old.next_if(|&o| o < edge).is_some() {}
            if old.next_if(|&o| o == edge).is_none() {
                added += 1;
            }
        }
        self.prev_edges = today;
        if self.prev_edges.is_empty() {
            0.0
        } else {
            added as f64 / self.prev_edges.len() as f64
        }
    }
}

/// Bitwise equality of two detection lists (scores compared by bits).
fn detections_identical(a: &[Detection], b: &[Detection]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.domain == y.domain && x.score.to_bits() == y.score.to_bits())
}

//! The timed region: days fed through the production tracker, in the call
//! order of `segugio track`, plus the checkpoint round trip.

use std::collections::BTreeSet;
use std::fs::{self, File};
use std::io::BufReader;
use std::path::{Path, PathBuf};

use segugio_core::{DayOutcome, SnapshotInput, Tracker, TrackerConfig, DEFAULT_KEEP_GENERATIONS};
use segugio_ingest::LogCollector;
use segugio_model::{Blacklist, Day, DomainId, DomainName, DomainTable, Whitelist};
use segugio_pdns::ActivityStore;
use segugio_traffic::{GroundTruth, IspNetwork};

use crate::probe::{span, Span, Stopwatch};
use crate::setup::{LogFiles, Setup};
use crate::shadow::{Shadow, TracedDay};

/// Times a traced run restores the saved state;
/// `checkpoint.restore_s` is the median.
pub const RESTORE_REPS: usize = 3;

/// One day fed to the tracker.
#[derive(Debug, Clone)]
pub struct DayRecord {
    /// Distinct `(machine, domain)` edges handed to `process_day`.
    pub edges: usize,
    /// `LogCollector::day` seconds (log workloads only).
    pub collect_s: f64,
    /// `Tracker::process_day_outcome` seconds.
    pub process_s: f64,
    /// What the tracker returned.
    pub outcome: DayOutcome,
    /// The traced decomposition, in a traced run on a decomposed day.
    pub traced: Option<TracedDay>,
}

/// One pass over every day, starting from an empty tracker.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall seconds of the pass: ingest, every day, checkpoint saves.
    pub run_s: f64,
    /// The days, in order.
    pub days: Vec<DayRecord>,
    /// Distinct flagged domains that are truly malicious / truly benign.
    pub flagged: (usize, usize),
    /// `LogCollector::ingest_reader` call and the records it returned.
    pub ingest: Option<(Span, usize)>,
    /// Each `Tracker::save_checkpoint` call.
    pub saves: Vec<Span>,
}

/// `Tracker::resume` on the saved generations.
#[derive(Debug, Clone, Copy)]
pub struct Restore {
    /// The resume call.
    pub span: Span,
    /// Size of the newest generation on disk.
    pub bytes: u64,
}

/// Everything the timed region produced.
#[derive(Debug, Clone, Default)]
pub struct Runs {
    /// The passes, in order.
    pub passes: Vec<Pass>,
    /// Peak RSS over the passes.
    pub peak_rss_bytes: u64,
    /// The checkpoint round trip after the last pass.
    pub restore: Option<Restore>,
    /// A checkpoint save outside the passes (in-memory workloads).
    pub extra_save: Option<Span>,
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
}

/// Runs passes over `setup`'s days until `seconds` have elapsed (at least
/// one), then the checkpoint round trip.
///
/// # Errors
///
/// Fails when the environment does (missing inputs, unreadable files);
/// wrong outputs are recorded in [`Runs::problems`] instead.
pub fn run(setup: &Setup, seconds: f64, trace: bool, work_dir: &Path) -> Result<Runs, String> {
    let config = TrackerConfig::default();
    let checkpoints = work_dir.join("checkpoints");
    let edges = distinct_edges(setup);
    let mut runs = Runs::default();
    crate::probe::reset_peak_rss().map_err(|e| format!("resetting peak RSS: {e}"))?;
    let clock = Stopwatch::started();
    let mut tracker = Tracker::new();
    while runs.passes.is_empty() || clock.seconds() < seconds {
        let mut shadow = trace.then(Shadow::new);
        let pass = match &setup.logs {
            Some(logs) => {
                fresh_dir(&checkpoints)?;
                log_pass(
                    &setup.isp,
                    logs,
                    &config,
                    shadow.as_mut(),
                    &checkpoints,
                    &mut runs.problems,
                )?
            }
            None => {
                tracker = Tracker::new();
                memory_pass(
                    setup,
                    &edges,
                    &mut tracker,
                    &config,
                    shadow.as_mut(),
                    &mut runs.problems,
                )
            }
        };
        runs.passes.push(pass);
    }
    runs.peak_rss_bytes =
        crate::probe::peak_rss_bytes().map_err(|e| format!("reading peak RSS: {e}"))?;

    if setup.logs.is_none() {
        fresh_dir(&checkpoints)?;
        let (saved, save) =
            span(|| tracker.save_checkpoint(&checkpoints, DEFAULT_KEEP_GENERATIONS));
        saved.map_err(|e| format!("saving checkpoint: {e}"))?;
        runs.extra_save = Some(save);
    }
    let reps = if trace { RESTORE_REPS } else { 1 };
    runs.restore = Some(restore(&checkpoints, reps, &mut runs.problems)?);
    check_passes_agree(&runs.passes, &mut runs.problems);
    Ok(runs)
}

/// One `segugio track --checkpoint-dir` run over the exported logs:
/// resume, ingest, remap the seed lists, then per day collect → process
/// → checkpoint.
fn log_pass(
    isp: &IspNetwork,
    logs: &LogFiles,
    config: &TrackerConfig,
    mut shadow: Option<&mut Shadow>,
    checkpoints: &Path,
    problems: &mut Vec<String>,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let clock = Stopwatch::started();
    let mut tracker = Tracker::resume(checkpoints)
        .map_err(|e| format!("resuming {}: {e}", checkpoints.display()))?;
    let mut log_collector = LogCollector::new();
    let file = File::open(&logs.log).map_err(|e| format!("opening {}: {e}", logs.log.display()))?;
    let (ingested, ingest) = span(|| log_collector.ingest_reader(BufReader::new(file)));
    let lines = ingested.map_err(|e| format!("ingesting {}: {e}", logs.log.display()))?;
    pass.ingest = Some((ingest, lines));
    let (blacklist, whitelist) = read_sidecars(log_collector.table(), logs)?;

    for day in log_collector.days() {
        let (traffic, collect) = span(|| log_collector.day(day));
        let Some(traffic) = traffic else {
            problems.push(format!("{day}: the collector lost the day's traffic"));
            continue;
        };
        let input = SnapshotInput {
            day,
            queries: &traffic.queries,
            resolutions: &traffic.resolutions,
            table: log_collector.table(),
            pdns: log_collector.pdns(),
            blacklist: &blacklist,
            whitelist: &whitelist,
            hidden: None,
        };
        let mut record = process(
            &mut tracker,
            shadow.as_deref_mut(),
            &input,
            log_collector.activity(),
            config,
            problems,
        );
        record.edges = traffic.queries.len();
        record.collect_s = collect.s;
        if record.outcome.report().is_some() {
            let (saved, save) =
                span(|| tracker.save_checkpoint(checkpoints, DEFAULT_KEEP_GENERATIONS));
            if let Err(e) = saved {
                problems.push(format!("{day}: checkpoint save failed: {e}"));
            }
            pass.saves.push(save);
        }
        pass.days.push(record);
    }
    pass.run_s = clock.seconds();
    let table: &DomainTable = log_collector.table();
    let ground_truth: &GroundTruth = isp.truth();
    pass.flagged = tally(
        &pass.days,
        |id| {
            isp.table()
                .get(table.name(id))
                .map(|own| ground_truth.is_malicious(own))
        },
        problems,
    );
    Ok(pass)
}

/// One pass over the in-memory days with `tracker`, which must be empty.
fn memory_pass(
    setup: &Setup,
    edges: &[usize],
    tracker: &mut Tracker,
    config: &TrackerConfig,
    mut shadow: Option<&mut Shadow>,
    problems: &mut Vec<String>,
) -> Pass {
    let isp = &setup.isp;
    let mut pass = Pass::default();
    let clock = Stopwatch::started();
    for (traffic, &edges) in setup.days.iter().zip(edges) {
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
        let mut record = process(
            tracker,
            shadow.as_deref_mut(),
            &input,
            isp.activity(),
            config,
            problems,
        );
        record.edges = edges;
        pass.days.push(record);
    }
    pass.run_s = clock.seconds();
    let ground_truth: &GroundTruth = isp.truth();
    pass.flagged = tally(
        &pass.days,
        |id| Some(ground_truth.is_malicious(id)),
        problems,
    );
    pass
}

/// Feeds one day to the tracker and, in a traced run, to the shadow,
/// checking the shadow's report against the tracker's.
fn process(
    tracker: &mut Tracker,
    shadow: Option<&mut Shadow>,
    input: &SnapshotInput<'_>,
    activity: &ActivityStore,
    config: &TrackerConfig,
    problems: &mut Vec<String>,
) -> DayRecord {
    let day = input.day;
    let clock = Stopwatch::started();
    let outcome = tracker.process_day_outcome(input, activity, config);
    let process_s = clock.seconds();
    if let DayOutcome::Skipped { error, .. } = &outcome {
        problems.push(format!("{day}: skipped: {error}"));
    }
    let traced = shadow.and_then(
        |shadow| match shadow.day(input, activity, config, &outcome) {
            Ok(traced) => traced,
            Err(e) => {
                problems.push(e);
                None
            }
        },
    );
    if let Some(traced) = &traced {
        if outcome.report() != Some(&traced.report) {
            problems.push(format!(
                "{day}: the traced decomposition disagrees with the tracker's report"
            ));
        }
        if !traced.rescore_matches {
            problems.push(format!(
                "{day}: serial re-score differs from the daily scores"
            ));
        }
        if traced.other_s() < 0.0 {
            problems.push(format!("{day}: layer spans exceed the traced day span"));
        }
    }
    DayRecord {
        edges: 0,
        collect_s: 0.0,
        process_s,
        outcome,
        traced,
    }
}

/// Distinct flagged domains over the pass, split by ground truth into
/// (malicious, benign). `verdict` maps a tracker domain id to the
/// generator's verdict.
fn tally(
    days: &[DayRecord],
    verdict: impl Fn(DomainId) -> Option<bool>,
    problems: &mut Vec<String>,
) -> (usize, usize) {
    let flagged: BTreeSet<DomainId> = days
        .iter()
        .filter_map(|d| d.outcome.report())
        .flat_map(|r| r.all_detections.iter().map(|det| det.domain))
        .collect();
    let (mut malicious, mut benign) = (0, 0);
    for id in flagged {
        match verdict(id) {
            Some(true) => malicious += 1,
            Some(false) => benign += 1,
            None => problems.push(format!("flagged domain {id} is unknown to the generator")),
        }
    }
    (malicious, benign)
}

/// Resumes from the saved generations `reps` times and checks the
/// restored state re-serializes to the newest generation byte for byte.
/// The reported span is the median resume.
fn restore(checkpoints: &Path, reps: usize, problems: &mut Vec<String>) -> Result<Restore, String> {
    let newest = newest_generation(checkpoints)?;
    let on_disk = fs::read(&newest).map_err(|e| format!("reading {}: {e}", newest.display()))?;
    let mut spans = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (resumed, span) = span(|| Tracker::resume(checkpoints));
        let resumed: Tracker =
            resumed.map_err(|e| format!("resuming {}: {e}", checkpoints.display()))?;
        if rep == 0 && resumed.save_to_string().as_bytes() != on_disk.as_slice() {
            problems.push(format!(
                "the resumed tracker does not re-save to {}",
                newest.display()
            ));
        }
        spans.push(span);
    }
    spans.sort_by(|a, b| a.s.total_cmp(&b.s));
    Ok(Restore {
        span: spans[spans.len() / 2],
        bytes: on_disk.len() as u64,
    })
}

/// The `checkpoint-<day>.seg` file with the largest day.
fn newest_generation(dir: &Path) -> Result<PathBuf, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))?;
    let mut newest: Option<(u32, PathBuf)> = None;
    for entry in entries {
        let entry: fs::DirEntry = entry.map_err(|e| format!("listing {}: {e}", dir.display()))?;
        let path = entry.path();
        let day = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("checkpoint-"))
            .and_then(|n| n.strip_suffix(".seg"))
            .and_then(|n| n.parse::<u32>().ok());
        if let Some(day) = day {
            if newest.as_ref().is_none_or(|(best, _)| day > *best) {
                newest = Some((day, path));
            }
        }
    }
    newest
        .map(|(_, path)| path)
        .ok_or_else(|| format!("no checkpoint generation in {}", dir.display()))
}

/// Every pass must reproduce the first one's outcomes exactly.
fn check_passes_agree(passes: &[Pass], problems: &mut Vec<String>) {
    let Some((first, rest)) = passes.split_first() else {
        return;
    };
    for (i, pass) in rest.iter().enumerate() {
        let same = pass.flagged == first.flagged
            && pass.days.len() == first.days.len()
            && pass
                .days
                .iter()
                .zip(&first.days)
                .all(|(a, b)| a.outcome == b.outcome);
        if !same {
            problems.push(format!("pass {} differs from pass 1", i + 2));
        }
    }
}

/// The seed lists, read back from the sidecars and remapped onto the
/// collector's domain table the way `segugio track` does.
fn read_sidecars(table: &DomainTable, logs: &LogFiles) -> Result<(Blacklist, Whitelist), String> {
    let read = |path: &Path| {
        fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
    };
    let mut blacklist = Blacklist::new();
    for (i, line) in read(&logs.blacklist)?.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, added) = line.split_once('\t').unwrap_or((line, "0"));
        let bad = || format!("{}:{}: bad entry", logs.blacklist.display(), i + 1);
        let added: u32 = added.parse().map_err(|_| bad())?;
        let name = DomainName::parse(name).map_err(|_| bad())?;
        if let Some(id) = table.get(&name) {
            blacklist.insert(id, Day(added));
        }
    }
    let mut whitelist = Whitelist::new();
    for line in read(&logs.whitelist)?.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(id) = table.e2ld_id(line) {
            whitelist.insert(id);
        }
    }
    Ok((blacklist, whitelist))
}

/// Distinct edges of each in-memory day (log days are counted when the
/// collector hands them over, already deduplicated).
fn distinct_edges(setup: &Setup) -> Vec<usize> {
    setup
        .days
        .iter()
        .map(|traffic| {
            let mut edges = traffic.queries.clone();
            edges.sort_unstable();
            edges.dedup();
            edges.len()
        })
        .collect()
}

/// Removes and recreates `dir`.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

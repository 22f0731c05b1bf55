//! The repository benchmark: the production tracker path
//! (`Tracker::process_day`, and `segugio track` for log input) under named
//! workloads, with end-to-end metrics and, in a traced run, per-layer
//! metrics. See `perfbench/README.md` for the workloads and the
//! layer → end-to-end metric map.

pub mod drive;
pub mod probe;
pub mod setup;
pub mod shadow;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use segugio_alloc_probe::CountingAlloc;
use segugio_core::TrackerConfig;
use segugio_graph::DEFAULT_RUN_CAPACITY;

use crate::drive::{DayRecord, Runs};
use crate::probe::{median, Span};
use crate::setup::{Setup, SetupTimings, Sizing};
use crate::shadow::TracedDay;

#[global_allocator]
static ALLOC: GatedAlloc = GatedAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

/// The benchmark's global allocator: the system allocator until
/// [`count_allocations`] is called, the counting probe from then on. An
/// untraced run never switches, so its timings carry no counter traffic.
pub struct GatedAlloc;

/// Routes every later heap operation through the counting probe.
///
/// Call it once, before allocating anything that is freed while counting:
/// a block allocated uncounted and freed counted would be subtracted from
/// the probe's live bytes without ever having been added.
pub fn count_allocations() {
    COUNTING.store(true, Ordering::SeqCst);
}

fn counting() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

// SAFETY: every method forwards the caller's arguments unchanged to
// `CountingAlloc` or `System`, so their contract is met when ours is.
unsafe impl GlobalAlloc for GatedAlloc {
    // SAFETY: same contract as `System::alloc` — forwarded unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            // SAFETY: `layout` is the caller's, forwarded unchanged.
            unsafe { CountingAlloc.alloc(layout) }
        } else {
            // SAFETY: `layout` is the caller's, forwarded unchanged.
            unsafe { System.alloc(layout) }
        }
    }

    // SAFETY: same contract as `System::alloc_zeroed` — forwarded unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            // SAFETY: `layout` is the caller's, forwarded unchanged.
            unsafe { CountingAlloc.alloc_zeroed(layout) }
        } else {
            // SAFETY: `layout` is the caller's, forwarded unchanged.
            unsafe { System.alloc_zeroed(layout) }
        }
    }

    // SAFETY: same contract as `System::dealloc` — forwarded unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            // SAFETY: `ptr`/`layout` are the caller's, forwarded unchanged.
            unsafe { CountingAlloc.dealloc(ptr, layout) }
        } else {
            // SAFETY: `ptr`/`layout` are the caller's, forwarded unchanged.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    // SAFETY: same contract as `System::realloc` — forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            // SAFETY: `ptr`/`layout`/`new_size` are the caller's, forwarded unchanged.
            unsafe { CountingAlloc.realloc(ptr, layout, new_size) }
        } else {
            // SAFETY: `ptr`/`layout`/`new_size` are the caller's, forwarded unchanged.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

/// Times the inputs are generated in one run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `segugio track --checkpoint-dir` over exported text logs.
    TrackLogs,
    /// Generator days from memory, default (~58%) daily edge churn.
    SteadyDays,
    /// The same network replayed so each day keeps ~90% of yesterday's
    /// edges.
    LowChurnDays,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TrackLogs,
        Workload::SteadyDays,
        Workload::LowChurnDays,
    ];

    /// The workload's command-line name.
    pub fn cli_name(self) -> &'static str {
        match self {
            Workload::TrackLogs => "track_logs",
            Workload::SteadyDays => "steady_days",
            Workload::LowChurnDays => "low_churn_days",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|&w| Workload::cli_name(w) == name)
    }
}

/// Input size: `Full` is the benchmark; `Tiny` exercises the same code in
/// seconds, for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The recorded sizes.
    Full,
    /// A few thousand machines.
    Tiny,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Seeds every generated input.
    pub seed: u64,
    /// Keep starting passes until this many seconds have been measured.
    pub seconds: f64,
    /// Report the per-layer metrics of a traced run instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Scratch directory for logs and checkpoints; removed afterwards.
    pub work_dir: PathBuf,
}

/// A reported metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// What an untraced run reports.
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s"),
    m("run_s", "s"),
    m("warm_day_s", "s"),
    m("edges_per_s", "1/s"),
    m("peak_rss_bytes", "bytes"),
];

/// What a traced run reports.
pub const PER_LAYER: &[MetricSpec] = &[
    m("ingest.s", "s"),
    m("ingest.lines", "count"),
    m("ingest.lines_per_s", "1/s"),
    m("ingest.allocs", "count"),
    m("ingest.collect_s", "s"),
    m("ingest.day_observations_max", "count"),
    m("snapshot.s", "s"),
    m("snapshot.allocs", "count"),
    m("snapshot.peak_heap_bytes", "bytes"),
    m("graph.unpruned_edges", "count"),
    m("graph.pruned_edges", "count"),
    m("graph.new_edge_fraction", "ratio"),
    m("graph.r1_machines", "count"),
    m("graph.r2_machines", "count"),
    m("graph.r3_domains", "count"),
    m("graph.r4_domains", "count"),
    m("features.s", "s"),
    m("features.rows", "count"),
    m("features.reused", "count"),
    m("features.hit_ratio", "ratio"),
    m("features.allocs", "count"),
    m("train.s", "s"),
    m("train.rows", "count"),
    m("train.allocs", "count"),
    m("calibrate.s", "s"),
    m("score.s", "s"),
    m("score.rows", "count"),
    m("score.allocs", "count"),
    m("tracker.other_s", "s"),
    m("tracker.cold_day_s", "s"),
    m("tracker.degraded_days", "count"),
    m("tracker.cc_flagged", "count"),
    m("tracker.benign_flagged", "count"),
    m("checkpoint.save_s", "s"),
    m("checkpoint.bytes", "bytes"),
    m("checkpoint.save_allocs", "count"),
    m("checkpoint.restore_s", "s"),
    m("checkpoint.restore_allocs", "count"),
    m("traffic.world_s", "s"),
    m("traffic.gen_s", "s"),
    m("traffic.export_s", "s"),
    m("trace.overhead_ratio", "ratio"),
];

/// Scale, threads and input facts a reported number depends on.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// The workload's name.
    pub workload: &'static str,
    /// The input seed.
    pub seed: u64,
    /// Simulated machines.
    pub machines: usize,
    /// Days fed to the tracker per pass.
    pub days: usize,
    /// Hardware threads of this host.
    pub host_threads: usize,
    /// Worker threads the default `TrackerConfig` resolves to here.
    pub parallelism: usize,
    /// Query observations (log lines) per day.
    pub observations: Vec<usize>,
    /// Whether any day held more observations than the collector's run
    /// capacity, so its runs spilled (log workloads only).
    pub run_capacity_exceeded: bool,
    /// Passes over the days.
    pub passes: usize,
    /// Days the tracker skipped ÷ days attempted.
    pub day_fail_ratio: f64,
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted: tracker days, checkpoint saves and restores.
    pub attempted: u64,
    /// Failed operations and failed checks.
    pub failed: u64,
    /// The reported metrics, in registry order, with their units.
    pub metrics: Vec<(MetricSpec, f64)>,
    /// What the numbers were measured on.
    pub provenance: Provenance,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Per pass: its wall time and each day's `process_day` seconds.
    pub passes: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (spec, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                spec.name, spec.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The provenance line printed beside the result.
    pub fn provenance_json(&self) -> String {
        let p = &self.provenance;
        let observations: Vec<String> = p.observations.iter().map(|n| n.to_string()).collect();
        format!(
            "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"machines\": {}, \
             \"days\": {}, \"host_threads\": {}, \"parallelism\": {}, \
             \"observations_per_day\": [{}], \"run_capacity\": {}, \
             \"run_capacity_exceeded\": {}, \"passes\": {}, \"setup_reps\": {}, \
             \"day_fail_ratio\": {}}}}}",
            p.workload,
            p.seed,
            p.machines,
            p.days,
            p.host_threads,
            p.parallelism,
            observations.join(", "),
            DEFAULT_RUN_CAPACITY,
            p.run_capacity_exceeded,
            p.passes,
            SETUP_REPS,
            p.day_fail_ratio,
        )
    }
}

/// Generates the inputs, runs the timed region and assembles the metrics.
///
/// # Errors
///
/// Fails when the environment does (unwritable work directory, missing
/// proc files); wrong outputs make [`Outcome::correct`] false instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let outcome = measure(opts);
    if opts.work_dir.exists() {
        fs::remove_dir_all(&opts.work_dir)
            .map_err(|e| format!("removing {}: {e}", opts.work_dir.display()))?;
    }
    outcome
}

fn measure(opts: &Options) -> Result<Outcome, String> {
    let sizing = Sizing::of(opts.workload, opts.scale);
    let work_dir = opts.work_dir.join(opts.workload.cli_name());
    let mut timings = Vec::with_capacity(SETUP_REPS);
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        setup.take(); // free the previous copy before generating the next
        let built = setup::build(opts.workload, sizing, opts.seed, &work_dir)
            .map_err(|e| format!("generating inputs in {}: {e}", work_dir.display()))?;
        timings.push(built.timings);
        setup = Some(built);
    }
    let setup = setup.ok_or("no setup ran")?;
    let runs = drive::run(&setup, opts.seconds, opts.trace, &work_dir)?;
    Ok(assemble(opts, sizing, &setup, &timings, runs))
}

fn assemble(
    opts: &Options,
    sizing: Sizing,
    setup: &Setup,
    timings: &[SetupTimings],
    runs: Runs,
) -> Outcome {
    let mut problems = runs.problems.clone();
    let days: Vec<&DayRecord> = runs.passes.iter().flat_map(|p| &p.days).collect();
    let skipped = days.iter().filter(|d| d.outcome.report().is_none()).count();
    let saves =
        runs.passes.iter().map(|p| p.saves.len()).sum::<usize>() + runs.extra_save.iter().count();
    let attempted = (days.len() + saves + 1) as u64;
    let first = runs.passes.first();

    // The first day of each pass is the cold day; the rest are warm.
    let cold: Vec<&DayRecord> = runs.passes.iter().filter_map(|p| p.days.first()).collect();
    let warm: Vec<&DayRecord> = runs
        .passes
        .iter()
        .flat_map(|p| p.days.iter().skip(1))
        .collect();
    let process_total: f64 = days.iter().map(|d| d.process_s).sum();
    let edges_total: usize = days.iter().map(|d| d.edges).sum();

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let setup_s: Vec<f64> = timings.iter().map(SetupTimings::total_s).collect();
    v.insert("setup_s", median(&setup_s));
    v.insert(
        "run_s",
        median(&runs.passes.iter().map(|p| p.run_s).collect::<Vec<_>>()),
    );
    v.insert(
        "tracker.cold_day_s",
        median(&cold.iter().map(|d| d.process_s).collect::<Vec<_>>()),
    );
    v.insert(
        "warm_day_s",
        median(&warm.iter().map(|d| d.process_s).collect::<Vec<_>>()),
    );
    v.insert("edges_per_s", ratio(edges_total as f64, process_total));
    v.insert("peak_rss_bytes", runs.peak_rss_bytes as f64);
    let flagged = first.map_or((0, 0), |p| p.flagged);
    v.insert("tracker.cc_flagged", flagged.0 as f64);
    v.insert("tracker.benign_flagged", flagged.1 as f64);

    if opts.trace {
        layer_metrics(&mut v, setup, timings, &runs, &warm, &mut problems);
    }

    let specs = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics = specs
        .iter()
        .map(|&spec| (spec, v.get(spec.name).copied().unwrap_or(f64::NAN)))
        .collect();
    // Every skipped day is also a problem.
    let failed = problems.len() as u64;
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        provenance: Provenance {
            workload: opts.workload.cli_name(),
            seed: opts.seed,
            machines: sizing.machines,
            days: sizing.days,
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            parallelism: TrackerConfig::default().segugio.effective_parallelism(),
            observations: setup.observations.clone(),
            run_capacity_exceeded: setup.logs.is_some()
                && setup.observations.iter().any(|&n| n > DEFAULT_RUN_CAPACITY),
            passes: runs.passes.len(),
            day_fail_ratio: ratio(skipped as f64, days.len() as f64),
        },
        problems,
        passes: runs
            .passes
            .iter()
            .map(|p| {
                let days: Vec<String> = p
                    .days
                    .iter()
                    .map(|d| format!("{:.3}", d.process_s))
                    .collect();
                format!("run {:.3} s, days [{}] s", p.run_s, days.join(", "))
            })
            .collect(),
    }
}

/// The traced run's per-layer metrics. Per-day spans and counters are
/// medians over the warm decomposed days; workloads without log ingest
/// report the ingest and export metrics as 0.
fn layer_metrics(
    v: &mut BTreeMap<&'static str, f64>,
    setup: &Setup,
    timings: &[SetupTimings],
    runs: &Runs,
    warm: &[&DayRecord],
    problems: &mut Vec<String>,
) {
    let traced: Vec<&TracedDay> = warm.iter().filter_map(|d| d.traced.as_ref()).collect();
    if traced.is_empty() {
        problems.push("no warm day was decomposed".to_owned());
    }
    let med =
        |f: &dyn Fn(&TracedDay) -> f64| median(&traced.iter().map(|t| f(t)).collect::<Vec<_>>());
    let spans = |f: fn(&TracedDay) -> Span| {
        (
            med(&|t| f(t).s),
            med(&|t| f(t).allocs as f64),
            med(&|t| f(t).peak_bytes as f64),
        )
    };

    let ingests: Vec<(Span, usize)> = runs.passes.iter().filter_map(|p| p.ingest).collect();
    let ingest_s = median(&ingests.iter().map(|(s, _)| s.s).collect::<Vec<_>>());
    let lines = ingests.first().map_or(0, |&(_, n)| n);
    v.insert("ingest.s", ingest_s);
    v.insert("ingest.lines", lines as f64);
    v.insert("ingest.lines_per_s", ratio(lines as f64, ingest_s));
    v.insert(
        "ingest.allocs",
        median(
            &ingests
                .iter()
                .map(|(s, _)| s.allocs as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let collects: Vec<f64> = if setup.logs.is_some() {
        runs.passes
            .iter()
            .flat_map(|p| p.days.iter().map(|d| d.collect_s))
            .collect()
    } else {
        Vec::new()
    };
    v.insert("ingest.collect_s", median(&collects));
    v.insert(
        "ingest.day_observations_max",
        if setup.logs.is_some() {
            setup.observations.iter().copied().max().unwrap_or(0) as f64
        } else {
            0.0
        },
    );
    if setup.logs.is_some() {
        let expected: usize = setup.observations.iter().sum();
        if lines != expected {
            problems.push(format!("ingested {lines} records, exported {expected}"));
        }
    }

    let (s, allocs, peak) = spans(|t| t.snapshot);
    v.insert("snapshot.s", s);
    v.insert("snapshot.allocs", allocs);
    v.insert("snapshot.peak_heap_bytes", peak);
    v.insert(
        "graph.unpruned_edges",
        med(&|t| t.prune.edges_before as f64),
    );
    v.insert("graph.pruned_edges", med(&|t| t.prune.edges_after as f64));
    v.insert("graph.new_edge_fraction", med(&|t| t.new_edge_fraction));
    v.insert(
        "graph.r1_machines",
        med(&|t| t.prune.r1_inactive_machines as f64),
    );
    v.insert(
        "graph.r2_machines",
        med(&|t| t.prune.r2_proxy_machines as f64),
    );
    v.insert(
        "graph.r3_domains",
        med(&|t| t.prune.r3_single_machine_domains as f64),
    );
    v.insert(
        "graph.r4_domains",
        med(&|t| t.prune.r4_popular_domains as f64),
    );

    let (s, allocs, _) = spans(|t| t.features);
    v.insert("features.s", s);
    v.insert("features.rows", med(&|t| t.feature_rows as f64));
    v.insert("features.reused", med(&|t| t.reused as f64));
    let rows: usize = traced.iter().map(|t| t.feature_rows).sum();
    let reused: usize = traced.iter().map(|t| t.reused).sum();
    v.insert("features.hit_ratio", ratio(reused as f64, rows as f64));
    v.insert("features.allocs", allocs);

    let (s, allocs, _) = spans(|t| t.train);
    v.insert("train.s", s);
    v.insert("train.rows", med(&|t| t.train_rows as f64));
    v.insert("train.allocs", allocs);
    v.insert("calibrate.s", med(&|t| t.calibrate.s));
    v.insert("score.s", med(&|t| t.score.s));
    v.insert("score.rows", med(&|t| t.score_rows as f64));
    let steady: Vec<u64> = traced
        .iter()
        .filter_map(|t| t.steady_score_allocs)
        .collect();
    if steady.iter().any(|&n| n != 0) {
        problems.push(format!("steady-state scoring allocated: {steady:?}"));
    }
    v.insert(
        "score.allocs",
        steady.iter().copied().max().unwrap_or(0) as f64,
    );
    v.insert("tracker.other_s", med(&|t| t.other_s()));
    let degraded = runs.passes.first().map_or(0, |p| {
        p.days
            .iter()
            .filter(|d| d.outcome.report().is_some_and(|r| r.is_degraded()))
            .count()
    });
    v.insert("tracker.degraded_days", degraded as f64);

    let saves: Vec<Span> = runs
        .passes
        .iter()
        .flat_map(|p| p.saves.iter().copied())
        .chain(runs.extra_save)
        .collect();
    v.insert(
        "checkpoint.save_s",
        median(&saves.iter().map(|s| s.s).collect::<Vec<_>>()),
    );
    v.insert(
        "checkpoint.save_allocs",
        median(&saves.iter().map(|s| s.allocs as f64).collect::<Vec<_>>()),
    );
    v.insert(
        "checkpoint.bytes",
        runs.restore.map_or(0, |r| r.bytes) as f64,
    );
    v.insert(
        "checkpoint.restore_s",
        runs.restore.map_or(0.0, |r| r.span.s),
    );
    v.insert(
        "checkpoint.restore_allocs",
        runs.restore.map_or(0, |r| r.span.allocs) as f64,
    );

    let setup_median =
        |f: fn(&SetupTimings) -> f64| median(&timings.iter().map(f).collect::<Vec<_>>());
    v.insert("traffic.world_s", setup_median(|t| t.world_s));
    v.insert("traffic.gen_s", setup_median(|t| t.gen_s));
    v.insert("traffic.export_s", setup_median(|t| t.export_s));

    // Traced vs untraced warm days: the decomposition replays the same
    // inputs right after the tracker, so a ratio near 1 says the spans
    // account for the production day.
    let paired: Vec<(f64, f64)> = warm
        .iter()
        .filter_map(|d| d.traced.as_ref().map(|t| (t.day_s, d.process_s)))
        .collect();
    v.insert(
        "trace.overhead_ratio",
        ratio(
            median(&paired.iter().map(|p| p.0).collect::<Vec<_>>()),
            median(&paired.iter().map(|p| p.1).collect::<Vec<_>>()),
        ),
    );
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

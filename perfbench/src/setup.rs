//! Workload inputs, generated in-process from the seed: the simulated
//! network, its days of traffic, and (for `track_logs`) the text logs and
//! seed-list sidecars `segugio simulate` writes.
//!
//! Everything here counts toward `setup_s`, never toward the timed region.

use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use segugio_ingest::export_day;
use segugio_model::{DomainId, DomainTable, MachineId};
use segugio_traffic::{DayTraffic, IspConfig, IspNetwork};

use crate::probe::Stopwatch;
use crate::{Scale, Workload};

/// History days the generator simulates before the first logged day, as
/// `segugio simulate` does by default.
const WARMUP_DAYS: u32 = 18;

/// Network size and day count of one workload at one scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    /// Simulated client machines.
    pub machines: usize,
    /// Days fed to the tracker.
    pub days: usize,
}

impl Sizing {
    /// The sizing of `workload` at `scale`.
    ///
    /// At full scale `track_logs` has ~4.4M log lines a day, more than the
    /// collector's default run capacity (4,194,304), so its edge runs
    /// spill; the in-memory workloads run 100k machines for 6 days.
    pub fn of(workload: Workload, scale: Scale) -> Self {
        match (workload, scale) {
            (Workload::TrackLogs, Scale::Full) => Sizing {
                machines: 140_000,
                days: 3,
            },
            (_, Scale::Full) => Sizing {
                machines: 100_000,
                days: 6,
            },
            (Workload::TrackLogs, Scale::Tiny) => Sizing {
                machines: 3_000,
                days: 3,
            },
            (_, Scale::Tiny) => Sizing {
                machines: 3_000,
                days: 4,
            },
        }
    }
}

/// Where `track_logs` finds its inputs.
#[derive(Debug, Clone)]
pub struct LogFiles {
    /// The TSV query log, every day in one file.
    pub log: PathBuf,
    /// `name<TAB>day-added` blacklist sidecar.
    pub blacklist: PathBuf,
    /// One e2LD per line whitelist sidecar.
    pub whitelist: PathBuf,
}

/// Generator-side costs of one setup, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    /// World build plus warm-up history.
    pub world_s: f64,
    /// Day generation (and the low-churn replay, where used).
    pub gen_s: f64,
    /// Log and sidecar export.
    pub export_s: f64,
}

impl SetupTimings {
    /// The whole setup.
    pub fn total_s(&self) -> f64 {
        self.world_s + self.gen_s + self.export_s
    }
}

/// One workload's generated inputs.
pub struct Setup {
    /// The simulated network: seed lists, history stores and ground truth.
    pub isp: IspNetwork,
    /// The days fed to the tracker from memory; empty for `track_logs`,
    /// whose days reach the tracker through the log file.
    pub days: Vec<DayTraffic>,
    /// Query observations (one log line each) per generated day.
    pub observations: Vec<usize>,
    /// The exported logs, for `track_logs`.
    pub logs: Option<LogFiles>,
    /// What the setup cost.
    pub timings: SetupTimings,
}

/// Generates `workload`'s inputs from `seed`, writing any files under
/// `work_dir`.
///
/// # Errors
///
/// Fails on an I/O error while exporting logs.
pub fn build(workload: Workload, sizing: Sizing, seed: u64, work_dir: &Path) -> io::Result<Setup> {
    let mut timings = SetupTimings::default();
    let clock = Stopwatch::started();
    let mut isp = IspNetwork::new(IspConfig {
        name: "perfbench".to_owned(),
        machines: sizing.machines,
        ..IspConfig::small(seed)
    });
    isp.warm_up(WARMUP_DAYS);
    timings.world_s = clock.seconds();

    let mut observations = Vec::with_capacity(sizing.days);
    let mut days = Vec::with_capacity(sizing.days);
    let mut logs = None;
    if workload == Workload::TrackLogs {
        fs::create_dir_all(work_dir)?;
        let files = LogFiles {
            log: work_dir.join("traffic.log"),
            blacklist: work_dir.join("traffic.log.blacklist"),
            whitelist: work_dir.join("traffic.log.whitelist"),
        };
        let mut out = BufWriter::new(File::create(&files.log)?);
        for _ in 0..sizing.days {
            let clock = Stopwatch::started();
            let traffic = isp.next_day();
            timings.gen_s += clock.seconds();
            let clock = Stopwatch::started();
            observations.push(traffic.queries.len());
            let text = export_day(
                isp.table(),
                traffic.day.0,
                &traffic.queries,
                &traffic.resolutions,
            );
            out.write_all(text.as_bytes())?;
            timings.export_s += clock.seconds();
        }
        let clock = Stopwatch::started();
        out.flush()?;
        write_sidecars(&isp, &files)?;
        timings.export_s += clock.seconds();
        logs = Some(files);
    } else {
        let clock = Stopwatch::started();
        for _ in 0..sizing.days {
            days.push(isp.next_day());
        }
        if workload == Workload::LowChurnDays {
            days = low_churn_days(&days);
        }
        observations.extend(days.iter().map(|d| d.queries.len()));
        timings.gen_s = clock.seconds();
    }
    Ok(Setup {
        isp,
        days,
        observations,
        logs,
        timings,
    })
}

/// The blacklist and whitelist sidecars, in the formats `segugio simulate`
/// writes and `segugio track` reads.
fn write_sidecars(isp: &IspNetwork, files: &LogFiles) -> io::Result<()> {
    let table: &DomainTable = isp.table();
    let mut bl = BufWriter::new(File::create(&files.blacklist)?);
    for (d, added) in isp.commercial_blacklist().iter() {
        writeln!(bl, "{}\t{}", table.name(d), added.0)?;
    }
    bl.flush()?;
    let mut wl = BufWriter::new(File::create(&files.whitelist)?);
    for e in isp.whitelist().iter() {
        writeln!(wl, "{}", table.e2ld_str(e))?;
    }
    wl.flush()
}

/// A low-churn replay of `real`, built the way the `incremental` bench
/// builds it: day 0 is kept verbatim; each later day keeps ~90% of the
/// previous day's distinct edges (a rotating tenth is dropped) and
/// backfills the same count from edges the real later days introduced, in
/// first-seen order, so every referenced domain exists in the generator's
/// tables.
fn low_churn_days(real: &[DayTraffic]) -> Vec<DayTraffic> {
    let Some(first) = real.first() else {
        return Vec::new();
    };
    let key = |&(m, d): &(MachineId, DomainId)| ((m.0 as u64) << 32) | d.0 as u64;
    let mut prev: Vec<(MachineId, DomainId)> = first.queries.clone();
    prev.sort_unstable();
    prev.dedup();
    // Each replay day draws at most a tenth (rounded up) of the kept edge
    // count from the pool, so only that prefix of the first-seen order is
    // ever used.
    let needed = (real.len() - 1) * prev.len().div_ceil(10);
    let mut seen: HashSet<u64> = prev.iter().map(key).collect();
    let mut pool: Vec<(MachineId, DomainId)> = Vec::with_capacity(needed);
    for edge in real[1..].iter().flat_map(|traffic| &traffic.queries) {
        if pool.len() == needed {
            break;
        }
        if seen.insert(key(edge)) {
            pool.push(*edge);
        }
    }
    pool.reverse(); // pop() hands edges out in first-seen order

    let mut days = vec![first.clone()];
    for (t, traffic) in real.iter().enumerate().skip(1) {
        let mut today = Vec::with_capacity(prev.len());
        let mut dropped = 0usize;
        for (i, &edge) in prev.iter().enumerate() {
            if i % 10 == t % 10 {
                dropped += 1;
            } else {
                today.push(edge);
            }
        }
        for _ in 0..dropped {
            if let Some(edge) = pool.pop() {
                today.push(edge);
            }
        }
        today.sort_unstable();
        days.push(DayTraffic {
            day: traffic.day,
            queries: today.clone(),
            resolutions: traffic.resolutions.clone(),
        });
        prev = today;
    }
    days
}

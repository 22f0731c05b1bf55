//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--scale full|tiny]`
//!
//! Prints a provenance line, then one JSON result line, on stdout. Failed
//! output checks are listed on stderr and make `correct` false.

use std::mem::ManuallyDrop;
use std::path::PathBuf;
use std::process::ExitCode;

use segugio_perfbench::{count_allocations, run, Options, Scale, Workload};

/// Scratch files (logs, checkpoints) go here, under the working directory.
const WORK_DIR: &str = ".perfbench-work";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL
        .iter()
        .map(|&w| Workload::cli_name(w))
        .collect();
    Ok(Options {
        workload: workload
            .ok_or_else(|| format!("--workload is required ({})", names.join(", ")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        work_dir: PathBuf::from(WORK_DIR),
    })
}

fn main() -> ExitCode {
    // Never freed: these blocks predate the allocation-counting switch.
    let args = ManuallyDrop::new(std::env::args().skip(1).collect::<Vec<String>>());
    if args.windows(2).any(|w| w[0] == "--trace" && w[1] == "1") {
        count_allocations();
    }
    let outcome = parse(&args).and_then(|opts| run(&opts));
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((spec, value)) = outcome.metrics.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!("perfbench: metric {} is not a number ({value})", spec.name);
        return ExitCode::from(2);
    }
    for (i, pass) in outcome.passes.iter().enumerate() {
        eprintln!("perfbench: pass {}: {pass}", i + 1);
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", outcome.provenance_json());
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}

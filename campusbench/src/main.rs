//! CampusBench command line:
//!
//! ```text
//! campusbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! campusbench --describe
//! ```
//!
//! Prints every metric by name with its unit and better direction, then,
//! as the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A traced run also writes its
//! spans as JSON lines under the cargo target directory.

use campusbench::harness::{peak_rss_mb, run, Report, Scale};
use campusbench::metrics::{describe, END_TO_END, PER_LAYER};
use campusbench::{campus_day::CampusDay, fleet::Fleet, road::Road, store_console::StoreConsole};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = [
    "campus_day",
    "store_console",
    "road_to_deployment",
    "tenant_fleet",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--describe") {
        print!("{}", describe());
        return ExitCode::SUCCESS;
    }
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campusbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One process, worker threads capped at the machine's cores, and the
    // program's default (sequential) simulator engine.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("CAMPUSLAB_JOBS", cores.to_string());
    std::env::remove_var("CAMPUSLAB_SHARDS");

    let (seed, secs, traced, scale) = (args.seed, args.seconds, args.trace, Scale::Full);
    let report: Report = match args.workload.as_str() {
        "campus_day" => run::<CampusDay>(seed, secs, traced, scale),
        "store_console" => run::<StoreConsole>(seed, secs, traced, scale),
        "road_to_deployment" => run::<Road>(seed, secs, traced, scale),
        _ => run::<Fleet>(seed, secs, traced, scale),
    };
    for note in &report.checks.notes {
        eprintln!("campusbench: check failed: {note}");
    }
    if traced {
        let dir = std::path::PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
        )
        .join("campusbench");
        let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, seed));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &report.spans))
        {
            eprintln!(
                "campusbench: could not write spans to {}: {e}",
                path.display()
            );
        }
    }
    println!(
        "workload {} seed {}: {} iterations in {} passes (closed loop, one user)",
        args.workload,
        seed,
        report.iterations.len(),
        report.passes
    );
    for (i, it) in report.iterations.iter().enumerate() {
        println!("  iteration {i}: {} s, {} items", it.secs, it.items);
    }
    for (name, value, unit) in &report.metrics {
        let better = END_TO_END
            .iter()
            .map(|m| (m.name, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.better)))
            .find(|(n, _)| n == name)
            .map_or("?", |(_, b)| b);
        println!("  {name} = {value} {unit} ({better} is better)");
    }
    println!("  peak resident set (VmHWM) = {} MB", peak_rss_mb());
    println!("{}", report.json());
    ExitCode::SUCCESS
}

//! Benchmark command:
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints human-readable notes, then one JSON line with `correct`,
//! `attempted`, `failed` and the metrics: end-to-end ones with
//! `--trace 0`, per-layer ones with `--trace 1`. Containers and traces go
//! under `.perfbench/` in the working directory.

use amric_perfbench::{run, Options, Report, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <nyx_insitu|warpx_temporal|analysis_spill|serve_hot> \
                     --seed <u64> --seconds <secs> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::NyxInsitu,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        inject_fault: false,
        out_dir: PathBuf::from(".perfbench"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    let report = Report::of(&outcome);
    println!(
        "{}: attempted {}, failed {}, failed_share {}, {} cores",
        opts.workload.name(),
        report.attempted,
        report.failed,
        report.failed_share(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!("{}", report.json());
    ExitCode::SUCCESS
}

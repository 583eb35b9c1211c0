//! Command line of the benchmark:
//!
//! ```text
//! calbench --workload NAME --seed N --seconds S --trace 0|1
//!          --serve-bin PATH [--trace-bin PATH] [--root DIR] [--out-dir DIR]
//! ```
//!
//! Prints progress to stderr and, as the last line of stdout, the JSON
//! result.  Exits 1 when any operation failed, 2 on a usage or set-up error.

use calbench::workloads::{self, Args};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve_bin = None;
    let mut trace_bin = None;
    let mut root = PathBuf::from(".");
    let mut out_dir = None;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            "--trace-bin" => trace_bin = Some(PathBuf::from(value()?)),
            "--root" => root = PathBuf::from(value()?),
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let out_dir = out_dir.unwrap_or_else(|| root.join(".bench_out"));
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        trace_bin,
        root,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("calbench: {message}");
            return ExitCode::from(2);
        }
    };
    let report = match workloads::run(&args) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("calbench: {}: {message}", args.workload);
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        eprintln!("calbench: failed: {note}");
    }
    match report.render(args.trace) {
        Ok(line) => {
            println!("{line}");
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("calbench: {message}");
            ExitCode::from(2)
        }
    }
}

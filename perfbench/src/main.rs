//! XKeyword's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload topk_hot --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `topk_hot` — 2 closed-loop connections of top-10 queries over TCP;
//!   the pool holds all the data, every query hits the plan cache.
//! * `all_results_paged` — 2 closed-loop connections walking every
//!   256-row page of all-results (k = 0, z = 7) answers; the pool holds
//!   1/8 of the data.
//! * `ingest_mixed` — 1 top-10 reader connection plus an in-process
//!   writer inserting and deleting documents (2:1) at a fixed rate, with
//!   periodic checkpoints; every write swaps the read view.
//!
//! Every workload ends with a restart from the WAL (`recovery_s`); the
//! read-only ones first run a short closed-loop write probe on the idle
//! server, so the write metrics exist for them too.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics from a traced replay. Every metric is printed by
//! name with its unit and basis, then one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. The exit
//! code is 1 when an output check fails, 2 on a usage error.

#![allow(clippy::disallowed_macros)] // printing is this binary's interface

mod inputs;
mod layers;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use workload::{Opts, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <topk_hot|all_results_paged|ingest_mixed> \
                     --seed <u64> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<(&'static workload::Workload, Opts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 1.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    Ok((
        w,
        Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

/// The revision under test, when the working directory is a git
/// checkout.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn main() {
    let (w, opts) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("# workload = {}", w.name);
    println!("# seed = {}", opts.seed);
    println!("# seconds = {}", opts.seconds);
    println!("# trace = {}", u8::from(opts.trace));
    println!("# git_revision = {}", git_revision());
    println!(
        "# nproc = {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (k, v) in layers::PINNED {
        println!("# pinned {k} = {v}");
    }
    println!(
        "# pool_pages = {}, k = {}, z = {}, page_size = {}, readers = {}, writer = {:?}",
        w.pool_pages, w.k, w.z, w.page_size, w.readers, w.writer
    );

    let report = match workload::run(w, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run aborted: {e}");
            std::process::exit(1);
        }
    };
    for line in &report.info {
        println!("# {line}");
    }
    for c in &report.passed {
        println!("check ok: {c}");
    }
    for c in &report.failures {
        println!("check FAILED: {c}");
    }
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        println!("metric {} = {} {} [{}]", m.name, m.value, m.unit, m.basis);
        if i > 0 {
            metrics.push(',');
        }
        // Names and units are plain ASCII constants: no escaping needed.
        let _ = write!(
            metrics,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

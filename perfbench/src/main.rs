//! The repository benchmark: the SeeSAw workloads of `BENCHMARK.json`,
//! each run as a closed loop with one caller (one job or one machine at a
//! time).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `README.md` beside this package for the metric catalogue.

mod measure;
mod probe;
mod stats;
mod workloads;

use measure::{measure, Metric};
use std::fmt::Write as _;
use workloads::{Scale, Workload, NAMES};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if NAMES.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("expected one of {NAMES:?}"))),
            "--seed" => {
                seed = Some(value.parse().map_err(|_| bad("expected an unsigned integer"))?)
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("expected a finite, non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Worker threads of the `par` pool. One: a closed loop with one caller
/// on one core is the steadiest measure on a shared host, and it does not
/// depend on the host's core count. `par` still runs its code paths.
const THREADS: &str = "1";

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(s, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
    }
    s.push_str("}}");
    s
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Before anything sizes the pool; the process is still single-threaded.
    std::env::set_var("POLIMER_THREADS", THREADS);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} POLIMER_THREADS={THREADS} cores={cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let w = Workload::new(&args.workload, args.seed, Scale::Full).expect("validated workload name");
    let out = measure(&w, Scale::Full, args.seconds, args.trace, &mut |line| println!("{line}"));
    for m in &out.metrics {
        println!("{:<28} {:>22} {}", m.name, m.value, m.unit);
    }
    let finite = out.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<Metric> = out
        .metrics
        .into_iter()
        .map(|m| Metric { value: if m.value.is_finite() { m.value } else { 0.0 }, ..m })
        .collect();
    let correct = finite && out.checker.failed == 0;
    println!("{}", result_line(correct, out.checker.attempted, out.checker.failed, &metrics));
}

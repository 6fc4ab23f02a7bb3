//! Full-Theta scaling benchmark for the event-driven cluster core.
//!
//! Runs the same quiet-noise job once under `StepMode::Auto` (sparse:
//! state-bucketed representatives on the DES queue) and once under
//! `StepMode::Dense` (the reference node-major walk), and reports the
//! sustained synchronization-epoch rate of each. The two runs are
//! byte-identical in results — `tests/event_core.rs` pins that — so this
//! bench only measures speed. Modes are timed interleaved (one round per
//! pass, minimum over passes) so machine noise hits both alike.
//!
//! Results land in `results/BENCH_scale.json` in the unified
//! [`bench::gate`] schema, and the benchmark **exits nonzero** when the
//! sparse epoch rate falls under its floor or the sparse/dense speedup
//! drops below 1 — the bucketed core must never lose to the walk it
//! replaced.
//!
//! Plain timing harness (`harness = false`): the offline build carries no
//! criterion.

use bench::gate::{BenchDoc, Metric};
use insitu::{run_job, JobConfig, StepMode};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;
use std::hint::black_box;
use std::time::Instant;

/// Absolute floor on the sparse epoch rate, epochs per second of wall
/// time. The reference host sustains hundreds per second at full-Theta
/// width; the floor guards order-of-magnitude regressions (an O(nodes)
/// touch sneaking back into the hot loop), not host-to-host drift.
const EPOCHS_PER_S_MIN: f64 = 20.0;

/// The sparse core must never be slower than the dense walk at scale.
const SPEEDUP_MIN: f64 = 1.0;

fn cfg(nodes: usize, steps: u64, step: StepMode) -> JobConfig {
    let mut spec = WorkloadSpec::paper(48, nodes, 1, &[K::Rdf, K::Vacf]);
    spec.total_steps = steps;
    JobConfig::new(spec, "seesaw").with_quiet_noise().with_step(step)
}

/// Wall time of one call to `f`, in seconds.
fn time_s(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

fn metric(name: &str, value: f64, unit: &str, min: Option<f64>, tol: Option<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
        min,
        max: None,
        tolerance_pct: tol,
    }
}

fn main() {
    let rep = obs::Reporter::default();
    let quick = bench::quick_mode();
    // Full profile runs the paper's machine width (Theta: 4392 nodes).
    let (nodes, steps, passes) = if quick { (1024, 30, 3) } else { (4392, 40, 3) };

    let run = |step: StepMode| {
        let r = run_job(cfg(nodes, steps, step)).expect("known controller");
        assert_eq!(r.syncs.len() as u64, steps, "job must run every sync");
        black_box(r);
    };

    // Warm-up, then interleaved rounds; each mode keeps its fastest pass.
    run(StepMode::Auto);
    let (mut sparse_s, mut dense_s) = (f64::MAX, f64::MAX);
    for _ in 0..passes {
        sparse_s = sparse_s.min(time_s(|| run(StepMode::Auto)));
        dense_s = dense_s.min(time_s(|| run(StepMode::Dense)));
    }

    let epochs = steps as f64;
    let sparse_rate = epochs / sparse_s;
    let dense_rate = epochs / dense_s;
    let speedup = dense_s / sparse_s;
    println!(
        "scale/sparse {nodes:>5} nodes {steps:>3} epochs  {:>8.3} s  ({sparse_rate:>8.1} epochs/s)",
        sparse_s
    );
    println!(
        "scale/dense  {nodes:>5} nodes {steps:>3} epochs  {:>8.3} s  ({dense_rate:>8.1} epochs/s)",
        dense_s
    );
    println!("scale/speedup sparse vs dense: {speedup:.2}x");

    // Wall-clock minima are noisy across hosts → floors only where we make
    // a hard promise, no drift tolerance.
    let doc = BenchDoc {
        bench: "scale".to_string(),
        profile: if quick { "quick" } else { "full" }.to_string(),
        metrics: vec![
            metric("sparse_s", sparse_s, "s", None, None),
            metric("dense_s", dense_s, "s", None, None),
            metric("epochs_per_s_sparse", sparse_rate, "epochs/s", Some(EPOCHS_PER_S_MIN), None),
            metric("epochs_per_s_dense", dense_rate, "epochs/s", None, None),
            metric("speedup_sparse_x", speedup, "x", Some(SPEEDUP_MIN), None),
        ],
    };
    bench::write_doc(&rep, &bench::results_dir(), "BENCH_scale.json", &doc.to_json());

    let fails = doc.check_bounds();
    if !fails.is_empty() {
        for f in &fails {
            eprintln!("{f}");
        }
        std::process::exit(1);
    }
}

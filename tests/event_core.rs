//! The event-driven cluster core's contract: `StepMode::Auto` (bucketed,
//! DES-queue-driven) stepping is **byte-identical** to the dense
//! reference walk — same results, same serialized trace — in the runtime
//! and in time-shared mode, and node history stays O(1) per node over
//! arbitrarily long runs.

use des::SimTime;
use insitu::{
    run_job_traced, run_time_shared, FaultEvent, FaultKind, FaultPlan, JobConfig, RunResult,
    Runtime, StepMode,
};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;
use obs::Tracer;

fn quiet_cfg(nodes: usize, steps: u64) -> JobConfig {
    let mut spec = WorkloadSpec::paper(16, nodes, 1, &[K::Rdf, K::Vacf]);
    spec.total_steps = steps;
    JobConfig::new(spec, "seesaw").with_quiet_noise()
}

/// Run `cfg` under the given step mode with a buffering tracer; return
/// the result and the serialized JSONL trace.
fn traced(cfg: JobConfig, step: StepMode) -> (RunResult, String) {
    let tracer = Tracer::enabled();
    let r = run_job_traced(cfg.with_step(step), &tracer).expect("known controller");
    let jsonl = tracer.to_jsonl();
    (r, jsonl)
}

/// Field-by-field equality of the pieces that matter, bitwise on floats.
fn assert_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.total_time_s.to_bits(), b.total_time_s.to_bits(), "total time diverged");
    assert_eq!(a.total_energy_j.to_bits(), b.total_energy_j.to_bits(), "total energy diverged");
    assert_eq!(a.syncs, b.syncs, "per-sync records diverged");
    assert_eq!(a.fault_events, b.fault_events, "fault logs diverged");
    assert_eq!(a.recovery_events, b.recovery_events, "recovery logs diverged");
}

#[test]
fn sparse_equals_dense_on_a_quiet_run() {
    let (sparse, sparse_trace) = traced(quiet_cfg(12, 30), StepMode::Auto);
    let (dense, dense_trace) = traced(quiet_cfg(12, 30), StepMode::Dense);
    assert_identical(&sparse, &dense);
    assert!(!sparse_trace.is_empty());
    assert_eq!(sparse_trace, dense_trace, "serialized traces diverged");
}

#[test]
fn sparse_equals_dense_under_faults() {
    // Stragglers split the stretch buckets, a crash shrinks a partition
    // mid-run, RAPL faults diverge one node's actuator state, and sample
    // corruption exercises the feedback path.
    let plan = FaultPlan::from_events(vec![
        FaultEvent { sync: 3, node: 1, kind: FaultKind::Straggler { factor: 1.7 } },
        FaultEvent { sync: 5, node: 2, kind: FaultKind::RaplStuck },
        FaultEvent { sync: 8, node: 9, kind: FaultKind::NodeCrash },
        FaultEvent { sync: 11, node: 4, kind: FaultKind::SampleNan },
        FaultEvent { sync: 14, node: 3, kind: FaultKind::RaplDelayed { extra_s: 0.002 } },
    ]);
    let cfg = || quiet_cfg(12, 30).with_faults(plan.clone());
    let (sparse, sparse_trace) = traced(cfg(), StepMode::Auto);
    let (dense, dense_trace) = traced(cfg(), StepMode::Dense);
    assert!(!sparse.fault_events.is_empty(), "plan must actually fire");
    assert_identical(&sparse, &dense);
    assert_eq!(sparse_trace, dense_trace, "serialized traces diverged");
}

#[test]
fn sparse_equals_dense_below_the_power_cliff() {
    // Caps below CLIFF_START_W put every node in the straggler lottery
    // (sigma_scale > 1), which the sparse core must walk densely in node
    // order to keep the shared RNG stream aligned.
    let cfg = || quiet_cfg(8, 20).with_budget(95.0).with_initial_caps(95.0, 95.0);
    let (sparse, sparse_trace) = traced(cfg(), StepMode::Auto);
    let (dense, dense_trace) = traced(cfg(), StepMode::Dense);
    assert_identical(&sparse, &dense);
    assert_eq!(sparse_trace, dense_trace, "serialized traces diverged");
}

#[test]
fn auto_falls_back_to_dense_on_a_noisy_run() {
    // Under default noise every node draws, so Auto buckets nothing and
    // must walk exactly what Dense walks; this trips if a change ever
    // buckets a node that consumes the jitter stream.
    let mut spec = WorkloadSpec::paper(16, 8, 1, &[K::Vacf]);
    spec.total_steps = 20;
    let cfg = || JobConfig::new(spec.clone(), "seesaw");
    let (sparse, sparse_trace) = traced(cfg(), StepMode::Auto);
    let (dense, dense_trace) = traced(cfg(), StepMode::Dense);
    assert_identical(&sparse, &dense);
    assert_eq!(sparse_trace, dense_trace, "serialized traces diverged");
}

#[test]
fn time_shared_honours_quiet_noise_and_step_mode() {
    // A quiet time-shared run draws nothing, so the seed cannot matter,
    // and bucketed (Auto) stepping must match the dense walk bit for bit.
    let cfg = |job| {
        let mut spec = WorkloadSpec::paper(16, 8, 1, &[K::Vacf]);
        spec.total_steps = 20;
        JobConfig::new(spec, "static").with_quiet_noise().with_seed(job, 0)
    };
    let a = run_time_shared(cfg(1));
    let b = run_time_shared(cfg(2));
    assert_identical(&a, &b);
    let dense = run_time_shared(cfg(1).with_step(StepMode::Dense));
    assert_identical(&a, &dense);
    // With noise on, the seed does move the run.
    let noisy = |job| JobConfig { quiet_noise: false, ..cfg(job) };
    assert_ne!(run_time_shared(noisy(1)).total_time_s, run_time_shared(noisy(2)).total_time_s);
}

#[test]
fn node_history_is_constant_over_ten_thousand_intervals() {
    let mut spec = WorkloadSpec::paper(16, 8, 1, &[K::Vacf]);
    spec.total_steps = 10_000;
    let mut rt =
        Runtime::new(JobConfig::new(spec, "seesaw").with_quiet_noise()).expect("known controller");
    let nodes = 8;
    // Generous per-node constant: one interval's phases + waits + the
    // retained governing sample. The point is O(1) per node, not the
    // exact figure.
    let per_node_cap = 64;
    let mut peak = 0usize;
    let mut intervals = 0u64;
    while rt.step_sync() {
        rt.compact_history();
        peak = peak.max(rt.history_segments());
        intervals += 1;
    }
    assert_eq!(intervals, 10_000);
    assert!(
        peak <= per_node_cap * nodes,
        "history grew with run length: peak {peak} segments across {nodes} nodes"
    );
    let r = rt.finish();
    assert_eq!(r.syncs.len(), 10_000);
    assert!(r.total_energy_j > 0.0 && r.total_energy_j.is_finite());
}

#[test]
fn compacted_energy_matches_uncompacted_bit_for_bit() {
    // The same job stepped with and without between-interval compaction
    // must report bitwise-equal energy totals (the seeded fold replays
    // the reference op sequence exactly).
    let mk = || {
        let mut spec = WorkloadSpec::paper(16, 8, 1, &[K::Rdf]);
        spec.total_steps = 200;
        Runtime::new(JobConfig::new(spec, "seesaw")).expect("known controller")
    };
    let mut compacted = mk();
    while compacted.step_sync() {
        compacted.compact_history();
    }
    let mut plain = mk();
    while plain.step_sync() {}
    assert!(compacted.history_segments() < plain.history_segments());
    let e_compacted = compacted.energy_since(SimTime::ZERO);
    let e_plain = plain.energy_since(SimTime::ZERO);
    assert_eq!(e_compacted.to_bits(), e_plain.to_bits());
    let (a, b) = (compacted.finish(), plain.finish());
    assert_eq!(a.total_energy_j.to_bits(), b.total_energy_j.to_bits());
    assert_eq!(a.syncs, b.syncs);
}

//! Determinism and round-trip gates for the `obs` tracing subsystem.
//!
//! Traces are keyed on simulated time, so the serialized JSONL of a
//! fixed-seed run must be **byte-identical** across repeats and across
//! `POLIMER_THREADS` settings — the same contract PR 1/PR 2 established
//! for results. These tests also gate the zero-behavioural-footprint
//! property (tracing on/off never changes what the run computes) and the
//! exporters' well-formedness: every line must round-trip
//! **byte-for-byte** through the strict [`obs::TraceEvent::parse_line`],
//! every tag the stack emits must resolve through [`obs::vocab`], and the
//! Chrome-trace document must parse under [`obs::json`] with monotone
//! timestamps.

use audit::{StreamAuditor, Trace};
use insitu::{
    run_job, run_job_traced, run_paired, run_paired_traced, FaultEvent, FaultKind, FaultPlan,
    JobConfig, RecoveryKind,
};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind;
use obs::{chrome_trace, vocab, DecisionInfo, Event, TraceEvent, Tracer};
use std::sync::{Arc, Mutex};

fn quick_cfg(controller: &str) -> JobConfig {
    let mut spec = WorkloadSpec::paper(16, 8, 1, &[AnalysisKind::Vacf]);
    spec.total_steps = 40;
    JobConfig::new(spec, controller)
}

/// JSONL trace of one fixed-seed run at a given worker-pool size.
fn trace_at(threads: usize) -> String {
    par::with_threads(threads, || {
        let tracer = Tracer::enabled();
        run_job_traced(quick_cfg("seesaw"), &tracer).expect("known controller");
        tracer.to_jsonl()
    })
}

#[test]
fn jsonl_trace_byte_identical_across_thread_counts() {
    let serial = trace_at(1);
    assert!(!serial.is_empty(), "traced run must record events");
    for threads in [2, 4] {
        assert_eq!(serial, trace_at(threads), "trace drifted at T={threads}");
    }
}

#[test]
fn jsonl_trace_byte_identical_across_repeats() {
    assert_eq!(trace_at(1), trace_at(1), "same-seed repeat must serialize identically");
}

#[test]
fn paired_trace_byte_identical_across_thread_counts() {
    let paired = |threads: usize| {
        par::with_threads(threads, || {
            let tracer = Tracer::enabled();
            run_paired_traced(&quick_cfg("seesaw"), &tracer).expect("known controller");
            tracer.to_jsonl()
        })
    };
    let serial = paired(1);
    assert!(!serial.is_empty());
    assert_eq!(serial, paired(4), "paired trace drifted at T=4");
}

#[test]
fn tracing_has_zero_behavioural_footprint() {
    // The traced run must compute bit-for-bit the same result as the
    // untraced run: tracing only observes, never perturbs.
    let plain = run_job(quick_cfg("seesaw")).expect("known controller");
    let traced = run_job_traced(quick_cfg("seesaw"), &Tracer::enabled()).expect("known controller");
    assert_eq!(plain.total_time_s.to_bits(), traced.total_time_s.to_bits());
    assert_eq!(plain.total_energy_j.to_bits(), traced.total_energy_j.to_bits());
    assert_eq!(plain.syncs, traced.syncs);
    // And run_paired's default path is the off-tracer path.
    let (ctl, _) = run_paired(&quick_cfg("seesaw")).expect("known controller");
    assert_eq!(ctl.total_time_s.to_bits(), plain.total_time_s.to_bits());
}

#[test]
fn traced_run_summary_comes_from_the_audit_registry() {
    // The one metrics fold is the audit registry, fed live from the
    // tracer's subscriber seam; the run result carries no summary.
    let auditor = Arc::new(Mutex::new(StreamAuditor::new()));
    let tracer = Tracer::streaming();
    tracer.attach(Box::new(Arc::clone(&auditor)));
    let r = run_job_traced(quick_cfg("seesaw"), &tracer).expect("known controller");
    drop(tracer);
    let out = Arc::try_unwrap(auditor).expect("sole owner").into_inner().unwrap().finish();
    let reg = &out.registry;
    assert_eq!(reg.counter_value("syncs"), r.syncs.len() as u64);
    assert!(reg.counter_value("samples") > 0, "power samples recorded");
    assert!(reg.get_histogram("phase_ns").is_some_and(|h| h.count > 0), "phase spans recorded");
    assert!(reg.get_histogram("wait_ns").is_some(), "wait histogram recorded");
    assert!(reg.counter_value("events") > reg.counter_value("samples"));
    assert_eq!(out.report.events, reg.counter_value("events"));
    assert!(out.report.clean(), "{:?}", out.report.violations);
}

#[test]
fn injected_faults_appear_on_the_trace() {
    let plan =
        FaultPlan::from_events(vec![FaultEvent { sync: 2, node: 3, kind: FaultKind::SampleNan }]);
    let tracer = Tracer::enabled();
    run_job_traced(quick_cfg("seesaw").with_faults(plan), &tracer).expect("known controller");
    let jsonl = tracer.to_jsonl();
    assert!(jsonl.contains("\"ev\":\"fault\""), "fault event missing");
    assert!(jsonl.contains("\"tag\":\"sample_nan\""), "fault tag missing");
    assert!(jsonl.contains("\"ev\":\"recovery\""), "recovery event missing");
    assert!(jsonl.contains("\"ev\":\"sample_rejected\""), "plausibility gate missing");
}

/// One instance of every event variant, for schema round-trips. Keep in
/// sync with `obs::Event` — the count assertion below fails when a new
/// variant is added here or there alone.
fn one_of_each() -> Vec<TraceEvent> {
    let evs = vec![
        Event::RunStart {
            sim_nodes: 6,
            analysis_nodes: 2,
            budget_w: 1280.0,
            min_cap_w: 98.0,
            max_cap_w: 215.0,
            actuation_ns: 10_000_000,
        },
        Event::SyncStart { sync: 1 },
        Event::Arrival { sync: 1, node: 0, role: "sim", time_s: 1.25 },
        Event::Rendezvous { sync: 1, sim_time_s: 1.25, analysis_time_s: 1.0, slack: 0.2 },
        Event::SyncEnd { sync: 1, overhead_s: 0.01 },
        Event::SyncEnergy { sync: 1, energy_j: 1034.5 },
        Event::NodeEnergy { node: 0, energy_j: 250.25 },
        Event::RunEnd { total_time_s: 52.5, total_energy_j: 41_380.0 },
        Event::Phase { node: 0, kind: "force", start_ns: 0, end_ns: 1_000 },
        Event::Wait { node: 1, start_ns: 1_000, end_ns: 2_000 },
        Event::CapRequest { node: 0, requested_w: 120.0, granted_w: 118.5, effective_ns: 3_000 },
        Event::Sample { node: 0, role: "sim", time_s: 1.25, power_w: 109.5, cap_w: 110.0 },
        Event::SampleRejected { node: 2 },
        Event::ExchangeDone { sync: 1, overhead_s: 0.001, decided: true },
        Event::MonitorReelected { node: 2, new_rank: 5 },
        Event::NodeExcluded { node: 3 },
        Event::BudgetRenormalized { budget_w: 330.0 },
        Event::AllocationHeld { sync: 2 },
        Event::Decision(Box::new(DecisionInfo {
            sync: 1,
            sim_nodes: 6,
            analysis_nodes: 2,
            alpha_sim: 2.2e-3,
            alpha_analysis: 4.5e-3,
            p_opt_sim_w: 140.0,
            p_opt_analysis_w: 80.0,
            blend_sim_w: 130.0,
            blend_analysis_w: 90.0,
            sim_node_w: 122.0,
            analysis_node_w: 98.0,
            clamped: true,
        })),
        Event::ControllerHold { sync: 1, reason: "corrupt_sample" },
        Event::MachineStart { nodes: 64, envelope_w: 8000.0 },
        Event::JobArrived { job: 0 },
        Event::JobStarted { job: 0, nodes: 8, budget_w: 1280.0 },
        Event::JobCompleted { job: 0, time_s: 52.5 },
        Event::JobKilled { job: 1 },
        Event::MachineBudget { epoch: 3, allocated_w: 7500.0, pool_w: 500.0 },
        Event::FleetStart {
            machines: 3,
            envelope_w: 2100.0,
            retry_base_epochs: 1,
            retry_cap_epochs: 8,
            max_retries: 3,
        },
        Event::MachineDown { machine: 1, epoch: 4 },
        Event::MachineUp { machine: 1, epoch: 9 },
        Event::JobDispatched { job: 2, machine: 0 },
        Event::JobRetry { job: 2, attempt: 1, backoff_epochs: 1 },
        Event::JobMigrated { job: 2, from_machine: 1, to_machine: 0 },
        Event::JobFailed { job: 5, attempts: 4 },
        Event::EnvelopeRenorm { epoch: 4, machine: 0, share_w: 1050.5, cap_w: 1100.0 },
        Event::Fault { sync: 0, node: 1, tag: "node_crash" },
        Event::Recovery { sync: 0, node: 1, tag: "budget_renormalized" },
    ];
    evs.into_iter()
        .enumerate()
        .map(|(i, ev)| TraceEvent { t: des::SimTime::from_nanos(i as u64 * 500), ev })
        .collect()
}

#[test]
fn every_event_variant_round_trips_byte_for_byte() {
    let all = one_of_each();
    let mut tags: Vec<&str> = all.iter().map(|te| te.ev.tag()).collect();
    tags.sort_unstable();
    let mut want = Event::TAGS.to_vec();
    want.sort_unstable();
    assert_eq!(tags, want, "one_of_each must cover every obs::Event variant once");
    for te in all {
        let line = te.to_json_line();
        let parsed =
            TraceEvent::parse_line(&line).unwrap_or_else(|e| panic!("parser rejected {line}: {e}"));
        assert_eq!(parsed.t, te.t, "timestamp drifted: {line}");
        assert_eq!(parsed.to_json_line(), line, "round trip not byte-identical");
        assert!(line.contains(&format!("\"ev\":\"{}\"", te.ev.tag())), "tag missing: {line}");
        assert!(line.starts_with(&format!("{{\"t\":{}", te.t.as_nanos())), "t missing: {line}");
    }
}

#[test]
fn audit_parser_rejects_schema_drift() {
    // The parser is strict: reordered, missing, or extra fields — the
    // classic silent-schema-drift failure modes — are all errors.
    assert!(TraceEvent::parse_line(r#"{"t":0,"ev":"sync_start","sync":1}"#).is_ok());
    assert!(TraceEvent::parse_line(r#"{"ev":"sync_start","t":0,"sync":1}"#).is_err(), "reordered");
    assert!(TraceEvent::parse_line(r#"{"t":0,"ev":"sync_start"}"#).is_err(), "missing field");
    assert!(
        TraceEvent::parse_line(r#"{"t":0,"ev":"sync_start","sync":1,"x":2}"#).is_err(),
        "extra field"
    );
    assert!(TraceEvent::parse_line(r#"{"t":0,"ev":"no_such_event"}"#).is_err(), "unknown tag");
}

#[test]
fn every_emitted_tag_resolves_through_the_obs_vocabulary() {
    // Exhaustive matches: a new variant fails to compile here until it
    // is listed below (and in `obs::vocab`).
    let fault = |k: FaultKind| match k {
        FaultKind::NodeCrash
        | FaultKind::Straggler { .. }
        | FaultKind::RaplStuck
        | FaultKind::RaplDelayed { .. }
        | FaultKind::RaplWriteError
        | FaultKind::SampleNan
        | FaultKind::SampleSpike { .. }
        | FaultKind::SampleDropout
        | FaultKind::MonitorDeath
        | FaultKind::MessageLoss
        | FaultKind::CollectiveTimeout { .. } => k.tag(),
    };
    let faults = [
        FaultKind::NodeCrash,
        FaultKind::Straggler { factor: 3.0 },
        FaultKind::RaplStuck,
        FaultKind::RaplDelayed { extra_s: 0.5 },
        FaultKind::RaplWriteError,
        FaultKind::SampleNan,
        FaultKind::SampleSpike { factor: 50.0 },
        FaultKind::SampleDropout,
        FaultKind::MonitorDeath,
        FaultKind::MessageLoss,
        FaultKind::CollectiveTimeout { failures: 2 },
    ];
    let recovery = |k: RecoveryKind| match k {
        RecoveryKind::MonitorReelected
        | RecoveryKind::NodeExcluded
        | RecoveryKind::BudgetRenormalized
        | RecoveryKind::SampleRejected
        | RecoveryKind::AllocationHeld
        | RecoveryKind::CapWriteRetried
        | RecoveryKind::CollectiveRetried => k.tag(),
    };
    let recoveries = [
        RecoveryKind::MonitorReelected,
        RecoveryKind::NodeExcluded,
        RecoveryKind::BudgetRenormalized,
        RecoveryKind::SampleRejected,
        RecoveryKind::AllocationHeld,
        RecoveryKind::CapWriteRetried,
        RecoveryKind::CollectiveRetried,
    ];
    let mut phases: Vec<theta_sim::PhaseKind> = theta_sim::PhaseKind::all_productive().to_vec();
    phases.push(theta_sim::PhaseKind::Wait);
    let roles = [seesaw::Role::Simulation, seesaw::Role::Analysis];
    let cases: [(&str, Vec<&str>, &'static [&'static str]); 5] = [
        ("phase kind", phases.iter().map(|k| k.tag()).collect(), vocab::PHASE_KINDS),
        ("fault tag", faults.map(fault).to_vec(), vocab::FAULT_TAGS),
        ("recovery tag", recoveries.map(recovery).to_vec(), vocab::RECOVERY_TAGS),
        ("role", roles.map(|r| r.tag()).to_vec(), vocab::ROLES),
        ("hold reason", vec!["corrupt_sample", "degenerate_feedback"], vocab::HOLD_REASONS),
    ];
    for (what, tags, words) in cases {
        for tag in &tags {
            assert_eq!(vocab::resolve(words, tag), Some(*tag), "{what} {tag:?} not in obs::vocab");
        }
        assert_eq!(tags.len(), words.len(), "obs::vocab lists a {what} nothing emits");
        assert_eq!(vocab::resolve(words, "no_such_tag"), None);
    }
    // Through the parser: a vocabulary word parses, anything else is
    // refused like an unknown field.
    let line =
        |tag: &str| format!("{{\"t\":0,\"ev\":\"fault\",\"sync\":1,\"node\":0,\"tag\":\"{tag}\"}}");
    for k in faults {
        assert!(TraceEvent::parse_line(&line(k.tag())).is_ok(), "{}", k.tag());
    }
    assert!(TraceEvent::parse_line(&line("no_such_tag")).is_err());
    assert!(TraceEvent::parse_line(&line("node_excluded")).is_err(), "a recovery tag is no fault");
}

/// Pull every `"ts":<number>` out of a Chrome-trace document, in order.
fn ts_values(doc: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some(i) = rest.find("\"ts\":") {
        let tail = &rest[i + 5..];
        let end = tail.find([',', '}']).expect("number terminated");
        out.push(tail[..end].parse::<f64>().expect("numeric ts"));
        rest = &tail[end..];
    }
    out
}

#[test]
fn perfetto_export_is_valid_json_with_monotone_timestamps() {
    let doc = chrome_trace(&one_of_each());
    obs::json::parse(&doc).expect("chrome trace must be valid JSON");
    let ts = ts_values(&doc);
    assert!(!ts.is_empty(), "export has timestamped entries");
    for w in ts.windows(2) {
        assert!(w[0] <= w[1], "ts not monotone: {} then {}", w[0], w[1]);
    }
}

#[test]
fn perfetto_export_of_a_real_run_has_cap_and_phase_lanes() {
    let tracer = Tracer::enabled();
    run_job_traced(quick_cfg("seesaw"), &tracer).expect("known controller");
    let doc = chrome_trace(&tracer.events());
    let v = obs::json::parse(&doc).expect("chrome trace must be valid JSON");
    let entries = v
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("chrome trace carries a traceEvents array");
    assert!(entries.len() > 100, "expected a dense export, got {} entries", entries.len());
    // Phase activity lanes (complete spans) and per-node cap counters.
    assert!(doc.contains("\"ph\":\"X\""), "phase spans missing");
    assert!(doc.contains("\"name\":\"cap_w\""), "cap counter track missing");
    assert!(doc.contains("\"name\":\"power_w\""), "power counter track missing");
    assert!(doc.contains("\"name\":\"process_name\""), "process metadata missing");
    assert!(doc.contains("controller"), "controller lane missing");
    let ts = ts_values(&doc);
    for w in ts.windows(2) {
        assert!(w[0] <= w[1], "ts not monotone: {} then {}", w[0], w[1]);
    }
}

#[test]
fn trace_jsonl_parses_strictly_and_round_trips() {
    let tracer = Tracer::enabled();
    run_job_traced(quick_cfg("seesaw"), &tracer).expect("known controller");
    let jsonl = tracer.to_jsonl();
    let trace = Trace::parse_jsonl(&jsonl).expect("strict parse of a real trace");
    assert!(trace.len() > 100, "expected a dense trace, got {} events", trace.len());
    assert_eq!(trace.to_jsonl(), jsonl, "whole-trace round trip not byte-identical");
    // The in-memory tap must agree with the serialized path.
    assert_eq!(Trace::from_tracer(&tracer).events, trace.events);
}

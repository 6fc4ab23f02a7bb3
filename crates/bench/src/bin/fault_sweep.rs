//! Fault sweep: how much of SeeSAw's improvement over the static baseline
//! survives as fault intensity rises.
//!
//! For each intensity `x` a deterministic [`FaultPlan`] is generated
//! (fixed seed, [`FaultIntensity::scaled`] profile mixing node crashes,
//! stragglers, RAPL actuation faults, corrupt samples, monitor deaths and
//! exchange faults) and the *same plan* is injected into both the SeeSAw
//! run and its paired static baseline — so the comparison isolates the
//! controller's resilience, not its luck. Output is deterministic:
//! `scripts/verify.sh` runs this binary twice and diffs the JSON.

use bench::{cli, print_table, total_steps, write_json};
use insitu::{improvement_pct, run_job, FaultIntensity, FaultPlan, JobConfig, RunResult};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;

/// Seed for every plan in the sweep (one knob, reproducible runs).
const PLAN_SEED: u64 = 0xFA17;

struct Row {
    intensity: f64,
    faults_injected: usize,
    recoveries: usize,
    fault_kinds: usize,
    seesaw_time_s: f64,
    static_time_s: f64,
    improvement_pct: f64,
}
obs::json_struct!(Row {
    intensity,
    faults_injected,
    recoveries,
    fault_kinds,
    seesaw_time_s,
    static_time_s,
    improvement_pct,
});

fn run_with_plan(cfg: &JobConfig, controller: &str, run_seed_bump: u64) -> RunResult {
    let mut c = cfg.clone();
    c.controller = controller.to_string();
    c.seed.run += run_seed_bump;
    run_job(c).expect("known controller")
}

fn main() {
    let args = cli::CommonArgs::parse("fault_sweep");
    let rep = args.reporter();
    let intensities: &[f64] =
        if args.quick { &[0.0, 0.5, 1.0] } else { &[0.0, 0.1, 0.25, 0.5, 0.75, 1.0] };
    let mut spec = WorkloadSpec::paper(16, 8, 1, &[K::Vacf]);
    spec.total_steps = total_steps(args.quick);
    let nodes = spec.nodes_total();
    let syncs = spec.sync_count();
    let base_cfg = JobConfig::new(spec, "seesaw");

    // Flatten intensity × {seesaw, static} into one task list and dispatch
    // it across the worker pool. Every task regenerates its plan from
    // PLAN_SEED and its own intensity, so results depend only on the task
    // index — the rows assembled below (in intensity order) are
    // byte-identical to the serial sweep at any thread count.
    let tasks: Vec<(f64, &str, u64)> =
        intensities.iter().flat_map(|&x| [(x, "seesaw", 0u64), (x, "static", 1u64)]).collect();
    let results = par::global().par_map_indexed(tasks.len(), |t| {
        let (x, controller, bump) = tasks[t];
        let plan = FaultPlan::generate(PLAN_SEED, &FaultIntensity::scaled(x), nodes, syncs);
        let cfg = base_cfg.clone().with_faults(plan);
        // Same placement, same plan; consecutive run seeds as in
        // `run_paired` (paper §VII-A).
        run_with_plan(&cfg, controller, bump)
    });

    let mut rows = Vec::new();
    for (k, &x) in intensities.iter().enumerate() {
        let ctl = &results[2 * k];
        let base = &results[2 * k + 1];
        rows.push(Row {
            intensity: x,
            faults_injected: ctl.fault_events.len(),
            recoveries: ctl.recovery_events.len(),
            fault_kinds: ctl.fault_tags().len(),
            seesaw_time_s: ctl.total_time_s,
            static_time_s: base.total_time_s,
            improvement_pct: improvement_pct(base.total_time_s, ctl.total_time_s),
        });
    }

    rep.say("Fault sweep — SeeSAw vs static under injected faults, 8 nodes, dim 16");
    rep.blank();
    print_table(
        &rep,
        &["intensity", "faults", "recoveries", "kinds", "seesaw s", "static s", "improvement %"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.2}", r.intensity),
                    format!("{}", r.faults_injected),
                    format!("{}", r.recoveries),
                    format!("{}", r.fault_kinds),
                    format!("{:.1}", r.seesaw_time_s),
                    format!("{:.1}", r.static_time_s),
                    format!("{:+.2}", r.improvement_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    rep.blank();
    rep.say("At intensity 0 the run is byte-identical to the fault-free path; as");
    rep.say("intensity rises both runs degrade under the same plan and the retained");
    rep.say("improvement shows how gracefully the controller's feedback loop fails.");
    let series = bench::svg::Series::new(
        "improvement retained",
        "#d62728",
        rows.iter().map(|r| (r.intensity, r.improvement_pct)).collect(),
    );
    bench::svg::write_svg(
        &rep,
        "fault_sweep",
        &bench::svg::line_chart(
            "Fault sweep — SeeSAw improvement vs fault intensity",
            "fault intensity",
            "improvement over static (%)",
            &[series],
        ),
    );
    write_json(&rep, "fault_sweep", &rows);

    // Representative traced run (max intensity), after the sweep so the
    // sweep's JSON stays byte-identical whether or not tracing is on.
    let x = *intensities.last().expect("non-empty sweep");
    let plan = FaultPlan::generate(PLAN_SEED, &FaultIntensity::scaled(x), nodes, syncs);
    cli::export_trace("fault_sweep", &args, &rep, &base_cfg.clone().with_faults(plan));
}

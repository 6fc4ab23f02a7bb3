//! Fleet chaos soak: what does machine loss cost a federated fleet, and
//! how fast does it recover?
//!
//! Seeded machine-fault storms (crash / partition / slow / mixed) hit
//! fleets of 2 and 3 machines under every governor policy. The job
//! stream, the storm, and the scheduler are all pure functions of the
//! scenario seed, so every cell is replayable and `scripts/verify.sh`
//! diffs the JSON (and the traced run's audit report) across thread
//! counts. Each row aggregates three seeds; the baseline `none` storm
//! rows give the no-fault makespan and goodput the others are read
//! against.

use bench::{cli, print_table, total_steps, write_json};
use faults::{MachineFaultIntensity, MachineFaultPlan};
use fleet::{Fleet, FleetSpec, JobStream};
use insitu::JobConfig;
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;
use sched::{MachineSpec, Policy};

const SEEDS: [u64; 3] = [1, 2, 3];
const STORM_EPOCHS: u64 = 40;
const JOBS_PER_RUN: u64 = 6;
const ARRIVAL_HORIZON_EPOCHS: u64 = 6;

/// The storm menu: one no-fault baseline plus one storm per fault kind
/// and the mixed weather profile.
fn storms() -> Vec<(&'static str, MachineFaultIntensity)> {
    vec![
        ("none", MachineFaultIntensity::none()),
        ("crash", MachineFaultIntensity { crash: 0.1, partition: 0.0, slow: 0.0 }),
        ("partition", MachineFaultIntensity { crash: 0.0, partition: 0.06, slow: 0.0 }),
        ("slow", MachineFaultIntensity { crash: 0.0, partition: 0.0, slow: 0.08 }),
        ("mixed", MachineFaultIntensity::storm(1.0)),
    ]
}

struct Row {
    storm: String,
    machines: usize,
    policy: String,
    jobs: usize,
    completed: usize,
    failed: usize,
    retries: u64,
    migrations: u64,
    makespan_s: f64,
    goodput: f64,
    mean_recovery_epochs: f64,
    total_energy_j: f64,
}
obs::json_struct!(Row {
    storm,
    machines,
    policy,
    jobs,
    completed,
    failed,
    retries,
    migrations,
    makespan_s,
    goodput,
    mean_recovery_epochs,
    total_energy_j,
});

/// A 4-node job with its own deterministic seed.
fn job(seed: u64, steps: u64) -> JobConfig {
    let mut spec = WorkloadSpec::paper(16, 4, 1, &[K::Vacf]);
    spec.total_steps = steps;
    JobConfig::new(spec, "seesaw").with_seed(seed, 0)
}

fn fleet_spec(machines: usize, policy: Policy) -> FleetSpec {
    let members = (0..machines)
        .map(|_| {
            let mut s = MachineSpec::new(8, 1100.0, policy);
            s.syncs_per_epoch = 4;
            s
        })
        .collect();
    // Contended: below `machines × 1100 W`, so the renormalized shares
    // actually bind and losing a member reshapes every survivor.
    let mut spec = FleetSpec::new(members, 900.0 * machines as f64);
    spec.max_epochs = 400;
    spec
}

fn build(
    seed: u64,
    steps: u64,
    machines: usize,
    policy: Policy,
    storm: &MachineFaultIntensity,
) -> Fleet {
    let configs: Vec<JobConfig> = (0..JOBS_PER_RUN).map(|k| job(seed * 1000 + k, steps)).collect();
    let stream = JobStream::seeded(seed, configs, ARRIVAL_HORIZON_EPOCHS);
    let plan = MachineFaultPlan::generate(seed, storm, machines, STORM_EPOCHS);
    Fleet::new(fleet_spec(machines, policy), stream, plan).expect("known controllers")
}

fn run_cell(
    storm_name: &str,
    storm: &MachineFaultIntensity,
    machines: usize,
    policy: Policy,
    steps: u64,
) -> Row {
    let mut completed = 0;
    let mut failed = 0;
    let mut retries = 0;
    let mut migrations = 0;
    let mut makespan_s = 0.0;
    let mut goodput = 0.0;
    let mut recovery = 0.0;
    let mut energy = 0.0;
    for seed in SEEDS {
        let r = build(seed, steps, machines, policy, storm).run();
        completed += r.completed();
        failed += r.failed();
        retries += r.retries;
        migrations += r.migrations;
        makespan_s += r.makespan_s;
        goodput += r.goodput();
        recovery += r.mean_recovery_epochs;
        energy += r.total_energy_j;
    }
    let n = SEEDS.len() as f64;
    Row {
        storm: storm_name.to_string(),
        machines,
        policy: policy.tag().to_string(),
        jobs: (JOBS_PER_RUN as usize) * SEEDS.len(),
        completed,
        failed,
        retries,
        migrations,
        makespan_s: makespan_s / n,
        goodput: goodput / n,
        mean_recovery_epochs: recovery / n,
        total_energy_j: energy,
    }
}

fn main() {
    let args = cli::CommonArgs::parse("fleet_sweep");
    let rep = args.reporter();
    let steps = total_steps(args.quick) / 25; // per-job syncs; the fleet multiplies

    let mut rows = Vec::new();
    for (storm_name, storm) in &storms() {
        for machines in [2usize, 3] {
            for policy in Policy::all() {
                rows.push(run_cell(storm_name, storm, machines, policy, steps));
            }
        }
    }

    rep.say("Fleet chaos soak — seeded machine-fault storms over a federated fleet");
    rep.blank();
    print_table(
        &rep,
        &[
            "storm",
            "mach",
            "policy",
            "jobs",
            "done",
            "failed",
            "retry",
            "migr",
            "makespan s",
            "goodput",
            "recov ep",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.storm.clone(),
                    format!("{}", r.machines),
                    r.policy.clone(),
                    format!("{}", r.jobs),
                    format!("{}", r.completed),
                    format!("{}", r.failed),
                    format!("{}", r.retries),
                    format!("{}", r.migrations),
                    format!("{:.1}", r.makespan_s),
                    format!("{:.3}", r.goodput),
                    format!("{:.2}", r.mean_recovery_epochs),
                ]
            })
            .collect::<Vec<_>>(),
    );
    rep.blank();
    for machines in [2usize, 3] {
        let of = |storm: &str| {
            rows.iter()
                .find(|r| {
                    r.storm == storm && r.machines == machines && r.policy == "energy-feedback"
                })
                .expect("row exists")
        };
        let base = of("none");
        let mixed = of("mixed");
        rep.say(format!(
            "  {machines} machines: mixed-storm makespan {:+.1}% vs no faults, goodput {:.3} (from {:.3}), \
             mean recovery {:.2} epochs",
            100.0 * (mixed.makespan_s - base.makespan_s) / base.makespan_s,
            mixed.goodput,
            base.goodput,
            mixed.mean_recovery_epochs,
        ));
    }
    write_json(&rep, "fleet_sweep", &rows);

    // Representative traced run: 3 machines, mixed storm, energy
    // feedback — after the sweep so its JSON is unaffected by tracing.
    if args.wants_trace() || args.audit || args.profile {
        let session = cli::trace_session(&args);
        let mut fleet =
            build(SEEDS[0], steps, 3, Policy::EnergyFeedback, &MachineFaultIntensity::storm(1.0));
        fleet.set_tracer(&session.tracer);
        let _ = fleet.run();
        cli::finish_session("fleet_sweep", &args, &rep, session);
    }
}

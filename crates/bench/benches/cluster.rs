//! Cluster-simulation benchmarks: per-phase node execution, collective
//! cost evaluation, and a complete coupled run — establishing that the
//! simulator itself is cheap enough for large sweeps.
//!
//! Plain timing harness (`harness = false`): the offline build carries no
//! criterion, so each case reports median-of-runs wall time directly.

use des::SimTime;
use insitu::{run_job, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind;
use mpisim::{coll, Communicator, JobLayout, NetworkModel};
use std::hint::black_box;
use std::time::Instant;
use theta_sim::{CapMode, Cluster, MachineConfig, NoiseModel, PhaseKind, Work};

fn report(name: &str, iters: u64, mut f: impl FnMut(u64)) {
    let mut runs = Vec::new();
    for pass in 0..4 {
        let start = Instant::now();
        for i in 0..iters {
            f(i);
        }
        if pass > 0 {
            runs.push(start.elapsed().as_secs_f64() / iters as f64);
        }
    }
    runs.sort_by(f64::total_cmp);
    println!("{name:40} {:>12.2} µs/iter", runs[runs.len() / 2] * 1e6);
}

fn bench_node_phase() {
    let machine = MachineConfig::theta();
    let mut cluster = Cluster::new(machine.clone(), &[110.0], CapMode::Long, NoiseModel::silent(1));
    let mut t = SimTime::ZERO;
    report("node_run_phase", 50_000, |_| {
        t = cluster.node_mut(0).run_phase(&machine, t, Work::new(PhaseKind::Force, 0.001), 1.0);
        black_box(t);
    });
}

fn bench_collectives() {
    let net = NetworkModel::aries();
    for nodes in [128usize, 1024] {
        let world = Communicator::world(JobLayout::new(nodes, 1));
        let vals: Vec<f64> = (0..nodes).map(|i| i as f64).collect();
        report(&format!("allreduce_cost_model/{nodes}"), 2_000, |_| {
            black_box(coll::allreduce_sum(&net, &world, &vals));
        });
    }
}

fn bench_full_run() {
    for nodes in [16usize, 128] {
        report(&format!("coupled_run/seesaw_30_syncs/{nodes}"), 5, |_| {
            let mut spec = WorkloadSpec::paper(16, nodes, 1, &[AnalysisKind::MsdFull]);
            spec.total_steps = 30;
            black_box(run_job(JobConfig::new(spec, "seesaw")).expect("known controller"));
        });
    }
}

fn main() {
    bench_node_phase();
    bench_collectives();
    bench_full_run();
}

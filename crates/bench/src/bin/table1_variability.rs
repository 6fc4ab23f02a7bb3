//! Table I: run-to-run vs job-to-job variability of LAMMPS runtime on 128
//! nodes, for {no cap, long-term 110 W, long+short-term 110 W} × dim
//! {36, 48}, across 7 runs.
//!
//! Variability is `(max − min) / median × 100` over total runtimes.

use bench::{cli, print_table, write_json};
use insitu::{run_job, variability_pct, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind;
use theta_sim::CapMode;

struct Row {
    cap: &'static str,
    dim: u32,
    variability_type: &'static str,
    variability_pct: f64,
}
obs::json_struct!(Row { cap, dim, variability_type, variability_pct });

fn runtime(dim: u32, cap_mode: CapMode, job: u64, run: u64, steps: u64) -> f64 {
    let mut spec = WorkloadSpec::paper(dim, 128, 1, &[AnalysisKind::Rdf, AnalysisKind::Vacf]);
    spec.total_steps = steps;
    let mut cfg = JobConfig::new(spec, "static").with_seed(job, run);
    cfg.cap_mode = cap_mode;
    if cap_mode == CapMode::None {
        // Uncapped: nodes run at demand; budget bookkeeping is irrelevant.
        cfg.budget_per_node_w = 215.0;
    }
    run_job(cfg).expect("known controller").total_time_s
}

fn main() {
    let args = cli::CommonArgs::parse("table1_variability");
    let rep = args.reporter();
    let steps = if args.quick { 40 } else { 200 };
    let n_runs = 7;
    let cases: [(&str, CapMode); 3] = [
        ("None", CapMode::None),
        ("Long (110 W)", CapMode::Long),
        ("Long and Short (110 W each)", CapMode::LongShort),
    ];
    // Flatten every (cap mode, dim, seed) runtime into one task list —
    // 3 × 2 × 2·n_runs independent jobs — and dispatch it across the
    // worker pool. Each task's seeds depend only on its grid position, so
    // the slotted runtimes (and the variability rows computed from them
    // below, in case order) are identical to the serial nested loops.
    let mut tasks: Vec<(CapMode, u32, u64, u64)> = Vec::new();
    for (_, mode) in cases {
        for dim in [36u32, 48] {
            let base = 42 + dim as u64 * 7919;
            // Run-to-run: same job (placement), different runs.
            for r in 0..n_runs {
                tasks.push((mode, dim, base, r));
            }
            // Job-to-job: different jobs, first run of each.
            for j in 0..n_runs {
                tasks.push((mode, dim, base + 100 + j, 0));
            }
        }
    }
    let times = par::global().par_map_indexed(tasks.len(), |t| {
        let (mode, dim, job, run) = tasks[t];
        runtime(dim, mode, job, run, steps)
    });

    let mut rows = Vec::new();
    let mut cursor = times.chunks_exact(n_runs as usize);
    for (label, _) in cases {
        for dim in [36u32, 48] {
            let within = cursor.next().expect("run-to-run chunk");
            let across = cursor.next().expect("job-to-job chunk");
            rows.push(Row {
                cap: label,
                dim,
                variability_type: "run-to-run",
                variability_pct: variability_pct(within),
            });
            rows.push(Row {
                cap: label,
                dim,
                variability_type: "job-to-job",
                variability_pct: variability_pct(across),
            });
        }
    }

    rep.say(format!("Table I — variability across {n_runs} runs, 128 nodes"));
    rep.blank();
    print_table(
        &rep,
        &["Power Cap", "dim", "Variability Type", "Variability %"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.cap.to_string(),
                    r.dim.to_string(),
                    r.variability_type.to_string(),
                    format!("{:.1}", r.variability_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    rep.blank();
    rep.say("paper reference: run-to-run 0.2–0.8 (None/Long), 2.1–5.5 (Long+Short);");
    rep.say("                 job-to-job 0.8–2.0 (None), 5.7–6.0 (Long), 2.4–8.7 (Long+Short)");
    write_json(&rep, "table1_variability", &rows);
    let mut spec = WorkloadSpec::paper(36, 128, 1, &[AnalysisKind::Rdf, AnalysisKind::Vacf]);
    spec.total_steps = steps;
    cli::export_trace("table1_variability", &args, &rep, &JobConfig::new(spec, "static"));
}

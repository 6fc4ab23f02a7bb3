//! Ablation study of the reproduction's design choices, beyond the paper's
//! own figures:
//!
//! * **Eq. 4 interpretation** — the EWMA as printed (degenerate, jumps to
//!   the optimum) vs the evident intent (blend with the previous
//!   allocation);
//! * **controller extensions** — plain SeeSAw vs the §VIII future-work
//!   variants (hierarchical level-2, local-optimum probing);
//! * **sharing mode** — space-shared (the paper's setting) vs time-shared
//!   vs per-half-socket co-located execution of the same workload (§III).

use bench::{cli, print_table, total_steps, write_json};
use insitu::{
    improvement_pct, paired_improvement, run_colocated, run_job, run_time_shared, JobConfig,
    Runtime,
};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;
use seesaw::EwmaMode;

struct Row {
    study: &'static str,
    variant: String,
    improvement_pct: f64,
}
obs::json_struct!(Row { study, variant, improvement_pct });

fn main() {
    let args = cli::CommonArgs::parse("ablation");
    let rep = args.reporter();
    let mut rows = Vec::new();
    let nodes = if args.quick { 32 } else { 128 };
    let spec = |dim: u32, kinds: &[K]| {
        let mut s = WorkloadSpec::paper(dim, nodes, 1, kinds);
        s.total_steps = total_steps(args.quick);
        s
    };

    // --- Eq. 4: literal vs blended EWMA, noisy MSD workload.
    for (label, mode) in
        [("paper-literal", EwmaMode::PaperLiteral), ("blend-previous", EwmaMode::BlendPrevious)]
    {
        let s = spec(16, &[K::MsdFull]);
        let cfg = JobConfig::new(s, "seesaw");
        // Run with the requested EWMA by building the runtime manually.
        let mut ctl_cfg = cfg.clone();
        ctl_cfg.seed.run = 1;
        let controller = Box::new(seesaw::SeeSaw::new(seesaw::SeeSawConfig {
            budget_w: ctl_cfg.budget_w(),
            window: 1,
            limits: seesaw::Limits::theta(),
            ewma: mode,
            skip_step_zero: true,
        }));
        let runtime = Runtime::with_controller(ctl_cfg, controller);
        let r = runtime.run();
        let mut base_cfg = cfg.clone();
        base_cfg.controller = "static".to_string();
        let base = run_job(base_cfg).expect("known controller");
        rows.push(Row {
            study: "eq4-ewma",
            variant: label.to_string(),
            improvement_pct: improvement_pct(base.total_time_s, r.total_time_s),
        });
    }

    // --- Controller family on the local-optimum-prone low-demand case.
    for ctl in ["seesaw", "hierarchical-seesaw", "probing-seesaw", "time-aware"] {
        let cfg = JobConfig::new(spec(36, &[K::Vacf]), ctl);
        rows.push(Row {
            study: "controller-family",
            variant: ctl.to_string(),
            improvement_pct: paired_improvement(&cfg).expect("known controller"),
        });
    }

    // --- Space-shared vs time-shared (improvement over space-shared static).
    for kinds in [vec![K::Vacf], vec![K::MsdFull]] {
        let label = kinds[0];
        let dim = if label == K::MsdFull { 16 } else { 36 };
        let base = run_job(JobConfig::new(spec(dim, &kinds), "static")).expect("known controller");
        let see = run_job(JobConfig::new(spec(dim, &kinds), "seesaw").with_seed(1, 1))
            .expect("known controller");
        let ts = run_time_shared(JobConfig::new(spec(dim, &kinds), "static").with_seed(1, 2));
        rows.push(Row {
            study: "sharing-mode",
            variant: format!("{}: space-shared seesaw", label.name()),
            improvement_pct: improvement_pct(base.total_time_s, see.total_time_s),
        });
        rows.push(Row {
            study: "sharing-mode",
            variant: format!("{}: time-shared", label.name()),
            improvement_pct: improvement_pct(base.total_time_s, ts.total_time_s),
        });
        let co = run_colocated(JobConfig::new(spec(dim, &kinds), "seesaw").with_seed(1, 3))
            .expect("known controller");
        rows.push(Row {
            study: "sharing-mode",
            variant: format!("{}: co-located seesaw", label.name()),
            improvement_pct: improvement_pct(base.total_time_s, co.total_time_s),
        });
    }

    rep.say(format!("Ablations ({} nodes, improvement vs space-shared static)", nodes));
    rep.blank();
    print_table(
        &rep,
        &["study", "variant", "improvement %"],
        &rows
            .iter()
            .map(|r| {
                vec![r.study.to_string(), r.variant.clone(), format!("{:+.2}", r.improvement_pct)]
            })
            .collect::<Vec<_>>(),
    );
    write_json(&rep, "ablation", &rows);
    cli::export_trace("ablation", &args, &rep, &JobConfig::new(spec(16, &[K::MsdFull]), "seesaw"));
}

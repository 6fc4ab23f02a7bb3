//! Figure 7: unbalanced initial power distributions on 128 nodes
//! (all analyses, dim 36, w = 2, j = 1): S = 120 / A = 100,
//! S = 100 / A = 120, and the equal split — SeeSAw vs keeping the initial
//! distribution static.

use bench::{cli, print_table, repetitions, total_steps, write_json};
use insitu::{improvement_pct, median, run_job, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;

struct Row {
    case: &'static str,
    sim0_w: f64,
    analysis0_w: f64,
    improvement_pct: f64,
}
obs::json_struct!(Row { case, sim0_w, analysis0_w, improvement_pct });

fn main() {
    let args = cli::CommonArgs::parse("fig7_initial_power");
    let rep = args.reporter();
    let cases: [(&str, f64, f64); 3] = [
        ("simulation starts with more", 120.0, 100.0),
        ("analysis starts with more", 100.0, 120.0),
        ("equal start", 110.0, 110.0),
    ];
    let mut rows = Vec::new();
    for (case, s0, a0) in cases {
        let vals: Vec<f64> = (0..repetitions(args.quick))
            .map(|rep| {
                let mut spec =
                    WorkloadSpec::paper(36, 128, 1, &[K::Rdf, K::Msd1d, K::Msd2d, K::Vacf]);
                spec.total_steps = total_steps(args.quick);
                let base_cfg = JobConfig::new(spec, "static")
                    .with_window(2)
                    .with_initial_caps(s0, a0)
                    .with_seed(500 + rep, 0);
                let mut ctl_cfg = base_cfg.clone();
                ctl_cfg.controller = "seesaw".to_string();
                ctl_cfg.seed.run = 1;
                let base = run_job(base_cfg).expect("known controller");
                let ctl = run_job(ctl_cfg).expect("known controller");
                improvement_pct(base.total_time_s, ctl.total_time_s)
            })
            .collect();
        rows.push(Row { case, sim0_w: s0, analysis0_w: a0, improvement_pct: median(&vals) });
    }

    rep.say("Fig. 7 — unbalanced initial power, 128 nodes, all analyses, dim 36, w = 2");
    rep.blank();
    print_table(
        &rep,
        &["initial distribution", "S₀ W", "A₀ W", "SeeSAw improvement %"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.case.to_string(),
                    format!("{:.0}", r.sim0_w),
                    format!("{:.0}", r.analysis0_w),
                    format!("{:+.2}", r.improvement_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    rep.blank();
    rep.say("paper reference: 28.26 % (S more), 19.21 % (A more), 8.94 % (equal) —");
    rep.say("the worse the starting distribution, the more SeeSAw recovers.");
    let bars: Vec<(String, f64, String)> = rows
        .iter()
        .map(|r| {
            (
                format!("S{:.0}/A{:.0}", r.sim0_w, r.analysis0_w),
                r.improvement_pct,
                "#1f77b4".to_string(),
            )
        })
        .collect();
    bench::svg::write_svg(
        &rep,
        "fig7_initial_power",
        &bench::svg::bar_chart(
            "Fig. 7 — SeeSAw improvement from unbalanced initial power",
            "improvement over static (%)",
            &bars,
        ),
    );
    write_json(&rep, "fig7_initial_power", &rows);
    let mut spec = WorkloadSpec::paper(36, 128, 1, &[K::Rdf, K::Msd1d, K::Msd2d, K::Vacf]);
    spec.total_steps = total_steps(args.quick);
    let cfg = JobConfig::new(spec, "seesaw").with_window(2).with_initial_caps(120.0, 100.0);
    cli::export_trace("fig7_initial_power", &args, &rep, &cfg);
}

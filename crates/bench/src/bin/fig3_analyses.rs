//! Figure 3: runtime improvement over the static baseline for SeeSAw,
//! time-aware and power-aware.
//!
//! * (a) different analyses on 128 nodes (`w = 1`, `j = 1`), median of 3;
//! * (b) scale study at 256/512/1024 nodes for full MSD, all analyses,
//!   and VACF.

use bench::{cli, print_table, repetitions, total_steps, write_json};
use insitu::{median_improvement, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;

struct Row {
    panel: &'static str,
    workload: &'static str,
    nodes: usize,
    dim: u32,
    controller: &'static str,
    improvement_pct: f64,
}
obs::json_struct!(Row { panel, workload, nodes, dim, controller, improvement_pct });

const CONTROLLERS: [&str; 3] = ["seesaw", "time-aware", "power-aware"];

fn workloads_a() -> Vec<(&'static str, u32, Vec<K>)> {
    vec![
        ("rdf", 36, vec![K::Rdf]),
        ("vacf", 36, vec![K::Vacf]),
        ("msd1d", 16, vec![K::Msd1d]),
        ("msd2d", 16, vec![K::Msd2d]),
        ("msd", 16, vec![K::MsdFull]),
        ("all", 36, vec![K::Rdf, K::Msd1d, K::Msd2d, K::Vacf]),
    ]
}

fn workloads_b() -> Vec<(&'static str, u32, Vec<K>)> {
    vec![
        ("msd", 16, vec![K::MsdFull]),
        ("all", 48, vec![K::Rdf, K::Msd1d, K::Msd2d, K::Vacf]),
        ("vacf", 48, vec![K::Vacf]),
    ]
}

fn measure(
    panel: &'static str,
    workload: &'static str,
    dim: u32,
    kinds: &[K],
    nodes: usize,
    quick: bool,
    rows: &mut Vec<Row>,
) {
    for ctl in CONTROLLERS {
        let mut spec = WorkloadSpec::paper(dim, nodes, 1, kinds);
        spec.total_steps = total_steps(quick);
        let cfg = JobConfig::new(spec, ctl);
        let imp = median_improvement(&cfg, repetitions(quick)).expect("known controller");
        rows.push(Row { panel, workload, nodes, dim, controller: ctl, improvement_pct: imp });
    }
}

fn main() {
    let args = cli::CommonArgs::parse("fig3_analyses");
    let rep = args.reporter();
    let mut rows = Vec::new();

    for (name, dim, kinds) in workloads_a() {
        measure("a", name, dim, &kinds, 128, args.quick, &mut rows);
    }
    let scales: &[usize] = if args.quick { &[256] } else { &[256, 512, 1024] };
    for &nodes in scales {
        for (name, dim, kinds) in workloads_b() {
            measure("b", name, dim, &kinds, nodes, args.quick, &mut rows);
        }
    }

    rep.say(format!(
        "Fig. 3a — % improvement over static, 128 nodes (median of {})",
        repetitions(args.quick)
    ));
    rep.blank();
    let tab = |panel: &str| {
        rows.iter()
            .filter(|r| r.panel == panel)
            .map(|r| {
                vec![
                    r.workload.to_string(),
                    r.nodes.to_string(),
                    r.dim.to_string(),
                    r.controller.to_string(),
                    format!("{:+.2}", r.improvement_pct),
                ]
            })
            .collect::<Vec<_>>()
    };
    print_table(&rep, &["workload", "nodes", "dim", "controller", "improvement %"], &tab("a"));
    rep.blank();
    rep.say("Fig. 3b — scale study");
    rep.blank();
    print_table(&rep, &["workload", "nodes", "dim", "controller", "improvement %"], &tab("b"));
    rep.blank();
    rep.say("paper reference: power-aware slows LAMMPS in all cases (up to ~25%);");
    rep.say("time-aware −60…+13%; SeeSAw +4…30%, ahead of time-aware on full MSD.");
    let color = |c: &str| match c {
        "seesaw" => "#1f77b4",
        "time-aware" => "#d62728",
        _ => "#2ca02c",
    };
    let bars: Vec<(String, f64, String)> = rows
        .iter()
        .filter(|r| r.panel == "a")
        .map(|r| {
            (
                format!("{}/{}", r.workload, &r.controller[..r.controller.len().min(4)]),
                r.improvement_pct,
                color(r.controller).to_string(),
            )
        })
        .collect();
    bench::svg::write_svg(
        &rep,
        "fig3_analyses",
        &bench::svg::bar_chart(
            "Fig. 3a — improvement over static, 128 nodes (blue seesaw, red time-aware, green power-aware)",
            "improvement (%)",
            &bars,
        ),
    );
    write_json(&rep, "fig3_analyses", &rows);
    let mut spec = WorkloadSpec::paper(16, 128, 1, &[K::MsdFull]);
    spec.total_steps = total_steps(args.quick);
    cli::export_trace("fig3_analyses", &args, &rep, &JobConfig::new(spec, "seesaw"));
}

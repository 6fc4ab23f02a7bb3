//! Figure 5: allocated vs measured power per node between synchronizations
//! at scale (all analyses, dim = 48), SeeSAw vs time-aware, with
//! normalized slack — the paper's demonstration that low time difference
//! at low power is not an energy-efficient state.
//!
//! Swept over node counts (128 → 1024) so the committed artifact records
//! how the allocation gap and slack behave as the partition grows.

use bench::{cli, print_table, total_steps, write_json};
use insitu::{run_job, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;

struct Point {
    nodes: usize,
    controller: String,
    sync: u64,
    sim_cap_w: f64,
    sim_measured_w: f64,
    analysis_cap_w: f64,
    analysis_measured_w: f64,
    slack: f64,
}
obs::json_struct!(Point {
    nodes,
    controller,
    sync,
    sim_cap_w,
    sim_measured_w,
    analysis_cap_w,
    analysis_measured_w,
    slack
});

fn main() {
    let args = cli::CommonArgs::parse("fig5_scale");
    let rep = args.reporter();
    let node_counts: &[usize] = if args.quick { &[128] } else { &[128, 256, 512, 1024] };
    let ctls = ["seesaw", "time-aware"];

    // Each (node count, controller) pair is an independent job: dispatch
    // the whole grid across the worker pool, then assemble points/summary
    // serially in the fixed sweep order so the JSON is byte-identical to
    // the serial sweep.
    let cells: Vec<(usize, &str)> =
        node_counts.iter().flat_map(|&n| ctls.iter().map(move |&c| (n, c))).collect();
    let runs = par::global().par_map_indexed(cells.len(), |i| {
        let (nodes, ctl) = cells[i];
        let mut spec = WorkloadSpec::paper(48, nodes, 1, &[K::Rdf, K::Msd1d, K::Msd2d, K::Vacf]);
        spec.total_steps = total_steps(args.quick);
        run_job(JobConfig::new(spec, ctl)).expect("known controller")
    });

    let mut points = Vec::new();
    let mut summary = Vec::new();
    for (&(nodes, ctl), r) in cells.iter().zip(&runs) {
        let start = points.len();
        for s in &r.syncs {
            points.push(Point {
                nodes,
                controller: ctl.to_string(),
                sync: s.index,
                sim_cap_w: s.sim_cap_w,
                sim_measured_w: s.sim_power_w,
                analysis_cap_w: s.analysis_cap_w,
                analysis_measured_w: s.analysis_power_w,
                slack: s.slack,
            });
        }
        let tail: Vec<&Point> = points[start..].iter().filter(|p| p.sync >= 10).collect();
        let mean =
            |f: fn(&Point) -> f64| tail.iter().map(|p| f(p)).sum::<f64>() / tail.len() as f64;
        summary.push(vec![
            nodes.to_string(),
            ctl.to_string(),
            format!("{:.1}", mean(|p| p.sim_cap_w)),
            format!("{:.1}", mean(|p| p.sim_measured_w)),
            format!("{:.1}", mean(|p| p.analysis_cap_w)),
            format!("{:.1}", mean(|p| p.analysis_measured_w)),
            format!("{:.1} %", mean(|p| p.slack) * 100.0),
            format!("{:.0}", r.total_time_s),
        ]);
    }

    rep.say(format!(
        "Fig. 5 — allocated vs measured power, {:?} nodes, all analyses, dim 48",
        node_counts
    ));
    rep.blank();
    print_table(
        &rep,
        &[
            "nodes",
            "controller",
            "S cap W",
            "S measured W",
            "A cap W",
            "A measured W",
            "slack",
            "total s",
        ],
        &summary,
    );
    rep.blank();
    rep.say("paper reference: SeeSAw allocates more power to analysis; simulation");
    rep.say("at scale has lower power utilization (measured < allocated). The");
    rep.say("time-aware approach drives the gap to δ_min and degrades severely even");
    rep.say("though its normalized slack looks near zero.");
    write_json(&rep, "fig5_scale", &points);
    let mut spec = WorkloadSpec::paper(
        48,
        *node_counts.last().unwrap(),
        1,
        &[K::Rdf, K::Msd1d, K::Msd2d, K::Vacf],
    );
    spec.total_steps = total_steps(args.quick);
    cli::export_trace("fig5_scale", &args, &rep, &JobConfig::new(spec, "seesaw"));
}

//! Figure 4: per-node power allocation and normalized slack at each
//! synchronization for LAMMPS + full MSD on 128 nodes (dim = 16, j = 1),
//! under SeeSAw (a), time-aware (b) and power-aware (c); plus the static
//! baseline's per-interval time and power for the first 10 syncs (d, e).

use bench::{cli, print_table, total_steps, write_json};
use insitu::{run_job, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind;

struct AllocPoint {
    controller: String,
    sync: u64,
    sim_cap_w: f64,
    analysis_cap_w: f64,
    sim_power_w: f64,
    analysis_power_w: f64,
    slack: f64,
}
obs::json_struct!(AllocPoint {
    controller,
    sync,
    sim_cap_w,
    analysis_cap_w,
    sim_power_w,
    analysis_power_w,
    slack
});

struct BaselinePoint {
    sync: u64,
    sim_time_s: f64,
    analysis_time_s: f64,
    sim_power_w: f64,
    analysis_power_w: f64,
}
obs::json_struct!(BaselinePoint {
    sync,
    sim_time_s,
    analysis_time_s,
    sim_power_w,
    analysis_power_w
});

fn spec(quick: bool) -> WorkloadSpec {
    let mut s = WorkloadSpec::paper(16, 128, 1, &[AnalysisKind::MsdFull]);
    s.total_steps = total_steps(quick);
    s
}

fn main() {
    let args = cli::CommonArgs::parse("fig4_power_alloc");
    let rep = args.reporter();
    let mut alloc_points = Vec::new();
    let mut summary = Vec::new();
    for ctl in ["seesaw", "time-aware", "power-aware"] {
        let r = run_job(JobConfig::new(spec(args.quick), ctl)).expect("known controller");
        for s in &r.syncs {
            alloc_points.push(AllocPoint {
                controller: ctl.to_string(),
                sync: s.index,
                sim_cap_w: s.sim_cap_w,
                analysis_cap_w: s.analysis_cap_w,
                sim_power_w: s.sim_power_w,
                analysis_power_w: s.analysis_power_w,
                slack: s.slack,
            });
        }
        let late_slack = r.mean_slack_from(10);
        let last = r.syncs.last().unwrap();
        summary.push(vec![
            ctl.to_string(),
            format!("{:.1}", last.sim_cap_w),
            format!("{:.1}", last.analysis_cap_w),
            format!("{:.1} %", late_slack * 100.0),
            format!("{:.0}", r.total_time_s),
        ]);
    }

    rep.say("Fig. 4 — LAMMPS + full MSD, 128 nodes, dim 16, j = 1, w = 1");
    rep.blank();
    rep.say("Per-sync power allocation (every 10th sync shown):");
    rep.blank();
    for ctl in ["seesaw", "time-aware", "power-aware"] {
        rep.say(format!("  {ctl}:"));
        for p in alloc_points
            .iter()
            .filter(|p| p.controller == ctl && (p.sync <= 5 || p.sync % 10 == 0))
            .take(20)
        {
            rep.say(format!(
                "    sync {:3}: caps S {:5.1} / A {:5.1} W   measured S {:5.1} / A {:5.1} W   slack {:4.1} %",
                p.sync, p.sim_cap_w, p.analysis_cap_w, p.sim_power_w, p.analysis_power_w, p.slack * 100.0
            ));
        }
    }

    rep.blank();
    rep.say("End-state summary:");
    rep.blank();
    print_table(
        &rep,
        &["controller", "sim cap W", "analysis cap W", "slack (sync ≥ 10)", "total s"],
        &summary,
    );

    // Panels (d)/(e): static baseline time & power over the first 10 syncs.
    let base = run_job(JobConfig::new(spec(args.quick), "static")).expect("known controller");
    let baseline: Vec<BaselinePoint> = base
        .syncs
        .iter()
        .take(10)
        .map(|s| BaselinePoint {
            sync: s.index,
            sim_time_s: s.sim_time_s,
            analysis_time_s: s.analysis_time_s,
            sim_power_w: s.sim_power_w,
            analysis_power_w: s.analysis_power_w,
        })
        .collect();
    rep.blank();
    rep.say("Baseline (static 110 W) first 10 syncs — paper panels (d)/(e):");
    rep.blank();
    print_table(
        &rep,
        &["sync", "sim t (s)", "analysis t (s)", "sim W/node", "analysis W/node"],
        &baseline
            .iter()
            .map(|b| {
                vec![
                    b.sync.to_string(),
                    format!("{:.2}", b.sim_time_s),
                    format!("{:.2}", b.analysis_time_s),
                    format!("{:.1}", b.sim_power_w),
                    format!("{:.1}", b.analysis_power_w),
                ]
            })
            .collect::<Vec<_>>(),
    );
    rep.blank();
    rep.say("paper reference: SeeSAw settles within ~20 syncs giving analysis more");
    rep.say("power, slack ≈ 0.8%; time-aware moves the wrong way early and cannot");
    rep.say("return; power-aware slack fluctuates 0.2–40%.");

    let colors = [
        ("seesaw", "#1f77b4", "#9ecae1"),
        ("time-aware", "#d62728", "#ff9896"),
        ("power-aware", "#2ca02c", "#98df8a"),
    ];
    let mut series = Vec::new();
    for (ctl, sim_color, ana_color) in colors {
        let pick = |f: fn(&AllocPoint) -> f64| -> Vec<(f64, f64)> {
            alloc_points
                .iter()
                .filter(|p| p.controller == ctl)
                .map(|p| (p.sync as f64, f(p)))
                .collect()
        };
        series.push(bench::svg::Series::new(&format!("{ctl} S"), sim_color, pick(|p| p.sim_cap_w)));
        series.push(bench::svg::Series::new(
            &format!("{ctl} A"),
            ana_color,
            pick(|p| p.analysis_cap_w),
        ));
    }
    bench::svg::write_svg(
        &rep,
        "fig4_power_alloc",
        &bench::svg::line_chart(
            "Fig. 4 — per-node power allocation, full MSD, 128 nodes",
            "synchronization",
            "cap (W/node)",
            &series,
        ),
    );
    write_json(&rep, "fig4_power_alloc", &alloc_points);
    write_json(&rep, "fig4_baseline", &baseline);
    // Representative traced run: the SeeSAw configuration of panel (a) —
    // its Perfetto export shows the per-node cap and phase lanes.
    cli::export_trace("fig4_power_alloc", &args, &rep, &JobConfig::new(spec(args.quick), "seesaw"));
}

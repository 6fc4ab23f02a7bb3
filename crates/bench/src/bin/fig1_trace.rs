//! Figure 1: partial power trace of LAMMPS simulation and analysis
//! processes on separate nodes, exposing the periodic synchronization —
//! the analysis idles at ~105 W for much of each step.
//!
//! Output: per-200 ms samples of mean per-node power for each partition,
//! printed as a text strip chart and written to `results/fig1_trace.json`.

use bench::{cli, print_table, write_json};
use insitu::{JobConfig, Runtime};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind;

struct Sample {
    t_s: f64,
    sim_w_per_node: f64,
    analysis_w_per_node: f64,
}
obs::json_struct!(Sample { t_s, sim_w_per_node, analysis_w_per_node });

fn main() {
    let args = cli::CommonArgs::parse("fig1_trace");
    let rep = args.reporter();
    // A VACF-style low-demand analysis exposes the idle clearly: it
    // finishes early and waits at ~105 W.
    let mut spec = WorkloadSpec::paper(16, 128, 1, &[AnalysisKind::Vacf]);
    spec.total_steps = if args.quick { 8 } else { 12 };
    let cfg = JobConfig::new(spec.clone(), "static").with_traces();
    let result = Runtime::new(cfg).expect("known controller").run();

    let sim_nodes = spec.sim_nodes as f64;
    let ana_nodes = spec.analysis_nodes as f64;
    let sim = result.sim_trace.expect("traces recorded");
    let ana = result.analysis_trace.expect("traces recorded");
    let samples: Vec<Sample> = sim
        .iter()
        .zip(ana.iter())
        .map(|((t, s), (_, a))| Sample {
            t_s: t.as_secs_f64(),
            sim_w_per_node: s / sim_nodes,
            analysis_w_per_node: a / ana_nodes,
        })
        .collect();

    rep.say("Fig. 1 — power trace, 200 ms sampling, static 110 W caps");
    rep.say("(sim '#', analysis 'o'; x-axis 95–115 W)");
    rep.blank();
    let strip = |w: f64| -> usize { (((w - 95.0) / 20.0).clamp(0.0, 1.0) * 50.0) as usize };
    for s in samples.iter().take(120) {
        let mut lane = vec![b' '; 52];
        lane[strip(s.sim_w_per_node)] = b'#';
        lane[strip(s.analysis_w_per_node)] = b'o';
        rep.say(format!("{:7.1}s |{}|", s.t_s, String::from_utf8_lossy(&lane)));
    }

    // Summary the paper's figure conveys: the analysis spends a large
    // fraction of each interval near the 105 W wait level.
    let idle_frac = samples.iter().filter(|s| s.analysis_w_per_node < 106.5).count() as f64
        / samples.len() as f64;
    let rows = vec![
        vec![
            "analysis samples near wait power (<106.5 W)".to_string(),
            format!("{:.0} %", idle_frac * 100.0),
        ],
        vec![
            "sim mean W/node".to_string(),
            format!(
                "{:.1}",
                samples.iter().map(|s| s.sim_w_per_node).sum::<f64>() / samples.len() as f64
            ),
        ],
        vec![
            "analysis mean W/node".to_string(),
            format!(
                "{:.1}",
                samples.iter().map(|s| s.analysis_w_per_node).sum::<f64>() / samples.len() as f64
            ),
        ],
    ];
    rep.blank();
    print_table(&rep, &["metric", "value"], &rows);
    let sim_series = bench::svg::Series::new(
        "simulation",
        "#1f77b4",
        samples.iter().map(|s| (s.t_s, s.sim_w_per_node)).collect(),
    );
    let ana_series = bench::svg::Series::new(
        "analysis",
        "#d62728",
        samples.iter().map(|s| (s.t_s, s.analysis_w_per_node)).collect(),
    );
    bench::svg::write_svg(
        &rep,
        "fig1_trace",
        &bench::svg::line_chart(
            "Fig. 1 — partial power trace (200 ms sampling)",
            "time (s)",
            "power (W/node)",
            &[sim_series, ana_series],
        ),
    );
    write_json(&rep, "fig1_trace", &samples);
    cli::export_trace("fig1_trace", &args, &rep, &JobConfig::new(spec, "static"));
}

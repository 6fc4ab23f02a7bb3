//! Figure 9: overhead of SeeSAw.
//!
//! * (a) allocation overhead as a percentage of each synchronization
//!   interval, 128 vs 1024 nodes (all analyses, dim 48, w = 1, j = 1);
//! * (b) absolute duration of a stand-alone SeeSAw allocation step across
//!   power caps (the Criterion bench `controller_step` measures the pure
//!   compute cost on the host; here we report the simulated cost including
//!   the measurement exchange).

use bench::{cli, print_table, total_steps, write_json};
use insitu::{run_job, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;

struct OverheadRow {
    nodes: usize,
    mean_overhead_ms: f64,
    mean_interval_s: f64,
    overhead_pct: f64,
}
obs::json_struct!(OverheadRow { nodes, mean_overhead_ms, mean_interval_s, overhead_pct });

fn main() {
    let args = cli::CommonArgs::parse("fig9_overhead");
    let rep = args.reporter();
    let scales: &[usize] = if args.quick { &[128] } else { &[128, 1024] };
    let mut rows = Vec::new();
    for &nodes in scales {
        let mut spec = WorkloadSpec::paper(48, nodes, 1, &[K::Rdf, K::Msd1d, K::Msd2d, K::Vacf]);
        spec.total_steps = total_steps(args.quick);
        let r = run_job(JobConfig::new(spec, "seesaw")).expect("known controller");
        let mean_overhead =
            r.syncs.iter().map(|s| s.overhead_s).sum::<f64>() / r.syncs.len() as f64;
        let mean_interval =
            r.syncs.iter().map(|s| s.end_s - s.start_s).sum::<f64>() / r.syncs.len() as f64;
        rows.push(OverheadRow {
            nodes,
            mean_overhead_ms: mean_overhead * 1e3,
            mean_interval_s: mean_interval,
            overhead_pct: mean_overhead / mean_interval * 100.0,
        });
    }

    rep.say("Fig. 9a — SeeSAw allocation overhead per synchronization");
    rep.blank();
    print_table(
        &rep,
        &["nodes", "overhead ms", "interval s", "overhead %"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.nodes.to_string(),
                    format!("{:.3}", r.mean_overhead_ms),
                    format!("{:.2}", r.mean_interval_s),
                    format!("{:.4}", r.overhead_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    rep.blank();
    rep.say("paper reference: communication dominates at 1024 nodes — higher");
    rep.say("absolute overhead, smaller relative overhead; negligible either way.");
    rep.blank();
    rep.say("Fig. 9b (host-measured controller step cost across caps) is produced");
    rep.say("by `cargo bench -p bench --bench controllers`; the tracing on/off");
    rep.say("overhead comparison by `cargo bench -p bench --bench trace_overhead`.");
    write_json(&rep, "fig9_overhead", &rows);
    let mut spec = WorkloadSpec::paper(48, scales[0], 1, &[K::Rdf, K::Msd1d, K::Msd2d, K::Vacf]);
    spec.total_steps = total_steps(args.quick);
    cli::export_trace("fig9_overhead", &args, &rep, &JobConfig::new(spec, "seesaw"));
}

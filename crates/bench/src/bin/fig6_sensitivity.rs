//! Figure 6: sensitivity of SeeSAw to its window `w` and to the LAMMPS
//! synchronization rate `j`, on 1024 nodes with all analyses, dim = 48.
//!
//! The paper's findings: allocating frequently beats infrequent
//! reallocation; `1 < w < 10` damps over-reaction when syncs are frequent;
//! with infrequent syncs (large `j`), allocate as often as possible.

use bench::{cli, print_table, total_steps, write_json};
use insitu::{paired_improvement, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;

struct Row {
    j: u64,
    w: usize,
    improvement_pct: f64,
}
obs::json_struct!(Row { j, w, improvement_pct });

fn main() {
    let args = cli::CommonArgs::parse("fig6_sensitivity");
    let rep = args.reporter();
    let nodes = if args.quick { 64 } else { 1024 };
    let js: &[u64] = if args.quick { &[1, 5] } else { &[1, 5, 10, 20] };
    let ws: &[usize] = if args.quick { &[1, 2] } else { &[1, 2, 5, 10] };

    // Flatten the j × w grid into one task list and dispatch it across
    // the worker pool; par_map_indexed slots each Row by its grid index,
    // so the row order (and the JSON) matches the serial nested loop.
    let cases: Vec<(u64, usize)> =
        js.iter().flat_map(|&j| ws.iter().map(move |&w| (j, w))).collect();
    let rows: Vec<Row> = par::global().par_map_indexed(cases.len(), |k| {
        let (j, w) = cases[k];
        let mut spec = WorkloadSpec::paper(48, nodes, j, &[K::Rdf, K::Msd1d, K::Msd2d, K::Vacf]);
        spec.total_steps = total_steps(args.quick);
        let cfg = JobConfig::new(spec, "seesaw").with_window(w);
        let imp = paired_improvement(&cfg).expect("known controller");
        Row { j, w, improvement_pct: imp }
    });

    rep.say(format!("Fig. 6 — SeeSAw w × j sensitivity, {nodes} nodes, all analyses, dim 48"));
    rep.blank();
    let mut table = Vec::new();
    for &j in js {
        let mut cells = vec![format!("j = {j}")];
        for &w in ws {
            let r = rows.iter().find(|r| r.j == j && r.w == w).unwrap();
            cells.push(format!("{:+.2} %", r.improvement_pct));
        }
        table.push(cells);
    }
    let mut headers: Vec<String> = vec!["".to_string()];
    headers.extend(ws.iter().map(|w| format!("w = {w}")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&rep, &headers_ref, &table);
    rep.blank();
    rep.say("paper reference: frequent allocation wins; moderate w damps noise at");
    rep.say("j = 1; at large j there are few chances to correct, so improvements fall.");
    let palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"];
    let series: Vec<bench::svg::Series> = js
        .iter()
        .enumerate()
        .map(|(i, &j)| {
            bench::svg::Series::new(
                &format!("j = {j}"),
                palette[i % palette.len()],
                rows.iter().filter(|r| r.j == j).map(|r| (r.w as f64, r.improvement_pct)).collect(),
            )
        })
        .collect();
    bench::svg::write_svg(
        &rep,
        "fig6_sensitivity",
        &bench::svg::line_chart(
            "Fig. 6 — SeeSAw w × j sensitivity (all analyses, dim 48)",
            "window w",
            "improvement over static (%)",
            &series,
        ),
    );
    write_json(&rep, "fig6_sensitivity", &rows);
    let mut spec = WorkloadSpec::paper(48, nodes, 1, &[K::Rdf, K::Msd1d, K::Msd2d, K::Vacf]);
    spec.total_steps = total_steps(args.quick);
    cli::export_trace(
        "fig6_sensitivity",
        &args,
        &rep,
        &JobConfig::new(spec, "seesaw").with_window(ws[0]),
    );
}

//! Table II: SeeSAw improvement with mixed analysis intervals on 128 nodes
//! (dim 16, w = 1). One sweep varies only full MSD's interval j ∈
//! {4, 20, 100} with RDF + VACF at every step; the other varies only
//! VACF's interval with RDF + full MSD at every step.

use bench::{cli, print_table, repetitions, total_steps, write_json};
use insitu::{median_improvement, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::{AnalysisKind as K, AnalysisSchedule};

struct Row {
    varied: &'static str,
    j: u64,
    improvement_pct: f64,
}
obs::json_struct!(Row { varied, j, improvement_pct });

fn run_case(varied: &'static str, j: u64, quick: bool) -> f64 {
    let mut spec = WorkloadSpec::paper(16, 128, 1, &[]);
    spec.total_steps = total_steps(quick);
    spec.analyses = match varied {
        "msd" => vec![
            AnalysisSchedule::every_sync(K::Rdf),
            AnalysisSchedule::every_sync(K::Vacf),
            AnalysisSchedule { kind: K::MsdFull, every: j },
        ],
        _ => vec![
            AnalysisSchedule::every_sync(K::Rdf),
            AnalysisSchedule::every_sync(K::MsdFull),
            AnalysisSchedule { kind: K::Vacf, every: j },
        ],
    };
    let cfg = JobConfig::new(spec, "seesaw");
    median_improvement(&cfg, repetitions(quick)).expect("known controller")
}

fn main() {
    let args = cli::CommonArgs::parse("table2_mixed");
    let rep = args.reporter();
    let js = [4u64, 20, 100];
    // The six (varied, j) cases are independent experiments: dispatch them
    // across the worker pool (median_improvement inside falls back to
    // serial — the pool rejects nested use). Rows come back slotted by
    // case index, matching the serial nested loop's order exactly.
    let cases: Vec<(&'static str, u64)> =
        ["msd", "vacf"].iter().flat_map(|&v| js.iter().map(move |&j| (v, j))).collect();
    let rows: Vec<Row> = par::global().par_map_indexed(cases.len(), |k| {
        let (varied, j) = cases[k];
        Row { varied, j, improvement_pct: run_case(varied, j, args.quick) }
    });

    rep.say("Table II — SeeSAw improvement with mixed intervals, 128 nodes, w = 1, dim 16");
    rep.blank();
    let table: Vec<Vec<String>> = ["msd", "vacf"]
        .iter()
        .map(|v| {
            let mut cells = vec![format!("{v} % improvement over static")];
            for &j in &js {
                let r = rows.iter().find(|r| &r.varied == v && r.j == j).unwrap();
                cells.push(format!("{:+.2}", r.improvement_pct));
            }
            cells
        })
        .collect();
    print_table(&rep, &["varied analysis", "j = 4", "j = 20", "j = 100"], &table);
    rep.blank();
    rep.say("paper reference: MSD-varied 5.03 / 0.94 / 0.90 %; VACF-varied");
    rep.say("16.76 / 15.09 / 16.24 % — infrequent high-demand analyses make w = 1");
    rep.say("over-reactive, while a low-demand analysis at any interval is benign.");
    write_json(&rep, "table2_mixed", &rows);
    let mut spec = WorkloadSpec::paper(16, 128, 1, &[]);
    spec.total_steps = total_steps(args.quick);
    spec.analyses = vec![
        AnalysisSchedule::every_sync(K::Rdf),
        AnalysisSchedule::every_sync(K::Vacf),
        AnalysisSchedule { kind: K::MsdFull, every: 4 },
    ];
    cli::export_trace("table2_mixed", &args, &rep, &JobConfig::new(spec, "seesaw"));
}

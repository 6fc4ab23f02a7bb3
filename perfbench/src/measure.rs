//! One benchmark run: warm up, repeat a workload for the run length,
//! check every operation, and derive the end-to-end metrics (untraced
//! run) or the per-layer metrics (traced run).

use crate::probe::{lock, Probe};
use crate::stats::{mean, median, peak_rss_mb, quantile, tail};
use crate::workloads::{Digest, Mode, Op, Rep, Scale, Workload};
use std::time::{Duration, Instant};

/// End-to-end metrics and units, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_time_s", "s"),
    ("sim_energy_mj", "MJ"),
];

/// Per-layer metrics and units, as in `BENCHMARK.json`. A layer the
/// workload bypasses reads 0. The two rates are the fixed work of a
/// repetition over the fastest untraced one, as `wall_s`: they carry no
/// information beyond it, so only `wall_s` is bounded.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("node_syncs_per_s", "1/s"),
    ("atom_steps_per_s", "1/s"),
    ("insitu.step_sync_ms.p50", "ms"),
    ("insitu.step_sync_ms.p99", "ms"),
    ("insitu.walk_self_ms.mean", "ms"),
    ("insitu.compact_ms.total", "ms"),
    ("insitu.setup_ms", "ms"),
    ("sched.step_epoch_ms.p50", "ms"),
    ("sched.step_epoch_ms.p99", "ms"),
    ("sched.epochs", "count"),
    ("core.on_sync_us.p50", "us"),
    ("core.on_sync_us.p99", "us"),
    ("core.decisions", "count"),
    ("theta_sim.phase_spans", "count"),
    ("theta_sim.waits", "count"),
    ("rapl.cap_requests", "count"),
    ("polimer.samples", "count"),
    ("mpisim.exchanges", "count"),
    ("mdsim.step_work_ms.p50", "ms"),
    ("mdsim.step_work_ms.p99", "ms"),
    ("mdsim.force_ns_per_pair", "ns/pair"),
    ("mdsim.neighbor_ms", "ms"),
    ("mdsim.integrate_ms", "ms"),
    ("mdsim.pairs_per_step", "count"),
    ("obs.events", "count"),
    ("obs.emit_ns_per_event", "ns/event"),
    ("obs.encode_mb_per_s", "MB/s"),
    ("audit.fold_ns_per_event", "ns/event"),
    ("audit.parse_mb_per_s", "MB/s"),
    ("audit.replay_ns_per_event", "ns/event"),
    ("audit.finish_ms", "ms"),
    ("audit.violations", "count"),
    ("events_per_s", "1/s"),
    ("failed_frac", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_pct", "%"),
    ("trace.reps", "count"),
];

/// Repetitions every timed phase runs at least, however long they take.
const MIN_REPS: usize = 3;

/// The fastest of a run's repetition times: `wall_s` and `setup_s`.
///
/// Every repetition does the same simulated work, so their spread is the
/// host's. The shared virtual hosts this runs on change speed up to 2×
/// with their neighbours' load, for seconds to minutes at a time: the
/// median of a run follows the neighbours, the fastest repetition follows
/// the program (README.md, Steadiness). The median and the tail are
/// printed beside it.
fn fastest(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// Failures across all operations of a run. An operation fails if the
/// program reports an error, panics, stops short, returns a non-finite
/// result, or returns a digest different from the first repetition's.
#[derive(Debug, Default)]
pub struct Checker {
    reference: Option<Vec<Digest>>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checker {
    /// Check one repetition's operations.
    pub fn check(&mut self, ops: &[Op]) {
        let reference =
            self.reference.get_or_insert_with(|| ops.iter().map(|o| o.digest).collect());
        for (i, op) in ops.iter().enumerate() {
            self.attempted += 1;
            let error = op.error.clone().or_else(|| match reference.get(i) {
                Some(d) if *d == op.digest => None,
                Some(d) => Some(format!(
                    "operation {i}: digest {:?} differs from the first repetition's {d:?}",
                    op.digest
                )),
                None => Some(format!("operation {i} has no counterpart in the first repetition")),
            });
            if let Some(e) = error {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
            }
        }
    }

    /// Failed share of attempted operations.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// One named, measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checker: Checker,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Repeat `w` round-robin under each of `modes` until `budget` has
/// elapsed and each mode ran at least [`MIN_REPS`] times, checking every
/// repetition. The order within a round alternates, so drift in the host
/// hits every mode alike.
fn repeat(w: &Workload, modes: &[Mode], budget: Duration, checker: &mut Checker) -> Vec<Vec<Rep>> {
    let start = Instant::now();
    let mut reps: Vec<Vec<Rep>> = modes.iter().map(|_| Vec::new()).collect();
    let mut round = 0;
    while reps[0].len() < MIN_REPS || start.elapsed() < budget {
        for k in 0..modes.len() {
            let k = if round % 2 == 0 { k } else { modes.len() - 1 - k };
            let rep = w.rep(&modes[k]);
            checker.check(&rep.ops);
            reps[k].push(rep);
        }
        round += 1;
    }
    reps
}

fn walls(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| secs(r.wall_ns)).collect()
}

/// Run `w` for `seconds`: untraced for the end-to-end metrics, or traced
/// for the per-layer ones. `say` receives the human-readable report.
pub fn measure(
    w: &Workload,
    scale: Scale,
    seconds: f64,
    trace: bool,
    say: &mut dyn FnMut(String),
) -> Outcome {
    let mut checker = Checker::default();
    // Warm-up: caches, lazy set-up and the thread pool; also the digest
    // every later repetition must reproduce.
    let warm = w.rep(&Mode::Plain);
    checker.check(&warm.ops);
    let digest = warm.sim;
    say(format!(
        "digest: sim_time_s={} sim_energy_j={} syncs={}",
        digest.sim_time_s, digest.sim_energy_j, digest.syncs
    ));
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let metrics = if trace {
        traced(w, scale, budget, &mut checker, say)
    } else {
        untraced(w, digest, budget, &mut checker, say)
    };
    for e in &checker.errors {
        say(format!("FAILED: {e}"));
    }
    Outcome { metrics, checker }
}

fn untraced(
    w: &Workload,
    digest: Digest,
    budget: Duration,
    checker: &mut Checker,
    say: &mut dyn FnMut(String),
) -> Vec<Metric> {
    let reps = repeat(w, &[Mode::Plain], budget, checker).remove(0);
    let wall = walls(&reps);
    let setup: Vec<f64> = reps.iter().map(|r| secs(r.setup_ns)).collect();
    let (wall_s, setup_s) = (fastest(&wall), fastest(&setup));
    let work = w.work();
    let (median_s, n) = (median(&wall), wall.len());
    match tail(&wall) {
        Some((p, v)) => {
            say(format!("wall_s: fastest {wall_s} median {median_s} p{p} {v} over {n} samples"))
        }
        None => say(format!(
            "wall_s: fastest {wall_s} median {median_s} over {n} samples (too few for a tail)"
        )),
    }
    say(format!(
        "wall_s quartiles: min {} q1 {} q3 {} max {}",
        quantile(&wall, 0.0),
        quantile(&wall, 0.25),
        quantile(&wall, 0.75),
        quantile(&wall, 1.0)
    ));
    say(format!(
        "setup_s: fastest {setup_s} median {} over {} samples",
        median(&setup),
        setup.len()
    ));
    say(format!(
        "rates: {} node syncs/s, {} atom steps/s",
        ratio(work.node_syncs, wall_s),
        ratio(work.atom_steps, wall_s)
    ));
    say(format!(
        "failed_frac: {} ({} of {})",
        checker.failed_frac(),
        checker.failed,
        checker.attempted
    ));
    let value = |name: &str| match name {
        "wall_s" => wall_s,
        "setup_s" => setup_s,
        "peak_rss_mb" => peak_rss_mb(),
        "sim_time_s" => digest.sim_time_s,
        "sim_energy_mj" => digest.sim_energy_j / 1e6,
        other => unreachable!("no definition for end-to-end metric {other}"),
    };
    END_TO_END.iter().map(|&(name, unit)| Metric { name, value: value(name), unit }).collect()
}

fn traced(
    w: &Workload,
    scale: Scale,
    budget: Duration,
    checker: &mut Checker,
    say: &mut dyn FnMut(String),
) -> Vec<Metric> {
    // One counting pass, then untraced and layer-timed repetitions
    // interleaved, then the side measurements.
    let counts = Probe::default();
    let count_rep = w.rep(&Mode::Count(counts.clone()));
    checker.check(&count_rep.ops);
    let probe = Probe::default();
    let mut reps =
        repeat(w, &[Mode::Plain, Mode::Layers(probe.clone())], budget.mul_f64(0.85), checker);
    let (layered, base) = (reps.pop().expect("layer reps"), reps.pop().expect("plain reps"));
    checker.check(&w.side(&probe, scale));

    let l = lock(&probe);
    let c = lock(&counts);
    let n = layered.len() as f64;
    let (base_wall, traced_wall) = (walls(&base), walls(&layered));
    // Medians, not the fastest repetitions: the two kinds are interleaved,
    // so each median sees the same mix of host speeds, while one lucky
    // repetition decides a minimum.
    let overhead_pct = (ratio(median(&traced_wall), median(&base_wall)) - 1.0) * 100.0;
    let attributed_pct = ratio(secs(l.attributed_ns), traced_wall.iter().sum()) * 100.0;
    let events: u64 = c.events.values().sum();
    say(format!(
        "traced: {} untraced and {} traced repetitions, overhead {overhead_pct:.2} %, attributed {attributed_pct:.2} %",
        base.len(),
        layered.len()
    ));
    say(format!("events by tag: {:?}", c.events));

    let ms =
        |name: &str| -> Vec<f64> { l.samples(name).iter().map(|&ns| ns as f64 / 1e6).collect() };
    let us =
        |name: &str| -> Vec<f64> { l.samples(name).iter().map(|&ns| ns as f64 / 1e3).collect() };
    let total_ns = |name: &str| -> f64 { l.samples(name).iter().sum::<u64>() as f64 };
    let per_rep = |name: &str| ratio(l.tallied(name) as f64, n);
    let tag = |t: &str| c.events.get(t).copied().unwrap_or(0) as f64;
    let work = w.work();
    let value = |name: &str| -> f64 {
        match name {
            "node_syncs_per_s" => ratio(work.node_syncs, fastest(&base_wall)),
            "atom_steps_per_s" => ratio(work.atom_steps, fastest(&base_wall)),
            "insitu.step_sync_ms.p50" => median(&ms("insitu.step_sync")),
            "insitu.step_sync_ms.p99" => quantile(&ms("insitu.step_sync"), 0.99),
            "insitu.walk_self_ms.mean" => mean(&ms("insitu.walk_self")),
            "insitu.compact_ms.total" => ratio(total_ns("insitu.compact") / 1e6, n),
            "insitu.setup_ms" => median(&ms("insitu.setup")),
            "sched.step_epoch_ms.p50" => median(&ms("sched.step_epoch")),
            "sched.step_epoch_ms.p99" => quantile(&ms("sched.step_epoch"), 0.99),
            "sched.epochs" => ratio(l.samples("sched.step_epoch").len() as f64, n),
            "core.on_sync_us.p50" => median(&us("core.on_sync")),
            "core.on_sync_us.p99" => quantile(&us("core.on_sync"), 0.99),
            "core.decisions" => per_rep("core.decisions"),
            "theta_sim.phase_spans" => tag("phase"),
            "theta_sim.waits" => tag("wait"),
            "rapl.cap_requests" => tag("cap_request"),
            "polimer.samples" => tag("sample"),
            "mpisim.exchanges" => tag("exchange_done"),
            "mdsim.step_work_ms.p50" => median(&ms("mdsim.step_work")),
            "mdsim.step_work_ms.p99" => quantile(&ms("mdsim.step_work"), 0.99),
            "mdsim.force_ns_per_pair" => {
                ratio(total_ns("mdsim.force"), l.tallied("mdsim.pairs") as f64)
            }
            "mdsim.neighbor_ms" => mean(&ms("mdsim.neighbor")),
            "mdsim.integrate_ms" => mean(&ms("mdsim.integrate")),
            "mdsim.pairs_per_step" => {
                ratio(l.tallied("mdsim.pairs") as f64, l.samples("mdsim.force").len() as f64)
            }
            "obs.events" => events as f64,
            "obs.emit_ns_per_event" => {
                ratio(median(&ms("obs.emit_pass")) * 1e6, l.tallied("obs.emit_events") as f64)
            }
            "obs.encode_mb_per_s" => {
                ratio(l.tallied("trace.jsonl_bytes") as f64 * 1e3, total_ns("obs.encode"))
            }
            "audit.fold_ns_per_event" => {
                ratio(l.tallied("audit.fold_ns") as f64, l.tallied("audit.events") as f64)
            }
            "audit.parse_mb_per_s" => {
                ratio(l.tallied("trace.jsonl_bytes") as f64 * 1e3, total_ns("audit.parse"))
            }
            "audit.replay_ns_per_event" => {
                ratio(total_ns("audit.replay"), l.tallied("audit.replay_lines") as f64)
            }
            "audit.finish_ms" => median(&ms("audit.finish")),
            "audit.violations" => per_rep("audit.violations"),
            "events_per_s" => ratio(events as f64, secs(count_rep.wall_ns)),
            "failed_frac" => checker.failed_frac(),
            "trace.overhead_pct" => overhead_pct,
            "trace.attributed_pct" => attributed_pct,
            "trace.reps" => n,
            other => unreachable!("no definition for per-layer metric {other}"),
        }
    };
    PER_LAYER.iter().map(|&(name, unit)| Metric { name, value: value(name), unit }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{audit_replay, NAMES};
    use std::collections::BTreeMap;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let body = &text[text.find(&format!("\"{list}\"")).expect("list present")..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |obj: &str, key: &str| -> String {
            let rest = &obj[obj.find(&format!("\"{key}\"")).expect("key") + key.len() + 2..];
            let rest = &rest[rest.find('"').expect("value opens") + 1..];
            rest[..rest.find('"').expect("value closes")].to_string()
        };
        body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }

    /// Every workload at a tiny size, untraced and traced: every named
    /// metric is emitted with its unit, and every operation passes.
    #[test]
    fn every_workload_emits_every_metric() {
        for name in NAMES {
            let w = Workload::new(name, 7, Scale::Tiny).expect("known workload");
            for (trace, catalogue) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let out = measure(&w, Scale::Tiny, 0.0, trace, &mut |_| {});
                let got: BTreeMap<_, _> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
                let want: BTreeMap<_, _> = catalogue.iter().copied().collect();
                assert_eq!(got, want, "{name} trace={trace}");
                assert!(
                    out.metrics.iter().all(|m| m.value.is_finite()),
                    "{name}: {:?}",
                    out.metrics
                );
                assert_eq!(out.checker.failed, 0, "{name}: {:?}", out.checker.errors);
                assert!(out.checker.attempted > 0);
                if !trace {
                    assert!(out.metrics.iter().all(|m| m.value > 0.0), "{name}: {:?}", out.metrics);
                }
            }
        }
    }

    /// A repetition whose digest differs from the first one fails.
    #[test]
    fn doctored_digest_is_caught() {
        let w = Workload::new("theta_noisy", 3, Scale::Tiny).expect("known workload");
        let mut checker = Checker::default();
        let rep = w.rep(&Mode::Plain);
        checker.check(&rep.ops);
        checker.check(&rep.ops);
        assert_eq!(checker.failed, 0);
        let mut doctored = rep.ops.clone();
        doctored[0].digest.sim_energy_j *= 1.0 + 1e-12;
        checker.check(&doctored);
        assert!(checker.failed_frac() > 0.0);
    }

    /// A replayed trace with one line changed fails, whether the line no
    /// longer parses or breaks an audit invariant.
    #[test]
    fn doctored_trace_line_is_caught() {
        let Some(Workload::TraceReplay(cfg)) = Workload::new("trace_replay", 5, Scale::Tiny) else {
            panic!("trace_replay is a replay workload");
        };
        let tracer = obs::Tracer::enabled();
        let mut rt = insitu::Runtime::new(cfg).expect("known controller");
        rt.set_tracer(&tracer);
        let job = rt.run();
        let jsonl = tracer.to_jsonl();
        let recorded = tracer.len() as u64;
        let clean = audit_replay(&jsonl, recorded, &job, None);
        assert_eq!(clean.error, None);

        let garbled = jsonl.replacen("\"sync_start\"", "\"sync_strat\"", 1);
        let bad_energy = {
            let (at, line) = jsonl
                .lines()
                .enumerate()
                .find(|(_, l)| l.contains("\"run_end\""))
                .expect("run_end");
            let doctored = line.replace("\"total_energy_j\":", "\"total_energy_j\":1");
            jsonl
                .lines()
                .enumerate()
                .map(|(i, l)| if i == at { doctored.as_str() } else { l })
                .collect::<Vec<_>>()
                .join("\n")
        };
        for doctored in [garbled, bad_energy] {
            assert_ne!(doctored, jsonl);
            let mut checker = Checker::default();
            checker.check(std::slice::from_ref(&clean));
            checker.check(&[audit_replay(&doctored, recorded, &job, None)]);
            assert!(checker.failed_frac() > 0.0, "doctored trace passed");
        }
    }
}

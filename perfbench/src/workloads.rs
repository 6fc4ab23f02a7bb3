//! The workloads. Each repetition builds its inputs from the
//! generated configuration (timed as set-up), runs them (timed as wall
//! time) and checks the outputs of every operation (simulated job).

use crate::probe::{
    drive, lock, top, CountingSubscriber, Probe, TimedController, TimedSubscriber, TimedWorkload,
};
use crate::stats::timed;
use audit::{AuditEvent, Severity, StreamAuditor};
use insitu::{build_controller, JobConfig, RunResult, Runtime};
use mdsim::workload::{MeasuredWorkload, WorkloadGen, WorkloadSpec};
use mdsim::{AnalysisKind as K, MdEngine};
use sched::{JobSpec, MachineResult, MachineSpec, Policy, Scheduler};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["theta_noisy", "theta_machine", "trace_replay", "md_insitu"];

/// Theta's node count: the full-scale workloads span the whole machine.
const THETA_NODES: usize = 4392;

/// Problem sizes: the benchmark proper, or the self-test's tiny runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Scale {
    fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

/// How a repetition is instrumented.
#[derive(Clone)]
pub enum Mode {
    /// As a user runs it: no benchmark timers, no extra subscribers.
    Plain,
    /// Layer timers and delegating wrappers recording into the probe.
    Layers(Probe),
    /// A counting subscriber on the program's tracer (exact event counts).
    Count(Probe),
}

impl Mode {
    fn layers(&self) -> Option<&Probe> {
        match self {
            Mode::Layers(p) => Some(p),
            _ => None,
        }
    }
}

/// The simulated outcome of one job (or of the whole machine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Digest {
    pub sim_time_s: f64,
    pub sim_energy_j: f64,
    pub syncs: u64,
}

impl Digest {
    fn of(r: &RunResult) -> Self {
        Digest {
            sim_time_s: r.total_time_s,
            sim_energy_j: r.total_energy_j,
            syncs: r.syncs.len() as u64,
        }
    }
}

/// One operation: a simulated job, with the reason it failed, if it did.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub digest: Digest,
    pub error: Option<String>,
}

impl Op {
    fn failed(why: impl Into<String>) -> Self {
        let nan = Digest { sim_time_s: f64::NAN, sim_energy_j: f64::NAN, syncs: 0 };
        Op { digest: nan, error: Some(why.into()) }
    }

    /// Check a finished job against its configured length.
    fn job(r: &RunResult, want_syncs: u64) -> Self {
        let digest = Digest::of(r);
        Op { digest, error: job_error(digest, want_syncs) }
    }
}

fn job_error(d: Digest, want_syncs: u64) -> Option<String> {
    if d.syncs != want_syncs {
        Some(format!("stopped after {} of {want_syncs} syncs", d.syncs))
    } else if !(d.sim_time_s.is_finite() && d.sim_energy_j.is_finite()) {
        Some(format!("non-finite result {d:?}"))
    } else {
        None
    }
}

/// One timed repetition.
#[derive(Debug)]
pub struct Rep {
    pub setup_ns: u64,
    pub wall_ns: u64,
    pub ops: Vec<Op>,
    /// Simulated outcome of the repetition: the job's, or the machine's
    /// makespan and total energy.
    pub sim: Digest,
}

/// Simulated work one repetition completes.
#[derive(Debug, Clone, Copy)]
pub struct Work {
    /// Node × synchronization intervals.
    pub node_syncs: f64,
    /// Atoms × Verlet steps: the real engine's atoms on `md_insitu`, the
    /// modelled problem's atoms elsewhere.
    pub atom_steps: f64,
}

impl Work {
    fn of(spec: &WorkloadSpec) -> Self {
        Work {
            node_syncs: (spec.nodes_total() as u64 * spec.sync_count()) as f64,
            atom_steps: spec.total_atoms() * spec.total_steps as f64,
        }
    }
}

/// A workload with its inputs generated from the seed.
pub enum Workload {
    /// One full-width SeeSAw job under paper-default noise (dense walk).
    ThetaNoisy(JobConfig),
    /// The machine scheduler over four quiet jobs on the full machine.
    ThetaMachine { spec: MachineSpec, jobs: Vec<JobSpec> },
    /// Record a job, encode it to JSONL, stream it back through the auditor.
    TraceReplay(JobConfig),
    /// A SeeSAw job driven by the real MD engine.
    MdInsitu { cfg: JobConfig, real_dim: usize, md_seed: u64 },
}

/// SplitMix64: derives independent input parameters from the seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the seed.
fn unit(seed: u64, stream: u64) -> f64 {
    (mix(seed, stream) >> 11) as f64 / (1u64 << 53) as f64
}

fn job(dim: u32, nodes: usize, syncs: u64, kinds: &[K], seed: u64, stream: u64) -> JobConfig {
    let mut spec = WorkloadSpec::paper(dim, nodes, 1, kinds);
    spec.total_steps = syncs;
    JobConfig::new(spec, "seesaw").with_seed(mix(seed, stream), 0)
}

impl Workload {
    /// Generate the named workload's inputs from `seed`.
    pub fn new(name: &str, seed: u64, scale: Scale) -> Option<Self> {
        let nodes = scale.pick(THETA_NODES, 64);
        Some(match name {
            "theta_noisy" => {
                Workload::ThetaNoisy(job(36, nodes, scale.pick(120, 5), &[K::MsdFull], seed, 1))
            }
            "theta_machine" => {
                // Half the machine, two quarters, and a fourth quarter-width
                // job queued until the shortest one frees its nodes. The
                // seed sets the envelope within ±1 % of 101 W per node, just
                // above the 98 W floor: power binds, so the makespan depends
                // on how the governor divides it.
                let (half, quarter) = (nodes / 2, nodes / 4);
                let len = |full: u64| scale.pick(full, full / 16);
                let quiet = |c: JobConfig| JobSpec::at_start(c.with_quiet_noise());
                let jobs = vec![
                    quiet(job(48, half, len(128), &[K::Rdf, K::Vacf], seed, 2)),
                    quiet(job(24, quarter, len(96), &[K::Rdf], seed, 3)),
                    quiet(job(16, quarter, len(48), &[K::Vacf], seed, 4)),
                    quiet(job(24, quarter, len(80), &[K::MsdFull], seed, 5)),
                ];
                let per_node_w = 101.0 * (0.99 + 0.02 * unit(seed, 6));
                let mut spec =
                    MachineSpec::new(nodes, per_node_w * nodes as f64, Policy::EnergyFeedback);
                spec.syncs_per_epoch = 1;
                Workload::ThetaMachine { spec, jobs }
            }
            "trace_replay" => Workload::TraceReplay(job(
                16,
                scale.pick(512, 32),
                scale.pick(16, 4),
                &[K::Rdf, K::Vacf],
                seed,
                8,
            )),
            "md_insitu" => Workload::MdInsitu {
                cfg: job(
                    16,
                    scale.pick(16, 4),
                    scale.pick(4, 3),
                    &[K::Rdf, K::Vacf, K::MsdFull],
                    seed,
                    9,
                ),
                real_dim: scale.pick(2, 1),
                md_seed: mix(seed, 10),
            },
            _ => return None,
        })
    }

    /// Simulated work per repetition.
    pub fn work(&self) -> Work {
        match self {
            Workload::ThetaNoisy(c) | Workload::TraceReplay(c) => Work::of(&c.workload),
            Workload::ThetaMachine { jobs, .. } => jobs
                .iter()
                .map(|j| Work::of(&j.config.workload))
                .fold(Work { node_syncs: 0.0, atom_steps: 0.0 }, |a, w| Work {
                    node_syncs: a.node_syncs + w.node_syncs,
                    atom_steps: a.atom_steps + w.atom_steps,
                }),
            Workload::MdInsitu { cfg, real_dim, .. } => {
                let spec = &cfg.workload;
                let real_atoms = (mdsim::UNIT_CELL_ATOMS * real_dim.pow(3)) as f64;
                Work {
                    node_syncs: Work::of(spec).node_syncs,
                    atom_steps: real_atoms * spec.total_steps as f64,
                }
            }
        }
    }

    /// Run one repetition. A panic inside the program counts as a failed
    /// operation, not as a benchmark crash.
    pub fn rep(&self, mode: &Mode) -> Rep {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match self {
            Workload::ThetaNoisy(cfg) => single_job(cfg, mode),
            Workload::ThetaMachine { spec, jobs } => machine(spec, jobs, mode),
            Workload::TraceReplay(cfg) => replay(cfg, mode),
            Workload::MdInsitu { cfg, real_dim, md_seed } => md_job(cfg, *real_dim, *md_seed, mode),
        }));
        caught.unwrap_or_else(|panic| {
            let why = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            let op = Op::failed(format!("panicked: {why}"));
            Rep { setup_ns: 0, wall_ns: 0, sim: op.digest, ops: vec![op] }
        })
    }

    /// Layer measurements made beside the timed repetitions: the emit
    /// cost and the live audit fold of the recorded job, and a standalone
    /// MD engine of the same size stepped phase by phase. Returns the
    /// operations they ran, for the caller to check.
    pub fn side(&self, probe: &Probe, scale: Scale) -> Vec<Op> {
        match self {
            Workload::TraceReplay(cfg) => {
                let tracer = obs::Tracer::enabled();
                let mut rt = match Runtime::new(cfg.clone()) {
                    Ok(rt) => rt,
                    Err(e) => return vec![Op::failed(format!("{e:?}"))],
                };
                rt.set_tracer(&tracer);
                rt.run();
                emit_cost(&tracer.events(), probe, scale.pick(20, 2));
                // The recorded job audited live, beside its replay.
                vec![live_fold(cfg, probe)]
            }
            Workload::MdInsitu { real_dim, md_seed, .. } => {
                let mut e = MdEngine::water_ion_benchmark(*real_dim, *md_seed);
                for _ in 0..scale.pick(12, 2) {
                    let (_, integrate) = timed(|| e.initial_integrate());
                    let (_, neighbor) = timed(|| e.update_neighbors());
                    let (pairs, force) = timed(|| e.force_and_final_integrate());
                    e.bump_step();
                    let mut l = lock(probe);
                    l.span("mdsim.integrate", integrate);
                    l.span("mdsim.neighbor", neighbor);
                    l.span("mdsim.force", force);
                    l.tally("mdsim.pairs", pairs);
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }
}

/// The obs record path alone: a recorded job's events emitted again, one
/// `Tracer::emit_at` call each, into a streaming tracer with no
/// subscriber, `passes` times, one timer around each pass. Building the
/// events is the program's cost, not the tracer's, and is left out.
fn emit_cost(events: &[obs::TraceEvent], probe: &Probe, passes: usize) {
    for _ in 0..passes {
        let batch = events.to_vec();
        let tracer = obs::Tracer::streaming();
        let ((), ns) = timed(|| {
            for te in batch {
                tracer.emit_at(te.t, te.ev);
            }
        });
        lock(probe).span("obs.emit_pass", ns);
    }
    lock(probe).tally("obs.emit_events", events.len() as u64);
}

/// Build a job's runtime, wrapping its controller under `Mode::Layers`.
fn runtime(cfg: &JobConfig, mode: &Mode) -> Result<Runtime, String> {
    let rt = match mode.layers() {
        Some(p) => {
            let inner = build_controller(cfg).map_err(|e| format!("{e:?}"))?;
            Runtime::with_controller(cfg.clone(), Box::new(TimedController::new(inner, p.clone())))
        }
        None => Runtime::new(cfg.clone()).map_err(|e| format!("{e:?}"))?,
    };
    Ok(rt)
}

/// `base` with the counting subscriber attached under `Mode::Count`.
fn count_tracer(mode: &Mode, base: obs::Tracer) -> obs::Tracer {
    if let Mode::Count(p) = mode {
        base.attach(Box::new(CountingSubscriber(p.clone())));
    }
    base
}

fn setup_failed(why: String, setup_ns: u64) -> Rep {
    let op = Op::failed(why);
    Rep { setup_ns, wall_ns: 0, sim: op.digest, ops: vec![op] }
}

fn record_setup(mode: &Mode, ns: u64) {
    if let Some(p) = mode.layers() {
        lock(p).span("insitu.setup", ns);
    }
}

fn single_job(cfg: &JobConfig, mode: &Mode) -> Rep {
    let (rt, setup_ns) = timed(|| {
        let mut rt = runtime(cfg, mode)?;
        if let Mode::Count(_) = mode {
            rt.set_tracer(&count_tracer(mode, obs::Tracer::streaming()));
        }
        Ok(rt)
    });
    record_setup(mode, setup_ns);
    let rt = match rt {
        Ok(rt) => rt,
        Err(e) => return setup_failed(e, setup_ns),
    };
    let (r, wall_ns) = timed(|| drive(rt, mode.layers()));
    let op = Op::job(&r, cfg.workload.sync_count());
    Rep { setup_ns, wall_ns, sim: op.digest, ops: vec![op] }
}

/// Scheduler builds timed per repetition: one takes microseconds (the
/// jobs' runtimes are built later, at admission), too short to time
/// alone against a cold cache, so set-up is the mean of a batch.
const SCHEDULER_BUILDS: u32 = 32;

fn machine(spec: &MachineSpec, jobs: &[JobSpec], mode: &Mode) -> Rep {
    let build = || Scheduler::new(spec.clone(), jobs.to_vec()).map_err(|e| format!("{e:?}"));
    let (s, batch_ns) = timed(|| {
        for _ in 1..SCHEDULER_BUILDS {
            drop(build());
        }
        let mut s = build()?;
        if let Mode::Count(_) = mode {
            s.set_tracer(&count_tracer(mode, obs::Tracer::streaming()));
        }
        Ok::<_, String>(s)
    });
    let setup_ns = batch_ns / u64::from(SCHEDULER_BUILDS);
    let mut s = match s {
        Ok(s) => s,
        Err(e) => return setup_failed(e, setup_ns),
    };
    let (result, wall_ns) = timed(|| match mode.layers() {
        None => s.run(),
        Some(p) => {
            top(p, "sched.start", || s.start());
            while s.epoch() < spec.max_epochs {
                top(p, "sched.step_epoch", || s.step_epoch());
                if s.all_terminal() {
                    break;
                }
            }
            top(p, "sched.finish", || s.finish())
        }
    });
    let ops = machine_ops(&result, jobs);
    let sim = Digest {
        sim_time_s: result.makespan_s,
        sim_energy_j: result.total_energy_j,
        syncs: result.outcomes.iter().map(|o| o.syncs_done).sum(),
    };
    Rep { setup_ns, wall_ns, ops, sim }
}

/// One operation per submitted job: it must complete every sync.
fn machine_ops(result: &MachineResult, jobs: &[JobSpec]) -> Vec<Op> {
    jobs.iter()
        .enumerate()
        .map(|(i, spec)| match result.outcomes.iter().find(|o| o.job == i) {
            None => Op::failed(format!("job {i} has no outcome")),
            Some(o) => {
                let digest = Digest {
                    sim_time_s: o.job_time_s,
                    sim_energy_j: o.energy_j,
                    syncs: o.syncs_done,
                };
                let error = if o.outcome != "completed" {
                    Some(format!("job {i} ended {}", o.outcome))
                } else {
                    job_error(digest, spec.config.workload.sync_count())
                };
                Op { digest, error }
            }
        })
        .collect()
}

/// Error-severity violations in an audit report, as a failure reason.
fn audit_error(report: &audit::AuditReport) -> Option<String> {
    let errors = report.violations.iter().filter(|v| v.severity() == Severity::Error).count();
    (errors > 0).then(|| format!("{errors} audit violations of error severity"))
}

/// Run the job with a streaming tracer feeding a live `StreamAuditor`
/// through a timing wrapper, tallying the fold time and the events into
/// `probe`. The operation fails like a job, or if the auditor finds an
/// error or sees another time or energy than the job returned.
fn live_fold(cfg: &JobConfig, probe: &Probe) -> Op {
    let auditor = Arc::new(Mutex::new(StreamAuditor::new()));
    let fold_ns = Arc::new(AtomicU64::new(0));
    let mut rt = match Runtime::new(cfg.clone()) {
        Ok(rt) => rt,
        Err(e) => return Op::failed(format!("{e:?}")),
    };
    let tracer = obs::Tracer::streaming();
    tracer.attach(Box::new(TimedSubscriber::new(auditor.clone(), fold_ns.clone(), probe.clone())));
    rt.set_tracer(&tracer);
    let r = rt.run();
    let fed = std::mem::take(&mut *auditor.lock().unwrap_or_else(|p| p.into_inner()));
    let report = fed.finish().report;
    let mut l = lock(probe);
    l.tally("audit.fold_ns", fold_ns.load(Ordering::Relaxed));
    l.tally("audit.events", report.events);
    let mut op = Op::job(&r, cfg.workload.sync_count());
    if op.error.is_none() {
        op.error = audit_error(&report).or_else(|| {
            let seen = (report.total_time_s, report.total_energy_j);
            (seen != (r.total_time_s, r.total_energy_j)).then(|| {
                format!("auditor saw time/energy {seen:?}, the job returned {:?}", op.digest)
            })
        });
    }
    op
}

fn replay(cfg: &JobConfig, mode: &Mode) -> Rep {
    let (rt, setup_ns) = timed(|| {
        let mut rt = runtime(cfg, mode)?;
        let tracer = count_tracer(mode, obs::Tracer::enabled());
        rt.set_tracer(&tracer);
        Ok::<_, String>((rt, tracer))
    });
    record_setup(mode, setup_ns);
    let (rt, tracer) = match rt {
        Ok(x) => x,
        Err(e) => return setup_failed(e, setup_ns),
    };
    let p = mode.layers();
    let ((r, jsonl, recorded), wall_ns) = timed(|| {
        let r = drive(rt, p);
        let jsonl = match p {
            Some(p) => top(p, "obs.encode", || tracer.to_jsonl()),
            None => tracer.to_jsonl(),
        };
        let recorded = tracer.len() as u64;
        drop(tracer);
        (r, jsonl, recorded)
    });
    let (op, replay_ns) = timed(|| audit_replay(&jsonl, recorded, &r, p));
    if let Some(p) = p {
        // The codec read path alone, outside the timed repetition.
        let parse = || jsonl.lines().map(AuditEvent::parse_line).filter(Result::is_ok).count();
        let (_, parse_ns) = timed(|| std::hint::black_box(parse()));
        let mut l = lock(p);
        l.tally("trace.jsonl_bytes", jsonl.len() as u64);
        l.tally("audit.replay_lines", recorded);
        l.span("audit.parse", parse_ns);
    }
    Rep { setup_ns, wall_ns: wall_ns + replay_ns, sim: op.digest, ops: vec![op] }
}

/// Stream a JSONL trace line by line through the auditor and check it
/// against the job that recorded it: every line parses, as many lines as
/// events recorded, no error-severity violation, and the audited time,
/// energy and sync count equal the job's.
pub fn audit_replay(jsonl: &str, recorded: u64, job: &RunResult, probe: Option<&Probe>) -> Op {
    let mut auditor = StreamAuditor::new();
    let mut feed = || {
        let mut lines = 0u64;
        for line in jsonl.lines() {
            lines += 1;
            auditor.feed_line(line).map_err(|e| format!("line {lines}: {e}"))?;
        }
        Ok::<_, String>(lines)
    };
    let fed = match probe {
        Some(p) => top(p, "audit.replay", feed),
        None => feed(),
    };
    let outcome = match probe {
        Some(p) => top(p, "audit.finish", || auditor.finish()),
        None => auditor.finish(),
    };
    let report = &outcome.report;
    if let Some(p) = probe {
        lock(p).tally("audit.violations", report.violations.len() as u64);
    }
    let digest = Digest {
        sim_time_s: report.total_time_s,
        sim_energy_j: report.total_energy_j,
        syncs: report.syncs,
    };
    let error = match fed {
        Err(e) => Some(e),
        Ok(lines) if lines != recorded => {
            Some(format!("parsed {lines} lines of {recorded} recorded"))
        }
        Ok(_) => audit_error(report).or_else(|| {
            (digest != Digest::of(job))
                .then(|| format!("replayed {digest:?}, recorded {:?}", Digest::of(job)))
        }),
    };
    let error = error.or_else(|| job_error(digest, job.syncs.len() as u64));
    Op { digest, error }
}

fn md_job(cfg: &JobConfig, real_dim: usize, md_seed: u64, mode: &Mode) -> Rep {
    let (rt, setup_ns) = timed(|| {
        let measured: Box<dyn WorkloadGen> =
            Box::new(MeasuredWorkload::new(cfg.workload.clone(), real_dim, md_seed));
        let workload: Box<dyn WorkloadGen> = match mode.layers() {
            Some(p) => Box::new(TimedWorkload::new(measured, p.clone())),
            None => measured,
        };
        let mut rt = Runtime::with_workload(cfg.clone(), workload).map_err(|e| format!("{e:?}"))?;
        if let Mode::Count(_) = mode {
            rt.set_tracer(&count_tracer(mode, obs::Tracer::streaming()));
        }
        Ok::<_, String>(rt)
    });
    record_setup(mode, setup_ns);
    let rt = match rt {
        Ok(rt) => rt,
        Err(e) => return setup_failed(e, setup_ns),
    };
    let (r, wall_ns) = timed(|| drive(rt, mode.layers()));
    let op = Op::job(&r, cfg.workload.sync_count());
    Rep { setup_ns, wall_ns, sim: op.digest, ops: vec![op] }
}

//! Zero-allocation gate for the MD hot path and the trace parser.
//!
//! This test binary registers [`mdsim::alloc_probe::CountingAlloc`] as its
//! global allocator (its own process, so the counter sees nothing else)
//! and asserts that the warmed hot paths — force evaluation through
//! caller-owned scratch, in-place neighbor rebuilds, whole engine steps,
//! and parsing a trace line — perform **zero** heap allocations at one
//! thread. At higher
//! thread counts the scoped pool spawns OS threads per call, which
//! allocate; the kernels themselves still only write into reused buffers,
//! which is what this gate pins down.
//!
//! Everything lives in one `#[test]` because the allocation counter is
//! process-global: concurrently running tests would pollute the deltas.

use mdsim::alloc_probe::{allocations, CountingAlloc};
use mdsim::{
    compute_forces_into, water_ion_box, CoeffTable, ForceParams, ForceScratch, MdEngine,
    NeighborList, PairTable,
};
use obs::{Event, TraceEvent};

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

#[test]
fn hot_paths_are_allocation_free_after_warmup() {
    par::with_threads(1, || {
        // Force kernel + neighbor rebuild on a static system: after one
        // warming call each, repeated calls must not touch the allocator.
        let sys = water_ion_box(1, 1.0, 42);
        let params = ForceParams::default();
        let coeffs = CoeffTable::new(&PairTable::new(), params.cutoff);
        let mut nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.4);
        let mut scratch = ForceScratch::new();
        let mut s = sys.clone();
        compute_forces_into(&mut scratch, &mut s, &nl, &coeffs, None);
        nl.rebuild(&s.pos);

        let before = allocations();
        for _ in 0..5 {
            compute_forces_into(&mut scratch, &mut s, &nl, &coeffs, None);
            nl.rebuild(&s.pos);
        }
        assert_eq!(allocations(), before, "force/neighbor hot path allocated");

        // A full engine: velocity-Verlet steps with skin-triggered
        // rebuilds on moving atoms. Generous warmup so every bin and the
        // pair list have seen their steady-state sizes (Vec growth leaves
        // slack, so later density fluctuations stay within capacity).
        let mut e = MdEngine::water_ion_benchmark(1, 43);
        let mut rebuilds = 0u32;
        for _ in 0..30 {
            rebuilds += u32::from(e.step().rebuilt);
        }
        assert!(rebuilds > 0, "warmup never rebuilt the neighbor list");

        let before = allocations();
        rebuilds = 0;
        for _ in 0..12 {
            rebuilds += u32::from(e.step().rebuilt);
        }
        assert_eq!(allocations(), before, "engine step allocated ({rebuilds} rebuilds)");
    });

    // Trace lines: one of every variant but `decision`, whose payload is
    // boxed. Tags resolve to vocabulary statics, numbers parse from
    // slices of the line, so a parse touches no allocator.
    let lines = [
        r#"{"t":0,"ev":"run_start","sim_nodes":12,"analysis_nodes":4,"budget_w":1760,"min_cap_w":98,"max_cap_w":215,"actuation_ns":10000000}"#,
        r#"{"t":1,"ev":"sync_start","sync":3}"#,
        r#"{"t":2,"ev":"arrival","sync":3,"node":7,"role":"analysis","time_s":2.5}"#,
        r#"{"t":3,"ev":"rendezvous","sync":3,"sim_time_s":2.5,"analysis_time_s":null,"slack":0.3}"#,
        r#"{"t":4,"ev":"sync_end","sync":3,"overhead_s":0.05}"#,
        r#"{"t":5,"ev":"sync_energy","sync":3,"energy_j":1034.5}"#,
        r#"{"t":6,"ev":"node_energy","node":7,"energy_j":250.125}"#,
        r#"{"t":7,"ev":"run_end","total_time_s":52.5,"total_energy_j":41380}"#,
        r#"{"t":8,"ev":"phase","node":7,"kind":"analysis_msd","start_ns":0,"end_ns":1000}"#,
        r#"{"t":9,"ev":"wait","node":1,"start_ns":1000,"end_ns":2000}"#,
        r#"{"t":10,"ev":"cap_request","node":0,"requested_w":120,"granted_w":118.5,"effective_ns":3}"#,
        r#"{"t":11,"ev":"sample","node":7,"role":"sim","time_s":2.5,"power_w":109.63,"cap_w":115}"#,
        r#"{"t":12,"ev":"sample_rejected","node":2}"#,
        r#"{"t":13,"ev":"exchange_done","sync":1,"overhead_s":0.05,"decided":true}"#,
        r#"{"t":14,"ev":"monitor_reelected","node":2,"new_rank":5}"#,
        r#"{"t":15,"ev":"node_excluded","node":3}"#,
        r#"{"t":16,"ev":"budget_renormalized","budget_w":330}"#,
        r#"{"t":17,"ev":"allocation_held","sync":2}"#,
        r#"{"t":18,"ev":"controller_hold","sync":1,"reason":"corrupt_sample"}"#,
        r#"{"t":19,"ev":"machine_start","nodes":64,"envelope_w":8000}"#,
        r#"{"t":20,"ev":"job_arrived","job":0}"#,
        r#"{"t":21,"ev":"job_started","job":0,"nodes":8,"budget_w":1280}"#,
        r#"{"t":22,"ev":"job_completed","job":0,"time_s":52.5}"#,
        r#"{"t":23,"ev":"job_killed","job":1}"#,
        r#"{"t":24,"ev":"machine_budget","epoch":3,"allocated_w":7500,"pool_w":500}"#,
        r#"{"t":25,"ev":"fleet_start","machines":3,"envelope_w":2100,"retry_base_epochs":1,"retry_cap_epochs":8,"max_retries":3}"#,
        r#"{"t":26,"ev":"machine_down","machine":1,"epoch":4}"#,
        r#"{"t":27,"ev":"machine_up","machine":1,"epoch":9}"#,
        r#"{"t":28,"ev":"job_dispatched","job":2,"machine":0}"#,
        r#"{"t":29,"ev":"job_retry","job":2,"attempt":1,"backoff_epochs":1}"#,
        r#"{"t":30,"ev":"job_migrated","job":2,"from_machine":1,"to_machine":0}"#,
        r#"{"t":31,"ev":"job_failed","job":5,"attempts":4}"#,
        r#"{"t":32,"ev":"envelope_renorm","epoch":4,"machine":0,"share_w":1050.5,"cap_w":1100}"#,
        r#"{"t":33,"ev":"fault","sync":2,"node":4,"tag":"collective_timeout"}"#,
        r#"{"t":34,"ev":"recovery","sync":2,"node":4,"tag":"collective_retried"}"#,
    ];
    let mut tags: Vec<&str> = lines
        .iter()
        .map(|l| TraceEvent::parse_line(l).unwrap_or_else(|e| panic!("{l}: {e}")).ev.tag())
        .collect();
    tags.push("decision");
    tags.sort_unstable();
    let mut want = Event::TAGS.to_vec();
    want.sort_unstable();
    assert_eq!(tags, want, "one line per variant");
    for line in lines {
        let before = allocations();
        let ev = TraceEvent::parse_line(line);
        let after = allocations();
        assert!(ev.is_ok());
        drop(ev);
        assert_eq!(after, before, "parse_line allocated on {line}");
    }
}

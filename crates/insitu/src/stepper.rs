//! The cluster stepping core: how one partition's nodes advance through a
//! sync interval's phase list. Every node walk in the workspace — both
//! partitions of the space-shared runtime and both epochs of time-shared
//! mode — goes through [`advance_partition`].
//!
//! One predicate, [`theta_sim::NoiseModel::draws`], splits the nodes:
//!
//! * **Nodes that draw** (nonzero phase sigma, or a straggler lottery armed
//!   by `sigma_scale > 1`) walk alone, phase by phase, in node order. That
//!   is the order in which they consume the shared jitter stream.
//! * **Nodes that draw nothing**, when bucketing is on, are grouped into
//!   buckets by exact state fingerprint. One representative per bucket
//!   walks the phases on the DES event queue — buckets are only touched
//!   when the simulated clock reaches their next completion time — and
//!   every other member adopts the representative's walk verbatim.
//!   O(buckets × phases + nodes) per interval.
//!
//! Under paper-default noise every node draws, so the walk is the plain
//! node-major loop. With bucketing off ([`crate::StepMode::Dense`]) every
//! node walks alone: the reference the equivalence gates compare against.
//!
//! Why bucketing is byte-identical to walking every node:
//!
//! * A bucketed node consumes **zero** randomness: the noise model's
//!   no-draw fast path returns exactly 1.0, so skipping it leaves the
//!   shared stream where a walk would have left it. The nodes that do draw
//!   keep their relative order.
//! * A node walk touches only that node (span events are buffered per node
//!   and flushed in node-id order), so walking the buckets after the
//!   drawing nodes changes nothing observable.
//! * Replicas adopt the representative's RAPL domain and draw segments by
//!   copy, not by replay: `request_cap`'s epsilon no-op check makes
//!   recomputation divergent, copying makes it exact.

use des::{EventQueue, SimTime};
use std::collections::BTreeMap;
use theta_sim::{Cluster, MachineConfig, NodeStateKey, Work};

/// Per-node inputs for one partition's advance.
pub(crate) struct NodeCtx {
    /// Node id.
    pub node: usize,
    /// Jitter sigma amplification (> 1 near the RAPL floor ⇒ the node
    /// draws from the straggler lottery).
    pub sigma_scale: f64,
    /// Work stretch factor: an injected straggler fault, or time-shared
    /// mode's per-node share of the partition's work.
    pub stretch: f64,
}

/// One bucket of state-identical nodes sharing a representative walk.
struct Bucket {
    /// Member positions into the partition's `ctx`, in node order;
    /// `idxs[0]` is the representative.
    idxs: Vec<usize>,
    stretch: f64,
    /// Next phase index the representative has yet to run.
    next_phase: usize,
    /// Representative's cursor (start time of its next phase).
    cursor: SimTime,
}

/// Advance every node in `ctx` (in node order) from `t0` through `phases`,
/// appending `(node, arrival)` pairs to `arrivals` in node order. With
/// `bucket`, nodes that draw no noise share one walk per state bucket.
pub(crate) fn advance_partition(
    cluster: &mut Cluster,
    machine: &MachineConfig,
    ctx: &[NodeCtx],
    phases: &[Work],
    t0: SimTime,
    bucket: bool,
    arrivals: &mut Vec<(usize, SimTime)>,
) {
    let base = arrivals.len();
    // Drawing nodes walk now, in node order. The rest are grouped by exact
    // evolution state; BTreeMap iteration keeps bucket order (and thus
    // queue tie-breaking) deterministic.
    let mut groups: BTreeMap<(u64, NodeStateKey), Vec<usize>> = BTreeMap::new();
    for (i, c) in ctx.iter().enumerate() {
        let arrival = if bucket && !cluster.noise().draws(c.sigma_scale) {
            groups
                .entry((c.stretch.to_bits(), cluster.node(c.node).state_key()))
                .or_default()
                .push(i);
            // Placeholder: the bucket's walk overwrites it below.
            t0
        } else {
            walk_node(cluster, machine, c, phases, t0)
        };
        arrivals.push((c.node, arrival));
    }
    if groups.is_empty() {
        return;
    }
    let mut buckets: Vec<Bucket> = groups
        .into_values()
        .map(|idxs| Bucket { stretch: ctx[idxs[0]].stretch, idxs, next_phase: 0, cursor: t0 })
        .collect();

    // Representative walks, event-driven. Each bucket sits in the queue
    // keyed by its next completion boundary; it is not touched until the
    // DES clock reaches it.
    let mut queue: EventQueue<usize> = EventQueue::new();
    let mut marks = Vec::with_capacity(buckets.len());
    for (bi, b) in buckets.iter().enumerate() {
        marks.push(cluster.node(ctx[b.idxs[0]].node).history_mark());
        if !phases.is_empty() {
            queue.push(t0, bi);
        }
    }
    while let Some((now, bi)) = queue.pop() {
        let b = &mut buckets[bi];
        debug_assert_eq!(now, b.cursor);
        let w = stretch_work(phases[b.next_phase], b.stretch);
        // A bucketed node draws nothing: its jitter is exactly 1.0.
        b.cursor = cluster.node_mut(ctx[b.idxs[0]].node).run_phase(machine, b.cursor, w, 1.0);
        b.next_phase += 1;
        if b.next_phase < phases.len() {
            queue.push(b.cursor, bi);
        }
    }

    // Fan each representative's walk out to its members.
    for (b, &mark) in buckets.iter().zip(&marks) {
        let rep = ctx[b.idxs[0]].node;
        for &i in &b.idxs {
            arrivals[base + i].1 = b.cursor;
            let member = ctx[i].node;
            if member != rep {
                cluster.adopt_walk(rep, member, mark);
            }
        }
    }
}

/// Walk one node through the whole phase list, drawing its jitter.
fn walk_node(
    cluster: &mut Cluster,
    machine: &MachineConfig,
    c: &NodeCtx,
    phases: &[Work],
    t0: SimTime,
) -> SimTime {
    let mut cursor = t0;
    for &w in phases {
        let w = stretch_work(w, c.stretch);
        let jitter = cluster.noise_mut().phase_jitter(c.sigma_scale);
        cursor = cluster.node_mut(c.node).run_phase(machine, cursor, w, jitter);
    }
    cursor
}

/// Stretch a phase's reference time by `factor`. `factor == 1` returns the
/// work untouched (bit-for-bit), keeping the happy path and the RNG draw
/// sequence identical.
fn stretch_work(w: Work, factor: f64) -> Work {
    if factor == 1.0 {
        w
    } else {
        Work::scaled(w.kind, w.ref_secs * factor, w.demand_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use theta_sim::{CapMode, NoiseModel, NoiseSeed, NoiseSigmas, PhaseKind};

    /// Run two partitions — the second appending to the first's arrivals —
    /// over a quiet cluster, returning arrivals and per-node energies.
    fn run(bucket: bool) -> (Vec<(usize, SimTime)>, Vec<u64>) {
        let machine = MachineConfig::theta();
        let caps = [110.0, 110.0, 130.0, 130.0, 110.0, 110.0, 110.0, 130.0, 110.0, 110.0];
        let noise = NoiseModel::with_sigmas(caps.len(), NoiseSigmas::zero(), NoiseSeed::new(3, 1));
        let mut cluster = Cluster::new(machine.clone(), &caps, CapMode::Long, noise);
        // In node order: lottery nodes (sigma_scale > 1) interleaved with
        // bucketable quiet nodes and straggler-stretched ones.
        let node = |node, sigma_scale, stretch| NodeCtx { node, sigma_scale, stretch };
        let sim = [
            node(0, 4.0, 1.0),
            node(1, 1.0, 1.0),
            node(2, 1.0, 1.0),
            node(3, 2.0, 1.0),
            node(4, 1.0, 1.5),
            node(5, 1.0, 1.0),
        ];
        let ana = [node(6, 4.0, 1.0), node(7, 1.0, 1.0), node(8, 1.0, 1.5), node(9, 3.0, 1.0)];
        let kinds = [PhaseKind::Force, PhaseKind::NeighborRebuild, PhaseKind::SyncExchange];
        let phases: Vec<Work> =
            (0..300).map(|i| Work::new(kinds[i % kinds.len()], 0.01 + 0.001 * i as f64)).collect();
        let mut arrivals = Vec::new();
        advance_partition(
            &mut cluster,
            &machine,
            &sim,
            &phases,
            SimTime::ZERO,
            bucket,
            &mut arrivals,
        );
        advance_partition(
            &mut cluster,
            &machine,
            &ana,
            &phases,
            SimTime::ZERO,
            bucket,
            &mut arrivals,
        );
        let end = arrivals.iter().map(|&(_, a)| a).max().unwrap_or(SimTime::ZERO);
        let energies = (0..caps.len())
            .map(|id| cluster.node(id).energy(SimTime::ZERO, end).to_bits())
            .collect();
        (arrivals, energies)
    }

    #[test]
    fn bucketing_a_mixed_partition_matches_the_dense_walk() {
        let (bucketed, e_bucketed) = run(true);
        let (dense, e_dense) = run(false);
        assert_eq!(bucketed, dense);
        assert_eq!(e_bucketed, e_dense);
        let nodes: Vec<usize> = dense.iter().map(|&(n, _)| n).collect();
        assert_eq!(nodes, (0..10).collect::<Vec<_>>());
        // The lottery fired: node 0 (a straggler draw) and node 1 (quiet)
        // share cap and stretch, so without a draw they would tie.
        assert_ne!(dense[0].1, dense[1].1, "lottery never fired; the test would be vacuous");
    }
}

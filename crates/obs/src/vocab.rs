//! The fixed string vocabularies of the trace schema.
//!
//! Every string an event carries — a partition role, a phase kind, a
//! fault or recovery tag, a controller-hold reason — is a `&'static str`
//! from one of these lists. The emitting crates own the enums the tags
//! come from (`seesaw::Role`, `theta_sim::PhaseKind`, `faults::FaultKind`,
//! `faults::RecoveryKind`); `obs` cannot depend on them, so the lists are
//! restated here and a workspace test keeps the two in agreement. The
//! parser resolves a tag through its list to the same `&'static str` the
//! emitter used, which is what lets a parsed trace line borrow nothing
//! and allocate nothing — and refuses any string the list does not hold.

/// Partition roles (`seesaw::Role::tag`).
pub static ROLES: &[&str] = &["sim", "analysis"];

/// Phase kinds (`theta_sim::PhaseKind::tag`).
pub static PHASE_KINDS: &[&str] = &[
    "integrate",
    "force",
    "neighbor_rebuild",
    "sync_exchange",
    "thermo_io",
    "analysis_rdf",
    "analysis_vacf",
    "analysis_msd",
    "analysis_msd1d",
    "analysis_msd2d",
    "wait",
];

/// Injected-fault tags (`faults::FaultKind::tag`).
pub static FAULT_TAGS: &[&str] = &[
    "node_crash",
    "straggler",
    "rapl_stuck",
    "rapl_delayed",
    "rapl_write_error",
    "sample_nan",
    "sample_spike",
    "sample_dropout",
    "monitor_death",
    "message_loss",
    "collective_timeout",
];

/// Graceful-degradation tags (`faults::RecoveryKind::tag`).
pub static RECOVERY_TAGS: &[&str] = &[
    "monitor_reelected",
    "node_excluded",
    "budget_renormalized",
    "sample_rejected",
    "allocation_held",
    "cap_write_retried",
    "collective_retried",
];

/// Why the SeeSAw controller held its caps (`controller_hold` reasons).
pub static HOLD_REASONS: &[&str] = &["corrupt_sample", "degenerate_feedback"];

/// The vocabulary entry equal to `s`, as the `&'static str` the emitter
/// uses; `None` when `s` is not in `vocab`.
pub fn resolve(vocab: &'static [&'static str], s: &str) -> Option<&'static str> {
    vocab.iter().copied().find(|v| *v == s)
}

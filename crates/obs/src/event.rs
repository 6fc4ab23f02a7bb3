//! The typed event schema and its JSONL codec.
//!
//! Every event is stamped with **simulated** time, never wall-clock, so a
//! trace is a pure function of `(config, seed)` and byte-identical across
//! runs and `POLIMER_THREADS` settings. Serialization is a hand-rolled
//! compact JSONL line per event (the workspace carries no registry
//! dependencies): field order is fixed per variant, floats print through
//! Rust's shortest-roundtrip formatter, and non-finite floats serialize
//! as `null`. (Persisted documents go through [`crate::json`] instead,
//! whose float rule also prints integral values with a trailing `.0`.)
//!
//! The schema is written down once, in the `schema!` table below: each
//! variant's tag and its fields in serialized order. The table generates
//! the [`Event`] enum and both directions of the codec —
//! [`TraceEvent::write_json`] and the strict [`TraceEvent::parse_line`] —
//! so the writer and the parser cannot disagree about a field.

use crate::vocab;
use des::SimTime;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Generates the event types and their codec from one field table.
///
/// A variant is `Name = "tag" { field: Type, … }`, fields in serialized
/// order. A `&'static str` field names the [`vocab`] list its values come
/// from (`role: &'static str = ROLES`); the parser resolves the string
/// through that list. `Decision` is the one tuple variant: its payload is
/// the boxed [`DecisionInfo`], whose fields come from the same table.
macro_rules! schema {
    (
        $(#[$dm:meta])*
        pub struct DecisionInfo { $( $(#[$dfm:meta])* $df:ident : $dty:ty, )* }

        $(#[$em:meta])*
        pub enum Event {
            $(
                $(#[$vm:meta])*
                $V:ident = $tag:literal {
                    $( $(#[$fm:meta])* $f:ident : $ty:ty $(= $vocab:ident)?, )*
                },
            )*
        }
    ) => {
        $(#[$dm])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct DecisionInfo { $( $(#[$dfm])* pub $df: $dty, )* }

        impl DecisionInfo {
            fn write_fields(&self, out: &mut String) {
                $( self.$df.write(stringify!($df), out); )*
            }

            fn read_fields(c: &mut Cursor<'_>) -> Result<Self, EventError> {
                Ok(DecisionInfo { $( $df: c.value(stringify!($df))?, )* })
            }

            fn finite(&self) -> bool {
                let mut ok = true;
                $( ok &= self.$df.finite(); )*
                ok
            }

            fn nan_floats(&mut self) {
                $( self.$df.nan_floats(); )*
            }
        }

        $(#[$em])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $( $(#[$vm])* $V { $( $(#[$fm])* $f: $ty, )* }, )*
            /// One SeeSAw window closed and produced an allocation (Eqs. 1–4).
            Decision(Box<DecisionInfo>),
        }

        impl Event {
            /// Every variant's serialized tag, in schema order.
            pub const TAGS: &'static [&'static str] = &[$($tag,)* "decision"];

            /// Stable lowercase tag identifying the variant in serialized output.
            pub fn tag(&self) -> &'static str {
                match self {
                    $( Event::$V { .. } => $tag, )*
                    Event::Decision(_) => "decision",
                }
            }

            fn write_fields(&self, out: &mut String) {
                match self {
                    $( Event::$V { $($f),* } => { $( $f.write(stringify!($f), out); )* } )*
                    Event::Decision(d) => d.write_fields(out),
                }
            }

            fn read_fields(tag: &str, c: &mut Cursor<'_>) -> Result<Event, EventError> {
                Ok(match tag {
                    $( $tag => Event::$V { $( $f: read_field!(c, stringify!($f) $(, $vocab)?), )* }, )*
                    "decision" => Event::Decision(Box::new(DecisionInfo::read_fields(c)?)),
                    other => return Err(EventError(format!("unknown event tag \"{other}\""))),
                })
            }

            fn finite(&self) -> bool {
                match self {
                    $( Event::$V { $($f),* } => {
                        let mut ok = true;
                        $( ok &= $f.finite(); )*
                        ok
                    } )*
                    Event::Decision(d) => d.finite(),
                }
            }

            fn nan_floats(&mut self) {
                match self {
                    $( Event::$V { $($f),* } => { $( $f.nan_floats(); )* } )*
                    Event::Decision(d) => d.nan_floats(),
                }
            }
        }
    };
}

/// Read one field value: a scalar by its type, a tag through its
/// vocabulary.
macro_rules! read_field {
    ($c:ident, $key:expr) => {
        $c.value($key)?
    };
    ($c:ident, $key:expr, $vocab:ident) => {
        $c.tag($key, vocab::$vocab)?
    };
}

schema! {
/// The payload of a [`Event::Decision`] (boxed: the decision carries by
/// far the widest field set, and boxing it keeps the common variants —
/// phases, waits, samples — small enough that the hot-path buffer push
/// stays a short memcpy).
pub struct DecisionInfo {
    /// Synchronization index of the closing observation.
    sync: u64,
    /// Simulation nodes the split was computed over.
    sim_nodes: usize,
    /// Analysis nodes the split was computed over.
    analysis_nodes: usize,
    /// `α_S = 1/(T_S·P_S)` over the window (Eq. 1).
    alpha_sim: f64,
    /// `α_A = 1/(T_A·P_A)` over the window (Eq. 1).
    alpha_analysis: f64,
    /// Analytic optimum for the simulation partition, watts (Eq. 2).
    p_opt_sim_w: f64,
    /// Analytic optimum for the analysis partition, watts (Eq. 2).
    p_opt_analysis_w: f64,
    /// Post-EWMA partition total, simulation, watts (Eqs. 3–4).
    blend_sim_w: f64,
    /// Post-EWMA partition total, analysis, watts (Eqs. 3–4).
    blend_analysis_w: f64,
    /// Final per-node cap, simulation partition, watts.
    sim_node_w: f64,
    /// Final per-node cap, analysis partition, watts.
    analysis_node_w: f64,
    /// Whether the δ-limits clamped the blended split.
    clamped: bool,
}

/// One structured trace event (payload only; the timestamp lives in
/// [`TraceEvent`]).
pub enum Event {

    // --- insitu runtime: run header/footer and synchronization epochs ----
    /// Run context header, emitted once before the first sync: everything
    /// the audit layer needs to check budget conservation and cap ranges
    /// without being handed the job config out of band.
    RunStart = "run_start" {
        /// Simulation-partition node count.
        sim_nodes: usize,
        /// Analysis-partition node count.
        analysis_nodes: usize,
        /// Global power budget, watts.
        budget_w: f64,
        /// RAPL range floor (δ_min), watts.
        min_cap_w: f64,
        /// RAPL range ceiling (δ_max = TDP), watts.
        max_cap_w: f64,
        /// RAPL actuation latency, nanoseconds.
        actuation_ns: u64,
    },
    /// A synchronization interval opened.
    SyncStart = "sync_start" {
        /// 1-based synchronization index.
        sync: u64,
    },
    /// A node reached the rendezvous point.
    Arrival = "arrival" {
        /// Synchronization index.
        sync: u64,
        /// Node id.
        node: usize,
        /// Partition tag (`"sim"` / `"analysis"`).
        role: &'static str = ROLES,
        /// Time from interval start to arrival, seconds.
        time_s: f64,
    },
    /// Both partitions arrived; the earlier one waited.
    Rendezvous = "rendezvous" {
        /// Synchronization index.
        sync: u64,
        /// Simulation partition time (slowest node), seconds.
        sim_time_s: f64,
        /// Analysis partition time (slowest node), seconds.
        analysis_time_s: f64,
        /// Normalized wait slack `|T_S − T_A| / max(T_S, T_A)`.
        slack: f64,
    },
    /// The interval closed (allocation overhead included).
    SyncEnd = "sync_end" {
        /// Synchronization index.
        sync: u64,
        /// Allocation overhead charged at interval end, seconds.
        overhead_s: f64,
    },
    /// True cluster energy over one closed interval, joules. The intervals
    /// tile `[0, T]`, so these must sum to [`Event::RunEnd`]'s total — the
    /// audit layer's energy identity.
    SyncEnergy = "sync_energy" {
        /// Synchronization index.
        sync: u64,
        /// Energy over `[t_start, t_end)` summed across all nodes, joules.
        energy_j: f64,
    },
    /// Whole-run true energy of one node, joules (emitted at run end).
    NodeEnergy = "node_energy" {
        /// Node id.
        node: usize,
        /// Energy over `[0, T)`, joules.
        energy_j: f64,
    },
    /// Run footer: the totals every per-interval and per-node energy
    /// series must close against.
    RunEnd = "run_end" {
        /// Total simulated run time, seconds.
        total_time_s: f64,
        /// Total true energy, joules.
        total_energy_j: f64,
    },

    // --- theta-sim: node activity and RAPL actuation --------------------
    /// A node executed one phase (a completed span).
    Phase = "phase" {
        /// Node id.
        node: usize,
        /// Phase kind tag (e.g. `"force"`, `"analysis_msd"`).
        kind: &'static str = PHASE_KINDS,
        /// Span start, nanoseconds of simulated time.
        start_ns: u64,
        /// Span end, nanoseconds of simulated time.
        end_ns: u64,
    },
    /// A node blocked at a synchronization point (wait slack span).
    Wait = "wait" {
        /// Node id.
        node: usize,
        /// Span start, nanoseconds of simulated time.
        start_ns: u64,
        /// Span end, nanoseconds of simulated time.
        end_ns: u64,
    },
    /// A RAPL cap request, with what the PCU will actually do about it.
    CapRequest = "cap_request" {
        /// Node id.
        node: usize,
        /// Cap the controller asked for, watts.
        requested_w: f64,
        /// Cap accepted after range clamping, watts.
        granted_w: f64,
        /// When enforcement changes (actuation latency included),
        /// nanoseconds of simulated time; equals the request time when the
        /// request was a no-op or was swallowed by a stuck PCU.
        effective_ns: u64,
    },

    // --- polimer: measurement and exchange ------------------------------
    /// A plausible node sample entered the aggregation window.
    Sample = "sample" {
        /// Node id.
        node: usize,
        /// Partition tag.
        role: &'static str = ROLES,
        /// Interval time, seconds.
        time_s: f64,
        /// Measured mean power, watts.
        power_w: f64,
        /// Cap in force, watts.
        cap_w: f64,
    },
    /// A sample failed the plausibility gate (or arrived from a dead node).
    SampleRejected = "sample_rejected" {
        /// Node id.
        node: usize,
    },
    /// One measurement exchange + decision completed.
    ExchangeDone = "exchange_done" {
        /// Synchronization index the exchange closed.
        sync: u64,
        /// Exchange + decision overhead, seconds.
        overhead_s: f64,
        /// Whether the controller produced a new allocation.
        decided: bool,
    },
    /// A node's monitor rank died and a peer was promoted.
    MonitorReelected = "monitor_reelected" {
        /// Node id.
        node: usize,
        /// The promoted global rank.
        new_rank: usize,
    },
    /// A crashed node was excluded from aggregation.
    NodeExcluded = "node_excluded" {
        /// Node id.
        node: usize,
    },
    /// The budget was renormalized over the surviving nodes.
    BudgetRenormalized = "budget_renormalized" {
        /// The new global budget, watts.
        budget_w: f64,
    },
    /// The exchange was abandoned and the previous allocation held.
    AllocationHeld = "allocation_held" {
        /// Synchronization index.
        sync: u64,
    },

    // --- seesaw controller: decision internals (`Decision` is built in) --
    /// The controller held the current caps instead of allocating.
    ControllerHold = "controller_hold" {
        /// Synchronization index.
        sync: u64,
        /// Why (`"corrupt_sample"`, `"degenerate_feedback"`).
        reason: &'static str = HOLD_REASONS,
    },

    // --- sched: machine-level job scheduling ------------------------------
    /// Machine scheduler header, emitted once when the epoch loop starts:
    /// the envelope every [`Event::MachineBudget`] division must sum to.
    MachineStart = "machine_start" {
        /// Machine node count.
        nodes: usize,
        /// Machine power envelope, watts.
        envelope_w: f64,
    },
    /// A job entered the machine queue.
    JobArrived = "job_arrived" {
        /// Job id (queue ordinal).
        job: usize,
    },
    /// A queued job was admitted and started running.
    JobStarted = "job_started" {
        /// Job id.
        job: usize,
        /// Nodes leased to the job.
        nodes: usize,
        /// Initial power budget handed to the job, watts.
        budget_w: f64,
    },
    /// A running job finished all its synchronizations.
    JobCompleted = "job_completed" {
        /// Job id.
        job: usize,
        /// The job's own simulated completion time, seconds.
        time_s: f64,
    },
    /// A running job was killed by fault injection.
    JobKilled = "job_killed" {
        /// Job id.
        job: usize,
    },
    /// The machine governor re-divided the envelope for one epoch.
    MachineBudget = "machine_budget" {
        /// Scheduling epoch ordinal.
        epoch: u64,
        /// Power allocated to running jobs, watts.
        allocated_w: f64,
        /// Power left in the pool (no running job can absorb it), watts.
        pool_w: f64,
    },

    // --- fleet: federation, failure domains, recovery ---------------------
    /// Fleet header, emitted once before the first fleet epoch: the global
    /// envelope and the retry contract every fleet invariant checks
    /// against.
    FleetStart = "fleet_start" {
        /// Number of federated machines.
        machines: usize,
        /// Global fleet power envelope, watts.
        envelope_w: f64,
        /// Backoff base, fleet epochs (first retry waits this long).
        retry_base_epochs: u64,
        /// Backoff ceiling, fleet epochs.
        retry_cap_epochs: u64,
        /// Retry budget per job (dispatches after the first).
        max_retries: u64,
    },
    /// A machine was declared down (heartbeat misses exceeded the
    /// threshold after a crash or partition).
    MachineDown = "machine_down" {
        /// Machine id (fleet ordinal).
        machine: usize,
        /// Fleet epoch of the declaration.
        epoch: u64,
    },
    /// A previously-down machine healed and rejoined (partitions only;
    /// crashes are permanent).
    MachineUp = "machine_up" {
        /// Machine id.
        machine: usize,
        /// Fleet epoch of the rejoin.
        epoch: u64,
    },
    /// A fleet job was handed to a machine (first dispatch or
    /// resubmission).
    JobDispatched = "job_dispatched" {
        /// Fleet-global job id.
        job: usize,
        /// Target machine.
        machine: usize,
    },
    /// A job lost to a machine failure was scheduled for resubmission.
    JobRetry = "job_retry" {
        /// Fleet-global job id.
        job: usize,
        /// Retry ordinal (1-based: first resubmission is attempt 1).
        attempt: u64,
        /// Fleet epochs the job waits before redispatch (capped
        /// exponential backoff).
        backoff_epochs: u64,
    },
    /// A retried job was placed on a different machine than it left.
    JobMigrated = "job_migrated" {
        /// Fleet-global job id.
        job: usize,
        /// Machine the job was evacuated from.
        from_machine: usize,
        /// Machine the job resumed on.
        to_machine: usize,
    },
    /// A job exhausted its retry budget and was reported failed.
    JobFailed = "job_failed" {
        /// Fleet-global job id.
        job: usize,
        /// Total dispatch attempts consumed.
        attempts: u64,
    },
    /// The fleet envelope was re-divided across live machines after a
    /// membership change (one event per surviving member, same epoch).
    EnvelopeRenorm = "envelope_renorm" {
        /// Fleet epoch of the renormalization.
        epoch: u64,
        /// Member machine receiving the share.
        machine: usize,
        /// Share handed to the machine, watts.
        share_w: f64,
        /// The machine's own envelope ceiling, watts.
        cap_w: f64,
    },

    // --- faults ----------------------------------------------------------
    /// An injected fault fired.
    Fault = "fault" {
        /// Synchronization interval (0-based plan ordinal).
        sync: u64,
        /// Target node.
        node: usize,
        /// Stable fault tag (`faults::FaultKind::tag`).
        tag: &'static str = FAULT_TAGS,
    },
    /// A graceful-degradation action was taken.
    Recovery = "recovery" {
        /// Synchronization interval (0-based plan ordinal).
        sync: u64,
        /// Node the action concerned.
        node: usize,
        /// Stable recovery tag (`faults::RecoveryKind::tag`).
        tag: &'static str = RECOVERY_TAGS,
    },
}
}

/// A timestamped event: what happened, and *when on the simulation clock*.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time at which the event was recorded.
    pub t: SimTime,
    /// The payload.
    pub ev: Event,
}

impl TraceEvent {
    /// Serialize as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write_json(&mut out);
        out
    }

    /// Append the compact JSON form to `out`.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"t\":{},\"ev\":\"{}\"", self.t.as_nanos(), self.ev.tag());
        self.ev.write_fields(out);
        out.push('}');
    }

    /// Parse one JSONL line back into an event. Strict: the line must be
    /// exactly `{"t":…,"ev":"…",<payload fields in schema order>}` with
    /// nothing missing, reordered, or extra, every integer field a
    /// non-negative integer, and every tag a word of its vocabulary — so
    /// a parsed line re-serializes byte-for-byte. JSON whitespace between
    /// tokens is allowed; string escapes are not (no schema string needs
    /// one). `null` in a float field reads as NaN, the writer's form of a
    /// non-finite float.
    ///
    /// A successful parse allocates nothing except the boxed payload of a
    /// `decision` line; only a failure formats a message.
    pub fn parse_line(line: &str) -> Result<TraceEvent, EventError> {
        let mut c = Cursor { s: line, pos: 0, fields: 0 };
        if !c.punct(b'{') {
            return Err(EventError("event line is not a JSON object".to_string()));
        }
        let t = SimTime::from_nanos(c.value("t")?);
        c.key("ev")?;
        let tag = c.string()?;
        let ev = Event::read_fields(tag, &mut c)?;
        c.end()?;
        Ok(TraceEvent { t, ev })
    }

    /// The event as a trace file gives it back: the writer prints
    /// non-finite floats as `null` and the parser reads `null` as NaN, so
    /// every non-finite float becomes NaN. Live consumers that must agree
    /// with file replays (the streaming audit) read events through this;
    /// it copies only an event that actually carries a non-finite float.
    pub fn normalized(&self) -> Cow<'_, TraceEvent> {
        if self.ev.finite() {
            Cow::Borrowed(self)
        } else {
            let mut te = self.clone();
            te.ev.nan_floats();
            Cow::Owned(te)
        }
    }
}

/// Serialize a slice of events as JSONL (one event per line, trailing
/// newline after the last line — the format `SEESAW_TRACE` files use).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        ev.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Why a trace line failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub struct EventError(pub String);

impl std::fmt::Display for EventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for EventError {}

/// How one field value is written, and how a live value is checked
/// against its serialized form (only floats lose information: non-finite
/// values print as `null`).
trait Field {
    fn write(&self, key: &str, out: &mut String);

    fn finite(&self) -> bool {
        true
    }

    fn nan_floats(&mut self) {}
}

macro_rules! display_field {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn write(&self, key: &str, out: &mut String) {
                let _ = write!(out, ",\"{key}\":{self}");
            }
        }
    )*};
}

display_field!(u64, usize, bool);

/// Floats print via the shortest-roundtrip formatter (deterministic for a
/// given bit pattern); non-finite values become `null`, matching the
/// persisted-results contract that NaN/∞ never appear as JSON numbers.
impl Field for f64 {
    fn write(&self, key: &str, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, ",\"{key}\":{self}");
        } else {
            let _ = write!(out, ",\"{key}\":null");
        }
    }

    fn finite(&self) -> bool {
        self.is_finite()
    }

    fn nan_floats(&mut self) {
        if !self.is_finite() {
            *self = f64::NAN;
        }
    }
}

/// Event tags are `&'static str` drawn from the [`vocab`] lists and
/// contain no characters needing JSON escaping.
impl Field for &'static str {
    fn write(&self, key: &str, out: &mut String) {
        debug_assert!(self.chars().all(|c| c.is_ascii_graphic() && c != '"' && c != '\\'));
        let _ = write!(out, ",\"{key}\":\"{self}\"");
    }
}

/// A field type the parser reads from a JSON scalar.
trait Scalar: Sized {
    fn read(c: &mut Cursor<'_>, key: &str) -> Result<Self, EventError>;
}

impl Scalar for u64 {
    fn read(c: &mut Cursor<'_>, key: &str) -> Result<Self, EventError> {
        match c.number() {
            Some((text, true)) if !text.starts_with('-') => text.parse().ok(),
            _ => None,
        }
        .ok_or_else(|| c.type_error(key, "a non-negative integer"))
    }
}

impl Scalar for usize {
    fn read(c: &mut Cursor<'_>, key: &str) -> Result<Self, EventError> {
        let v = u64::read(c, key)?;
        usize::try_from(v).map_err(|_| c.type_error(key, "an index"))
    }
}

impl Scalar for f64 {
    fn read(c: &mut Cursor<'_>, key: &str) -> Result<Self, EventError> {
        if c.literal("null") {
            return Ok(f64::NAN);
        }
        c.number()
            .and_then(|(text, _)| text.parse().ok())
            .ok_or_else(|| c.type_error(key, "a number"))
    }
}

impl Scalar for bool {
    fn read(c: &mut Cursor<'_>, key: &str) -> Result<Self, EventError> {
        if c.literal("true") {
            Ok(true)
        } else if c.literal("false") {
            Ok(false)
        } else {
            Err(c.type_error(key, "a boolean"))
        }
    }
}

/// A forward-only reader over one line. It never builds a value tree:
/// it checks each expected key in place and hands out slices of the line.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
    /// Keys consumed so far (every key after the first is comma-led).
    fields: usize,
}

impl<'a> Cursor<'a> {
    fn error(&self, msg: &str) -> EventError {
        EventError(format!("{msg} at byte {}", self.pos))
    }

    fn type_error(&self, key: &str, what: &str) -> EventError {
        EventError(format!("field \"{key}\" is not {what}"))
    }

    fn skip_ws(&mut self) {
        let b = self.s.as_bytes();
        while matches!(b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume `b` (after whitespace) if it is next.
    fn punct(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.s.as_bytes().get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    /// Consume `word` (after whitespace) if it is next.
    fn literal(&mut self, word: &str) -> bool {
        self.skip_ws();
        let hit = self.s[self.pos..].starts_with(word);
        if hit {
            self.pos += word.len();
        }
        hit
    }

    /// A string without escapes, as a slice of the line.
    fn string(&mut self) -> Result<&'a str, EventError> {
        if !self.punct(b'"') {
            return Err(self.error("expected a string"));
        }
        let start = self.pos;
        let b = self.s.as_bytes();
        loop {
            match b.get(self.pos) {
                Some(b'"') => break,
                None => return Err(self.error("unterminated string")),
                Some(&c) if c == b'\\' || c < 0x20 => {
                    return Err(self.error("escape or control character in string"))
                }
                Some(_) => self.pos += 1,
            }
        }
        self.pos += 1;
        Ok(&self.s[start..self.pos - 1])
    }

    /// A JSON number as a slice of the line, and whether it is integral
    /// (no fraction, no exponent). `None` when no number starts here.
    fn number(&mut self) -> Option<(&'a str, bool)> {
        self.skip_ws();
        let b = self.s.as_bytes();
        let start = self.pos;
        let mut i = start + usize::from(b.get(start) == Some(&b'-'));
        let digits =
            |i: usize| b[i.min(b.len())..].iter().take_while(|c| c.is_ascii_digit()).count();
        let int = digits(i);
        if int == 0 || (int > 1 && b[i] == b'0') {
            return None;
        }
        i += int;
        let mut integral = true;
        if b.get(i) == Some(&b'.') {
            let frac = digits(i + 1);
            if frac == 0 {
                return None;
            }
            i += 1 + frac;
            integral = false;
        }
        if matches!(b.get(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(b.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            let exp = digits(i);
            if exp == 0 {
                return None;
            }
            i += exp;
            integral = false;
        }
        self.pos = i;
        Some((&self.s[start..i], integral))
    }

    /// The next key, which must be `key`, and its colon.
    fn key(&mut self, key: &str) -> Result<(), EventError> {
        if self.fields > 0 && !self.punct(b',') {
            return Err(if self.s.as_bytes().get(self.pos) == Some(&b'}') {
                EventError(format!("missing field \"{key}\""))
            } else {
                self.error("expected ','")
            });
        }
        self.fields += 1;
        let found = self.string()?;
        if found != key {
            return Err(EventError(format!("expected field \"{key}\", found \"{found}\"")));
        }
        if !self.punct(b':') {
            return Err(self.error("expected ':'"));
        }
        Ok(())
    }

    /// The next field, which must be `key`, read as a `T`.
    fn value<T: Scalar>(&mut self, key: &str) -> Result<T, EventError> {
        self.key(key)?;
        T::read(self, key)
    }

    /// The next field, which must be `key`, resolved through `vocab`.
    fn tag(
        &mut self,
        key: &str,
        words: &'static [&'static str],
    ) -> Result<&'static str, EventError> {
        self.key(key)?;
        let s = self.string()?;
        vocab::resolve(words, s)
            .ok_or_else(|| EventError(format!("field \"{key}\" has unknown value \"{s}\"")))
    }

    /// The closing brace, then nothing but whitespace.
    fn end(&mut self) -> Result<(), EventError> {
        if self.punct(b',') {
            let extra = self.string().unwrap_or("?");
            return Err(EventError(format!("unexpected extra field \"{extra}\"")));
        }
        if !self.punct(b'}') {
            return Err(self.error("expected '}'"));
        }
        self.skip_ws();
        if self.pos != self.s.len() {
            return Err(self.error("trailing characters after the event object"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One instance of every variant, the floats chosen to exercise the
    /// shortest-roundtrip formatter.
    fn one_of_each() -> Vec<TraceEvent> {
        let evs = vec![
            Event::RunStart {
                sim_nodes: 12,
                analysis_nodes: 4,
                budget_w: 1760.0,
                min_cap_w: 98.0,
                max_cap_w: 215.0,
                actuation_ns: 10_000_000,
            },
            Event::SyncStart { sync: 3 },
            Event::Arrival { sync: 3, node: 7, role: "analysis", time_s: 2.5 },
            Event::Rendezvous { sync: 3, sim_time_s: 2.5, analysis_time_s: 1.75, slack: 0.3 },
            Event::SyncEnd { sync: 3, overhead_s: 0.05 },
            Event::SyncEnergy { sync: 3, energy_j: 1034.5 },
            Event::NodeEnergy { node: 7, energy_j: 250.125 },
            Event::RunEnd { total_time_s: 52.5, total_energy_j: 41_380.0 },
            Event::Phase { node: 7, kind: "analysis_msd", start_ns: 0, end_ns: 1_000 },
            Event::Wait { node: 1, start_ns: 1_000, end_ns: 2_000 },
            Event::CapRequest { node: 0, requested_w: 120.0, granted_w: 118.5, effective_ns: 3 },
            Event::Sample { node: 7, role: "sim", time_s: 2.5, power_w: 109.63, cap_w: 115.0 },
            Event::SampleRejected { node: 2 },
            Event::ExchangeDone { sync: 1, overhead_s: 0.05, decided: true },
            Event::MonitorReelected { node: 2, new_rank: 5 },
            Event::NodeExcluded { node: 3 },
            Event::BudgetRenormalized { budget_w: 330.0 },
            Event::AllocationHeld { sync: 2 },
            Event::ControllerHold { sync: 1, reason: "degenerate_feedback" },
            Event::MachineStart { nodes: 64, envelope_w: 8000.0 },
            Event::JobArrived { job: 0 },
            Event::JobStarted { job: 0, nodes: 8, budget_w: 1280.0 },
            Event::JobCompleted { job: 0, time_s: 52.5 },
            Event::JobKilled { job: 1 },
            Event::MachineBudget { epoch: 3, allocated_w: 7500.0, pool_w: 500.0 },
            Event::FleetStart {
                machines: 3,
                envelope_w: 2100.0,
                retry_base_epochs: 1,
                retry_cap_epochs: 8,
                max_retries: 3,
            },
            Event::MachineDown { machine: 1, epoch: 4 },
            Event::MachineUp { machine: 1, epoch: 9 },
            Event::JobDispatched { job: 2, machine: 0 },
            Event::JobRetry { job: 2, attempt: 1, backoff_epochs: 1 },
            Event::JobMigrated { job: 2, from_machine: 1, to_machine: 0 },
            Event::JobFailed { job: 5, attempts: 4 },
            Event::EnvelopeRenorm { epoch: 4, machine: 0, share_w: 1050.5, cap_w: 1100.0 },
            Event::Fault { sync: 2, node: 4, tag: "collective_timeout" },
            Event::Recovery { sync: 2, node: 4, tag: "collective_retried" },
            Event::Decision(Box::new(DecisionInfo {
                sync: 1,
                sim_nodes: 6,
                analysis_nodes: 2,
                alpha_sim: 2.2e-3,
                alpha_analysis: 4.5e-3,
                p_opt_sim_w: 140.0,
                p_opt_analysis_w: 80.0,
                blend_sim_w: 130.0,
                blend_analysis_w: 90.0,
                sim_node_w: 122.0,
                analysis_node_w: 98.0,
                clamped: true,
            })),
        ];
        evs.into_iter()
            .enumerate()
            .map(|(i, ev)| TraceEvent { t: SimTime::from_nanos(i as u64 * 500), ev })
            .collect()
    }

    fn parse(line: &str) -> Result<TraceEvent, EventError> {
        TraceEvent::parse_line(line)
    }

    #[test]
    fn line_shape_is_compact_json() {
        let ev = TraceEvent { t: SimTime::from_nanos(1_500_000), ev: Event::SyncStart { sync: 3 } };
        assert_eq!(ev.to_json_line(), "{\"t\":1500000,\"ev\":\"sync_start\",\"sync\":3}");
    }

    #[test]
    fn non_finite_floats_serialize_null() {
        let ev =
            TraceEvent { t: SimTime::ZERO, ev: Event::BudgetRenormalized { budget_w: f64::NAN } };
        assert!(ev.to_json_line().contains("\"budget_w\":null"));
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let evs = vec![
            TraceEvent { t: SimTime::ZERO, ev: Event::SyncStart { sync: 1 } },
            TraceEvent {
                t: SimTime::from_nanos(5),
                ev: Event::SyncEnd { sync: 1, overhead_s: 0.25 },
            },
        ];
        let s = to_jsonl(&evs);
        assert_eq!(s.lines().count(), 2);
        assert!(s.ends_with('\n'));
    }

    #[test]
    fn parse_round_trips_bytes() {
        let all = one_of_each();
        let tags: Vec<&str> = all.iter().map(|te| te.ev.tag()).collect();
        assert_eq!(tags, Event::TAGS, "one_of_each must hold every variant, in schema order");
        assert_eq!(Event::TAGS.len(), 36);
        for te in all {
            let line = te.to_json_line();
            let parsed = parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parsed, te, "{line}");
            assert_eq!(parsed.to_json_line(), line);
        }
        // A non-finite float goes to `null` and comes back as NaN.
        let te = TraceEvent {
            t: SimTime::from_nanos(9),
            ev: Event::Rendezvous {
                sync: 2,
                sim_time_s: f64::INFINITY,
                analysis_time_s: f64::NAN,
                slack: 0.5,
            },
        };
        let line = te.to_json_line();
        assert_eq!(line, "{\"t\":9,\"ev\":\"rendezvous\",\"sync\":2,\"sim_time_s\":null,\"analysis_time_s\":null,\"slack\":0.5}");
        let parsed = parse(&line).unwrap();
        let Event::Rendezvous { sim_time_s, analysis_time_s, .. } = parsed.ev else { panic!() };
        assert!(sim_time_s.is_nan() && analysis_time_s.is_nan());
        assert_eq!(parsed.to_json_line(), line);
    }

    #[test]
    fn parsed_tags_are_the_vocabulary_statics() {
        let te = parse(
            "{\"t\":0,\"ev\":\"phase\",\"node\":1,\"kind\":\"force\",\"start_ns\":0,\"end_ns\":1}",
        )
        .unwrap();
        let Event::Phase { kind, .. } = te.ev else { panic!() };
        let stat = vocab::resolve(vocab::PHASE_KINDS, "force").unwrap();
        assert!(std::ptr::eq(kind, stat), "resolved, not copied");
    }

    #[test]
    fn reordered_fields_are_rejected() {
        let e = parse("{\"t\":1,\"ev\":\"sync_end\",\"overhead_s\":0.1,\"sync\":1}").unwrap_err();
        assert!(e.0.contains("expected field \"sync\""), "{e}");
        assert!(parse("{\"ev\":\"sync_start\",\"t\":0,\"sync\":1}").is_err());
    }

    #[test]
    fn extra_and_missing_fields_are_rejected() {
        let e = parse("{\"t\":1,\"ev\":\"sync_start\"}").unwrap_err();
        assert!(e.0.contains("missing field \"sync\""), "{e}");
        let e = parse("{\"t\":1,\"ev\":\"sync_start\",\"sync\":1,\"x\":2}").unwrap_err();
        assert!(e.0.contains("extra field \"x\""), "{e}");
        assert!(parse("{\"ev\":\"sync_start\",\"sync\":1}").is_err(), "no timestamp");
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(parse("{\"t\":1,\"ev\":\"nope\"}").unwrap_err().0.contains("unknown event tag"));
        for line in [
            "{\"t\":0,\"ev\":\"arrival\",\"sync\":1,\"node\":0,\"role\":\"simulation\",\"time_s\":1}",
            "{\"t\":0,\"ev\":\"phase\",\"node\":0,\"kind\":\"neigh\",\"start_ns\":0,\"end_ns\":1}",
            "{\"t\":0,\"ev\":\"controller_hold\",\"sync\":1,\"reason\":\"tired\"}",
            "{\"t\":0,\"ev\":\"fault\",\"sync\":1,\"node\":0,\"tag\":\"node_excluded\"}",
            "{\"t\":0,\"ev\":\"recovery\",\"sync\":1,\"node\":0,\"tag\":\"node_crash\"}",
        ] {
            let e = parse(line).unwrap_err();
            assert!(e.0.contains("unknown value"), "{line}: {e}");
        }
    }

    #[test]
    fn non_object_lines_are_rejected() {
        assert!(parse("[1,2]").is_err());
        assert!(parse("").is_err());
        assert!(parse("\"sync_start\"").is_err());
        assert!(parse("{\"t\":1,\"ev\":\"sync_start\",\"sync\":1} junk").is_err());
        assert!(parse("{\"t\":1,\"ev\":\"sync_start\",\"sync\":1}}").is_err());
        assert!(parse("{\"t\":1,\"ev\":\"sync_start\",\"sync\":1").is_err(), "truncated");
    }

    #[test]
    fn integer_fields_refuse_negative_and_fractional_values() {
        for bad in ["-1", "1.5", "1e3", "01", "\"1\"", "null", "true", "18446744073709551616"] {
            let line = format!("{{\"t\":0,\"ev\":\"sync_start\",\"sync\":{bad}}}");
            assert!(parse(&line).is_err(), "{line}");
            let line = format!("{{\"t\":{bad},\"ev\":\"sync_start\",\"sync\":1}}");
            assert!(parse(&line).is_err(), "{line}");
        }
        let ok = parse("{\"t\":18446744073709551615,\"ev\":\"sync_start\",\"sync\":0}").unwrap();
        assert_eq!(ok.t.as_nanos(), u64::MAX);
    }

    #[test]
    fn float_field_accepts_integer_literal() {
        let ev = parse("{\"t\":0,\"ev\":\"budget_renormalized\",\"budget_w\":1700}").unwrap();
        assert_eq!(ev.ev, Event::BudgetRenormalized { budget_w: 1700.0 });
        let ev =
            parse("{ \"t\" : 0 , \"ev\" : \"budget_renormalized\" , \"budget_w\" : -1.5e2 }\n")
                .expect("JSON whitespace is allowed between tokens");
        assert_eq!(ev.ev, Event::BudgetRenormalized { budget_w: -150.0 });
        assert!(parse("{\"t\":0,\"ev\":\"budget_renormalized\",\"budget_w\":\"1\"}").is_err());
        assert!(parse(
            "{\"t\":0,\"ev\":\"exchange_done\",\"sync\":1,\"overhead_s\":0,\"decided\":1}"
        )
        .is_err());
    }

    #[test]
    fn escaped_strings_are_refused() {
        assert!(parse("{\"t\":0,\"ev\":\"sync\\u005fstart\",\"sync\":1}").is_err());
    }

    #[test]
    fn normalized_borrows_finite_events() {
        for te in one_of_each() {
            assert!(matches!(te.normalized(), Cow::Borrowed(_)), "{}", te.to_json_line());
            assert_eq!(*te.normalized(), parse(&te.to_json_line()).unwrap());
        }
    }

    #[test]
    fn normalized_maps_non_finite_floats_like_the_round_trip() {
        let cases = vec![
            Event::BudgetRenormalized { budget_w: f64::INFINITY },
            Event::Rendezvous {
                sync: 2,
                sim_time_s: 1.5,
                analysis_time_s: f64::NAN,
                slack: f64::NEG_INFINITY,
            },
            Event::Decision(Box::new(DecisionInfo {
                sync: 1,
                sim_nodes: 6,
                analysis_nodes: 2,
                alpha_sim: f64::INFINITY,
                alpha_analysis: 1.0,
                p_opt_sim_w: 1.0,
                p_opt_analysis_w: 1.0,
                blend_sim_w: 1.0,
                blend_analysis_w: 1.0,
                sim_node_w: 1.0,
                analysis_node_w: 1.0,
                clamped: false,
            })),
        ];
        for ev in cases {
            let te = TraceEvent { t: SimTime::from_nanos(9), ev };
            let direct = te.normalized();
            assert!(matches!(direct, Cow::Owned(_)));
            let round = parse(&te.to_json_line()).unwrap();
            // NaN breaks PartialEq — compare through the byte format and
            // the float bits.
            assert_eq!(direct.to_json_line(), round.to_json_line());
            assert_eq!(format!("{direct:?}"), format!("{round:?}"));
        }
    }
}

//! Audit one or more JSONL trace files from disk: parse strictly, run the
//! invariant battery, print the derived summary.
//!
//! ```text
//! audit_trace [--stream] [--json DIR] [--quiet] FILE...
//! ```
//!
//! Exits 1 when any file fails to parse, holds no events (`AUDIT0014`:
//! an empty trace proves nothing), or violates an invariant —
//! the offline counterpart of the `--audit` flag the experiment bins
//! carry. `--stream` audits line by line in constant memory (the file is
//! never materialized as a `Vec` of events), producing a report
//! byte-identical to the batch path plus run-health snapshots and the
//! metric registry under `--json`.

use audit::{diag, AuditReport, Diagnostic, StreamAuditor, Trace};
use obs::Reporter;
use std::io::BufRead;
use std::path::{Path, PathBuf};

const BIN: &str = "audit_trace";

fn usage() -> ! {
    eprintln!(
        "usage: {BIN} [--stream] [--json DIR] [--quiet] FILE...\n\
         \n\
         \x20 --stream     audit line by line in constant memory: the file is fed\n\
         \x20              through the incremental checker battery as it is read,\n\
         \x20              never held as a whole; the report is byte-identical to\n\
         \x20              the batch path, and --json additionally writes\n\
         \x20              health_<file-stem>.json (per-interval run-health\n\
         \x20              snapshots) and metrics_<file-stem>.json (the metric\n\
         \x20              registry); a malformed line is reported as AUDIT0013\n\
         \x20 --json DIR   also write audit_<file-stem>.json reports into DIR\n\
         \x20 --quiet      only print failures\n\
         \n\
         parses each JSONL trace strictly, runs the invariant battery, and\n\
         prints the derived report summary; exits 1 on parse errors, on a trace\n\
         with no events (AUDIT0014), or on violations"
    );
    std::process::exit(2);
}

/// A trace with no events proves nothing: refuse it like a parse failure.
fn refuse_empty(path: &Path, events: u64) -> Result<(), ()> {
    if events > 0 {
        return Ok(());
    }
    let d = Diagnostic::new(diag::EMPTY, "the trace holds no events");
    eprintln!("{BIN}: {}: {d}", path.display());
    Err(())
}

/// Batch path: load the whole file, parse it into a [`Trace`], audit.
fn audit_batch(path: &Path, rep: &Reporter, json_dir: Option<&Path>) -> Result<AuditReport, ()> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("{BIN}: cannot read {}: {e}", path.display());
    })?;
    let trace = Trace::parse_jsonl(&text).map_err(|e| {
        eprintln!("{BIN}: {}: {e}", path.display());
    })?;
    let report = AuditReport::from_trace(&trace);
    refuse_empty(path, report.events)?;
    if let Some(dir) = json_dir {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        if !bench::write_doc(rep, dir, &format!("audit_{stem}.json"), &report.to_json()) {
            return Err(());
        }
    }
    Ok(report)
}

/// Streaming path: feed the file line by line through a
/// [`StreamAuditor`]; peak memory is one line plus the incremental
/// checker state (O(active spans + nodes)), independent of trace length.
/// A malformed line is diagnosed as `AUDIT0013` and, like the batch
/// loader, aborts this file's audit.
fn audit_stream(path: &Path, rep: &Reporter, json_dir: Option<&Path>) -> Result<AuditReport, ()> {
    let file = std::fs::File::open(path).map_err(|e| {
        eprintln!("{BIN}: cannot read {}: {e}", path.display());
    })?;
    let mut auditor = StreamAuditor::new();
    for (i, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| {
            eprintln!("{BIN}: cannot read {}: {e}", path.display());
        })?;
        if let Err(e) = auditor.feed_line(&line) {
            let d = Diagnostic::new(diag::STREAM, format!("line {}: {}", i + 1, e));
            eprintln!("{BIN}: {}: {d}", path.display());
            return Err(());
        }
    }
    let outcome = auditor.finish();
    refuse_empty(path, outcome.report.events)?;
    if let Some(dir) = json_dir {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        if !bench::cli::write_audit_docs(rep, dir, stem, &outcome) {
            return Err(());
        }
    }
    Ok(outcome.report)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<PathBuf> = Vec::new();
    let mut json_dir: Option<PathBuf> = None;
    let mut quiet = false;
    let mut stream = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--json" => {
                i += 1;
                json_dir = Some(PathBuf::from(argv.get(i).cloned().unwrap_or_else(|| usage())));
            }
            "--quiet" => quiet = true,
            "--stream" => stream = true,
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => usage(),
            file => files.push(PathBuf::from(file)),
        }
        i += 1;
    }
    if files.is_empty() {
        usage();
    }
    let rep = Reporter::new(quiet);

    let mut failed = false;
    for path in &files {
        let result = if stream {
            audit_stream(path, &rep, json_dir.as_deref())
        } else {
            audit_batch(path, &rep, json_dir.as_deref())
        };
        let report = match result {
            Ok(r) => r,
            Err(()) => {
                failed = true;
                continue;
            }
        };
        rep.say(format!("{}: {}", path.display(), report.summary()));
        if !report.clean() {
            eprintln!("{BIN}: {}: {} violation(s)", path.display(), report.violations.len());
            for v in &report.violations {
                eprintln!("  {v}");
            }
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

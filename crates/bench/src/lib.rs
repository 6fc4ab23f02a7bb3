//! # bench — the experiment harness
//!
//! One binary per table/figure of the SeeSAw paper (see `src/bin/`), plus
//! Criterion micro-benchmarks (see `benches/`). Each binary prints a
//! human-readable table mirroring the paper's presentation and writes the
//! raw rows as JSON under `results/`.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p bench --bin fig3_analyses
//! cargo run --release -p bench --bin fig4_power_alloc
//! …
//! ```
//!
//! Every binary accepts the same common flags (parsed strictly — unknown
//! flags are a usage error): `--quick` shrinks steps/scales for
//! smoke-testing, `--quiet` suppresses progress output, and
//! `--trace`/`--trace-perfetto` export an event trace of a representative
//! run (see [`cli`]).

#![warn(missing_docs)]

pub mod cli;
pub mod gate;
pub mod svg;

use obs::json::ToJson;
use obs::Reporter;
use std::path::{Path, PathBuf};

/// Where experiment output lands (`results/` at the workspace root, or
/// `$SEESAW_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("SEESAW_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // Walk up from the executable's cwd to find the workspace root.
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir.join("results");
        }
        if !dir.pop() {
            return PathBuf::from("results");
        }
    }
}

/// Serialize `rows` as pretty JSON into `results/<name>.json`.
pub fn write_json<T: ToJson + ?Sized>(rep: &Reporter, name: &str, rows: &T) {
    write_doc(rep, &results_dir(), &format!("{name}.json"), &rows.to_json().pretty());
}

/// Write `body` to `dir/name`, creating `dir` if needed: a note on
/// success, a warning on failure. Returns whether the write succeeded.
pub fn write_doc(rep: &Reporter, dir: &Path, name: &str, body: &str) -> bool {
    let path = dir.join(name);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => {
            rep.note(format!("wrote {}", display_rel(&path)));
            true
        }
        Err(e) => {
            rep.warn(format!("cannot write {}: {e}", path.display()));
            false
        }
    }
}

fn display_rel(path: &Path) -> String {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(|p| p.display().to_string()))
        .unwrap_or_else(|| path.display().to_string())
}

/// `--quick` scan of the raw argv, for the `benches/` harnesses that have
/// no [`cli::CommonArgs`]; the bins read the parsed `args.quick` instead.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Steps to simulate: the paper's 400, or fewer under `--quick`.
pub fn total_steps(quick: bool) -> u64 {
    if quick {
        60
    } else {
        400
    }
}

/// Repetitions for medians: the paper's 3, or 1 under `--quick`.
pub fn repetitions(quick: bool) -> u64 {
    if quick {
        1
    } else {
        3
    }
}

/// Print a markdown-style table through the reporter.
pub fn print_table(rep: &Reporter, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        rep.say(format!("| {} |", padded.join(" | ")));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    rep.say(format!(
        "|{}|",
        widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|")
    ));
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_formed() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(&Reporter::default(), &["a", "bb"], &[vec!["1".into(), "2".into()]]);
    }
}

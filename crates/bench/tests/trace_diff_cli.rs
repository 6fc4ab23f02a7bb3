//! `trace_diff` as a process: hostile input must end in an exit status
//! and a coded diagnostic, never an abort.

use std::path::PathBuf;
use std::process::Command;

/// Write `body` to a fresh file under the system temp dir.
fn temp_file(name: &str, body: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trace_diff_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, body).expect("write temp file");
    path
}

#[test]
fn deeply_nested_lines_get_a_coded_diagnostic_not_an_abort() {
    let deep = "[".repeat(100_000);
    let good = temp_file("good.jsonl", "{\"t\":0,\"ev\":\"sync_start\",\"sync\":1}\n");
    let bad = temp_file("deep.jsonl", &format!("{deep}\n"));

    let out = Command::new(env!("CARGO_BIN_EXE_trace_diff"))
        .args([&good, &bad])
        .output()
        .expect("trace_diff runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("error[DIFF0001]"), "{stdout}");

    let out = Command::new(env!("CARGO_BIN_EXE_trace_diff"))
        .arg("--artifact")
        .args([&good, &bad])
        .output()
        .expect("trace_diff runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("error[DIFF0004]"), "{stdout}");
    assert!(stdout.contains("nesting deeper than"), "{stdout}");

    let _ = std::fs::remove_dir_all(good.parent().expect("temp dir"));
}

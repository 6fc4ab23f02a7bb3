//! `audit_trace` as a process: a trace with no events is a coded failure
//! (`AUDIT0014`, exit 1) in both the batch and the streaming path, never
//! a clean "0 violations"; one event is enough to audit.

use std::process::Command;

#[test]
fn empty_trace_fails_with_a_coded_diagnostic_in_both_paths() {
    let dir = std::env::temp_dir().join(format!("audit_trace_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let empty = dir.join("empty.jsonl");
    let one = dir.join("one.jsonl");
    std::fs::write(&empty, "").expect("write empty trace");
    std::fs::write(&one, "{\"t\":0,\"ev\":\"sync_start\",\"sync\":1}\n").expect("write trace");
    for stream in [false, true] {
        let run = |trace: &std::path::Path| {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_audit_trace"));
            cmd.args(if stream { &["--stream"][..] } else { &[] }).arg("--json").arg(&dir);
            cmd.arg("--quiet").arg(trace).output().expect("audit_trace runs")
        };
        let out = run(&empty);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stream={stream}: {stderr}");
        assert!(stderr.contains("error[AUDIT0014] empty"), "stream={stream}: {stderr}");
        assert!(!stderr.contains("panicked"), "stream={stream}: {stderr}");
        assert!(!dir.join("audit_empty.json").exists(), "no report for an empty trace");

        let out = run(&one);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "stream={stream}: {stderr}");
        assert!(dir.join("audit_one.json").exists());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

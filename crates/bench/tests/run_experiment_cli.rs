//! `run_experiment` as a process: a flag value the engine cannot run is
//! refused up front with a message naming the flag and exit 2 — never a
//! panic (exit 101) and never a silently empty run.

use std::process::Command;

#[test]
fn bad_flag_values_are_refused_before_any_work() {
    let zero = ["--nodes", "--dim", "--steps", "--sync-every", "--window", "--budget"];
    let more = [("--nodes", "3"), ("--budget", "nan"), ("--budget", "inf"), ("--budget", "-5")];
    for (flag, value) in zero.map(|flag| (flag, "0")).into_iter().chain(more) {
        let out = Command::new(env!("CARGO_BIN_EXE_run_experiment"))
            .args(["--quiet", flag, value])
            .output()
            .expect("run_experiment runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
        assert!(stderr.contains(&format!("run_experiment: {flag} ")), "{flag} {value}: {stderr}");
    }
}

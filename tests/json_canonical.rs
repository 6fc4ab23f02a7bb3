//! Every committed `results/*.json` document is the exact print of its
//! own parse through [`obs::json`]: `compact()` for the `metrics_*`
//! registries, `pretty()` for everything else. A writer that formats a
//! document by hand, or a printer change that would alter committed
//! bytes, fails here.

use obs::json::{self, Value};
use std::path::Path;

#[test]
fn committed_results_reprint_byte_for_byte() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut checked = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("results/ is committed") {
        let path = entry.expect("readable directory entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8 name").to_string();
        let text = std::fs::read_to_string(&path).expect("readable document");
        let value = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let print = if name.starts_with("metrics_") { Value::compact } else { Value::pretty };
        let reprint = print(&value);
        let line = text.lines().zip(reprint.lines()).position(|(a, b)| a != b).map(|i| i + 1);
        assert!(
            reprint == text,
            "{name}: re-print differs from the committed bytes (line {line:?})"
        );
        checked.push(name);
    }
    // The 16 experiment documents, 6 audit-family artifacts and 3 bench
    // documents.
    assert!(checked.len() >= 25, "only found {checked:?}");
}

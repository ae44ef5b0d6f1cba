//! The `dsct-experiments` command line: a name it does not know is an
//! error that lists the names it does, never a silent success.

use std::process::Command;

#[test]
fn unknown_experiment_exits_nonzero_and_lists_the_valid_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_dsct-experiments"))
        .args(["table9", "--quick"])
        .output()
        .expect("run dsct-experiments");
    assert!(!out.status.success(), "a typo must not exit 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment table9"), "{stderr}");
    for name in ["all", "table1", "fig6b", "energy-gain", "staged"] {
        assert!(
            stderr.contains(name),
            "valid name {name} not listed: {stderr}"
        );
    }
    assert!(out.stdout.is_empty(), "nothing ran, nothing is printed");
}

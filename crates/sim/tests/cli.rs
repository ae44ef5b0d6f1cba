//! The `dsct-experiments` command line: a name it does not know is an
//! error that lists the names it does, never a silent success; and
//! `--threads` reaches every sweep without reaching any artifact.

use std::path::Path;
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

#[test]
fn single_loop_sweeps_write_identical_artifacts_at_any_thread_count() {
    let run = |threads: &str| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-threads-{threads}"));
        let out = Command::new(env!("CARGO_BIN_EXE_dsct-experiments"))
            .args([
                "fig3",
                "staged",
                "robustness",
                "--quick",
                "--threads",
                threads,
            ])
            .arg("--out")
            .arg(&dir)
            .output()
            .expect("run dsct-experiments");
        assert!(out.status.success(), "--threads {threads} failed: {out:?}");
        dir
    };
    let (serial, parallel) = (run("1"), run("3"));
    for name in ["fig3", "staged", "robustness"] {
        for ext in ["json", "csv"] {
            let file = format!("{name}.{ext}");
            let a = std::fs::read(serial.join(&file)).expect("serial artifact");
            let b = std::fs::read(parallel.join(&file)).expect("parallel artifact");
            assert!(!a.is_empty(), "{file} is empty");
            assert!(a == b, "{file} differs between --threads 1 and --threads 3");
        }
    }
}

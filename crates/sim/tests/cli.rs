//! The `dsct-experiments` command line: a name it does not know is an
//! error that lists the names it does, never a silent success; and
//! `--threads` reaches every sweep without reaching any artifact.

use std::path::Path;
use std::process::Command;

#[test]
fn unknown_experiment_exits_nonzero_and_lists_the_valid_names() {
    // `fig4` names both Fig. 4 sweeps; neither has a name of its own.
    for typo in ["table9", "fig4a"] {
        let out = Command::new(env!("CARGO_BIN_EXE_dsct-experiments"))
            .args([typo, "--quick"])
            .output()
            .expect("run dsct-experiments");
        assert!(!out.status.success(), "{typo} must not exit 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown experiment {typo}")),
            "{stderr}"
        );
        for name in ["all", "table1", "fig4", "fig6b", "energy-gain", "staged"] {
            assert!(
                stderr.contains(name),
                "valid name {name} not listed: {stderr}"
            );
        }
        assert!(out.stdout.is_empty(), "nothing ran, nothing is printed");
    }
}

/// Every sweep that takes `--threads`, by the artifact names it writes
/// (`fig6` writes `fig6a` and `fig6b`).
const THREADED: [&str; 8] = [
    "fig3",
    "fig5",
    "fig6a",
    "fig6b",
    "robustness",
    "online",
    "chaos",
    "staged",
];

#[test]
fn single_loop_sweeps_write_identical_artifacts_at_any_thread_count() {
    for seed in [None, Some("7")] {
        let run = |threads: &str| {
            let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
                "cli-threads-{threads}-seed-{}",
                seed.unwrap_or("default")
            ));
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_dsct-experiments"));
            cmd.args([
                "fig3",
                "fig5",
                "fig6",
                "robustness",
                "online",
                "chaos",
                "staged",
                "--quick",
                "--threads",
                threads,
            ]);
            if let Some(seed) = seed {
                cmd.args(["--seed", seed]);
            }
            let out = cmd
                .arg("--out")
                .arg(&dir)
                .output()
                .expect("run dsct-experiments");
            assert!(out.status.success(), "--threads {threads} failed: {out:?}");
            dir
        };
        let (serial, parallel) = (run("1"), run("3"));
        for name in THREADED {
            for ext in ["json", "csv"] {
                let file = format!("{name}.{ext}");
                let a = std::fs::read(serial.join(&file)).expect("serial artifact");
                let b = std::fs::read(parallel.join(&file)).expect("parallel artifact");
                assert!(!a.is_empty(), "{file} is empty");
                assert!(
                    a == b,
                    "seed {seed:?}: {file} differs between --threads 1 and --threads 3"
                );
            }
        }
    }
}

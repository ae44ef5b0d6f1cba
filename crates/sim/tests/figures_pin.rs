//! Absolute pin on the paper-figure artifacts.
//!
//! `search_trajectory_pin` holds what FR-OPT decides; this test holds what
//! the experiments write. It runs `dsct-experiments` on ten deterministic
//! `--quick` experiments (every figure study, the online and chaos sweeps,
//! and the staged DAG/DVFS sweep, whose artifact prints full-precision
//! floats of multi-stage cells) into a scratch directory and folds every
//! `.json` and `.csv` byte, in a fixed file order, into one `u64`. A change
//! meant to keep decisions must leave the constant untouched; one meant to
//! move them re-records the artifacts and the constant in the same commit
//! and says why. `fig4` and `table1` are timing studies and stay out.

use std::process::Command;

/// Recorded with `cargo test -p dsct-sim --test figures_pin`; the release
/// profile writes the same bytes.
const PINNED: u64 = 0x448e_a9c8_fa00_d67c;

/// The pinned experiments, in fold order.
const EXPERIMENTS: [&str; 10] = [
    "fig1",
    "fig2",
    "fig3",
    "fig5",
    "fig6a",
    "fig6b",
    "robustness",
    "online",
    "chaos",
    "staged",
];

fn fold(h: u64, word: u64) -> u64 {
    let mut z = (h ^ word).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn quick_figure_artifacts_are_pinned() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures-pin");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_dsct-experiments"))
        .args(EXPERIMENTS)
        .arg("--quick")
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("run dsct-experiments");
    assert!(out.status.success(), "dsct-experiments failed: {out:?}");

    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("artifact directory")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .into_string()
                .unwrap()
        })
        .collect();
    written.sort();
    let mut expected: Vec<String> = EXPERIMENTS
        .iter()
        .flat_map(|name| [format!("{name}.json"), format!("{name}.csv")])
        .collect();
    expected.sort();
    assert_eq!(written, expected, "the pinned experiments' artifact set");

    let mut h = 0u64;
    for name in EXPERIMENTS {
        for ext in ["json", "csv"] {
            let bytes = std::fs::read(dir.join(format!("{name}.{ext}"))).expect("artifact");
            assert!(!bytes.is_empty(), "{name}.{ext} is empty");
            h = fold(h, bytes.len() as u64);
            for &b in &bytes {
                h = fold(h, b as u64);
            }
        }
    }
    assert_eq!(
        h, PINNED,
        "the --quick figure artifacts moved: {h:#018x} (pinned {PINNED:#018x})"
    );
}

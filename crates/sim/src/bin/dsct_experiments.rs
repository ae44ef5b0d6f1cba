//! `dsct-experiments` — regenerates the DSCT-EA paper's tables and figures.
//!
//! ```text
//! dsct-experiments [EXPERIMENTS…] [OPTIONS]
//!
//! Experiments: all fig1 fig2 fig3 fig4 table1 fig5 fig6 fig6a fig6b
//!              energy-gain robustness online chaos staged (default: all)
//! Options:
//!   --quick        reduced sizes/replications (smoke-test scale)
//!   --seed N       base RNG seed (default: per-experiment paper seed)
//!   --out DIR      artifact directory for JSON/CSV (default: ./results)
//!   --threads N    worker threads (0 = all cores, the default); the fig4
//!                  and table1 timing studies always run on one
//!   --sequential   run everything serially (same as --threads 1)
//! ```
//!
//! Run `--quick` first: the full Fig. 3 / Table 1 sweeps take minutes.

use dsct_sim::experiments::{
    chaos, fig1, fig2, fig3, fig4, fig5, fig6, online, robustness, staged, table1,
};
use dsct_sim::report::{write_artifacts, TextTable};
use std::path::PathBuf;
use std::process::ExitCode;

/// Every name the command line accepts as an experiment.
const EXPERIMENTS: &[&str] = &[
    "all",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "table1",
    "fig5",
    "fig6",
    "fig6a",
    "fig6b",
    "energy-gain",
    "robustness",
    "online",
    "chaos",
    "staged",
];

#[derive(Debug, Clone)]
struct Args {
    experiments: Vec<String>,
    quick: bool,
    seed: Option<u64>,
    out: PathBuf,
    /// Worker threads for every sweep but the two timing studies
    /// (0 = all cores).
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut experiments = Vec::new();
    let mut quick = false;
    let mut seed = None;
    let mut out = PathBuf::from("results");
    let mut threads = 0usize;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--sequential" => threads = 1,
            "--threads" => {
                let v = iter.next().ok_or("--threads needs a value")?;
                threads = v
                    .parse::<usize>()
                    .map_err(|e| format!("bad thread count: {e}"))?;
            }
            "--seed" => {
                let v = iter.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("bad seed: {e}"))?);
            }
            "--out" => out = PathBuf::from(iter.next().ok_or("--out needs a value")?),
            "--help" | "-h" => {
                return Err("usage".to_string());
            }
            name if EXPERIMENTS.contains(&name) => experiments.push(name.to_string()),
            name if !name.starts_with('-') => return Err(format!("unknown experiment {name}")),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    Ok(Args {
        experiments,
        quick,
        seed,
        out,
        threads,
    })
}

fn usage() -> String {
    format!(
        "dsct-experiments [EXPERIMENTS…] [--quick] [--seed N] [--out DIR] [--threads N] [--sequential]\n\
         experiments: {}\n\
         --threads N: worker threads (0 = all cores, the default; fig4 and table1 time on one); \
         --sequential = --threads 1",
        EXPERIMENTS.join(" ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e == "usage" {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    let wants = |name: &str| {
        args.experiments
            .iter()
            .any(|e| e == "all" || e == name || (e == "fig6" && name.starts_with("fig6")))
    };
    let mut failures = 0usize;
    let mut save = |name: &str, json: serde_json::Value, table: TextTable| match write_artifacts(
        &args.out, name, &json, &table,
    ) {
        Ok(()) => println!(
            "[artifacts] {}/{{{name}.json, {name}.csv}}",
            args.out.display()
        ),
        Err(e) => {
            eprintln!("[artifacts] failed to write {name}: {e}");
            failures += 1;
        }
    };

    if wants("fig1") {
        banner("Fig. 1 — GPU energy efficiency vs speed");
        let r = fig1::run();
        println!("{}", fig1::render(&r));
        save(
            "fig1",
            serde_json::to_value(&r).expect("serializable"),
            fig1::table(&r),
        );
    }
    if wants("fig2") {
        banner("Fig. 2 — accuracy vs work (exponential + 5-segment PWL)");
        let r = fig2::run(&fig2::Fig2Config::default());
        println!("{}", fig2::render(&r));
        save(
            "fig2",
            serde_json::to_value(&r).expect("serializable"),
            fig2::table(&r),
        );
    }
    if wants("fig3") {
        banner("Fig. 3 — optimality gap vs task heterogeneity");
        let mut cfg = if args.quick {
            fig3::Fig3Config::quick()
        } else {
            fig3::Fig3Config::default()
        };
        if let Some(s) = args.seed {
            cfg.base_seed = s;
        }
        let r = fig3::run(&cfg, args.threads);
        println!("{}", fig3::render(&r));
        save(
            "fig3",
            serde_json::to_value(&r).expect("serializable"),
            fig3::table(&r),
        );
    }
    if wants("fig4") {
        banner("Fig. 4 — runtime: DSCT-EA-APPROX vs MIP (time-limited)");
        let mut cfg = if args.quick {
            fig4::Fig4Config::quick()
        } else {
            fig4::Fig4Config::default()
        };
        if let Some(s) = args.seed {
            cfg.base_seed = s;
        }
        let r = fig4::run(&cfg);
        println!("{}", fig4::render(&r));
        save(
            "fig4",
            serde_json::to_value(&r).expect("serializable"),
            fig4::table(&r),
        );
    }
    if wants("table1") {
        banner("Table 1 — DSCT-EA-FR-OPT vs LP solver runtimes");
        let mut cfg = if args.quick {
            table1::Table1Config::quick()
        } else {
            table1::Table1Config::default()
        };
        if let Some(s) = args.seed {
            cfg.base_seed = s;
        }
        let r = table1::run(&cfg);
        println!("{}", table1::render(&r));
        save(
            "table1",
            serde_json::to_value(&r).expect("serializable"),
            table1::table(&r),
        );
    }
    if wants("fig5") || wants("energy-gain") {
        banner("Fig. 5 — accuracy vs energy-budget ratio (+ energy gain)");
        let mut cfg = if args.quick {
            fig5::Fig5Config::quick()
        } else {
            fig5::Fig5Config::default()
        };
        if let Some(s) = args.seed {
            cfg.base_seed = s;
        }
        let r = fig5::run(&cfg, args.threads);
        println!("{}", fig5::render(&r));
        save(
            "fig5",
            serde_json::to_value(&r).expect("serializable"),
            fig5::table(&r),
        );
    }
    if wants("robustness") {
        banner("Extension — realized accuracy under runtime speed jitter");
        let mut cfg = if args.quick {
            robustness::RobustnessConfig::quick()
        } else {
            robustness::RobustnessConfig::default()
        };
        if let Some(s) = args.seed {
            cfg.base_seed = s;
        }
        let r = robustness::run(&cfg, args.threads);
        println!("{}", robustness::render(&r));
        save(
            "robustness",
            serde_json::to_value(&r).expect("serializable"),
            robustness::table(&r),
        );
    }
    if wants("online") {
        banner("Extension — online arrival service: regret vs clairvoyant FR-OPT");
        let mut cfg = if args.quick {
            online::OnlineExpConfig::quick()
        } else {
            online::OnlineExpConfig::default()
        };
        if let Some(s) = args.seed {
            cfg.base_seed = s;
        }
        let r = online::run(&cfg, args.threads);
        println!("{}", online::render(&r));
        save(
            "online",
            serde_json::to_value(&r).expect("serializable"),
            online::table(&r),
        );
    }
    if wants("staged") {
        banner("Extension — staged solver over DAG depth × operating points");
        let mut cfg = if args.quick {
            staged::StagedExpConfig::quick()
        } else {
            staged::StagedExpConfig::default()
        };
        if let Some(s) = args.seed {
            cfg.base_seed = s;
        }
        let r = staged::run(&cfg, args.threads);
        println!("{}", staged::render(&r));
        save(
            "staged",
            serde_json::to_value(&r).expect("serializable"),
            staged::table(&r),
        );
    }
    if wants("chaos") {
        banner("Extension — accuracy retention under deterministic fault injection");
        let mut cfg = if args.quick {
            chaos::ChaosExpConfig::quick()
        } else {
            chaos::ChaosExpConfig::default()
        };
        if let Some(s) = args.seed {
            cfg.base_seed = s;
        }
        let r = chaos::run(&cfg, args.threads);
        println!("{}", chaos::render(&r));
        save(
            "chaos",
            serde_json::to_value(&r).expect("serializable"),
            chaos::table(&r),
        );
    }
    for (name, scenario) in [
        ("fig6a", fig6::Fig6Scenario::UniformTasks),
        ("fig6b", fig6::Fig6Scenario::EarliestHighEfficient),
    ] {
        if wants(name) {
            banner(&format!("Fig. 6 ({name}) — two-machine energy profiles"));
            let mut cfg = if args.quick {
                fig6::Fig6Config::quick(scenario)
            } else {
                fig6::Fig6Config::paper(scenario)
            };
            if let Some(s) = args.seed {
                cfg.base_seed = s;
            }
            let r = fig6::run(&cfg, args.threads);
            println!("{}", fig6::render(&r));
            save(
                name,
                serde_json::to_value(&r).expect("serializable"),
                fig6::table(&r),
            );
        }
    }

    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

//! The chaos determinism contract, as CI runs it: fault-injected online
//! replays must serialize to byte-identical summaries run after run, for
//! every chaos seed under test. The `chaos-suite` CI job runs this binary
//! twice — `--test-threads=1` and the harness default — so harness
//! threading is covered by the job matrix, not by code here.
//!
//! Seeds default to {11, 22, 33} and can be overridden with
//! `DSCT_CHAOS_SEEDS=5,7,9` to widen the sweep without recompiling.

use dsct_ea::chaos::{chaos_replay, ChaosConfig, ChaosPlan};
use dsct_ea::online::OnlineConfig;
use dsct_ea::workload::{
    generate_arrivals, ArrivalConfig, ArrivalTrace, MachineConfig, TaskConfig, ThetaDistribution,
};

fn chaos_seeds() -> Vec<u64> {
    match std::env::var("DSCT_CHAOS_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|v| {
                v.trim()
                    .parse::<u64>()
                    .unwrap_or_else(|e| panic!("DSCT_CHAOS_SEEDS entry {v:?}: {e}"))
            })
            .collect(),
        Err(_) => vec![11, 22, 33],
    }
}

fn trace(seed: u64) -> ArrivalTrace {
    let cfg = ArrivalConfig {
        tasks: TaskConfig::paper(30, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
        machines: MachineConfig::paper_random(3),
        load: 1.0,
        deadline_slack: 2.0,
        beta: 0.5,
    };
    generate_arrivals(&cfg, seed).expect("validated config")
}

fn summary_json(t: &ArrivalTrace, plan: &ChaosPlan) -> String {
    let r = chaos_replay(t, &OnlineConfig::default(), plan).expect("valid replay config");
    serde_json::to_string(&r.summary).expect("serializable summary")
}

#[test]
fn repeated_chaos_replays_are_byte_identical() {
    // Same process, fresh service each time: no hidden global state may
    // leak between replays.
    for chaos_seed in chaos_seeds() {
        let t = trace(chaos_seed);
        let plan = ChaosPlan::generate(
            &ChaosConfig::default(),
            chaos_seed,
            t.horizon(),
            t.park.len(),
            t.budget,
        );
        assert_eq!(
            summary_json(&t, &plan),
            summary_json(&t, &plan),
            "chaos seed {chaos_seed}: a repeated replay drifted"
        );
    }
}

#[test]
fn chaos_plans_are_byte_identical_across_generations() {
    for chaos_seed in chaos_seeds() {
        let t = trace(chaos_seed);
        let gen = || {
            serde_json::to_string(&ChaosPlan::generate(
                &ChaosConfig::default(),
                chaos_seed,
                t.horizon(),
                t.park.len(),
                t.budget,
            ))
            .expect("serializable plan")
        };
        assert_eq!(
            gen(),
            gen(),
            "chaos seed {chaos_seed}: plan generation drifted"
        );
    }
}

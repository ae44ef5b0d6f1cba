//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `../BENCHMARK.json`
//! states the same tables for the driver; a unit test keeps the two
//! identical.

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 777;
/// Seconds one run measures when none is given (`run_seconds`).
pub const DEFAULT_SECONDS: f64 = 20.0;

pub const OFFLINE_SCALE: &str = "offline_scale";
pub const SERVE_STEADY: &str = "serve_steady";
pub const SERVE_OVERLOAD: &str = "serve_overload";
pub const SERVE_BURST_CHAOS: &str = "serve_burst_chaos";

/// `(name, why)` of every workload.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        OFFLINE_SCALE,
        "About 100 generated instances at n=316, m=18, each solved by FR-OPT and APPROX: algo_naive, profile_search, fr_opt, approx do all the work, online/server/gateway none; the traced run fits O(n^2 m^2).",
    ),
    (
        SERVE_STEADY,
        "20k Poisson arrivals at load 1.0, one tick each, pools 1-3 deep: per-arrival control-plane cost (flush, thread spawns, federation, route, quota, audit) is nearly all the time, the solver almost none.",
    ),
    (
        SERVE_OVERLOAD,
        "3k arrivals at load 2.0 under DegradeToFit + Incremental, pools 50-200 deep: gated re-solves (replan, approx, probes) are >90% of the time and the gateway is noise; the inverse of serve_steady.",
    ),
    (
        SERVE_BURST_CHAOS,
        "300k arrivals in 6000 ticks of 50, skewed tenants, tight quota with retry, rebalance, kill and recover: batch flushes, back-pressure, rejections and moves; prices queue, quota and route.",
    ),
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: what a caller of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every run reports every one of these; README.md says what each
/// means on each workload. The bounds are what this 2-core host's
/// seed-to-seed spread allows (README.md, "First numbers"): at least
/// 1.5 times the widest spread ten seeds showed on any workload.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("fr_solve_s", "s", Better::Lower, 0.25),
    e2e("approx_solve_s", "s", Better::Lower, 0.25),
    e2e("opt_gap", "acc/task", Better::Lower, 0.15),
    e2e("arrivals_per_s", "1/s", Better::Higher, 0.25),
    e2e("admit_p50_us", "us", Better::Lower, 0.25),
    e2e("admit_p99_us", "us", Better::Lower, 0.25),
    e2e("mean_accuracy", "acc/task", Better::Higher, 0.10),
    e2e("regret", "ratio", Better::Lower, 0.15),
    e2e("served_share", "ratio", Better::Higher, 0.10),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// Task counts of the offline scaling grid.
pub const GRID_N: [usize; 3] = [100, 316, 1000];
/// Machine counts of the offline scaling grid.
pub const GRID_M: [usize; 3] = [10, 18, 32];

/// One per-layer metric (no bound).
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    /// Stated for the driver; no code path of a run reads it.
    pub better: Better,
}

/// Every traced run reports every one of these; a layer that does no
/// work on a workload reports 0.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let fixed: [(&str, &str, Better); 60] = [
        ("workload.generate_s", "s", Lower),
        ("trace.overhead_ratio", "ratio", Lower),
        ("gateway.queue.recv_wait_s", "s", Lower),
        ("gateway.queue.recv_ns_per_task", "ns", Lower),
        ("gateway.queue.max_depth", "count", Higher),
        ("gateway.quota.try_admit_ns", "ns", Lower),
        ("gateway.quota.rejected", "count", Lower),
        ("gateway.quota.retries_admitted", "count", Higher),
        ("gateway.quota.retries_dropped", "count", Lower),
        ("gateway.admit_self_s", "s", Lower),
        ("gateway.rebalance.moves", "count", Lower),
        ("gateway.audits", "count", Lower),
        ("server.route.ns_per_call", "ns", Lower),
        ("server.route.shard_skew", "ratio", Lower),
        ("server.federation.settlements", "count", Lower),
        ("server.federation.joules", "J", Lower),
        ("server.federation.plan_ns", "ns", Lower),
        ("server.submit_total_s", "s", Lower),
        ("server.submit_total_s_w1", "s", Lower),
        ("server.parallel_gain", "ratio", Higher),
        ("server.flushes", "count", Lower),
        ("server.self_s", "s", Lower),
        ("server.drained", "count", Lower),
        ("server.recoveries", "count", Higher),
        ("online.cell_total_s", "s", Lower),
        ("online.try_submit_p50_us", "us", Lower),
        ("online.try_submit_p99_us", "us", Lower),
        ("online.replans", "count", Lower),
        ("online.solves", "count", Lower),
        ("online.pool_depth_p50", "count", Lower),
        ("online.pool_depth_p99", "count", Lower),
        ("online.rejected", "count", Lower),
        ("online.expired", "count", Lower),
        ("online.starved", "count", Lower),
        ("online.energy_used_ratio", "ratio", Higher),
        ("core.replan.requests", "count", Lower),
        ("core.replan.cold_solves", "count", Lower),
        ("core.replan.warm_solves", "count", Lower),
        ("core.replan.estimates", "count", Lower),
        ("core.replan.delta_bounds", "count", Higher),
        ("core.replan.cache_hits", "count", Higher),
        ("core.replan.cache_misses", "count", Lower),
        ("core.replan.fallbacks", "count", Lower),
        ("core.replan.evictions", "count", Lower),
        ("core.replan.memo_hits", "count", Higher),
        ("core.replan.hit_ratio", "ratio", Higher),
        ("core.approx.solve_us_pool_p50", "us", Lower),
        ("core.approx.solve_us_pool_p99", "us", Lower),
        ("core.approx.rounding_share", "ratio", Lower),
        ("core.fr_opt.exp_n", "exponent", Lower),
        ("core.fr_opt.exp_m", "exponent", Lower),
        ("core.profile_search.probe_exp_n", "exponent", Lower),
        ("core.profile_search.probe_exp_m", "exponent", Lower),
        ("core.profile_search.incremental_share", "ratio", Higher),
        ("core.algo_naive.ns_per_probe", "ns", Lower),
        ("core.oracle.verify_ms", "ms", Lower),
        ("core.oracle.tolerance_violations", "count", Lower),
        ("lp.solve_ms_n100_m10", "ms", Lower),
        ("lp.iterations_n100_m10", "count", Lower),
        ("lp.fr_agreement_abs", "acc", Lower),
    ];
    let mut out: Vec<PerLayer> = fixed
        .iter()
        .map(|&(name, unit, better)| PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
        .collect();
    for (prefix, unit) in [
        ("core.fr_opt.solve_ms", "ms"),
        ("core.profile_search.probes", "count"),
    ] {
        for n in GRID_N {
            for m in GRID_M {
                out.push(PerLayer {
                    name: grid_name(prefix, n, m),
                    unit,
                    better: Lower,
                });
            }
        }
    }
    out
}

/// The unit a metric is reported in; empty for a name in neither table
/// (such a number is printed for the reader and never reaches the driver).
pub fn unit_of(name: &str) -> &'static str {
    let end_to_end = END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit);
    let layer = || {
        per_layer()
            .into_iter()
            .find(|m| m.name == name)
            .map(|m| m.unit)
    };
    end_to_end.or_else(layer).unwrap_or("")
}

/// Name of a scaling-grid metric.
pub fn grid_name(prefix: &str, n: usize, m: usize) -> String {
    format!("{prefix}.n{n}_m{m}")
}

/// The text of `../BENCHMARK.json`: the same tables in the driver's
/// format (`benchmark --contract` prints it).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        DEFAULT_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            text,
            benchmark_json(),
            "regenerate with `benchmark --contract`"
        );
    }

    #[test]
    fn the_contract_is_inside_the_driver_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains(['\n', '"']), "{why}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(per_layer().len() <= 128);
        assert!(benchmark_json().len() <= 64 * 1024);
        assert!(DEFAULT_SECONDS.fract() == 0.0 && (1.0..=60.0).contains(&DEFAULT_SECONDS));
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(per_layer().iter().map(|m| m.unit))
            .collect::<Vec<_>>();
        for unit in units {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|(n, _)| n.to_string()));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }
}

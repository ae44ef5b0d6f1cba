//! The traced run of a serve workload. A caller cannot see inside
//! `Gateway::admit`, so the layers are separated by a ladder of rungs
//! over the same task sequence, each one layer shorter than the last:
//!
//! * **G** the full gateway path (`serve::run_gateway`, with spans);
//! * **S** the sorted sequence straight into `ScheduleServer::submit`,
//!   at workers auto and at workers = 1; its digest must equal G's
//!   server digest. Skipped on `serve_burst_chaos`, where quota, retry
//!   and rebalance change the sequence: there G itself runs at both
//!   worker settings;
//! * **C** each shard's cell rebuilt as a bare `OnlineService` and
//!   replayed in turn;
//! * **K** solver calls at the pool depths rung C observed;
//!
//! plus micro-rungs on a bare `QuotaBook`, `Router` and
//! `plan_transfers`. Below `online` the split is count x unit cost, an
//! estimate until the layers carry telemetry of their own.

use crate::host::{Fingerprint, SHARDS};
use crate::inputs::{cell, derive_seed};
use crate::report::RunResult;
use crate::serve::{self, Built, ServeSpec, MACHINES};
use crate::spans::{Spans, NO_REQUEST};
use crate::stats::{median, percentile};
use crate::{spec, Res};
use dsct_core::replan::ReplanStats;
use dsct_core::solver::{ApproxSolver, Solver, SolverContext};
use dsct_gateway::QuotaBook;
use dsct_online::OnlineService;
use dsct_server::{plan_transfers, FederationConfig, Router, ScheduleServer, ShardFunds};
use dsct_workload::OnlineTask;
use std::hint::black_box;
use std::time::Instant;

/// Every seed must keep the workloads' pool depths this far apart, so
/// no workload is tuned to one seed (seen: 2 on `serve_steady`, 49 to
/// 66 on `serve_overload`).
const STEADY_POOL_P50_MAX: f64 = 4.0;
const OVERLOAD_POOL_P50_MIN: f64 = 30.0;

/// Rung S: the drain-ordered tasks straight into the server. Returns
/// the seconds spent inside `submit` and `finish`, and the digest.
fn run_server(
    built: &Built,
    workers: usize,
    spans: &mut Spans,
    name: &'static str,
) -> Res<(f64, String)> {
    let mut cfg = built.cfg.server;
    cfg.replay.workers = workers;
    let mut server = ScheduleServer::new(&built.trace.park, built.trace.budget, cfg)?;
    let root = spans.enter(name, NO_REQUEST);
    let from = Instant::now();
    for task in &built.trace.tasks {
        black_box(server.submit(task)?);
    }
    let report = server.finish();
    let total = from.elapsed().as_secs_f64();
    spans.exit(root);
    Ok((total, report.digest()))
}

/// What rung C saw.
struct Cells {
    total_s: f64,
    submit_us: Vec<f64>,
    depths: Vec<f64>,
    replan: ReplanStats,
}

/// Rung C: the server's own deal (machines round-robin, budget by
/// power, tenants by rendezvous hash), one bare cell at a time.
fn run_cells(built: &Built, spans: &mut Spans) -> Res<Cells> {
    let park = &built.trace.park;
    let mut groups = vec![Vec::new(); SHARDS];
    for (i, machine) in park.machines().iter().enumerate() {
        groups[i % SHARDS].push(*machine);
    }
    let router = Router::new(SHARDS);
    let mut routed: Vec<Vec<&OnlineTask>> = vec![Vec::new(); SHARDS];
    for task in &built.trace.tasks {
        let shard = router.route(task.tenant).ok_or("no live shard")?;
        routed[shard].push(task);
    }
    let mut cells = Cells {
        total_s: 0.0,
        submit_us: Vec::with_capacity(built.trace.tasks.len()),
        depths: Vec::with_capacity(built.trace.tasks.len()),
        replan: ReplanStats::default(),
    };
    let root = spans.enter("rung.C", NO_REQUEST);
    for (group, tasks) in groups.into_iter().zip(routed) {
        let power: f64 = group.iter().map(|m| m.power()).sum();
        let slice = built.trace.budget * power / park.total_power();
        let mut cell = OnlineService::from_machines(group, slice, built.cfg.server.replay.online)?;
        let cell_span = spans.enter("online.cell", NO_REQUEST);
        for task in tasks {
            let from = Instant::now();
            black_box(cell.try_submit(task)?);
            let s = from.elapsed().as_secs_f64();
            cells.total_s += s;
            cells.submit_us.push(s * 1e6);
            cells.depths.push(cell.pending() as f64);
        }
        let stats = cell.replan_stats();
        let from = Instant::now();
        black_box(cell.finish());
        cells.total_s += from.elapsed().as_secs_f64();
        spans.exit(cell_span);
        let r = &mut cells.replan;
        r.requests += stats.requests;
        r.cold_solves += stats.cold_solves;
        r.warm_solves += stats.warm_solves;
        r.estimates += stats.estimates;
        r.delta_bounds += stats.delta_bounds;
        r.cache_hits += stats.cache_hits;
        r.cache_misses += stats.cache_misses;
        r.fallbacks += stats.fallbacks;
        r.evictions += stats.evictions;
        r.memo_hits += stats.memo_hits;
    }
    spans.exit(root);
    Ok(cells)
}

/// Instances rung K times at each pool depth.
const RUNG_K_INSTANCES: u64 = 9;

/// Rung K: median microseconds of an APPROX solve over generated
/// instances of `depth` tasks on one cell's machines (one timed solve
/// each, after an untimed one).
fn approx_us_at_depth(depth: f64, seed: u64, spans: &mut Spans) -> Res<f64> {
    let solver = ApproxSolver::new();
    let mut ctx = SolverContext::new();
    let mut us = Vec::new();
    for i in 0..RUNG_K_INSTANCES {
        let inst = cell(
            (depth as usize).max(1),
            MACHINES / SHARDS,
            derive_seed(seed, i),
        );
        solver.solve_with(&inst, &mut ctx)?;
        let from = Instant::now();
        spans.within("core.approx.solve", i, || {
            solver.solve_with(&inst, &mut ctx)
        })?;
        us.push(from.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&mut us))
}

/// Mean nanoseconds of `f` over `calls` calls.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let from = Instant::now();
    for i in 0..calls {
        f(i);
    }
    from.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// The micro-rungs: one layer's public entry point over the workload's
/// own stream, nothing else running.
fn micro_rungs(built: &Built, out: &mut RunResult) {
    let tasks = &built.trace.tasks;
    let mut book = QuotaBook::new(built.cfg.quota);
    let quota_ns = ns_per_call(tasks.len(), |i| {
        let t = &tasks[i];
        let _ = black_box(book.try_admit(t.tenant, t.arrival, t.accuracy.f_max()));
    });
    out.put("gateway.quota.try_admit_ns", quota_ns);

    let router = Router::new(SHARDS);
    let route_ns = ns_per_call(tasks.len(), |i| {
        black_box(router.route(black_box(tasks[i].tenant)));
    });
    out.put("server.route.ns_per_call", route_ns);

    // Two shards nearly dry with work pending, two holding their slice:
    // the round plans transfers instead of returning early.
    let slice = built.trace.budget / SHARDS as f64;
    let funds: Vec<ShardFunds> = (0..SHARDS)
        .map(|s| ShardFunds {
            remaining: if s % 2 == 0 { 0.05 * slice } else { slice },
            slice,
            pending: 3,
            alive: true,
        })
        .collect();
    let federation = FederationConfig::default();
    let plan_ns = ns_per_call(100_000, |i| {
        black_box(plan_transfers(&federation, i as f64, black_box(&funds)));
    });
    out.put("server.federation.plan_ns", plan_ns);
}

/// The traced run: every per-layer metric of one serve workload.
pub fn run_traced(
    spec: &ServeSpec,
    seed: u64,
    host: &Fingerprint,
    spans: &mut Spans,
) -> Res<RunResult> {
    let mut out = RunResult::default();
    let from = Instant::now();
    let built = spans.within("workload.generate", NO_REQUEST, || serve::build(spec, seed))?;
    out.put("workload.generate_s", from.elapsed().as_secs_f64());
    let offered = built.trace.tasks.len();

    let reference = serve::reference_replay(&built)?;
    let reference_digest = reference.digest();
    serve::check_report(&built, &reference, None, "reference", &mut out);
    drop(reference);

    // Rung G in the order untraced, traced, traced, untraced, so that a
    // drift of the host over the four replays cancels in the ratio that
    // prices the tracing. The first traced replay is the one reported.
    let mut plain_s = 0.0;
    let mut traced_s = 0.0;
    let mut kept = None;
    let mut discarded = Spans::new();
    for (round, traced) in [false, true, true, false].into_iter().enumerate() {
        let label = format!("rung G replay {round}");
        let recorder = match (traced, kept.is_none()) {
            (false, _) => None,
            (true, true) => Some(&mut *spans),
            (true, false) => Some(&mut discarded),
        };
        let run = serve::run_gateway(&built, 0, host.producers, recorder)?;
        serve::check_report(
            &built,
            &run.report,
            Some(&reference_digest),
            &label,
            &mut out,
        );
        out.attempted += run.admit_ns.len() as u64;
        if traced {
            traced_s += run.wall_s;
            kept.get_or_insert(run);
        } else {
            plain_s += run.wall_s;
        }
    }
    let g = kept.expect("two replays are traced");
    serve::quality_of(spec, &built, &g.report, "rung G", &mut out).put(1, &mut out);
    out.put_noted(
        "trace.overhead_ratio",
        traced_s / plain_s,
        None,
        "untraced / traced arrivals_per_s, two replays each".into(),
    );
    let fold = spans.fold();
    let recv = fold.get("gateway.queue.recv").copied().unwrap_or_default();
    out.put("gateway.queue.recv_wait_s", recv.total_ns as f64 / 1e9);
    out.put(
        "gateway.queue.recv_ns_per_task",
        recv.total_ns as f64 / offered as f64,
    );
    out.put("gateway.queue.max_depth", g.max_depth as f64);

    let core = &g.report.core;
    let server = &core.server;
    let (mut replans, mut solves, mut rejected, mut expired, mut starved) = (0, 0, 0, 0, 0);
    for cell in serve::cells_run(server) {
        replans += cell.replans;
        solves += cell.solves;
        rejected += cell.rejected;
        expired += cell.expired;
        starved += cell.starved;
    }
    for (name, count) in [
        ("gateway.quota.rejected", core.summary.quota_rejected),
        (
            "gateway.quota.retries_admitted",
            core.summary.retries_admitted,
        ),
        (
            "gateway.quota.retries_dropped",
            core.summary.retries_dropped,
        ),
        ("gateway.rebalance.moves", core.summary.moved),
        ("gateway.audits", core.audits.len()),
        ("server.federation.settlements", server.summary.settlements),
        ("server.flushes", g.flushes as usize),
        ("server.drained", server.summary.drained),
        ("server.recoveries", server.summary.recoveries),
        ("online.replans", replans),
        ("online.solves", solves),
        ("online.rejected", rejected),
        ("online.expired", expired),
        ("online.starved", starved),
    ] {
        out.put(name, count as f64);
    }
    out.put("server.federation.joules", server.summary.federated_joules);
    out.put(
        "online.energy_used_ratio",
        server.summary.spent_energy / built.trace.budget,
    );
    let mut per_shard = [0usize; SHARDS];
    for &(_, shard, _) in &server.decisions {
        if let Some(count) = per_shard.get_mut(shard) {
            *count += 1;
        }
    }
    let routed: usize = per_shard.iter().sum();
    let busiest = per_shard.iter().copied().max().unwrap_or(0);
    out.put_noted(
        "server.route.shard_skew",
        busiest as f64 * SHARDS as f64 / routed.max(1) as f64,
        None,
        "max / mean arrivals per shard".into(),
    );
    // G at one worker: against G at workers auto it is the parallel gain
    // where rung S cannot replay the sequence, and against S at one
    // worker (neither spawns a thread per flush, so both are quiet) it
    // is the gateway's own time.
    let g_w1 = serve::run_gateway(&built, 1, host.producers, None)?;
    serve::check_report(
        &built,
        &g_w1.report,
        Some(&reference_digest),
        "rung G workers=1",
        &mut out,
    );
    let g_w1_s = g_w1.admit_total_s();
    drop(g_w1);
    let (auto_s, w1_s, note) = if spec.burst.is_some() {
        (
            g.admit_total_s(),
            g_w1_s,
            "rung G admit time (rung S skipped)",
        )
    } else {
        let server_digest = server.digest();
        let (auto_s, auto_digest) = run_server(&built, 0, spans, "rung.S")?;
        let (w1_s, w1_digest) = run_server(&built, 1, spans, "rung.S.w1")?;
        out.check(
            auto_digest == server_digest && w1_digest == server_digest,
            || "rung S's server digest differs from rung G's".to_string(),
        );
        (auto_s, w1_s, "rung S")
    };
    out.put_noted("server.submit_total_s", auto_s, None, note.into());
    out.put_noted("server.submit_total_s_w1", w1_s, None, note.into());
    let note = "workers=1 / workers=auto".to_string();
    out.put_noted("server.parallel_gain", w1_s / auto_s, None, note);

    let cells = run_cells(&built, spans)?;
    out.put("online.cell_total_s", cells.total_s);
    if spec.burst.is_some() {
        // Without rung S the gateway's and the server's own time
        // cannot be told apart; both are charged to the server.
        let note = "folded into server.self_s".to_string();
        out.put_noted("gateway.admit_self_s", 0.0, None, note);
    } else {
        let note = "rung G - rung S, both at workers=1".to_string();
        out.put_noted("gateway.admit_self_s", g_w1_s - w1_s, None, note);
    }
    let note = "workers=1 - rung C".to_string();
    out.put_noted("server.self_s", w1_s - cells.total_s, None, note);
    let mut submit_us = cells.submit_us;
    out.put("online.try_submit_p50_us", median(&mut submit_us));
    out.put("online.try_submit_p99_us", percentile(&submit_us, 99.0));
    let mut depths = cells.depths;
    let depth_p50 = median(&mut depths);
    let depth_p99 = percentile(&depths, 99.0);
    out.put("online.pool_depth_p50", depth_p50);
    out.put("online.pool_depth_p99", depth_p99);
    match spec.name {
        spec::SERVE_STEADY => out.check(depth_p50 <= STEADY_POOL_P50_MAX, || {
            format!("pool depth p50 {depth_p50} > {STEADY_POOL_P50_MAX}: pools are not shallow")
        }),
        spec::SERVE_OVERLOAD => out.check(depth_p50 >= OVERLOAD_POOL_P50_MIN, || {
            format!("pool depth p50 {depth_p50} < {OVERLOAD_POOL_P50_MIN}: pools are not deep")
        }),
        _ => {}
    }
    let r = cells.replan;
    for (name, value) in [
        ("requests", r.requests),
        ("cold_solves", r.cold_solves),
        ("warm_solves", r.warm_solves),
        ("estimates", r.estimates),
        ("delta_bounds", r.delta_bounds),
        ("cache_hits", r.cache_hits),
        ("cache_misses", r.cache_misses),
        ("fallbacks", r.fallbacks),
        ("evictions", r.evictions),
        ("memo_hits", r.memo_hits),
    ] {
        out.put(&format!("core.replan.{name}"), value as f64);
    }
    out.put("core.replan.hit_ratio", r.hit_ratio());

    out.put(
        "core.approx.solve_us_pool_p50",
        approx_us_at_depth(depth_p50, seed, spans)?,
    );
    out.put(
        "core.approx.solve_us_pool_p99",
        approx_us_at_depth(depth_p99, seed, spans)?,
    );
    micro_rungs(&built, &mut out);
    Ok(out)
}

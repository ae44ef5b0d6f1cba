//! The three serve workloads: how each trace, gateway configuration and
//! chaos plan is made from the seed, the closed-loop replay through the
//! gateway (rung G of the ladder), the correctness checks on its
//! report, and the untraced run that yields the end-to-end metrics.
//!
//! Load model: the gateway runs on simulated time, so there is no
//! arrival rate to sweep. Each workload is a closed-loop replay at a
//! stated input size: one consumer thread calling `Gateway::admit`,
//! `producers` threads blocking on bounded lanes of the default
//! capacity, `workers = 0` (auto) underneath.

use crate::host::{Fingerprint, SHARDS};
use crate::inputs::{derive_seed, fixed_park, paper_tasks, unit};
use crate::report::RunResult;
use crate::spans::{Spans, NO_REQUEST};
use crate::stats::{highest_supported_percentile, percentile, summarize};
use crate::{spec, Res};
use dsct_chaos::ShardChaosPlan;
use dsct_core::{EPS_ENERGY, EPS_TIME};
use dsct_gateway::{
    replay_gateway, Gateway, GatewayConfig, GatewayReport, IngressQueue, QuotaConfig,
    RebalanceConfig, RETRY_ID_BASE,
};
use dsct_online::{AdmissionPolicy, OnlineConfig, OnlineSummary, ReplanStrategy};
use dsct_server::ServerReport;
use dsct_workload::{generate_arrivals, ArrivalConfig, ArrivalTrace};
use std::hint::black_box;
use std::time::Instant;

/// Machines of every serve park (4 per shard cell).
pub const MACHINES: usize = 16;

/// Burst shaping of `serve_burst_chaos`.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    /// Equally spaced instants the arrivals are snapped down onto.
    pub ticks: usize,
    /// Quota rate as a multiple of a tenant's fair share of the park.
    pub rate_x_fair: f64,
    /// Bucket capacity as a multiple of the mean `f_max`.
    pub burst_x_fmax: f64,
    /// Shard kills, each recovered a tenth of the horizon later.
    pub kills: usize,
}

/// One serve workload, fully stated.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub name: &'static str,
    pub n: usize,
    pub load: f64,
    pub deadline_slack: f64,
    pub tenants: u64,
    pub policy: AdmissionPolicy,
    pub replan: ReplanStrategy,
    /// `None`: uniform tenants, a generous quota (bucket math is paid,
    /// nothing is rejected), no rebalance, no chaos.
    pub burst: Option<Burst>,
}

pub fn spec_of(workload: &str) -> Option<ServeSpec> {
    let defaults = OnlineConfig::default();
    Some(match workload {
        spec::SERVE_STEADY => ServeSpec {
            name: spec::SERVE_STEADY,
            n: 20_000,
            load: 1.0,
            deadline_slack: 2.0,
            tenants: 1000,
            policy: defaults.policy,
            replan: defaults.replan,
            burst: None,
        },
        spec::SERVE_OVERLOAD => ServeSpec {
            name: spec::SERVE_OVERLOAD,
            n: 3_000,
            load: 2.0,
            deadline_slack: 20.0,
            tenants: 64,
            policy: AdmissionPolicy::DegradeToFit,
            replan: ReplanStrategy::Incremental,
            burst: None,
        },
        spec::SERVE_BURST_CHAOS => ServeSpec {
            name: spec::SERVE_BURST_CHAOS,
            n: 300_000,
            load: 1.0,
            deadline_slack: 4.0,
            tenants: 5000,
            policy: defaults.policy,
            replan: defaults.replan,
            burst: Some(Burst {
                ticks: 6000,
                rate_x_fair: 4.0,
                burst_x_fmax: 8.0,
                kills: 2,
            }),
        },
        _ => return None,
    })
}

/// The inputs of one serve workload: only these reach the program.
pub struct Built {
    /// The trace, its tasks in the gateway's `(arrival, tenant, id)`
    /// drain order.
    pub trace: ArrivalTrace,
    /// Gateway configuration with `workers = 0` (auto).
    pub cfg: GatewayConfig,
    pub plan: ShardChaosPlan,
}

/// Makes the workload's inputs from the seed.
pub fn build(spec: &ServeSpec, seed: u64) -> Res<Built> {
    let arrivals = ArrivalConfig {
        tasks: paper_tasks(spec.n),
        machines: fixed_park(MACHINES),
        load: spec.load,
        deadline_slack: spec.deadline_slack,
        beta: 0.5,
    };
    let mut trace = generate_arrivals(&arrivals, seed)?;
    let mut cfg = GatewayConfig::default();
    cfg.server.replay.shards = SHARDS;
    cfg.server.replay.workers = 0;
    cfg.server.replay.online = OnlineConfig {
        policy: spec.policy,
        replan: spec.replan,
        ..OnlineConfig::default()
    };
    let plan = match spec.burst {
        None => {
            trace = trace.with_tenants(spec.tenants, seed);
            cfg.quota = QuotaConfig {
                enabled: true,
                rate: 1e9,
                burst: 1e9,
                retry: false,
            };
            ShardChaosPlan::none(seed)
        }
        Some(burst) => {
            let last = trace.tasks.last().map_or(0.0, |t| t.arrival);
            let step = (last * (1.0 + 1e-9)).max(f64::MIN_POSITIVE) / burst.ticks as f64;
            let mut work = 0.0;
            for task in &mut trace.tasks {
                // Snapping down keeps every deadline feasible.
                let tick = (task.arrival / step).floor().min((burst.ticks - 1) as f64);
                task.arrival = tick * step;
                // Skewed tenants: a few heavy ones, a long light tail.
                let u = unit(seed, task.id);
                task.tenant = (spec.tenants as f64 * u * u) as u64;
                work += task.accuracy.f_max();
            }
            let fair = spec.load * trace.park.total_speed() / spec.tenants as f64;
            cfg.quota = QuotaConfig {
                enabled: true,
                rate: burst.rate_x_fair * fair,
                burst: burst.burst_x_fmax * work / spec.n as f64,
                retry: true,
            };
            cfg.rebalance = RebalanceConfig {
                enabled: true,
                ..RebalanceConfig::default()
            };
            let horizon = trace.horizon();
            ShardChaosPlan::kill_recover(seed, horizon, SHARDS, burst.kills, 0.1 * horizon)
        }
    };
    trace.tasks.sort_by(|a, b| {
        a.arrival
            .total_cmp(&b.arrival)
            .then(a.tenant.cmp(&b.tenant))
            .then(a.id.cmp(&b.id))
    });
    Ok(Built { trace, cfg, plan })
}

/// One closed-loop replay through the gateway.
pub struct GRun {
    /// First `send` to `Gateway::finish` returning.
    pub wall_s: f64,
    /// Consumer-side latency of every `Gateway::admit`.
    pub admit_ns: Vec<u64>,
    pub report: GatewayReport,
    pub max_depth: usize,
    /// Flush boundaries the replay opened (new ticks and chaos events).
    pub flushes: u64,
}

impl GRun {
    pub fn admit_total_s(&self) -> f64 {
        self.admit_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Rung G: `producers` threads feed the bounded lanes, this thread
/// drains the merge into `Gateway::admit`, chaos events fire by time.
/// The loop is `dsct_gateway::replay_gateway`'s, inlined so the timer
/// (and, when `spans` is given, a span) wraps each call.
pub fn run_gateway(
    built: &Built,
    workers: usize,
    producers: usize,
    mut spans: Option<&mut Spans>,
) -> Res<GRun> {
    let mut cfg = built.cfg;
    cfg.server.replay.workers = workers;
    let mut gateway = Gateway::new(&built.trace.park, built.trace.budget, cfg)?;
    let tasks = &built.trace.tasks;
    let events = &built.plan.events;
    let producers = producers.max(1);
    let (mut queue, handles) = IngressQueue::new(producers, cfg.queue_capacity);
    let chunk = tasks.len().div_ceil(producers).max(1);
    let mut admit_ns = Vec::with_capacity(tasks.len());
    let mut flushes = 0u64;
    let root = spans.as_mut().map(|s| s.enter("rung.G", NO_REQUEST));
    let started = Instant::now();
    let (drained, max_depth) = std::thread::scope(|scope| {
        for (chunk_tasks, producer) in tasks.chunks(chunk).zip(handles) {
            scope.spawn(move || {
                for task in chunk_tasks {
                    if !producer.send(task.clone()) {
                        break;
                    }
                }
            });
        }
        let drained = (|| -> Res<()> {
            let mut next_event = 0usize;
            loop {
                let task = match spans.as_mut() {
                    Some(s) => {
                        let from = s.now_ns();
                        let task = queue.recv()?;
                        let to = s.now_ns();
                        let id = task.as_ref().map_or(NO_REQUEST, |t| t.id);
                        s.record("gateway.queue.recv", id, from, to);
                        task
                    }
                    None => queue.recv()?,
                };
                let Some(task) = task else { break };
                while next_event < events.len() && events[next_event].at <= task.arrival {
                    flushes += u64::from(events[next_event].at > gateway.now() + EPS_TIME);
                    let id = spans
                        .as_mut()
                        .map(|s| s.enter("gateway.apply_event", NO_REQUEST));
                    gateway.apply_event(&events[next_event])?;
                    if let (Some(s), Some(id)) = (spans.as_mut(), id) {
                        s.exit(id);
                    }
                    next_event += 1;
                }
                flushes += u64::from(task.arrival > gateway.now() + EPS_TIME);
                let from = Instant::now();
                black_box(gateway.admit(&task)?);
                let ns = from.elapsed().as_nanos() as u64;
                admit_ns.push(ns);
                if let Some(s) = spans.as_mut() {
                    let to = s.now_ns();
                    s.record("gateway.admit", task.id, to.saturating_sub(ns), to);
                }
            }
            for event in &events[next_event..] {
                flushes += u64::from(event.at > gateway.now() + EPS_TIME);
                gateway.apply_event(event)?;
            }
            Ok(())
        })();
        let max_depth = queue.max_depth();
        // Closes every lane, so a producer blocked on a full one stops.
        drop(queue);
        (drained, max_depth)
    });
    drained?;
    let finish = spans
        .as_mut()
        .map(|s| s.enter("gateway.finish", NO_REQUEST));
    let report = gateway.finish();
    let wall_s = started.elapsed().as_secs_f64();
    if let Some(s) = spans {
        s.exit(finish.expect("entered above"));
        s.exit(root.expect("entered above"));
    }
    Ok(GRun {
        wall_s,
        admit_ns,
        report,
        max_depth,
        flushes,
    })
}

/// The untimed reference every timed replay's digest must equal: the
/// library's own replay loop, one producer, one worker.
pub fn reference_replay(built: &Built) -> Res<GatewayReport> {
    let mut cfg = built.cfg;
    cfg.server.replay.workers = 1;
    Ok(replay_gateway(&built.trace, &cfg, &built.plan, 1)?)
}

/// Correctness checks on one gateway report; failures are recorded in
/// `out`. `reference` is the digest it must equal, when there is one.
pub fn check_report(
    built: &Built,
    report: &GatewayReport,
    reference: Option<&str>,
    label: &str,
    out: &mut RunResult,
) {
    let n = built.trace.tasks.len();
    let core = &report.core;
    if let Some(reference) = reference {
        out.check(report.digest() == reference, || {
            format!("{label}: gateway digest differs from the producers=1, workers=1 replay")
        });
    }
    out.check(core.summary.submitted == n, || {
        format!(
            "{label}: {} of {n} offered tasks were counted",
            core.summary.submitted
        )
    });
    // Every offered id exactly once across shard decisions and quota
    // rejections; retries travel under ids of their own.
    let mut seen = vec![0u8; n];
    let mut strays = 0usize;
    let mut retries = 0usize;
    let offered_ids = core
        .server
        .decisions
        .iter()
        .map(|&(id, _, _)| id)
        .chain(core.rejections.iter().map(|r| r.task));
    for id in offered_ids {
        if id >= RETRY_ID_BASE {
            retries += 1;
        } else if let Some(count) = seen.get_mut(id as usize) {
            *count = count.saturating_add(1);
        } else {
            strays += 1;
        }
    }
    let miscounted = seen.iter().filter(|&&c| c != 1).count();
    out.check(miscounted == 0 && strays == 0, || {
        format!(
            "{label}: {miscounted} offered ids not accounted exactly once, {strays} unknown ids"
        )
    });
    out.check(retries == core.summary.retries_admitted, || {
        format!(
            "{label}: {retries} retry ids reached a shard, summary says {}",
            core.summary.retries_admitted
        )
    });
    let spent = core.server.summary.spent_energy;
    let budget = built.trace.budget;
    out.check(spent <= budget + EPS_ENERGY + 1e-9 * budget, || {
        format!("{label}: spent {spent} J of a {budget} J budget")
    });
}

/// Share of offered tasks the quota gate turned away at first offer;
/// every seed must keep `serve_burst_chaos` inside this band, so the
/// workload is not tuned to one seed.
const BURST_QUOTA_REJECT_BAND: (f64, f64) = (0.03, 0.20);

/// What deterministic reports say about quality, summed over traces.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    pub offered: f64,
    pub realized: f64,
    /// Sum of every offered task's full accuracy.
    pub bound: f64,
    pub dispatched: f64,
    /// Solver evaluations of every cell that ran (`OnlineSummary::solves`).
    pub solves: usize,
    /// Re-plans those cells adopted (`OnlineSummary::replans`).
    pub replans: usize,
}

impl Quality {
    pub fn add(&mut self, other: &Quality) {
        self.offered += other.offered;
        self.realized += other.realized;
        self.bound += other.bound;
        self.dispatched += other.dispatched;
        self.solves += other.solves;
        self.replans += other.replans;
    }

    /// The quality metrics. Regret is taken against every task at full
    /// accuracy: the clairvoyant FR-OPT optimum is a tighter bound, but
    /// its solve time is chaotic in the instance (0.02 s to 3 s for
    /// 1000-task windows of these traces), which no run with a time
    /// limit can afford.
    pub fn put(&self, traces: usize, out: &mut RunResult) {
        let note = format!("{traces} trace(s)");
        out.put_noted("mean_accuracy", self.realized / self.offered, None, note);
        let note = format!("vs every task at full accuracy, {traces} trace(s)");
        let gap = (self.bound - self.realized) / self.offered;
        out.put_noted("opt_gap", gap, None, note.clone());
        out.put_noted("regret", 1.0 - self.realized / self.bound, None, note);
        let note = format!("dispatched / offered, {traces} trace(s)");
        out.put_noted("served_share", self.dispatched / self.offered, None, note);
    }
}

/// The summaries of every cell that ran: those alive at the finish and
/// the incarnations a recovery archived.
pub fn cells_run(server: &ServerReport) -> impl Iterator<Item = &OnlineSummary> {
    let archived = server.archived.iter().map(|a| &a.summary);
    server.shard_summaries.iter().chain(archived)
}

/// Quality of one report, with the shape checks every seed must pass.
pub fn quality_of(
    spec: &ServeSpec,
    built: &Built,
    report: &GatewayReport,
    label: &str,
    out: &mut RunResult,
) -> Quality {
    let offered = built.trace.tasks.len() as f64;
    let server = &report.core.server;
    let realized = server.summary.total_accuracy;
    let bound: f64 = built.trace.tasks.iter().map(|t| t.accuracy.a_max()).sum();
    out.check(realized <= bound + 1e-6 * bound, || {
        format!("{label}: realized accuracy {realized} exceeds the sum of a_max {bound}")
    });
    let dispatched = server.summary.dispatched as f64;
    out.check(dispatched <= offered, || {
        format!("{label}: {dispatched} dispatches of {offered} offered tasks")
    });
    let rejected_share = report.core.summary.quota_rejected as f64 / offered;
    if spec.burst.is_some() {
        let (lo, hi) = BURST_QUOTA_REJECT_BAND;
        out.check((lo..=hi).contains(&rejected_share), || {
            format!("{label}: quota rejected {rejected_share:.4} of offers, outside [{lo}, {hi}]")
        });
    } else {
        out.check(rejected_share == 0.0, || {
            format!("{label}: the generous quota rejected {rejected_share:.4} of offers")
        });
    }
    let (mut solves, mut replans) = (0, 0);
    for cell in cells_run(server) {
        solves += cell.solves;
        replans += cell.replans;
    }
    Quality {
        offered,
        realized,
        bound,
        dispatched,
        solves,
        replans,
    }
}

/// Builds the inputs and the system under test once; returns the build
/// and the seconds it took.
pub fn timed_build(spec: &ServeSpec, seed: u64) -> Res<(Built, f64)> {
    let from = Instant::now();
    let built = build(spec, seed)?;
    let gateway = Gateway::new(&built.trace.park, built.trace.budget, built.cfg)?;
    black_box(&gateway);
    drop(gateway);
    Ok((built, from.elapsed().as_secs_f64()))
}

/// Traces whose reports define the quality metrics. Every run replays
/// at least these, so the metrics repeat bit for bit however many more
/// traces the time allows.
const QUALITY_TRACES: usize = 3;

/// Seed of a run's `index`-th trace; the first is the run's own seed.
fn trace_seed(seed: u64, index: usize) -> u64 {
    if index == 0 {
        seed
    } else {
        derive_seed(seed, index as u64)
    }
}

/// The untraced run: every end-to-end metric of one serve workload.
///
/// Every timed replay is of a different trace of the workload (the
/// run's seed, then seeds derived from it), so a median over replays is
/// a property of the workload and not of one trace: with one trace
/// replayed five times, `serve_overload`'s p99 moved 21% and its
/// throughput 11% between ten seeds. The first trace is also replayed
/// untimed with one producer and one worker, and its timed replay's
/// digest must equal that one's.
pub fn run_timed(spec: &ServeSpec, seed: u64, seconds: f64, host: &Fingerprint) -> Res<RunResult> {
    let mut out = RunResult::default();
    let mut setups = Vec::new();
    // Set-up is cheap next to a replay; sample it until it is steady.
    let mut built = loop {
        let (built, s) = timed_build(spec, seed)?;
        setups.push(s);
        if setups.len() >= 15 || (setups.len() >= 5 && setups.iter().sum::<f64>() >= 0.5) {
            break built;
        }
    };

    // Doubles as the warm-up replay.
    let reference = reference_replay(&built)?;
    let reference_digest = reference.digest();
    check_report(&built, &reference, None, "reference", &mut out);
    drop(reference);

    let offered = built.trace.tasks.len();
    let tail = highest_supported_percentile(offered, 99.0);
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut per_solve, mut per_replan) = (Vec::new(), Vec::new());
    let mut quality = Quality::default();
    let mut measured = 0.0;
    let mut index = 0usize;
    while measured < seconds || index < QUALITY_TRACES {
        if index > 0 {
            let (next, s) = timed_build(spec, trace_seed(seed, index))?;
            setups.push(s);
            built = next;
        }
        let label = format!("timed replay {index}");
        let run = match run_gateway(&built, 0, host.producers, None) {
            Ok(run) => run,
            Err(e) => {
                out.attempted += offered as u64;
                out.failed += 1;
                out.gate(format!("{label}: {e}"));
                break;
            }
        };
        measured += run.wall_s;
        out.attempted += run.admit_ns.len() as u64;
        rates.push(offered as f64 / run.wall_s);
        let mut us: Vec<f64> = run.admit_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        us.sort_by(f64::total_cmp);
        p50s.push(percentile(&us, 50.0));
        p99s.push(percentile(&us, tail));
        let reference = (index == 0).then_some(reference_digest.as_str());
        check_report(&built, &run.report, reference, &label, &mut out);
        let q = quality_of(spec, &built, &run.report, &label, &mut out);
        let admit_s = run.admit_total_s();
        per_solve.push(admit_s / q.solves.max(1) as f64);
        per_replan.push(admit_s / q.replans.max(1) as f64);
        if index < QUALITY_TRACES {
            quality.add(&q);
        }
        index += 1;
    }
    let setup = summarize(&setups);
    out.put_noted(
        "setup_s",
        setup.median,
        Some(setup),
        "generate + Gateway::new".into(),
    );
    if index < QUALITY_TRACES {
        return Ok(out);
    }
    quality.put(QUALITY_TRACES, &mut out);
    // Every timing is the midmean over the replays: a replay the host
    // slowed is dropped like an outlier, and (traces differ in how deep
    // their pools run) five per-trace p99s that lie far apart do not
    // make the result jump when two of them swap places.
    let rate = summarize(&rates);
    let note = format!("{offered} tasks per replay, one replay each of {index} traces");
    out.put_noted("arrivals_per_s", rate.midmean, Some(rate), note);
    let p50 = summarize(&p50s);
    let note = format!("p50 of each replay's {offered} admits");
    out.put_noted("admit_p50_us", p50.midmean, Some(p50), note);
    let p99 = summarize(&p99s);
    let note = format!("p{tail} of each replay's {offered} admits");
    out.put_noted("admit_p99_us", p99.midmean, Some(p99), note);
    // The solver metrics' serving reading: what the consumer pays, all
    // layers included, per adopted re-plan and per solver evaluation.
    let replan = summarize(&per_replan);
    let note = "admit time / adopted re-plans (OnlineSummary::replans)".to_string();
    out.put_noted("fr_solve_s", replan.midmean, Some(replan), note);
    let solve = summarize(&per_solve);
    let note = "admit time / solver evaluations (OnlineSummary::solves)".to_string();
    out.put_noted("approx_solve_s", solve.midmean, Some(solve), note);
    Ok(out)
}

//! A day in the life of the online scheduling service: inference
//! requests stream into a small GPU cluster, each arrival triggers a
//! warm-started rolling-horizon re-plan, the admission controller turns
//! away work that would not pay for itself, and the energy ledger keeps
//! the whole day under a fixed joule budget.
//!
//! The run is narrated step by step — watch the ledger drain as
//! dispatches commit and settle — and ends with the regret against the
//! clairvoyant offline bound: what an oracle that knew every arrival at
//! `t = 0` could have achieved with the same energy.
//!
//! ```sh
//! cargo run --release --example online_service
//! ```

use dsct_ea::prelude::*;

fn main() {
    // A 3-machine park with mixed speed/efficiency, a Poisson stream of
    // 30 compressible requests at load factor 1.2 (offered uncompressed
    // work slightly exceeds what the park can process), and an energy
    // budget at half of what serving everything in full would need.
    let cfg = ArrivalConfig {
        tasks: TaskConfig::paper(30, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
        machines: MachineConfig::paper_random(3),
        load: 1.2,
        deadline_slack: 2.0,
        beta: 0.5,
    };
    let trace = generate_arrivals(&cfg, 2024).expect("valid arrival config");
    println!(
        "Trace: {} arrivals over {:.2} ms on {} machines, budget {:.1} J\n",
        trace.tasks.len(),
        1e3 * trace.tasks.last().map(|t| t.arrival).unwrap_or(0.0),
        trace.park.len(),
        trace.budget
    );

    // Serve the stream with the DegradeToFit controller: a request is
    // admitted only when the re-planned total accuracy rises by more
    // than the zero-work floor the request realizes anyway on rejection.
    let ocfg = OnlineConfig {
        policy: AdmissionPolicy::DegradeToFit,
        ..OnlineConfig::default()
    };
    let mut svc = OnlineService::new(trace.park.clone(), trace.budget, ocfg)
        .expect("zero jitter is a valid execution config");

    for task in &trace.tasks {
        let decision = svc.try_submit(task).expect("trace arrivals are valid");
        let ledger = svc.ledger();
        println!(
            "t={:7.3} ms  task {:>2} (deadline {:7.3} ms)  {:8}  \
             ledger: spent {:5.2} J, in-flight {:5.2} J, free {:5.2} J",
            1e3 * task.arrival,
            task.id,
            1e3 * task.deadline,
            match decision {
                Decision::Admitted => "admitted",
                Decision::Rejected => "REJECTED",
            },
            ledger.spent(),
            ledger.committed(),
            ledger.remaining(),
        );
    }

    let report = svc.finish();
    let s = &report.summary;
    println!(
        "\nDone: {}/{} admitted ({} rejected, {} expired, {} starved), \
         {} dispatched over {} re-plans ({} solver calls).",
        s.admitted, s.arrivals, s.rejected, s.expired, s.starved, s.dispatched, s.replans, s.solves
    );
    println!(
        "Energy: {:.2} J spent of {:.1} J budget; makespan {:.3} ms.",
        s.spent_energy,
        s.budget,
        1e3 * s.makespan
    );

    // How much did not knowing the future cost? Compare against FR-OPT
    // on the clairvoyant instance (every task known at t = 0 with its
    // absolute deadline) — an upper bound no online policy can beat.
    let clairvoyant = FrOptSolver::new()
        .solve_typed(&trace.clairvoyant_instance())
        .total_accuracy;
    println!(
        "\nTotal accuracy {:.3} vs clairvoyant FR-OPT bound {:.3} — regret {:.1}%.",
        s.total_accuracy,
        clairvoyant,
        100.0 * (1.0 - s.total_accuracy / clairvoyant)
    );
}

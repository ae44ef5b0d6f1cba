//! Edge deployment with strict deadlines: why the naive energy profile is
//! not enough (the paper's Fig. 6b mechanism, end to end).
//!
//! An edge site runs a slow-but-efficient accelerator next to a fast,
//! less-efficient GPU. The earliest requests are the most valuable
//! (steepest accuracy curves) but their deadlines are so tight that the
//! efficient machine alone cannot serve them — the optimal energy profile
//! must shift budget onto the "worse" machine. We show the naive profile,
//! the refined profile, and the accuracy each achieves.
//!
//! ```sh
//! cargo run --release --example edge_energy_cap
//! ```

use dsct_ea::core::algo_naive::compute_naive_solution;
use dsct_ea::core::profile::naive_profile;
use dsct_ea::machines::catalog::fig6_two_machine_park;
use dsct_ea::prelude::*;

fn main() {
    // The paper's Fig. 6 machines: machine 0 = 2 TFLOPS @ 80 GFLOPS/W
    // (25 W), machine 1 = 5 TFLOPS @ 70 GFLOPS/W (≈ 71 W).
    let park = fig6_two_machine_park();

    // Earliest-High-Efficient workload: first 30% of requests have steep
    // accuracy curves and very tight deadlines.
    let cfg = InstanceConfig {
        tasks: TaskConfig::paper(
            40,
            ThetaDistribution::EarlySplit {
                fraction: 0.3,
                early: (4.0, 4.9),
                late: (0.1, 1.0),
            },
        ),
        machines: MachineConfig::Explicit(park.machines().to_vec()),
        rho: 0.01, // very strict deadlines
        beta: 0.3, // tight energy cap
    };
    let inst = dsct_ea::workload::generate(&cfg, 2024);
    let d_max = inst.d_max();
    println!(
        "edge site: {} requests, horizon {:.3} ms, budget {:.3} J (β = {:.2})",
        inst.num_tasks(),
        d_max * 1e3,
        inst.budget(),
        inst.beta()
    );

    // The optimum under the naive profile alone (Algorithm 2, no
    // refinement), then the full solve.
    let naive = naive_profile(&inst);
    let naive_accuracy = compute_naive_solution(&inst, &naive)
        .schedule
        .total_accuracy(&inst);
    let refined = FrOptSolver::new().solve_typed(&inst);

    println!("\nenergy profile (fraction of the horizon each machine is busy):");
    println!("{:<28} {:>12} {:>12}", "", "machine 0", "machine 1");
    println!(
        "{:<28} {:>12.3} {:>12.3}",
        "naive (efficiency-greedy)",
        naive.cap(0) / d_max,
        naive.cap(1) / d_max,
    );
    println!(
        "{:<28} {:>12.3} {:>12.3}",
        "refined (KKT point)",
        refined.profile[0] / d_max,
        refined.profile[1] / d_max,
    );

    let n = inst.num_tasks() as f64;
    println!("\nmean accuracy:");
    println!("  naive profile only : {:.4}", naive_accuracy / n);
    println!("  refined profile    : {:.4}", refined.total_accuracy / n);
    println!(
        "  refinement gain    : +{:.4} ({:.1}% relative)",
        (refined.total_accuracy - naive_accuracy) / n,
        100.0 * (refined.total_accuracy - naive_accuracy) / naive_accuracy.max(1e-12)
    );

    // The integral schedule a deployment would actually run.
    let approx = ApproxSolver::new().solve_typed(&inst);
    approx
        .schedule
        .validate(&inst, ScheduleKind::Integral)
        .expect("feasible");
    println!(
        "\ndeployable (integral) schedule: mean accuracy {:.4}, energy {:.3} J of {:.3} J",
        approx.total_accuracy / n,
        approx.schedule.energy(&inst),
        inst.budget()
    );
    let served = approx.assignment.iter().flatten().count();
    println!("requests served: {served}/{}", inst.num_tasks());
}

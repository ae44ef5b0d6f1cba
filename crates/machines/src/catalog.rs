//! Static catalog of NVIDIA server-GPU spec points.
//!
//! Reproduces the data behind Fig. 1 of the paper (after Desislavov et al.,
//! "Trends in AI inference energy consumption", *Sustainable Computing*
//! 2023): dense FP16 tensor throughput and TDP for successive generations
//! of NVIDIA data-center GPUs, from which the efficiency-vs-speed trend is
//! derived. Values are public spec-sheet numbers (dense, no sparsity).

use crate::Machine;
use serde::Serialize;

/// One GPU spec point.
///
/// Serialize-only: the catalog is static data referencing `&'static str`
/// names, which cannot be materialized by deserialization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Launch year.
    pub year: u32,
    /// Dense FP16 (tensor where available) throughput in TFLOPS.
    pub fp16_tflops: f64,
    /// Board TDP in watts.
    pub tdp_watts: f64,
}

impl GpuSpec {
    /// Speed in GFLOP/s.
    #[inline]
    pub fn speed_gflops(&self) -> f64 {
        self.fp16_tflops * 1000.0
    }

    /// Energy efficiency in GFLOPS/W.
    #[inline]
    pub fn efficiency(&self) -> f64 {
        self.speed_gflops() / self.tdp_watts
    }

    /// Converts the spec point into a scheduler [`Machine`].
    pub fn machine(&self) -> Machine {
        Machine::new(self.speed_gflops(), self.tdp_watts)
            .expect("catalog entries are positive and finite")
    }
}

/// NVIDIA data-center GPUs, Kepler through Hopper, plus the workstation
/// RTX A2000 used in the paper's testbed.
pub const NVIDIA_SERVER_GPUS: [GpuSpec; 18] = [
    GpuSpec {
        name: "Tesla K80",
        year: 2014,
        fp16_tflops: 8.74,
        tdp_watts: 300.0,
    },
    GpuSpec {
        name: "Tesla M40",
        year: 2015,
        fp16_tflops: 7.0,
        tdp_watts: 250.0,
    },
    GpuSpec {
        name: "Tesla P4",
        year: 2016,
        fp16_tflops: 5.5,
        tdp_watts: 75.0,
    },
    GpuSpec {
        name: "Tesla P40",
        year: 2016,
        fp16_tflops: 12.0,
        tdp_watts: 250.0,
    },
    GpuSpec {
        name: "Tesla P100",
        year: 2016,
        fp16_tflops: 21.2,
        tdp_watts: 300.0,
    },
    GpuSpec {
        name: "Tesla V100",
        year: 2017,
        fp16_tflops: 125.0,
        tdp_watts: 300.0,
    },
    GpuSpec {
        name: "Tesla T4",
        year: 2018,
        fp16_tflops: 65.0,
        tdp_watts: 70.0,
    },
    GpuSpec {
        name: "Quadro RTX 8000",
        year: 2018,
        fp16_tflops: 130.5,
        tdp_watts: 295.0,
    },
    GpuSpec {
        name: "A2",
        year: 2021,
        fp16_tflops: 18.0,
        tdp_watts: 60.0,
    },
    GpuSpec {
        name: "A10",
        year: 2021,
        fp16_tflops: 125.0,
        tdp_watts: 150.0,
    },
    GpuSpec {
        name: "A30",
        year: 2021,
        fp16_tflops: 165.0,
        tdp_watts: 165.0,
    },
    GpuSpec {
        name: "A40",
        year: 2021,
        fp16_tflops: 149.7,
        tdp_watts: 300.0,
    },
    GpuSpec {
        name: "A100 40GB",
        year: 2020,
        fp16_tflops: 312.0,
        tdp_watts: 400.0,
    },
    GpuSpec {
        name: "A100 80GB",
        year: 2021,
        fp16_tflops: 312.0,
        tdp_watts: 400.0,
    },
    GpuSpec {
        name: "L4",
        year: 2023,
        fp16_tflops: 121.0,
        tdp_watts: 72.0,
    },
    GpuSpec {
        name: "L40",
        year: 2022,
        fp16_tflops: 181.0,
        tdp_watts: 300.0,
    },
    GpuSpec {
        name: "H100 PCIe",
        year: 2022,
        fp16_tflops: 756.0,
        tdp_watts: 350.0,
    },
    GpuSpec {
        name: "RTX A2000",
        year: 2021,
        fp16_tflops: 63.9,
        tdp_watts: 70.0,
    },
];

/// Ordinary least-squares fit of efficiency (GFLOPS/W) against speed
/// (TFLOPS) over a set of spec points: `efficiency ≈ slope · tflops +
/// intercept`. Returns `(slope, intercept, r2)`.
///
/// Fig. 1's observation is that efficiency improves roughly linearly with
/// hardware speed; the catalog reproduces a clearly positive slope.
pub fn efficiency_speed_trend(specs: &[GpuSpec]) -> (f64, f64, f64) {
    assert!(specs.len() >= 2, "need at least two points for a trend");
    let n = specs.len() as f64;
    let xs: Vec<f64> = specs.iter().map(|s| s.fp16_tflops).collect();
    let ys: Vec<f64> = specs.iter().map(|s| s.efficiency()).collect();
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy > 0.0 {
        (sxy * sxy) / (sxx * syy)
    } else {
        1.0
    };
    (slope, intercept, r2)
}

/// The park used in the paper's Fig. 6 workload-balancing study: machine 1
/// is slower but more energy efficient (2 TFLOPS, 80 GFLOPS/W) than machine
/// 2 (5 TFLOPS, 70 GFLOPS/W).
pub fn fig6_two_machine_park() -> crate::MachinePark {
    crate::MachinePark::new(vec![
        Machine::from_efficiency(2000.0, 80.0).expect("valid"),
        Machine::from_efficiency(5000.0, 70.0).expect("valid"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_entries_are_valid_machines() {
        for spec in NVIDIA_SERVER_GPUS {
            let m = spec.machine();
            assert!(m.speed() > 0.0, "{}", spec.name);
            assert!(m.efficiency() > 0.0, "{}", spec.name);
        }
    }

    #[test]
    fn efficiency_improves_with_speed() {
        let (slope, _intercept, r2) = efficiency_speed_trend(&NVIDIA_SERVER_GPUS);
        assert!(slope > 0.0, "Fig. 1 trend: efficiency grows with speed");
        assert!(r2 > 0.5, "trend should explain most variance, r2 = {r2}");
    }

    #[test]
    fn generational_efficiency_ordering() {
        let efficiency = |name: &str| {
            NVIDIA_SERVER_GPUS
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} is in the catalog"))
                .efficiency()
        };
        // Each generation is more efficient than Kepler.
        let k80 = efficiency("Tesla K80");
        for name in ["Tesla V100", "A100 40GB", "H100 PCIe", "L4"] {
            assert!(efficiency(name) > k80, "{name}");
        }
        // Hopper beats Ampere flagship.
        assert!(efficiency("H100 PCIe") > efficiency("A100 80GB"));
    }

    #[test]
    fn fig6_park_matches_paper() {
        let p = fig6_two_machine_park();
        assert_eq!(p.len(), 2);
        assert!((p[0].speed() - 2000.0).abs() < 1e-9);
        assert!((p[0].efficiency() - 80.0).abs() < 1e-9);
        assert!((p[1].speed() - 5000.0).abs() < 1e-9);
        assert!((p[1].efficiency() - 70.0).abs() < 1e-9);
        assert!(p[0].efficiency() > p[1].efficiency());
        assert!(p[0].speed() < p[1].speed());
    }

    #[test]
    fn trend_on_two_points_is_exact() {
        let specs = [
            GpuSpec {
                name: "a",
                year: 2000,
                fp16_tflops: 1.0,
                tdp_watts: 100.0,
            },
            GpuSpec {
                name: "b",
                year: 2001,
                fp16_tflops: 2.0,
                tdp_watts: 100.0,
            },
        ];
        let (slope, intercept, r2) = efficiency_speed_trend(&specs);
        // efficiencies: 10 and 20 GFLOPS/W at 1 and 2 TFLOPS.
        assert!((slope - 10.0).abs() < 1e-9);
        assert!((intercept - 0.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-12);
    }
}

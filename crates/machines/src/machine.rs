use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced when constructing machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MachineError {
    /// Speed must be finite and positive (GFLOP/s).
    InvalidSpeed(f64),
    /// Power must be finite and positive (W).
    InvalidPower(f64),
    /// A DVFS machine needs at least one operating point.
    NoOperatingPoints,
    /// A park needs at least one machine.
    EmptyPark,
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::InvalidSpeed(s) => write!(f, "invalid machine speed {s} GFLOP/s"),
            MachineError::InvalidPower(p) => write!(f, "invalid machine power {p} W"),
            MachineError::NoOperatingPoints => {
                write!(f, "a DVFS machine needs at least one operating point")
            }
            MachineError::EmptyPark => write!(f, "a machine park needs at least one machine"),
        }
    }
}

impl std::error::Error for MachineError {}

/// A processing machine (server/GPU) in the DSCT-EA model.
///
/// Characterized by speed `s_r` (GFLOP/s) and power `P_r` (W); the energy
/// efficiency `E_r = s_r / P_r` (GFLOPS/W = GFLOP/J) is derived. Energy to
/// run the machine for `t` seconds is `P_r · t` joules, during which it
/// performs `s_r · t` GFLOP of work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    speed: f64,
    power: f64,
}

impl Machine {
    /// Creates a machine from speed (GFLOP/s) and power (W).
    pub fn new(speed_gflops: f64, power_watts: f64) -> Result<Self, MachineError> {
        if !(speed_gflops.is_finite() && speed_gflops > 0.0) {
            return Err(MachineError::InvalidSpeed(speed_gflops));
        }
        if !(power_watts.is_finite() && power_watts > 0.0) {
            return Err(MachineError::InvalidPower(power_watts));
        }
        Ok(Self {
            speed: speed_gflops,
            power: power_watts,
        })
    }

    /// Creates a machine from speed (GFLOP/s) and energy efficiency
    /// (GFLOPS/W), the parameterization the paper's experiments use.
    pub fn from_efficiency(speed_gflops: f64, efficiency: f64) -> Result<Self, MachineError> {
        if !(efficiency.is_finite() && efficiency > 0.0) {
            return Err(MachineError::InvalidPower(efficiency));
        }
        Self::new(speed_gflops, speed_gflops / efficiency)
    }

    /// Speed `s_r` in GFLOP/s.
    #[inline]
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Power draw `P_r` in watts.
    #[inline]
    pub fn power(&self) -> f64 {
        self.power
    }

    /// Energy efficiency `E_r = s_r / P_r` in GFLOPS/W (= GFLOP/J).
    #[inline]
    pub fn efficiency(&self) -> f64 {
        self.speed / self.power
    }

    /// Energy (J) consumed by running this machine for `t` seconds.
    #[inline]
    pub fn energy_for_time(&self, t: f64) -> f64 {
        self.power * t
    }

    /// Work (GFLOP) performed in `t` seconds.
    #[inline]
    pub fn work_for_time(&self, t: f64) -> f64 {
        self.speed * t
    }

    /// Time (s) needed to perform `f` GFLOP of work.
    #[inline]
    pub fn time_for_work(&self, f: f64) -> f64 {
        f / self.speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Machine::new(0.0, 10.0).is_err());
        assert!(Machine::new(-1.0, 10.0).is_err());
        assert!(Machine::new(f64::NAN, 10.0).is_err());
        assert!(Machine::new(10.0, 0.0).is_err());
        assert!(Machine::new(10.0, f64::INFINITY).is_err());
        assert!(Machine::new(10.0, 10.0).is_ok());
    }

    #[test]
    fn efficiency_parameterization() {
        // 2 TFLOPS at 80 GFLOPS/W → 25 W (the paper's Fig. 6 machine 1).
        let m = Machine::from_efficiency(2000.0, 80.0).unwrap();
        assert!((m.power() - 25.0).abs() < 1e-9);
        assert!((m.efficiency() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn conversions_are_consistent() {
        let m = Machine::new(5000.0, 71.0).unwrap();
        let t = 0.37;
        let f = m.work_for_time(t);
        assert!((m.time_for_work(f) - t).abs() < 1e-12);
        assert!((m.energy_for_time(t) - f / m.efficiency()).abs() < 1e-9);
    }

    #[test]
    fn from_efficiency_rejects_bad_inputs() {
        assert!(Machine::from_efficiency(1000.0, 0.0).is_err());
        assert!(Machine::from_efficiency(1000.0, f64::NAN).is_err());
    }
}

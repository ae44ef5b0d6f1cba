//! DVFS-style machines: a catalog of (speed, power) operating points.
//!
//! Following Agrawal & Rao (*Scheduling Under Power and Energy
//! Constraints*), a speed-scaling machine exposes several discrete
//! operating points — each an ordinary [`Machine`] spec point — and the
//! scheduler picks one per stage. The solvers in `dsct_core::staged`
//! run every stage at the machine's *min-energy-per-work* point (the
//! maximum-efficiency point, `E = s / P`), with ties broken
//! deterministically: higher speed wins, then the lower catalog index.
//! The staged oracle only requires catalog *membership*, so alternative
//! point policies stay verifiable.

use crate::{Machine, MachineError, MachinePark};
use serde::{Deserialize, Serialize};

/// A speed-scaling machine: a non-empty catalog of (speed, power)
/// operating points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsMachine {
    points: Vec<Machine>,
}

impl DvfsMachine {
    /// Builds a machine from its operating-point catalog.
    ///
    /// Errors with [`MachineError::NoOperatingPoints`] on an empty
    /// catalog; the points themselves were validated at construction.
    pub fn new(points: Vec<Machine>) -> Result<Self, MachineError> {
        if points.is_empty() {
            return Err(MachineError::NoOperatingPoints);
        }
        Ok(Self { points })
    }

    /// A fixed-frequency machine: a single operating point (the flat
    /// model's machine, embedded).
    pub fn fixed(point: Machine) -> Self {
        Self {
            points: vec![point],
        }
    }

    /// The operating-point catalog, in construction order.
    #[inline]
    pub fn points(&self) -> &[Machine] {
        &self.points
    }

    /// Number of operating points.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// The operating point at catalog index `p`, if any.
    #[inline]
    pub fn point(&self, p: usize) -> Option<Machine> {
        self.points.get(p).copied()
    }

    /// Index of the min-energy-per-work operating point: maximum
    /// efficiency `s/P`, ties broken by higher speed, then by the lower
    /// catalog index — all comparisons via `total_cmp`, so the choice is
    /// deterministic for any float inputs.
    pub fn selected_index(&self) -> usize {
        let mut best = 0usize;
        for (p, cand) in self.points.iter().enumerate().skip(1) {
            let cur = &self.points[best];
            let by_eff = cand.efficiency().total_cmp(&cur.efficiency());
            let by_speed = cand.speed().total_cmp(&cur.speed());
            if by_eff.then(by_speed).is_gt() {
                best = p;
            }
        }
        best
    }

    /// The min-energy-per-work operating point itself.
    #[inline]
    pub fn selected(&self) -> Machine {
        self.points[self.selected_index()]
    }

    /// Whether the catalog contains a point with exactly these
    /// (bit-equal) speed and power values.
    pub fn contains(&self, speed: f64, power: f64) -> bool {
        self.points.iter().any(|m| {
            m.speed().to_bits() == speed.to_bits() && m.power().to_bits() == power.to_bits()
        })
    }

    /// Whether point `p` is dominated: some other point is at least as
    /// fast *and* at least as efficient (strictly better in one, or
    /// equal on both and earlier in the catalog). A dominated point is
    /// never selected, so adding one cannot change any solution.
    pub fn is_dominated(&self, p: usize) -> bool {
        let target = &self.points[p];
        self.points.iter().enumerate().any(|(q, other)| {
            if q == p {
                return false;
            }
            let speed = other.speed().total_cmp(&target.speed());
            let eff = other.efficiency().total_cmp(&target.efficiency());
            if speed.is_lt() || eff.is_lt() {
                return false;
            }
            speed.is_gt() || eff.is_gt() || q < p
        })
    }
}

/// A park of speed-scaling machines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsPark {
    machines: Vec<DvfsMachine>,
}

impl DvfsPark {
    /// Builds a park; errors with [`MachineError::EmptyPark`] when no
    /// machines are supplied (unlike [`MachinePark::new`], which panics —
    /// staged instances are often built from untrusted corpus files).
    pub fn new(machines: Vec<DvfsMachine>) -> Result<Self, MachineError> {
        if machines.is_empty() {
            return Err(MachineError::EmptyPark);
        }
        Ok(Self { machines })
    }

    /// Embeds a flat park: every machine becomes a single-point catalog.
    pub fn from_park(park: &MachinePark) -> Self {
        Self {
            machines: park
                .machines()
                .iter()
                .copied()
                .map(DvfsMachine::fixed)
                .collect(),
        }
    }

    /// Number of machines.
    #[inline]
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the park is empty (never true for a constructed park).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// The machines in park order.
    #[inline]
    pub fn machines(&self) -> &[DvfsMachine] {
        &self.machines
    }

    /// Machine `r`, if any.
    #[inline]
    pub fn get(&self, r: usize) -> Option<&DvfsMachine> {
        self.machines.get(r)
    }

    /// The flat park formed by each machine's selected (min-energy-
    /// per-work) operating point — the lowering the staged solvers run
    /// the flat algorithms on.
    pub fn selected_park(&self) -> MachinePark {
        MachinePark::new(self.machines.iter().map(DvfsMachine::selected).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(speed: f64, power: f64) -> Machine {
        Machine::new(speed, power).unwrap()
    }

    #[test]
    fn empty_catalog_is_rejected() {
        assert_eq!(
            DvfsMachine::new(vec![]),
            Err(MachineError::NoOperatingPoints)
        );
        assert_eq!(DvfsPark::new(vec![]), Err(MachineError::EmptyPark));
    }

    #[test]
    fn selection_maximizes_efficiency() {
        // Efficiencies: 20, 50, 25 → index 1.
        let m = DvfsMachine::new(vec![
            pt(2000.0, 100.0),
            pt(5000.0, 100.0),
            pt(2500.0, 100.0),
        ])
        .unwrap();
        assert_eq!(m.selected_index(), 1);
        assert_eq!(m.selected(), pt(5000.0, 100.0));
    }

    #[test]
    fn efficiency_ties_break_by_speed_then_index() {
        // Same efficiency (10), speeds 1000 < 2000: faster wins.
        let m = DvfsMachine::new(vec![pt(1000.0, 100.0), pt(2000.0, 200.0)]).unwrap();
        assert_eq!(m.selected_index(), 1);
        // Bit-identical points: the first catalog entry wins.
        let m = DvfsMachine::new(vec![pt(1000.0, 100.0), pt(1000.0, 100.0)]).unwrap();
        assert_eq!(m.selected_index(), 0);
    }

    #[test]
    fn dominated_points_are_never_selected() {
        let m = DvfsMachine::new(vec![
            pt(5000.0, 100.0), // eff 50
            pt(4000.0, 100.0), // slower, same power: dominated
            pt(5000.0, 120.0), // same speed, more power: dominated
        ])
        .unwrap();
        assert!(!m.is_dominated(0));
        assert!(m.is_dominated(1));
        assert!(m.is_dominated(2));
        assert_eq!(m.selected_index(), 0);
        // A faster-but-hungrier point is NOT dominated, yet still loses
        // the min-energy-per-work selection.
        let m = DvfsMachine::new(vec![pt(5000.0, 100.0), pt(8000.0, 400.0)]).unwrap();
        assert!(!m.is_dominated(1));
        assert_eq!(m.selected_index(), 0);
    }

    #[test]
    fn catalog_membership_is_bit_exact() {
        let m = DvfsMachine::new(vec![pt(5000.0, 100.0)]).unwrap();
        assert!(m.contains(5000.0, 100.0));
        assert!(!m.contains(5000.0, 100.0 + 1e-12));
        assert!(!m.contains(4999.0, 100.0));
    }

    #[test]
    fn park_lowering_picks_selected_points() {
        let park = DvfsPark::new(vec![
            DvfsMachine::new(vec![pt(2000.0, 25.0), pt(3000.0, 200.0)]).unwrap(),
            DvfsMachine::fixed(pt(5000.0, 70.0)),
        ])
        .unwrap();
        let flat = park.selected_park();
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.get(0), pt(2000.0, 25.0));
        assert_eq!(flat.get(1), pt(5000.0, 70.0));
    }

    #[test]
    fn from_park_round_trips() {
        let flat = MachinePark::new(vec![pt(2000.0, 25.0), pt(5000.0, 70.0)]);
        let dvfs = DvfsPark::from_park(&flat);
        assert_eq!(dvfs.len(), 2);
        assert_eq!(dvfs.selected_park(), flat);
    }
}

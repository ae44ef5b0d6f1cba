use crate::Machine;
use serde::{Deserialize, Serialize};

/// An ordered collection of machines (the paper's set `M`).
///
/// The paper indexes machines by non-decreasing energy efficiency
/// (`r < r'` iff `E_r < E_{r'}`); [`MachinePark::by_efficiency_desc`]
/// gives the reverse of that order. The park also exposes the aggregate
/// quantities the experiments use (total speed, total power).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachinePark {
    machines: Vec<Machine>,
}

impl MachinePark {
    /// Wraps a non-empty list of machines.
    ///
    /// # Panics
    /// Panics when `machines` is empty — a park with no machines cannot
    /// schedule anything and always indicates a caller bug.
    pub fn new(machines: Vec<Machine>) -> Self {
        assert!(!machines.is_empty(), "machine park must not be empty");
        Self { machines }
    }

    /// Number of machines `m`.
    #[inline]
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the park is empty (never true for a constructed park).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// The machines, in insertion order.
    #[inline]
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// Machine at index `r`.
    #[inline]
    pub fn get(&self, r: usize) -> Machine {
        self.machines[r]
    }

    /// Aggregate speed `Σ_r s_r` (GFLOP/s).
    pub fn total_speed(&self) -> f64 {
        self.machines.iter().map(Machine::speed).sum()
    }

    /// Aggregate power `Σ_r P_r` (W).
    pub fn total_power(&self) -> f64 {
        self.machines.iter().map(Machine::power).sum()
    }

    /// Indices of machines sorted by **non-increasing** energy efficiency
    /// (most efficient first) — the order the naive energy profile fills
    /// machines in. Ties break by lower index for determinism.
    pub fn by_efficiency_desc(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.machines.len()).collect();
        // total_cmp: `Machine::new` validates speed and power, but the
        // ordering itself must never panic or destabilise on an
        // adversarial float that slips through a future constructor.
        idx.sort_by(|&a, &b| {
            self.machines[b]
                .efficiency()
                .total_cmp(&self.machines[a].efficiency())
                .then(a.cmp(&b))
        });
        idx
    }

    /// Index of the least efficient machine among `subset`, or `None` when
    /// the subset is empty. Ties break by lower index.
    pub fn least_efficient_in(&self, subset: &[usize]) -> Option<usize> {
        subset.iter().copied().min_by(|&a, &b| {
            self.machines[a]
                .efficiency()
                .total_cmp(&self.machines[b].efficiency())
                .then(a.cmp(&b))
        })
    }
}

impl From<Vec<Machine>> for MachinePark {
    fn from(machines: Vec<Machine>) -> Self {
        Self::new(machines)
    }
}

impl std::ops::Index<usize> for MachinePark {
    type Output = Machine;
    fn index(&self, r: usize) -> &Machine {
        &self.machines[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn park() -> MachinePark {
        MachinePark::new(vec![
            Machine::from_efficiency(5000.0, 70.0).unwrap(),
            Machine::from_efficiency(2000.0, 80.0).unwrap(),
            Machine::from_efficiency(1000.0, 20.0).unwrap(),
        ])
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_park_panics() {
        MachinePark::new(vec![]);
    }

    #[test]
    fn aggregates() {
        let p = park();
        assert_eq!(p.len(), 3);
        assert!((p.total_speed() - 8000.0).abs() < 1e-9);
        let expected_power = 5000.0 / 70.0 + 25.0 + 50.0;
        assert!((p.total_power() - expected_power).abs() < 1e-9);
    }

    #[test]
    fn efficiency_orderings() {
        let p = park();
        assert_eq!(p.by_efficiency_desc(), vec![1, 0, 2]);
    }

    #[test]
    fn least_efficient_in_subset() {
        let p = park();
        assert_eq!(p.least_efficient_in(&[0, 1, 2]), Some(2));
        assert_eq!(p.least_efficient_in(&[0, 1]), Some(0));
        assert_eq!(p.least_efficient_in(&[]), None);
    }

    #[test]
    fn ties_break_by_index() {
        let m = Machine::from_efficiency(1000.0, 30.0).unwrap();
        let p = MachinePark::new(vec![m, m]);
        assert_eq!(p.by_efficiency_desc(), vec![0, 1]);
        assert_eq!(p.least_efficient_in(&[1, 0]), Some(0));
    }
}

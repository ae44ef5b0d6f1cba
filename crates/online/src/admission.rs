//! Admission control: pluggable policies deciding whether an arriving
//! task enters the pending pool.
//!
//! The gated policies are *value-based*: decisions depend only on the
//! total planned accuracy of tentative re-solves (with and without the
//! candidate), never on schedule structure. That keeps a decision
//! independent of where a re-solve starts — a warm-started solve and a
//! cold one may land on different-but-equal-value optima, and a
//! structural criterion would diverge where a value criterion does not.

use serde::{Deserialize, Serialize};

/// Slack absorbing the (tiny) value drift between warm-started and cold
/// re-solves, so borderline-free comparisons decide identically from
/// either start.
pub(crate) const EPS_ADMIT: f64 = 1e-6;

/// Admission policy of an [`crate::OnlineService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Admit every arrival unconditionally. A task may still end up with
    /// zero work if the re-plans never allocate it any (it then realizes
    /// its zero-work accuracy, like an offline drop).
    #[default]
    AdmitAll,
    /// Admit only when the candidate gets real service *and* the planned
    /// total accuracy of the already-admitted tasks does not decrease:
    /// `V_others(with) >= V_pool(without) − ε` and
    /// `V_cand(with) >= a_min_cand + ε`. Protects the service level of
    /// admitted tasks; a new task never cannibalizes them.
    RejectIfInfeasible,
    /// Admit whenever doing so improves the *net* planned accuracy:
    /// `V(with) >= V(without) + a_min_cand + ε` — the candidate must buy
    /// more than the zero-work floor it realizes anyway on rejection.
    /// Admitted tasks may be compressed down their concave PWL curves to
    /// make room; by concavity the marginal accuracy they give up is the
    /// cheapest available.
    DegradeToFit,
}

/// The admission outcome for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// The task entered the pending pool.
    Admitted,
    /// The task was turned away; it realizes its zero-work accuracy.
    Rejected,
}

impl AdmissionPolicy {
    /// Applies the policy's value test.
    ///
    /// * `baseline` — total planned accuracy of the pool *without* the
    ///   candidate, solved at the current time;
    /// * `tentative` — total planned accuracy *with* the candidate;
    /// * `tentative_cand` — the candidate's own planned accuracy inside
    ///   the tentative solution;
    /// * `cand_floor` — the candidate's zero-work accuracy `a_j(0)`.
    pub(crate) fn decide(
        &self,
        baseline: f64,
        tentative: f64,
        tentative_cand: f64,
        cand_floor: f64,
    ) -> Decision {
        match self {
            AdmissionPolicy::AdmitAll => Decision::Admitted,
            AdmissionPolicy::RejectIfInfeasible => {
                let others = tentative - tentative_cand;
                if tentative_cand >= cand_floor + EPS_ADMIT && others >= baseline - EPS_ADMIT {
                    Decision::Admitted
                } else {
                    Decision::Rejected
                }
            }
            AdmissionPolicy::DegradeToFit => {
                if tentative >= baseline + cand_floor + EPS_ADMIT {
                    Decision::Admitted
                } else {
                    Decision::Rejected
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_all_ignores_values() {
        assert_eq!(
            AdmissionPolicy::AdmitAll.decide(10.0, 0.0, 0.0, 0.5),
            Decision::Admitted
        );
    }

    #[test]
    fn reject_if_infeasible_protects_the_pool() {
        let p = AdmissionPolicy::RejectIfInfeasible;
        // Candidate served, others intact: admit.
        assert_eq!(p.decide(5.0, 5.7, 0.7, 0.0), Decision::Admitted);
        // Candidate served but others lose 0.3: reject.
        assert_eq!(p.decide(5.0, 5.4, 0.7, 0.0), Decision::Rejected);
        // Candidate gets only its floor: reject.
        assert_eq!(p.decide(5.0, 5.0, 0.001, 0.001), Decision::Rejected);
    }

    #[test]
    fn degrade_to_fit_admits_on_net_gain() {
        let p = AdmissionPolicy::DegradeToFit;
        // Net gain 0.4 beyond the floor: admit even though others lose.
        assert_eq!(p.decide(5.0, 5.401, 0.9, 0.001), Decision::Admitted);
        // Gain below the floor the task realizes anyway: reject.
        assert_eq!(p.decide(5.0, 5.0005, 0.001, 0.001), Decision::Rejected);
    }
}

//! The adversary a discovery run is subjected to, as the driver sees it.
//!
//! [`Plans`] bundles link and crash faults ([`FaultPlan`]), Byzantine
//! traitors ([`ByzantinePlan`]) and join/leave churn ([`ChurnPlan`],
//! extending the paper's §6 additions with departures). A network built
//! [`under`](crate::DiscoveryOn::under) them derives from them the node
//! configuration, the withheld wake-ups, the survivors and the injecting
//! scheduler. Their grammars, and the schedule metadata a replay reads
//! them back from (the `faults` value included), are in
//! [`spec`](crate::spec).
//!
//! Link faults need the [`Reliable`](crate::Reliable) layer to be
//! survivable; Byzantine and churn plans run on the **bare** protocol.
//! Reliable delivery cannot defend against forged content (the envelope
//! would dutifully ack a lie), and the silence class is precisely a
//! targeted loss the paper's model does not cover; wrapping would only
//! measure the envelope, not the protocol.

use std::collections::BTreeSet;

use ard_netsim::{ByzantinePlan, ChurnPlan, FaultPlan, FaultScheduler, NodeId, Scheduler};

use crate::Config;

/// The plans a run is subjected to; all absent for an honest run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Plans {
    /// Lossy/duplicating links and crash/restart events.
    pub faults: Option<FaultPlan>,
    /// Seeded Byzantine nodes.
    pub byzantine: Option<ByzantinePlan>,
    /// Join/leave membership churn.
    pub churn: Option<ChurnPlan>,
}

impl Plans {
    /// Whether no plan is attached.
    pub fn is_empty(&self) -> bool {
        self.faults.is_none() && self.byzantine.is_none() && self.churn.is_none()
    }

    /// Whether a run under these plans needs every node inside the
    /// [`Reliable`](crate::Reliable) envelope: link faults are survivable
    /// only over the reliable-delivery layer.
    pub fn reliable(&self) -> bool {
        self.faults.is_some()
    }

    /// The node configuration these plans call for: the paper's, hardened
    /// with [`Config::byzantine`] under a Byzantine or churn plan so forged
    /// "impossible" messages are dropped instead of tripping the honest-run
    /// asserts.
    pub(crate) fn config(&self) -> Config {
        if self.byzantine.is_some() || self.churn.is_some() {
            Config::byzantine()
        } else {
            Config::paper()
        }
    }

    /// Wraps `inner` in the scheduler that injects these plans into an
    /// `n`-node run (transparent when no plan is attached).
    pub fn scheduler<S: Scheduler>(&self, inner: S, n: usize) -> FaultScheduler<S> {
        FaultScheduler::new(inner, self.faults.clone())
            .with_byzantine(self.byzantine.clone(), n)
            .with_churn(self.churn.clone(), n)
    }

    /// The churn joiners: their initial wake-ups are withheld, they come
    /// online through the plan's `Join` events (§6's "joining = waking").
    pub(crate) fn withheld(&self, n: usize) -> BTreeSet<NodeId> {
        self.churn
            .iter()
            .flat_map(|c| c.joiners(n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_adversarial_membership_hardens_the_nodes() {
        assert_eq!(Plans::default().config(), Config::paper());
        let lossy = Plans {
            faults: Some(FaultPlan::new(1).with_drop(0.1)),
            ..Plans::default()
        };
        assert_eq!(lossy.config(), Config::paper());
        let churned = Plans {
            churn: Some(ChurnPlan::new(1, 0.1)),
            ..Plans::default()
        };
        assert_eq!(churned.config(), Config::byzantine());
        assert_eq!(churned.withheld(20).len(), 2);
    }
}

use std::fmt;

use ard_netsim::Plans;

/// Which of the paper's three problem variants to run (§1.2, §4.5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Variant {
    /// *Oblivious Resource Discovery*: nodes do not know their component's
    /// size. Runs the full generic algorithm with `conquer` broadcasts after
    /// every merge — `O(n log n)` messages, which Theorem 1 proves optimal.
    #[default]
    Oblivious,
    /// *Bounded Resource Discovery*: every node knows the size of its
    /// weakly connected component. No per-merge broadcasts; the final leader
    /// detects `|done| = n`, broadcasts one `conquer` wave and terminates —
    /// `O(n·α(n,n))` messages (Theorems 4 and 6).
    Bounded,
    /// *Ad-hoc Resource Discovery*: non-leaders only maintain a pointer
    /// path to their leader (requirement 3a/3b); snapshots are pulled on
    /// demand via probes with path compression — `O(n·α(n,n))` messages,
    /// optimal by Theorem 2, and dynamic-addition friendly (§6).
    AdHoc,
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Variant::Oblivious => "oblivious",
            Variant::Bounded => "bounded",
            Variant::AdHoc => "ad-hoc",
        };
        f.write_str(name)
    }
}

impl Variant {
    /// Whether this variant maintains the `unaware` set and broadcasts
    /// `conquer` after every merge (only the generic/Oblivious algorithm
    /// does; the variants of §4.5 drop it).
    pub(crate) fn broadcasts_each_merge(self) -> bool {
        matches!(self, Variant::Oblivious)
    }
}

/// Tuning knobs for the reproduction's ablation experiments. The default
/// configuration is the paper's algorithm; every switch degrades one design
/// choice that DESIGN.md calls out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Config {
    /// Release and probe-reply messages re-point every relay's `next` at the
    /// answering leader (§4.2). Disabling it (ablation A1) loses the
    /// union-find amortization and inflates `search`/`release` traffic.
    pub path_compression: bool,
    /// Queries request only `|more| + |done| + 1` ids (§4.1). Disabling it
    /// (ablation A2) requests everything at once, inflating bit complexity
    /// toward `O(|E₀| log² n)`.
    pub balanced_queries: bool,
    /// Tolerate protocol-impossible messages instead of panicking. The
    /// paper's algorithm treats an unexpected message (a release for a
    /// search never sent, a conqueror absent from `unaware`, …) as a local
    /// bug and asserts; under Byzantine faults such messages are *forged*,
    /// so Byzantine runs set this to drop them instead. Off by default —
    /// honest runs must keep their bug-catching asserts.
    pub byzantine_tolerant: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            path_compression: true,
            balanced_queries: true,
            byzantine_tolerant: false,
        }
    }
}

impl Config {
    /// The paper's algorithm, with every optimization on.
    pub fn paper() -> Self {
        Config::default()
    }

    /// Ablation A1: no path compression on releases/probe replies.
    pub fn without_path_compression() -> Self {
        Config {
            path_compression: false,
            ..Config::default()
        }
    }

    /// Ablation A2: queries fetch the member's whole `local` set at once.
    pub fn without_balanced_queries() -> Self {
        Config {
            balanced_queries: false,
            ..Config::default()
        }
    }

    /// The paper's algorithm hardened for Byzantine runs: impossible
    /// messages are dropped instead of tripping asserts.
    pub fn byzantine() -> Self {
        Config {
            byzantine_tolerant: true,
            ..Config::default()
        }
    }

    /// The configuration a run under `plans` calls for: the paper's,
    /// hardened with [`Config::byzantine`] under a Byzantine or churn plan
    /// so forged "impossible" messages are dropped instead of tripping the
    /// honest-run asserts.
    pub(crate) fn under(plans: &Plans) -> Self {
        if plans.byzantine.is_some() || plans.churn.is_some() {
            Config::byzantine()
        } else {
            Config::paper()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_paper() {
        let c = Config::default();
        assert!(c.path_compression);
        assert!(c.balanced_queries);
        assert!(!c.byzantine_tolerant);
        assert_eq!(Config::paper(), c);
    }

    #[test]
    fn byzantine_config_only_relaxes_asserts() {
        let c = Config::byzantine();
        assert!(c.byzantine_tolerant);
        assert!(c.path_compression && c.balanced_queries);
    }

    #[test]
    fn ablations_flip_one_knob() {
        assert!(!Config::without_path_compression().path_compression);
        assert!(Config::without_path_compression().balanced_queries);
        assert!(!Config::without_balanced_queries().balanced_queries);
        assert!(Config::without_balanced_queries().path_compression);
    }

    #[test]
    fn only_adversarial_membership_hardens_the_nodes() {
        use ard_netsim::{ChurnPlan, FaultPlan};
        assert_eq!(Config::under(&Plans::default()), Config::paper());
        let lossy = Plans {
            faults: Some(FaultPlan::new(1).with_drop(0.1)),
            ..Plans::default()
        };
        assert_eq!(Config::under(&lossy), Config::paper());
        let churned = Plans {
            churn: Some(ChurnPlan::new(1, 0.1)),
            ..Plans::default()
        };
        assert_eq!(Config::under(&churned), Config::byzantine());
        assert_eq!(churned.withheld(20).len(), 2);
    }

    #[test]
    fn only_oblivious_broadcasts() {
        assert!(Variant::Oblivious.broadcasts_each_merge());
        assert!(!Variant::Bounded.broadcasts_each_merge());
        assert!(!Variant::AdHoc.broadcasts_each_merge());
    }

    #[test]
    fn variant_display() {
        assert_eq!(Variant::AdHoc.to_string(), "ad-hoc");
    }
}

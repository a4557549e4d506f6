//! Pluggable question-ordering policies.
//!
//! The paper's production heuristic publishes pairs in likelihood-descending
//! order; its direct sequel ("The Expected Optimal Labeling Order Problem
//! for Crowdsourced Joins and Entity Resolution", arXiv 1409.7472) shows
//! that orders maximizing *expected transitive deductions* ask measurably
//! fewer crowd questions. This module is the labeler's seam for that work:
//!
//! * [`OrderingMode::Likelihood`] — the default. The labeling order is used
//!   exactly as handed in (the caller sorts likelihood-descending), and the
//!   scan loop is byte-for-byte the historical one, so default runs stay
//!   bit-identical to pre-policy builds.
//! * [`OrderingMode::Exact`] — per connected component with at most
//!   [`EXACT_ORDER_MAX_PAIRS`] pairs, the expected-optimal *static*
//!   permutation is computed from the exact world enumeration in
//!   [`crate::expected`] (brute force up to
//!   [`BRUTE_FORCE_MAX_PAIRS`] pairs, greedy prefix search beyond);
//!   oversized components fall back to the incoming likelihood order.
//! * [`OrderingMode::Online`] — a dynamic O(delta·log) approximation: the
//!   unresolved frontier is re-ranked after every resolution batch by the
//!   *expected deductions* publishing each pair would trigger, computed
//!   component-locally from the incremental closure's pending index and the
//!   cluster graph's non-matching adjacency (see
//!   [`crate::ParallelLabeler`]'s frontier ranking for the score definition).
//!
//! The trait below is the policy contract; the [`OrderingMode`] enum is the
//! serializable selector the engine config, WAL header, and CLI speak.

use crate::expected::WorldEnumeration;
use crate::types::ScoredPair;
use crowdjoin_graph::UnionFind;
use crowdjoin_util::FxHashMap;

/// Largest component (in pairs) the exact policy will reorder. Bounded well
/// below [`crate::MAX_ENUMERABLE_PAIRS`]: a 12-pair component can
/// already hold thousands of consistent worlds, and the exact policy runs at
/// labeler construction on every shard.
pub const EXACT_ORDER_MAX_PAIRS: usize = 12;

/// Components up to this many pairs get the full factorial search
/// ([`WorldEnumeration::brute_force_optimal`]); larger (but still
/// enumerable) components use the greedy prefix search.
pub const BRUTE_FORCE_MAX_PAIRS: usize = 6;

/// A question-ordering policy: how a shard's labeling order is prepared at
/// construction, and whether the unresolved frontier is re-ranked between
/// publish scans.
///
/// The contract every implementation must honor: a policy may change **which
/// pairs are crowdsourced versus deduced** (and therefore money and rounds),
/// but never the final labels — deduction is closure over answers, and the
/// closure is order-independent. `tests/ordering_policies.rs` pins this for
/// all built-in policies.
pub trait OrderingPolicy {
    /// Stable policy name (the CLI flag value and the WAL header spelling).
    fn name(&self) -> &'static str;

    /// Static preparation of a shard's labeling order at labeler
    /// construction. The default is the identity.
    fn prepare(&self, num_objects: usize, order: Vec<ScoredPair>) -> Vec<ScoredPair> {
        let _ = num_objects;
        order
    }

    /// `true` when the labeler should re-rank the unresolved frontier by
    /// expected deductions between scans (the online approximation).
    fn online(&self) -> bool {
        false
    }
}

/// Today's behavior: the order is used as handed in (likelihood
/// descending), unchanged across rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LikelihoodDescending;

impl OrderingPolicy for LikelihoodDescending {
    fn name(&self) -> &'static str {
        "likelihood"
    }
}

/// Exact expected-optimal static order for small components, likelihood
/// fallback elsewhere.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactExpected;

impl OrderingPolicy for ExactExpected {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn prepare(&self, num_objects: usize, order: Vec<ScoredPair>) -> Vec<ScoredPair> {
        exact_expected_order(num_objects, order)
    }
}

/// Online expected-deduction frontier ranking (dynamic, per scan).
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineExpected;

impl OrderingPolicy for OnlineExpected {
    fn name(&self) -> &'static str {
        "online"
    }

    fn online(&self) -> bool {
        true
    }
}

/// Serializable selector for the built-in policies — what the engine's
/// `EngineConfig::order`, the WAL job header, and the CLI `--order` flag
/// carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingMode {
    /// [`LikelihoodDescending`] (the default; bit-identical to pre-policy
    /// builds).
    #[default]
    Likelihood,
    /// [`ExactExpected`].
    Exact,
    /// [`OnlineExpected`].
    Online,
}

impl OrderingMode {
    /// Every mode, in wire-byte order.
    pub const ALL: [OrderingMode; 3] =
        [OrderingMode::Likelihood, OrderingMode::Exact, OrderingMode::Online];

    /// The policy object this mode selects.
    #[must_use]
    pub fn policy(self) -> &'static dyn OrderingPolicy {
        match self {
            OrderingMode::Likelihood => &LikelihoodDescending,
            OrderingMode::Exact => &ExactExpected,
            OrderingMode::Online => &OnlineExpected,
        }
    }

    /// Stable name (CLI spelling).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        self.policy().name()
    }

    /// Stable single-byte encoding for the WAL job header.
    #[must_use]
    pub fn wire_byte(self) -> u8 {
        match self {
            OrderingMode::Likelihood => 0,
            OrderingMode::Exact => 1,
            OrderingMode::Online => 2,
        }
    }

    /// Inverse of [`Self::wire_byte`].
    #[must_use]
    pub fn from_wire_byte(byte: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.wire_byte() == byte)
    }

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.as_str() == s)
    }
}

impl std::fmt::Display for OrderingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Reorders each small connected component of `order` into its
/// expected-optimal permutation, keeping every component's *slots* in the
/// global order (pairs only permute within the positions their component
/// already occupied, so cross-component interleaving — and therefore shard
/// packing and HIT mixing — is unchanged).
#[must_use]
pub fn exact_expected_order(num_objects: usize, order: Vec<ScoredPair>) -> Vec<ScoredPair> {
    if order.len() < 2 {
        return order;
    }
    let mut uf = UnionFind::new(num_objects);
    for sp in &order {
        uf.union(sp.pair.a(), sp.pair.b());
    }
    // Component root -> indices (ascending) of its pairs in `order`.
    let mut members: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
    for (i, sp) in order.iter().enumerate() {
        members.entry(uf.find(sp.pair.a())).or_default().push(i);
    }
    let mut out = order.clone();
    for indices in members.values() {
        let m = indices.len();
        if !(2..=EXACT_ORDER_MAX_PAIRS).contains(&m) {
            continue;
        }
        let pairs: Vec<ScoredPair> = indices.iter().map(|&i| order[i]).collect();
        if let Some(perm) = component_optimal_permutation(&pairs) {
            for (slot, &p) in indices.iter().zip(&perm) {
                out[*slot] = pairs[p];
            }
        }
    }
    out
}

/// Expected-optimal permutation of one component's pairs (indices into
/// `pairs`), or `None` when enumeration is unavailable. Objects are
/// compacted to a dense local universe first so world enumeration never
/// scales with the global object count.
fn component_optimal_permutation(pairs: &[ScoredPair]) -> Option<Vec<usize>> {
    let mut local_of: FxHashMap<u32, u32> = FxHashMap::default();
    let mut next = 0u32;
    let mut local_id = |o: u32, local_of: &mut FxHashMap<u32, u32>| -> u32 {
        *local_of.entry(o).or_insert_with(|| {
            let id = next;
            next += 1;
            id
        })
    };
    let local: Vec<ScoredPair> = pairs
        .iter()
        .map(|sp| {
            let a = local_id(sp.pair.a(), &mut local_of);
            let b = local_id(sp.pair.b(), &mut local_of);
            ScoredPair::new(crate::types::Pair::new(a, b), sp.likelihood)
        })
        .collect();
    let we = WorldEnumeration::new(next as usize, &local).ok()?;
    if pairs.len() <= BRUTE_FORCE_MAX_PAIRS {
        let (perm, _) = we.brute_force_optimal();
        Some(perm)
    } else {
        Some(greedy_optimal_permutation(&we))
    }
}

/// Greedy prefix search: at each step, pick the pair whose placement next
/// minimizes the expected cost of `prefix + candidate + rest (current
/// order)`. O(m² ) expectation evaluations; deterministic (strictly-better
/// comparison keeps the earliest candidate on ties).
fn greedy_optimal_permutation(we: &WorldEnumeration) -> Vec<usize> {
    let m = we.pairs().len();
    let mut rest: Vec<usize> = (0..m).collect();
    let mut chosen: Vec<usize> = Vec::with_capacity(m);
    while rest.len() > 1 {
        let mut best_at = 0usize;
        let mut best_cost = f64::INFINITY;
        for at in 0..rest.len() {
            let mut candidate = chosen.clone();
            candidate.push(rest[at]);
            candidate.extend(rest.iter().enumerate().filter(|&(j, _)| j != at).map(|(_, &i)| i));
            let cost = we.expected_cost(&candidate);
            if cost + 1e-12 < best_cost {
                best_cost = cost;
                best_at = at;
            }
        }
        chosen.push(rest.remove(best_at));
    }
    chosen.extend(rest);
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Pair;

    fn sp(a: u32, b: u32, l: f64) -> ScoredPair {
        ScoredPair::new(Pair::new(a, b), l)
    }

    #[test]
    fn mode_roundtrips() {
        for mode in OrderingMode::ALL {
            assert_eq!(OrderingMode::parse(mode.as_str()), Some(mode));
            assert_eq!(OrderingMode::from_wire_byte(mode.wire_byte()), Some(mode));
        }
        assert_eq!(OrderingMode::parse("fastest"), None);
        assert_eq!(OrderingMode::from_wire_byte(9), None);
        assert_eq!(OrderingMode::default(), OrderingMode::Likelihood);
    }

    #[test]
    fn likelihood_policy_is_identity() {
        let order = vec![sp(0, 1, 0.2), sp(1, 2, 0.9)];
        let prepared = OrderingMode::Likelihood.policy().prepare(3, order.clone());
        assert_eq!(prepared, order);
        assert!(!OrderingMode::Likelihood.policy().online());
        assert!(OrderingMode::Online.policy().online());
    }

    #[test]
    fn exact_reorder_is_a_per_component_permutation() {
        // Example 4 triangle (component A) interleaved with a disjoint edge
        // (component B): the triangle may permute within its own slots; the
        // edge must stay where it is.
        let order = vec![
            sp(0, 1, 0.9), // A
            sp(3, 4, 0.5), // B
            sp(1, 2, 0.5), // A
            sp(0, 2, 0.1), // A
        ];
        let out = exact_expected_order(5, order.clone());
        assert_eq!(out[1], order[1], "disjoint component keeps its slot");
        let mut triangle: Vec<Pair> = [out[0], out[2], out[3]].iter().map(|s| s.pair).collect();
        triangle.sort_unstable();
        assert_eq!(triangle, vec![Pair::new(0, 1), Pair::new(0, 2), Pair::new(1, 2)]);
        // Likelihood-descending is optimal on Example 4 (pinned in core), so
        // the exact policy must reproduce it.
        assert_eq!(out, order);
    }

    #[test]
    fn exact_reorder_moves_a_suboptimal_order() {
        // Example 4 handed in *ascending* order: the exact policy must not
        // keep the ω3 order (cost 2.83) when ω1 (2.09) exists.
        let order = vec![sp(0, 2, 0.1), sp(1, 2, 0.5), sp(0, 1, 0.9)];
        let out = exact_expected_order(3, order.clone());
        let we = WorldEnumeration::new(3, &order).unwrap();
        let before = we.expected_cost_of_pairs(&order);
        let after = we.expected_cost_of_pairs(&out);
        assert!(after + 1e-9 < before, "reorder must improve: {before} -> {after}");
        let (_, best) = we.brute_force_optimal();
        assert!((after - best).abs() < 1e-9, "small component must be optimal");
    }

    #[test]
    fn greedy_handles_components_past_brute_force() {
        // The complete graph on 5 objects: 10 pairs (> BRUTE_FORCE_MAX_PAIRS)
        // in one component.
        let mut order = Vec::new();
        for i in 0..4u32 {
            for j in (i + 1)..5u32 {
                let idx = order.len() as u32;
                order.push(sp(i, j, 0.05 + 0.08 * f64::from(idx)));
            }
        }
        assert!(order.len() > BRUTE_FORCE_MAX_PAIRS);
        let out = exact_expected_order(5, order.clone());
        let we = WorldEnumeration::new(5, &order).unwrap();
        let before = we.expected_cost_of_pairs(&order);
        let after = we.expected_cost_of_pairs(&out);
        assert!(after <= before + 1e-9, "greedy must never be worse: {before} -> {after}");
    }

    #[test]
    fn oversized_components_fall_back_to_input_order() {
        // A 30-pair path: too big to enumerate, order must be unchanged.
        let order: Vec<ScoredPair> = (0..30u32).map(|i| sp(i, i + 1, 0.5)).collect();
        assert_eq!(exact_expected_order(31, order.clone()), order);
    }
}

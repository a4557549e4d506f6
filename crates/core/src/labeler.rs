//! The parallel labeler: Algorithms 2/3 with the instant-decision
//! refinement (see [`crate::parallel`] for the algorithm and its fidelity
//! note).
//!
//! Batch selection (Algorithm 3) is a scan, because the *supposed-matching*
//! graph must be rebuilt under each round's knowledge. Deduction after an
//! answer is not: the [`IncrementalClosure`] reports exactly the pairs the
//! answer made deducible, so submitting an answer costs O(affected pairs),
//! not O(pending pairs). The tests below pin the labeler against a
//! reference that rescans every pending pair after each answer.
//!
//! Besides the live path ([`ParallelLabeler::next_batch`] /
//! [`ParallelLabeler::submit_answer`]), the labeler exposes the **replay
//! primitive** [`ParallelLabeler::seed_known`]: feed an already-paid-for
//! crowd answer without publishing, propagating its deduction delta
//! exactly as a live answer would. Replaying a shard's crowdsourced
//! answers in labeling order re-derives its deduced labels too, which is
//! what both dynamic re-sharding (rebuilding merged shards at a barrier)
//! and journal recovery (rebuilding labeler state from answer records)
//! are built on.

use crate::closure::IncrementalClosure;
use crate::ordering::OrderingMode;
use crate::result::LabelingResult;
use crate::types::{Label, Pair, Provenance, ScoredPair};
use crowdjoin_graph::ClusterGraph;
use crowdjoin_util::FxHashMap;
use std::collections::BinaryHeap;

/// Per-pair lifecycle inside the labeler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairState {
    /// Not yet published or labeled.
    Unlabeled,
    /// Published to the crowd; an answer is outstanding.
    Published,
    /// Labeled (crowdsourced or deduced).
    Labeled,
}

/// A lazy priority-queue entry for the online frontier ranking. Entries are
/// never removed in place: an entry is *live* only while its score equals
/// the pair's current score, so a rescore simply pushes a fresh entry and
/// the stale one is skipped on pop.
#[derive(Debug, Clone, Copy)]
struct FrontierEntry {
    score: f64,
    idx: usize,
}

impl PartialEq for FrontierEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for FrontierEntry {}
impl PartialOrd for FrontierEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontierEntry {
    /// Max-heap: highest score first; ties broken toward the *earlier*
    /// position in the labeling order (so an all-zero frontier — round 0 —
    /// degenerates to exactly the likelihood-descending scan). `total_cmp`
    /// makes the order total, so pop order is independent of push order.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score.total_cmp(&other.score).then_with(|| other.idx.cmp(&self.idx))
    }
}

/// State of the `OnlineExpected` frontier ranking (present only when the
/// labeler was built with [`OrderingMode::Online`]).
#[derive(Debug, Clone)]
struct FrontierRanker {
    /// Current expected-deduction score per pair index (meaningful only
    /// while the pair is unlabeled).
    scores: Vec<f64>,
    /// Lazy max-heap over the unresolved frontier.
    heap: BinaryHeap<FrontierEntry>,
    /// Per-pair stamp of the last scan that considered it, guarding against
    /// duplicate identical entries (a score can oscillate back to a previous
    /// value, leaving two live entries for one pair).
    scan_stamp: Vec<u32>,
    /// Current scan number.
    stamp: u32,
}

impl FrontierRanker {
    fn new(n: usize) -> Self {
        let mut heap = BinaryHeap::with_capacity(n);
        // Every score starts at 0 (the closure graph is empty: each pending
        // key holds exactly its own pair and there is no non-matching
        // adjacency), so round 0 pops in pure index order.
        for idx in 0..n {
            heap.push(FrontierEntry { score: 0.0, idx });
        }
        Self { scores: vec![0.0; n], heap, scan_stamp: vec![0; n], stamp: 0 }
    }
}

/// The parallel labeler state machine over one labeling order.
#[derive(Debug, Clone)]
pub struct ParallelLabeler {
    num_objects: usize,
    order: Vec<ScoredPair>,
    index_of: FxHashMap<Pair, usize>,
    state: Vec<PairState>,
    closure: IncrementalClosure,
    result: LabelingResult,
    outstanding: usize,
    scan_conflicts: usize,
    ordering: OrderingMode,
    ranker: Option<FrontierRanker>,
}

impl ParallelLabeler {
    /// Creates a labeler for `order` over a universe of `num_objects`,
    /// publishing in likelihood-descending order (the paper's heuristic and
    /// the historical default — bit-identical to pre-policy builds).
    ///
    /// # Panics
    ///
    /// Panics if a pair references an object `>= num_objects` or appears
    /// twice in `order`.
    #[must_use]
    pub fn new(num_objects: usize, order: Vec<ScoredPair>) -> Self {
        Self::with_ordering(num_objects, order, OrderingMode::Likelihood)
    }

    /// Creates a labeler publishing under the given ordering policy.
    ///
    /// `order` is handed over in likelihood-descending order regardless of
    /// mode; the policy's static preparation (e.g. the exact per-component
    /// permutation) is applied here, and [`OrderingMode::Online`] installs
    /// the frontier ranker consulted by [`Self::next_batch`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::new`].
    #[must_use]
    pub fn with_ordering(num_objects: usize, order: Vec<ScoredPair>, mode: OrderingMode) -> Self {
        let policy = mode.policy();
        let order = policy.prepare(num_objects, order);
        let ranker = policy.online().then(|| FrontierRanker::new(order.len()));
        let mut index_of = FxHashMap::default();
        for (i, sp) in order.iter().enumerate() {
            assert!(
                (sp.pair.b() as usize) < num_objects,
                "pair {} references object outside universe of {num_objects}",
                sp.pair
            );
            assert!(index_of.insert(sp.pair, i).is_none(), "duplicate pair {} in order", sp.pair);
        }
        let n = order.len();
        let mut closure = IncrementalClosure::new(num_objects);
        for (i, sp) in order.iter().enumerate() {
            // The graph is empty at construction: nothing is deducible yet,
            // so every pair indexes as pending.
            let already = closure.track(i, sp.pair);
            debug_assert!(already.is_none());
        }
        Self {
            num_objects,
            order,
            index_of,
            state: vec![PairState::Unlabeled; n],
            closure,
            result: LabelingResult::new(),
            outstanding: 0,
            scan_conflicts: 0,
            ordering: mode,
            ranker,
        }
    }

    /// The ordering policy this labeler publishes under.
    #[must_use]
    pub fn ordering(&self) -> OrderingMode {
        self.ordering
    }

    /// `true` once every pair has a label.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.result.num_labeled() == self.order.len()
    }

    /// Number of published pairs whose answers are still outstanding.
    #[must_use]
    pub fn num_outstanding(&self) -> usize {
        self.outstanding
    }

    /// Diagnostic: real labels that conflicted with the assumed-matching
    /// scan graph (stays 0 for consistent answer sources).
    #[must_use]
    pub fn num_scan_conflicts(&self) -> usize {
        self.scan_conflicts
    }

    /// Algorithm 3 with instant decision: the pairs that must be
    /// crowdsourced under current knowledge, excluding those already
    /// published. Marks returned pairs published.
    ///
    /// Under [`OrderingMode::Online`] the unresolved frontier is visited in
    /// expected-deduction order (see `next_batch_ranked`) instead of
    /// index order; the publish-or-hold rule per pair is identical.
    pub fn next_batch(&mut self) -> Vec<ScoredPair> {
        if self.ranker.is_some() {
            self.next_batch_ranked()
        } else {
            self.next_batch_scan()
        }
    }

    /// The historical single-pass scan (likelihood / exact modes): pairs in
    /// index order; real labels build the scan graph, everything else is
    /// supposed matching and publishes unless deducible.
    fn next_batch_scan(&mut self) -> Vec<ScoredPair> {
        let mut scan = ClusterGraph::new(self.num_objects);
        let mut batch = Vec::new();
        for i in 0..self.order.len() {
            let sp = self.order[i];
            let (a, b) = (sp.pair.a(), sp.pair.b());
            match self.state[i] {
                PairState::Labeled => {
                    let label =
                        self.result.label_of(sp.pair).expect("labeled pair must be in result");
                    if scan.insert(a, b, label).is_err() {
                        self.scan_conflicts += 1;
                    }
                }
                PairState::Published | PairState::Unlabeled => {
                    if scan.deduce(a, b).is_none() {
                        if self.state[i] == PairState::Unlabeled {
                            self.state[i] = PairState::Published;
                            self.outstanding += 1;
                            batch.push(sp);
                        }
                        scan.insert(a, b, Label::Matching)
                            .expect("insert after failed deduction cannot conflict");
                    }
                }
            }
        }
        batch
    }

    /// `OnlineExpected`'s scan: labeled pairs (index order) build the scan
    /// graph, outstanding published pairs (index order) are supposed
    /// matching, then the unresolved frontier is drained from the lazy
    /// priority queue — highest expected-deduction score first, index order
    /// on ties — with the same publish-or-hold rule as the index scan.
    /// Held pairs re-enter the queue for the next scan; pairs whose entries
    /// went stale (rescored or resolved since push) are skipped in O(1).
    fn next_batch_ranked(&mut self) -> Vec<ScoredPair> {
        let mut scan = ClusterGraph::new(self.num_objects);
        for i in 0..self.order.len() {
            let sp = self.order[i];
            let (a, b) = (sp.pair.a(), sp.pair.b());
            match self.state[i] {
                PairState::Labeled => {
                    let label =
                        self.result.label_of(sp.pair).expect("labeled pair must be in result");
                    if scan.insert(a, b, label).is_err() {
                        self.scan_conflicts += 1;
                    }
                }
                PairState::Published => {
                    if scan.deduce(a, b).is_none() {
                        scan.insert(a, b, Label::Matching)
                            .expect("insert after failed deduction cannot conflict");
                    }
                }
                PairState::Unlabeled => {}
            }
        }
        let ranker = self.ranker.as_mut().expect("ranked scan requires the online ranker");
        ranker.stamp += 1;
        let mut batch = Vec::new();
        let mut held = Vec::new();
        while let Some(entry) = ranker.heap.pop() {
            let i = entry.idx;
            if self.state[i] != PairState::Unlabeled
                || entry.score != ranker.scores[i]
                || ranker.scan_stamp[i] == ranker.stamp
            {
                continue; // resolved, stale, or duplicate entry
            }
            ranker.scan_stamp[i] = ranker.stamp;
            let sp = self.order[i];
            let (a, b) = (sp.pair.a(), sp.pair.b());
            if scan.deduce(a, b).is_none() {
                self.state[i] = PairState::Published;
                self.outstanding += 1;
                batch.push(sp);
                scan.insert(a, b, Label::Matching)
                    .expect("insert after failed deduction cannot conflict");
            } else {
                held.push(entry);
            }
        }
        // Still-open pairs that were held this scan stay in the queue.
        for entry in held {
            ranker.heap.push(entry);
        }
        batch
    }

    /// Expected deductions triggered by resolving pair `i` now, computed
    /// component-locally from the closure's pending index: with endpoint
    /// cluster slots `X`, `Y`,
    ///
    /// ```text
    /// direct   = pend(X, Y) − 1                    (co-keyed open pairs)
    /// transfer = Σ_{Z ∈ nm-adj(X)} pend(Y, Z)
    ///          + Σ_{Z ∈ nm-adj(Y)} pend(X, Z)      (one-hop negative rules)
    /// score    = direct + ℓᵢ · transfer
    /// ```
    ///
    /// A matching answer merges `X`/`Y` (resolving all `direct` pairs
    /// positively and all `transfer` pairs negatively); a non-matching
    /// answer resolves the `direct` pairs negatively. Both sums are exact
    /// integer counts, so scores are reproducible across platforms.
    fn frontier_score(&self, i: usize) -> f64 {
        let sp = self.order[i];
        let graph = self.closure.graph();
        let x = graph.slot_of_readonly(sp.pair.a());
        let y = graph.slot_of_readonly(sp.pair.b());
        let direct = self.closure.pending_count_between(x, y) - 1;
        let mut transfer = 0usize;
        for z in graph.slot_neighbors(x) {
            transfer += self.closure.pending_count_between(y, z);
        }
        for z in graph.slot_neighbors(y) {
            transfer += self.closure.pending_count_between(x, z);
        }
        direct as f64 + sp.likelihood * transfer as f64
    }

    /// Rescores every open pair incident to a touched cluster slot and
    /// pushes fresh heap entries for the changed ones. O(affected pairs ·
    /// log frontier) — never rescans the pending set.
    fn refresh_scores(&mut self, touched: &[u32]) {
        if self.ranker.is_none() || touched.is_empty() {
            return;
        }
        let mut slots = touched.to_vec();
        slots.sort_unstable();
        slots.dedup();
        let mut ids: Vec<usize> = Vec::new();
        for &s in &slots {
            for t in self.closure.pending_partners(s) {
                ids.extend_from_slice(self.closure.pending_ids_between(s, t));
            }
        }
        ids.sort_unstable();
        ids.dedup();
        for i in ids {
            if self.state[i] != PairState::Unlabeled {
                continue; // published pairs never return to the frontier
            }
            let score = self.frontier_score(i);
            let ranker = self.ranker.as_mut().expect("checked above");
            if score != ranker.scores[i] {
                ranker.scores[i] = score;
                ranker.heap.push(FrontierEntry { score, idx: i });
            }
        }
    }

    /// Feeds one crowd answer, then labels exactly the pairs the answer made
    /// deducible (the incremental-closure delta).
    ///
    /// # Panics
    ///
    /// Panics if `pair` was not published or was already answered.
    pub fn submit_answer(&mut self, pair: Pair, answer: Label) {
        let &i = self
            .index_of
            .get(&pair)
            .unwrap_or_else(|| panic!("pair {pair} is not part of this labeling task"));
        assert_eq!(
            self.state[i],
            PairState::Published,
            "answer submitted for pair {pair} that is not awaiting one"
        );
        self.state[i] = PairState::Labeled;
        self.outstanding -= 1;

        let mut delta = Vec::new();
        let mut touched = Vec::new();
        let inserted = if self.ranker.is_some() {
            self.closure.insert_tracking(pair, answer, &mut delta, &mut touched)
        } else {
            self.closure.insert(pair, answer, &mut delta)
        };
        let label = match inserted {
            Ok(_) => answer,
            Err(conflict) => {
                self.result.record_conflict();
                conflict.deduced
            }
        };
        self.result.record(pair, label, Provenance::Crowdsourced);

        for (j, deduced_label) in delta {
            match self.state[j] {
                PairState::Unlabeled => {
                    self.state[j] = PairState::Labeled;
                    self.result.record(self.order[j].pair, deduced_label, Provenance::Deduced);
                }
                // The answered pair itself appears in its own delta (it was
                // tracked); it is already recorded as crowdsourced. A
                // published pair that became deducible stays awaiting its
                // answer — it was already paid for, and the paper counts it
                // as crowdsourced.
                PairState::Published | PairState::Labeled => {}
            }
        }
        // After the delta settles: rescore open pairs whose pending
        // neighborhood the insert changed.
        self.refresh_scores(&touched);
    }

    /// Seeds an already-known crowd answer without publishing — the replay
    /// primitive dynamic re-sharding uses to reconstruct a merged shard's
    /// deduction state from its predecessors' crowdsourced answers.
    ///
    /// The pair is recorded as crowdsourced (it was paid for in a previous
    /// incarnation) and its deduction delta propagates exactly as a live
    /// answer would, so replaying a shard's crowdsourced answers in labeling
    /// order re-derives its deduced labels too. A pair that an earlier seed
    /// already made deducible is skipped: the closure has its label, and the
    /// money spent on the redundant answer stays accounted to the retired
    /// platform. A replayed conflict is **not** re-counted (the incarnation
    /// that first saw it already did); the deduced label wins as usual.
    ///
    /// # Panics
    ///
    /// Panics if `pair` is not part of this labeling task or is awaiting a
    /// live answer.
    pub fn seed_known(&mut self, pair: Pair, answer: Label) {
        let &i = self
            .index_of
            .get(&pair)
            .unwrap_or_else(|| panic!("pair {pair} is not part of this labeling task"));
        match self.state[i] {
            PairState::Labeled => return,
            PairState::Published => {
                panic!("pair {pair} is awaiting a live answer and cannot be seeded")
            }
            PairState::Unlabeled => {}
        }
        self.state[i] = PairState::Labeled;

        let mut delta = Vec::new();
        let mut touched = Vec::new();
        let inserted = if self.ranker.is_some() {
            self.closure.insert_tracking(pair, answer, &mut delta, &mut touched)
        } else {
            self.closure.insert(pair, answer, &mut delta)
        };
        let label = match inserted {
            Ok(_) => answer,
            Err(conflict) => conflict.deduced,
        };
        self.result.record(pair, label, Provenance::Crowdsourced);
        for (j, deduced_label) in delta {
            if self.state[j] == PairState::Unlabeled {
                self.state[j] = PairState::Labeled;
                self.result.record(self.order[j].pair, deduced_label, Provenance::Deduced);
            }
        }
        self.refresh_scores(&touched);
    }

    /// The labeling order this labeler runs over (local ids).
    #[must_use]
    pub fn order(&self) -> &[ScoredPair] {
        &self.order
    }

    /// Pairs with no label yet that are not awaiting a crowd answer — the
    /// still-open work dynamic re-sharding repartitions.
    #[must_use]
    pub fn unlabeled_pairs(&self) -> Vec<ScoredPair> {
        self.order
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.state[i] == PairState::Unlabeled)
            .map(|(_, sp)| *sp)
            .collect()
    }

    /// Consumes the labeler and returns the labeling result.
    ///
    /// # Panics
    ///
    /// Panics if labeling is not complete.
    #[must_use]
    pub fn into_result(self) -> LabelingResult {
        assert!(self.is_complete(), "labeling is not complete");
        self.result
    }

    /// Read access to the (partial) result while labeling is in progress.
    #[must_use]
    pub fn result(&self) -> &LabelingResult {
        &self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{GroundTruthOracle, NoisyOracle, Oracle};
    use crate::parallel::run_parallel_rounds;
    use crate::sort::{sort_pairs, SortStrategy};
    use crate::truth::GroundTruth;
    use crate::types::CandidateSet;

    fn running_example() -> (CandidateSet, GroundTruth) {
        let truth = GroundTruth::from_clusters(6, &[vec![0, 1, 2], vec![3, 4]]);
        let pairs = vec![
            ScoredPair::new(Pair::new(0, 1), 0.95),
            ScoredPair::new(Pair::new(1, 2), 0.90),
            ScoredPair::new(Pair::new(0, 5), 0.85),
            ScoredPair::new(Pair::new(0, 2), 0.80),
            ScoredPair::new(Pair::new(3, 4), 0.75),
            ScoredPair::new(Pair::new(3, 5), 0.70),
            ScoredPair::new(Pair::new(1, 3), 0.65),
            ScoredPair::new(Pair::new(4, 5), 0.60),
        ];
        (CandidateSet::new(6, pairs), truth)
    }

    /// Random instance: entity `i % k` over `n` objects, about
    /// `draws_per_object · n` distinct pairs with random likelihoods.
    fn random_instance(
        rng: &mut crowdjoin_util::SplitMix64,
        draws_per_object: usize,
    ) -> (GroundTruth, CandidateSet) {
        let n = 4 + (rng.next_u64() % 12) as usize;
        let k = 1 + (rng.next_u64() % 4) as u32;
        let truth = GroundTruth::new((0..n as u32).map(|i| i % k).collect());
        let mut pairs = Vec::new();
        let mut seen = crowdjoin_util::FxHashSet::default();
        for _ in 0..n * draws_per_object {
            let a = (rng.next_u64() % n as u64) as u32;
            let b = (rng.next_u64() % n as u64) as u32;
            if a != b {
                let p = Pair::new(a, b);
                if seen.insert(p) {
                    pairs.push(ScoredPair::new(p, rng.next_f64()));
                }
            }
        }
        (truth, CandidateSet::new(n, pairs))
    }

    /// What [`drive`] needs from the labeler and from the test oracle.
    trait Algorithm3 {
        fn batch(&mut self) -> Vec<Pair>;
        fn answer(&mut self, pair: Pair, label: Label);
    }

    impl Algorithm3 for ParallelLabeler {
        fn batch(&mut self) -> Vec<Pair> {
            self.next_batch().iter().map(|sp| sp.pair).collect()
        }
        fn answer(&mut self, pair: Pair, label: Label) {
            self.submit_answer(pair, label);
        }
    }

    /// Test oracle: Algorithms 2/3 by rescanning. Every batch is an
    /// Algorithm 3 scan over a fresh `ClusterGraph`; after every answer,
    /// every unpublished pair is checked for a deduction from scratch.
    struct Rescan {
        order: Vec<ScoredPair>,
        state: Vec<PairState>,
        crowd: ClusterGraph,
        result: LabelingResult,
        scan_conflicts: usize,
    }

    impl Rescan {
        fn new(num_objects: usize, order: Vec<ScoredPair>) -> Self {
            Rescan {
                state: vec![PairState::Unlabeled; order.len()],
                order,
                crowd: ClusterGraph::new(num_objects),
                result: LabelingResult::new(),
                scan_conflicts: 0,
            }
        }
    }

    impl Algorithm3 for Rescan {
        fn batch(&mut self) -> Vec<Pair> {
            let mut scan = ClusterGraph::new(self.crowd.num_objects());
            let mut batch = Vec::new();
            for (i, sp) in self.order.iter().enumerate() {
                let (a, b) = (sp.pair.a(), sp.pair.b());
                if self.state[i] == PairState::Labeled {
                    let label = self.result.label_of(sp.pair).expect("labeled");
                    self.scan_conflicts += usize::from(scan.insert(a, b, label).is_err());
                } else if scan.deduce(a, b).is_none() {
                    if self.state[i] == PairState::Unlabeled {
                        self.state[i] = PairState::Published;
                        batch.push(sp.pair);
                    }
                    scan.insert(a, b, Label::Matching).expect("undeducible pair inserts");
                }
            }
            batch
        }
        fn answer(&mut self, pair: Pair, answer: Label) {
            let i = self.order.iter().position(|sp| sp.pair == pair).expect("known pair");
            let label = self.crowd.insert(pair.a(), pair.b(), answer).map_or_else(
                |conflict| {
                    self.result.record_conflict();
                    conflict.deduced
                },
                |_| answer,
            );
            self.state[i] = PairState::Labeled;
            self.result.record(pair, label, Provenance::Crowdsourced);
            for (j, sp) in self.order.iter().enumerate() {
                if self.state[j] == PairState::Unlabeled {
                    if let Some(l) = self.crowd.deduce(sp.pair.a(), sp.pair.b()) {
                        self.state[j] = PairState::Labeled;
                        self.result.record(sp.pair, l, Provenance::Deduced);
                    }
                }
            }
        }
    }

    /// Drives `labeler` to completion and returns its published batches.
    /// Round-based (`interleave == false`) answers every batch in full;
    /// otherwise only the oldest half of the outstanding pairs is answered
    /// before the next scan, as instant decision does with HITs in flight.
    fn drive(
        labeler: &mut dyn Algorithm3,
        oracle: &mut dyn Oracle,
        interleave: bool,
    ) -> Vec<Vec<Pair>> {
        let (mut batches, mut outstanding) = (Vec::new(), std::collections::VecDeque::new());
        loop {
            let batch = labeler.batch();
            outstanding.extend(batch.iter().copied());
            batches.push(batch);
            if outstanding.is_empty() {
                return batches;
            }
            let k = if interleave { outstanding.len().div_ceil(2) } else { outstanding.len() };
            for pair in outstanding.drain(..k) {
                labeler.answer(pair, oracle.answer(pair));
            }
        }
    }

    /// Same batches, labels, provenance and conflict counts as the rescanning
    /// reference, under `oracle_of` answers. Returns the batches and the
    /// (answer, scan) conflict counts.
    fn assert_matches_reference<'t>(
        cs: &CandidateSet,
        interleave: bool,
        oracle_of: impl Fn() -> Box<dyn Oracle + 't>,
    ) -> (Vec<Vec<Pair>>, usize, usize) {
        let order = sort_pairs(cs, SortStrategy::ExpectedLikelihood);
        let mut ours = ParallelLabeler::new(cs.num_objects(), order.clone());
        let mut reference = Rescan::new(cs.num_objects(), order);
        let batches = drive(&mut ours, &mut *oracle_of(), interleave);
        assert_eq!(
            batches,
            drive(&mut reference, &mut *oracle_of(), interleave),
            "batches diverged"
        );
        assert_eq!(ours.num_scan_conflicts(), reference.scan_conflicts, "scan conflicts diverged");
        let (a, b) = (ours.result(), &reference.result);
        assert_eq!(a.num_conflicts(), b.num_conflicts());
        assert_eq!(a.num_labeled(), cs.len());
        for sp in cs.pairs() {
            assert_eq!(a.label_of(sp.pair), b.label_of(sp.pair));
            assert_eq!(a.provenance_of(sp.pair), b.provenance_of(sp.pair));
        }
        (batches, a.num_conflicts(), reference.scan_conflicts)
    }

    /// Paper Example 5 on the core labeler, pinned against the rescanning
    /// reference in both round-based and interleaved answering.
    #[test]
    fn example5_matches_core_labeler() {
        let (cs, truth) = running_example();
        let (batches, _, _) =
            assert_matches_reference(&cs, false, || Box::new(GroundTruthOracle::new(&truth)));
        // Paper Example 5: {p1, p2, p3, p5, p6}, then {p7}.
        let p = Pair::new;
        assert_eq!(
            batches,
            vec![vec![p(0, 1), p(1, 2), p(0, 5), p(3, 4), p(3, 5)], vec![p(1, 3)], vec![]]
        );
        assert_matches_reference(&cs, true, || Box::new(GroundTruthOracle::new(&truth)));
    }

    /// The first published batch is exactly one Algorithm 3 scan over the
    /// sorted order, before any answer arrives.
    #[test]
    fn first_batch_identical_to_core() {
        let (cs, _) = running_example();
        let mut rng = crowdjoin_util::SplitMix64::new(3);
        let instances = std::iter::once(cs).chain((0..50).map(|_| random_instance(&mut rng, 2).1));
        for cs in instances {
            let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
            let mut ours = ParallelLabeler::new(cs.num_objects(), order.clone());
            let mut reference = Rescan::new(cs.num_objects(), order);
            assert_eq!(ours.batch(), reference.batch());
        }
    }

    #[test]
    fn randomized_equivalence_with_reference_scan() {
        let mut rng = crowdjoin_util::SplitMix64::new(77);
        for i in 0..100 {
            let (truth, cs) = random_instance(&mut rng, 2);
            assert_matches_reference(&cs, i % 2 == 1, || Box::new(GroundTruthOracle::new(&truth)));
        }
    }

    /// Noisy answers exercise both conflict paths: an answer contradicting
    /// the crowd closure, and a real label contradicting a scan supposition.
    #[test]
    fn noisy_equivalence_with_reference_scan() {
        let mut rng = crowdjoin_util::SplitMix64::new(15);
        let (mut conflicts, mut scan_conflicts) = (0, 0);
        for seed in 0..200 {
            let (truth, cs) = random_instance(&mut rng, 3);
            let noisy = || -> Box<dyn Oracle> { Box::new(NoisyOracle::new(&truth, 0.25, seed)) };
            let (_, c, s) = assert_matches_reference(&cs, seed % 2 == 1, noisy);
            conflicts += c;
            scan_conflicts += s;
        }
        assert!(conflicts > 0 && scan_conflicts > 0, "noise must reach both conflict paths");
    }

    #[test]
    fn empty_order_completes_immediately() {
        let labeler = ParallelLabeler::new(4, vec![]);
        assert!(labeler.is_complete());
        assert_eq!(labeler.into_result().num_labeled(), 0);
    }

    #[test]
    fn seeding_crowdsourced_answers_rederives_deductions() {
        let (cs, truth) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let mut oracle = GroundTruthOracle::new(&truth);
        let (live, _) = run_parallel_rounds(cs.num_objects(), order.clone(), &mut oracle);

        // Replay only the crowdsourced answers, in labeling order, into a
        // fresh labeler: every deduced label must re-derive.
        let mut replayed = ParallelLabeler::new(cs.num_objects(), order.clone());
        for sp in &order {
            if live.provenance_of(sp.pair) == Some(Provenance::Crowdsourced) {
                replayed.seed_known(sp.pair, live.label_of(sp.pair).unwrap());
            }
        }
        assert!(replayed.is_complete());
        assert!(replayed.unlabeled_pairs().is_empty());
        let result = replayed.into_result();
        assert_eq!(result.num_labeled(), live.num_labeled());
        for sp in cs.pairs() {
            assert_eq!(result.label_of(sp.pair), live.label_of(sp.pair));
        }
    }

    #[test]
    fn seeding_partial_state_resumes_cleanly() {
        let (cs, truth) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);

        // Answer only the first published round, then rebuild and finish.
        let mut first = ParallelLabeler::new(cs.num_objects(), order.clone());
        let round1 = first.next_batch();
        for sp in &round1 {
            first.submit_answer(sp.pair, truth.label_of(sp.pair));
        }
        let known: Vec<(Pair, Label)> = order
            .iter()
            .filter(|sp| first.result().provenance_of(sp.pair) == Some(Provenance::Crowdsourced))
            .map(|sp| (sp.pair, first.result().label_of(sp.pair).unwrap()))
            .collect();
        let unlabeled = first.unlabeled_pairs().len();

        let mut resumed = ParallelLabeler::new(cs.num_objects(), order.clone());
        for &(pair, label) in &known {
            resumed.seed_known(pair, label);
        }
        assert_eq!(resumed.unlabeled_pairs().len(), unlabeled);
        let mut oracle = GroundTruthOracle::new(&truth);
        while !resumed.is_complete() {
            let batch = resumed.next_batch();
            assert!(!batch.is_empty());
            for sp in batch {
                resumed.submit_answer(sp.pair, oracle.answer(sp.pair));
            }
        }
        let result = resumed.into_result();
        for sp in cs.pairs() {
            assert_eq!(result.label_of(sp.pair), Some(truth.label_of(sp.pair)));
        }
    }

    /// For every open pair, the incrementally maintained score must equal a
    /// fresh recomputation from the closure — i.e. the touched-slot marking
    /// in `refresh_scores` missed nothing.
    fn assert_scores_fresh(labeler: &ParallelLabeler) {
        let ranker = labeler.ranker.as_ref().expect("online labeler");
        for i in 0..labeler.order.len() {
            if labeler.state[i] == PairState::Unlabeled {
                let fresh = labeler.frontier_score(i);
                assert_eq!(
                    ranker.scores[i], fresh,
                    "stale score for pair {} at index {i}",
                    labeler.order[i].pair
                );
            }
        }
    }

    #[test]
    fn online_scores_stay_fresh_and_labels_match() {
        let mut rng = crowdjoin_util::SplitMix64::new(4242);
        for _ in 0..60 {
            let (truth, cs) = random_instance(&mut rng, 3);
            let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);

            let mut online = ParallelLabeler::with_ordering(
                cs.num_objects(),
                order.clone(),
                OrderingMode::Online,
            );
            let mut oracle = GroundTruthOracle::new(&truth);
            while !online.is_complete() {
                let batch = online.next_batch();
                assert!(!batch.is_empty(), "online scan stuck");
                for sp in batch {
                    online.submit_answer(sp.pair, oracle.answer(sp.pair));
                    assert_scores_fresh(&online);
                }
            }
            let online_result = online.into_result();

            // Order never changes labels — only who pays for them.
            let mut o2 = GroundTruthOracle::new(&truth);
            let (reference, _) = run_parallel_rounds(cs.num_objects(), order, &mut o2);
            assert_eq!(online_result.num_labeled(), reference.num_labeled());
            for sp in cs.pairs() {
                assert_eq!(online_result.label_of(sp.pair), reference.label_of(sp.pair));
            }
        }
    }

    #[test]
    fn online_round0_equals_likelihood_round0() {
        let (cs, _) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let mut a = ParallelLabeler::new(cs.num_objects(), order.clone());
        let mut b = ParallelLabeler::with_ordering(cs.num_objects(), order, OrderingMode::Online);
        let ba: Vec<Pair> = a.next_batch().iter().map(|sp| sp.pair).collect();
        let bb: Vec<Pair> = b.next_batch().iter().map(|sp| sp.pair).collect();
        assert_eq!(ba, bb, "all-zero frontier must degenerate to the index scan");
    }

    #[test]
    fn exact_mode_seeding_rederives_like_likelihood() {
        // The replay primitive must work under every policy: run exact mode
        // live, replay its crowdsourced answers into a fresh exact labeler.
        let (cs, truth) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let mut live =
            ParallelLabeler::with_ordering(cs.num_objects(), order.clone(), OrderingMode::Exact);
        let mut oracle = GroundTruthOracle::new(&truth);
        while !live.is_complete() {
            for sp in live.next_batch() {
                live.submit_answer(sp.pair, oracle.answer(sp.pair));
            }
        }
        let live = live.into_result();
        let mut replayed =
            ParallelLabeler::with_ordering(cs.num_objects(), order.clone(), OrderingMode::Exact);
        for sp in replayed.order().to_vec() {
            if live.provenance_of(sp.pair) == Some(Provenance::Crowdsourced) {
                replayed.seed_known(sp.pair, live.label_of(sp.pair).unwrap());
            }
        }
        assert!(replayed.is_complete());
        let replayed = replayed.into_result();
        for sp in cs.pairs() {
            assert_eq!(replayed.label_of(sp.pair), live.label_of(sp.pair));
            assert_eq!(replayed.provenance_of(sp.pair), live.provenance_of(sp.pair));
        }
    }

    #[test]
    #[should_panic(expected = "not awaiting")]
    fn double_answer_rejected() {
        let (cs, _) = running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let mut labeler = ParallelLabeler::new(cs.num_objects(), order);
        let batch = labeler.next_batch();
        let p = batch[0].pair;
        labeler.submit_answer(p, Label::Matching);
        labeler.submit_answer(p, Label::Matching);
    }
}

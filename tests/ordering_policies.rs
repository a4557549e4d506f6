//! Question-ordering policy contracts: the ordering changes *which* pairs
//! are crowdsourced, never the labels.
//!
//! - Property: every `OrderingMode` yields the same final labels as the
//!   classic likelihood-descending scan, under a perfect crowd at both 1
//!   and 4 shards, and every run's total money equals the sum of its
//!   per-shard partitions.
//! - Noisy crowds stay per-seed deterministic under every policy.
//! - Ablation: the `online` ranker's *exact* expected crowdsourced-question
//!   count (probability-weighted over all consistent worlds, reusing
//!   `core::expected`) stays within a pinned factor of the `exact` policy's
//!   on random small instances, including the paper's Example 4 triangle.
//! - Savings guard (run by CI): `online` never crowdsources more than
//!   `likelihood` on the seed workload under a perfect crowd.

use crowdjoin::matcher::MatcherConfig;
use crowdjoin::records::{generate_paper, ClusterSpec, PaperGenConfig, PerturbConfig};
use crowdjoin::sim::PlatformConfig;
use crowdjoin::util::SplitMix64;
use crowdjoin::ParallelLabeler;
use crowdjoin::{
    build_task, run_sharded_on_platform, run_sharded_with_oracle, sort_pairs, EngineConfig,
    EngineReport, GroundTruth, Label, OrderingMode, Pair, ScoredPair, SharedGroundTruth,
    SortStrategy, WorldEnumeration,
};

/// Seed workload shared by the property tests and the CI savings guard: a
/// paper-style dataset large enough to have multi-round components but
/// small enough to keep the 3-policy × 2-shard × 2-crowd matrix fast.
fn seed_workload() -> (usize, Vec<ScoredPair>, GroundTruth) {
    let dataset = generate_paper(&PaperGenConfig {
        num_records: 120,
        clusters: ClusterSpec::PowerLaw { alpha: 1.9, max_size: 12, force_max: true },
        perturb: PerturbConfig::heavy(),
        sibling_probability: 0.2,
        seed: 17,
    });
    let (task, truth) = build_task(&dataset, &MatcherConfig::for_arity(5), 0.3);
    let order = sort_pairs(task.candidates(), SortStrategy::ExpectedLikelihood);
    (dataset.len(), order, truth)
}

fn config(shards: usize, mode: OrderingMode) -> EngineConfig {
    EngineConfig { num_shards: shards, order: mode, seed: 11, ..EngineConfig::default() }
}

/// Labels and money across two reports of jobs over the same pairs: the
/// labels must agree pair by pair, and each report's total money must be
/// exactly the sum of its per-shard partitions.
fn assert_same_labels(a: &EngineReport, b: &EngineReport, order: &[ScoredPair], ctx: &str) {
    assert_eq!(a.result.num_labeled(), b.result.num_labeled(), "{ctx}: labeled count");
    for sp in order {
        assert_eq!(a.result.label_of(sp.pair), b.result.label_of(sp.pair), "{ctx}: {}", sp.pair);
    }
}

fn assert_money_partitions(report: &EngineReport, ctx: &str) {
    let sharded: u64 =
        report.shards.iter().map(|s| s.stats.as_ref().map_or(0, |st| st.total_cost_cents)).sum();
    assert_eq!(report.total_cost_cents, sharded, "{ctx}: money must partition across shards");
}

#[test]
fn policies_agree_on_labels_under_a_perfect_crowd() {
    let (num_objects, order, truth) = seed_workload();
    let platform = PlatformConfig::perfect_workers(7);
    for shards in [1usize, 4] {
        let reference = run_sharded_on_platform(
            num_objects,
            &order,
            &truth,
            &platform,
            &config(shards, OrderingMode::Likelihood),
        );
        assert_eq!(reference.result.num_labeled(), order.len(), "workload fully labeled");
        assert_money_partitions(&reference, "likelihood");
        for mode in [OrderingMode::Exact, OrderingMode::Online] {
            let run = run_sharded_on_platform(
                num_objects,
                &order,
                &truth,
                &platform,
                &config(shards, mode),
            );
            let ctx = format!("{mode} @ {shards} shard(s)");
            assert_same_labels(&reference, &run, &order, &ctx);
            assert_money_partitions(&run, &ctx);
            // The policies split labeled pairs between the crowd and the
            // deducer differently, but every pair is accounted for.
            assert_eq!(
                run.result.num_crowdsourced() + run.result.num_deduced(),
                reference.result.num_crowdsourced() + reference.result.num_deduced(),
                "{ctx}: crowdsourced + deduced is conserved"
            );
        }
    }
}

#[test]
fn policies_agree_on_labels_through_the_oracle_path() {
    let (num_objects, order, truth) = seed_workload();
    let oracle = SharedGroundTruth::new(&truth);
    let reference =
        run_sharded_with_oracle(num_objects, &order, &oracle, &config(4, OrderingMode::Likelihood));
    for mode in [OrderingMode::Exact, OrderingMode::Online] {
        let run = run_sharded_with_oracle(num_objects, &order, &oracle, &config(4, mode));
        assert_same_labels(&reference, &run, &order, &format!("oracle {mode}"));
    }
}

/// Noisy crowds: answers depend on worker RNG streams, so cross-policy
/// labels may legitimately differ — but two runs of the *same* policy and
/// seed must be bit-identical (labels, money, completion, per-shard stats).
#[test]
fn noisy_runs_stay_per_seed_deterministic_under_every_policy() {
    let (num_objects, order, truth) = seed_workload();
    let platform = PlatformConfig { num_workers: 80, ..PlatformConfig::amt_like(29) };
    for mode in OrderingMode::ALL {
        let a = run_sharded_on_platform(num_objects, &order, &truth, &platform, &config(4, mode));
        let b = run_sharded_on_platform(num_objects, &order, &truth, &platform, &config(4, mode));
        let ctx = format!("noisy {mode}");
        assert_same_labels(&a, &b, &order, &ctx);
        assert_eq!(a.total_cost_cents, b.total_cost_cents, "{ctx}: money");
        assert_eq!(a.completion, b.completion, "{ctx}: completion");
        assert_eq!(a.result.num_crowdsourced(), b.result.num_crowdsourced(), "{ctx}: questions");
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.stats, y.stats, "{ctx}: shard {} stats", x.shard);
        }
        assert_money_partitions(&a, &ctx);
    }
}

/// The CI savings guard: on the seed workload under a perfect crowd the
/// online ranker must never crowdsource *more* than likelihood-descending.
/// (The strict `<` claim on the 5k product workload lives in
/// `BENCH_engine.json`; this guard pins the cheap always-on invariant.)
#[test]
fn savings_guard_online_never_asks_more_than_likelihood() {
    let (num_objects, order, truth) = seed_workload();
    let platform = PlatformConfig::perfect_workers(7);
    for shards in [1usize, 4] {
        let likelihood = run_sharded_on_platform(
            num_objects,
            &order,
            &truth,
            &platform,
            &config(shards, OrderingMode::Likelihood),
        );
        let online = run_sharded_on_platform(
            num_objects,
            &order,
            &truth,
            &platform,
            &config(shards, OrderingMode::Online),
        );
        assert!(
            online.result.num_crowdsourced() <= likelihood.result.num_crowdsourced(),
            "online asked {} > likelihood {} at {shards} shard(s)",
            online.result.num_crowdsourced(),
            likelihood.result.num_crowdsourced()
        );
    }
}

// ===== Ablation: exact expected cost of the adaptive online ranker =====

/// Crowdsourced-question count of one labeler run inside one world: the
/// labeler publishes batches, the world answers them, repeat to completion.
/// This is exactly the engine's round protocol, so the measured cost is the
/// policy *as deployed* (batch-granular), not the sequential ideal.
fn cost_in_world(
    num_objects: usize,
    order: &[ScoredPair],
    mode: OrderingMode,
    we: &WorldEnumeration,
    world_labels: &[Label],
) -> usize {
    let label_of = |pair: Pair| -> Label {
        let idx = we
            .pairs()
            .iter()
            .position(|sp| sp.pair == pair)
            .expect("published pair must be in the instance");
        world_labels[idx]
    };
    let mut labeler = ParallelLabeler::with_ordering(num_objects, order.to_vec(), mode);
    let mut asked = 0usize;
    while !labeler.is_complete() {
        let batch = labeler.next_batch();
        assert!(!batch.is_empty(), "incomplete labeler must publish something");
        for sp in batch {
            asked += 1;
            labeler.submit_answer(sp.pair, label_of(sp.pair));
        }
    }
    asked
}

/// Exact expected crowdsourced-question count of a policy on a small
/// instance: run the labeler in every consistent world, weight by world
/// probability. Reuses `core::expected`'s enumeration, so adaptive
/// policies (online) are measured exactly, not sampled.
///
/// Static policies (`Likelihood`, `Exact`) are prepared once up front and
/// replayed through the identity scan — `prepare` is deterministic, and
/// hoisting it keeps the exact policy's enumeration search out of the
/// per-world loop.
fn expected_policy_cost(num_objects: usize, order: &[ScoredPair], mode: OrderingMode) -> f64 {
    let we = WorldEnumeration::new(num_objects, order).expect("instance fits enumeration");
    let (order, mode) = if mode.policy().online() {
        (order.to_vec(), mode)
    } else {
        (mode.policy().prepare(num_objects, order.to_vec()), OrderingMode::Likelihood)
    };
    we.worlds()
        .iter()
        .map(|w| w.probability * cost_in_world(num_objects, &order, mode, &we, &w.labels) as f64)
        .sum()
}

/// Random connected-ish instance: `n` objects, each of the C(n,2) pairs
/// kept with probability ~1/2 (capped at `max_pairs`), likelihoods in
/// (0.05, 0.95), returned in likelihood-descending order as the engine
/// would receive them.
fn random_instance(rng: &mut SplitMix64, n: u32, max_pairs: usize) -> Vec<ScoredPair> {
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.next_u64().is_multiple_of(2) && pairs.len() < max_pairs {
                pairs.push(ScoredPair::new(Pair::new(i, j), 0.05 + 0.9 * rng.next_f64()));
            }
        }
    }
    pairs.sort_by(|a, b| b.likelihood.total_cmp(&a.likelihood));
    pairs
}

/// The pinned ablation factor: across the paper's Example 4 triangle and
/// 40 random ≤16-pair instances, the online ranker's exact expected cost
/// never exceeds 1.25× the exact policy's. The slack absorbs the two ways
/// online can legitimately trail exact: it pays for round-0 questions
/// before any structure exists, and past `EXACT_ORDER_MAX_PAIRS` the two
/// policies optimize different things. Measured headroom on this seed is
/// well under 1.1×; 1.25 keeps the pin insensitive to float jitter.
const ABLATION_FACTOR: f64 = 1.25;

#[test]
fn online_expected_cost_is_within_factor_of_exact() {
    // The paper's Example 4: likelihoods 0.9 / 0.5 / 0.1 on a triangle.
    let example4 = vec![
        ScoredPair::new(Pair::new(0, 1), 0.9),
        ScoredPair::new(Pair::new(1, 2), 0.5),
        ScoredPair::new(Pair::new(0, 2), 0.1),
    ];
    let mut instances: Vec<(usize, Vec<ScoredPair>)> = vec![(3, example4)];

    let mut rng = SplitMix64::new(911);
    while instances.len() < 36 {
        // Mostly small instances (the exact policy truly optimizes there),
        // plus some past the exact optimizer's 12-pair ceiling to pin the
        // fallback behavior too.
        let n = 4 + (rng.next_u64() % 4) as u32; // 4..=7 objects
        let max_pairs = if instances.len() % 6 == 5 { 16 } else { 10 };
        let pairs = random_instance(&mut rng, n, max_pairs);
        if pairs.len() >= 3 {
            instances.push((n as usize, pairs));
        }
    }

    let mut worst: f64 = 0.0;
    for (i, (num_objects, order)) in instances.iter().enumerate() {
        let exact = expected_policy_cost(*num_objects, order, OrderingMode::Exact);
        let online = expected_policy_cost(*num_objects, order, OrderingMode::Online);
        assert!(exact > 0.0, "instance {i}: non-empty instance has positive cost");
        let ratio = online / exact;
        worst = worst.max(ratio);
        assert!(
            online <= ABLATION_FACTOR * exact + 1e-9,
            "instance {i} ({} pairs): online expected cost {online:.4} exceeds \
             {ABLATION_FACTOR} x exact {exact:.4}",
            order.len()
        );
    }
    // The pin must actually have headroom — if the worst ratio creeps past
    // ~1.1 the ranker regressed even though the hard bound still holds.
    assert!(worst < 1.15, "worst online/exact ratio {worst:.4} is drifting toward the bound");
}

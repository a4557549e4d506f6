//! # crowdjoin-core — transitive-relation labeling for crowdsourced joins
//!
//! This crate implements the primary contribution of *Leveraging Transitive
//! Relations for Crowdsourced Joins* (Wang, Li, Kraska, Franklin, Feng —
//! SIGMOD 2013, revised 2014): given a machine-generated set of candidate
//! matching pairs, obtain a label for **every** pair while **crowdsourcing as
//! few pairs as possible**, by deducing the rest through positive and
//! negative transitivity.
//!
//! ## Components
//!
//! * **Sorting** ([`sort`]) — labeling orders: the theoretical optimum
//!   (matching pairs first, Theorem 1), the practical likelihood-descending
//!   heuristic, plus random/worst baselines for experiments.
//! * **Labeling** ([`sequential`], [`parallel`], [`labeler`]) — the
//!   one-pair-at-a-time labeler and the parallel labeler (Algorithms 2/3)
//!   that publishes every pair provably needing crowdsourcing, supporting
//!   the *instant decision* and *non-matching first* optimizations through
//!   its event-driven API. Deduction after each answer is incremental
//!   ([`closure`]), and the publish order is a pluggable policy
//!   ([`ordering`]).
//! * **Baseline** ([`baseline`]) — the non-transitive labeler prior systems
//!   use (crowdsource everything).
//! * **Analysis** ([`analysis`], [`expected`]) — closed-form optimal cost and
//!   exact expected-cost evaluation over consistent worlds (Example 4),
//!   including brute-force search for the expected-optimal order on small
//!   instances (the general problem is NP-hard; Vesdapunt et al. 2014).
//! * **Quality** ([`metrics`]) — precision/recall/F-measure as defined in
//!   Section 6.4.
//!
//! ## Quick start
//!
//! ```
//! use crowdjoin_core::{
//!     CandidateSet, GroundTruth, GroundTruthOracle, LabelingTask, Pair, ScoredPair,
//!     SortStrategy,
//! };
//!
//! // Three records that all refer to one entity ("iPad 2nd Gen" ≅ "iPad Two"
//! // ≅ "iPad 2"), with machine likelihoods.
//! let truth = GroundTruth::from_clusters(3, &[vec![0, 1, 2]]);
//! let candidates = CandidateSet::new(3, vec![
//!     ScoredPair::new(Pair::new(0, 1), 0.9),
//!     ScoredPair::new(Pair::new(1, 2), 0.8),
//!     ScoredPair::new(Pair::new(0, 2), 0.7),
//! ]);
//!
//! let task = LabelingTask::new(candidates);
//! let mut crowd = GroundTruthOracle::new(&truth);
//! let result = task.run_sequential(SortStrategy::ExpectedLikelihood, &mut crowd);
//!
//! // The third pair is deduced by positive transitivity — only two pairs
//! // cost money.
//! assert_eq!(result.num_crowdsourced(), 2);
//! assert_eq!(result.num_deduced(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baseline;
pub mod budget;
pub mod closure;
pub mod expected;
pub mod framework;
pub mod labeler;
pub mod metrics;
pub mod one_to_one;
pub mod oracle;
pub mod ordering;
pub mod parallel;
pub mod resolution;
pub mod result;
pub mod sequential;
pub mod sort;
pub mod truth;
pub mod types;

pub use analysis::{optimal_cost, OptimalCost};
pub use baseline::label_non_transitive;
pub use budget::{label_with_budget, BudgetedResult};
pub use closure::IncrementalClosure;
pub use expected::{
    estimate_expected_cost, is_consistent, World, WorldEnumeration, MAX_ENUMERABLE_PAIRS,
};
pub use framework::LabelingTask;
pub use labeler::ParallelLabeler;
pub use metrics::QualityMetrics;
pub use one_to_one::{enforce_one_to_one, OneToOneDeducer, OneToOneOutcome};
pub use oracle::{FixedOracle, GroundTruthOracle, NoisyOracle, Oracle};
pub use ordering::{
    exact_expected_order, ExactExpected, LikelihoodDescending, OnlineExpected, OrderingMode,
    OrderingPolicy,
};
pub use parallel::{run_parallel_rounds, ParallelRunStats};
pub use resolution::{resolve_entities, EntityResolution};
pub use result::LabelingResult;
pub use sequential::label_sequential;
pub use sort::{sort_pairs, SortStrategy};
pub use truth::GroundTruth;
pub use types::{CandidateSet, Label, LabeledPair, Pair, Provenance, ScoredPair};

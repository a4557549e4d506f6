//! The three workloads and their set-up: generate a dataset from the seed,
//! then write it out as the CSV text a user would hand to
//! `crowdjoin dedup` (one file) or `crowdjoin join` (two files).

use crowdjoin::matcher::MatcherConfig;
use crowdjoin::records::{
    generate_paper, generate_product, table_to_csv, PaperGenConfig, ProductGenConfig, Table,
};
use crowdjoin::sim::PlatformConfig;
use crowdjoin::util::derive_seed;
use crowdjoin::GroundTruth;

/// Matcher floor and labeling threshold of every workload.
pub const FLOOR: f64 = 0.3;
/// Matcher threads, shards and engine threads: the 2-core host budget.
pub const THREADS: usize = 2;

/// Who answers the crowd questions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crowd {
    /// Perfect synchronous oracle (`SharedGroundTruth`) behind
    /// `run_sharded_with_oracle`.
    Oracle,
    /// Noisy AMT-like simulated crowd on the event loop, instant decision,
    /// answer journal on.
    Amt,
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Abt-Buy-shaped cross join with `per_side` records in each table.
    ProductCross { per_side: usize },
    /// Cora-shaped self join.
    PaperSelf { records: usize },
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    shape: Shape,
    pub crowd: Crowd,
}

pub const NAMES: [&str; 3] = ["product_cross_50k", "product_amt_14k", "paper_self_40k"];

impl Workload {
    /// The workload called `name`; `tiny` shrinks it to a size that runs in
    /// well under a second (the self-test uses it).
    pub fn by_name(name: &str, tiny: bool) -> Option<Self> {
        let (shape, crowd) = match name {
            "product_cross_50k" => {
                (Shape::ProductCross { per_side: if tiny { 400 } else { 25_000 } }, Crowd::Oracle)
            }
            "product_amt_14k" => {
                (Shape::ProductCross { per_side: if tiny { 300 } else { 7_000 } }, Crowd::Amt)
            }
            "paper_self_40k" => {
                (Shape::PaperSelf { records: if tiny { 800 } else { 40_000 } }, Crowd::Oracle)
            }
            _ => return None,
        };
        let name = NAMES.into_iter().find(|&n| n == name)?;
        Some(Self { name, shape, crowd })
    }

    pub fn matcher(&self) -> MatcherConfig {
        let base = match self.shape {
            Shape::ProductCross { .. } => {
                MatcherConfig { field_weights: vec![1.0, 0.25], ..MatcherConfig::for_arity(2) }
            }
            Shape::PaperSelf { .. } => MatcherConfig::for_arity(5),
        };
        MatcherConfig { min_likelihood: FLOOR, threads: THREADS, ..base }
    }

    /// The simulated crowd of the `Amt` workload.
    pub fn platform(&self, seed: u64) -> PlatformConfig {
        PlatformConfig { num_workers: 120, ..PlatformConfig::amt_like(derive_seed(seed, 2)) }
    }

    /// Generates the dataset and writes its CSV text.
    pub fn setup(&self, seed: u64) -> Input {
        let dataset = match self.shape {
            Shape::ProductCross { per_side } => {
                generate_product(&ProductGenConfig { seed, ..ProductGenConfig::scaled(per_side) })
            }
            Shape::PaperSelf { records } => generate_paper(&PaperGenConfig {
                num_records: records,
                seed,
                ..PaperGenConfig::default()
            }),
        };
        let csv = match dataset.split {
            Some(split) => {
                let side = |range: std::ops::Range<usize>| {
                    let mut t = Table::new(dataset.table.schema().clone());
                    for r in &dataset.table.records()[range] {
                        t.push(r.clone());
                    }
                    table_to_csv(&t)
                };
                vec![side(0..split), side(split..dataset.len())]
            }
            None => vec![table_to_csv(&dataset.table)],
        };
        Input { csv, truth: GroundTruth::new(dataset.entity_of) }
    }
}

/// What the program under test receives: CSV text (one file for a self
/// join, left and right files for a cross join) and the ground truth the
/// crowd answers from.
pub struct Input {
    pub csv: Vec<String>,
    pub truth: GroundTruth,
}

impl Input {
    /// Digest of the CSV bytes, to check that set-up is deterministic.
    pub fn digest(&self) -> u64 {
        crowdjoin::wal::fnv1a64(self.csv.iter().flat_map(|t| t.bytes().chain([0u8])))
    }
}

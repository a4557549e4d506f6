//! One job, as `crowdjoin dedup|join` runs it: parse CSV → tokenize →
//! tf-idf → prefix + probe → candidate task → order → engine (partition +
//! label against the crowd, journal on the platform path). Every layer is
//! reached through its public function, timed from here.

use crate::probe::{thread_index, CrowdLog, TimedFactory, TimedOracle};
use crate::workload::{Crowd, Input, Workload, FLOOR, THREADS};
use crowdjoin::matcher::{
    generate_candidates_prepared, ScoredCandidate, TfIdfIndex, TokenizedCorpus,
};
use crowdjoin::obs::metrics::MetricValue;
use crowdjoin::obs::snapshot_metrics;
use crowdjoin::records::{table_from_csv, Dataset};
use crowdjoin::{
    sort_pairs, to_candidate_set, Engine, EngineConfig, EngineReport, ScoredPair,
    SharedGroundTruth, SortStrategy,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A span the benchmark records around one layer call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub thread: u32,
    pub start: Instant,
    pub end: Instant,
}

/// Wall time of each layer call of one job, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    pub parse: f64,
    pub tokenize: f64,
    pub tfidf: f64,
    /// Prefix-index build: the job's delta of the `matcher.prefix.us`
    /// counter.
    pub prefix: f64,
    /// The rest of the `generate_candidates_prepared` call.
    pub probe: f64,
    pub task: f64,
    pub sort: f64,
    /// The whole engine call (partition, label rounds, crowd calls).
    pub engine: f64,
}

/// Everything a job leaves for the checks and metrics.
pub struct JobRun {
    /// CSV text to the complete labeled result.
    pub job_s: f64,
    pub started: Instant,
    pub engine_started: Instant,
    pub layers: LayerTimes,
    pub spans: Vec<Span>,
    pub num_objects: usize,
    pub raw_candidates: Vec<ScoredCandidate>,
    pub blocks: u64,
    pub blocks_pos_on: u64,
    pub order: Vec<ScoredPair>,
    pub report: EngineReport,
    pub calls: Vec<crate::probe::Call>,
}

fn counter(name: &str) -> u64 {
    snapshot_metrics()
        .into_iter()
        .filter(|m| m.name == name)
        .map(|m| match m.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

struct Recorder {
    traced: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// Times one layer call; keeps its span only when tracing.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = black_box(f());
        let end = Instant::now();
        if self.traced {
            self.spans.push(Span { name, thread: thread_index(), start, end });
        }
        (out, (end - start).as_secs_f64())
    }
}

/// Runs one job on `input`. `journal` is the answer journal of the
/// platform path; it must not exist yet.
pub fn run(w: &Workload, seed: u64, input: &Input, journal: &Path, traced: bool) -> JobRun {
    let mut rec = Recorder { traced, spans: Vec::new() };
    let matcher = w.matcher();
    crowdjoin::obs::reset_metrics();
    let started = Instant::now();

    let (dataset, parse) = rec.time("records.parse", || parse_input(input));
    let (corpus, tokenize) =
        rec.time("matcher.tokenize", || TokenizedCorpus::build_threaded(&dataset, matcher.threads));
    let (tfidf, tfidf_s) = rec.time("matcher.tfidf", || {
        TfIdfIndex::from_corpus_threaded(&corpus, &matcher.field_weights, matcher.threads)
    });
    let (raw_candidates, candidates_s) = rec.time("matcher.candidates", || {
        generate_candidates_prepared(&dataset, &corpus, &tfidf, &matcher)
    });
    let prefix = counter("matcher.prefix.us") as f64 / 1e6;
    let (candidates, task) = rec.time("pipeline.task", || {
        to_candidate_set(&dataset, &raw_candidates).above_threshold(FLOOR)
    });
    let (order, sort) =
        rec.time("core.sort", || sort_pairs(&candidates, SortStrategy::ExpectedLikelihood));
    let num_objects = candidates.num_objects();

    let engine_cfg = EngineConfig {
        num_shards: THREADS,
        num_threads: THREADS,
        seed: crowdjoin::util::derive_seed(seed, 3),
        ..EngineConfig::default()
    };
    let log = Arc::new(CrowdLog::default());
    let engine_started = Instant::now();
    let (report, engine) = match w.crowd {
        Crowd::Oracle => rec.time("engine.run", || {
            let oracle = TimedOracle::new(SharedGroundTruth::new(&input.truth), &log);
            crowdjoin::run_sharded_with_oracle(num_objects, &order, &oracle, &engine_cfg)
        }),
        Crowd::Amt => {
            let platform = w.platform(seed);
            let cfg = EngineConfig { journal: Some(journal.to_path_buf()), ..engine_cfg };
            let factory = TimedFactory::new(Arc::clone(&log), traced);
            rec.time("engine.run", || {
                Engine::new(num_objects, &order, &input.truth, &platform, cfg)
                    .run_with_backend(&factory)
                    .expect("journal path is fresh")
            })
        }
    };
    let job_s = started.elapsed().as_secs_f64();

    let blocks = counter("matcher.blocks");
    let blocks_pos_on = counter("matcher.blocks.pos_on");
    JobRun {
        job_s,
        started,
        engine_started,
        layers: LayerTimes {
            parse,
            tokenize,
            tfidf: tfidf_s,
            prefix,
            probe: candidates_s - prefix,
            task,
            sort,
            engine,
        },
        spans: rec.spans,
        num_objects,
        raw_candidates,
        blocks,
        blocks_pos_on,
        order,
        report,
        calls: log.take(),
    }
}

/// Parses the CSV text the way the CLI does: one table for `dedup`; for
/// `join`, left and right tables with equal headers, concatenated, with
/// the split at the left table's end.
fn parse_input(input: &Input) -> Dataset {
    let mut tables = input.csv.iter().map(|text| table_from_csv(text).expect("generated CSV"));
    let mut table = tables.next().expect("at least one CSV file");
    let split = match tables.next() {
        Some(right) => {
            assert_eq!(table.schema(), right.schema(), "join sides have one schema");
            let split = table.len();
            for r in right.records() {
                table.push(r.clone());
            }
            Some(split)
        }
        None => None,
    };
    let n = table.len();
    Dataset { table, entity_of: (0..n as u32).collect(), split, name: "bench".to_string() }
}

/// Seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

/// Union length of a set of intervals, in seconds.
pub fn covered(mut intervals: Vec<(Instant, Instant)>) -> f64 {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Instant, Instant)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total.as_secs_f64()
}

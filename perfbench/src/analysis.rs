//! What a job's outputs and probe records mean: output checks with
//! digests, the end-to-end and per-layer metrics, and the printed report.

use crate::calib;
use crate::job::{covered, secs, JobRun, LayerTimes};
use crate::probe::{Call, Kind};
use crate::workload::{Crowd, Input, Workload, THREADS};
use crate::Args;
use crowdjoin::engine::partition_candidates;
use crowdjoin::wal::{fnv1a64, read_journal, Record};
use crowdjoin::{Label, Pair, Provenance, QualityMetrics};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Price model of the AMT-like crowd, used to price oracle questions too:
/// pairs per HIT, assignments per HIT, cents per assignment.
const HIT_PAIRS: usize = 20;
const HIT_ASSIGNMENTS: usize = 3;
const ASSIGNMENT_CENTS: usize = 2;

/// Origin of every timestamp in the written trace.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The trace origin; the first call fixes it.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// One event of the written trace (microseconds since [`EPOCH`]).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    name: &'static str,
    thread: u32,
    ts_us: f64,
    dur_us: f64,
    size: usize,
}

/// Named pass/fail output checks.
#[derive(Debug, Default)]
pub struct Checks {
    results: Vec<(String, bool)>,
}

impl Checks {
    pub fn add(&mut self, name: &str, ok: bool) {
        if !ok {
            eprintln!("perfbench: check failed: {name}");
        }
        self.results.push((name.to_string(), ok));
    }

    pub fn attempted(&self) -> usize {
        self.results.len()
    }

    pub fn failed(&self) -> usize {
        self.results.iter().filter(|(_, ok)| !ok).count()
    }
}

/// The numbers one job leaves once its outputs are checked.
#[derive(Debug)]
pub struct JobSummary {
    pub traced: bool,
    job_s: f64,
    first_question_s: f64,
    latencies_ms: Vec<f64>,
    questions: usize,
    cost_cents: f64,
    crowd_hours: f64,
    f1: f64,
    records: usize,
    pairs: usize,
    layers: LayerTimes,
    /// Union of the crowd calls' intervals (traced jobs only).
    crowd_s: f64,
    rounds: usize,
    shard_skew: f64,
    deduced_share: f64,
    partition_s: f64,
    components: usize,
    largest_shard_share: f64,
    candidates: usize,
    pos_on_share: f64,
    hits: usize,
    waste: f64,
    conflicts: usize,
    wal_answers: usize,
    wal_bytes: u64,
    candidate_digest: u64,
    label_digest: u64,
    checks: Vec<(&'static str, bool)>,
    pub trace: Vec<TraceEvent>,
}

/// Checks one job's outputs and derives its metrics.
pub fn summarize(
    w: &Workload,
    input: &Input,
    run: JobRun,
    journal: &Path,
    traced: bool,
    inject_wrong_label: bool,
) -> JobSummary {
    let report = &run.report;
    let pairs = run.order.len();

    // The engine's partition, as a standalone call on the same inputs. It
    // also maps an oracle call's first pair to its shard.
    let t = Instant::now();
    let partition = partition_candidates(run.num_objects, &run.order, THREADS);
    let partition_s = t.elapsed().as_secs_f64();
    let mut shard_of = vec![usize::MAX; run.num_objects];
    for shard in &partition.shards {
        for &o in &shard.objects {
            shard_of[o as usize] = shard.index;
        }
    }
    let largest = partition.shards.iter().map(|s| s.pairs.len()).max().unwrap_or(0);

    let mut calls = run.calls;
    for c in &mut calls {
        if let (None, Some(p)) = (c.shard, c.first) {
            c.shard = Some(shard_of[p.a() as usize]);
        }
    }
    let rounds = calls.iter().filter(|c| matches!(c.kind, Kind::Ask | Kind::Post)).count();
    let asked: usize =
        calls.iter().filter(|c| matches!(c.kind, Kind::Ask | Kind::Post)).map(|c| c.size).sum();
    let first_publish =
        calls.iter().filter(|c| matches!(c.kind, Kind::Ask | Kind::Post)).map(|c| c.start).min();
    let (latencies_ms, machine) = publish_latencies(&calls, run.engine_started);
    let shard_skew = if machine.is_empty() {
        1.0
    } else {
        let max = machine.values().copied().fold(0.0, f64::max);
        let mean = machine.values().sum::<f64>() / machine.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    };
    let crowd_s =
        if traced { covered(calls.iter().map(|c| (c.start, c.end)).collect()) } else { 0.0 };

    // The labels as the job output them, sorted by pair; the injected
    // fault flips the first crowdsourced one.
    let mut labels: Vec<(Pair, Label, Provenance)> =
        report.result.labeled_pairs().iter().map(|lp| (lp.pair, lp.label, lp.provenance)).collect();
    labels.sort_by_key(|l| l.0);
    if inject_wrong_label {
        if let Some(l) = labels.iter_mut().find(|l| l.2 == Provenance::Crowdsourced) {
            l.1 = flip(l.1);
        }
    }
    let label_digest = fnv1a64(labels.iter().flat_map(|(p, l, v)| {
        let mut b = [0u8; 10];
        b[..4].copy_from_slice(&p.a().to_le_bytes());
        b[4..8].copy_from_slice(&p.b().to_le_bytes());
        b[8] = u8::from(*l == Label::Matching);
        b[9] = u8::from(*v == Provenance::Crowdsourced);
        b
    }));
    let candidate_digest = fnv1a64(run.raw_candidates.iter().flat_map(|c| {
        let mut b = [0u8; 16];
        b[..4].copy_from_slice(&c.a.to_le_bytes());
        b[4..8].copy_from_slice(&c.b.to_le_bytes());
        b[8..].copy_from_slice(&c.likelihood.to_bits().to_le_bytes());
        b
    }));

    let mut checks = Vec::new();
    let candidate_set: BTreeSet<Pair> = run.order.iter().map(|sp| sp.pair).collect();
    let labeled: Vec<Pair> = labels.iter().map(|l| l.0).collect();
    let once = labeled.windows(2).all(|w| w[0] < w[1])
        && labeled.iter().eq(&candidate_set)
        && candidate_set.len() == pairs;
    checks.push(("every candidate pair is labeled exactly once", once));
    checks.push((
        "crowdsourced + deduced = pairs",
        report.num_crowdsourced() + report.num_deduced() == pairs,
    ));
    let questions = match w.crowd {
        Crowd::Oracle => report.num_crowdsourced(),
        Crowd::Amt => report.num_crowd_answers(),
    };
    checks.push(("the crowd probe saw every question", asked == questions));

    let (mut wal_answers, mut wal_bytes) = (0, 0);
    match w.crowd {
        Crowd::Oracle => {
            let truth_ok = labels.iter().all(|(p, l, _)| input.truth.label_of(*p) == *l);
            checks.push(("labels equal ground truth", truth_ok));
        }
        Crowd::Amt => {
            let answers: BTreeMap<Pair, bool> = match read_journal(journal) {
                Ok(contents) => {
                    wal_bytes = std::fs::metadata(journal).map(|m| m.len()).unwrap_or(0);
                    contents
                        .records
                        .iter()
                        .filter_map(|r| match r {
                            Record::Answer(a) => {
                                wal_answers += 1;
                                Some((Pair::new(a.a, a.b), a.matching))
                            }
                            _ => None,
                        })
                        .collect()
                }
                Err(e) => {
                    eprintln!("perfbench: journal {}: {e}", journal.display());
                    BTreeMap::new()
                }
            };
            checks.push((
                "journal answer records = num_crowd_answers",
                wal_answers == report.num_crowd_answers() && wal_answers > 0,
            ));
            // A crowdsourced pair keeps its journaled answer unless the
            // answer contradicted an earlier deduction: then the labeler
            // keeps the deduced label and counts one conflict.
            let crowd_labels = labels.iter().filter(|l| l.2 == Provenance::Crowdsourced);
            let journaled = crowd_labels.clone().all(|(p, _, _)| answers.contains_key(p));
            let overruled = crowd_labels
                .filter(|(p, l, _)| answers.get(p) != Some(&(*l == Label::Matching)))
                .count();
            checks.push((
                "crowdsourced labels equal the journaled answers, but for the conflicts",
                journaled && overruled == report.result.num_conflicts(),
            ));
        }
    }

    let f1 =
        QualityMetrics::evaluate(labels.iter().map(|(p, l, _)| (*p, *l)), &input.truth).f_measure();
    let (cost_cents, crowd_hours, hits) = match w.crowd {
        Crowd::Oracle => {
            let hits: usize = calls
                .iter()
                .filter(|c| c.kind == Kind::Ask)
                .map(|c| c.size.div_ceil(HIT_PAIRS))
                .sum();
            ((hits * HIT_ASSIGNMENTS * ASSIGNMENT_CENTS) as f64, 0.0, 0)
        }
        Crowd::Amt => {
            let hits = report.shards.iter().filter_map(|s| s.stats).map(|s| s.hits_published).sum();
            (report.total_cost_cents as f64, report.completion.as_hours(), hits)
        }
    };

    let trace = if traced { trace_events(&run.spans, &calls) } else { Vec::new() };
    JobSummary {
        traced,
        job_s: run.job_s,
        first_question_s: first_publish.map_or(run.job_s, |t| secs(run.started, t)),
        latencies_ms,
        questions,
        cost_cents,
        crowd_hours,
        f1,
        records: run.num_objects,
        pairs,
        layers: run.layers,
        crowd_s,
        rounds,
        shard_skew,
        deduced_share: report.num_deduced() as f64 / pairs.max(1) as f64,
        partition_s,
        components: partition.num_components,
        largest_shard_share: largest as f64 / pairs.max(1) as f64,
        candidates: run.raw_candidates.len(),
        pos_on_share: if run.blocks == 0 {
            0.0
        } else {
            run.blocks_pos_on as f64 / run.blocks as f64
        },
        hits,
        waste: report.partial_hit_waste(),
        conflicts: report.result.num_conflicts(),
        wal_answers,
        wal_bytes,
        candidate_digest,
        label_digest,
        checks,
        trace,
    }
}

fn flip(l: Label) -> Label {
    match l {
        Label::Matching => Label::NonMatching,
        Label::NonMatching => Label::Matching,
    }
}

/// Publish latency samples (ms): for every publish that follows an answer
/// delivery on the same shard, the machine time from the latest delivery
/// to it. Also each shard's machine time: the lead to its first publish
/// plus its latencies, in seconds.
fn publish_latencies(calls: &[Call], engine_started: Instant) -> (Vec<f64>, BTreeMap<usize, f64>) {
    let mut latencies = Vec::new();
    let mut machine: BTreeMap<usize, f64> = BTreeMap::new();
    let mut last_delivery: BTreeMap<usize, Option<Instant>> = BTreeMap::new();
    for c in calls {
        let Some(shard) = c.shard else { continue };
        let publishes = matches!(c.kind, Kind::Ask | Kind::Post);
        let last = last_delivery.entry(shard).or_insert(None);
        if publishes {
            let since = match last.take() {
                Some(d) => {
                    let s = secs(d, c.start);
                    latencies.push(s * 1e3);
                    s
                }
                None if !machine.contains_key(&shard) => secs(engine_started, c.start),
                None => 0.0,
            };
            *machine.entry(shard).or_insert(0.0) += since;
        }
        if matches!(c.kind, Kind::Ask | Kind::Deliver) {
            *last = Some(c.end);
        }
    }
    (latencies, machine)
}

fn trace_events(spans: &[crate::job::Span], calls: &[Call]) -> Vec<TraceEvent> {
    let origin = epoch();
    let us = |t: Instant| secs(origin, t) * 1e6;
    let mut out: Vec<TraceEvent> = spans
        .iter()
        .map(|s| TraceEvent {
            name: s.name,
            thread: s.thread,
            ts_us: us(s.start),
            dur_us: secs(s.start, s.end) * 1e6,
            size: 0,
        })
        .collect();
    out.extend(calls.iter().map(|c| TraceEvent {
        name: match c.kind {
            Kind::Ask => "crowd.ask",
            Kind::Post => "crowd.post",
            Kind::Deliver => "crowd.deliver",
            Kind::Poll => "crowd.poll",
            Kind::Query => "crowd.query",
        },
        thread: c.thread,
        ts_us: us(c.start),
        dur_us: secs(c.start, c.end) * 1e6,
        size: c.size,
    }));
    out
}

/// Writes the traced jobs' spans as a Chrome trace-event file.
pub fn write_trace(path: &Path, jobs: &[Vec<TraceEvent>]) -> Result<(), String> {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (job, events) in jobs.iter().enumerate() {
        for e in events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{job},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"size\":{}}}}}",
                e.name, e.thread, e.ts_us, e.dur_us, e.size
            );
        }
    }
    out.push_str("\n]}\n");
    write_file(path, &out)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Whether two set-ups produced the same inputs.
pub fn same_input(a: &Input, b: &Input) -> bool {
    a.digest() == b.digest() && a.truth == b.truth
}

/// Per-job checks plus the cross-job ones: repeated jobs on one input
/// must give the same candidates, labels and question count.
pub fn check_jobs(jobs: &[JobSummary], checks: &mut Checks) {
    for j in jobs {
        for (name, ok) in &j.checks {
            checks.add(name, *ok);
        }
    }
    let first = &jobs[0];
    for j in &jobs[1..] {
        checks.add(
            "a repeated job gives the same candidate digest",
            j.candidate_digest == first.candidate_digest,
        );
        checks.add(
            "a repeated job gives the same label digest and questions",
            j.label_digest == first.label_digest && j.questions == first.questions,
        );
    }
}

/// Median; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile, `q` in [0, 1]; 0 for no values.
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One metric as reported.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

/// The run's result: metrics, checks, digests, host.
pub struct Report {
    header: String,
    metrics: Vec<Metric>,
    layer_table: Vec<String>,
    attempted: usize,
    failed: usize,
    json_extra: String,
}

impl Report {
    pub fn new(
        w: &Workload,
        args: &Args,
        setup_times: &[f64],
        reference_times: &[f64],
        jobs: &[JobSummary],
        checks: &Checks,
    ) -> Self {
        let untraced: Vec<&JobSummary> = jobs.iter().filter(|j| !j.traced).collect();
        let traced: Vec<&JobSummary> = jobs.iter().filter(|j| j.traced).collect();
        let med = |js: &[&JobSummary], f: &dyn Fn(&JobSummary) -> f64| {
            median(&js.iter().map(|j| f(j)).collect::<Vec<_>>())
        };
        let list = |js: &[&JobSummary], f: &dyn Fn(&JobSummary) -> f64| {
            js.iter().take(8).map(|j| format!("{:.4}", f(j))).collect::<Vec<_>>().join(", ")
        };
        let first = &jobs[0];
        // End-to-end times are scaled to the nominal host speed (see
        // `calib`); the raw medians go into the notes and the record.
        let reference_s = median(reference_times);
        let scale = calib::NOMINAL_S / reference_s;
        let raw_job_s = med(&untraced, &|j| j.job_s);
        let raw_first_s = med(&untraced, &|j| j.first_question_s);
        let raw_setup_s = median(setup_times);
        let passed_share = 1.0 - checks.failed() as f64 / checks.attempted().max(1) as f64;
        let mut metrics = Vec::new();
        let mut add =
            |name, value, unit, note: String| metrics.push(Metric { name, value, unit, note });
        let mut layer_table = Vec::new();
        if !args.trace {
            let n = untraced.len();
            add(
                "job_s",
                raw_job_s * scale,
                "s",
                format!(
                    "{raw_job_s:.4} s × {scale:.4}; median of {n} jobs: {}",
                    list(&untraced, &|j| j.job_s)
                ),
            );
            add(
                "first_question_s",
                raw_first_s * scale,
                "s",
                format!(
                    "{raw_first_s:.4} s × {scale:.4}; median of {n} jobs: {}",
                    list(&untraced, &|j| j.first_question_s)
                ),
            );
            add(
                "questions",
                med(&untraced, &|j| j.questions as f64),
                "count",
                format!("of {} candidate pairs", first.pairs),
            );
            let priced = if w.crowd == Crowd::Oracle {
                "oracle batches priced as AMT-like HITs"
            } else {
                "platform spend"
            };
            add("cost_cents", med(&untraced, &|j| j.cost_cents), "cents", priced.to_string());
            add(
                "f1",
                med(&untraced, &|j| j.f1),
                "ratio",
                "labels against ground truth".to_string(),
            );
            add(
                "checks_passed_share",
                passed_share,
                "ratio",
                format!("{} checks, {} failed", checks.attempted(), checks.failed()),
            );
            add("peak_rss_mb", peak_rss_mb(), "MB", "process high-water mark".to_string());
            add(
                "setup_s",
                raw_setup_s * scale,
                "s",
                format!(
                    "{raw_setup_s:.4} s × {scale:.4}; median of {} set-ups: {}",
                    setup_times.len(),
                    setup_times.iter().map(|t| format!("{t:.4}")).collect::<Vec<_>>().join(", ")
                ),
            );
        } else {
            let t = &traced;
            let overhead = med(t, &|j| j.job_s) - med(&untraced, &|j| j.job_s);
            let label = |j: &JobSummary| j.layers.engine - j.crowd_s;
            let attributed = |j: &JobSummary| {
                let l = &j.layers;
                l.parse + l.tokenize + l.tfidf + l.prefix + l.probe + l.task + l.sort + l.engine
            };
            let n = format!("median of {} traced jobs", t.len());
            add("records.parse_s", med(t, &|j| j.layers.parse), "s", n.clone());
            add("matcher.tokenize_s", med(t, &|j| j.layers.tokenize), "s", n.clone());
            add("matcher.tfidf_s", med(t, &|j| j.layers.tfidf), "s", n.clone());
            add(
                "matcher.prefix_s",
                med(t, &|j| j.layers.prefix),
                "s",
                "delta of matcher.prefix.us".to_string(),
            );
            add(
                "matcher.probe_s",
                med(t, &|j| j.layers.probe),
                "s",
                "rest of generate_candidates_prepared".to_string(),
            );
            add(
                "matcher.candidates",
                first.candidates as f64,
                "count",
                "raw matcher output".to_string(),
            );
            add(
                "matcher.blocks_pos_on_share",
                first.pos_on_share,
                "ratio",
                "probe blocks with the positional filter on; 0 when unblocked".to_string(),
            );
            add("pipeline.task_s", med(t, &|j| j.layers.task), "s", n.clone());
            add("core.sort_s", med(t, &|j| j.layers.sort), "s", n.clone());
            add(
                "engine.partition_s",
                med(t, &|j| j.partition_s),
                "s",
                "standalone call, inside engine.label_s".to_string(),
            );
            add("engine.components", first.components as f64, "count", String::new());
            add(
                "engine.largest_shard_share",
                first.largest_shard_share,
                "ratio",
                "pairs in the largest shard".to_string(),
            );
            add("engine.label_s", med(t, &label), "s", "engine call minus crowd calls".to_string());
            add(
                "engine.rounds",
                med(t, &|j| j.rounds as f64),
                "count",
                "publish calls over all shards".to_string(),
            );
            add(
                "engine.pairs_per_round",
                med(t, &|j| j.questions as f64 / j.rounds.max(1) as f64),
                "pairs",
                String::new(),
            );
            let samples: usize = t.iter().map(|j| j.latencies_ms.len()).sum();
            let per_job =
                format!("median over {} jobs of each job's percentile; {samples} samples", t.len());
            add(
                "engine.publish_latency_p50_ms",
                med(t, &|j| percentile(&j.latencies_ms, 0.5)),
                "ms",
                per_job.clone(),
            );
            add(
                "engine.publish_latency_p90_ms",
                med(t, &|j| percentile(&j.latencies_ms, 0.9)),
                "ms",
                per_job,
            );
            add(
                "engine.shard_skew",
                med(t, &|j| j.shard_skew),
                "ratio",
                "max/mean machine time per shard".to_string(),
            );
            add("engine.deduced_share", first.deduced_share, "ratio", String::new());
            add(
                "sim.self_s",
                med(t, &|j| j.crowd_s),
                "s",
                "time inside crowd calls (oracle or simulator)".to_string(),
            );
            add("sim.hits", first.hits as f64, "count", String::new());
            add("sim.waste", first.waste, "ratio", "empty slots of paid HITs".to_string());
            add("sim.conflicts", first.conflicts as f64, "count", String::new());
            add("sim.crowd_hours", first.crowd_hours, "h", "virtual completion time".to_string());
            add("wal.answers", first.wal_answers as f64, "count", String::new());
            add(
                "wal.bytes_per_answer",
                if first.wal_answers == 0 {
                    0.0
                } else {
                    first.wal_bytes as f64 / first.wal_answers as f64
                },
                "B",
                "journal bytes / answer records".to_string(),
            );
            add(
                "obs.trace_overhead_s",
                overhead,
                "s",
                "traced job_s minus untraced job_s".to_string(),
            );
            add(
                "obs.unattributed_s",
                med(t, &|j| j.job_s - attributed(j)),
                "s",
                "job_s minus the layer calls".to_string(),
            );

            // Self-time accounting of the median traced job.
            let job = med(t, &|j| j.job_s);
            let rows: [(&str, f64); 10] = [
                ("records.parse", med(t, &|j| j.layers.parse)),
                ("matcher.tokenize", med(t, &|j| j.layers.tokenize)),
                ("matcher.tfidf", med(t, &|j| j.layers.tfidf)),
                ("matcher.prefix", med(t, &|j| j.layers.prefix)),
                ("matcher.probe", med(t, &|j| j.layers.probe)),
                ("pipeline.task", med(t, &|j| j.layers.task)),
                ("core.sort", med(t, &|j| j.layers.sort)),
                ("engine.label", med(t, &label)),
                ("sim (crowd calls)", med(t, &|j| j.crowd_s)),
                ("unattributed", med(t, &|j| j.job_s - attributed(j))),
            ];
            layer_table.push(format!("self time of the traced job_s = {job:.4} s"));
            for (name, s) in rows {
                layer_table.push(format!("  {name:<20} {s:>9.4} s {:>6.1}%", 100.0 * s / job));
            }
        }
        let header = format!(
            "perfbench {} seed {}: {} records, {} candidate pairs, {} jobs ({} traced)\n\
             digests: candidates {:016x}, labels {:016x}\nhost: {}\n\
             host speed: reference median {reference_s:.4} s of {}, times scaled by \
             {}/{reference_s:.4} = {scale:.4}",
            w.name,
            args.seed,
            first.records,
            first.pairs,
            jobs.len(),
            traced.len(),
            first.candidate_digest,
            first.label_digest,
            args.host,
            reference_times.len(),
            calib::NOMINAL_S,
        );
        let json_extra = format!(
            "\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"host\":{},\"records\":{},\"pairs\":{},\"jobs\":{},\"candidate_digest\":\"{:016x}\",\"label_digest\":\"{:016x}\",\"reference_s\":{reference_s:?},\"host_scale\":{scale:?},\"raw_s\":{{\"job_s\":{raw_job_s:?},\"first_question_s\":{raw_first_s:?},\"setup_s\":{raw_setup_s:?}}},\"samples_s\":{{\"job_s\":{:?},\"first_question_s\":{:?},\"setup_s\":{setup_times:?},\"reference_s\":{reference_times:?}}}",
            w.name, args.seed, args.trace, args.host, first.records, first.pairs, jobs.len(),
            first.candidate_digest, first.label_digest,
            untraced.iter().map(|j| j.job_s).collect::<Vec<_>>(),
            untraced.iter().map(|j| j.first_question_s).collect::<Vec<_>>(),
        );
        Self {
            header,
            metrics,
            layer_table,
            attempted: checks.attempted(),
            failed: checks.failed(),
            json_extra,
        }
    }

    pub fn print_lines(&self) {
        println!("{}", self.header);
        for m in &self.metrics {
            println!("{:<28} {:>14} {:<6} {}", m.name, format!("{:.6}", m.value), m.unit, m.note);
        }
        for line in &self.layer_table {
            println!("{line}");
        }
        println!("checks: {} attempted, {} failed", self.attempted, self.failed);
    }

    /// `"correct", "attempted", "failed", "metrics"` as JSON members.
    fn result_members(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// The contract's result line.
    pub fn last_line(&self) -> String {
        format!("{{{}}}", self.result_members())
    }

    /// The full result record, host fingerprint included.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        write_file(path, &format!("{{{},{}}}\n", self.json_extra, self.result_members()))
    }
}

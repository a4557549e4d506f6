//! End-to-end benchmark of a crowdsourced join, from CSV text to labels.
//!
//! ```text
//! crowdjoin-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                     [--out-dir DIR] [--host JSON] [--tiny] [--inject-wrong-label]
//! ```
//!
//! Sets the workload up, then runs whole jobs while the next one fits in
//! `--seconds`, setting the workload up again after each job and timing
//! the `calib` reference workload after each set-up. Every job's output is
//! checked.
//! With `--trace 0` it reports the end-to-end metrics of the jobs; with
//! `--trace 1` it alternates untraced and traced jobs and reports the
//! per-layer metrics of the traced ones. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! The process exits non-zero when any check fails. `perfbench/README.md`
//! explains the workloads and metrics.

mod analysis;
mod calib;
mod job;
mod probe;
mod workload;

use analysis::{Checks, JobSummary};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

/// Set-ups before the first job. One more follows each job, so the set-up
/// samples, like the jobs, see the host over the whole run; `setup_s` is
/// their median. The reference workload of `calib` runs after each set-up.
const SETUP_FIRST_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    host: String,
    inject_wrong_label: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut host = String::from("{}");
    let (mut tiny, mut inject_wrong_label) = (false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--host" => host = value()?,
            "--tiny" => tiny = true,
            "--inject-wrong-label" => inject_wrong_label = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::by_name(&name, tiny).ok_or(format!(
        "unknown workload {name:?}; expected one of {}",
        workload::NAMES.join(", ")
    ))?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
        host,
        inject_wrong_label,
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(calib::SAMPLE_FLAG) {
        println!("{:?}", calib::reference_s());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when an output check failed.
fn run(args: &Args) -> Result<bool, String> {
    analysis::epoch();
    let w = &args.workload;
    let work = args.out_dir.join("work");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let journal = work.join(format!("{}-{}.wal", w.name, std::process::id()));
    let mut checks = Checks::default();

    // Set-up: generation plus CSV writing. Every repeat must give the same
    // input. Each is followed by a reference-workload sample of host speed.
    let mut setup_times = Vec::new();
    let mut reference_times = Vec::new();
    let mut set_up = || -> Result<_, String> {
        let t = Instant::now();
        let input = std::hint::black_box(w.setup(args.seed));
        setup_times.push(t.elapsed().as_secs_f64());
        reference_times.push(calib::sample()?);
        Ok(input)
    };
    let input = set_up()?;
    for _ in 1..SETUP_FIRST_REPS {
        checks.add("setup is deterministic", analysis::same_input(&input, &set_up()?));
    }

    // Jobs while the next one fits in the time left (judged by the
    // slowest job so far): at least one untraced job, and with tracing one
    // traced job after each untraced one.
    let clock = Instant::now();
    let mut slowest: f64 = 0.0;
    let mut jobs: Vec<JobSummary> = Vec::new();
    let mut spans_out = Vec::new();
    loop {
        let traced = args.trace && jobs.len() % 2 == 1;
        let t = Instant::now();
        let _ = std::fs::remove_file(&journal);
        let run = job::run(w, args.seed, &input, &journal, traced);
        let mut summary =
            analysis::summarize(w, &input, run, &journal, traced, args.inject_wrong_label);
        let _ = std::fs::remove_file(&journal);
        if traced {
            spans_out.push(std::mem::take(&mut summary.trace));
        }
        jobs.push(summary);
        checks.add("setup is deterministic", analysis::same_input(&input, &set_up()?));
        slowest = slowest.max(t.elapsed().as_secs_f64());
        let need_more = args.trace && jobs.len() < 2;
        if !need_more && clock.elapsed().as_secs_f64() + slowest > args.seconds {
            break;
        }
    }
    analysis::check_jobs(&jobs, &mut checks);

    let report = analysis::Report::new(w, args, &setup_times, &reference_times, &jobs, &checks);
    report.print_lines();
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    report.write(&args.out_dir.join("results").join(format!("{stem}.json")))?;
    if args.trace {
        analysis::write_trace(
            &args.out_dir.join("traces").join(format!("{stem}.trace.json")),
            &spans_out,
        )?;
    }
    println!("{}", report.last_line());
    Ok(checks.failed() == 0)
}

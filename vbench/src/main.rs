//! The benchmark command:
//!
//! ```text
//! vbench --workload <alu_dense|loop_batch|deep_paths> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a readable summary, then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use vbench::gen::{Case, Family};
use vbench::run::{self, Runner, Tally};
use vbench::stats::{median_f64, peak_rss_mb};
use vbench::trace::{self, Metric};
use vbench::workloads::Workload;
use vbench::{calib, label};

/// Set-up is repeated until this much time has passed (and at least
/// [`SETUP_MIN_REPS`] times); `setup_s` is the median repetition.
const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// The fewest set-up repetitions.
const SETUP_MIN_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    "usage: vbench --workload <alu_dense|loop_batch|deep_paths> --seed <n> --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}\n{}", usage()))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
    };
    let name = get("--workload")?;
    let workload =
        Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The machine speed as the median of five calibrations.
fn steady_speed() -> f64 {
    let mut speeds: Vec<f64> = (0..5)
        .map(|_| calib::speed(1, run::CALIBRATION).overall)
        .collect();
    median_f64(&mut speeds)
}

/// Generates the corpus and confirms every label in the VM, repeatedly,
/// between two calibrations; returns the last corpus and the median
/// set-up time in reference-machine seconds.
fn setup(workload: Workload, seed: u64) -> Result<(Vec<Case>, f64), String> {
    let mut times = Vec::new();
    let mut corpus = Vec::new();
    let before = steady_speed();
    let start = Instant::now();
    while times.len() < SETUP_MIN_REPS || start.elapsed() < SETUP_BUDGET {
        let t0 = Instant::now();
        corpus = workload.corpus(seed);
        label::check_all(&corpus)?;
        let session = workload.session();
        times.push(t0.elapsed().as_secs_f64());
        drop(session);
    }
    let after = steady_speed();
    Ok((corpus, median_f64(&mut times) * (before + after) / 2.0))
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn family_summary(cases: &[Case], tally: &Tally) -> String {
    let mut out = String::new();
    for family in [
        Family::Safe,
        Family::Relational,
        Family::OutOfBounds,
        Family::UncheckedDeref,
        Family::NonTerminating,
    ] {
        let n = cases.iter().filter(|c| c.family == family).count();
        let accepted = tally
            .verdict_vector()
            .iter()
            .zip(cases)
            .filter(|(v, c)| c.family == family && **v == Some(run::Verdict::Accept))
            .count();
        out.push_str(&format!(
            "  {:<16} {n:>5} programs, {accepted:>5} accepted\n",
            family.name()
        ));
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let (cases, setup_s) = match setup(args.workload, args.seed) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("known-answer check failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} jobs {jobs}: {} programs, labels confirmed in the VM, set-up {setup_s:.4} s",
        args.workload.name(),
        args.seed,
        cases.len()
    );

    if args.trace {
        let out = PathBuf::from(".vbench_trace").join(format!("{}.tsv", args.workload.name()));
        let metrics =
            match trace::traced_run(args.workload, &cases, args.seconds, jobs, args.seed, &out) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("cannot write {}: {e}", out.display());
                    return ExitCode::FAILURE;
                }
            };
        for m in &metrics {
            println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
        }
        println!("spans and census counts written to {}", out.display());
        let census = cases.len().min(trace::CENSUS);
        println!(
            "{{\"correct\": true, \"attempted\": {census}, \"failed\": 0, \"metrics\": {}}}",
            json_metrics(&metrics)
        );
        return ExitCode::SUCCESS;
    }

    let session = args.workload.session();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut runner = Runner::new(&session, &cases, args.workload.batch(), jobs, args.seed);
    let measured = run::measure(&mut runner, budget);
    // Read before the quantiles below allocate their scratch copies.
    let peak_rss = peak_rss_mb();
    let tally = &runner.tally;
    let correct = !tally.inconsistent && tally.memory_unsafe_accepts() == 0;
    let samples = measured.calls();
    let p50 = measured.p50_ms();
    let p99 = measured.p99_ms();
    let beyond = samples - (0.99 * samples as f64).ceil() as usize;
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "programs_per_s",
            value: measured.programs_per_s(),
            unit: "1/s",
        },
        Metric {
            name: "latency_p50_ms",
            value: p50,
            unit: "ms",
        },
        Metric {
            name: "latency_p99_ms",
            value: p99,
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss,
            unit: "MiB",
        },
        Metric {
            name: "unsound_accepts",
            value: tally.unsound_accepts() as f64,
            unit: "count",
        },
        Metric {
            name: "false_rejects",
            value: tally.false_rejects() as f64,
            unit: "count",
        },
        Metric {
            name: "failed_frac",
            value: tally.failed_frac(),
            unit: "ratio",
        },
    ];
    print!("{}", family_summary(&cases, tally));
    println!(
        "  {samples} calls ({} verdicts on {} distinct programs) in {:.3} s of slices; {beyond} samples beyond p99",
        measured.verdicts,
        tally.programs(),
        measured.wall_seconds
    );
    println!(
        "  machine speed {:.4} of the reference (median of {} slices); as measured: {:.1} programs/s",
        median_f64(&mut measured.speeds()),
        measured.speeds().len(),
        measured.raw_programs_per_s()
    );
    if beyond < 10 {
        println!("  warning: fewer than 10 samples beyond p99; raise --seconds");
    }
    for m in &metrics {
        println!("  {:<16} {:>14.6} {}", m.name, m.value, m.unit);
    }
    if !correct {
        println!(
            "  INCORRECT: {} memory-unsafe programs accepted, inconsistent verdicts: {}",
            tally.memory_unsafe_accepts(),
            tally.inconsistent
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.verdicts,
        tally.faults,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}

//! `annotate` — the repo's user-facing verifier tool: assemble a program
//! (from a file or stdin), run the static analyzer, and print either the
//! annotated verifier log or the rejection diagnosis. With `--dir` it
//! instead verifies every `.ebpf` fixture in a directory through the
//! batched engine ([`VerificationSession::run_batch`]) and prints a
//! per-program verdict table plus the throughput roll-up. With
//! `--passes` it skips verification entirely and dumps the static
//! pass framework's facts (`verifier::passes`): per-pc live registers,
//! live stack-slot counts, reaching-definition counts, and
//! dead/unreachable-instruction diagnostics.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin annotate -- --file prog.s \
//!     [--strategy fixpoint|path|parshard] [--ctx-size 64] \
//!     [--strict-alignment] [--no-refine] [--reject-loops] \
//!     [--widen-delay 16] [--unroll-k 32] [--visited-cap 32] \
//!     [--no-thresholds] [--budget 1000000] [--no-liveness] \
//!     [--explore-jobs 4] [--spawn-depth 2] [--deadline-ms 5000] \
//!     [--fail-fast]
//! cargo run -p bench --release --bin annotate -- --dir fixtures \
//!     [--jobs 4] [--strategy path] [--no-liveness] \
//!     [--deadline-ms 5000] [--fail-fast]
//! cargo run -p bench --release --bin annotate -- --passes --file prog.s
//! cargo run -p bench --release --bin annotate -- --passes --dir fixtures
//! cargo run -p bench --release --bin annotate -- --list-helpers
//! echo 'r0 = 0
//! exit' | cargo run -p bench --release --bin annotate
//! ```
//!
//! `--deadline-ms N` bounds each program's analysis wall clock
//! ([`AnalyzerOptions::deadline`]); governance failures — blown
//! deadlines and contained panics — normally walk the degradation
//! ladder (parshard → path → fixpoint) before rejecting, and
//! `--fail-fast` reports them immediately instead
//! ([`DegradationPolicy::FailFast`]). The `TNUM_FAILPOINTS` environment
//! variable installs a deterministic fault plan
//! ([`verifier::failpoint`]) for resilience drills, e.g.
//! `TNUM_FAILPOINTS=parshard-job:panic@3`.
//!
//! Exit status: 0 when every program is accepted, 1 when any is
//! rejected, 2 on assembly or usage errors.

use std::io::Read;
use std::process::ExitCode;

use bench::cli::Args;
use ebpf::asm::assemble;
use ebpf::Program;
use verifier::passes::{solve, ReachingDefs};
use verifier::{
    AnalyzerOptions, Cfg, DegradationPolicy, ProgramPasses, Strategy, VerificationSession,
};

fn main() -> ExitCode {
    let args = Args::parse();
    // Holds the fault plan (if any) armed for the whole run; dropping
    // it at exit disarms the fail points.
    let _failpoints = match verifier::failpoint::arm_from_env() {
        Ok(guard) => guard,
        Err(e) => {
            eprintln!("invalid TNUM_FAILPOINTS: {e}");
            return ExitCode::from(2);
        }
    };
    if args.has("list-helpers") {
        list_helpers();
        return ExitCode::SUCCESS;
    }
    if args.has("passes") {
        return if let Some(dir) = args.get_str("dir") {
            match collect_fixtures(dir) {
                Ok((names, progs)) => run_passes_dir(&names, &progs),
                Err(code) => code,
            }
        } else {
            match read_source(&args) {
                Ok(source) => run_passes_single(&source),
                Err(code) => code,
            }
        };
    }
    let strategy = match args.get_str("strategy") {
        None | Some("fixpoint") => Strategy::WideningFixpoint,
        Some("path") => Strategy::PathSensitive,
        Some("parshard") => Strategy::PathParallel,
        Some(other) => {
            eprintln!("unknown --strategy {other} (expected fixpoint, path, or parshard)");
            return ExitCode::from(2);
        }
    };
    let defaults = AnalyzerOptions::default();
    let options = AnalyzerOptions {
        ctx_size: args.get_u64("ctx-size", 64),
        strict_alignment: args.has("strict-alignment"),
        refine_branches: !args.has("no-refine"),
        reject_loops: args.has("reject-loops"),
        widen_delay: args
            .get_u64("widen-delay", u64::from(defaults.widen_delay))
            .min(u64::from(u32::MAX)) as u32,
        harvest_thresholds: !args.has("no-thresholds"),
        analysis_budget: args.get_u64("budget", defaults.analysis_budget),
        unroll_k: args
            .get_u64("unroll-k", u64::from(defaults.unroll_k))
            .min(u64::from(u32::MAX)) as u32,
        visited_cap: args
            .get_u64("visited-cap", u64::from(defaults.visited_cap))
            .min(u64::from(u32::MAX)) as u32,
        memo_cache: None,
        liveness_pruning: !args.has("no-liveness"),
        explore_jobs: args
            .get_u64("explore-jobs", u64::from(defaults.explore_jobs))
            .min(u64::from(u16::MAX)) as u32,
        spawn_depth: args
            .get_u64("spawn-depth", u64::from(defaults.spawn_depth))
            .min(u64::from(u32::MAX)) as u32,
        deadline: match args.get_u64("deadline-ms", 0) {
            0 => None,
            ms => Some(std::time::Duration::from_millis(ms)),
        },
    };
    let session = VerificationSession::new()
        .with_options(options)
        .with_strategy(strategy)
        .with_degradation(if args.has("fail-fast") {
            DegradationPolicy::FailFast
        } else {
            DegradationPolicy::Ladder
        });

    if let Some(dir) = args.get_str("dir") {
        let jobs = args.get_u64("jobs", 0).min(u64::from(u16::MAX)) as usize;
        return run_dir(&session, dir, jobs);
    }
    run_single(&args, &session)
}

/// `--list-helpers`: the registry the verifier and VM share — every
/// helper signature plus the static map geometry.
fn list_helpers() {
    use ebpf::helpers::{ArgKind, RegionSize, RetKind, DEFAULT_MAPS, HELPERS};
    let region = |size: &RegionSize, writable: bool| {
        let dir = if writable { "writable" } else { "readable" };
        match size {
            RegionSize::KeyOf { arg } => format!("{dir} stack region, key_size of r{}", arg + 1),
            RegionSize::ValueOf { arg } => {
                format!("{dir} stack region, value_size of r{}", arg + 1)
            }
            RegionSize::Fixed(n) => format!("{dir} stack region, {n} bytes"),
        }
    };
    println!("helpers ({}):", HELPERS.len());
    for sig in HELPERS {
        let args: Vec<String> = sig
            .args
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let kind = match a {
                    ArgKind::Scalar => "scalar".to_string(),
                    ArgKind::CtxPtr => "ctx pointer".to_string(),
                    ArgKind::MapHandle => "map handle".to_string(),
                    ArgKind::StackRegion { writable, size } => region(size, *writable),
                };
                format!("r{}: {kind}", i + 1)
            })
            .collect();
        let ret = match sig.ret {
            RetKind::Scalar => "scalar".to_string(),
            RetKind::MapValueOrNull { map_arg } => {
                format!("value pointer into the map of r{} or NULL", map_arg + 1)
            }
        };
        println!(
            "  {:>2}  {:<12} ({}) -> {ret}",
            sig.id,
            sig.name,
            args.join(", ")
        );
    }
    println!("\nmaps ({}):", DEFAULT_MAPS.len());
    for (i, m) in DEFAULT_MAPS.iter().enumerate() {
        println!(
            "  map {i}: key_size={} value_size={} max_entries={}",
            m.key_size, m.value_size, m.max_entries
        );
    }
}

/// Loads the program source from `--file` or stdin.
fn read_source(args: &Args) -> Result<String, ExitCode> {
    match args.get_str("file") {
        Some(path) => std::fs::read_to_string(path).map_err(|e| {
            eprintln!("cannot read {path}: {e}");
            ExitCode::from(2)
        }),
        None => {
            let mut s = String::new();
            if std::io::stdin().read_to_string(&mut s).is_err() {
                eprintln!("cannot read stdin");
                return Err(ExitCode::from(2));
            }
            Ok(s)
        }
    }
}

/// Collects and assembles every `.ebpf` fixture under `dir`, sorted by
/// name.
fn collect_fixtures(dir: &str) -> Result<(Vec<String>, Vec<Program>), ExitCode> {
    let mut paths: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "ebpf"))
            .collect(),
        Err(e) => {
            eprintln!("cannot read directory {dir}: {e}");
            return Err(ExitCode::from(2));
        }
    };
    paths.sort();
    if paths.is_empty() {
        eprintln!("no .ebpf fixtures under {dir}");
        return Err(ExitCode::from(2));
    }

    let mut names = Vec::new();
    let mut progs: Vec<Program> = Vec::new();
    for path in &paths {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return Err(ExitCode::from(2));
            }
        };
        match assemble(&source) {
            Ok(p) => {
                names.push(
                    path.file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_else(|| path.display().to_string()),
                );
                progs.push(p);
            }
            Err(e) => {
                eprintln!("assembly error in {}: {e}", path.display());
                return Err(ExitCode::from(2));
            }
        }
    }
    Ok((names, progs))
}

/// The per-pc pass dump of one program: live registers, live stack-slot
/// and reaching-definition counts, and dead-code diagnostics. Reaching
/// definitions are diagnostic only, so they are solved here rather than
/// in [`ProgramPasses`].
fn dump_passes(prog: &Program) {
    let cfg = Cfg::build(prog);
    let passes = ProgramPasses::compute(prog, &cfg);
    let reach = solve(&ReachingDefs::new(prog), prog, &cfg).before;
    for (pc, insn) in prog.insns().iter().enumerate() {
        if passes.is_unreachable(pc) {
            println!("{pc:>3}: {insn:<32} [unreachable]");
            continue;
        }
        let live = passes.live_in(pc);
        let regs: Vec<String> = (0..11)
            .filter(|i| live.regs & (1 << i) != 0)
            .map(|i| format!("r{i}"))
            .collect();
        let note = if passes.is_dead_def(pc) {
            "  [dead def]"
        } else {
            ""
        };
        println!(
            "{pc:>3}: {insn:<32} live={{{}}} slots={} reach={}{note}",
            regs.join(","),
            live.slot_count(),
            reach[pc].iter().map(|w| w.count_ones()).sum::<u32>(),
        );
    }
}

/// `--passes` on a single program: the full per-pc fact table.
fn run_passes_single(source: &str) -> ExitCode {
    let prog = match assemble(source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("assembly error: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = Cfg::build(&prog);
    let passes = ProgramPasses::compute(&prog, &cfg);
    println!(
        "PASSES ({} instructions, {} dead)\n",
        prog.len(),
        passes.dead_insns()
    );
    dump_passes(&prog);
    ExitCode::SUCCESS
}

/// `--passes --dir`: the per-pc fact table of every fixture, with a
/// per-file header.
fn run_passes_dir(names: &[String], progs: &[Program]) -> ExitCode {
    for (name, prog) in names.iter().zip(progs) {
        let cfg = Cfg::build(prog);
        let passes = ProgramPasses::compute(prog, &cfg);
        println!(
            "== {name} ({} instructions, {} dead)",
            prog.len(),
            passes.dead_insns()
        );
        dump_passes(prog);
        println!();
    }
    ExitCode::SUCCESS
}

/// The classic single-program mode: one source from `--file` or stdin,
/// the annotated log (or rejection diagnosis) on stdout.
fn run_single(args: &Args, session: &VerificationSession) -> ExitCode {
    let source = match read_source(args) {
        Ok(s) => s,
        Err(code) => return code,
    };

    let prog = match assemble(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("assembly error: {e}");
            return ExitCode::from(2);
        }
    };

    match session.run(&prog) {
        Ok(analysis) => {
            println!(
                "ACCEPTED ({} instructions, {} strategy)\n",
                prog.len(),
                analysis.strategy().name()
            );
            let degradations = analysis.stats().degradations;
            if degradations > 0 {
                println!(
                    "note: degraded {degradations} rung(s) down the ladder after \
                     contained governance faults; verdict is from the {} strategy\n",
                    analysis.strategy().name()
                );
            }
            print!("{}", analysis.annotate(&prog));
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("REJECTED: {e}\n");
            // Show the program with the faulting instruction marked.
            for (i, insn) in prog.insns().iter().enumerate() {
                let marker = if i == e.pc() { " <-- here" } else { "" };
                println!("{i:>3}: {insn}{marker}");
            }
            ExitCode::FAILURE
        }
    }
}

/// The batch mode: every `.ebpf` file under `dir` (sorted by name),
/// verified concurrently through [`VerificationSession::run_batch`],
/// reported as a verdict table plus the throughput summary.
fn run_dir(session: &VerificationSession, dir: &str, jobs: usize) -> ExitCode {
    let (names, progs) = match collect_fixtures(dir) {
        Ok(fixtures) => fixtures,
        Err(code) => return code,
    };

    let report = session.run_batch(&progs, jobs);
    let name_width = names.iter().map(String::len).max().unwrap_or(4).max(4);
    println!("{:<name_width$}  {:>5}  verdict", "file", "insns");
    let mut rejected = 0usize;
    for (name, (prog, result)) in names.iter().zip(progs.iter().zip(&report.results)) {
        match result {
            Ok(_) => println!("{name:<name_width$}  {:>5}  ACCEPTED", prog.len()),
            Err(e) => {
                rejected += 1;
                println!("{name:<name_width$}  {:>5}  REJECTED: {e}", prog.len());
            }
        }
    }
    let stats = &report.stats;
    println!(
        "\n{} programs ({} accepted, {} rejected) in {:.1} ms on {} jobs: {:.1} programs/sec",
        stats.programs,
        stats.accepted,
        stats.rejected,
        stats.elapsed.as_secs_f64() * 1e3,
        stats.jobs,
        stats.programs_per_sec()
    );
    println!(
        "threads: {} outer x {} inner = {} of the budget utilized",
        stats.jobs,
        stats.inner_jobs,
        stats.jobs * stats.inner_jobs
    );
    if stats.deadline_exceeded + stats.internal_faults > 0 || stats.degradations > 0 {
        println!(
            "governance: {} deadline rejections, {} contained faults, {} ladder downgrades",
            stats.deadline_exceeded, stats.internal_faults, stats.degradations
        );
    }
    if rejected == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [COMMAND] [--seed N] [--threads N] [--quick] [--suite-out FILE]
//!       [--json FILE] [--schedulers A,B,...]
//!
//! COMMANDS
//!   table2      Table II  — motivational operating points
//!   motivation  Table I + Figure 1 — the three management scenarios
//!   table3      Table III — test-case counts
//!   fig2        Figure 2  — scheduling rate (tight deadlines)
//!   table4      Table IV  — geomean relative energy vs EX-MEM
//!   fig3        Figure 3  — S-curves of relative energy
//!   fig4        Figure 4  — search-time box plots
//!   ablation    extensions: job-order policy, online admission, DVFS
//!   admission   extension: stream × admission-policy × scheduler A/B grid
//!               (Immediate/BatchK/WindowTau plus the adaptive
//!               AdaptiveBatch/SlackAware on Poisson and bursty streams;
//!               every scheduler — budgeted EX-MEM and META included —
//!               runs every stream under the online search budget)
//!   sweep       extension: acceptance/energy curves over an offered-load
//!               grid × schedulers × admission policies
//!   tune        extension: deterministic grid/random parameter fitting
//!               for the AIMD constants, the SlackAware margin and the
//!               META regime thresholds (poisson + bursty + diurnal
//!               streams; --json writes the TuneReport artifact)
//!   profile     streaming-kernel throughput: a lazily generated diurnal
//!               stream (1M requests; --quick: 20k) through MMKP-MDF and
//!               META in aggregated mode, reporting requests/s, events/s and
//!               the hot-path instrumentation counters (--json writes
//!               the ProfileReport; --baseline F enforces the events/s
//!               floor against a recorded BENCH_baseline.json)
//!   shard       sharded-federation weak scaling: shard counts × routing
//!               policies (RoundRobin/JSQ/EnergyAware/HashAffinity) over
//!               one dispatched arrival stream at fixed per-shard load
//!               (40k requests/shard; --quick: 2k), plus skewed-routing
//!               rows on a hotspot stream and one work-stealing row
//!               (--json writes the ShardReport)
//!   trace       event-journal trace: a bursty stream through 4 META
//!               shards under batched admission with hash-affinity
//!               routing and work stealing, the structured journal
//!               enabled end to end (20k requests; --quick: 2k);
//!               reports events by kind and rejects by reason
//!               (--json writes the TraceReport; --sample N keeps one
//!               request lifecycle in N; --out writes a Perfetto-loadable
//!               Chrome trace-event file)
//!   lint        determinism lint: the tidy-style amrm-lint pass over the
//!               workspace sources (wall-clock reads, HashMap iteration,
//!               derive(Default) drift, fan-out accumulation, bare
//!               unwraps, unseeded RNGs, tie-break enum repr, stale
//!               allowlist entries, library prints, partial_cmp) with
//!               the committed lint.allow exceptions; exits non-zero on
//!               any violation (--json writes the LintReport; --root
//!               scans another tree, e.g. the lint fixtures)
//!   exact       EX-MEM exact path at scale: capped-vs-uncapped candidate
//!               ranking on the bursty grid stream (truncation A/B at one
//!               node budget), then cold-solve vs warm-start replay of a
//!               calm stream through the persistent mapping cache
//!               (--json writes the ExactReport; --cache-out saves the
//!               cold run's proof cache; --warm-cache replays from a
//!               previously saved cache file)
//!   all         everything above except `ablation`/`admission`/`sweep`/
//!               `tune`/`profile`/`shard`/`trace`/`exact` (default)
//!
//! OPTIONS
//!   --seed N         RNG seed for suite generation (default 2020)
//!   --threads N      worker threads of the suite, admission, sweep and
//!                    tune grids, at least 1 (default: available
//!                    parallelism)
//!   --quick          divide all Table III counts by 10 (smoke run);
//!                    shrinks the sweep grid and profile stream likewise
//!   --requests N     profile stream length (profile only; overrides the
//!                    1M/20k default)
//!   --baseline F     compare the profile against the profile cells
//!                    recorded in baseline JSON F and fail below the
//!                    events/s floor (profile only)
//!   --sample N       journal one request lifecycle in N, deterministic
//!                    by arrival ordinal (trace only; default 0 = all)
//!   --out F          write the Chrome trace-event (Perfetto) file to F
//!                    (trace only)
//!   --cache-out F    save the cold run's mapping cache (proofs only) to F
//!                    (exact only)
//!   --root DIR       scan root for the lint pass (lint only; default:
//!                    the workspace root this binary was built from)
//!   --warm-cache F   replay warm from the mapping cache saved at F
//!                    (exact only)
//!   --suite-out F    save the generated suite as JSON
//!   --json F         with suite commands: write per-scheduler energy/
//!                    feasibility/search-time aggregates plus the
//!                    admission-policy grid and the profile cells to F;
//!                    with `sweep`, `tune`, `profile`, `shard`, `trace`,
//!                    `exact` or `lint`: write that command's report to F
//!   --schedulers L   comma-separated registry subset to evaluate (suite
//!                    commands, ablation, admission and sweep; default:
//!                    every registered scheduler). Excluding EX-MEM
//!                    unlocks full-length admission-grid streams (even
//!                    budgeted, the exhaustive reference bounds them)
//! ```

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use amrm_baselines::{standard_registry, EXMEM_NAME};
use amrm_bench::runner::evaluate_suite;
use amrm_bench::{admission, baseline, reports, sweep, tune};
use amrm_core::{SchedulerRegistry, SearchBudget};
use amrm_dataflow::apps;
use amrm_model::AppRef;
use amrm_platform::Platform;
use amrm_workload::{generate_suite, save_suite, StreamSpec, SuiteSpec};

// Opt-in allocation accounting for `repro profile`: build with
// `--features count-alloc` to report per-run allocation tallies.
#[cfg(feature = "count-alloc")]
#[global_allocator]
static COUNTING_ALLOCATOR: amrm_metrics::CountingAllocator = amrm_metrics::CountingAllocator;

struct Options {
    command: String,
    seed: u64,
    threads: usize,
    quick: bool,
    suite_out: Option<String>,
    json_out: Option<String>,
    schedulers: Option<Vec<String>>,
    requests: Option<usize>,
    baseline_in: Option<String>,
    sample: Option<u64>,
    trace_out: Option<String>,
    warm_cache: Option<String>,
    cache_out: Option<String>,
    lint_root: Option<String>,
}

/// Parses the value that follows `flag` on the command line.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|e| format!("bad {flag} value `{raw}`: {e}"))
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        command: "all".to_string(),
        seed: 2020,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        quick: false,
        suite_out: None,
        json_out: None,
        schedulers: None,
        requests: None,
        baseline_in: None,
        sample: None,
        trace_out: None,
        warm_cache: None,
        cache_out: None,
        lint_root: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let args = &mut args;
        match arg.as_str() {
            "--seed" => opts.seed = value(args, "--seed")?,
            "--threads" => opts.threads = value(args, "--threads")?,
            "--quick" => opts.quick = true,
            "--suite-out" => opts.suite_out = Some(value(args, "--suite-out")?),
            "--json" => opts.json_out = Some(value(args, "--json")?),
            "--schedulers" => {
                let list: String = value(args, "--schedulers")?;
                opts.schedulers = Some(list.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--requests" => opts.requests = Some(value(args, "--requests")?),
            "--baseline" => opts.baseline_in = Some(value(args, "--baseline")?),
            "--sample" => opts.sample = Some(value(args, "--sample")?),
            "--out" => opts.trace_out = Some(value(args, "--out")?),
            "--warm-cache" => opts.warm_cache = Some(value(args, "--warm-cache")?),
            "--cache-out" => opts.cache_out = Some(value(args, "--cache-out")?),
            "--root" => opts.lint_root = Some(value(args, "--root")?),
            "--help" | "-h" => return Err("help".to_string()),
            cmd if !cmd.starts_with('-') => opts.command = cmd.to_string(),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(opts)
}

/// Rejects flags the selected command would silently ignore, and counts
/// no run can honour — before any work starts.
fn check_flags(opts: &Options) -> Result<(), String> {
    // (flag, given, the commands it applies to)
    let scoped: [(&str, bool, &[&str]); 10] = [
        (
            "--json",
            opts.json_out.is_some(),
            &[
                "fig2", "table4", "fig3", "fig4", "all", "sweep", "tune", "profile", "shard",
                "trace", "lint", "exact",
            ],
        ),
        (
            "--suite-out",
            opts.suite_out.is_some(),
            &["table3", "fig2", "table4", "fig3", "fig4", "all"],
        ),
        (
            "--schedulers",
            opts.schedulers.is_some(),
            &[
                "fig2",
                "table4",
                "fig3",
                "fig4",
                "all",
                "ablation",
                "admission",
                "sweep",
            ],
        ),
        ("--requests", opts.requests.is_some(), &["profile"]),
        ("--baseline", opts.baseline_in.is_some(), &["profile"]),
        ("--sample", opts.sample.is_some(), &["trace"]),
        ("--out", opts.trace_out.is_some(), &["trace"]),
        ("--warm-cache", opts.warm_cache.is_some(), &["exact"]),
        ("--cache-out", opts.cache_out.is_some(), &["exact"]),
        ("--root", opts.lint_root.is_some(), &["lint"]),
    ];
    let command = opts.command.as_str();
    for (flag, given, commands) in scoped {
        if given && !commands.contains(&command) {
            return Err(format!(
                "{flag} only applies to {}, not `{command}`",
                commands.join(", ")
            ));
        }
    }
    if opts.threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    if opts.requests == Some(0) {
        return Err("--requests must be at least 1".to_string());
    }
    Ok(())
}

/// Writes `report` to the `--json` path, when one was given.
fn write_artifact(
    opts: &Options,
    what: &str,
    report: &impl serde::Serialize,
) -> Result<(), String> {
    if let Some(path) = &opts.json_out {
        amrm_bench::write_json(path, report)
            .map_err(|e| format!("cannot write {what} to {path}: {e}"))?;
        eprintln!("{what} written to {path}");
    }
    Ok(())
}

/// Characterizes the application library on the reference platform.
fn characterize() -> (Platform, Vec<AppRef>) {
    let platform = Platform::odroid_xu4();
    eprintln!(
        "characterizing application library on {} ...",
        platform.name()
    );
    let library = apps::benchmark_suite(&platform);
    (platform, library)
}

/// Runs the stream × policy × scheduler admission grid for the `admission`
/// command and the `--json` baseline embedding (both report the same
/// cells). Every scheduler runs every stream — bursty included — under
/// the online [`SearchBudget`]: the anytime EX-MEM degrades to its MDF
/// fallback instead of hanging when bursts stack ~15 concurrent jobs.
/// EX-MEM — when present — still bounds the stream *length* (even
/// budgeted, thousands of exhaustive activations dominate the grid); an
/// explicit `--schedulers` subset without it unlocks full-length streams.
fn run_admission_grid(
    platform: &Platform,
    library: &[AppRef],
    registry: &SchedulerRegistry,
    opts: &Options,
) -> Vec<admission::Cell> {
    let with_exmem = registry.index_of(EXMEM_NAME).is_some();
    let requests = admission::grid_requests(opts.quick, with_exmem);
    let streams = admission::standard_streams(library, requests, opts.seed);
    let policies = admission::standard_policies();
    let stream_refs: Vec<(&str, &[amrm_workload::ScenarioRequest])> = streams
        .iter()
        .map(|(label, stream)| (*label, stream.as_slice()))
        .collect();
    eprintln!(
        "running admission grid: {} streams × {} policies × {} schedulers ({}), {requests} requests each ...",
        streams.len(),
        policies.len(),
        registry.len(),
        registry.names().join(", "),
    );
    admission::run_grid(
        platform,
        registry,
        &policies,
        &stream_refs,
        opts.threads,
        SearchBudget::online(),
    )
}

/// Resolves the evaluation registry: the full standard registry, or the
/// `--schedulers` subset of it.
fn resolve_registry(opts: &Options) -> Result<SchedulerRegistry, String> {
    let standard = standard_registry();
    let Some(requested) = &opts.schedulers else {
        return Ok(standard);
    };
    for name in requested {
        if standard.index_of(name).is_none() {
            return Err(format!(
                "unknown scheduler `{name}` (registered: {})",
                standard.names().join(", ")
            ));
        }
    }
    let names: Vec<&str> = requested.iter().map(String::as_str).collect();
    Ok(standard.subset(&names))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            eprintln!(
                "usage: repro [table2|motivation|table3|fig2|table4|fig3|fig4|ablation|\
                 admission|sweep|tune|profile|shard|trace|lint|exact|all] [--seed N] \
                 [--threads N] [--quick] [--suite-out FILE] [--json FILE] \
                 [--schedulers A,B,...] [--requests N] [--baseline FILE] [--sample N] \
                 [--out FILE] [--warm-cache FILE] [--cache-out FILE] [--root DIR]"
            );
            return if msg == "help" {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };
    match run(&opts) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: &Options) -> Result<ExitCode, String> {
    let registry = resolve_registry(opts)?;
    check_flags(opts)?;
    match opts.command.as_str() {
        "lint" => return run_lint(opts),
        "table2" => println!("{}", reports::table2_report()),
        "motivation" => println!("{}", reports::motivation_report()),
        "ablation" => run_ablation(opts, registry),
        "admission" => {
            let (platform, library) = characterize();
            let cells = run_admission_grid(&platform, &library, &registry, opts);
            println!("{}", admission::admission_report(&cells));
        }
        "sweep" => run_sweep(opts, &registry)?,
        "tune" => run_tune(opts)?,
        "profile" => run_profile(opts)?,
        "shard" => {
            eprintln!(
                "running sharded-federation bench: shard counts {:?} × 4 routing policies \
                 (seed {}{}) ...",
                amrm_bench::shard::WEAK_SHARD_COUNTS,
                opts.seed,
                if opts.quick { ", quick" } else { "" }
            );
            let report = amrm_bench::shard::run_shard_bench(opts.quick, opts.seed);
            println!("{}", amrm_bench::shard::shard_report(&report));
            write_artifact(opts, "shard report", &report)?;
        }
        "trace" => run_trace(opts)?,
        "exact" => run_exact(opts)?,
        "table3" | "fig2" | "table4" | "fig3" | "fig4" | "all" => run_suite(opts, &registry)?,
        other => return Err(format!("unknown command {other}")),
    }
    Ok(ExitCode::SUCCESS)
}

fn run_lint(opts: &Options) -> Result<ExitCode, String> {
    // The binary is built from crates/bench, two levels below the
    // workspace root that holds the sources and `lint.allow`.
    let root = opts.lint_root.clone().unwrap_or_else(|| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/bench sits two levels below the workspace root")
            .display()
            .to_string()
    });
    let report = amrm_lint::run_lint(std::path::Path::new(&root))
        .map_err(|e| format!("lint pass failed: {e}"))?;
    println!("{}", amrm_lint::report::render(&report));
    if let Some(path) = &opts.json_out {
        amrm_lint::report::write_json(path, &report)
            .map_err(|e| format!("cannot write lint report to {path}: {e}"))?;
        eprintln!("lint report written to {path}");
    }
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_ablation(opts: &Options, registry: SchedulerRegistry) {
    let platform = Platform::odroid_xu4();
    let suite = amrm_bench::ablation::ablation_suite(opts.seed);
    println!(
        "{}",
        amrm_bench::ablation::job_order_report(&suite, &amrm_workload::scenarios::platform())
    );
    // An explicit --schedulers subset overrides the default online
    // registry (which is every scheduler except EX-MEM).
    let online = if opts.schedulers.is_some() {
        registry
    } else {
        amrm_bench::ablation::online_registry()
    };
    println!(
        "{}",
        amrm_bench::ablation::online_admission_report(&platform, opts.seed, &online)
    );
    println!("{}", amrm_bench::ablation::dvfs_report());
}

fn run_tune(opts: &Options) -> Result<(), String> {
    let (platform, library) = characterize();
    let tune_opts = tune::TuneOptions {
        seed: opts.seed,
        quick: opts.quick,
        threads: opts.threads,
    };
    eprintln!(
        "fitting adaptive-policy and META parameters (seed {}, {} threads{}) ...",
        opts.seed,
        opts.threads,
        if opts.quick { ", quick" } else { "" }
    );
    let t0 = std::time::Instant::now();
    let report = tune::tune_grid(&platform, &library, &tune_opts);
    eprintln!("search finished in {:.1} s", t0.elapsed().as_secs_f64());
    println!("{}", tune::tune_report(&report));
    write_artifact(opts, "tune report", &report)
}

fn run_profile(opts: &Options) -> Result<(), String> {
    let requests = opts
        .requests
        .unwrap_or(if opts.quick { 20_000 } else { 1_000_000 });
    eprintln!(
        "profiling streaming kernel: {requests} diurnal requests per scheduler \
         (seed {}) ...",
        opts.seed
    );
    let report = amrm_bench::profile::run_profile(requests, opts.seed);
    println!("{}", amrm_bench::profile::profile_report(&report));
    write_artifact(opts, "profile", &report)?;
    if let Some(path) = &opts.baseline_in {
        let recorded = baseline::read_json(path)
            .map_err(|e| format!("cannot read baseline from {path}: {e}"))?;
        if recorded.profile.is_empty() {
            eprintln!("baseline {path} has no profile cells; floor check skipped");
        } else {
            amrm_bench::profile::check_floor(&report.cells, &recorded.profile)
                .map_err(|msg| format!("throughput floor violated: {msg}"))?;
            eprintln!(
                "throughput floor satisfied against {path} ({}% of recorded events/s required)",
                (amrm_bench::profile::FLOOR_FRACTION * 100.0) as u32
            );
        }
    }
    Ok(())
}

fn run_trace(opts: &Options) -> Result<(), String> {
    let sample = opts.sample.unwrap_or(0);
    eprintln!(
        "tracing federated META run: {} bursty requests over {} shards \
         (seed {}{}) ...",
        if opts.quick { 2_000 } else { 20_000 },
        amrm_bench::trace::TRACE_SHARDS,
        opts.seed,
        if sample > 1 {
            format!(", 1-in-{sample} sampling")
        } else {
            String::new()
        }
    );
    let run = amrm_bench::trace::run_trace(opts.quick, opts.seed, sample);
    println!("{}", amrm_bench::trace::trace_report(&run.report));
    write_artifact(opts, "trace report", &run.report)?;
    if let Some(path) = &opts.trace_out {
        amrm_bench::trace::write_chrome(path, &run.tracks)
            .map_err(|e| format!("cannot write Chrome trace to {path}: {e}"))?;
        eprintln!("Chrome trace written to {path} (open at https://ui.perfetto.dev)");
    }
    Ok(())
}

fn run_exact(opts: &Options) -> Result<(), String> {
    eprintln!(
        "running EX-MEM exact-path bench: ranking A/B on the bursty grid stream, \
         cold-then-warm cache replay (seed {}{}) ...",
        opts.seed,
        if opts.quick { ", quick" } else { "" }
    );
    let report = amrm_bench::exact::run_exact(
        opts.quick,
        opts.seed,
        opts.warm_cache.as_deref().map(std::path::Path::new),
        opts.cache_out.as_deref().map(std::path::Path::new),
    )
    .map_err(|e| format!("exact-path bench failed: {e}"))?;
    println!("{}", amrm_bench::exact::exact_report(&report));
    if let Some(path) = &opts.cache_out {
        eprintln!("mapping cache saved to {path}");
    }
    write_artifact(opts, "exact report", &report)
}

fn run_sweep(opts: &Options, registry: &SchedulerRegistry) -> Result<(), String> {
    let (platform, library) = characterize();
    let interarrivals: Vec<f64> = if opts.quick {
        vec![1.0, 2.0, 4.0, 8.0]
    } else {
        vec![0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    };
    let spec = StreamSpec {
        requests: if opts.quick { 40 } else { 150 },
        slack_range: admission::STREAM_SLACK,
    };
    let policies = admission::standard_policies();
    eprintln!(
        "running load sweep: {} loads × {} policies × {} schedulers ({}), {} requests each ...",
        interarrivals.len(),
        policies.len(),
        registry.len(),
        registry.names().join(", "),
        spec.requests
    );
    let cells = sweep::sweep_grid(
        &platform,
        registry,
        &policies,
        &library,
        &interarrivals,
        &spec,
        opts.seed,
        opts.threads,
        SearchBudget::online(),
    );
    println!("{}", sweep::sweep_report(&cells, &interarrivals));
    let report = sweep::SweepReport {
        seed: opts.seed,
        quick: opts.quick,
        requests_per_point: spec.requests,
        interarrivals,
        cells,
    };
    write_artifact(opts, "sweep report", &report)
}

fn run_suite(opts: &Options, registry: &SchedulerRegistry) -> Result<(), String> {
    if opts.command == "all" {
        println!("{}", reports::table2_report());
        println!("{}", reports::motivation_report());
    }
    let (platform, library) = characterize();
    println!("{}", reports::library_report(&library));

    let mut spec = SuiteSpec::default();
    if opts.quick {
        for c in spec
            .weak_counts
            .iter_mut()
            .chain(spec.tight_counts.iter_mut())
        {
            *c = (*c / 10).max(1);
        }
    }
    eprintln!(
        "generating {} test cases (seed {}) ...",
        spec.total(),
        opts.seed
    );
    let cases = generate_suite(&library, &spec, opts.seed);
    if let Some(path) = &opts.suite_out {
        save_suite(path, &cases).map_err(|e| format!("cannot save suite to {path}: {e}"))?;
        eprintln!("suite saved to {path}");
    }

    if matches!(opts.command.as_str(), "table3" | "all") {
        println!("{}", reports::table3_report(&cases));
        if opts.command == "table3" {
            return Ok(());
        }
    }

    eprintln!(
        "evaluating {} cases × {} schedulers ({}) on {} threads ...",
        cases.len(),
        registry.len(),
        registry.names().join(", "),
        opts.threads
    );
    let t0 = std::time::Instant::now();
    let eval = evaluate_suite(&cases, &platform, opts.threads, registry);
    let elapsed = t0.elapsed().as_secs_f64();
    eprintln!("evaluation finished in {elapsed:.1} s");

    if opts.json_out.is_some() {
        let mut summary = baseline::summarize(&eval, opts.seed, opts.threads, opts.quick, elapsed);
        summary.admission = run_admission_grid(&platform, &library, registry, opts);
        let profile_requests = if opts.quick { 20_000 } else { 100_000 };
        eprintln!(
            "profiling streaming kernel for the baseline ({profile_requests} requests per \
             scheduler) ..."
        );
        summary.profile = amrm_bench::profile::run_profile(profile_requests, opts.seed).cells;
        write_artifact(opts, "perf baseline", &summary)?;
    }

    match opts.command.as_str() {
        "fig2" => println!("{}", reports::fig2_report(&eval)),
        "table4" => println!("{}", reports::table4_report(&eval)),
        "fig3" => println!("{}", reports::fig3_report(&eval)),
        "fig4" => println!("{}", reports::fig4_report(&eval)),
        _ => {
            println!("{}", reports::fig2_report(&eval));
            println!("{}", reports::table4_report(&eval));
            println!("{}", reports::fig3_report(&eval));
            println!("{}", reports::fig4_report(&eval));
        }
    }
    Ok(())
}

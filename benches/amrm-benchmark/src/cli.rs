//! Command line, run orchestration and the correctness gate.
//!
//! An end-to-end run sets the workload up several times (the median is
//! `setup_s`), then runs one pass over a stream sized to `--seconds`.
//! A `--trace` run spends half its time on an untraced pass and hands
//! the other half to the `amrm-benchmark-traced` binary, which runs the
//! same stream traced, under the counting allocator, and prints the
//! per-layer table. Both halves must agree bit for bit on the simulated
//! result.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::driver::{self, Digest, Pass, Prepared, Workload};
use crate::report::{self, Reading};

const USAGE: &str = "usage: amrm-benchmark (--workload NAME | --all) [--seed N] [--seconds S] \
[--trace [0|1]] [--json FILE]
workloads: mdf-diurnal, meta-diurnal, meta-bursty-batch, exmem-poisson";

/// Set-up repeats per run; `setup_s` is their median. One set-up takes
/// about a millisecond, too short to time alone.
const SETUP_REPEATS: usize = 15;
/// Largest error allowed on the paper's Fig. 1 energies, in joules.
const FIG1_TOLERANCE_J: f64 = 5e-3;
const TRACED_BINARY: &str = "amrm-benchmark-traced";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    /// Traced binary only: the wall time of the untraced pass.
    untraced_wall_ns: Option<f64>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            all: false,
            seed: 2020,
            seconds: 10.0,
            trace: false,
            json: None,
            untraced_wall_ns: None,
        };
        let mut raw = raw.peekable();
        while let Some(flag) = raw.next() {
            let flag = flag.as_str();
            match flag {
                "--workload" => {
                    let name = raw.next().ok_or("--workload needs a value")?;
                    args.workload = Some(
                        Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?,
                    );
                }
                "--all" => args.all = true,
                "--seed" => args.seed = parse_number(raw.next(), flag)?,
                "--seconds" => {
                    args.seconds = parse_number(raw.next(), flag)?;
                    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                        return Err("--seconds must be positive".to_string());
                    }
                }
                // `--trace` alone means on; `--trace 0|1` is explicit.
                "--trace" => {
                    args.trace = raw
                        .next_if(|v| v == "0" || v == "1")
                        .is_none_or(|v| v == "1");
                }
                "--json" => args.json = Some(raw.next().ok_or("--json needs a value")?.into()),
                "--untraced-wall-ns" => {
                    args.untraced_wall_ns = Some(parse_number(raw.next(), flag)?)
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        match (args.all, args.workload) {
            (true, Some(_)) => Err("give --workload or --all, not both".to_string()),
            (true, None) if args.json.is_some() => Err("--json needs one --workload".to_string()),
            (false, None) => Err("give --workload NAME or --all".to_string()),
            _ => Ok(args),
        }
    }
}

fn parse_number<T: std::str::FromStr>(text: Option<String>, flag: &str) -> Result<T, String> {
    let text = text.ok_or(format!("{flag} needs a value"))?;
    text.parse()
        .map_err(|_| format!("{flag}: `{text}` is not a valid number"))
}

fn parse_args() -> Result<Args, ExitCode> {
    Args::parse(std::env::args().skip(1)).map_err(|msg| {
        eprintln!("amrm-benchmark: {msg}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// Entry point of `amrm-benchmark`.
pub fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(code) => return code,
    };
    if args.all {
        return run_all(&args);
    }
    let workload = args
        .workload
        .expect("parse requires a workload without --all");
    let mut verdict = Verdict::default();
    check_fig1(&mut verdict);
    let readings = if args.trace {
        trace_run(&args, workload, &mut verdict)
    } else {
        end_to_end_run(&args, workload, &mut verdict)
    };
    verdict.finish(&readings, args.json.as_deref())
}

/// Entry point of `amrm-benchmark-traced`: the traced pass behind
/// `amrm-benchmark --trace`, which passes it the untraced pass's wall.
pub fn main_traced() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(code) => return code,
    };
    let (Some(workload), Some(untraced_wall_ns)) = (args.workload, args.untraced_wall_ns) else {
        eprintln!("{TRACED_BINARY}: needs --workload and --untraced-wall-ns (run `amrm-benchmark --trace`)");
        return ExitCode::from(2);
    };
    let requests = workload.requests(args.seconds);
    let (pass, layers) = Prepared::new(workload, requests, args.seed).run_traced();
    let mut verdict = Verdict::default();
    verdict.check_pass(&pass, requests);
    let invalid = layers.scheduler.invalid;
    if invalid > 0 {
        verdict.fail(
            invalid,
            format!("{invalid} schedules failed Schedule::validate"),
        );
    }
    println!("# digest {}", format_digest(&pass.digest));
    let readings = report::per_layer(
        &pass,
        &layers,
        driver::peak_allocated_bytes(),
        untraced_wall_ns,
    );
    verdict.finish(&readings, args.json.as_deref())
}

fn end_to_end_run(args: &Args, workload: Workload, verdict: &mut Verdict) -> Vec<Reading> {
    let requests = workload.requests(args.seconds);
    let setup_ns: Vec<u64> = (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            let prepared = Prepared::new(workload, requests, args.seed);
            let ns = start.elapsed().as_nanos() as u64;
            drop(std::hint::black_box(prepared));
            ns
        })
        .collect();
    let pass = untraced_pass(args.seconds, workload, args.seed, verdict);
    report::end_to_end(&setup_ns, &pass, peak_rss_mib())
}

fn untraced_pass(seconds: f64, workload: Workload, seed: u64, verdict: &mut Verdict) -> Pass {
    let requests = workload.requests(seconds);
    let pass = Prepared::new(workload, requests, seed).run();
    verdict.check_pass(&pass, requests);
    println!(
        "# {requests} requests in {} windows of {} service samples",
        pass.windows.len(),
        pass.windows.first().map_or(0, |w| w.service.count())
    );
    pass
}

/// Runs the workload at half size untraced, then hands the same stream
/// to the traced binary and checks that both simulate the same result.
fn trace_run(args: &Args, workload: Workload, verdict: &mut Verdict) -> Vec<Reading> {
    let half = args.seconds / 2.0;
    let untraced = untraced_pass(half, workload, args.seed, verdict);
    let exe = std::env::current_exe().expect("the running binary has a path");
    let output = Command::new(exe.with_file_name(TRACED_BINARY))
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &half.to_string()])
        .args(["--untraced-wall-ns", &untraced.wall_ns.to_string()])
        .stderr(Stdio::inherit())
        .output();
    let output = match output {
        Ok(output) => output,
        Err(err) => {
            verdict.fail(1, format!("could not start {TRACED_BINARY}: {err}"));
            return Vec::new();
        }
    };
    if !output.status.success() {
        verdict.fail(1, format!("{TRACED_BINARY} exited with {}", output.status));
    }
    let mut readings = Vec::new();
    let mut digest = None;
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        if let Some(fields) = line.strip_prefix("# digest ") {
            digest = parse_digest(fields);
        } else if let Some(fields) = line.strip_prefix("# verdict ") {
            let fields = key_values(fields);
            verdict.attempted += fields.get("attempted").copied().unwrap_or(0);
            verdict.failed += fields.get("failed").copied().unwrap_or(0);
        } else if line.starts_with("# FAILED") {
            println!("{line}");
        } else if let Some(reading) = parse_reading(line) {
            readings.push(reading);
        }
    }
    match digest {
        Some(traced) if traced == untraced.digest => {
            println!("# traced and untraced passes agree bit for bit");
        }
        Some(traced) => verdict.fail(
            1,
            format!(
                "traced pass differs from untraced: {} vs {}",
                format_digest(&traced),
                format_digest(&untraced.digest)
            ),
        ),
        None => verdict.fail(1, format!("{TRACED_BINARY} printed no digest")),
    }
    readings
}

/// Runs every workload in a child process of its own, so that each
/// reports its own peak RSS.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut ok = true;
    for workload in Workload::ALL {
        println!("## {}", workload.name());
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident set of this process, from the kernel's `VmHWM`.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn check_fig1(verdict: &mut Verdict) {
    let mut line = String::from("# fig1 energy error:");
    for (reference, simulated) in driver::fig1_energies() {
        let error = (simulated - reference).abs();
        line.push_str(&format!(" {reference} J ±{error:.2e}"));
        if error > FIG1_TOLERANCE_J {
            verdict.fail(
                1,
                format!("Fig. 1 energy {simulated} J is off the paper's {reference} J"),
            );
        }
    }
    println!("{line}");
}

/// The correctness gate: requests attempted, requests failed, and any
/// check that failed.
#[derive(Debug, Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Verdict {
    /// Records a failed check and the requests it failed; a check that
    /// fails no request in particular counts as one, so that
    /// `failed_share` is positive whenever the gate fails.
    fn fail(&mut self, failed: u64, problem: String) {
        self.failed += failed;
        self.problems.push(problem);
    }

    /// A pass must decide every request it generated and miss no
    /// deadline. Rejections are not failures: `acceptance` counts them.
    fn check_pass(&mut self, pass: &Pass, requests: usize) {
        self.attempted += pass.generated;
        if pass.generated != requests as u64 {
            self.fail(
                1,
                format!(
                    "the stream yielded {} of {requests} requests",
                    pass.generated
                ),
            );
        }
        if pass.lost() > 0 {
            self.fail(
                pass.lost(),
                format!("{} requests were never decided", pass.lost()),
            );
        }
        if pass.deadline_misses > 0 {
            self.fail(
                pass.deadline_misses,
                format!(
                    "{} admitted jobs missed their deadline",
                    pass.deadline_misses
                ),
            );
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Prints the readings, the gate's verdict and the result line.
    fn finish(self, readings: &[Reading], json: Option<&std::path::Path>) -> ExitCode {
        for reading in readings {
            println!("{reading}");
        }
        for problem in &self.problems {
            println!("# FAILED: {problem}");
        }
        let share = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "# failed_share {share} ({} of {} requests)",
            self.failed, self.attempted
        );
        println!(
            "# verdict attempted={} failed={}",
            self.attempted, self.failed
        );
        let line =
            report::result_json(self.correct(), self.attempted.max(1), self.failed, readings);
        if let Some(path) = json {
            if let Err(err) = std::fs::write(path, format!("{line}\n")) {
                eprintln!("amrm-benchmark: cannot write {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        }
        println!("{line}");
        if self.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn key_values(fields: &str) -> HashMap<&str, u64> {
    fields
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
        .collect()
}

fn format_digest(d: &Digest) -> String {
    format!(
        "offered={} accepted={} energy_bits={} end_time_bits={} activations={}",
        d.offered, d.accepted, d.energy_bits, d.end_time_bits, d.activations
    )
}

fn parse_digest(fields: &str) -> Option<Digest> {
    let kv = key_values(fields);
    Some(Digest {
        offered: *kv.get("offered")?,
        accepted: *kv.get("accepted")?,
        energy_bits: *kv.get("energy_bits")?,
        end_time_bits: *kv.get("end_time_bits")?,
        activations: *kv.get("activations")?,
    })
}

/// Parses a `name value unit` line printed by the traced binary.
fn parse_reading(line: &str) -> Option<Reading> {
    let mut parts = line.split_whitespace();
    let (name, value, unit) = (parts.next()?, parts.next()?, parts.next()?);
    Some(Reading {
        name: name.to_string(),
        value: value.parse().ok()?,
        unit: unit.to_string(),
    })
}

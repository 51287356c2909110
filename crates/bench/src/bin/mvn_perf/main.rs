//! `mvn_perf` — the benchmark every performance claim in this repository is
//! measured with: six workloads, six end-to-end metrics with regression
//! bounds, and a per-layer table that says where the time went. See the
//! README beside this file; `BENCHMARK.json` at the repository root declares
//! the names, units, directions and bounds.
//!
//! ```text
//! mvn_perf run     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!                  [--smoke] [--runs R] [--out set.json]
//! mvn_perf trace   --workload <name|all> ...        (= run --trace 1, and writes the
//!                                                    Chrome trace beside the binary)
//! mvn_perf compare <a.json> <b.json>
//! mvn_perf worker  <coordinator-addr>               (internal: dist_dense)
//! mvn_perf spin                                     (internal: serve_hot)
//! ```
//!
//! Everything is measured from outside: the benchmark times calls into public
//! functions and reads public counters; it adds no instrumentation to the
//! program and claims no gain.

mod catalog;
mod compare;
mod crd;
mod dist;
mod gen;
mod pmvn;
mod probes;
mod report;
mod run;
mod serve;
mod stats;

use catalog::{DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use report::{Record, Set};
use run::{Opts, Run};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: mvn_perf run|trace --workload <name|all> [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--runs R] [--out FILE]\n       \
                     mvn_perf compare <a.json> <b.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..], false),
        Some("trace") => run_command(&args[1..], true),
        Some("compare") => compare_command(&args[1..]),
        Some("worker") => match args.get(1) {
            Some(addr) => mvn_dist::run_worker(addr).map_err(|e| format!("worker: {e}")),
            None => Err("usage: mvn_perf worker <coordinator-addr>".to_string()),
        },
        Some("spin") => run::spin_until_orphaned(),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("mvn_perf: {message}");
            ExitCode::FAILURE
        }
    }
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    /// Trace modes to run, in order.
    traces: Vec<bool>,
    smoke: bool,
    runs: u64,
    out: Option<String>,
    /// `mvn_perf trace`: traced runs also write their Chrome trace.
    write_trace: bool,
}

fn parse_run_args(args: &[String], trace_command: bool) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        traces: Vec::new(),
        smoke: false,
        runs: 1,
        out: None,
        write_trace: trace_command,
    };
    let mut trace = trace_command.then_some(true);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" if !trace_command => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--runs" => {
                parsed.runs = value
                    .parse()
                    .ok()
                    .filter(|r| *r >= 1)
                    .ok_or_else(|| bad("a positive count"))?
            }
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let all = parsed.workload == "all";
    if !all && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or \"all\", got {:?}",
            parsed.workload
        ));
    }
    // The whole benchmark is both modes; one workload defaults to the clocks.
    parsed.traces = match trace {
        Some(mode) => vec![mode],
        None if all => vec![false, true],
        None => vec![false],
    };
    Ok(parsed)
}

fn run_command(args: &[String], trace_command: bool) -> Result<(), String> {
    let args = parse_run_args(args, trace_command)?;
    if args.workload != "all" && args.traces.len() == 1 && args.runs == 1 {
        run_in_process(&args);
        return Ok(());
    }
    let records = run_children(&args)?;
    let failed = records.iter().filter(|r| !r.correct).count();
    println!("# {} runs, {failed} with failed checks", records.len());
    if let Some(path) = &args.out {
        let set = Set {
            git_rev: git_rev(),
            records,
        };
        std::fs::write(path, set.render()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if failed > 0 {
        return Err(format!("{failed} run(s) failed correctness checks"));
    }
    Ok(())
}

/// Run one workload in this process (so `peak_rss_mb` is the workload's own)
/// and print the table, the detail line and, last, the contract line.
fn run_in_process(args: &RunArgs) {
    let ticks = run::cpu_ticks();
    let mut cx = Run::new(Opts {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.traces[0],
        smoke: args.smoke,
    });
    match args.workload.as_str() {
        "pmvn_dense" => pmvn::run_dense(&mut cx),
        "pmvn_tlr" => pmvn::run_tlr(&mut cx),
        "crd_wind" => crd::run(&mut cx),
        "serve_hot" => serve::run_hot(&mut cx),
        "serve_churn" => serve::run_churn(&mut cx),
        "dist_dense" => dist::run(&mut cx),
        other => unreachable!("workload {other} passed validation"),
    }
    if cx.opts.trace {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        cx.set_value("machine.cores", cores as f64);
    }
    // On a shared host this is the first thing to look at when a run
    // disagrees with its neighbours.
    let steal = run::steal_pct(ticks);
    if steal > 1.0 {
        eprintln!("mvn_perf: the hypervisor stole {steal:.1} % of the CPU time during this run");
    }
    if args.write_trace {
        // Beside the binary, i.e. inside the build's target directory.
        let path = std::env::current_exe()
            .expect("path of this binary")
            .with_file_name(format!("mvn_perf.{}.trace.json", args.workload));
        let lanes: Vec<(u64, &[obs::Event])> = cx
            .lanes
            .iter()
            .map(|(pid, e)| (*pid, e.as_slice()))
            .collect();
        std::fs::write(&path, obs::export_chrome_trace(&lanes))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("mvn_perf: wrote {}", path.display());
    }
    let record = Record::of(&cx);
    print!("{}", record.table());
    println!("{}", record.detail_line());
    println!("{}", record.contract_line());
}

/// Run every requested (workload, trace mode, seed) in a child process of its
/// own and collect the detail records.
fn run_children(args: &RunArgs) -> Result<Vec<Record>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("path of this binary: {e}"))?;
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let mut records = Vec::new();
    for seed in args.seed..args.seed + args.runs {
        for workload in &workloads {
            for &trace in &args.traces {
                let mut child = Command::new(&exe);
                if args.write_trace {
                    child.arg("trace");
                } else {
                    child.args(["run", "--trace", if trace { "1" } else { "0" }]);
                }
                child
                    .args(["--workload", workload])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()]);
                if args.smoke {
                    child.arg("--smoke");
                }
                let output = child
                    .output()
                    .map_err(|e| format!("starting {workload}: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                if !output.status.success() {
                    return Err(format!(
                        "{workload} (trace {}) exited with {}:\n{}",
                        u8::from(trace),
                        output.status,
                        String::from_utf8_lossy(&output.stderr)
                    ));
                }
                let mut lines: Vec<&str> = stdout.lines().collect();
                lines.pop(); // the contract line
                let detail = lines.pop().ok_or("child printed no detail line")?;
                print!("{}", lines.join("\n") + "\n");
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                let json = mvn_service::Json::parse(detail)?;
                records.push(Record::parse(&json)?);
            }
        }
    }
    Ok(records)
}

/// `git describe` of the working tree, for set files (`unknown` outside a
/// git checkout, as in the driver's).
fn git_rev() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn compare_command(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let read = |path: &String| {
        let doc = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Set::parse(&doc).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&read(a)?, &read(b)?)?;
    print!("{}", compare::table(&rows));
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (worse, unresolved) = (
        count(compare::Verdict::Worse),
        count(compare::Verdict::Unresolved),
    );
    println!(
        "# {} rows: {worse} worse, {unresolved} unresolved",
        rows.len()
    );
    if worse > 0 {
        return Err(format!("{worse} metric(s) regressed past their bound"));
    }
    Ok(())
}

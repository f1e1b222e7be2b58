//! `relbench`: the repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! relbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass of one workload
//! relbench all [--smoke] [--seed <n>] [--out <file>]                   every workload, each pass in a child process
//! relbench compare <parent.json> <change.json> [--benchmark <file>]    verdict per metric and workload
//! ```

mod gen;
mod host;
mod indb;
mod json;
mod layers;
mod metrics;
mod online;
mod report;
mod stats;
mod trace;
mod workload;

use json::Json;
use metrics::{metrics_json, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;
use workload::{Outcome, RunArgs};

/// Where trace files, result files and the sessions' scratch databases go,
/// relative to the directory the benchmark is run from: the repo root.
const OUT_DIR: &str = "benchmark/out";

/// Exit code of a refused or misused invocation.
const USAGE: u8 = 2;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let workload = flag(args, "--workload")
        .ok_or("missing --workload")?
        .to_string();
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {:?}",
            workload::NAMES
        ));
    }
    let seed = match flag(args, "--seed") {
        Some(s) => s.parse().map_err(|_| format!("bad --seed `{s}`"))?,
        None => gen::DEFAULT_SEED,
    };
    let seconds: f64 = flag(args, "--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match flag(args, "--trace") {
        Some("1") => true,
        Some("0") | None => false,
        Some(other) => return Err(format!("bad --trace `{other}`")),
    };
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One pass of one workload in this process: the interface the benchmark
/// contract drives.
fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    let set = host::forbidden_env_set();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {set:?} set: they change the program under test"
        ));
    }
    // The session's scratch database goes to the OS temp dir; keep it inside
    // the checkout. Set before any thread exists.
    let scratch = Path::new(OUT_DIR).join("tmp");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    std::env::set_var(
        "TMPDIR",
        std::fs::canonicalize(&scratch).map_err(|e| e.to_string())?,
    );

    println!(
        "relbench {} seed {} seconds {} trace {} | nproc {} isa {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        relserve_tensor::simd::active_isa().token()
    );
    let mut outcome = match args.workload.as_str() {
        "online_small" => online::run(&online::SMALL, args),
        "online_skewed" => online::run(&online::SKEWED, args),
        "batch_compute" => indb::run(&indb::COMPUTE, args),
        "large_spill" => indb::run(&indb::SPILL, args),
        other => unreachable!("workload `{other}` passed validation"),
    };
    outcome.values.insert("peak_rss_mb", host::peak_rss_mb());
    Ok(outcome)
}

fn print_outcome(args: &RunArgs, outcome: &Outcome) {
    let (defs, default_zero) = if args.trace {
        (PER_LAYER, true)
    } else {
        (END_TO_END, false)
    };
    for def in defs {
        let value = outcome.values.get(def.name).copied().unwrap_or(0.0);
        println!("{:<34} {value:>16.4} {}", def.name, def.unit);
    }
    println!(
        "{}{}",
        report::PARAMS_PREFIX,
        Json::Object(outcome.params.clone()).to_line()
    );
    println!("{}{}", report::VALID_PREFIX, outcome.valid);
    let line = Json::Object(vec![
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        (
            "metrics".into(),
            metrics_json(defs, &outcome.values, default_zero),
        ),
    ]);
    println!("{}", line.to_line());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => report::compare(&args[1..]),
        Some("all") => report::run_all(&args[1..]),
        _ => parse_run_args(&args).and_then(|run| {
            let outcome = run_workload(&run)?;
            if outcome.attempted == 0 {
                return Err("no operation was attempted".into());
            }
            print_outcome(&run, &outcome);
            Ok(ExitCode::SUCCESS)
        }),
    };
    result.unwrap_or_else(|why| {
        eprintln!("relbench: {why}");
        ExitCode::from(USAGE)
    })
}

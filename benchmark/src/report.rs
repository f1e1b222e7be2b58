//! `relbench all`, which runs every workload in child processes and writes
//! one result file, and `relbench compare`, which reads two of them.

use crate::gen::DEFAULT_SEED;
use crate::host;
use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartile_spread};
use crate::workload::NAMES;
use crate::{flag, OUT_DIR};
use std::path::Path;
use std::process::{Command, ExitCode};

/// Prefix of the stdout line carrying a pass's workload parameters.
pub const PARAMS_PREFIX: &str = "params: ";
/// Prefix of the stdout line saying whether the pass can be trusted.
pub const VALID_PREFIX: &str = "valid: ";

// ---- all ------------------------------------------------------------------

/// What one child pass printed.
struct Pass {
    valid: bool,
    params: Json,
    /// The contract's result line.
    line: Json,
}

fn child_pass(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        println!("  | {line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} child exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let find = |prefix: &str| stdout.lines().rev().find_map(|l| l.strip_prefix(prefix));
    Ok(Pass {
        valid: find(VALID_PREFIX) == Some("true"),
        params: Json::parse(find(PARAMS_PREFIX).ok_or("child printed no params")?)?,
        line: Json::parse(stdout.lines().last().ok_or("child printed nothing")?)?,
    })
}

fn metric_values(pass: &Pass) -> Vec<(String, String, f64)> {
    pass.line
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.clone(),
                m.get("unit")?.as_str()?.to_string(),
                m.get("value")?.as_f64()?,
            ))
        })
        .collect()
}

/// `relbench all`: every workload, three untraced passes and one traced
/// pass each (`--smoke`: one of each, 2 s long), one child process per pass.
pub fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let (runs, seconds) = if args.iter().any(|a| a == "--smoke") {
        (1, 2)
    } else {
        (3, benchmark_seconds())
    };
    let seed = match flag(args, "--seed") {
        Some(v) => v.parse::<u64>().map_err(|_| format!("bad --seed `{v}`"))?,
        None => DEFAULT_SEED,
    };
    let out = flag(args, "--out").map_or_else(|| format!("{OUT_DIR}/result.json"), str::to_string);
    let set = host::forbidden_env_set();
    if !set.is_empty() {
        return Err(format!("refusing to run with {set:?} set"));
    }

    let mut workloads = Vec::new();
    for name in NAMES {
        println!("== {name}: {runs} untraced pass(es) + 1 traced, {seconds} s each");
        let mut passes = Vec::new();
        for run in 0..runs {
            // Another seed per pass, as the acceptance rule runs them.
            passes.push(child_pass(name, seed + run, seconds, false)?);
        }
        let traced = child_pass(name, seed, seconds, true)?;
        let count = |key: &str| -> f64 {
            passes
                .iter()
                .filter_map(|p| p.line.get(key).and_then(Json::as_f64))
                .sum()
        };
        let mut end_to_end = Vec::new();
        for (name, unit, _) in metric_values(&passes[0]) {
            let values: Vec<Json> = passes
                .iter()
                .flat_map(metric_values)
                .filter(|(n, _, _)| *n == name)
                .map(|(_, _, v)| Json::Num(v))
                .collect();
            end_to_end.push((
                name,
                Json::Object(vec![
                    ("unit".into(), Json::Str(unit)),
                    ("values".into(), Json::Array(values)),
                ]),
            ));
        }
        let per_layer = metric_values(&traced)
            .into_iter()
            .map(|(name, unit, v)| {
                (
                    name,
                    Json::Object(vec![
                        ("unit".into(), Json::Str(unit)),
                        ("value".into(), Json::Num(v)),
                    ]),
                )
            })
            .collect();
        workloads.push((
            name.to_string(),
            Json::Object(vec![
                ("params".into(), passes[0].params.clone()),
                ("traced_params".into(), traced.params.clone()),
                ("valid".into(), Json::Bool(passes.iter().all(|p| p.valid))),
                ("attempted".into(), Json::Num(count("attempted"))),
                ("failed".into(), Json::Num(count("failed"))),
                ("end_to_end".into(), Json::Object(end_to_end)),
                ("per_layer".into(), Json::Object(per_layer)),
            ]),
        ));
    }
    let doc = Json::Object(vec![
        (
            "meta".into(),
            Json::Object(vec![
                ("commit".into(), Json::Str(host::git_commit(Path::new(".")))),
                ("nproc".into(), Json::Num(host::nproc() as f64)),
                (
                    "isa".into(),
                    Json::Str(relserve_tensor::simd::active_isa().token().into()),
                ),
                ("seed".into(), Json::Num(seed as f64)),
                ("seconds_per_pass".into(), Json::Num(seconds as f64)),
                ("untraced_passes".into(), Json::Num(runs as f64)),
            ]),
        ),
        ("workloads".into(), Json::Object(workloads)),
    ]);
    std::fs::write(&out, doc.to_line() + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!("result -> {out}");
    Ok(ExitCode::SUCCESS)
}

/// `run_seconds` of `BENCHMARK.json`, so `all` measures as long as the
/// contract's driver does; 20 when run from elsewhere.
fn benchmark_seconds() -> u64 {
    std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| doc.get("run_seconds")?.as_f64())
        .map_or(20, |s| s as u64)
}

// ---- compare --------------------------------------------------------------

/// What `compare` concludes about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the parent by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// One side's own spread exceeds the bound, or cannot be known.
    Unresolved,
}

/// The verdict for one metric: `parent` and `change` are each side's values
/// over its passes.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let resolved = |v: &[f64]| v.len() >= 2 && quartile_spread(v) <= bound;
    if !resolved(parent) || !resolved(change) {
        return Verdict::Unresolved;
    }
    let (p, c) = (median(parent), median(change));
    let worse_by = match better {
        Better::Lower => (c - p) / p,
        Better::Higher => (p - c) / p,
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Json, String> {
    Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

fn values_of(result: &Json, workload: &str, metric: &str) -> Vec<f64> {
    result
        .get("workloads")
        .and_then(|w| {
            w.get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("values")?
                .as_array()
        })
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn failed_frac(result: &Json, workload: &str) -> f64 {
    let field = |k: &str| {
        result
            .get("workloads")
            .and_then(|w| w.get(workload)?.get(k)?.as_f64())
            .unwrap_or(0.0)
    };
    field("failed") / field("attempted").max(1.0)
}

/// `relbench compare <parent.json> <change.json>`: one row per end-to-end
/// metric and workload; non-zero exit on any regression or on more failures.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [parent_path, change_path, ..] = args else {
        return Err(
            "usage: relbench compare <parent.json> <change.json> [--benchmark <file>]".into(),
        );
    };
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    let contract = load(flag(args, "--benchmark").unwrap_or("BENCHMARK.json"))?;
    let bound_of = |metric: &str| {
        contract
            .get("end_to_end")
            .and_then(Json::as_array)
            .and_then(|list| {
                list.iter()
                    .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?
                    .get("bound")?
                    .as_f64()
            })
            .ok_or_else(|| format!("BENCHMARK.json gives `{metric}` no bound"))
    };
    let mut bad = false;
    println!(
        "{:<15} {:<16} {:>14} {:>14} {:>22} {:>7}  verdict",
        "workload", "metric", "parent", "change", "ratio", "bound"
    );
    for workload in NAMES {
        for def in END_TO_END {
            let bound = bound_of(def.name)?;
            let (p, c) = (
                values_of(&parent, workload, def.name),
                values_of(&change, workload, def.name),
            );
            if p.is_empty() || c.is_empty() {
                return Err(format!(
                    "`{}` of {workload} is missing from an input",
                    def.name
                ));
            }
            let v = verdict(&p, &c, def.better, bound);
            bad |= v == Verdict::Regressed;
            let (pm, cm) = (median(&p), median(&c));
            println!(
                "{workload:<15} {:<16} {pm:>14.4} {cm:>14.4} {:>22} {bound:>7.2}  {}",
                def.name,
                format!("{:.4} x parent", cm / pm),
                format!("{v:?}").to_lowercase()
            );
        }
        let (pf, cf) = (
            failed_frac(&parent, workload),
            failed_frac(&change, workload),
        );
        if cf > pf {
            println!("{workload:<15} failed_frac rose from {pf:.6} to {cf:.6}");
            bad = true;
        }
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let steady = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(&steady, &[100.0, 102.0, 101.0], Better::Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&steady, &[120.0, 121.0, 119.0], Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&steady, &[120.0, 121.0, 119.0], Better::Higher, 0.10),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&steady, &[80.0, 81.0, 79.0], Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&steady, &[80.0, 81.0, 79.0], Better::Lower, 0.10),
            Verdict::Improved
        );
    }

    #[test]
    fn a_side_noisier_than_the_bound_is_unresolved() {
        let noisy = [100.0, 140.0, 80.0];
        assert_eq!(
            verdict(&noisy, &[300.0, 301.0, 302.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // One pass has no spread to judge by.
        assert_eq!(
            verdict(&[100.0], &[100.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }
}

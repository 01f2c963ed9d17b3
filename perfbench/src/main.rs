//! WA-RAN benchmark: one command, four workloads, end-to-end metrics by
//! default and per-layer metrics with `--trace 1`.
//!
//! ```text
//! perfbench --workload <sched-calls|mobile-ric-32|massive-500|plugin-churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Everything else (progress, the span table, excluded deadline faults)
//! goes to standard error. See `README.md` next to this crate.

mod churn;
mod common;
mod deploy;
mod layers;
mod sched_calls;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One metric as printed: value and unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Every output check passed (on the operations that did not fail).
    pub correct: bool,
    /// Operations attempted, in whole rounds.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // Debug formatting keeps every digit and round-trips.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    common::plugc_compile_us();
    let outcome = match args.workload.as_str() {
        "sched-calls" => sched_calls::run(&args),
        "mobile-ric-32" => deploy::run(&args, deploy::Kind::MobileRic32),
        "massive-500" => deploy::run(&args, deploy::Kind::Massive500),
        "plugin-churn" => churn::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

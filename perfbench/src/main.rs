//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Workloads: `paper-all`, `store-query`, `serve-tenants`,
//! `intercloud-placement`. Inputs are generated from `--seed`. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer metrics traced. The exit code is non-zero when any
//! operation or output check failed. See `perfbench/README.md`.

mod harness;
mod intercloud;
mod layers;
mod paper_all;
mod serve_tenants;
mod store_query;

use harness::{run, Args};
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = [
    "paper-all",
    "store-query",
    "serve-tenants",
    "intercloud-placement",
];

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (seed, smoke) = (args.seed, args.smoke);
    let result = match args.workload.as_str() {
        "paper-all" => run(&mut paper_all::PaperAll::new(seed, smoke), &args),
        "store-query" => run(&mut store_query::StoreQuery::new(seed, smoke), &args),
        "serve-tenants" => run(&mut serve_tenants::ServeTenants::new(seed, smoke), &args),
        _ => run(&mut intercloud::Intercloud::new(seed, smoke), &args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

//! dashbench: the standing end-to-end benchmark of the Dash serving
//! stack. `benchmark/README.md` defines every workload and metric.
//!
//! ```text
//! dashbench --workload <w> --seed <n> --seconds <s> --trace <0|1>   one run, one result line
//! dashbench run   --seed <n> [--seconds <s>]    every workload, end to end → benchmark/out/result-<n>.json
//! dashbench trace --seed <n> [--seconds <s>]    every workload, per layer  → benchmark/out/layers-<n>.json
//! dashbench compare <a.json> <b.json>           two result files side by side, against the bounds
//! dashbench spread <results…>                   the driver's steadiness check over result files
//! dashbench serve --seed <n> [--cpu <c>]        the program under test (spawned by the runs)
//! ```

mod affinity;
mod child;
mod client;
mod corpus;
mod e2e;
mod report;
mod rng;
mod script;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

/// Why a run could not finish, in words for the operator.
pub type Failure = String;

use script::Workload;
use spec::spec;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|at| args.get(at + 1))
        .map(String::as_str)
}

fn number(args: &[String], name: &str) -> Result<u64, String> {
    flag(args, name)
        .ok_or(format!("missing {name} <value>"))?
        .parse()
        .map_err(|_| format!("{name} takes a whole number"))
}

fn seconds(args: &[String]) -> Result<u64, String> {
    match flag(args, "--seconds") {
        Some(_) => Ok(number(args, "--seconds")?.max(1)),
        None => Ok(spec().run_seconds),
    }
}

/// The contract's command: one workload, one result line. Returns
/// whether the run was correct with nothing failed.
fn measure(args: &[String]) -> Result<bool, String> {
    let name = flag(args, "--workload").ok_or("missing --workload <name>")?;
    let workload = Workload::parse(name)
        .filter(|_| spec().workloads.iter().any(|(listed, _)| listed == name))
        .ok_or(format!("unknown workload {name}"))?;
    let seed = number(args, "--seed")?;
    let (result, listed) = match number(args, "--trace")? {
        0 => (
            e2e::run(workload, seed, seconds(args)?)?,
            &spec().end_to_end,
        ),
        _ => (
            trace::run(workload, seed, seconds(args)?)?,
            &spec().per_layer,
        ),
    };
    println!("{}", result.render(listed)?);
    Ok(result.correct && result.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        match args.first().map(String::as_str) {
            Some("serve") => number(&args, "--seed")
                .and_then(|seed| {
                    let cpu = flag(&args, "--cpu")
                        .map(|_| number(&args, "--cpu"))
                        .transpose()?;
                    child::serve(seed, cpu.map(|c| c as usize)).map_err(|e| e.to_string())
                })
                .map(|()| true),
            Some("run") => number(&args, "--seed")
                .and_then(|seed| report::run_all(seed, seconds(&args)?, false)),
            Some("trace") => number(&args, "--seed")
                .and_then(|seed| report::run_all(seed, seconds(&args)?, true)),
            Some("compare") => match &args[1..] {
                [before, after] => report::compare(before, after),
                _ => Err("compare takes two result files".to_string()),
            },
            Some("spread") => report::spreads(&args[1..]),
            _ => measure(&args),
        };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(problem) => {
            eprintln!("dashbench: {problem}");
            ExitCode::FAILURE
        }
    }
}

//! One full-table benchmark across bgpbench's three stacks.
//!
//! ```text
//! cargo run --release --offline --manifest-path fullbench/Cargo.toml -- \
//!     --workload <pipeline_fulltable|sim_fulltable|live_loopback> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the paper's three timed phases (table load,
//! update train, withdrawal) on one seeded modern workload, checks the
//! router against a reference model, and prints the run record and, as
//! the last line, one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics and ledger with `--trace 1`.

mod alloc;
mod inputs;
mod ledger;
mod live;
mod model;
mod pipeline;
mod report;
mod sim;

use report::Args;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: fullbench --workload <pipeline_fulltable|sim_fulltable|live_loopback> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "pipeline_fulltable" => pipeline::run(&args),
        "sim_fulltable" => sim::run(&args),
        "live_loopback" => live::run(&args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match result {
        Ok(report) => report.print(&args),
        Err(err) => {
            eprintln!("{}: {err}", args.workload);
            std::process::exit(1);
        }
    }
}

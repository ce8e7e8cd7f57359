//! Command line of the end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          [--out <results.jsonl>]
//! ```
//!
//! A run prints a human-readable report, a `record:` line holding the
//! full result (host block included), and last the one-line JSON result
//! `{"correct", "attempted", "failed", "metrics"}`. It exits 1 when a
//! correctness check or an operation failed, 2 on a usage error. The
//! cluster workload runs the `lt-node` binary `LT_NODE_BIN` names.

use e2ebench::host::Host;
use e2ebench::workloads::{RunOpts, WORKLOADS};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--out <file>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let opts = RunOpts {
        seed,
        seconds,
        trace,
        tiny: false,
        node_bin: lt_net::default_node_bin(),
    };
    let host = Host::probe(seed, e2ebench::daemons_for(&workload));
    let Some(outcome) = e2ebench::run(&workload, &opts) else {
        return usage(&format!("unknown workload {workload}"));
    };
    print!("{}", outcome.render(trace, &host));
    let record = outcome.record(trace, &host);
    println!("record: {record}");
    if let Some(path) = out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("e2ebench: cannot append to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", outcome.result_line(trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

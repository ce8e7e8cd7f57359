//! End-to-end benchmark of the tangle-learning executors.
//!
//! Four workloads drive the public entry points of the round simulator,
//! the gossip executor and the `lt-node` daemon cluster from generated
//! inputs, check their outputs, and report end-to-end metrics (measured
//! run) or per-layer metrics with a self-time table (traced run). See
//! `README.md` next to this crate for the workloads, the metrics and
//! the per-layer predictions.

pub mod host;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use report::Outcome;
use workloads::{daemons, gossip, roundsim, RunOpts};

/// Run `workload` once. `None` for an unknown workload name.
pub fn run(workload: &str, opts: &RunOpts) -> Option<Outcome> {
    let tiny = opts.tiny;
    Some(match workload {
        "femnist-robust" => {
            let s = roundsim::SimSpec::femnist_robust();
            roundsim::run(&if tiny { s.tiny() } else { s }, opts)
        }
        "blobs-delayed" => {
            let s = roundsim::SimSpec::blobs_delayed();
            roundsim::run(&if tiny { s.tiny() } else { s }, opts)
        }
        "gossip-churn" => {
            let s = gossip::GossipSpec::churn();
            gossip::run(&if tiny { s.tiny() } else { s }, opts)
        }
        "daemons-lockstep" => {
            let s = daemons::DaemonSpec::lockstep();
            daemons::run(&if tiny { s.tiny() } else { s }, opts)
        }
        _ => return None,
    })
}

/// Daemons the cluster workload runs on this host (0 for the
/// in-process workloads), for the host block.
pub fn daemons_for(workload: &str) -> usize {
    match workload {
        "daemons-lockstep" => daemons::DaemonSpec::lockstep().daemons,
        _ => 0,
    }
}

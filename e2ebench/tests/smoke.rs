//! Tiny-size smoke runs of every workload, measured and traced, and the
//! failure path of each correctness check.
//!
//! The cluster workload needs the release `lt-node` binary: run these
//! through `python3 e2ebench/run.py test`, which builds it and points
//! `LT_NODE_BIN` at it.

use e2ebench::workloads::{daemons, gossip, roundsim, RunOpts, PER_LAYER, WORKLOADS};
use e2ebench::{run, trace::Spans};
use lt_telemetry::Telemetry;

fn opts(seed: u64, trace: bool) -> RunOpts {
    RunOpts {
        seed,
        seconds: 0.01,
        trace,
        tiny: true,
        node_bin: lt_net::default_node_bin(),
    }
}

const END_TO_END: [&str; 5] = [
    "setup_s",
    "steps_per_s",
    "latency_ms_p50",
    "latency_ms_p90",
    "peak_rss_mb",
];

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    for w in WORKLOADS {
        let o = run(w, &opts(3, false)).expect("known workload");
        assert!(o.correct(), "{w}: {:?} {:?}", o.checks, o.notes);
        assert!(!o.checks.is_empty(), "{w} ran no check");
        let names: Vec<&str> = o.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END, "{w}");
        for m in &o.end_to_end {
            assert!(m.value.is_finite() && m.value > 0.0, "{w}: {m:?}");
        }
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\":true,"), "{w}: {line}");

        let t = run(w, &opts(3, true)).expect("known workload");
        assert!(t.correct(), "{w} traced: {:?}", t.checks);
        assert_eq!(t.per_layer.len(), PER_LAYER.len(), "{w}");
        assert!(
            t.table.iter().any(|r| r.name == "unattributed_share"),
            "{w}: table lacks the unattributed_share row"
        );
        let share = t
            .per_layer
            .iter()
            .find(|m| m.name == "unattributed_share")
            .expect("listed")
            .value;
        assert!((0.0..=1.0).contains(&share), "{w}: {share}");
    }
    assert!(run("no-such-workload", &opts(3, false)).is_none());
}

#[test]
fn round_sim_ledger_check_fails_on_a_different_ledger() {
    let spec = roundsim::SimSpec::blobs_delayed().tiny();
    let a = roundsim::job(&spec, 5, &Telemetry::disabled());
    let b = roundsim::job(&spec, 5, &e2ebench::trace::telemetry(true));
    let c = roundsim::job(&spec, 6, &Telemetry::disabled());
    let (da, db, dc) = (
        roundsim::ledger_digest(a.sim.tangle()),
        roundsim::ledger_digest(b.sim.tangle()),
        roundsim::ledger_digest(c.sim.tangle()),
    );
    assert_eq!(da, db, "tracing must not change the ledger");
    let check = e2ebench::report::Check::equal("traced ledger equals the untraced one", da, dc);
    assert!(
        check.result.is_err(),
        "a different ledger must fail the check"
    );
    assert!(roundsim::invariants_check(&a.sim, 5).result.is_ok());
}

#[test]
fn round_sim_invariants_check_fails_on_a_violation() {
    // No ledger the public `Tangle` API builds breaks an invariant, so
    // the failure enters as the violation the conformance check reports.
    let check = roundsim::ledger_check(Err(lt_conformance::Violation {
        invariant: "model-tips".into(),
        detail: "naive [3] vs real [4]".into(),
    }));
    assert_eq!(
        check.result,
        Err("model-tips: naive [3] vs real [4]".to_string())
    );
    let mut o = e2ebench::report::Outcome::new("blobs-delayed");
    o.attempted = 24;
    o.checks.push(check);
    assert!(!o.correct());
    assert!(o.result_line(false).starts_with("{\"correct\":false,"));
}

#[test]
fn gossip_consistency_check_fails_without_repair() {
    let spec = gossip::GossipSpec::churn().tiny();
    let mut gl = spec.setup(9, &mut Spans::new(false), &Telemetry::disabled());
    gl.run(spec.activations);
    // traffic of the last activations is still in flight
    assert!(gossip::consistency_check(gl.network(), true)
        .result
        .is_err());
    assert!(gossip::consistency_check(gl.network(), false)
        .result
        .is_err());
    let j = gossip::job(&spec, 9, &Telemetry::disabled());
    assert!(gossip::consistency_check(j.gl.network(), j.quiesced)
        .result
        .is_ok());
}

#[test]
fn daemon_checks_fail_on_a_diverged_archive_or_publish_count() {
    let spec = daemons::DaemonSpec::lockstep().tiny();
    let schedule = spec.schedule(4);
    let (mut oracle, acc, published) = daemons::oracle(&spec, &schedule);
    assert!((0.0..=1.0).contains(&acc));
    let j = daemons::job(&spec, &lt_net::default_node_bin(), &schedule, false);
    assert_eq!(j.error, None);
    assert!(daemons::published_check(published, j.published)
        .result
        .is_ok());
    assert!(daemons::published_check(published + 1, j.published)
        .result
        .is_err());
    assert!(daemons::archive_check(&j.archives, &oracle).result.is_ok());
    oracle.pop();
    assert!(daemons::archive_check(&j.archives, &oracle).result.is_err());
}

#[test]
fn a_missing_daemon_binary_fails_the_run_instead_of_reporting() {
    let mut o = opts(3, false);
    o.node_bin = "/nonexistent/lt-node".into();
    let out = run("daemons-lockstep", &o).expect("known workload");
    assert!(!out.correct());
    assert!(out.failed() > 0);
}

//! `daemons-lockstep`: one release `lt-node` daemon per CPU over
//! localhost TCP, driven by one thread over one control connection per
//! daemon. Each step activates a daemon from a seeded schedule, then
//! polls `Status` until every replica holds the new transaction with no
//! orphans and nothing missing.

use super::{
    job_seed, latency_metric, per_layer, ratio, trace_overhead, Budget, Measured, RunOpts,
    CORPUS_SEED,
};
use crate::host::{children_peak_rss_mb, nproc};
use crate::report::{Check, Outcome};
use crate::trace::{Spans, Table};
use lt_net::{Cluster, Preset, ORPHAN_CAP};
use rand::RngExt;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use tangle_gossip::learn::GossipLearning;
use tangle_gossip::{Latency, NetworkConfig, Topology};
use tinynn::rng::{derive, seeded};

/// Sleep between two `Status` polls. Busy-polling would take a core
/// from the daemons it waits for.
pub const POLL_SLEEP: Duration = Duration::from_micros(100);

/// A step that is not solid everywhere after this long has failed.
pub const STEP_TIMEOUT: Duration = Duration::from_secs(10);

/// Size of the cluster workload.
#[derive(Clone, Debug)]
pub struct DaemonSpec {
    /// Daemons (one per CPU).
    pub daemons: usize,
    /// Lockstep activations per job.
    pub activations: usize,
}

impl DaemonSpec {
    /// `nproc` daemons (at least two, so there is a network).
    pub fn lockstep() -> Self {
        Self {
            daemons: nproc().max(2),
            activations: 1000,
        }
    }

    /// The same workload at smoke-test size.
    pub fn tiny(mut self) -> Self {
        self.daemons = 2;
        self.activations = 12;
        self
    }

    /// The activation schedule, daemon index per step: the one input the
    /// run seed drives (the daemons' preset is the fixed corpus).
    pub fn schedule(&self, seed: u64) -> Vec<usize> {
        let mut rng = seeded(derive(seed, 6));
        (0..self.activations)
            .map(|_| rng.random_range(0..self.daemons))
            .collect()
    }
}

/// The in-process oracle: the gossip executor driven through the same
/// schedule, fully drained after every activation (lockstep), as the
/// daemons' shared preset defines it. Returns peer 0's archive in wire
/// form, its consensus accuracy, and its publish count.
pub fn oracle(spec: &DaemonSpec, schedule: &[usize]) -> (Vec<Vec<u8>>, f64, u64) {
    let preset = Preset {
        nodes: spec.daemons,
        seed: CORPUS_SEED,
    };
    let mut gl = GossipLearning::new(
        preset.dataset(),
        preset.sim_cfg(),
        NetworkConfig {
            topology: Topology::FullMesh,
            latency: Latency { min: 1, max: 2 },
            loss: 0.0,
            pow_difficulty: 0,
            seed: derive(CORPUS_SEED, 7),
            orphan_cap: ORPHAN_CAP,
        },
        Preset::build,
    );
    for &p in schedule {
        gl.activate(p);
        gl.network_mut().run_to_quiescence();
    }
    let archive = gl
        .network()
        .peer(0)
        .export_messages()
        .iter()
        .map(|m| m.encode().to_vec())
        .collect();
    (archive, f64::from(gl.evaluate_peer(0).1), gl.published())
}

/// Compare every daemon's archive with the oracle's, byte for byte.
pub fn archive_check(archives: &[Vec<Vec<u8>>], oracle: &[Vec<u8>]) -> Check {
    let bad: Vec<String> = archives
        .iter()
        .enumerate()
        .filter(|(_, a)| a.as_slice() != oracle)
        .map(|(i, a)| {
            format!(
                "daemon {i}: {} messages vs oracle {}",
                a.len(),
                oracle.len()
            )
        })
        .collect();
    Check::new(
        "daemon archives byte-equal to the in-process oracle",
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad.join("; "))
        },
    )
}

/// The daemons must publish as often as the oracle did.
pub fn published_check(oracle: u64, daemons: u64) -> Check {
    Check::equal("published count equals the oracle's", oracle, daemons)
}

/// What one job measured.
#[derive(Default)]
pub struct Job {
    /// Spawn seconds.
    pub setup_s: f64,
    /// Timed seconds of the lockstep loop.
    pub wall_s: f64,
    /// `Activate` round trip per step, ms.
    pub activation_ms: Vec<f64>,
    /// `Activate` sent → solid at every replica, per step, ms.
    pub solid_ms: Vec<f64>,
    /// Activations that published.
    pub published: u64,
    /// Control requests sent (activations and polls).
    pub requests: u64,
    /// Requests that erred, or steps that timed out.
    pub failures: u64,
    /// Every daemon's archive in wire form.
    pub archives: Vec<Vec<Vec<u8>>>,
    /// Daemon counters summed over the cluster, plus the
    /// `net.activate_us` histogram's `.count` and `.sum`.
    pub counters: BTreeMap<String, u64>,
    /// Summed peak RSS of the daemons, MiB.
    pub peak_rss_mb: f64,
    /// Harness spans (traced jobs only).
    pub spans: Spans,
    /// First error met, if any.
    pub error: Option<String>,
}

/// Spawn a cluster, drive the schedule in lockstep, collect archives
/// and metrics, and shut it down.
pub fn job(spec: &DaemonSpec, bin: &Path, schedule: &[usize], traced: bool) -> Job {
    let mut j = Job {
        spans: Spans::new(traced),
        ..Job::default()
    };
    let t = Instant::now();
    let spawned = j.spans.time("net.spawn", || {
        Cluster::spawn(bin, spec.daemons, CORPUS_SEED, 0)
    });
    j.setup_s = t.elapsed().as_secs_f64();
    let mut cluster = match spawned {
        Ok(c) => c,
        Err(e) => {
            j.failures += 1;
            j.error = Some(format!("spawn: {e}"));
            return j;
        }
    };
    let t = Instant::now();
    let mut len = 1u64; // genesis
    for (k, &target) in schedule.iter().enumerate() {
        match step(&mut cluster, &mut j, target, k as u64 + 1, len) {
            Ok(published) => len += u64::from(published),
            Err(e) => {
                j.failures += 1;
                j.error = Some(format!("step {k}: {e}"));
                break;
            }
        }
    }
    j.wall_s = t.elapsed().as_secs_f64();
    j.peak_rss_mb = children_peak_rss_mb("lt-node");
    match collect(&mut cluster, &mut j) {
        Ok(()) => {}
        Err(e) => {
            j.failures += 1;
            j.error.get_or_insert(format!("collect: {e}"));
        }
    }
    if let Err(e) = cluster.shutdown() {
        j.failures += 1;
        j.error.get_or_insert(format!("shutdown: {e}"));
    }
    j
}

/// One lockstep step; returns whether the activation published.
fn step(
    cluster: &mut Cluster,
    j: &mut Job,
    target: usize,
    slot: u64,
    len: u64,
) -> Result<bool, String> {
    let t0 = Instant::now();
    j.requests += 1;
    let published = j
        .spans
        .time("net.activate_rpc", || cluster.activate(target, slot))
        .map_err(|e| format!("activate: {e}"))?;
    j.activation_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    let want = len + u64::from(published);
    loop {
        j.requests += 1;
        let st = j
            .spans
            .time("net.status_poll", || cluster.status())
            .map_err(|e| format!("status: {e}"))?;
        if st
            .iter()
            .all(|s| u64::from(s.len) == want && s.orphans == 0 && s.missing == 0)
        {
            break;
        }
        if t0.elapsed() > STEP_TIMEOUT {
            return Err(format!("not solid after {STEP_TIMEOUT:?}: {st:?}"));
        }
        j.spans
            .time("net.poll_sleep", || std::thread::sleep(POLL_SLEEP));
    }
    j.solid_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    j.published += u64::from(published);
    Ok(published)
}

fn collect(cluster: &mut Cluster, j: &mut Job) -> std::io::Result<()> {
    j.archives = cluster
        .archives()?
        .iter()
        .map(|a| a.iter().map(|m| m.encode().to_vec()).collect())
        .collect();
    for (counters, histograms) in cluster.metrics()? {
        let hist = histograms
            .into_iter()
            .filter(|(n, _, _)| n == "net.activate_us")
            .flat_map(|(_, c, s)| {
                [
                    ("net.activate_us.count".to_string(), c),
                    ("net.activate_us.sum".to_string(), s),
                ]
            });
        for (name, v) in counters.into_iter().chain(hist) {
            *j.counters.entry(name).or_default() += v;
        }
    }
    j.requests += 2 * cluster.len() as u64;
    Ok(())
}

fn counter(j: &Job, name: &str) -> f64 {
    j.counters.get(name).map_or(0.0, |v| *v as f64)
}

/// One job checked against its oracle: the job and the oracle's
/// consensus accuracy.
fn checked_job(
    spec: &DaemonSpec,
    opts: &RunOpts,
    seed: u64,
    traced: bool,
    out: &mut Outcome,
) -> (Job, f64) {
    let schedule = spec.schedule(seed);
    let (expected, acc, published) = oracle(spec, &schedule);
    let j = job(spec, &opts.node_bin, &schedule, traced);
    out.attempted += j.requests.max(1);
    out.op_failures += j.failures;
    if let Some(e) = &j.error {
        out.notes.push(format!("error: {e}"));
    }
    out.checks.push(archive_check(&j.archives, &expected));
    out.checks.push(published_check(published, j.published));
    (j, acc)
}

/// Run the workload once, as the measured or the traced run.
pub fn run(spec: &DaemonSpec, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::new("daemons-lockstep");
    if opts.trace {
        traced(spec, opts, &mut out);
    } else {
        measured(spec, opts, &mut out);
    }
    out
}

/// Time cluster spawns after a job that took `job_wall_s` (see
/// [`Measured::time_setups`]); each spawn is an operation, and a failed
/// one counts as failed.
fn time_spawns(
    spec: &DaemonSpec,
    opts: &RunOpts,
    job_wall_s: f64,
    m: &mut Measured,
    out: &mut Outcome,
) {
    let mut spawn_errors = Vec::new();
    let spawns = m.time_setups(job_wall_s, |_| {
        Cluster::spawn(&opts.node_bin, spec.daemons, CORPUS_SEED, 0)
            .map_err(|e| spawn_errors.push(e.to_string()))
    });
    out.attempted += spawns as u64;
    out.op_failures += spawn_errors.len() as u64;
    out.notes
        .extend(spawn_errors.iter().map(|e| format!("error: spawn: {e}")));
}

fn measured(spec: &DaemonSpec, opts: &RunOpts, out: &mut Outcome) {
    let mut budget = Budget::new(opts.seconds, super::min_jobs(spec.activations, opts.tiny));
    let mut m = Measured::default();
    let mut act = Vec::new();
    let mut jobs = 0;
    while budget.another() {
        let seed = job_seed(opts.seed, jobs);
        jobs += 1;
        let (j, acc) = checked_job(spec, opts, seed, false, out);
        let steps = j.activation_ms.len() as u64;
        m.record_job(steps, j.wall_s, &j.solid_ms, acc, j.peak_rss_mb);
        act.extend(&j.activation_ms);
        time_spawns(spec, opts, j.wall_s, &mut m, out);
    }
    if m.latency_ms.is_empty() {
        out.notes.push("the cluster completed no step".into());
        m.latency_ms.push(0.0);
        act.push(0.0);
    }
    out.end_to_end = m.end_to_end();
    out.notes.push(m.job_note());
    out.named = m.common_named();
    for (name, samples, p) in [
        ("activation_ms_p50", &act, 50.0),
        ("activation_ms_p99", &act, 99.0),
        ("solid_ms_p50", &m.latency_ms, 50.0),
        ("solid_ms_p99", &m.latency_ms, 99.0),
    ] {
        out.named
            .push(latency_metric(name, samples, p, &mut out.notes));
    }
    out.notes.push(format!(
        "{} daemons, {jobs} jobs of {} lockstep activations; latency_ms_* = solid_ms; \
         final_acc from the byte-equal in-process oracle",
        spec.daemons, spec.activations,
    ));
}

fn traced(spec: &DaemonSpec, opts: &RunOpts, out: &mut Outcome) {
    let mut budget = Budget::new(opts.seconds, 2);
    let mut pairs = Vec::new();
    let mut last = None;
    while budget.another() {
        let seed = job_seed(opts.seed, pairs.len());
        let (plain, _) = checked_job(spec, opts, seed, false, out);
        let (traced, _) = checked_job(spec, opts, seed, true, out);
        pairs.push((plain.wall_s, traced.wall_s));
        last = Some(traced);
    }
    let j = last.expect("at least one job");
    let mut t = Table::new((j.setup_s + j.wall_s) * 1e3);
    let activate = counter(&j, "net.activate_us.sum") / 1e3;
    t.row("net.spawn", j.spans.ms("net.spawn"), "harness span")
        .row(
            "net.poll_sleep",
            j.spans.ms("net.poll_sleep"),
            "harness span",
        )
        .row(
            "net.activate (daemon span)",
            activate,
            "summed over daemons",
        )
        .uncovered(
            "Cluster::activate",
            j.spans.ms("net.activate_rpc") - activate,
        )
        .uncovered("Cluster::status", j.spans.ms("net.status_poll"));
    let share = t.unattributed_share();
    out.table = t.finish();
    if counter(&j, "net.activate_us.count") == 0.0 {
        out.notes.push(
            "net.activate_us is empty: the daemons record no span timings, so the \
             activation's time inside the daemon is unattributed"
                .into(),
        );
    }
    let bytes = counter(&j, "net.bytes_sent");
    out.per_layer = per_layer(&[
        (
            "core.publish_ratio",
            ratio(j.published as f64, spec.activations as f64),
        ),
        ("net.activate_ms", activate),
        ("net.frames_sent", counter(&j, "net.frames_sent")),
        ("net.bytes_sent", bytes),
        (
            "net.bytes_per_publish",
            ratio(bytes, counter(&j, "net.published")),
        ),
        ("net.dropped", counter(&j, "net.dropped")),
        ("net.rerequests", counter(&j, "net.rerequests")),
        ("unattributed_share", share),
        ("trace_overhead", trace_overhead(&pairs[1..])),
    ]);
    out.notes.push(format!(
        "{} untraced/traced job pairs (the first warms up); each checked against its own oracle",
        pairs.len()
    ));
}

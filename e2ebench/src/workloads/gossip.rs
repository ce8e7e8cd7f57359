//! `gossip-churn`: the discrete-event gossip executor under link faults
//! and crash/restart churn, followed by pull repair to quiescence.

use super::{
    job_seed, latency_metric, per_layer, ratio, trace_overhead, Budget, Fnv, Measured, RunOpts,
    CORPUS_SEED,
};
use crate::host::{own_peak_rss_mb, pool_width};
use crate::report::{Check, Metric, Outcome};
use crate::trace::{self, Snapshot, Spans, Table};
use feddata::blobs::{self, BlobsConfig};
use learning_tangle::{SimConfig, TangleHyperParams};
use lt_telemetry::Telemetry;
use std::time::Instant;
use tangle_gossip::learn::GossipLearning;
use tangle_gossip::{FaultPlan, Latency, NetStats, Network, NetworkConfig, Topology};
use tinynn::rng::{derive, seeded};
use tinynn::zoo::mlp;

/// Size and fault schedule of the gossip workload.
#[derive(Clone, Debug)]
pub struct GossipSpec {
    /// Peers (one client each).
    pub peers: usize,
    /// Activations per job (one tick each).
    pub activations: u64,
    /// Crash/restart cycles spread over the job.
    pub churn_cycles: usize,
    /// Checkpoint cadence, ticks.
    pub checkpoint_every: u64,
    /// Repair advertisement rounds allowed after the run.
    pub repair_rounds: usize,
}

impl GossipSpec {
    /// 16 peers, degree-4 random-regular graph, 8 churn cycles.
    pub fn churn() -> Self {
        Self {
            peers: 16,
            activations: 1000,
            churn_cycles: 8,
            checkpoint_every: 64,
            repair_rounds: 64,
        }
    }

    /// The same workload at smoke-test size.
    pub fn tiny(mut self) -> Self {
        self.peers = 6;
        self.activations = 60;
        self.churn_cycles = 2;
        self.checkpoint_every = 16;
        self
    }

    /// Generate the data, build the learner and arm the fault plan.
    pub fn setup(&self, seed: u64, spans: &mut Spans, tel: &Telemetry) -> GossipLearning<'static> {
        let data = spans.time("feddata.generate", || {
            blobs::generate(
                &BlobsConfig {
                    users: self.peers,
                    samples_per_user: (24, 36),
                    noise_std: 0.7,
                    ..BlobsConfig::default()
                },
                derive(CORPUS_SEED, 1),
            )
        });
        spans.time("setup.construct", || {
            let init = derive(CORPUS_SEED, 2);
            let cfg = SimConfig {
                lr: 0.15,
                batch_size: 8,
                eval_fraction: 1.0,
                seed: derive(seed, 3),
                hyper: TangleHyperParams {
                    confidence_samples: 8,
                    reference_avg: 3,
                    ..TangleHyperParams::basic()
                },
                ..SimConfig::default()
            };
            let net = NetworkConfig {
                topology: Topology::RandomRegular { degree: 4 },
                latency: Latency { min: 1, max: 4 },
                seed: derive(seed, 4),
                ..NetworkConfig::default()
            };
            let mut gl =
                GossipLearning::new(data, cfg, net, move || mlp(8, &[16], 4, &mut seeded(init)));
            gl.set_telemetry(tel.clone());
            let downtime = (self.activations / (2 * (self.churn_cycles as u64 + 1))).max(1);
            let mut plan = FaultPlan::churn(
                self.peers,
                self.churn_cycles,
                self.activations,
                downtime,
                derive(seed, 5),
            );
            plan.drop = 0.05;
            plan.duplicate = 0.03;
            plan.corrupt = 0.03;
            plan.reorder_jitter = 2;
            let net = gl.network_mut();
            net.install_faults(plan);
            net.set_checkpointing(self.checkpoint_every, None);
            gl
        })
    }
}

/// What one job measured.
pub struct Job {
    /// The learner after repair.
    pub gl: GossipLearning<'static>,
    /// Set-up seconds.
    pub setup_s: f64,
    /// Timed seconds: activations plus repair.
    pub wall_s: f64,
    /// Latency of each activation, ms.
    pub activation_ms: Vec<f64>,
    /// Wall seconds of `repair_to_quiescence`.
    pub reconverge_s: f64,
    /// Did repair reach quiescence?
    pub quiesced: bool,
    /// Peer 0's consensus accuracy after repair.
    pub final_acc: f64,
    /// Peak RSS right after repair, before any check ran.
    pub peak_rss_mb: f64,
    /// Harness spans of the job (traced jobs only).
    pub spans: Spans,
    /// Network statistics before repair.
    pub stats_before_repair: NetStats,
}

/// Run one job of `spec` at `seed`.
pub fn job(spec: &GossipSpec, seed: u64, tel: &Telemetry) -> Job {
    let mut spans = Spans::new(tel.enabled());
    let t = Instant::now();
    let mut gl = spec.setup(seed, &mut spans, tel);
    let setup_s = t.elapsed().as_secs_f64();
    let mut activation_ms = Vec::with_capacity(spec.activations as usize);
    let t = Instant::now();
    for _ in 0..spec.activations {
        let ta = Instant::now();
        spans.time("gossip.activate", || gl.run(1));
        activation_ms.push(ta.elapsed().as_secs_f64() * 1e3);
    }
    let stats_before_repair = gl.network().stats;
    let tr = Instant::now();
    let quiesced = spans.time("gossip.repair", || {
        gl.network_mut().repair_to_quiescence(spec.repair_rounds)
    });
    let reconverge_s = tr.elapsed().as_secs_f64();
    let wall_s = t.elapsed().as_secs_f64();
    let peak_rss_mb = own_peak_rss_mb();
    let final_acc = f64::from(spans.time("core.eval", || gl.evaluate_peer(0)).1);
    Job {
        gl,
        setup_s,
        wall_s,
        activation_ms,
        reconverge_s,
        quiesced,
        final_acc,
        peak_rss_mb,
        spans,
        stats_before_repair,
    }
}

/// Digest of peer 0's replica in wire form.
pub fn replica_digest(net: &Network) -> u64 {
    let mut h = Fnv::default();
    for m in net.peer(0).export_messages() {
        h.eat(&m.encode());
    }
    h.finish()
}

/// Replicas must agree once repair quiesced.
pub fn consistency_check(net: &Network, quiesced: bool) -> Check {
    let result = match (quiesced, net.replicas_consistent()) {
        (true, true) => Ok(()),
        (q, c) => Err(format!(
            "repair quiesced={q}, replicas_consistent={c}, replica lengths {:?}",
            net.peers().iter().map(|p| p.len()).collect::<Vec<_>>()
        )),
    };
    Check::new("replicas consistent after repair", result)
}

/// Run the workload once, as the measured or the traced run.
pub fn run(spec: &GossipSpec, opts: &RunOpts) -> Outcome {
    if opts.trace {
        traced(spec, opts)
    } else {
        measured(spec, opts)
    }
}

fn measured(spec: &GossipSpec, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::new("gossip-churn");
    let off = Telemetry::disabled();
    let mut budget = Budget::new(
        opts.seconds,
        super::min_jobs(spec.activations as usize, opts.tiny),
    );
    let mut m = Measured::default();
    let mut reconverge = Vec::new();
    while budget.another() {
        let j = job(spec, job_seed(opts.seed, reconverge.len()), &off);
        out.attempted += spec.activations;
        m.record_job(
            spec.activations,
            j.wall_s,
            &j.activation_ms,
            j.final_acc,
            j.peak_rss_mb,
        );
        reconverge.push(j.reconverge_s);
        out.checks
            .push(consistency_check(j.gl.network(), j.quiesced));
        m.time_setups(j.wall_s, |k| {
            spec.setup(job_seed(opts.seed, k), &mut Spans::new(false), &off)
        });
    }
    out.end_to_end = m.end_to_end();
    out.notes.push(m.job_note());
    out.named = m.common_named();
    out.named.push(latency_metric(
        "activation_ms_p50",
        &m.latency_ms,
        50.0,
        &mut out.notes,
    ));
    out.named.push(latency_metric(
        "activation_ms_p99",
        &m.latency_ms,
        99.0,
        &mut out.notes,
    ));
    out.named.push(Metric::new(
        "reconverge_s",
        "s",
        crate::stats::median(&reconverge),
    ));
    out.notes.push(format!(
        "{} jobs of {} activations over {} peers; latency_ms_* = activation_ms; \
         steps_per_s counts repair time",
        reconverge.len(),
        spec.activations,
        spec.peers
    ));
    out
}

fn traced(spec: &GossipSpec, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::new("gossip-churn");
    let mut budget = Budget::new(opts.seconds, 2);
    let mut pairs = Vec::new();
    let mut last = None;
    while budget.another() {
        let seed = job_seed(opts.seed, pairs.len());
        let plain = job(spec, seed, &Telemetry::disabled());
        let tel = trace::telemetry(true);
        let traced = job(spec, seed, &tel);
        out.attempted += 2 * spec.activations;
        pairs.push((plain.wall_s, traced.wall_s));
        out.checks
            .push(consistency_check(traced.gl.network(), traced.quiesced));
        out.checks.push(Check::equal(
            "traced replica equals the untraced one",
            replica_digest(plain.gl.network()),
            replica_digest(traced.gl.network()),
        ));
        last = Some((traced, tel));
    }
    let (j, tel) = last.expect("at least one traced job");
    let s = Snapshot::of(&tel);
    let p = pool_width() as f64;
    let stats = j.gl.network().stats;
    let deliver = s.span_ms("gossip.deliver_us");
    let encode = s.span_ms("wire.encode_us");
    let train = s.span_ms("node.local_train_us");
    // A node step samples its tips with parallel walks on the pool.
    let tips = s.span_ms("tangle.tip_selection_us") / p;
    let analysis = s.span_ms("tangle.analysis_us");
    let confidence = s.span_ms("tangle.confidence_us");
    let (hits, misses) = (
        s.counter("eval_cache.hits") as f64,
        s.counter("eval_cache.misses") as f64,
    );
    let wall_ms = (j.setup_s + j.wall_s) * 1e3;
    let mut t = Table::new(wall_ms);
    t.row(
        "feddata.generate",
        j.spans.ms("feddata.generate"),
        "harness span",
    )
    .row(
        "setup.construct",
        j.spans.ms("setup.construct"),
        "harness span",
    )
    .row("gossip.deliver", deliver, "span")
    .row("gossip.encode", encode, "span")
    .row("tinynn.local_train", train, "span")
    .row("tangle.analysis", analysis, "span")
    .row("tangle.confidence", confidence, "span")
    .row(
        "tangle.tip_selection",
        tips,
        &format!("busy / {p} pool threads"),
    )
    .uncovered(
        "GossipLearning::run + Network::repair_to_quiescence",
        j.spans.ms("gossip.activate") + j.spans.ms("gossip.repair")
            - (deliver + encode + train + analysis + confidence + tips),
    );
    let share = t.unattributed_share();
    out.table = t.finish();
    out.per_layer = per_layer(&[
        ("tinynn.local_train_ms", train),
        ("core.eval_ms", j.spans.ms("core.eval")),
        (
            "core.publish_ratio",
            ratio(j.gl.published() as f64, spec.activations as f64),
        ),
        ("eval_cache.hit_ratio", ratio(hits, hits + misses)),
        ("eval_cache.hits", hits),
        ("eval_cache.misses", misses),
        ("tangle.analysis_ms", analysis),
        ("tangle.confidence_ms", confidence),
        ("tangle.tip_selection_ms", tips),
        ("tangle.walks", s.counter("tangle.walks") as f64),
        ("tangle.walk_len_mean", s.mean("tangle.walk_len")),
        (
            "tangle.cache_appends",
            s.counter("tangle.cache_appends") as f64,
        ),
        (
            "tangle.cache_rebuilds",
            s.counter("tangle.cache_rebuilds") as f64,
        ),
        ("gossip.deliver_ms", deliver),
        ("gossip.encode_ms", encode),
        ("gossip.delivered", stats.delivered as f64),
        ("gossip.duplicates", stats.duplicates as f64),
        ("gossip.orphaned", stats.orphaned as f64),
        ("gossip.rerequests", stats.rerequests as f64),
        ("gossip.checkpoints", s.counter("fault.checkpoint") as f64),
        (
            "gossip.useful_ratio",
            ratio(
                stats.delivered as f64 - stats.duplicates as f64 - stats.rejected as f64,
                stats.delivered as f64,
            ),
        ),
        ("feddata.generate_ms", j.spans.ms("feddata.generate")),
        ("unattributed_share", share),
        ("trace_overhead", trace_overhead(&pairs[1..])),
    ]);
    out.notes.push(format!(
        "{} untraced/traced job pairs (the first warms up) of {} activations; repair moved {} rerequests \
         after the run ({} before it)",
        pairs.len(),
        spec.activations,
        stats.rerequests - j.stats_before_repair.rerequests,
        j.stats_before_repair.rerequests
    ));
    out
}

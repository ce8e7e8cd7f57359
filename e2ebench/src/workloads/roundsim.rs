//! Round-simulator workloads: `femnist-robust` and `blobs-delayed`.
//!
//! A job builds a fresh [`Simulation`] from the seed and runs a fixed
//! number of rounds, evaluating the consensus model periodically. Jobs
//! repeat while the measuring time allows; every job of a run has the
//! same inputs, so every job must end on the same ledger.

use super::{
    job_seed, latency_metric, per_layer, ratio, trace_overhead, Budget, Fnv, Measured, RunOpts,
    CORPUS_SEED,
};
use crate::host::{own_peak_rss_mb, pool_width};
use crate::report::{Check, Metric, Outcome};
use crate::trace::{self, Snapshot, Spans, Table};
use feddata::blobs::{self, BlobsConfig};
use feddata::femnist::{self, FemnistConfig};
use feddata::FederatedDataset;
use learning_tangle::node::ModelParams;
use learning_tangle::{
    assign_malicious, AttackKind, NetworkModel, SimConfig, Simulation, TangleHyperParams,
};
use lt_conformance::{check_ledger_invariants, Violation};
use lt_telemetry::Telemetry;
use std::time::Instant;
use tangle_ledger::Tangle;
use tinynn::rng::{derive, seeded};
use tinynn::zoo::{femnist_cnn, mlp, CnnConfig};
use tinynn::Sequential;

/// Which dataset and model a round-sim workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// Scaled FEMNIST-like images with the scaled CNN.
    Femnist,
    /// Gaussian blobs with a one-hidden-layer MLP.
    Blobs,
}

/// Size and configuration of a round-sim workload.
#[derive(Clone, Debug)]
pub struct SimSpec {
    /// Workload name.
    pub name: &'static str,
    /// Dataset and model.
    pub task: Task,
    /// Clients in the generated dataset.
    pub users: usize,
    /// Nodes activated per round.
    pub nodes_per_round: usize,
    /// Rounds per job.
    pub rounds: u64,
    /// Consensus evaluation stride, rounds.
    pub eval_every: u64,
    /// Accuracy target of `time_to_acc_s`.
    pub acc_target: f64,
    /// Fraction of nodes flipping labels 3→8 from round 1.
    pub poisoned: f64,
    /// Tangle hyperparameters.
    pub hyper: TangleHyperParams,
    /// Delayed, lossy publication (`None` = ideal network).
    pub network: Option<NetworkModel>,
    /// Learning rate.
    pub lr: f32,
}

impl SimSpec {
    /// §III-E tip validation under a 20% label-flip attack, CNN compute.
    pub fn femnist_robust() -> Self {
        Self {
            name: "femnist-robust",
            task: Task::Femnist,
            users: FemnistConfig::scaled().users,
            nodes_per_round: 35,
            rounds: 25,
            eval_every: 10,
            acc_target: 0.30,
            poisoned: 0.2,
            hyper: TangleHyperParams::robust(35),
            network: None,
            lr: 0.06,
        }
    }

    /// Stale per-node views and lost publications, MLP compute.
    pub fn blobs_delayed() -> Self {
        Self {
            name: "blobs-delayed",
            task: Task::Blobs,
            users: 100,
            nodes_per_round: 50,
            rounds: 60,
            eval_every: 10,
            acc_target: 0.60,
            poisoned: 0.0,
            hyper: TangleHyperParams::basic(),
            network: Some(NetworkModel {
                max_delay_rounds: 3,
                publish_loss: 0.05,
            }),
            lr: 0.2,
        }
    }

    /// The same workload at smoke-test size.
    pub fn tiny(mut self) -> Self {
        self.users = 12;
        self.nodes_per_round = 6;
        self.rounds = 4;
        self.eval_every = 2;
        if self.hyper.tip_validation {
            self.hyper = TangleHyperParams::robust(6);
        }
        self
    }

    fn dataset(&self) -> FederatedDataset {
        match self.task {
            Task::Femnist => femnist::generate(
                &FemnistConfig {
                    users: self.users,
                    ..FemnistConfig::scaled()
                },
                derive(CORPUS_SEED, 1),
            ),
            Task::Blobs => blobs::generate(
                &BlobsConfig {
                    users: self.users,
                    ..BlobsConfig::default()
                },
                derive(CORPUS_SEED, 1),
            ),
        }
    }

    fn model(&self) -> impl Fn() -> Sequential + Sync + 'static {
        let task = self.task;
        let init = derive(CORPUS_SEED, 2);
        move || match task {
            Task::Femnist => {
                let f = FemnistConfig::scaled();
                femnist_cnn(f.img, f.classes, CnnConfig::scaled(), &mut seeded(init))
            }
            Task::Blobs => {
                let b = BlobsConfig::default();
                mlp(b.dim, &[16], b.classes, &mut seeded(init))
            }
        }
    }

    fn config(&self, seed: u64) -> SimConfig {
        SimConfig {
            nodes_per_round: self.nodes_per_round,
            lr: self.lr,
            batch_size: 16,
            eval_fraction: 1.0,
            seed: derive(seed, 3),
            hyper: self.hyper,
            network: self.network,
            ..SimConfig::default()
        }
    }

    /// Generate the data and build the simulation: the set-up phase.
    pub fn setup(&self, seed: u64, spans: &mut Spans, tel: &Telemetry) -> Simulation<'static> {
        let data = spans.time("feddata.generate", || self.dataset());
        spans.time("setup.construct", || {
            let mut sim =
                Simulation::new(data, self.config(seed), self.model()).with_telemetry(tel.clone());
            if self.poisoned > 0.0 {
                assign_malicious(
                    sim.nodes_mut(),
                    self.poisoned,
                    1,
                    AttackKind::LabelFlip { src: 3, dst: 8 },
                    derive(seed, 4),
                    learning_tangle::attack::default_flip_source(3, 8),
                );
            }
            sim
        })
    }
}

/// What one job measured.
pub struct Job {
    /// The simulation after the last round.
    pub sim: Simulation<'static>,
    /// Set-up seconds.
    pub setup_s: f64,
    /// Timed seconds (rounds and evaluations).
    pub wall_s: f64,
    /// Latency of each `Simulation::round`, ms.
    pub round_ms: Vec<f64>,
    /// Seconds from the first round until an evaluation first met the
    /// target.
    pub time_to_acc_s: Option<f64>,
    /// Consensus accuracy after the last round.
    pub final_acc: f64,
    /// Peak RSS right after the rounds, before any check ran.
    pub peak_rss_mb: f64,
    /// Harness spans of the job (traced jobs only).
    pub spans: Spans,
}

/// Run one job of `spec` at `seed`.
pub fn job(spec: &SimSpec, seed: u64, tel: &Telemetry) -> Job {
    let mut spans = Spans::new(tel.enabled());
    let t = Instant::now();
    let mut sim = spec.setup(seed, &mut spans, tel);
    let setup_s = t.elapsed().as_secs_f64();
    let eval_seed = derive(seed, 5);
    let mut round_ms = Vec::with_capacity(spec.rounds as usize);
    let mut time_to_acc_s = None;
    let mut final_acc = 0.0;
    let t = Instant::now();
    for r in 1..=spec.rounds {
        let tr = Instant::now();
        spans.time("core.round", || sim.round());
        round_ms.push(tr.elapsed().as_secs_f64() * 1e3);
        if r % spec.eval_every == 0 || r == spec.rounds {
            final_acc = f64::from(spans.time("core.eval", || sim.evaluate(eval_seed)).accuracy);
            if time_to_acc_s.is_none() && final_acc >= spec.acc_target {
                time_to_acc_s = Some(t.elapsed().as_secs_f64());
            }
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    Job {
        peak_rss_mb: own_peak_rss_mb(),
        sim,
        setup_s,
        wall_s,
        round_ms,
        time_to_acc_s,
        final_acc,
        spans,
    }
}

/// Digest of a ledger: structure and every payload bit.
pub fn ledger_digest(t: &Tangle<ModelParams>) -> u64 {
    let mut h = Fnv::default();
    for tx in t.transactions() {
        h.u64(tx.issuer);
        h.u64(tx.round);
        for p in &tx.parents {
            h.u64(p.index() as u64);
        }
        for w in tx.payload.as_slice() {
            h.eat(&w.to_bits().to_le_bytes());
        }
        h.u64(u64::MAX);
    }
    h.finish()
}

/// The structural and confidence invariants of a final ledger.
pub fn invariants_check(sim: &Simulation<'_>, seed: u64) -> Check {
    ledger_check(check_ledger_invariants(sim.tangle(), sim.config(), seed))
}

/// The check recording what `check_ledger_invariants` found.
pub fn ledger_check(found: Result<(), Violation>) -> Check {
    Check::new(
        "ledger passes check_ledger_invariants",
        found.map_err(|v| format!("{}: {}", v.invariant, v.detail)),
    )
}

/// Run the workload once, as the measured or the traced run.
pub fn run(spec: &SimSpec, opts: &RunOpts) -> Outcome {
    if opts.trace {
        traced(spec, opts)
    } else {
        measured(spec, opts)
    }
}

fn measured(spec: &SimSpec, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::new(spec.name);
    let off = Telemetry::disabled();
    let mut budget = Budget::new(
        opts.seconds,
        super::min_jobs(spec.rounds as usize, opts.tiny),
    );
    let mut m = Measured::default();
    let mut tta = Vec::new();
    while budget.another() {
        let seed = job_seed(opts.seed, tta.len());
        let j = job(spec, seed, &off);
        out.attempted += spec.rounds * spec.nodes_per_round as u64;
        let steps = spec.rounds * spec.nodes_per_round as u64;
        m.record_job(steps, j.wall_s, &j.round_ms, j.final_acc, j.peak_rss_mb);
        tta.push(j.time_to_acc_s);
        out.checks.push(invariants_check(&j.sim, seed));
        m.time_setups(j.wall_s, |k| {
            spec.setup(job_seed(opts.seed, k), &mut Spans::new(false), &off)
        });
    }
    out.end_to_end = m.end_to_end();
    out.notes.push(m.job_note());
    out.named = m.common_named();
    out.named.push(latency_metric(
        "round_ms_p50",
        &m.latency_ms,
        50.0,
        &mut out.notes,
    ));
    out.named.push(latency_metric(
        "round_ms_p90",
        &m.latency_ms,
        90.0,
        &mut out.notes,
    ));
    let reached: Vec<f64> = tta.iter().flatten().copied().collect();
    if reached.len() == tta.len() {
        out.named.push(Metric::new(
            "time_to_acc_s",
            "s",
            crate::stats::median(&reached),
        ));
    } else {
        out.notes.push(format!(
            "time_to_acc_s: accuracy {} not reached in {} of {} jobs",
            spec.acc_target,
            tta.len() - reached.len(),
            tta.len()
        ));
    }
    out.notes.push(format!(
        "{} jobs of {} rounds x {} nodes; latency_ms_* = round_ms; time_to_acc_s target {}",
        tta.len(),
        spec.rounds,
        spec.nodes_per_round,
        spec.acc_target
    ));
    out
}

fn traced(spec: &SimSpec, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::new(spec.name);
    let mut budget = Budget::new(opts.seconds, 2);
    let mut pairs = Vec::new();
    let mut last = None;
    while budget.another() {
        let seed = job_seed(opts.seed, pairs.len());
        let plain = job(spec, seed, &Telemetry::disabled());
        let tel = trace::telemetry(true);
        let traced = job(spec, seed, &tel);
        out.attempted += 2 * spec.rounds * spec.nodes_per_round as u64;
        pairs.push((plain.wall_s, traced.wall_s));
        out.checks.push(invariants_check(&plain.sim, seed));
        out.checks.push(Check::equal(
            "traced ledger equals the untraced one",
            ledger_digest(plain.sim.tangle()),
            ledger_digest(traced.sim.tangle()),
        ));
        last = Some((traced, tel));
    }
    let (j, tel) = last.expect("at least one traced job");
    let s = Snapshot::of(&tel);
    let p = pool_width().min(spec.nodes_per_round) as f64;
    // On the ideal network the round context (analysis and confidence)
    // is built once per round outside the pool; under the delay model
    // every node builds its own inside the parallel step.
    let ctx_par = if spec.network.is_some() { p } else { 1.0 };
    let train = s.span_ms("node.local_train_us") / p;
    let tips = s.span_ms("tangle.tip_selection_us") / p;
    let analysis = s.span_ms("tangle.analysis_us") / ctx_par;
    let confidence = s.span_ms("tangle.confidence_us") / ctx_par;
    let (ph_analysis, ph_step, ph_publish) = (
        s.span_ms("span.analysis"),
        s.span_ms("span.step"),
        s.span_ms("span.publish"),
    );
    let steps = (spec.rounds * spec.nodes_per_round as u64) as f64;
    let published = s.counter("sim.published") as f64;
    let (hits, misses) = (
        s.counter("eval_cache.hits") as f64,
        s.counter("eval_cache.misses") as f64,
    );
    let wall_ms = (j.setup_s + j.wall_s) * 1e3;
    let mut t = Table::new(wall_ms);
    let par = format!("busy / {p} pool threads");
    t.row(
        "feddata.generate",
        j.spans.ms("feddata.generate"),
        "harness span",
    )
    .row(
        "setup.construct",
        j.spans.ms("setup.construct"),
        "harness span",
    );
    if spec.network.is_some() {
        t.row("tangle.analysis", analysis, &par)
            .row("tangle.confidence", confidence, &par);
    } else {
        t.row(
            "core.analysis (self)",
            ph_analysis - analysis - confidence,
            "phase_us",
        )
        .row("tangle.analysis", analysis, "span")
        .row("tangle.confidence", confidence, "span");
    }
    let step_children = train
        + tips
        + if spec.network.is_some() {
            analysis + confidence
        } else {
            0.0
        };
    t.row(
        "core.step (self)",
        ph_step - step_children,
        "phase_us minus children",
    )
    .row("tinynn.local_train", train, &par)
    .row("tangle.tip_selection", tips, &par)
    .row("core.publish", ph_publish, "phase_us")
    .row("core.eval", j.spans.ms("core.eval"), "harness span")
    .uncovered(
        "Simulation::round",
        j.spans.ms("core.round") - ph_analysis - ph_step - ph_publish,
    );
    let share = t.unattributed_share();
    out.table = t.finish();
    out.per_layer = per_layer(&[
        ("tinynn.local_train_ms", train),
        ("core.analysis_ms", ph_analysis),
        ("core.step_ms", ph_step),
        ("core.publish_ms", ph_publish),
        ("core.eval_ms", j.spans.ms("core.eval")),
        ("core.publish_ratio", ratio(published, steps)),
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
        ("feddata.generate_ms", j.spans.ms("feddata.generate")),
        ("unattributed_share", share),
        ("trace_overhead", trace_overhead(&pairs[1..])),
    ]);
    out.notes.push(format!(
        "{} untraced/traced job pairs (the first warms up) of {} rounds x {} nodes",
        pairs.len(),
        spec.rounds,
        spec.nodes_per_round
    ));
    out
}

//! The round-based learning-tangle simulator used for every paper
//! experiment.
//!
//! Training is organized in rounds for comparability with FedAvg (paper
//! §IV): each round samples `nodes_per_round` nodes, all of them see the
//! tangle *as of the end of the previous round*, run Algorithm 2
//! concurrently, and their publications are appended together at the round
//! barrier.
//!
//! Under a [`crate::config::NetworkModel`] a node instead sees the ledger
//! as of the end of a round up to `max_delay_rounds` earlier; the ideal
//! network is the special case of delay 0. Either way a view is a prefix
//! of the ledger named by its length, and its weights, ratings, depths
//! and walk table depend on nothing else. So one [`AnalysisCache`],
//! refreshed once per round, serves every view: its round-end snapshots
//! are kept for as many rounds as a delay can reach back, and every node
//! whose view has that length shares the snapshot.

use crate::config::SimConfig;
use crate::dp::DpConfig;
use crate::eval_cache::{EvalCache, ScratchPool, DEFAULT_EVAL_CACHE_CAPACITY};
use crate::node::{node_step_pooled, ModelParams, Node, RoundContext, StepOutcome, ViewAnalysis};
use feddata::{ClientData, FederatedDataset};
use lt_telemetry::{Event, ReferenceEntry, RoundEvent, StepEvent, Telemetry};
use parking_lot::Mutex;
use rand::RngExt;
use rayon::prelude::*;
use std::sync::Arc;
use tangle_ledger::{AnalysisCache, Tangle, TangleView};
use tinynn::loss::predictions;
use tinynn::rng::{derive, seeded};
use tinynn::{ParamVec, Sequential};

/// Statistics of one simulated round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundStats {
    /// Round index (1-based).
    pub round: u64,
    /// Nodes sampled this round.
    pub sampled: usize,
    /// Transactions actually published.
    pub published: usize,
    /// Publications issued by nodes behaving maliciously this round.
    pub malicious_published: usize,
    /// Tip count after the round.
    pub tips: usize,
}

/// Result of a consensus-model evaluation.
#[derive(Clone, Copy, Debug)]
pub struct EvalResult {
    /// Accuracy on the pooled clean held-out data of the sampled clients.
    pub accuracy: f32,
    /// Cross-entropy loss on the same pool.
    pub loss: f32,
    /// Fraction of the reference transactions issued by nodes that were
    /// malicious when they published.
    pub reference_poisoned_fraction: f32,
}

/// A complete learning-tangle run: population, ledger, and configuration.
pub struct Simulation<'a> {
    nodes: Vec<Node>,
    tangle: Tangle<ModelParams>,
    /// Scratch models of the shared architecture, reused across rounds and
    /// workers (params are fully assigned before every use).
    scratch: ScratchPool<'a>,
    cfg: SimConfig,
    dp: Option<DpConfig>,
    round: u64,
    /// `round_end_len[r]` = ledger size at the end of round `r`
    /// (`[0]` = 1, the genesis): the lengths that name the nodes' views.
    round_end_len: Vec<usize>,
    /// Publications dropped by the lossy network so far.
    lost_publications: u64,
    /// Per-view analyses shared across nodes and rounds (`None` = every
    /// round context runs the batch DPs on its own view). Produces
    /// bit-identical runs either way; only the cost differs.
    shared: Option<SharedAnalysis>,
    /// Per-node evaluation memoization (`None` = re-run every forward
    /// pass). Like the analysis cache this is a pure optimization: entries
    /// are keyed by the chained history signature, probes consume no
    /// randomness, and runs are bit-identical with it on or off.
    eval: Option<Vec<Mutex<EvalCache>>>,
    /// Observability handle; disabled (no-op) unless attached.
    telemetry: Telemetry,
}

/// The incremental analysis cache plus the analyses it produced at recent
/// round ends, keyed by view length. Ledger views are prefixes, so a
/// length names one view, and a snapshot taken when the ledger had that
/// length is that view's analysis.
struct SharedAnalysis {
    cache: AnalysisCache,
    /// `(view length, analysis)` in ascending length, one per distinct
    /// round-end length a delayed view can still name.
    snapshots: Vec<(usize, ViewAnalysis)>,
}

impl SharedAnalysis {
    fn new(tangle: &Tangle<ModelParams>) -> Self {
        Self {
            cache: AnalysisCache::new(tangle),
            snapshots: Vec::new(),
        }
    }

    /// Catch the cache up with the round-start ledger (one incremental
    /// refresh per round) and snapshot it; forget snapshots of views
    /// shorter than `oldest`, which no delay can name any more.
    fn refresh(
        &mut self,
        tangle: &Tangle<ModelParams>,
        oldest: usize,
        cfg: &SimConfig,
        telemetry: &Telemetry,
    ) {
        self.cache.refresh_observed(tangle, telemetry);
        self.snapshots.retain(|(len, _)| *len >= oldest);
        if self.snapshots.last().map(|(len, _)| *len) != Some(tangle.len()) {
            let snapshot = ViewAnalysis::snapshot(&self.cache, tangle, cfg);
            self.snapshots.push((tangle.len(), snapshot));
        }
    }

    /// The analysis of the view of length `len`, if it was snapshotted.
    fn get(&self, len: usize) -> Option<ViewAnalysis> {
        self.snapshots
            .iter()
            .find(|(l, _)| *l == len)
            .map(|(_, view)| view.clone())
    }
}

/// Seed of the round context every node shares on an ideal network (and of
/// the consensus that [`Simulation::evaluate`] reads after `round - 1`).
fn ideal_ctx_seed(seed: u64, round: u64) -> u64 {
    derive(seed, round ^ 0xC0FF_EE00)
}

/// Seed of node `ni`'s own round context under a
/// [`crate::config::NetworkModel`].
fn delayed_ctx_seed(seed: u64, round: u64, ni: usize) -> u64 {
    derive(seed, (round ^ 0xC0FF_EE00) ^ ((ni as u64) << 32))
}

/// One fresh eval cache per node.
fn fresh_eval_caches(n: usize) -> Vec<Mutex<EvalCache>> {
    (0..n)
        .map(|_| Mutex::new(EvalCache::new(DEFAULT_EVAL_CACHE_CAPACITY)))
        .collect()
}

impl<'a> Simulation<'a> {
    /// Create a simulation over a federated dataset. The genesis
    /// transaction carries one fresh model initialization — the shared
    /// starting point, like the initial model a FedAvg server distributes.
    pub fn new(
        data: FederatedDataset,
        cfg: SimConfig,
        build: impl Fn() -> Sequential + Sync + 'a,
    ) -> Self {
        let genesis = Arc::new(ParamVec::from_model(&build()));
        let nodes: Vec<Node> = data
            .clients
            .into_iter()
            .enumerate()
            .map(|(i, c)| Node::honest(i, c))
            .collect();
        let tangle = Tangle::new(genesis);
        Self {
            eval: Some(fresh_eval_caches(nodes.len())),
            nodes,
            shared: Some(SharedAnalysis::new(&tangle)),
            tangle,
            scratch: ScratchPool::new(Box::new(build)),
            cfg,
            dp: None,
            round: 0,
            round_end_len: vec![1],
            lost_publications: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Publications dropped so far by the lossy-network model.
    pub fn lost_publications(&self) -> u64 {
        self.lost_publications
    }

    /// Attach an observability handle (builder style). Training rounds
    /// record metrics and emit [`Event`]s through it; evaluation helpers
    /// stay unobserved so counters reflect training work only.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attach or replace the observability handle in place.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The current observability handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Enable differential-privacy noise on all published parameters.
    pub fn with_dp(mut self, dp: DpConfig) -> Self {
        self.dp = Some(dp);
        self
    }

    /// Enable or disable the shared per-view analysis (on by default).
    /// Disabled, every round context runs the batch DPs on its own view:
    /// once per round on an ideal network, and once per node under a
    /// [`crate::config::NetworkModel`] — the per-node fresh-DP oracle the
    /// differential tests compare the shared path against. Runs are
    /// bit-identical either way.
    #[cfg(test)]
    pub fn with_analysis_cache(mut self, enabled: bool) -> Self {
        self.shared = enabled.then(|| SharedAnalysis::new(&self.tangle));
        self
    }

    /// Enable or disable per-node evaluation memoization (on by default).
    /// Runs are bit-identical either way — evaluations are pure in the
    /// parameters and data, and probes consume no randomness — so the only
    /// reason to disable it is to measure or test the uncached path.
    pub fn with_eval_cache(mut self, enabled: bool) -> Self {
        self.eval = enabled.then(|| fresh_eval_caches(self.nodes.len()));
        self
    }

    /// Resume from a persisted ledger (see [`crate::persist`]): the
    /// network keeps its full history; training continues from whatever
    /// consensus the saved tangle encodes. The restored transactions are
    /// attributed to one synthetic pre-resume round.
    ///
    /// # Panics
    /// Panics if the ledger's parameter dimension does not match the model
    /// architecture produced by `build`.
    pub fn resume(
        data: FederatedDataset,
        cfg: SimConfig,
        build: impl Fn() -> Sequential + Sync + 'a,
        tangle: Tangle<ModelParams>,
    ) -> Self {
        let expect = build().param_count();
        for tx in tangle.transactions() {
            assert_eq!(
                tx.payload.len(),
                expect,
                "persisted ledger does not match the model architecture"
            );
        }
        let nodes: Vec<Node> = data
            .clients
            .into_iter()
            .enumerate()
            .map(|(i, c)| Node::honest(i, c))
            .collect();
        let len = tangle.len();
        Self {
            eval: Some(fresh_eval_caches(nodes.len())),
            nodes,
            shared: Some(SharedAnalysis::new(&tangle)),
            tangle,
            scratch: ScratchPool::new(Box::new(build)),
            cfg,
            dp: None,
            round: 1,
            round_end_len: vec![1, len],
            lost_publications: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The node population (e.g. for attack assignment).
    pub fn nodes_mut(&mut self) -> &mut [Node] {
        &mut self.nodes
    }

    /// The node population, read-only.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The ledger.
    pub fn tangle(&self) -> &Tangle<ModelParams> {
        &self.tangle
    }

    /// Rounds completed.
    pub fn rounds_done(&self) -> u64 {
        self.round
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Run one round.
    pub fn round(&mut self) -> RoundStats {
        self.round += 1;
        let round = self.round;
        let mut rng = seeded(derive(self.cfg.seed, round));
        // Sample active nodes.
        let n = self.nodes.len();
        let k = self.cfg.nodes_per_round.clamp(1, n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        self.run_round(round, idx)
    }

    /// Scriptable activation-order hook: run the next round activating
    /// exactly `idx` (in that order) instead of the seeded Fisher–Yates
    /// sample. Everything downstream of node selection — context seeds,
    /// per-node RNG streams, the publish barrier, telemetry — is identical
    /// to [`Self::round`], so a scripted run is bit-reproducible and can be
    /// compared step-for-step against other executors driven through the
    /// same schedule (the conformance harness's differential oracle).
    ///
    /// # Panics
    /// Panics if `idx` is empty or names a node outside the population.
    pub fn round_with_nodes(&mut self, idx: &[usize]) -> RoundStats {
        assert!(!idx.is_empty(), "a round must activate at least one node");
        assert!(
            idx.iter().all(|&ni| ni < self.nodes.len()),
            "scripted activation out of range"
        );
        self.round += 1;
        let round = self.round;
        self.run_round(round, idx.to_vec())
    }

    /// The body shared by [`Self::round`] and [`Self::round_with_nodes`]:
    /// one full round over an already-chosen activation list.
    fn run_round(&mut self, round: u64, idx: Vec<usize>) -> RoundStats {
        let k = idx.len();
        let tel = self.telemetry.clone();
        let mut phases = tel.phases();
        let cfg = &self.cfg;
        // Every node acts on the ledger as of some round end, with some
        // context seed. On an ideal network that is the end of the previous
        // round and one seed for all; under a NetworkModel each node draws a
        // delay (the first draw of its own stream) and has its own seed.
        // Nodes with the same (view length, seed) share one context.
        let mut keys: Vec<(usize, u64)> = Vec::new();
        let mut steps = Vec::with_capacity(k);
        for &ni in &idx {
            let mut node_rng = seeded(derive(cfg.seed, (round << 24) ^ ni as u64));
            let (delay, ctx_seed) = match cfg.network {
                None => (0, ideal_ctx_seed(cfg.seed, round)),
                Some(net) => (
                    node_rng.random_range(0..=net.max_delay_rounds),
                    delayed_ctx_seed(cfg.seed, round, ni),
                ),
            };
            let key = (
                self.round_end_len[(round - 1).saturating_sub(delay) as usize],
                ctx_seed,
            );
            let slot = keys.iter().position(|&x| x == key).unwrap_or_else(|| {
                keys.push(key);
                keys.len() - 1
            });
            steps.push((ni, slot, node_rng));
        }
        let max_delay = cfg.network.map_or(0, |net| net.max_delay_rounds);
        let oldest = self.round_end_len[(round - 1).saturating_sub(max_delay) as usize];
        // Zero-copy stale views: O(1), no payload clones.
        let views: Vec<TangleView<'_, ModelParams>> = keys
            .iter()
            .map(|&(len, _)| TangleView::new(&self.tangle, len))
            .collect();
        let (tangle, shared) = (&self.tangle, &mut self.shared);
        let contexts: Vec<RoundContext<'_, TangleView<'_, ModelParams>>> =
            phases.measure("analysis", || {
                if let Some(shared) = shared.as_mut() {
                    shared.refresh(tangle, oldest, cfg, &tel);
                }
                let shared = shared.as_ref();
                views
                    .par_iter()
                    .zip(keys.par_iter())
                    .map(|(view, &(len, ctx_seed))| {
                        let analysis = shared
                            .and_then(|s| s.get(len))
                            .unwrap_or_else(|| ViewAnalysis::compute(view, cfg, &tel));
                        RoundContext::from_analysis(
                            view,
                            analysis,
                            cfg,
                            round,
                            ctx_seed,
                            tel.clone(),
                        )
                    })
                    .collect()
            });
        // Only an ideal network has one round-wide reference to report.
        let reference_entries: Vec<ReferenceEntry> = match &contexts[..] {
            [ctx] if tel.enabled() && cfg.network.is_none() => ctx
                .reference_ids
                .iter()
                .map(|id| ReferenceEntry {
                    tx: id.index() as u32,
                    confidence: ctx.confidence[id.index()],
                    rating: ctx.analysis.rating[id.index()],
                })
                .collect(),
            _ => Vec::new(),
        };
        let eval = &self.eval;
        let outcomes: Vec<(usize, StepOutcome)> = phases.measure("step", || {
            steps
                .into_par_iter()
                .map(|(ni, slot, mut node_rng)| {
                    let mut guard = eval.as_ref().map(|caches| caches[ni].lock());
                    let out = node_step_pooled(
                        &self.nodes[ni],
                        &contexts[slot],
                        &self.scratch,
                        cfg,
                        &mut node_rng,
                        guard.as_deref_mut(),
                    );
                    (ni, out)
                })
                .collect()
        });
        // Round barrier: publish everything at once.
        let mut published = 0;
        let mut malicious_published = 0;
        let mut rejected = 0u64;
        let mut dp_rng = seeded(derive(self.cfg.seed, round ^ 0xD11F_F00D));
        let mut loss_rng = seeded(derive(self.cfg.seed, round ^ 0x1057_0000));
        phases.measure("publish", || {
            for (ni, out) in outcomes {
                let mut accepted = false;
                let mut parents: Vec<u32> = Vec::new();
                match out.publish {
                    None => rejected += 1,
                    Some(mut p) => {
                        let lost = self.cfg.network.is_some_and(|net| {
                            net.publish_loss > 0.0
                                && loss_rng.random_range(0.0..1.0) < net.publish_loss
                        });
                        if lost {
                            self.lost_publications += 1;
                            tel.count("sim.lost_publications", 1);
                        } else {
                            if let Some(dp) = &self.dp {
                                // Privatize relative to the averaged parent base.
                                let bases: Vec<&ParamVec> = p
                                    .parents
                                    .iter()
                                    .map(|id| self.tangle.get(*id).payload.as_ref())
                                    .collect();
                                let base = ParamVec::average(&bases);
                                p.params = crate::dp::privatize(&p.params, &base, dp, &mut dp_rng);
                            }
                            if self.nodes[ni].is_malicious(round) {
                                malicious_published += 1;
                            }
                            parents = p.parents.iter().map(|id| id.index() as u32).collect();
                            self.tangle
                                .add_meta(Arc::new(p.params), p.parents, ni as u64, round)
                                .expect("parents come from the same tangle");
                            published += 1;
                            accepted = true;
                        }
                    }
                }
                tel.emit(|| {
                    Event::Step(StepEvent {
                        round,
                        node: ni as u64,
                        accepted,
                        parents,
                        new_loss: out.new_loss,
                        reference_loss: out.reference_loss,
                    })
                });
            }
        });
        self.round_end_len.push(self.tangle.len());
        let tips = self.tangle.tip_count();
        tel.count("sim.published", published as u64);
        tel.count("sim.rejected", rejected);
        if tel.enabled() {
            let walk_count = tel.counter_value("tangle.walks");
            let (_, walk_len_sum) = tel.histogram_totals("tangle.walk_len");
            let phase_us = phases.finish();
            let tangle_len = self.tangle.len() as u64;
            let lost_publications = self.lost_publications;
            tel.emit(|| {
                Event::Round(RoundEvent {
                    round,
                    sampled: k as u64,
                    published: published as u64,
                    rejected,
                    malicious_published: malicious_published as u64,
                    lost_publications,
                    tip_count: tips as u64,
                    tangle_len,
                    reference: reference_entries,
                    walk_count,
                    walk_len_sum,
                    phase_us,
                })
            });
        }
        RoundStats {
            round,
            sampled: k,
            published,
            malicious_published,
            tips,
        }
    }

    /// Compute the current consensus parameters (Algorithm 1 over the
    /// latest snapshot, averaging `reference_avg` transactions).
    pub fn consensus_params(&self) -> ParamVec {
        let ctx = RoundContext::build(
            &self.tangle,
            &self.cfg,
            self.round + 1,
            ideal_ctx_seed(self.cfg.seed, self.round + 1),
        );
        ctx.reference
    }

    /// Ids and poisoned-issuer fraction of the current reference set.
    fn reference_info(&self) -> (ParamVec, f32) {
        let ctx = RoundContext::build(
            &self.tangle,
            &self.cfg,
            self.round + 1,
            ideal_ctx_seed(self.cfg.seed, self.round + 1),
        );
        let mut poisoned = 0usize;
        for id in &ctx.reference_ids {
            let tx = self.tangle.get(*id);
            if tx.issuer != u64::MAX {
                let node = &self.nodes[tx.issuer as usize];
                if node.is_malicious(tx.round) {
                    poisoned += 1;
                }
            }
        }
        let frac = poisoned as f32 / ctx.reference_ids.len().max(1) as f32;
        (ctx.reference, frac)
    }

    /// Pool the *clean* held-out data of an `eval_fraction` sample of all
    /// nodes (the paper validates "using the test datasets of a random
    /// selection of 10% of all nodes").
    fn eval_pool(&self, eval_seed: u64) -> Vec<&ClientData> {
        eval_pool_indices(
            self.cfg.seed,
            eval_seed,
            self.nodes.len(),
            self.cfg.eval_fraction,
        )
        .into_iter()
        .map(|i| &self.nodes[i].data)
        .collect()
    }

    /// Evaluate the consensus model.
    pub fn evaluate(&self, eval_seed: u64) -> EvalResult {
        let (reference, poisoned_frac) = self.reference_info();
        let clients = self.eval_pool(eval_seed);
        let mut model = self.scratch.take();
        let (loss, accuracy) = fedavg::evaluate_params(&mut model, &reference, &clients);
        self.scratch.put(model);
        EvalResult {
            accuracy,
            loss,
            reference_poisoned_fraction: poisoned_frac,
        }
    }

    /// Backdoor attack-success rate: stamp the trigger onto every clean
    /// evaluation image whose true label differs from `target` and report
    /// the fraction the consensus model then classifies as `target`.
    /// Requires image data (`[N, C, H, W]`).
    pub fn backdoor_success(&self, target: u32, patch: usize, eval_seed: u64) -> f32 {
        let (reference, _) = self.reference_info();
        let clients = self.eval_pool(eval_seed);
        let mut model = self.scratch.take();
        reference.assign_to(&mut model);
        let mut total = 0usize;
        let mut hit = 0usize;
        for c in clients {
            if c.test_len() == 0 {
                continue;
            }
            let mut triggered = c.test_x.clone();
            feddata::poison::apply_trigger(&mut triggered, patch, 1.0);
            let preds = predictions(&model.predict(&triggered));
            for (p, &t) in preds.iter().zip(&c.test_y) {
                if t != target {
                    total += 1;
                    if *p == target {
                        hit += 1;
                    }
                }
            }
        }
        self.scratch.put(model);
        if total == 0 {
            0.0
        } else {
            hit as f32 / total as f32
        }
    }

    /// Fig. 6b metric: among evaluation samples whose true label is `src`,
    /// the fraction the consensus model predicts as `dst`.
    pub fn target_misclassification(&self, src: u32, dst: u32, eval_seed: u64) -> f32 {
        let (reference, _) = self.reference_info();
        let clients = self.eval_pool(eval_seed);
        let mut model = self.scratch.take();
        reference.assign_to(&mut model);
        let mut total = 0usize;
        let mut hit = 0usize;
        for c in clients {
            if c.test_len() == 0 {
                continue;
            }
            let logits = model.predict(&c.test_x);
            let preds = predictions(&logits);
            for (p, &t) in preds.iter().zip(&c.test_y) {
                if t == src {
                    total += 1;
                    if *p == dst {
                        hit += 1;
                    }
                }
            }
        }
        self.scratch.put(model);
        if total == 0 {
            0.0
        } else {
            hit as f32 / total as f32
        }
    }
}

/// Indices of the evaluation pool: an `eval_fraction` sample of `n`
/// nodes, shuffled by an RNG derived from `(seed, eval_seed)`. Factored
/// out of [`Simulation::evaluate`] so every executor (round, async,
/// gossip, networked daemon) draws the *same* pool and consensus
/// evaluations agree bit-for-bit.
pub fn eval_pool_indices(seed: u64, eval_seed: u64, n: usize, eval_fraction: f32) -> Vec<usize> {
    let mut rng = seeded(derive(seed, 0x5EED_0000 ^ eval_seed));
    let k = (((n as f32) * eval_fraction).round() as usize).clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{assign_malicious, AttackKind};
    use crate::config::TangleHyperParams;
    use feddata::blobs::{self, BlobsConfig};
    use tinynn::rng::seeded as tseed;

    fn dataset(users: usize) -> FederatedDataset {
        blobs::generate(
            &BlobsConfig {
                users,
                samples_per_user: (24, 36),
                noise_std: 0.6,
                ..BlobsConfig::default()
            },
            77,
        )
    }

    fn build() -> Sequential {
        tinynn::zoo::mlp(8, &[12], 4, &mut tseed(5))
    }

    fn quick_cfg() -> SimConfig {
        SimConfig {
            nodes_per_round: 5,
            lr: 0.15,
            local_epochs: 1,
            batch_size: 8,
            train_chunks: 1,
            train_parallel: true,
            eval_fraction: 0.5,
            seed: 3,
            hyper: TangleHyperParams {
                confidence_samples: 8,
                ..TangleHyperParams::basic()
            },
            network: None,
        }
    }

    #[test]
    fn tangle_learning_converges_on_blobs() {
        let mut sim = Simulation::new(dataset(10), quick_cfg(), build);
        let acc0 = sim.evaluate(0).accuracy;
        for _ in 0..20 {
            sim.round();
        }
        let acc1 = sim.evaluate(0).accuracy;
        assert!(
            acc1 > acc0 + 0.2,
            "tangle learning should improve: {acc0} -> {acc1}"
        );
        assert!(sim.tangle().len() > 10, "transactions should be published");
    }

    #[test]
    fn round_stats_are_sane() {
        let mut sim = Simulation::new(dataset(8), quick_cfg(), build);
        let s = sim.round();
        assert_eq!(s.round, 1);
        assert_eq!(s.sampled, 5);
        assert!(s.published <= s.sampled);
        assert_eq!(s.malicious_published, 0);
        assert!(s.tips >= 1);
    }

    #[test]
    fn tip_count_stays_bounded() {
        // "the combination of averaging and training ensures that the number
        // of tips in the network remains constant given a fixed rate of
        // incoming updates" (§III-C).
        let mut sim = Simulation::new(dataset(12), quick_cfg(), build);
        for _ in 0..15 {
            sim.round();
        }
        assert!(
            sim.tangle().tip_count() <= 3 * sim.config().nodes_per_round,
            "tips exploded: {}",
            sim.tangle().tip_count()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| {
            let mut cfg = quick_cfg();
            cfg.seed = seed;
            let mut sim = Simulation::new(dataset(8), cfg, build);
            for _ in 0..5 {
                sim.round();
            }
            (sim.tangle().len(), sim.evaluate(0).accuracy)
        };
        assert_eq!(run(9), run(9));
    }

    /// Full fingerprint of a short observed run: per-round stats, the
    /// ledger structure (issuer + parent indices per tx), the consensus
    /// accuracy, and the raw telemetry JSONL bytes.
    type RunFingerprint = (Vec<RoundStats>, Vec<(u64, Vec<u32>)>, f32, Vec<u8>);

    fn fingerprint(cfg: SimConfig, cache: bool, path: &std::path::Path) -> RunFingerprint {
        observe(Simulation::new(dataset(10), cfg, build), cache, path)
    }

    /// [`fingerprint`] of an already-built simulation (e.g. a resumed one).
    fn observe(sim: Simulation<'_>, cache: bool, path: &std::path::Path) -> RunFingerprint {
        let sink = lt_telemetry::JsonlSink::create(path).expect("create jsonl");
        let mut sim = sim
            .with_analysis_cache(cache)
            .with_telemetry(Telemetry::new(sink));
        let stats: Vec<RoundStats> = (0..6).map(|_| sim.round()).collect();
        if cache {
            assert_eq!(
                sim.telemetry().counter_value("tangle.cache_hits"),
                6,
                "the shared analysis must be refreshed exactly once per round"
            );
            assert_eq!(sim.telemetry().counter_value("tangle.cache_rebuilds"), 0);
        }
        let structure = sim
            .tangle()
            .transactions()
            .iter()
            .map(|tx| {
                (
                    tx.issuer,
                    tx.parents.iter().map(|p| p.index() as u32).collect(),
                )
            })
            .collect();
        let accuracy = sim.evaluate(0).accuracy;
        let bytes = std::fs::read(path).expect("read jsonl");
        let _ = std::fs::remove_file(path);
        (stats, structure, accuracy, bytes)
    }

    #[test]
    fn cache_on_and_off_are_bit_identical() {
        // The cache must be a pure optimization: same seed with the cache
        // enabled and disabled yields the same rounds, ledger, accuracy,
        // and telemetry bytes — only `tangle.cache_*` metrics may differ
        // (they never reach the JSONL event stream).
        let dir = std::env::temp_dir();
        let on = fingerprint(quick_cfg(), true, &dir.join("lt_cache_on.jsonl"));
        let off = fingerprint(quick_cfg(), false, &dir.join("lt_cache_off.jsonl"));
        assert_eq!(on.0, off.0, "RoundStats must match");
        assert_eq!(on.1, off.1, "ledger structure must match");
        assert_eq!(on.2, off.2, "accuracy must match");
        assert!(!on.3.is_empty(), "telemetry must produce output");
        assert_eq!(on.3, off.3, "telemetry JSONL must be byte-identical");
    }

    /// Like [`fingerprint`], toggling the *eval* cache instead of the
    /// analysis cache, and asserting the cached run actually memoizes.
    fn fingerprint_eval(cfg: SimConfig, eval: bool, path: &std::path::Path) -> RunFingerprint {
        let sink = lt_telemetry::JsonlSink::create(path).expect("create jsonl");
        let mut sim = Simulation::new(dataset(10), cfg, build)
            .with_eval_cache(eval)
            .with_telemetry(Telemetry::new(sink));
        let stats: Vec<RoundStats> = (0..6).map(|_| sim.round()).collect();
        if eval {
            assert!(
                sim.telemetry().counter_value("eval_cache.hits") > 0,
                "the memoized run must serve hits"
            );
        } else {
            assert_eq!(sim.telemetry().counter_value("eval_cache.hits"), 0);
            assert_eq!(sim.telemetry().counter_value("eval_cache.misses"), 0);
        }
        let structure = sim
            .tangle()
            .transactions()
            .iter()
            .map(|tx| {
                (
                    tx.issuer,
                    tx.parents.iter().map(|p| p.index() as u32).collect(),
                )
            })
            .collect();
        let accuracy = sim.evaluate(0).accuracy;
        let bytes = std::fs::read(path).expect("read jsonl");
        let _ = std::fs::remove_file(path);
        (stats, structure, accuracy, bytes)
    }

    #[test]
    fn eval_cache_on_and_off_are_bit_identical() {
        // Memoized evaluation must be a pure optimization: evaluations are
        // pure in (params, data) and probes consume no randomness, so the
        // same seed yields the same rounds, ledger, accuracy, and telemetry
        // bytes — only `eval_cache.*` metrics may differ (they never reach
        // the JSONL event stream).
        let mut cfg = quick_cfg();
        cfg.hyper.tip_validation = true;
        cfg.hyper.sample_size = 6;
        let dir = std::env::temp_dir();
        let on = fingerprint_eval(cfg.clone(), true, &dir.join("lt_eval_on.jsonl"));
        let off = fingerprint_eval(cfg, false, &dir.join("lt_eval_off.jsonl"));
        assert_eq!(on.0, off.0, "RoundStats must match");
        assert_eq!(on.1, off.1, "ledger structure must match");
        assert_eq!(on.2.to_bits(), off.2.to_bits(), "accuracy must match");
        assert!(!on.3.is_empty(), "telemetry must produce output");
        assert_eq!(on.3, off.3, "telemetry JSONL must be byte-identical");
    }

    #[test]
    fn eval_cache_on_and_off_are_bit_identical_accuracy_bias() {
        // The accuracy-bias path evaluates every transaction per step —
        // the heaviest cached surface.
        let mut cfg = quick_cfg();
        cfg.hyper.tip_validation = true;
        cfg.hyper.accuracy_bias = 0.5;
        let dir = std::env::temp_dir();
        let on = fingerprint_eval(cfg.clone(), true, &dir.join("lt_eval_on_b.jsonl"));
        let off = fingerprint_eval(cfg, false, &dir.join("lt_eval_off_b.jsonl"));
        assert_eq!(on.0, off.0);
        assert_eq!(on.1, off.1);
        assert_eq!(on.2.to_bits(), off.2.to_bits());
        assert_eq!(on.3, off.3);
    }

    #[test]
    fn parallel_training_on_and_off_are_bit_identical() {
        // `train_parallel` selects the execution strategy for gradient
        // chunks, nothing else: the fixed-order tree reduction makes the
        // pooled run land on the same rounds, ledger, accuracy, and
        // telemetry bytes as the serial one.
        let mut cfg = quick_cfg();
        cfg.train_chunks = 4;
        let dir = std::env::temp_dir();
        cfg.train_parallel = true;
        let on = fingerprint(cfg.clone(), false, &dir.join("lt_par_on.jsonl"));
        cfg.train_parallel = false;
        let off = fingerprint(cfg, false, &dir.join("lt_par_off.jsonl"));
        assert_eq!(on.0, off.0, "RoundStats must match");
        assert_eq!(on.1, off.1, "ledger structure must match");
        assert_eq!(on.2.to_bits(), off.2.to_bits(), "accuracy must match");
        assert!(!on.3.is_empty(), "telemetry must produce output");
        assert_eq!(on.3, off.3, "telemetry JSONL must be byte-identical");
    }

    #[test]
    fn eval_cache_on_and_off_are_bit_identical_delayed_network() {
        // Delayed-network mode runs nodes on zero-copy `TangleView`
        // prefixes; the view shares the base signature chain, so entries
        // written under a stale view serve under fresher ones — without
        // ever changing results.
        let mut cfg = quick_cfg();
        cfg.hyper.tip_validation = true;
        cfg.network = Some(crate::config::NetworkModel {
            max_delay_rounds: 3,
            publish_loss: 0.0,
        });
        let dir = std::env::temp_dir();
        let on = fingerprint_eval(cfg.clone(), true, &dir.join("lt_eval_on_d.jsonl"));
        let off = fingerprint_eval(cfg, false, &dir.join("lt_eval_off_d.jsonl"));
        assert_eq!(on.0, off.0, "RoundStats must match under delay");
        assert_eq!(on.1, off.1, "ledger structure must match under delay");
        assert_eq!(on.2.to_bits(), off.2.to_bits());
        assert_eq!(on.3, off.3, "telemetry JSONL must be byte-identical");
    }

    #[test]
    fn delayed_views_match_prefix_clone_semantics() {
        // The zero-copy view replaced an owned `prefix()` clone on this
        // path; the observable run must be exactly what the clone produced
        // (pinned by the structure fingerprint against the cache-off run,
        // which shares the view code — this guards determinism per seed).
        let mut cfg = quick_cfg();
        cfg.network = Some(crate::config::NetworkModel {
            max_delay_rounds: 5,
            publish_loss: 0.0,
        });
        let dir = std::env::temp_dir();
        let a = fingerprint_eval(cfg.clone(), true, &dir.join("lt_view_a.jsonl"));
        let b = fingerprint_eval(cfg, true, &dir.join("lt_view_b.jsonl"));
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2.to_bits(), b.2.to_bits());
        assert_eq!(a.3, b.3);
    }

    fn assert_same_run(shared: &RunFingerprint, oracle: &RunFingerprint, what: &str) {
        assert_eq!(shared.0, oracle.0, "RoundStats must match ({what})");
        assert_eq!(shared.1, oracle.1, "ledger structure must match ({what})");
        assert_eq!(
            shared.2.to_bits(),
            oracle.2.to_bits(),
            "accuracy must match ({what})"
        );
        assert!(!shared.3.is_empty(), "telemetry must produce output");
        assert_eq!(shared.3, oracle.3, "telemetry JSONL must match ({what})");
    }

    #[test]
    fn delayed_shared_analysis_matches_per_node_oracle() {
        // Under delay the shared path serves each node's view from the
        // round-end snapshots of one incremental cache; the oracle runs the
        // batch DPs per node on its own view. Windowed walks also read the
        // snapshotted depths.
        let dir = std::env::temp_dir();
        for seed in [1, 7, 42] {
            for publish_loss in [0.0, 0.05, 0.3] {
                for window in [None, Some(3)] {
                    let mut cfg = quick_cfg();
                    cfg.seed = seed;
                    cfg.hyper.window = window;
                    cfg.network = Some(crate::config::NetworkModel {
                        max_delay_rounds: 3,
                        publish_loss,
                    });
                    let what = format!("seed {seed}, loss {publish_loss}, window {window:?}");
                    let tag = format!("{seed}_{}_{}", publish_loss * 100.0, window.is_some());
                    let shared = fingerprint(
                        cfg.clone(),
                        true,
                        &dir.join(format!("lt_shared_{tag}.jsonl")),
                    );
                    let oracle =
                        fingerprint(cfg, false, &dir.join(format!("lt_oracle_{tag}.jsonl")));
                    assert_same_run(&shared, &oracle, &what);
                }
            }
        }
    }

    #[test]
    fn resumed_delayed_shared_analysis_matches_per_node_oracle() {
        // A resumed simulation has no snapshots for the views named by its
        // first rounds; those fall back to the batch DPs.
        let mut cfg = quick_cfg();
        cfg.hyper.window = Some(3);
        cfg.network = Some(crate::config::NetworkModel {
            max_delay_rounds: 3,
            publish_loss: 0.05,
        });
        let mut sim = Simulation::new(dataset(10), cfg.clone(), build);
        for _ in 0..5 {
            sim.round();
        }
        let bytes = crate::persist::to_bytes(sim.tangle());
        let resumed = || {
            let tangle = crate::persist::from_bytes(&bytes).unwrap();
            Simulation::resume(dataset(10), cfg.clone(), build, tangle)
        };
        let dir = std::env::temp_dir();
        let shared = observe(resumed(), true, &dir.join("lt_resumed_shared.jsonl"));
        let oracle = observe(resumed(), false, &dir.join("lt_resumed_oracle.jsonl"));
        assert_same_run(&shared, &oracle, "resumed");
    }

    #[test]
    fn cache_on_and_off_are_bit_identical_windowed() {
        // Windowed tip selection additionally consumes the cached depths.
        let mut cfg = quick_cfg();
        cfg.hyper.window = Some(3);
        let dir = std::env::temp_dir();
        let on = fingerprint(cfg.clone(), true, &dir.join("lt_cache_on_w.jsonl"));
        let off = fingerprint(cfg, false, &dir.join("lt_cache_off_w.jsonl"));
        assert_eq!(on.0, off.0);
        assert_eq!(on.1, off.1);
        assert_eq!(on.2, off.2);
        assert_eq!(on.3, off.3);
    }

    #[test]
    fn parallel_and_serial_walks_are_bit_identical() {
        // Each walk runs on its own derived RNG stream, so batching the
        // walks through rayon cannot change what they select.
        let mut cfg = quick_cfg();
        cfg.hyper.sample_size = 6;
        cfg.hyper.tip_validation = true;
        let dir = std::env::temp_dir();
        let mut par = cfg.clone();
        par.hyper.parallel_walks = true;
        let mut ser = cfg;
        ser.hyper.parallel_walks = false;
        let a = fingerprint(par, true, &dir.join("lt_walks_par.jsonl"));
        let b = fingerprint(ser, true, &dir.join("lt_walks_ser.jsonl"));
        assert_eq!(a.0, b.0, "RoundStats must match");
        assert_eq!(a.1, b.1, "ledger structure must match");
        assert_eq!(a.2, b.2, "accuracy must match");
        assert_eq!(a.3, b.3, "telemetry JSONL must be byte-identical");
    }

    /// FNV-1a over a stream of little-endian words and raw bytes.
    struct Fnv(u64);

    impl Fnv {
        fn eat(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }

        fn u64(&mut self, v: u64) {
            self.eat(&v.to_le_bytes());
        }
    }

    /// Digest of a whole short observed run: every `RoundStats`, the
    /// ledger structure and payload bits, and an FNV hash of the telemetry
    /// JSONL.
    fn golden_digest(cfg: SimConfig, rounds: usize, tag: &str) -> u64 {
        digest_run(Simulation::new(dataset(10), cfg, build), rounds, tag)
    }

    /// Digest of `rounds` observed rounds of `sim`: every `RoundStats`, the
    /// ledger structure and payload bits, and an FNV hash of the JSONL.
    fn digest_run(sim: Simulation<'_>, rounds: usize, tag: &str) -> u64 {
        let path = std::env::temp_dir().join(format!("lt_golden_{tag}.jsonl"));
        let sink = lt_telemetry::JsonlSink::create(&path).expect("create jsonl");
        let mut sim = sim.with_telemetry(Telemetry::new(sink));
        let mut h = Fnv(0xCBF2_9CE4_8422_2325);
        for _ in 0..rounds {
            let s = sim.round();
            for v in [
                s.round,
                s.sampled as u64,
                s.published as u64,
                s.malicious_published as u64,
                s.tips as u64,
            ] {
                h.u64(v);
            }
        }
        for tx in sim.tangle().transactions() {
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
        let bytes = std::fs::read(&path).expect("read jsonl");
        let _ = std::fs::remove_file(&path);
        assert!(!bytes.is_empty(), "telemetry must produce output");
        let mut jsonl = Fnv(0xCBF2_9CE4_8422_2325);
        jsonl.eat(&bytes);
        h.u64(jsonl.0);
        h.0
    }

    #[test]
    fn golden_round_sim_digests() {
        // Pinned whole-run digests of short ideal- and delayed-network
        // blobs runs. A change that alters any round, ledger bit, or
        // telemetry byte must say why and re-pin them deliberately.
        let golden: [(u64, u64, u64); 3] = [
            (1, 0x17813ae7e6a40a54, 0x61b5fd1fb380ca0c),
            (7, 0x67381cbef57804f3, 0x6ca76f8325bde1ae),
            (42, 0x8fc738daa0a22a04, 0x67c64aa9ce807f81),
        ];
        let got: Vec<(u64, u64, u64)> = golden
            .iter()
            .map(|&(seed, _, _)| {
                let mut cfg = quick_cfg();
                cfg.seed = seed;
                let ideal = golden_digest(cfg.clone(), 6, &format!("i{seed}"));
                cfg.network = Some(crate::config::NetworkModel {
                    max_delay_rounds: 3,
                    publish_loss: 0.05,
                });
                (seed, ideal, golden_digest(cfg, 8, &format!("d{seed}")))
            })
            .collect();
        assert_eq!(got, golden, "(seed, ideal, delayed) digests");
    }

    #[test]
    fn eval_spans_count_every_model_evaluation() {
        // One `node.eval_us` span per evaluation that ran: every eval-cache
        // miss (reference and candidates) plus each honest step's new model.
        let mut cfg = quick_cfg();
        cfg.hyper.tip_validation = true;
        let tel = Telemetry::with_timings(lt_telemetry::MemorySink::new(), true);
        let mut sim = Simulation::new(dataset(10), cfg, build).with_telemetry(tel);
        let steps: usize = (0..5).map(|_| sim.round().sampled).sum();
        let tel = sim.telemetry();
        let misses = tel.counter_value("eval_cache.misses");
        assert!(misses > steps as u64, "validation must evaluate candidates");
        assert_eq!(
            tel.histogram_totals("node.eval_us").0,
            misses + steps as u64
        );
    }

    /// A short scaled-FEMNIST CNN run with §III-E tip validation and
    /// label-flip nodes: the CNN's forward and backward passes (conv,
    /// ReLU, max-pool, dense GEMMs) decide every published payload and
    /// every validation verdict.
    fn golden_cnn_digest(seed: u64) -> u64 {
        use feddata::femnist::{self, FemnistConfig};
        let f = FemnistConfig {
            users: 8,
            samples_per_user: (6, 10),
            ..FemnistConfig::scaled()
        };
        let data = femnist::generate(&f, 11);
        let cnn = move || {
            tinynn::zoo::femnist_cnn(
                f.img,
                f.classes,
                tinynn::zoo::CnnConfig::scaled(),
                &mut tseed(13),
            )
        };
        let cfg = SimConfig {
            nodes_per_round: 4,
            lr: 0.06,
            batch_size: 8,
            eval_fraction: 1.0,
            seed,
            hyper: TangleHyperParams::robust(4),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(data, cfg, cnn);
        assign_malicious(
            sim.nodes_mut(),
            0.25,
            1,
            AttackKind::LabelFlip { src: 3, dst: 8 },
            seed ^ 0x5EED,
            crate::attack::default_flip_source(3, 8),
        );
        digest_run(sim, 3, &format!("cnn{seed}"))
    }

    #[test]
    fn golden_cnn_round_sim_digests() {
        // Pinned whole-run digests of a CNN run: a tinynn kernel change
        // that alters any output bit changes them.
        let golden: [(u64, u64); 3] = [
            (1, 0xe5f1a5ce537d67a7),
            (7, 0x2d9ef87b9f02835a),
            (42, 0x3b903a425aad802d),
        ];
        let got: Vec<(u64, u64)> = golden
            .iter()
            .map(|&(seed, _)| (seed, golden_cnn_digest(seed)))
            .collect();
        assert_eq!(got, golden, "(seed, cnn) digests");
    }

    #[test]
    fn random_poisoners_get_flagged_in_stats() {
        let mut sim = Simulation::new(dataset(10), quick_cfg(), build);
        assign_malicious(sim.nodes_mut(), 0.5, 0, AttackKind::RandomNoise, 1, |_| {
            None
        });
        let mut saw_malicious = false;
        for _ in 0..5 {
            if sim.round().malicious_published > 0 {
                saw_malicious = true;
            }
        }
        assert!(saw_malicious, "poisoners publish every time they are drawn");
    }

    #[test]
    fn dp_noise_does_not_break_learning() {
        let mut sim = Simulation::new(dataset(10), quick_cfg(), build).with_dp(DpConfig {
            clip_norm: 5.0,
            sigma: 0.001,
        });
        for _ in 0..10 {
            sim.round();
        }
        let acc = sim.evaluate(0).accuracy;
        assert!(
            acc > 0.3,
            "mild DP noise should still allow learning: {acc}"
        );
    }

    #[test]
    fn save_and_resume_continues_training() {
        let mut sim = Simulation::new(dataset(10), quick_cfg(), build);
        for _ in 0..10 {
            sim.round();
        }
        let acc_before = sim.evaluate(0).accuracy;
        let bytes = crate::persist::to_bytes(sim.tangle());
        drop(sim);
        // Restart from the persisted ledger with fresh node state.
        let restored = crate::persist::from_bytes(&bytes).unwrap();
        let mut resumed = Simulation::resume(dataset(10), quick_cfg(), build, restored);
        let acc_restored = resumed.evaluate(0).accuracy;
        assert!(
            (acc_before - acc_restored).abs() < 0.25,
            "restored consensus should be in the same quality band: {acc_before} vs {acc_restored}"
        );
        let len_before = resumed.tangle().len();
        for _ in 0..5 {
            resumed.round();
        }
        assert!(
            resumed.tangle().len() > len_before,
            "resume must keep publishing"
        );
        let acc_after = resumed.evaluate(0).accuracy;
        assert!(
            acc_after > acc_restored - 0.2,
            "continued training must not collapse: {acc_restored} -> {acc_after}"
        );
    }

    #[test]
    #[should_panic(expected = "does not match the model architecture")]
    fn resume_rejects_mismatched_architecture() {
        let mut sim = Simulation::new(dataset(6), quick_cfg(), build);
        sim.round();
        let bytes = crate::persist::to_bytes(sim.tangle());
        let restored = crate::persist::from_bytes(&bytes).unwrap();
        let wrong = || tinynn::zoo::mlp(8, &[5], 4, &mut tseed(5));
        let _ = Simulation::resume(dataset(6), quick_cfg(), wrong, restored);
    }

    #[test]
    fn approval_confidence_mode_converges() {
        let mut cfg = quick_cfg();
        cfg.hyper.confidence_mode = crate::ConfidenceMode::Approval;
        let mut sim = Simulation::new(dataset(10), cfg, build);
        let acc0 = sim.evaluate(0).accuracy;
        for _ in 0..15 {
            sim.round();
        }
        let acc1 = sim.evaluate(0).accuracy;
        assert!(
            acc1 > acc0 + 0.15,
            "approval-confidence consensus should learn: {acc0} -> {acc1}"
        );
    }

    #[test]
    fn windowed_tip_selection_converges() {
        let mut cfg = quick_cfg();
        cfg.hyper.window = Some(3);
        let mut sim = Simulation::new(dataset(10), cfg, build);
        let acc0 = sim.evaluate(0).accuracy;
        for _ in 0..15 {
            sim.round();
        }
        let acc1 = sim.evaluate(0).accuracy;
        assert!(
            acc1 > acc0 + 0.15,
            "windowed walks should still learn: {acc0} -> {acc1}"
        );
        assert!(sim.tangle().len() > 10);
    }

    #[test]
    fn lossy_network_still_converges() {
        let mut cfg = quick_cfg();
        cfg.network = Some(crate::config::NetworkModel {
            max_delay_rounds: 3,
            publish_loss: 0.2,
        });
        let mut sim = Simulation::new(dataset(10), cfg, build);
        let acc0 = sim.evaluate(0).accuracy;
        for _ in 0..20 {
            sim.round();
        }
        let acc1 = sim.evaluate(0).accuracy;
        assert!(
            acc1 > acc0 + 0.15,
            "learning should survive delay + 20% loss: {acc0} -> {acc1}"
        );
        assert!(sim.lost_publications() > 0, "losses should be recorded");
    }

    #[test]
    fn total_publish_loss_freezes_ledger() {
        let mut cfg = quick_cfg();
        cfg.network = Some(crate::config::NetworkModel {
            max_delay_rounds: 0,
            publish_loss: 1.0,
        });
        let mut sim = Simulation::new(dataset(8), cfg, build);
        for _ in 0..5 {
            sim.round();
        }
        assert_eq!(sim.tangle().len(), 1, "every publication must be lost");
        assert!(sim.lost_publications() >= 5);
    }

    #[test]
    fn delayed_views_are_historical_prefixes() {
        // With a large delay every node still acts on *some* valid prefix;
        // the published parents must therefore exist and the run stays
        // deterministic.
        let mut cfg = quick_cfg();
        cfg.network = Some(crate::config::NetworkModel {
            max_delay_rounds: 5,
            publish_loss: 0.0,
        });
        let run = |seed: u64| {
            let mut c = cfg.clone();
            c.seed = seed;
            let mut sim = Simulation::new(dataset(8), c, build);
            for _ in 0..8 {
                sim.round();
            }
            sim.tangle().len()
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn target_misclassification_zero_for_untargeted_model() {
        let mut sim = Simulation::new(dataset(10), quick_cfg(), build);
        for _ in 0..10 {
            sim.round();
        }
        // A benign, reasonably accurate model should rarely map 0 -> 1.
        let mis = sim.target_misclassification(0, 1, 0);
        assert!(mis < 0.6, "benign misclassification too high: {mis}");
    }
}

//! Property-based tests of the ledger substrate.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng as _, RngExt as _, SeedableRng};
use tangle_ledger::analysis::{cumulative_weights, depths, ratings, TangleAnalysis};
use tangle_ledger::walk::{
    window_entries, RandomWalk, TipSelector, UniformTips, WalkTable, WindowedWalk,
};
use tangle_ledger::{Tangle, TangleRead, TangleView, TxId};

use lt_conformance::gen::tangle_from_script;
use lt_conformance::StructModel;

/// The per-hop walk the walk table replaced, kept as its oracle: every hop
/// recomputes `exp(α · (w − max w))` for each approver of the particle.
/// Returns the path from `start` to the tip it reaches.
fn oracle_path<T: TangleRead>(
    tangle: &T,
    weights: &[u32],
    alpha: f64,
    start: TxId,
    rng: &mut SmallRng,
) -> Vec<TxId> {
    let mut path = vec![start];
    let mut cur = start;
    let mut probs: Vec<f64> = Vec::new();
    loop {
        let approvers = tangle.approvers(cur);
        match approvers.len() {
            0 => return path,
            1 => cur = approvers[0],
            _ => {
                probs.clear();
                let max_w = approvers.iter().map(|a| weights[a.index()]).max().unwrap();
                let mut total = 0.0f64;
                for a in approvers {
                    let p = (alpha * (weights[a.index()] as f64 - max_w as f64)).exp();
                    probs.push(p);
                    total += p;
                }
                let mut r = rng.random_range(0.0..total);
                let mut chosen = approvers[approvers.len() - 1];
                for (a, &p) in approvers.iter().zip(&probs) {
                    if r < p {
                        chosen = *a;
                        break;
                    }
                    r -= p;
                }
                cur = chosen;
            }
        }
        path.push(cur);
    }
}

/// The windowed walk as it was: scan every depth for the `[W, 2W]`
/// candidates on each walk, then walk from a uniform candidate.
fn oracle_windowed_tip<T: TangleRead>(
    tangle: &T,
    weights: &[u32],
    alpha: f64,
    window: u32,
    rng: &mut SmallRng,
) -> TxId {
    let d = depths(tangle);
    let candidates: Vec<TxId> = (0..tangle.len())
        .filter(|&i| (window..=2 * window).contains(&d[i]))
        .map(|i| TxId(i as u32))
        .collect();
    let start = if candidates.is_empty() {
        tangle.genesis()
    } else {
        candidates[rng.random_range(0..candidates.len())]
    };
    *oracle_path(tangle, weights, alpha, start, rng)
        .last()
        .unwrap()
}

/// The RNG of confidence sample `s`, as the confidence estimators derive it.
fn sample_rng(seed: u64, s: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Confidence by the oracle walk, as `f32` bit patterns: per transaction,
/// the fraction of the samples whose set (`sets` of the sample's path)
/// contains it.
fn oracle_confidence<T: TangleRead>(
    tangle: &T,
    weights: &[u32],
    alpha: f64,
    samples: usize,
    seed: u64,
    sets: impl Fn(Vec<TxId>) -> Vec<TxId>,
) -> Vec<u32> {
    let mut hits = vec![0u32; tangle.len()];
    for s in 0..samples {
        let path = oracle_path(
            tangle,
            weights,
            alpha,
            tangle.genesis(),
            &mut sample_rng(seed, s),
        );
        for id in sets(path) {
            hits[id.index()] += 1;
        }
    }
    hits.iter()
        .map(|&h| (h as f32 / samples as f32).to_bits())
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential test of the walk table: over random tangles and prefix
    /// views, walks over the table take the oracle's paths (from every
    /// start, leaving the RNG in the same state), reach its windowed tips,
    /// and give bit-equal walk-hit and approval confidences.
    #[test]
    fn walk_table_matches_per_hop_oracle(
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..40),
        len in 1usize..42,
        alpha_ix in 0usize..4,
        window in 1u32..4,
        samples in 1usize..40,
        seed in any::<u64>(),
    ) {
        let t = tangle_from_script(&script);
        let view = TangleView::new(&t, len.min(t.len()));
        let alpha = [0.0, 0.05, 0.5, 1000.0][alpha_ix];
        let w = cumulative_weights(&view);
        let table = WalkTable::new(&view, &w, alpha);
        prop_assert_eq!(table.len(), view.len());
        for start in 0..view.len() {
            let start = TxId(start as u32);
            let mut oracle_rng = sample_rng(seed, start.index());
            let mut rng = oracle_rng.clone();
            let expected = oracle_path(&view, &w, alpha, start, &mut oracle_rng);
            let mut path = vec![start];
            while let Some(next) = table.hop(path[path.len() - 1], &mut rng) {
                path.push(next);
            }
            prop_assert_eq!(table.walk_to_tip(start, &mut sample_rng(seed, start.index())),
                (path[path.len() - 1], path.len() - 1));
            prop_assert_eq!(path, expected);
            prop_assert_eq!(rng.next_u64(), oracle_rng.next_u64());
        }
        let entries = window_entries(&depths(&view), window);
        for s in 0..8 {
            prop_assert_eq!(
                table.windowed_tip(&entries, &mut sample_rng(seed, s)),
                oracle_windowed_tip(&view, &w, alpha, window, &mut sample_rng(seed, s))
            );
        }
        prop_assert_eq!(
            bits(&TangleAnalysis::walk_confidence(&view, &table, samples, seed)),
            oracle_confidence(&view, &w, alpha, samples, seed, |path| path)
        );
        prop_assert_eq!(
            bits(&TangleAnalysis::approval_confidence(&view, &table, samples, seed)),
            oracle_confidence(&view, &w, alpha, samples, seed, |path| {
                let tip = path[path.len() - 1];
                let mut cone = view.past_cone(tip);
                cone.push(tip);
                cone
            })
        );
    }

    /// Any walk configuration always terminates at a tip.
    #[test]
    fn walks_end_at_tips(
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..40),
        alpha in 0.0f64..10.0,
        seed in any::<u64>(),
    ) {
        let t = tangle_from_script(&script);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let walk = RandomWalk::new(alpha);
        let tip = walk.select_tip(&t, &mut rng);
        prop_assert!(t.is_tip(tip));
        let tip2 = <UniformTips as TipSelector<u32>>::select_tip(&UniformTips, &t, &mut rng);
        prop_assert!(t.is_tip(tip2));
        let tip3 = WindowedWalk::new(walk, 2).select_tip(&t, &mut rng);
        prop_assert!(t.is_tip(tip3));
    }

    /// Confidence values are probabilities, the genesis has confidence 1,
    /// and flow conservation holds: every walk that visits a transaction
    /// entered through one of its parents, so a child's confidence cannot
    /// exceed the *sum* of its parents' confidences (it can exceed each
    /// individual parent when walk paths merge).
    #[test]
    fn confidence_properties(
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 1..30),
        seed in any::<u64>(),
    ) {
        let t = tangle_from_script(&script);
        let table = WalkTable::new(&t, &cumulative_weights(&t), 0.2);
        let conf = TangleAnalysis::walk_confidence(&t, &table, 48, seed);
        prop_assert!((conf[0] - 1.0).abs() < 1e-6);
        for c in &conf {
            prop_assert!((0.0..=1.0).contains(c));
        }
        for tx in t.transactions().iter().skip(1) {
            let parent_sum: f32 = tx.parents.iter().map(|p| conf[p.index()]).sum();
            prop_assert!(
                conf[tx.id.index()] <= parent_sum + 1e-5,
                "child {} more confident than its parents combined",
                tx.id
            );
        }
    }

    /// Cumulative weight is monotone along approval edges: a parent's
    /// weight strictly exceeds any single child's contribution and is at
    /// least child_weight + ... well, at least as large as any child's.
    #[test]
    fn cumulative_weight_monotone(script in prop::collection::vec((any::<u8>(), any::<u8>()), 1..40)) {
        let t = tangle_from_script(&script);
        let w = cumulative_weights(&t);
        for tx in t.transactions() {
            for p in &tx.parents {
                prop_assert!(
                    w[p.index()] > w[tx.id.index()] - 1,
                    "parent weight must dominate child"
                );
                prop_assert!(w[p.index()] >= w[tx.id.index()] + 1 - 1); // >= child
            }
        }
        // every weight at least 1 (own weight)
        prop_assert!(w.iter().all(|&x| x >= 1));
    }

    /// Ratings are monotone the other way: children approve strictly more.
    #[test]
    fn rating_monotone(script in prop::collection::vec((any::<u8>(), any::<u8>()), 1..40)) {
        let t = tangle_from_script(&script);
        let r = ratings(&t);
        for tx in t.transactions() {
            for p in &tx.parents {
                prop_assert!(r[tx.id.index()] > r[p.index()]);
            }
        }
    }

    /// Depth is 0 exactly at tips and parents are strictly deeper.
    #[test]
    fn depth_properties(script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..40)) {
        let t = tangle_from_script(&script);
        let d = depths(&t);
        for tx in t.transactions() {
            if t.is_tip(tx.id) {
                prop_assert_eq!(d[tx.id.index()], 0);
            } else {
                prop_assert!(d[tx.id.index()] > 0);
            }
            for p in &tx.parents {
                prop_assert!(d[p.index()] > d[tx.id.index()]);
            }
        }
    }

    /// `prefix(k)` equals the tangle that existed after `k` insertions.
    #[test]
    fn prefix_equals_history(script in prop::collection::vec((any::<u8>(), any::<u8>()), 1..30), k in 1usize..31) {
        let t = tangle_from_script(&script);
        let k = k.min(t.len());
        let p = t.prefix(k);
        // rebuild directly
        let q = tangle_from_script(&script[..k - 1]);
        prop_assert_eq!(p.len(), q.len());
        prop_assert_eq!(p.tips(), q.tips());
        for i in 0..k {
            let id = TxId(i as u32);
            prop_assert_eq!(&p.get(id).parents, &q.get(id).parents);
            prop_assert_eq!(p.approvers(id), q.approvers(id));
        }
    }

    /// Incremental cumulative weights equal the batch DP on any history.
    #[test]
    fn incremental_weights_equal_batch(script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..40)) {
        let mut t = Tangle::new(0u32);
        let mut inc = tangle_ledger::analysis::IncrementalWeights::new(&t);
        for (i, &(a, b)) in script.iter().enumerate() {
            let n = t.len() as u32;
            let id = t
                .add(i as u32 + 1, vec![TxId(a as u32 % n), TxId(b as u32 % n)])
                .unwrap();
            inc.on_add(&t, id);
        }
        let batch = cumulative_weights(&t);
        prop_assert_eq!(inc.weights(), batch.as_slice());
    }

    /// Differential test of the tentpole cache: grow a random DAG one tx
    /// at a time and, after *every* insertion, the cache's weights,
    /// ratings, depths, and tips must equal the from-scratch batch DPs.
    #[test]
    fn analysis_cache_equals_batch_after_every_add(
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..40),
    ) {
        let mut t = Tangle::new(0u32);
        let mut cache = tangle_ledger::AnalysisCache::new(&t);
        for (i, &(a, b)) in script.iter().enumerate() {
            let n = t.len() as u32;
            let id = t
                .add(i as u32 + 1, vec![TxId(a as u32 % n), TxId(b as u32 % n)])
                .unwrap();
            cache.on_add(&t, id).unwrap();
            prop_assert_eq!(cache.weights().to_vec(), cumulative_weights(&t));
            prop_assert_eq!(cache.ratings().to_vec(), ratings(&t));
            prop_assert_eq!(cache.depths().to_vec(), depths(&t));
            prop_assert_eq!(cache.tips(), t.tips());
            prop_assert!(cache.validate(&t).is_ok());
        }
        let fresh = TangleAnalysis::compute(&t);
        let cached = cache.analysis();
        prop_assert_eq!(cached.cumulative_weight, fresh.cumulative_weight);
        prop_assert_eq!(cached.rating, fresh.rating);
    }

    /// Refreshing in random-sized batches (the simulators' usage pattern:
    /// several transactions land between two context builds) is equivalent
    /// to per-add maintenance.
    #[test]
    fn analysis_cache_refresh_equals_batch(
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..40),
        refresh_every in 1usize..7,
    ) {
        let mut t = Tangle::new(0u32);
        let mut cache = tangle_ledger::AnalysisCache::new(&t);
        for (i, &(a, b)) in script.iter().enumerate() {
            let n = t.len() as u32;
            t.add(i as u32 + 1, vec![TxId(a as u32 % n), TxId(b as u32 % n)])
                .unwrap();
            if i % refresh_every == 0 {
                let appended = t.len() - cache.len();
                let outcome = cache.refresh(&t);
                if appended == 0 {
                    prop_assert_eq!(outcome, tangle_ledger::RefreshOutcome::Fresh);
                } else {
                    prop_assert_eq!(outcome, tangle_ledger::RefreshOutcome::Extended(appended));
                }
            }
        }
        cache.refresh(&t);
        prop_assert_eq!(cache.weights().to_vec(), cumulative_weights(&t));
        prop_assert_eq!(cache.ratings().to_vec(), ratings(&t));
        prop_assert_eq!(cache.depths().to_vec(), depths(&t));
        prop_assert_eq!(cache.tips(), t.tips());
    }

    /// Cache invalidation: skipped or out-of-order ids are rejected with an
    /// error (mirror of `incremental_weights_reject_skipped_adds`), leaving
    /// the cache bit-identical to before the attempt.
    #[test]
    fn analysis_cache_rejects_skips_and_out_of_order(
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 2..40),
        probe in any::<u8>(),
    ) {
        let t = tangle_from_script(&script);
        let mut cache = tangle_ledger::AnalysisCache::new(&t.prefix(t.len() - 1));
        let expected = (t.len() - 1) as u32;
        // Any id other than the exactly-next one must be refused.
        let wrong = probe as u32 % (t.len() as u32 + 8);
        prop_assume!(wrong != expected);
        let before = (cache.weights().to_vec(), cache.ratings().to_vec(), cache.depths().to_vec(), cache.tips());
        let err = cache.on_add(&t, TxId(wrong)).unwrap_err();
        match err {
            tangle_ledger::CacheError::OutOfOrder { expected: e, got } => {
                prop_assert_eq!(e, expected);
                prop_assert_eq!(got, wrong);
            }
            other => prop_assert!(false, "unexpected error {:?}", other),
        }
        prop_assert_eq!(
            (cache.weights().to_vec(), cache.ratings().to_vec(), cache.depths().to_vec(), cache.tips()),
            before
        );
        // The exactly-next id is accepted and lands on the batch values.
        cache.on_add(&t, TxId(expected)).unwrap();
        prop_assert_eq!(cache.weights().to_vec(), cumulative_weights(&t));
    }

    /// Cache invalidation: a shorter or diverged tangle never yields stale
    /// values — validate errors and refresh answers with a full rebuild
    /// that matches the batch DPs on the *new* history.
    #[test]
    fn analysis_cache_never_serves_stale_history(
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 2..40),
        cut in 1usize..40,
    ) {
        let t = tangle_from_script(&script);
        let mut cache = tangle_ledger::AnalysisCache::new(&t);
        let cut = cut.min(t.len() - 1);
        let shorter = t.prefix(cut);
        prop_assert!(cache.validate(&shorter).is_err());
        prop_assert_eq!(cache.refresh(&shorter), tangle_ledger::RefreshOutcome::Rebuilt);
        prop_assert_eq!(cache.weights().to_vec(), cumulative_weights(&shorter));
        prop_assert_eq!(cache.ratings().to_vec(), ratings(&shorter));
        prop_assert_eq!(cache.depths().to_vec(), depths(&shorter));
        prop_assert_eq!(cache.tips(), shorter.tips());
    }

    /// The linear-time top-n selection equals the conformance model's
    /// selection loop. Confidences drawn from three values make exact
    /// score ties common (all-zero cases tie everything), so the id
    /// tie-break is exercised; `n` ranges past the ledger length.
    #[test]
    fn choose_reference_matches_model_oracle(
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..40),
        levels in prop::collection::vec(0u8..3, 41),
        scale in 0u8..3,
        n in 0usize..45,
    ) {
        let t = tangle_from_script(&script);
        let analysis = TangleAnalysis::compute(&t);
        let conf: Vec<f32> = levels[..t.len()]
            .iter()
            .map(|&l| f32::from(l) * f32::from(scale) / 4.0)
            .collect();
        let picks: Vec<u32> = analysis
            .choose_reference(&conf, n)
            .iter()
            .map(|id| id.index() as u32)
            .collect();
        let structure = t.structure();
        let model = StructModel::new(&structure).expect("well-formed ledger");
        prop_assert_eq!(picks, model.choose_reference(&conf, &analysis.rating, n));
    }

    /// Reference choice returns distinct ids, at most n, ordered by score.
    #[test]
    fn choose_reference_is_sane(
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 1..30),
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let t = tangle_from_script(&script);
        let analysis = TangleAnalysis::compute(&t);
        let table = WalkTable::new(&t, &analysis.cumulative_weight, 0.2);
        let conf = TangleAnalysis::walk_confidence(&t, &table, 16, seed);
        let top = analysis.choose_reference(&conf, n);
        prop_assert!(top.len() <= n);
        prop_assert!(!top.is_empty());
        let mut dedup = top.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), top.len(), "reference ids must be distinct");
        let score = |id: TxId| conf[id.index()] as f64 * analysis.rating[id.index()] as f64;
        for pair in top.windows(2) {
            prop_assert!(score(pair[0]) >= score(pair[1]) - 1e-9);
        }
    }
}

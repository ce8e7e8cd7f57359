//! Tip-selection algorithms.
//!
//! The paper uses "the widespread algorithm of a weighted random walk from
//! the genesis transaction ... where the weights are the number of approvers
//! for a given transaction" (§II-C). [`RandomWalk`] implements the IOTA
//! MCMC walk with transition probabilities
//! `P(x→y) ∝ exp(α · (w(y) − max_z w(z)))` over the approvers `y` of the
//! current particle `x`, where `w` is the cumulative weight and `α` the
//! randomness parameter of Gal's "alpha" article cited by the paper (\[32\]).
//! `α = 0` is the unbiased walk; large `α` is greedy.
//!
//! Every weighted walk runs over a [`WalkTable`]: those transition
//! probabilities for one tangle view, computed once and shared by all the
//! walks over that view.

use crate::analysis::cumulative_weights;
use crate::graph::{Tangle, TxId};
use crate::view::TangleRead;
use rand::RngExt as _;

/// Strategy for picking the tips a new transaction will approve.
pub trait TipSelector<P> {
    /// Select one tip. Call repeatedly for multiple (not necessarily
    /// distinct) tips.
    fn select_tip(&self, tangle: &Tangle<P>, rng: &mut dyn rand::Rng) -> TxId;
}

/// Uniform choice among the current tips (no walk). The cheapest selector;
/// used as an ablation baseline and by attackers that do not care about
/// consensus weight.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniformTips;

impl<P> TipSelector<P> for UniformTips {
    fn select_tip(&self, tangle: &Tangle<P>, rng: &mut dyn rand::Rng) -> TxId {
        let tips = tangle.tips();
        tips[rng.random_range(0..tips.len())]
    }
}

/// The weighted walk's transition table over one tangle view, in
/// compressed sparse rows: row `i` holds the approvers of transaction `i`
/// visible in the view, in ascending id order, each with its unnormalized
/// transition probability `p = exp(α · (w − max w))`, and the row total
/// summed in that order.
///
/// A hop draws `r` uniformly from `[0, total)` and scans the row, taking
/// the first approver with `r < p` and subtracting `p` otherwise. That is
/// the same RNG draw and the same float operations as recomputing the row
/// at every hop, so a walk over the table is bit-identical to the walk
/// that pays `exp` per approver per hop, and allocates nothing.
#[derive(Clone, Debug)]
pub struct WalkTable {
    /// Row `i` is `offsets[i]..offsets[i + 1]` of `approvers` and `probs`.
    offsets: Vec<u32>,
    approvers: Vec<TxId>,
    probs: Vec<f64>,
    /// Per-row sum of `probs`, in approver order.
    totals: Vec<f64>,
}

impl WalkTable {
    /// The table of the α-weighted walk over `tangle` with cumulative
    /// weights `weights` (`O(edges)` exponentials, once per view).
    pub fn new<T: TangleRead>(tangle: &T, weights: &[u32], alpha: f64) -> Self {
        assert_eq!(
            weights.len(),
            tangle.len(),
            "weights/tangle length mismatch"
        );
        // `u32 → f64` is exact and monotone, so the maximum of the cast
        // weights is the cast of the maximum weight.
        Self::from_scores(tangle, alpha, |a| weights[a.index()] as f64)
    }

    /// Rows with `p = exp(α · (score(a) − max score))` over each row.
    fn from_scores<T: TangleRead>(tangle: &T, alpha: f64, score: impl Fn(TxId) -> f64) -> Self {
        let n = tangle.len();
        // Every parent edge inside the view is one approver entry.
        let edges: usize = tangle.transactions().iter().map(|t| t.parents.len()).sum();
        let mut table = Self {
            offsets: Vec::with_capacity(n + 1),
            approvers: Vec::with_capacity(edges),
            probs: Vec::with_capacity(edges),
            totals: Vec::with_capacity(n),
        };
        table.offsets.push(0);
        for i in 0..n {
            let approvers = tangle.approvers(TxId(i as u32));
            let max = approvers
                .iter()
                .map(|&a| score(a))
                .fold(f64::NEG_INFINITY, f64::max);
            let mut total = 0.0f64;
            for &a in approvers {
                let p = (alpha * (score(a) - max)).exp();
                table.approvers.push(a);
                table.probs.push(p);
                total += p;
            }
            table.totals.push(total);
            let end = u32::try_from(table.approvers.len()).expect("fewer than 2^32 approvals");
            table.offsets.push(end);
        }
        table
    }

    /// Transactions in the view the table was built over.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// Always `false`: a view holds at least the genesis.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// One hop of the walk from `cur`: `None` at a tip, the only approver
    /// without drawing, else one weighted draw among the approvers.
    #[inline]
    pub fn hop<R: rand::Rng + ?Sized>(&self, cur: TxId, rng: &mut R) -> Option<TxId> {
        let i = cur.index();
        let row = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        let approvers = &self.approvers[row.clone()];
        match approvers {
            [] => None,
            [only] => Some(*only),
            _ => {
                let mut r = rng.random_range(0.0..self.totals[i]);
                for (a, &p) in approvers.iter().zip(&self.probs[row]) {
                    if r < p {
                        return Some(*a);
                    }
                    r -= p;
                }
                approvers.last().copied()
            }
        }
    }

    /// Walk from `start` to a tip; returns the tip and the number of hops.
    pub fn walk_to_tip<R: rand::Rng + ?Sized>(&self, start: TxId, rng: &mut R) -> (TxId, usize) {
        let (mut cur, mut hops) = (start, 0);
        while let Some(next) = self.hop(cur, rng) {
            cur = next;
            hops += 1;
        }
        (cur, hops)
    }

    /// Windowed tip selection (see [`WindowedWalk`]): walk to a tip from an
    /// entry particle drawn uniformly from `entries` (see
    /// [`window_entries`]), or from the genesis when there is none.
    pub fn windowed_tip<R: rand::Rng + ?Sized>(&self, entries: &[TxId], rng: &mut R) -> TxId {
        let start = if entries.is_empty() {
            TxId(0) // the genesis
        } else {
            entries[rng.random_range(0..entries.len())]
        };
        self.walk_to_tip(start, rng).0
    }

    /// Select one tip — from the genesis, or windowed when `entries` is
    /// given — recording the walk into `telemetry`: a
    /// `tangle.tip_selection_us` span and the `tangle.walks` counter, plus,
    /// for a walk from the genesis only, its hop count in the
    /// `tangle.walk_len` histogram.
    pub fn select_tip_observed(
        &self,
        entries: Option<&[TxId]>,
        rng: &mut dyn rand::Rng,
        telemetry: &lt_telemetry::Telemetry,
    ) -> TxId {
        let _span = telemetry.span("tangle.tip_selection_us");
        telemetry.count("tangle.walks", 1);
        match entries {
            Some(entries) => self.windowed_tip(entries, rng),
            None => {
                let (tip, hops) = self.walk_to_tip(TxId(0), rng); // from the genesis
                telemetry.record("tangle.walk_len", hops as u64);
                tip
            }
        }
    }
}

/// The weighted MCMC random walk from the genesis.
#[derive(Clone, Copy, Debug)]
pub struct RandomWalk {
    /// Randomness parameter: 0 = unbiased, larger = greedier toward heavy
    /// subtangles.
    pub alpha: f64,
}

impl Default for RandomWalk {
    /// `α = 0.5`, a middle ground that keeps the walk weight-following but
    /// still randomized (the paper stresses that robustness depends on this
    /// "randomness factor of the tip selection algorithm").
    fn default() -> Self {
        Self { alpha: 0.5 }
    }
}

impl RandomWalk {
    /// Construct with an explicit α.
    pub fn new(alpha: f64) -> Self {
        Self { alpha }
    }
}

impl<P> TipSelector<P> for RandomWalk {
    fn select_tip(&self, tangle: &Tangle<P>, rng: &mut dyn rand::Rng) -> TxId {
        let table = WalkTable::new(tangle, &cumulative_weights(tangle), self.alpha);
        table.walk_to_tip(tangle.genesis(), rng).0
    }
}

/// Windowed tip selection: instead of walking from the genesis every time
/// (which the paper's prototype does, §IV, at the cost of scalability),
/// start the walk from a uniformly chosen transaction whose depth lies in
/// `[window, 2·window]` — the optimization the original tangle authors
/// propose and the paper defers to future work.
///
/// Falls back to the genesis when the tangle is still shallower than the
/// window. Repeated selection over one view computes the entry points once
/// ([`window_entries`]) and walks with [`WalkTable::windowed_tip`].
#[derive(Clone, Copy, Debug)]
pub struct WindowedWalk {
    /// The underlying weighted walk.
    pub walk: RandomWalk,
    /// Window depth `W`: entry particles are drawn from depths `W..=2W`.
    pub window: u32,
}

impl WindowedWalk {
    /// Construct from a walk and a window depth.
    pub fn new(walk: RandomWalk, window: u32) -> Self {
        assert!(window >= 1, "window must be at least 1");
        Self { walk, window }
    }
}

/// The windowed walk's entry points: the ids whose depth (see
/// [`crate::analysis::depths`]) lies in `[window, 2·window]`, ascending.
pub fn window_entries(depths: &[u32], window: u32) -> Vec<TxId> {
    assert!(window >= 1, "window must be at least 1");
    let range = window..=2 * window;
    (0..depths.len())
        .filter(|&i| range.contains(&depths[i]))
        .map(|i| TxId(i as u32))
        .collect()
}

impl<P> TipSelector<P> for WindowedWalk {
    fn select_tip(&self, tangle: &Tangle<P>, rng: &mut dyn rand::Rng) -> TxId {
        let table = WalkTable::new(tangle, &cumulative_weights(tangle), self.walk.alpha);
        let entries = window_entries(&crate::analysis::depths(tangle), self.window);
        table.windowed_tip(&entries, rng)
    }
}

/// A weighted walk whose transition weight is `cumulative_weight + bias`,
/// where the bias is supplied per transaction by the caller — the paper's
/// §VI outlook of "introducing model performance as a bias in the weighted
/// random walk".
pub struct BiasedRandomWalk<'a> {
    /// Randomness parameter, as in [`RandomWalk`].
    pub alpha: f64,
    /// Per-transaction additive bias on the walk weight, in cumulative-
    /// weight units.
    pub bias: &'a [f64],
}

impl<'a> BiasedRandomWalk<'a> {
    /// Construct from α and a bias table indexed by transaction id.
    pub fn new(alpha: f64, bias: &'a [f64]) -> Self {
        Self { alpha, bias }
    }

    /// The table of this biased walk over `tangle` with cumulative weights
    /// `weights`; walk it from the genesis with [`WalkTable::walk_to_tip`].
    pub fn table<T: TangleRead>(&self, tangle: &T, weights: &[u32]) -> WalkTable {
        assert_eq!(self.bias.len(), tangle.len(), "bias/tangle length mismatch");
        assert_eq!(
            weights.len(),
            tangle.len(),
            "weights/tangle length mismatch"
        );
        WalkTable::from_scores(tangle, self.alpha, |a| {
            weights[a.index()] as f64 + self.bias[a.index()]
        })
    }
}

impl<'a, P> TipSelector<P> for BiasedRandomWalk<'a> {
    fn select_tip(&self, tangle: &Tangle<P>, rng: &mut dyn rand::Rng) -> TxId {
        let table = self.table(tangle, &cumulative_weights(tangle));
        table.walk_to_tip(tangle.genesis(), rng).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::SmallRng {
        rand::rngs::SmallRng::seed_from_u64(seed)
    }

    /// genesis -> {a, b}; c approves a; the a-branch is heavier.
    fn forked() -> (Tangle<u8>, TxId, TxId, TxId) {
        let mut t = Tangle::new(0u8);
        let a = t.add(1, vec![t.genesis()]).unwrap();
        let b = t.add(2, vec![t.genesis()]).unwrap();
        let c = t.add(3, vec![a]).unwrap();
        (t, a, b, c)
    }

    #[test]
    fn walk_reaches_a_tip() {
        let (t, _, b, c) = forked();
        let mut r = rng(1);
        for _ in 0..20 {
            let tip = RandomWalk::default().select_tip(&t, &mut r);
            assert!(tip == b || tip == c);
            assert!(t.is_tip(tip));
        }
    }

    #[test]
    fn high_alpha_is_greedy() {
        let (t, _, _b, c) = forked();
        let table = WalkTable::new(&t, &cumulative_weights(&t), 1000.0);
        let mut r = rng(2);
        for _ in 0..50 {
            // a has cumulative weight 2 (itself + c); b has 1 → always go a → c.
            assert_eq!(table.walk_to_tip(t.genesis(), &mut r), (c, 2));
        }
    }

    #[test]
    fn zero_alpha_is_roughly_uniform() {
        let (t, _, b, _c) = forked();
        let table = WalkTable::new(&t, &cumulative_weights(&t), 0.0);
        let mut r = rng(3);
        let mut hits_b = 0;
        let n = 2000;
        for _ in 0..n {
            if table.walk_to_tip(t.genesis(), &mut r).0 == b {
                hits_b += 1;
            }
        }
        let frac = hits_b as f64 / n as f64;
        assert!((0.42..0.58).contains(&frac), "b fraction {frac}");
    }

    #[test]
    fn walk_path_starts_at_genesis_ends_at_tip() {
        let (t, a, _, c) = forked();
        let table = WalkTable::new(&t, &cumulative_weights(&t), 1000.0);
        let mut r = rng(4);
        let mut path = vec![t.genesis()];
        while let Some(next) = table.hop(path[path.len() - 1], &mut r) {
            path.push(next);
        }
        assert_eq!(path, vec![t.genesis(), a, c]);
    }

    #[test]
    fn uniform_tips_only_returns_tips() {
        let (t, _, b, c) = forked();
        let mut r = rng(5);
        for _ in 0..20 {
            let tip = <UniformTips as TipSelector<u8>>::select_tip(&UniformTips, &t, &mut r);
            assert!(tip == b || tip == c);
        }
    }

    #[test]
    fn bias_can_overcome_weight() {
        let (t, _, b, _c) = forked();
        // Heavily bias the light b-branch.
        let mut bias = vec![0.0f64; t.len()];
        bias[b.index()] = 100.0;
        let walk = BiasedRandomWalk::new(10.0, &bias);
        let mut r = rng(6);
        for _ in 0..30 {
            assert_eq!(walk.select_tip(&t, &mut r), b);
        }
    }

    #[test]
    fn windowed_walk_reaches_a_tip() {
        // Long chain with a fork at the end.
        let mut t = Tangle::new(0u8);
        let mut prev = t.genesis();
        for i in 0..20 {
            prev = t.add(i, vec![prev]).unwrap();
        }
        let x = t.add(99, vec![prev]).unwrap();
        let y = t.add(100, vec![prev]).unwrap();
        let mut r = rng(8);
        let w = WindowedWalk::new(RandomWalk::default(), 3);
        for _ in 0..20 {
            let tip = w.select_tip(&t, &mut r);
            assert!(tip == x || tip == y, "windowed walk ended at {tip}");
        }
    }

    #[test]
    fn windowed_walk_falls_back_to_genesis_when_shallow() {
        let t = Tangle::new(0u8);
        let mut r = rng(9);
        let w = WindowedWalk::new(RandomWalk::default(), 5);
        assert_eq!(w.select_tip(&t, &mut r), t.genesis());
    }

    #[test]
    fn depths_measure_longest_path_to_tip() {
        let (t, a, b, c) = forked();
        let d = crate::analysis::depths(&t);
        // tips c, b have depth 0; a has depth 1 (via c); genesis depth 2.
        assert_eq!(d[c.index()], 0);
        assert_eq!(d[b.index()], 0);
        assert_eq!(d[a.index()], 1);
        assert_eq!(d[t.genesis().index()], 2);
    }

    #[test]
    fn genesis_only_tangle_selects_genesis() {
        let t = Tangle::new(0u8);
        let mut r = rng(7);
        let tip = RandomWalk::default().select_tip(&t, &mut r);
        assert_eq!(tip, t.genesis());
    }
}

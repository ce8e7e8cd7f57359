//! The four workloads and what they share: the run-length budget, the
//! end-to-end metric set and the per-layer metric list.

pub mod daemons;
pub mod gossip;
pub mod roundsim;

use crate::report::Metric;
use crate::stats::{highest_tail, median, percentile};
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "femnist-robust",
    "blobs-delayed",
    "gossip-churn",
    "daemons-lockstep",
];

/// How one run is driven.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measuring time for the run.
    pub seconds: f64,
    /// `true` = the traced per-layer run.
    pub trace: bool,
    /// Sizes: full benchmark or the test suite's tiny smoke size.
    pub tiny: bool,
    /// The release `lt-node` binary (cluster workload only).
    pub node_bin: PathBuf,
}

/// Decides how many fixed-size jobs fit in the run: always at least
/// `min_jobs`, then another only while the mean job so far still fits
/// in the measuring time. Every job has the same size, so a faster
/// program runs more jobs, never bigger ones.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_jobs: usize,
    jobs: usize,
}

impl Budget {
    /// Start the clock.
    pub fn new(seconds: f64, min_jobs: usize) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            min_jobs: min_jobs.max(1),
            jobs: 0,
        }
    }

    /// Should another job start?
    pub fn another(&mut self) -> bool {
        let el = self.start.elapsed().as_secs_f64();
        let go = self.jobs < self.min_jobs || el + el / self.jobs as f64 <= self.seconds;
        if go {
            self.jobs += 1;
        }
        go
    }
}

/// Seed of every workload's fixed corpus: the generated dataset and the
/// initial model. A different corpus changes how much a run publishes,
/// and so how much work it does, by more than the benchmark's bounds;
/// the run seed drives everything else (node sampling, training
/// batches, walks, attackers, delays and losses, fault plans and
/// activation schedules).
pub const CORPUS_SEED: u64 = 0x7A16_1E5E_ED00_0001;

/// Seed of the `k`-th job of a run. Each job runs on its own seed, so a
/// run averages over several schedules instead of repeating one.
pub fn job_seed(seed: u64, k: usize) -> u64 {
    tinynn::rng::derive(seed, 0x10B_0000 + k as u64)
}

/// Share of each job's wall time spent timing set-ups right after it
/// (at least one batch), so the set-up samples spread over the whole
/// run as the jobs do, and a slow phase of the host moves few of them.
pub const SETUP_SHARE: f64 = 0.03;
/// Each set-up sample is the mean of a batch of back-to-back set-ups
/// lasting at least `SETUP_BATCH_S` (at most `SETUP_BATCH_MAX` of them),
/// so a set-up of a fraction of a millisecond still times steadily.
pub const SETUP_BATCH_S: f64 = 0.005;
/// See [`SETUP_BATCH_S`].
pub const SETUP_BATCH_MAX: usize = 32;

/// What the measured jobs of a run add up to.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Mean set-up seconds of each timed batch.
    pub setup_s: Vec<f64>,
    /// Set-ups per batch (0 until the first batch is sized).
    setup_batch: usize,
    /// Set-ups built so far; the next one is the `setups`-th.
    setups: usize,
    /// Has the warm-up job run?
    pub warmed_up: bool,
    /// Node steps (activations) per second of each timed job.
    pub job_rates: Vec<f64>,
    /// Closed-loop operation latencies, ms.
    pub latency_ms: Vec<f64>,
    /// Consensus accuracy at the end of each job.
    pub final_acc: Vec<f64>,
    /// Peak RSS after the first job, MiB.
    pub peak_rss_mb: f64,
}

impl Measured {
    /// Time set-ups after a job that took `job_wall_s`, for a
    /// [`SETUP_SHARE`] of it. The first call sizes the batch from one
    /// untimed set-up. `setup(k)` builds the `k`-th set-up; a batch is
    /// dropped outside the timed region. Returns the set-ups built.
    pub fn time_setups<T>(&mut self, job_wall_s: f64, mut setup: impl FnMut(usize) -> T) -> usize {
        let before = self.setups;
        if self.setup_batch == 0 {
            let t = Instant::now();
            drop(setup(0));
            let once = t.elapsed().as_secs_f64();
            self.setup_batch =
                ((SETUP_BATCH_S / once.max(1e-9)).ceil() as usize).clamp(1, SETUP_BATCH_MAX);
            self.setups = 1;
        }
        let mut spent = 0.0;
        loop {
            let k = self.setups;
            let t = Instant::now();
            let built: Vec<T> = (k..k + self.setup_batch).map(&mut setup).collect();
            let took = t.elapsed().as_secs_f64();
            drop(built);
            self.setups += self.setup_batch;
            self.setup_s.push(took / self.setup_batch as f64);
            spent += took;
            if spent >= SETUP_SHARE * job_wall_s {
                return self.setups - before;
            }
        }
    }

    /// Add one job that completed `steps` node steps in `wall_s`. The
    /// first job of a run warms the process up (thread pool, page faults,
    /// allocator): only the peak RSS after it is kept.
    pub fn record_job(&mut self, steps: u64, wall_s: f64, latency_ms: &[f64], acc: f64, rss: f64) {
        if !self.warmed_up {
            self.warmed_up = true;
            self.peak_rss_mb = rss;
            return;
        }
        self.job_rates.push(steps as f64 / wall_s.max(1e-9));
        self.latency_ms.extend(latency_ms);
        self.final_acc.push(acc);
    }

    /// The `BENCHMARK.json` end-to-end metrics.
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", "s", median(&self.setup_s)),
            Metric::new("steps_per_s", "1/s", self.steps_per_s()),
            Metric::new(
                "latency_ms_p50",
                "ms",
                percentile(&self.latency_ms, 50.0).value,
            ),
            Metric::new(
                "latency_ms_p90",
                "ms",
                percentile(&self.latency_ms, 90.0).value,
            ),
            Metric::new("peak_rss_mb", "MiB", self.peak_rss_mb),
        ]
    }

    /// Node steps per second of timed wall: the median over the run's
    /// jobs, so a burst of load from outside that slows one job does not
    /// move it.
    pub fn steps_per_s(&self) -> f64 {
        median(&self.job_rates)
    }

    /// The set-up, throughput, accuracy and memory metrics under their
    /// design names (the latency ones are named by each workload).
    pub fn common_named(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", "s", median(&self.setup_s)),
            Metric::new("steps_per_s", "1/s", self.steps_per_s()),
            Metric::new("final_acc", "ratio", median(&self.final_acc)),
            Metric::new("peak_rss_mb", "MiB", self.peak_rss_mb),
        ]
    }

    /// One note line with every job's throughput and the set-up samples.
    pub fn job_note(&self) -> String {
        let rates: Vec<String> = self.job_rates.iter().map(|r| format!("{r:.1}")).collect();
        let us = |x: f64| x * 1e6;
        let (lo, hi) = self
            .setup_s
            .iter()
            .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        format!(
            "steps/s per job: {}; set-up: {} samples of {} set-ups, {:.1}-{:.1} us each",
            rates.join(" "),
            self.setup_s.len(),
            self.setup_batch,
            us(lo),
            us(hi)
        )
    }
}

/// A latency percentile under a design name. A tail percentile also
/// leaves a note with its sample count and the highest percentile that
/// keeps ten samples beyond it.
pub fn latency_metric(name: &str, samples: &[f64], p: f64, notes: &mut Vec<String>) -> Metric {
    let q = percentile(samples, p);
    if p > 50.0 {
        let highest = highest_tail(q.n, &[99.9, 99.0, 95.0, 90.0, 75.0, 50.0])
            .map_or_else(|| "none".to_string(), |h| format!("p{h}"));
        notes.push(format!(
            "{name}: p{} of {} samples, {} beyond it (highest percentile with ten beyond: {highest})",
            q.p, q.n, q.beyond
        ));
    }
    Metric::new(name, "ms", q.value)
}

/// Jobs a run needs: the warm-up job, then enough timed jobs of
/// `per_job` latency samples for the p90 to have ten beyond it.
pub fn min_jobs(per_job: usize, tiny: bool) -> usize {
    if tiny {
        2
    } else {
        1 + crate::stats::min_samples_for(90.0).div_ceil(per_job)
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("tinynn.local_train_ms", "ms"),
    ("core.analysis_ms", "ms"),
    ("core.step_ms", "ms"),
    ("core.publish_ms", "ms"),
    ("core.eval_ms", "ms"),
    ("core.publish_ratio", "ratio"),
    ("eval_cache.hit_ratio", "ratio"),
    ("eval_cache.hits", "count"),
    ("eval_cache.misses", "count"),
    ("tangle.analysis_ms", "ms"),
    ("tangle.confidence_ms", "ms"),
    ("tangle.tip_selection_ms", "ms"),
    ("tangle.walks", "count"),
    ("tangle.walk_len_mean", "hops"),
    ("tangle.cache_appends", "count"),
    ("tangle.cache_rebuilds", "count"),
    ("gossip.deliver_ms", "ms"),
    ("gossip.encode_ms", "ms"),
    ("gossip.delivered", "count"),
    ("gossip.duplicates", "count"),
    ("gossip.orphaned", "count"),
    ("gossip.rerequests", "count"),
    ("gossip.checkpoints", "count"),
    ("gossip.useful_ratio", "ratio"),
    ("net.activate_ms", "ms"),
    ("net.frames_sent", "count"),
    ("net.bytes_sent", "bytes"),
    ("net.bytes_per_publish", "bytes"),
    ("net.dropped", "count"),
    ("net.rerequests", "count"),
    ("feddata.generate_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("trace_overhead", "ratio"),
];

/// The full per-layer metric list from the values a workload measured;
/// a layer the workload does not run reads 0.
///
/// # Panics
/// Panics if `values` names a metric missing from [`PER_LAYER`].
pub fn per_layer(values: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in values {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            Metric::new(name, unit, v)
        })
        .collect()
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// `traced / untraced − 1` over paired jobs, as the median of the
/// per-pair ratios.
pub fn trace_overhead(pairs: &[(f64, f64)]) -> f64 {
    let r: Vec<f64> = pairs.iter().map(|(u, t)| t / u.max(1e-12) - 1.0).collect();
    median(&r)
}

/// FNV-1a over a byte stream, for ledger digests.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feed bytes.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feed a `u64`.
    pub fn u64(&mut self, x: u64) {
        self.eat(&x.to_le_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

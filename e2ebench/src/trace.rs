//! Harness-side spans for the traced run, and the self-time table built
//! from them plus the program's own telemetry.
//!
//! The benchmark adds no spans inside the program. It times each public
//! call it makes ([`Spans::time`]), and reads the program's existing
//! span histograms (`Telemetry::with_timings`). A program span that runs
//! on the rayon pool overlaps its siblings, so its summed busy time is
//! divided by the pool width to express it as wall time; the table
//! marks such rows.

use crate::report::Row;
use lt_telemetry::{MemorySink, MetricsSnapshot, Telemetry};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Accumulated wall time per harness span name. Disabled spans cost one
/// branch, so the measured run carries the same code as the traced one.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    totals: BTreeMap<&'static str, Duration>,
}

impl Spans {
    /// A recorder that times (`enabled`) or only runs its closures.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            totals: BTreeMap::new(),
        }
    }

    /// Run `f`, adding its wall time to `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let out = f();
        *self.totals.entry(name).or_default() += t.elapsed();
        out
    }

    /// Total milliseconds recorded under `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }
}

/// The program telemetry handle for a run: recording with timings for
/// the traced run, the no-op handle otherwise.
pub fn telemetry(traced: bool) -> Telemetry {
    if traced {
        Telemetry::with_timings(MemorySink::new(), true)
    } else {
        Telemetry::disabled()
    }
}

/// Read access to one metrics snapshot (counters and span histograms).
pub struct Snapshot(pub MetricsSnapshot);

impl Snapshot {
    /// Snapshot `tel` (empty when disabled).
    pub fn of(tel: &Telemetry) -> Self {
        Self(tel.metrics_snapshot().unwrap_or_default())
    }

    /// Counter value, 0 when never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.0.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of a microsecond span histogram, in milliseconds.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.0
            .histograms
            .get(name)
            .map_or(0.0, |h| h.sum as f64 / 1e3)
    }

    /// Mean of a histogram (0 when empty).
    pub fn mean(&self, name: &str) -> f64 {
        self.0.histograms.get(name).map_or(0.0, |h| h.mean())
    }
}

/// Builder for the self-time table of one traced job.
pub struct Table {
    wall_ms: f64,
    rows: Vec<Row>,
}

impl Table {
    /// A table for a traced job that took `wall_ms` in total.
    pub fn new(wall_ms: f64) -> Self {
        Self {
            wall_ms,
            rows: Vec::new(),
        }
    }

    /// Attribute `ms` of wall time to layer row `name`.
    pub fn row(&mut self, name: &str, ms: f64, note: &str) -> &mut Self {
        self.rows.push(Row {
            name: name.into(),
            ms: ms.max(0.0),
            note: note.into(),
        });
        self
    }

    /// Time inside a harness-timed public call that no layer row covers.
    pub fn uncovered(&mut self, call: &str, ms: f64) -> &mut Self {
        self.rows.push(Row {
            name: format!("(no span) in {call}"),
            ms: ms.max(0.0),
            note: "unattributed".into(),
        });
        self
    }

    /// Milliseconds attributed to layer rows.
    pub fn attributed_ms(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.note != "unattributed")
            .map(|r| r.ms)
            .sum()
    }

    /// `1 − attributed / wall`.
    pub fn unattributed_share(&self) -> f64 {
        (1.0 - self.attributed_ms() / self.wall_ms.max(1e-9)).clamp(0.0, 1.0)
    }

    /// The finished rows, closed by the harness remainder and the
    /// explicit `unattributed_share` row.
    pub fn finish(mut self) -> Vec<Row> {
        let covered: f64 = self.rows.iter().map(|r| r.ms).sum();
        let share = self.unattributed_share();
        self.rows.push(Row {
            name: "(harness loop and other)".into(),
            ms: (self.wall_ms - covered).max(0.0),
            note: "unattributed".into(),
        });
        self.rows.push(Row {
            name: "unattributed_share".into(),
            ms: 0.0,
            note: format!(
                "{share:.4} of {:.3} ms traced wall is outside every layer span",
                self.wall_ms
            ),
        });
        self.rows
    }
}

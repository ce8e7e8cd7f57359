//! What one benchmark run reports, and how it is printed.

use crate::host::Host;
use serde::Value;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` or the design's tables list it.
    pub name: String,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`, `ratio`.
    pub unit: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
}

impl Metric {
    /// Build a metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The outcome of one in-run correctness check.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// `Ok` or what went wrong.
    pub result: Result<(), String>,
}

impl Check {
    /// A check named `name` with its outcome.
    pub fn new(name: impl Into<String>, result: Result<(), String>) -> Self {
        Self {
            name: name.into(),
            result,
        }
    }

    /// A check that two digests agree.
    pub fn equal<T: PartialEq + std::fmt::Debug>(name: impl Into<String>, a: T, b: T) -> Self {
        let result = if a == b {
            Ok(())
        } else {
            Err(format!("{a:?} != {b:?}"))
        };
        Self::new(name, result)
    }
}

/// One row of the traced run's self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Layer or span name.
    pub name: String,
    /// Wall-clock milliseconds attributed to it.
    pub ms: f64,
    /// How the number was obtained.
    pub note: String,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Operations attempted: node steps, activations and control requests.
    pub attempted: u64,
    /// Operations that erred or timed out.
    pub op_failures: u64,
    /// In-run correctness checks; each failed one also counts as a
    /// failed operation.
    pub checks: Vec<Check>,
    /// The `BENCHMARK.json` end-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Every end-to-end metric the workload defines, under the names
    /// the design uses (printed, and kept in the result record).
    pub named: Vec<Metric>,
    /// The `BENCHMARK.json` per-layer metrics (traced run).
    pub per_layer: Vec<Metric>,
    /// The traced run's self-time table.
    pub table: Vec<Row>,
    /// Free-form lines printed above the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Start an outcome for `workload`.
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            ..Self::default()
        }
    }

    /// Failed operations plus failed checks.
    pub fn failed(&self) -> u64 {
        self.op_failures + self.checks.iter().filter(|c| c.result.is_err()).count() as u64
    }

    /// Did the run complete every operation and pass every check?
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.attempted > 0
    }

    /// `failed / attempted`, the `error_rate` of the design.
    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// The metrics the last output line carries.
    pub fn result_metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The contract line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, trace: bool) -> String {
        let v = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed())),
            ("metrics".into(), metrics_value(self.result_metrics(trace))),
        ]);
        serde_json::to_string(&v).expect("plain values serialize")
    }

    /// The full record for `compare`: the contract fields plus every
    /// named metric, the check outcomes and the host block.
    pub fn record(&self, trace: bool, host: &Host) -> String {
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Value::Map(vec![
                    ("name".into(), Value::Str(c.name.clone())),
                    ("ok".into(), Value::Bool(c.result.is_ok())),
                ])
            })
            .collect();
        let v = Value::Map(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("trace".into(), Value::Bool(trace)),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed())),
            ("metrics".into(), metrics_value(self.result_metrics(trace))),
            ("named".into(), metrics_value(&self.named)),
            ("checks".into(), Value::Seq(checks)),
            ("host".into(), host.to_value()),
        ]);
        serde_json::to_string(&v).expect("plain values serialize")
    }

    /// The human-readable report printed above the result line.
    pub fn render(&self, trace: bool, host: &Host) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== {} ({}) ==\n",
            self.workload,
            if trace { "traced run" } else { "measured run" }
        ));
        out.push_str(&format!("host: {}\n", host.one_line()));
        for n in &self.notes {
            out.push_str(&format!("  {n}\n"));
        }
        for c in &self.checks {
            match &c.result {
                Ok(()) => out.push_str(&format!("  check {:<40} ok\n", c.name)),
                Err(e) => out.push_str(&format!("  check {:<40} FAILED: {e}\n", c.name)),
            }
        }
        if trace {
            out.push_str("  self time (traced job)\n");
            let wall: f64 = self.table.iter().map(|r| r.ms).sum();
            for r in &self.table {
                out.push_str(&format!(
                    "    {:<34} {:>11.3} ms {:>6.1}%  {}\n",
                    r.name,
                    r.ms,
                    100.0 * r.ms / wall.max(1e-9),
                    r.note
                ));
            }
            out.push_str("  per-layer metrics\n");
            push_metrics(&mut out, &self.per_layer);
        } else {
            out.push_str("  end-to-end metrics\n");
            push_metrics(&mut out, &self.named);
            out.push_str(&format!(
                "    {:<34} {:>14} {}\n",
                "error_rate",
                format!("{:.6}", self.error_rate()),
                format_args!("ratio ({} of {} failed)", self.failed(), self.attempted)
            ));
        }
        out
    }
}

fn push_metrics(out: &mut String, ms: &[Metric]) {
    for m in ms {
        out.push_str(&format!(
            "    {:<34} {:>14.6} {}\n",
            m.name, m.value, m.unit
        ));
    }
}

fn metrics_value(ms: &[Metric]) -> Value {
    Value::Map(
        ms.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_counts_as_a_failed_operation() {
        let mut o = Outcome::new("w");
        o.attempted = 10;
        o.checks.push(Check::equal("same", 1, 1));
        assert!(o.correct());
        o.checks.push(Check::equal("differs", 1, 2));
        assert!(!o.correct());
        assert_eq!(o.failed(), 1);
        assert!((o.error_rate() - 0.1).abs() < 1e-12);
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":10,\"failed\":1,"));
    }
}

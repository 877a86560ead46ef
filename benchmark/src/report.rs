//! What one workload run reports, and how it is printed and stored.

use crate::spec::Spec;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics, operation counts and oracle failures of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric name → value. Units come from the spec.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted (solves, requests or frames).
    pub attempted: u64,
    /// Operations that failed or whose answer an oracle rejected.
    pub failed: u64,
    /// One line per kind of failure, for the log.
    pub notes: Vec<String>,
}

impl Report {
    /// Set metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Count `n` failed operations, explaining them with `why`.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            self.notes.push(format!("{n} × {}", why.into()));
        }
    }

    /// Check the metrics against the spec's list for this kind of run:
    /// end-to-end runs must set every declared metric; traced runs
    /// report 0 for a per-layer metric the workload never exercises.
    /// Anything undeclared or non-finite is an error.
    pub fn finish(&mut self, spec: &Spec, traced: bool) -> Result<(), String> {
        let declared = spec.reported(traced);
        for (name, value) in &self.metrics {
            if !declared.iter().any(|m| &m.name == name) {
                return Err(format!("metric {name} is not declared in the spec"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
        }
        for m in declared {
            if !self.metrics.contains_key(&m.name) {
                if !traced {
                    return Err(format!("end-to-end metric {} was not measured", m.name));
                }
                self.metrics.insert(m.name.clone(), 0.0);
            }
        }
        Ok(())
    }

    /// Whether every answer passed its oracle.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The `workload metric value unit` lines plus `ops` and `failed`.
    pub fn text(&self, workload: &str, spec: &Spec, traced: bool) -> String {
        let mut out = String::new();
        for m in spec.reported(traced) {
            if let Some(v) = self.metrics.get(&m.name) {
                let _ = writeln!(out, "{workload} {} {v} {}", m.name, m.unit);
            }
        }
        let _ = writeln!(out, "{workload} ops {} count", self.attempted);
        let _ = writeln!(out, "{workload} failed {} count", self.failed);
        out
    }

    /// The one-line result object, printed last.
    pub fn json(&self, spec: &Spec, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for m in spec.reported(traced) {
            if let Some(v) = self.metrics.get(&m.name) {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(*v),
                    m.unit
                );
            }
        }
        out.push_str("}}");
        out
    }

    /// The stored result: the result object plus what `compare` needs
    /// to pair runs.
    pub fn record(&self, workload: &str, seed: u64, spec: &Spec, traced: bool) -> String {
        let body = self.json(spec, traced);
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{traced},{}\n",
            &body[1..]
        )
    }
}

/// A finite f64 as a JSON number with every digit (`{}` is the
/// shortest representation that round-trips). Integral values keep a
/// `.0` so readers never see an integer where a measurement belongs.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::parse(
            r#"{"run_seconds": 3, "workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "a_s", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "l.x", "unit": "count", "better": "higher"},
                              {"name": "l.y", "unit": "s", "better": "lower"}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_runs_must_measure_every_metric() {
        let mut r = Report::default();
        assert!(r.finish(&spec(), false).is_err());
        r.set("a_s", 0.25);
        r.finish(&spec(), false).unwrap();
        r.attempted = 4;
        let line = r.json(&spec(), false);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":4,"failed":0,"metrics":{"a_s":{"value":0.25,"unit":"s"}}}"#
        );
        assert!(lamps_obs::json::parse(&r.record("w", 9, &spec(), false)).is_ok());
    }

    #[test]
    fn traced_runs_default_unexercised_layers_to_zero() {
        let mut r = Report::default();
        r.set("l.x", 3.0);
        r.fail(2, "mismatch");
        r.finish(&spec(), true).unwrap();
        assert_eq!(r.metrics["l.y"], 0.0);
        assert!(!r.correct());
        assert!(r.text("w", &spec(), true).contains("w l.x 3 count\n"));
        let mut bad = Report::default();
        bad.set("a_s", 1.0);
        assert!(
            bad.finish(&spec(), true).is_err(),
            "e2e name in a traced run"
        );
        let mut nan = Report::default();
        nan.set("l.x", f64::NAN);
        assert!(nan.finish(&spec(), true).is_err());
    }
}

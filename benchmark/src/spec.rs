//! `BENCHMARK.json`: the workloads, the metrics with their units and
//! directions, and the regression bounds of the end-to-end metrics.

use lamps_obs::json::{parse, Value};

/// One metric as the spec declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Largest worsening, as a share of the parent's median, that still
    /// counts as no regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Metrics reported by untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Metrics reported by traced runs.
    pub per_layer: Vec<Metric>,
    /// Measured seconds per run.
    pub run_seconds: u64,
}

impl Spec {
    /// Read and parse the spec file at `path`.
    pub fn load(path: &str) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Spec::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Parse spec text.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = parse(text).map_err(|e| e.to_string())?;
        let workloads = root
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("missing workloads array")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "workload without a name".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let run_seconds = root
            .get("run_seconds")
            .and_then(Value::as_number)
            .filter(|s| *s >= 1.0 && s.fract() == 0.0)
            .ok_or("run_seconds must be a positive whole number")? as u64;
        Ok(Spec {
            workloads,
            end_to_end: metrics(&root, "end_to_end", true)?,
            per_layer: metrics(&root, "per_layer", false)?,
            run_seconds,
        })
    }

    /// The metric list a run reports: per-layer when traced.
    pub fn reported(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn metrics(root: &Value, key: &str, bounded: bool) -> Result<Vec<Metric>, String> {
    root.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing {key} array"))?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{key} entry without {f}"))
            };
            let name = field("name")?;
            let higher_is_better = match field("better")?.as_str() {
                "higher" => true,
                "lower" => false,
                other => {
                    return Err(format!(
                        "{name}: better must be higher or lower, not {other}"
                    ))
                }
            };
            let bound = if bounded {
                Some(
                    m.get("bound")
                        .and_then(Value::as_number)
                        .filter(|b| (0.0..=0.25).contains(b))
                        .ok_or_else(|| format!("{name}: bound must be a share in [0, 0.25]"))?,
                )
            } else {
                None
            };
            Ok(Metric {
                unit: field("unit")?,
                name,
                higher_is_better,
                bound,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_committed_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Spec::load(path).expect("BENCHMARK.json parses");
        assert_eq!(
            spec.workloads,
            ["fig10", "campaign", "serve_small", "serve_large", "online"]
        );
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        // Every name the workloads report is declared exactly once.
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn rejects_malformed_entries() {
        let base = |e2e: &str| {
            format!(
                r#"{{"run_seconds": 5, "workloads": [{{"name": "a", "why": "x"}}],
                    "end_to_end": [{e2e}], "per_layer": []}}"#
            )
        };
        let ok = base(r#"{"name": "m", "unit": "s", "better": "lower", "bound": 0.1}"#);
        assert_eq!(Spec::parse(&ok).unwrap().end_to_end[0].bound, Some(0.1));
        for bad in [
            r#"{"name": "m", "unit": "s", "better": "down", "bound": 0.1}"#,
            r#"{"name": "m", "unit": "s", "better": "lower", "bound": 0.5}"#,
            r#"{"name": "m", "unit": "s", "better": "lower"}"#,
            r#"{"unit": "s", "better": "lower", "bound": 0.1}"#,
        ] {
            assert!(Spec::parse(&base(bad)).is_err(), "{bad}");
        }
        assert!(Spec::parse("{").is_err());
    }
}

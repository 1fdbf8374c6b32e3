//! `BENCHMARK.json`, read at compile time: the one list of workload
//! and metric names, units, directions and bounds. The program prints
//! nothing that is not in it.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use dash_net::json::{self, Json};

const SPEC_TEXT: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median an end-to-end metric may worsen
    /// by; per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(SPEC_TEXT).expect("BENCHMARK.json is well-formed"))
}

fn parse(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("{key}: not a list"))
    };
    let text_of = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("{key}: not a string"))
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|item| {
                Ok(Metric {
                    name: text_of(item, "name")?,
                    unit: text_of(item, "unit")?,
                    lower_is_better: match text_of(item, "better")?.as_str() {
                        "lower" => true,
                        "higher" => false,
                        other => return Err(format!("better: {other:?}")),
                    },
                    bound: item.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("run_seconds: not a whole number")?,
        workloads: list("workloads")?
            .iter()
            .map(|item| Ok((text_of(item, "name")?, text_of(item, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// One run's result, as the contract's last line.
#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl RunResult {
    /// The result line: every metric of `listed` by name with the
    /// spec's unit, in the spec's order.
    ///
    /// # Errors
    ///
    /// A measured name that is not listed, a listed one that was not
    /// measured, or a value that is negative or not finite.
    pub fn render(&self, listed: &[Metric]) -> Result<String, String> {
        if let Some(stray) = self
            .metrics
            .keys()
            .find(|name| !listed.iter().any(|m| &m.name == *name))
        {
            return Err(format!("metric {stray} is not in BENCHMARK.json"));
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (at, metric) in listed.iter().enumerate() {
            let value = *self
                .metrics
                .get(&metric.name)
                .ok_or(format!("metric {} was not measured", metric.name))?;
            // An end-to-end metric (the ones with a bound) is never 0.
            if !value.is_finite() || value < 0.0 || (metric.bound.is_some() && value == 0.0) {
                return Err(format!("metric {} reads {value}", metric.name));
            }
            if at > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, value, metric.unit
            ));
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Workload;

    fn well_formed(name: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(legal)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn the_file_and_the_program_agree() {
        let spec = spec();
        let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        assert_eq!(spec.run_seconds, 24);
        assert_eq!(spec.end_to_end.len(), 7);
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in &spec.workloads {
            assert!(well_formed(name), "{name}");
            assert!(why.chars().count() <= 200 && !why.contains('\n'), "{name}");
            assert!(seen.insert(name.clone()), "{name} twice");
        }
        for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(well_formed(&metric.name), "{}", metric.name);
            assert!(seen.insert(metric.name.clone()), "{} twice", metric.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !metric.unit.is_empty()
                    && metric.unit.len() <= 16
                    && metric.unit.chars().all(unit_ok),
                "{}",
                metric.unit
            );
        }
        for metric in &spec.end_to_end {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.lower_is_better);
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
    }

    #[test]
    fn render_refuses_strays_gaps_and_zeros() {
        let listed = &spec().end_to_end;
        let full = |value: f64| RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: listed.iter().map(|m| (m.name.clone(), value)).collect(),
        };
        let line = full(1.5).render(listed).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"search_p50_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
        assert_eq!(
            json::parse(&line)
                .unwrap()
                .get("metrics")
                .map(|m| matches!(m, Json::Obj(f) if f.len() == listed.len())),
            Some(true)
        );
        assert!(full(0.0).render(listed).is_err());
        let mut stray = full(1.0);
        stray.metrics.insert("made_up".to_string(), 1.0);
        assert!(stray.render(listed).is_err());
        let mut gap = full(1.0);
        gap.metrics.remove("setup_s");
        assert!(gap.render(listed).is_err());
    }
}

//! The local subcommands around the measuring command: `run` and
//! `trace` loop the workloads and keep the results, `compare` sets two
//! result files side by side, `spread` runs the driver's steadiness
//! check over any number of them.

use std::collections::BTreeMap;
use std::path::PathBuf;

use dash_net::json::{self, Json};

use crate::script::Workload;
use crate::spec::{spec, Metric};
use crate::stats::{quartiles, spread};
use crate::{e2e, trace, Failure};

/// Runs every workload with one seed and writes
/// `benchmark/out/result-<seed>.json` (`layers-<seed>.json` when
/// traced). Returns whether every run was correct.
pub fn run_all(seed: u64, seconds: u64, traced: bool) -> Result<bool, Failure> {
    let (listed, stem) = if traced {
        (&spec().per_layer, "layers")
    } else {
        (&spec().end_to_end, "result")
    };
    let mut lines = Vec::new();
    let mut all_correct = true;
    for (name, _) in &spec().workloads {
        let workload = Workload::parse(name).ok_or(format!("BENCHMARK.json lists {name}"))?;
        let result = if traced {
            trace::run(workload, seed, seconds)?
        } else {
            e2e::run(workload, seed, seconds)?
        };
        let line = result.render(listed)?;
        println!("{line}");
        all_correct &= result.correct && result.failed == 0;
        lines.push(format!("    \"{}\": {line}", workload.name()));
    }
    let path = PathBuf::from(format!("benchmark/out/{stem}-{seed}.json"));
    std::fs::create_dir_all("benchmark/out")
        .and_then(|()| {
            std::fs::write(
                &path,
                format!(
                    "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
                    lines.join(",\n")
                ),
            )
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("written: {}", path.display());
    Ok(all_correct)
}

/// One result file: per workload, the failed share and every metric.
type Results = BTreeMap<String, (f64, BTreeMap<String, f64>)>;

fn load(path: &str) -> Result<Results, Failure> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!("{path}: no workloads"));
    };
    let mut results = BTreeMap::new();
    for (name, result) in workloads {
        let count = |key: &str| {
            result
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("{path}: {name}: no {key}"))
        };
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("{path}: {name}: no metrics"));
        };
        let values = metrics
            .iter()
            .map(|(metric, reading)| {
                reading
                    .get("value")
                    .and_then(Json::as_f64)
                    .map(|value| (metric.clone(), value))
                    .ok_or(format!("{path}: {name}: {metric} has no value"))
            })
            .collect::<Result<_, _>>()?;
        results.insert(
            name.clone(),
            (count("failed")? / count("attempted")?.max(1.0), values),
        );
    }
    Ok(results)
}

fn listed(name: &str) -> Option<&'static Metric> {
    let spec = spec();
    spec.end_to_end
        .iter()
        .chain(&spec.per_layer)
        .find(|m| m.name == name)
}

/// How `after` reads against `before` for a metric: the change as a
/// share of `before`, positive when worse.
fn worsening(metric: &Metric, before: f64, after: f64) -> f64 {
    let change = (after - before) / before;
    if metric.lower_is_better {
        change
    } else {
        -change
    }
}

pub fn verdict(metric: &Metric, before: f64, after: f64) -> &'static str {
    match metric.bound {
        Some(bound) if worsening(metric, before, after) > bound => "WORSE",
        Some(bound) if worsening(metric, before, after) < -bound => "better",
        Some(_) => "ok",
        None => "-",
    }
}

/// `dashbench compare a.json b.json`: both values, the change and the
/// bound per workload × metric. Returns whether nothing breached its
/// bound and no failed share rose.
pub fn compare(before: &str, after: &str) -> Result<bool, Failure> {
    let (a, b) = (load(before)?, load(after)?);
    let mut clean = true;
    println!(
        "{:11} {:44} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "before", "after", "change", "bound"
    );
    for (workload, (a_failed, a_metrics)) in &a {
        let Some((b_failed, b_metrics)) = b.get(workload) else {
            continue;
        };
        if b_failed > a_failed {
            println!("{workload}: failed share rose from {a_failed} to {b_failed}: WORSE");
            clean = false;
        }
        for (name, &before) in a_metrics {
            let (Some(&after), Some(metric)) = (b_metrics.get(name), listed(name)) else {
                continue;
            };
            let verdict = verdict(metric, before, after);
            clean &= verdict != "WORSE";
            println!(
                "{workload:11} {name:44} {before:14.3} {after:14.3} {:+7.1}% {:>6} {verdict}",
                (after - before) / before * 100.0,
                metric
                    .bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            );
        }
    }
    Ok(clean)
}

/// `dashbench spread <results…>`: the driver's own check — per
/// workload × metric, the middle-half spread of the files' values as a
/// share of their median, against the metric's bound (`setup_s` is
/// exempt, as with the driver). Returns whether every bounded spread
/// stayed within its bound.
pub fn spreads(paths: &[String]) -> Result<bool, Failure> {
    if paths.len() < 2 {
        return Err("spread needs at least two result files".to_string());
    }
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for path in paths {
        for (workload, (_, metrics)) in load(path)? {
            for (name, value) in metrics {
                values
                    .entry((workload.clone(), name))
                    .or_default()
                    .push(value);
            }
        }
    }
    let mut steady = true;
    println!(
        "{:11} {:44} {:>3} {:>14} {:>8} {:>6}",
        "workload", "metric", "n", "median", "spread", "bound"
    );
    for ((workload, name), values) in &values {
        let Some(metric) = listed(name) else { continue };
        if values.len() < 2 {
            continue;
        }
        let share = spread(values);
        let verdict = match metric.bound {
            _ if name == "setup_s" => "exempt",
            Some(bound) if share >= bound => "WIDE",
            Some(bound) if share >= bound / 3.0 => "ok",
            Some(_) => "steady",
            None => "-",
        };
        steady &= verdict != "WIDE";
        println!(
            "{workload:11} {name:44} {:3} {:14.3} {:7.2}% {:>6} {verdict}",
            values.len(),
            quartiles(values)[1],
            share * 100.0,
            metric
                .bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    Ok(steady)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunResult;

    #[test]
    fn verdicts_follow_the_metrics_direction_and_bound() {
        let latency = listed("search_p50_us").unwrap();
        assert_eq!(verdict(latency, 100.0, 126.0), "WORSE");
        assert_eq!(verdict(latency, 100.0, 124.0), "ok");
        assert_eq!(verdict(latency, 100.0, 74.0), "better");
        let rate = listed("search_qps").unwrap();
        assert_eq!(verdict(rate, 100.0, 74.0), "WORSE");
        assert_eq!(verdict(rate, 100.0, 126.0), "better");
        let memory = listed("server_peak_rss_mb").unwrap();
        assert_eq!(verdict(memory, 100.0, 111.0), "WORSE");
        let layer = listed("net.http_hit_us_p50").unwrap();
        assert_eq!(verdict(layer, 100.0, 500.0), "-");
    }

    #[test]
    fn result_files_round_trip_through_compare_and_spread() {
        let dir = std::env::temp_dir().join(format!("dashbench-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, p50: f64, failed: u64| {
            let result = RunResult {
                correct: failed == 0,
                attempted: 100,
                failed,
                metrics: spec()
                    .end_to_end
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            if m.name == "search_p50_us" { p50 } else { 5.0 },
                        )
                    })
                    .collect(),
            };
            let path = dir.join(name);
            std::fs::write(
                &path,
                format!(
                    "{{\"seed\": 1, \"workloads\": {{\"hot-fit\": {}}}}}",
                    result.render(&spec().end_to_end).unwrap()
                ),
            )
            .unwrap();
            path.to_str().unwrap().to_string()
        };
        let base = write("a.json", 100.0, 0);
        let near = write("b.json", 104.0, 0);
        let far = write("c.json", 140.0, 0);
        let failing = write("d.json", 100.0, 3);
        assert_eq!(compare(&base, &near), Ok(true));
        assert_eq!(compare(&base, &far), Ok(false));
        assert_eq!(compare(&base, &failing), Ok(false));
        assert_eq!(spreads(&[base.clone(), near.clone()]), Ok(true));
        // 100, 104, 140: quartiles 100 / 104 / 140, spread 38 %.
        assert_eq!(spreads(&[base.clone(), near, far]), Ok(false));
        assert!(spreads(&[base]).is_err());
        assert!(compare("/nonexistent/a.json", "/nonexistent/b.json").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

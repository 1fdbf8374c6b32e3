//! Reading the exposition format back: a minimal parser for the text
//! this crate renders, so a test can check a live `/metrics` scrape
//! series by series.

/// One summary-typed series parsed back from exposition text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummarySeries {
    /// Series name (e.g. `dash_net_handle_ns`).
    pub name: String,
    /// 50th/90th/99th/99.9th percentile values.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Sample count.
    pub count: u64,
    /// Sample sum.
    pub sum: u64,
}

/// Parses every summary-typed series out of a Prometheus text
/// exposition document (the format [`render_merged`] writes;
/// unknown lines are skipped, so any conforming document works).
///
/// [`render_merged`]: crate::render_merged
pub fn parse_summaries(text: &str) -> Vec<SummarySeries> {
    fn find(series: &mut Vec<SummarySeries>, name: &str) -> usize {
        match series.iter().position(|s| s.name == name) {
            Some(at) => at,
            None => {
                series.push(SummarySeries {
                    name: name.to_string(),
                    p50: 0,
                    p90: 0,
                    p99: 0,
                    p999: 0,
                    count: 0,
                    sum: 0,
                });
                series.len() - 1
            }
        }
    }
    let mut series: Vec<SummarySeries> = Vec::new();
    let mut summaries: Vec<String> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some((name, kind)) = rest.split_once(' ') {
                if kind.trim() == "summary" {
                    summaries.push(name.to_string());
                }
            }
            continue;
        }
        let Some((series_part, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.trim().parse::<u64>() else {
            continue;
        };
        if let Some((name, labels)) = series_part.split_once('{') {
            if !summaries.iter().any(|s| s == name) {
                continue;
            }
            let at = find(&mut series, name);
            match labels.trim_end_matches('}') {
                "quantile=\"0.5\"" => series[at].p50 = value,
                "quantile=\"0.9\"" => series[at].p90 = value,
                "quantile=\"0.99\"" => series[at].p99 = value,
                "quantile=\"0.999\"" => series[at].p999 = value,
                _ => {}
            }
        } else if let Some(name) = series_part.strip_suffix("_sum") {
            if summaries.iter().any(|s| s == name) {
                let at = find(&mut series, name);
                series[at].sum = value;
            }
        } else if let Some(name) = series_part.strip_suffix("_count") {
            if summaries.iter().any(|s| s == name) {
                let at = find(&mut series, name);
                series[at].count = value;
            }
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn parses_what_render_writes() {
        let r = Registry::new();
        let h = r.histogram("dash_test_stage_ns");
        for v in [100u64, 200, 300, 4000] {
            h.record(v);
        }
        r.counter("dash_test_total").add(7);
        let parsed = parse_summaries(&r.render());
        assert_eq!(parsed.len(), 1, "counters are not summaries");
        let s = &parsed[0];
        assert_eq!(s.name, "dash_test_stage_ns");
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 4600);
        assert!(s.p50 > 0 && s.p999 >= s.p99 && s.p99 >= s.p50);
    }
}

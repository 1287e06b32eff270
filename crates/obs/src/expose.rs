//! The two sinks: Prometheus text exposition (format 0.0.4) and a JSON
//! snapshot. Both are hand-rolled string builders — the workspace has no
//! serde, and the shapes here are small and fixed.

use crate::histogram::{bucket_lo, HistogramSnapshot, NUM_BUCKETS};
use crate::registry::{MetricValue, Snapshot};

/// Render a snapshot in the Prometheus text exposition format.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for m in &snap.metrics {
        match m {
            MetricValue::Counter { name, help, value } => {
                header(&mut out, name, help, "counter");
                out.push_str(name);
                out.push(' ');
                out.push_str(&value.to_string());
                out.push('\n');
            }
            MetricValue::Gauge { name, help, value } => {
                header(&mut out, name, help, "gauge");
                out.push_str(name);
                out.push(' ');
                out.push_str(&value.to_string());
                out.push('\n');
            }
            MetricValue::Histogram { name, help, value } => {
                header(&mut out, name, help, "histogram");
                let mut cumulative = 0u64;
                for &(i, n) in &value.buckets {
                    cumulative += n;
                    // `le` is the bucket's inclusive upper bound: one
                    // below the next bucket's lower bound. The top
                    // bucket is covered by the +Inf line below.
                    if i + 1 < NUM_BUCKETS {
                        let le = bucket_lo(i + 1) - 1;
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                    }
                }
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", value.count));
                out.push_str(&format!("{name}_sum {}\n", value.sum));
                out.push_str(&format!("{name}_count {}\n", value.count));
            }
        }
    }
    out
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Render a snapshot as a JSON object:
/// `{"counters": {..}, "gauges": {..}, "histograms": {..}}`.
pub fn to_json(snap: &Snapshot) -> String {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for m in &snap.metrics {
        match m {
            MetricValue::Counter { name, value, .. } => {
                counters.push(format!("{}: {}", json_str(name), value));
            }
            MetricValue::Gauge { name, value, .. } => {
                gauges.push(format!("{}: {}", json_str(name), value));
            }
            MetricValue::Histogram { name, value, .. } => {
                histograms.push(format!("{}: {}", json_str(name), histogram_json(value)));
            }
        }
    }
    format!(
        "{{\n  \"counters\": {{{}}},\n  \"gauges\": {{{}}},\n  \"histograms\": {{{}}}\n}}",
        counters.join(", "),
        gauges.join(", "),
        histograms.join(", ")
    )
}

/// One histogram as JSON, with derived quantiles for plotting.
pub fn histogram_json(h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = h
        .buckets
        .iter()
        .map(|&(i, n)| format!("[{}, {}]", bucket_lo(i), n))
        .collect();
    format!(
        "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.3}, \"p50\": {}, \"p99\": {}, \"buckets\": [{}]}}",
        h.count,
        h.sum,
        h.max,
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.99),
        buckets.join(", ")
    )
}

/// Minimal JSON string quoting (names are static identifiers, but keep
/// this correct for arbitrary input anyway).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.intern_counter("ops_total", "operations").core.add(5);
        r.intern_gauge("lag", "epoch lag").core.set(-3);
        let h = r.intern_histogram("lat_ns", "latency");
        h.core.record(7);
        h.core.record(90);
        r.snapshot()
    }

    #[test]
    fn prometheus_shape() {
        let text = to_prometheus(&sample());
        assert!(text.contains("# TYPE ops_total counter"));
        assert!(text.contains("ops_total 5"));
        assert!(text.contains("# TYPE lag gauge"));
        assert!(text.contains("lag -3"));
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_ns_sum 97"));
        assert!(text.contains("lat_ns_count 2"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let h = Histogram::new();
        h.record(1);
        h.record(1);
        h.record(1000);
        let snap = Snapshot {
            metrics: vec![MetricValue::Histogram {
                name: "h",
                help: "h",
                value: h.snapshot(),
            }],
        };
        let text = to_prometheus(&snap);
        // The second non-empty bucket's cumulative count includes the
        // first's two records.
        assert!(text.contains("} 2\n"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn json_shape() {
        let json = to_json(&sample());
        assert!(json.contains("\"ops_total\": 5"));
        assert!(json.contains("\"lag\": -3"));
        assert!(json.contains("\"lat_ns\": {\"count\": 2"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}

//! The JSON Lines rendering of a trace: one `{"kind":"span",...}` object
//! per epoch, then one `counter`/`gauge`/`histogram` object per metric.

use crate::json::JsonObject;
use crate::metrics::MetricsSnapshot;
use crate::span::{EpochSpan, Phase};

/// Renders one span as a JSON object.
pub fn span_to_json(span: &EpochSpan) -> String {
    let mut o = JsonObject::new();
    o.field_str("kind", "span").field_u64("epoch", span.epoch);
    for p in Phase::ALL {
        o.field_f64(&format!("{}_ms", p.name()), span.get(p));
    }
    o.field_f64("total_ms", span.total_ms());
    o.finish()
}

/// Renders a metrics snapshot as JSON Lines (one object per metric).
pub fn snapshot_to_jsonl(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let mut o = JsonObject::new();
        o.field_str("kind", "counter")
            .field_str("name", name)
            .field_u64("value", *value);
        out.push_str(&o.finish());
        out.push('\n');
    }
    for (name, value) in &snapshot.gauges {
        let mut o = JsonObject::new();
        o.field_str("kind", "gauge")
            .field_str("name", name)
            .field_f64("value", *value);
        out.push_str(&o.finish());
        out.push('\n');
    }
    for (name, h) in &snapshot.histograms {
        let mut o = JsonObject::new();
        o.field_str("kind", "histogram")
            .field_str("name", name)
            .field_u64("count", h.count)
            .field_f64("mean", h.mean)
            .field_f64("min", h.min)
            .field_f64("max", h.max)
            .field_f64("p50", h.p50)
            .field_f64("p95", h.p95)
            .field_f64("p99", h.p99);
        out.push_str(&o.finish());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn spans_and_metrics_render_as_one_object_per_line() {
        let mut span = EpochSpan::new(2);
        span.add(Phase::PmcRead, 0.5);
        span.add(Phase::LearnStep, 1.5);
        let line = span_to_json(&span);
        assert!(line.starts_with(r#"{"kind":"span","epoch":2,"#));
        assert!(line.contains(r#""pmc_read_ms":0.5"#));
        assert!(line.contains(r#""total_ms":2"#));

        let mut m = MetricsRegistry::new();
        m.counter_add("governor.trips", 1);
        m.gauge_set("twig.epsilon", 0.5);
        m.record("rl.loss", 0.25);
        let text = snapshot_to_jsonl(&m.snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains(r#""kind":"counter""#) && lines[0].contains("governor.trips"));
        assert!(lines[1].contains(r#""kind":"gauge""#) && lines[1].contains("0.5"));
        assert!(lines[2].contains(r#""kind":"histogram""#) && lines[2].contains(r#""count":1"#));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }
}

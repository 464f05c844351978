//! The unified metrics tree: every stats struct in the stack, one shape.
//!
//! A [`MetricsSnapshot`] is a list of named sections, each a list of
//! named metrics tagged counter or gauge. This crate owns the *shape* so
//! every layer — driver results, fleet soak rounds, the sweep binary —
//! reports through the same structure, with windowed deltas and JSON
//! in/out that behave uniformly. The names and kinds come from the stats
//! structs themselves: each layer declares its fields once with
//! `ipa_flash::counters!`, tagged counter or gauge, and
//! `ipa_workloads::metrics::section` turns such a struct into a section
//! (`ipa_workloads::engine_metrics` walks an engine's device, flash,
//! controller, maintenance and heat stats that way).

use crate::json::{self, JsonValue};

/// How a metric evolves — decides [`MetricsSnapshot::delta_since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone accumulator: windows subtract.
    Counter,
    /// Point-in-time reading (depth, fraction, spread): windows carry
    /// the newer value.
    Gauge,
}

impl MetricKind {
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// A metric's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    U64(u64),
    F64(f64),
}

impl MetricValue {
    pub fn as_f64(self) -> f64 {
        match self {
            MetricValue::U64(v) => v as f64,
            MetricValue::F64(v) => v,
        }
    }

    pub fn as_u64(self) -> u64 {
        match self {
            MetricValue::U64(v) => v,
            MetricValue::F64(v) => v as u64,
        }
    }

    fn saturating_sub(self, earlier: MetricValue) -> MetricValue {
        match (self, earlier) {
            (MetricValue::U64(a), MetricValue::U64(b)) => MetricValue::U64(a.saturating_sub(b)),
            (a, b) => MetricValue::F64((a.as_f64() - b.as_f64()).max(0.0)),
        }
    }
}

/// One named reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub kind: MetricKind,
    pub value: MetricValue,
}

/// A named group of metrics (one per stats struct or layer).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSection {
    pub name: String,
    pub metrics: Vec<Metric>,
}

impl MetricSection {
    pub fn new(name: impl Into<String>) -> Self {
        MetricSection {
            name: name.into(),
            metrics: Vec::new(),
        }
    }

    pub fn counter(mut self, name: impl Into<String>, value: u64) -> Self {
        self.metrics.push(Metric {
            name: name.into(),
            kind: MetricKind::Counter,
            value: MetricValue::U64(value),
        });
        self
    }

    pub fn gauge(mut self, name: impl Into<String>, value: u64) -> Self {
        self.metrics.push(Metric {
            name: name.into(),
            kind: MetricKind::Gauge,
            value: MetricValue::U64(value),
        });
        self
    }

    pub fn gauge_f64(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push(Metric {
            name: name.into(),
            kind: MetricKind::Gauge,
            value: MetricValue::F64(value),
        });
        self
    }

    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The window between `earlier` and `self`: counters subtract
    /// (saturating), gauges carry this section's value. Metrics absent
    /// from `earlier` pass through unchanged.
    pub fn delta_since(&self, earlier: &MetricSection) -> MetricSection {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = match (m.kind, earlier.get(&m.name)) {
                    (MetricKind::Counter, Some(prev)) => m.value.saturating_sub(prev),
                    _ => m.value,
                };
                Metric { value, ..m.clone() }
            })
            .collect();
        MetricSection {
            name: self.name.clone(),
            metrics,
        }
    }
}

/// A full snapshot of the stack's metrics at one simulated instant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Simulated time the snapshot was taken.
    pub at_ns: u64,
    pub sections: Vec<MetricSection>,
}

impl MetricsSnapshot {
    pub fn new(at_ns: u64) -> Self {
        MetricsSnapshot {
            at_ns,
            sections: Vec::new(),
        }
    }

    pub fn push(&mut self, section: MetricSection) {
        self.sections.push(section);
    }

    pub fn section(&self, name: &str) -> Option<&MetricSection> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// `"section.metric"` lookup.
    pub fn get(&self, path: &str) -> Option<MetricValue> {
        let (sec, name) = path.split_once('.')?;
        self.section(sec)?.get(name)
    }

    /// The window between `earlier` and `self`, section by section (see
    /// [`MetricSection::delta_since`]). Sections absent from `earlier`
    /// pass through unchanged.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let sections = self
            .sections
            .iter()
            .map(|sec| match earlier.section(&sec.name) {
                Some(old) => sec.delta_since(old),
                None => sec.clone(),
            })
            .collect();
        MetricsSnapshot {
            at_ns: self.at_ns,
            sections,
        }
    }

    /// Serialize to a compact JSON document.
    pub fn to_json_string(&self) -> String {
        let sections = self
            .sections
            .iter()
            .map(|sec| {
                let metrics = sec
                    .metrics
                    .iter()
                    .map(|m| {
                        JsonValue::Obj(vec![
                            ("name".into(), JsonValue::Str(m.name.clone())),
                            ("kind".into(), JsonValue::Str(m.kind.as_str().into())),
                            (
                                "value".into(),
                                match m.value {
                                    MetricValue::U64(v) => JsonValue::Num(v as f64),
                                    MetricValue::F64(v) => JsonValue::Num(v),
                                },
                            ),
                            (
                                "type".into(),
                                JsonValue::Str(
                                    match m.value {
                                        MetricValue::U64(_) => "u64",
                                        MetricValue::F64(_) => "f64",
                                    }
                                    .into(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                JsonValue::Obj(vec![
                    ("name".into(), JsonValue::Str(sec.name.clone())),
                    ("metrics".into(), JsonValue::Arr(metrics)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("at_ns".into(), JsonValue::Num(self.at_ns as f64)),
            ("sections".into(), JsonValue::Arr(sections)),
        ])
        .render()
    }

    /// Parse a document produced by [`Self::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<MetricsSnapshot, String> {
        let doc = json::parse(text)?;
        let at_ns = doc
            .get("at_ns")
            .and_then(JsonValue::as_u64)
            .ok_or("missing at_ns")?;
        let mut snap = MetricsSnapshot::new(at_ns);
        for sec in doc
            .get("sections")
            .and_then(JsonValue::as_array)
            .ok_or("missing sections")?
        {
            let name = sec
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("section missing name")?;
            let mut out = MetricSection::new(name);
            for m in sec
                .get("metrics")
                .and_then(JsonValue::as_array)
                .ok_or("section missing metrics")?
            {
                let name = m
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("metric missing name")?
                    .to_string();
                let kind = match m.get("kind").and_then(JsonValue::as_str) {
                    Some("counter") => MetricKind::Counter,
                    Some("gauge") => MetricKind::Gauge,
                    _ => return Err(format!("metric {name}: bad kind")),
                };
                let raw = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("metric {name}: bad value"))?;
                let value = match m.get("type").and_then(JsonValue::as_str) {
                    Some("u64") => MetricValue::U64(raw as u64),
                    Some("f64") => MetricValue::F64(raw),
                    _ => return Err(format!("metric {name}: bad type")),
                };
                out.metrics.push(Metric { name, kind, value });
            }
            snap.push(out);
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new(12_345);
        s.push(
            MetricSection::new("controller")
                .counter("commands", 100)
                .counter("reads", 40)
                .gauge("max_queue_depth", 7)
                .gauge_f64("die_util_max", 0.8125),
        );
        s.push(
            MetricSection::new("pool")
                .counter("hits", 90)
                .gauge_f64("hit_rate", 0.9),
        );
        s
    }

    #[test]
    fn json_round_trip_is_identity() {
        let s = sample();
        let text = s.to_json_string();
        let back = MetricsSnapshot::from_json_str(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn path_lookup() {
        let s = sample();
        assert_eq!(
            s.get("controller.commands").map(MetricValue::as_u64),
            Some(100)
        );
        assert_eq!(s.get("pool.hit_rate").map(MetricValue::as_f64), Some(0.9));
        assert_eq!(s.get("pool.nope"), None);
        assert_eq!(s.get("nope.hits"), None);
    }

    #[test]
    fn delta_subtracts_counters_and_carries_gauges() {
        let earlier = sample();
        let mut later = sample();
        later.at_ns = 20_000;
        later.sections[0].metrics[0].value = MetricValue::U64(130); // commands
        later.sections[0].metrics[2].value = MetricValue::U64(3); // depth gauge shrank
        let d = later.delta_since(&earlier);
        assert_eq!(d.at_ns, 20_000);
        assert_eq!(
            d.get("controller.commands").map(MetricValue::as_u64),
            Some(30)
        );
        assert_eq!(d.get("controller.reads").map(MetricValue::as_u64), Some(0));
        // Gauge: newer point-in-time value, NOT 3 - 7 underflow.
        assert_eq!(
            d.get("controller.max_queue_depth").map(MetricValue::as_u64),
            Some(3)
        );
        assert_eq!(
            d.get("controller.die_util_max").map(MetricValue::as_f64),
            Some(0.8125)
        );
    }
}

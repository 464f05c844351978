//! Named metrics and the result line.

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from (printed, not in the JSON).
    pub samples: u64,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: u64) {
        let name = name.into();
        assert!(valid_name(&name), "metric name {name:?}");
        assert!(value.is_finite(), "metric {name} = {value}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Human-readable table: name, value, unit, sample count.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("{title}\n");
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<40} {:>16.6} {:<8} n={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out
    }

    /// `{"name": {"value": v, "unit": u}, …}` for the `(name, unit)`
    /// pairs in `keep`, in that order.
    pub fn json_metrics(&self, keep: &[(&str, &str)]) -> String {
        let parts: Vec<String> = keep
            .iter()
            .map(|&(name, unit)| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert_eq!(m.unit, unit, "unit of {name}");
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// Shortest round-trip form of a finite float (all its digits).
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') || s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The result line the benchmark ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics_json}}}"
    )
}

/// Metric and workload names are made of `[A-Za-z0-9_.-]`, start with a
/// letter or digit and are at most 64 long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_character_rule() {
        assert!(valid_name("ftl.write_delta.calls_per_tx"));
        assert!(valid_name("tpcb-ipa"));
        assert!(!valid_name(""));
        assert!(!valid_name("_x"));
        assert!(!valid_name("p99.9 µs"));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(1e-9), "1e-9");
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut r = Report::default();
        r.add("setup_s", 0.5, "s", 3);
        let line = result_line(true, 10, 0, &r.json_metrics(&[("setup_s", "s")]));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}

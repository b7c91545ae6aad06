//! Metric values, the human-readable report and the closing JSON line.

use std::fmt::Write as _;

/// Where a number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// End-to-end, timed from outside the program with tracing off.
    EndToEnd,
    /// A counter the program itself reports.
    Exact,
    /// A direct, timed call into one public function.
    Timed,
    /// A per-call cost from a bounded sample, re-run after the measured phase.
    Replay,
    /// Derived arithmetically from other values.
    Computed,
}

impl Source {
    /// Label printed next to the value.
    pub fn label(self) -> &'static str {
        match self {
            Source::EndToEnd => "end-to-end",
            Source::Exact => "exact",
            Source::Timed => "timed",
            Source::Replay => "replay",
            Source::Computed => "computed",
        }
    }
}

/// One named value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Source label.
    pub source: Source,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, source: Source) -> Metric {
    Metric { name: name.into(), value, unit, source }
}

/// Failed checks described one by one; the rest are only counted.
const MAX_FAILURE_NOTES: u64 = 20;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (engine runs, requests, checks).
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// Human-readable check results and notes.
    pub notes: Vec<String>,
    /// The metrics `BENCHMARK.json` lists (`end_to_end` or `per_layer`).
    pub metrics: Vec<Metric>,
    /// The workload's end-to-end metrics under its own names, printed but
    /// not part of the result line (`setup_s` and `peak_rss_mb` are in
    /// `metrics` under the same names).
    pub named: Vec<Metric>,
}

impl Outcome {
    /// Records one attempted operation and whether it passed.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= MAX_FAILURE_NOTES {
                self.notes.push(format!("FAILED: {}", what.into()));
            }
        }
    }

    /// `error_rate`: failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// A value as JSON: finite numbers in full precision, others as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The human-readable metric line, also parsed by the repeat mode.
pub fn metric_line(m: &Metric) -> String {
    format!("metric {} {} {} {}", m.name, json_number(m.value), m.unit, m.source.label())
}

/// Parses a [`metric_line`] back into name, value and unit.
pub fn parse_metric_line(line: &str) -> Option<(String, f64, String)> {
    let mut f = line.strip_prefix("metric ")?.split_whitespace();
    let name = f.next()?.to_string();
    let value = f.next()?.parse().ok()?;
    let unit = f.next()?.to_string();
    Some((name, value, unit))
}

/// The closing JSON line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(out: &Outcome) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.attempted,
        out.failed
    );
    for (i, m) in out.metrics.iter().filter(|m| m.value.is_finite()).enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_shape() {
        let mut out = Outcome::default();
        out.check(true, "a");
        out.metrics.push(metric("setup_s", 0.5, "s", Source::EndToEnd));
        out.metrics.push(metric("gone", f64::NAN, "s", Source::Timed));
        let line = json_line(&out);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let parsed = kbiplex::json::Json::parse(&line).expect("valid JSON");
        assert!(parsed.get("metrics").is_some());
    }

    #[test]
    fn failures_and_metric_lines_round_trip() {
        let mut out = Outcome::default();
        out.check(true, "ok");
        out.check(false, "digest");
        assert!(!out.correct());
        assert_eq!(out.error_rate(), 0.5);
        assert_eq!(out.notes, vec!["FAILED: digest".to_string()]);
        let m = metric("p50_ms", 1.25, "ms", Source::EndToEnd);
        let (name, value, unit) = parse_metric_line(&metric_line(&m)).unwrap();
        assert_eq!((name.as_str(), value, unit.as_str()), ("p50_ms", 1.25, "ms"));
        assert!(!Outcome::default().correct());
    }
}

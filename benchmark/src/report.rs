//! What a run prints: the host fingerprint, every metric by name with
//! its unit, and as the last line of standard output the one JSON
//! object the driver reads. The workspace's JSON crates are in-repo
//! stand-ins this package does not depend on, so the flat name -> number
//! output has its own small writer and (for `--aa`) reader.

use crate::spec;
use crate::stats::Summary;

/// One reported number. `spread` is set for medians and midmeans of
/// timed repeats.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// From the contract's tables ([`spec::unit_of`]), so a name cannot
    /// be reported in two units.
    pub unit: &'static str,
    pub spread: Option<Summary>,
    /// Free-text qualifier printed beside the value ("p99 of 3000").
    pub note: String,
}

/// The outcome of one run of one workload.
#[derive(Debug, Default)]
pub struct RunResult {
    pub metrics: Vec<Metric>,
    /// Operations issued inside the measured window.
    pub attempted: u64,
    /// Operations that returned an error or a wrong output.
    pub failed: u64,
    /// One line per failed correctness check; empty means the gate held.
    pub gate_failures: Vec<String>,
}

impl RunResult {
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_noted(name, value, None, String::new());
    }

    pub fn put_noted(&mut self, name: &str, value: f64, spread: Option<Summary>, note: String) {
        if !value.is_finite() {
            self.gate(format!("metric {name} is not a finite number: {value}"));
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: spec::unit_of(name),
            spread,
            note,
        });
    }

    /// Records a failed correctness check.
    pub fn gate(&mut self, what: String) {
        eprintln!("[benchmark] GATE FAILED: {what}");
        self.gate_failures.push(what);
    }

    /// Checks `ok`, recording `what` as a gate failure otherwise.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate(what());
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.failed == 0
    }

    /// The human-readable table.
    pub fn print_table(&self) {
        for m in &self.metrics {
            let mut line = format!("{:<44} {:>16.6} {:<9}", m.name, m.value, m.unit);
            if let Some(s) = m.spread {
                line += &if m.value == s.median {
                    format!(" median of {}", s.samples)
                } else {
                    format!(" midmean of {} (median {:.6})", s.samples, s.median)
                };
                line += &format!(" MAD {:.6} min {:.6}", s.mad, s.min);
            }
            if !m.note.is_empty() {
                line += &format!(" [{}]", m.note);
            }
            println!("{}", line.trim_end());
        }
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter in the order of `names`.
    pub fn json_line(&self, names: &[String]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|name| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| &m.name == name)
                    .unwrap_or_else(|| panic!("metric {name} was never measured"));
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Reads back `name -> value` from a line [`RunResult::json_line`] wrote.
pub fn parse_json_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut out = Vec::new();
    for (at, _) in body.match_indices("\": {\"value\": ") {
        let name_start = body[..at].rfind('"')? + 1;
        let rest = &body[at + 13..];
        let value = rest[..rest.find(',')?].parse().ok()?;
        out.push((body[name_start..at].to_string(), value));
    }
    Some((correct, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_round_trips_and_keeps_every_digit() {
        let mut r = RunResult {
            attempted: 12,
            ..RunResult::default()
        };
        r.put("fr_solve_s", 0.812_345_678_901_234_5);
        r.put("arrivals_per_s", 8_812.25);
        r.put("setup_s", 1.5e-9);
        let names: Vec<String> = ["arrivals_per_s", "fr_solve_s", "setup_s"]
            .map(String::from)
            .to_vec();
        let line = r.json_line(&names);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, "));
        assert!(line.contains("\"fr_solve_s\": {\"value\": 0.8123456789012345, \"unit\": \"s\"}"));
        let (correct, values) = parse_json_line(&line).expect("own output parses");
        assert!(correct);
        assert_eq!(
            values,
            vec![
                ("arrivals_per_s".to_string(), 8_812.25),
                ("fr_solve_s".to_string(), 0.812_345_678_901_234_5),
                ("setup_s".to_string(), 1.5e-9),
            ]
        );
    }

    #[test]
    fn a_failed_gate_or_operation_is_not_correct() {
        let mut r = RunResult::default();
        r.put("x", 1.0);
        assert!(r.correct());
        r.check(false, || "digest differs".to_string());
        assert!(!r.correct());
        assert!(r
            .json_line(&["x".to_string()])
            .contains("\"correct\": false"));
        let mut r = RunResult::default();
        r.put("x", f64::NAN);
        assert!(!r.correct());
    }
}

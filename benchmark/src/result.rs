//! The result line a run prints last, and its reader (the suite reads
//! the lines of its child processes).

use crate::spec::unit_of;

/// A named list of metric values, in reporting order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// What one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    /// One JSON object on one line. Values print with every digit
    /// (`{}` on an `f64` is the shortest text that reads back exactly).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, value)| {
                let unit = unit_of(name).expect("metric is in neither table");
                assert!(value.is_finite(), "{name} is not finite");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Read back a line written by [`RunResult::to_json`].
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let mut p = Parser {
            s: line.as_bytes(),
            i: 0,
        };
        let mut out = RunResult {
            correct: false,
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
        };
        p.object(|p, key| {
            match key {
                "correct" => out.correct = p.literal()? == "true",
                "attempted" => out.attempted = p.number()? as u64,
                "failed" => out.failed = p.number()? as u64,
                "metrics" => p.object(|p, name| {
                    let name = name.to_string();
                    p.object(|p, field| {
                        match field {
                            "value" => out.metrics.0.push((name.clone(), p.number()?)),
                            _ => drop(p.string()?),
                        }
                        Ok(())
                    })
                })?,
                other => return Err(format!("unexpected key {other}")),
            }
            Ok(())
        })?;
        Ok(out)
    }
}

/// Just enough JSON for the objects this file writes: objects, strings
/// without escapes, numbers, `true`/`false`.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let start = self.i;
        while self.s.get(self.i).is_some_and(|&c| c != b'"') {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        self.expect(b'"')?;
        Ok(text)
    }

    /// A bare token: a number or `true`/`false`.
    fn literal(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_alphanumeric() || b"+-.".contains(c))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())
    }

    fn number(&mut self) -> Result<f64, String> {
        let tok = self.literal()?;
        tok.parse().map_err(|_| format!("bad number '{tok}'"))
    }

    /// Parse an object, handing each key to `member`, which must consume
    /// the value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            member(self, key)?;
            self.skip_ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_round_trips_with_every_digit() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 0.000123456789012345);
        metrics.set("zone_updates_per_s", 2_345_678.901_234_5);
        metrics.set("l1_density_error", 1.5e-3);
        let r = RunResult {
            correct: true,
            attempted: 61,
            failed: 0,
            metrics,
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 61, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.000123456789012345, \"unit\": \"s\"}"));
        assert!(line.contains("\"unit\": \"1/s\""));
        assert_eq!(RunResult::parse(&line).unwrap(), r);
    }

    #[test]
    fn set_overwrites_and_parse_rejects_garbage() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        m.set("setup_s", 2.0);
        assert_eq!(m.0.len(), 1);
        assert_eq!(m.get("setup_s"), Some(2.0));
        assert!(RunResult::parse("not json").is_err());
        assert!(RunResult::parse("{\"correct\": true, \"oops\": 1}").is_err());
    }
}

//! Sample statistics and the metric table every workload fills.

use std::time::Instant;

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank quantile `q ∈ (0, 1]`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "percentile of an empty sample");
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The highest nearest-rank percentile that still has at least ten samples
/// beyond it: the `(n − 10)`-th smallest of `n` samples.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// Which percentile `value` is, in percent.
    pub percentile: f64,
    pub samples: usize,
}

pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    assert!(
        n > 10,
        "a tail needs more than 10 samples beyond the median, got {n}"
    );
    Tail {
        value: s[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Run `setup` `n` times, one result alive at a time; return the last
/// result and the median set-up time, seconds.
pub fn timed_setup<T, E>(n: usize, mut setup: impl FnMut() -> Result<T, E>) -> Result<(T, f64), E> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Peak resident set of this process, MiB (`VmHWM` in `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Ordered `name → (value, unit)` table.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.0.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_string(), value, unit));
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "count");
    }

    /// Reorder to `expected`, filling metrics a workload does not reach with
    /// 0. A metric outside `expected`, or with another unit, is an error.
    pub fn conform(&mut self, expected: &[(&str, &'static str)]) -> Result<(), String> {
        for (name, _, unit) in &self.0 {
            match expected.iter().find(|(n, _)| n == name) {
                Some((_, u)) if u == unit => {}
                Some((_, u)) => return Err(format!("metric {name} in {unit}, expected {u}")),
                None => return Err(format!("metric {name} is not in the benchmark's list")),
            }
        }
        let mut out = Vec::with_capacity(expected.len());
        for &(name, unit) in expected {
            let value = self
                .0
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |m| m.1);
            out.push((name.to_string(), value, unit));
        }
        self.0 = out;
        Ok(())
    }

    /// One `name = value unit` line per metric, for people.
    pub fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<30} {value:>16.9} {unit}");
        }
    }

    /// The JSON `{"name": {"value": v, "unit": u}, ...}` object.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(median(&xs), 20.5);
        let t = tail(&xs);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.put("a", 0.1 + 0.2, "s");
        m.count("b", 3);
        assert_eq!(
            m.json(),
            "{\"a\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \
             \"b\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
    }
}

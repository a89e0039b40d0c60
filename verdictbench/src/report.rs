//! Summary statistics and the result printer.

use std::fmt::Write as _;

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile of a fixed ladder that still has at least ten
/// samples above it, with its nearest-rank value: `(percentile, value)`.
/// Returns the median's rank when there are too few samples for any tail.
pub fn tail(values: &[f64]) -> (f64, f64) {
    const LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for &q in &LADDER {
        let rank = ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
        if n >= rank + 10 || q == 50.0 {
            return (q, v.get(rank - 1).copied().unwrap_or(f64::NAN));
        }
    }
    unreachable!("the ladder ends at the median")
}

/// FNV-1a hash, for digests that must repeat bit for bit across passes,
/// set-ups and jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn feed_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn feed(&mut self, word: u64) {
        self.feed_bytes(&word.to_le_bytes());
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    /// One-line definition, printed with the value.
    pub definition: String,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Per-layer metrics the traced run could not produce, with the reason.
    pub absent: Vec<(String, String)>,
    /// Input census and other facts recorded with the result.
    pub census: Vec<(String, String)>,
    /// Correctness gates: `(gate, passed, detail)`.
    pub gates: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        better: Better,
        value: f64,
        definition: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            better,
            value,
            definition: definition.into(),
        });
    }

    pub fn count(
        &mut self,
        name: impl Into<String>,
        better: Better,
        value: u64,
        definition: impl Into<String>,
    ) {
        self.metric(name, "count", better, value as f64, definition);
    }

    pub fn fact(&mut self, key: impl Into<String>, value: impl ToString) {
        self.census.push((key.into(), value.to_string()));
    }

    pub fn gate(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.gates.push((name.into(), passed, detail.into()));
    }

    pub fn correct(&self) -> bool {
        self.gates.iter().all(|(_, ok, _)| *ok)
    }

    /// Human-readable lines, then the one-line JSON result last.
    pub fn print(&self) {
        for (key, value) in &self.census {
            println!("census  {key:<34} {value}");
        }
        for (gate, ok, detail) in &self.gates {
            let verdict = if *ok { "pass" } else { "FAIL" };
            println!("gate    {gate:<34} {verdict}  {detail}");
        }
        for m in &self.metrics {
            println!(
                "metric  {:<34} {:>16.6} {:<8} ({} is better)  {}",
                m.name,
                m.value,
                m.unit,
                m.better.name(),
                m.definition
            );
        }
        for (name, why) in &self.absent {
            println!("absent  {name:<34} {why}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=576).map(f64::from).collect();
        let (q, x) = tail(&v);
        assert_eq!(q, 98.0);
        assert!(v.iter().filter(|&&y| y > x).count() >= 10);
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&few).0, 50.0);
    }
}

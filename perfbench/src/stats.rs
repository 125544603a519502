//! Percentiles, memory, and the metric record the result is made of.

use std::fmt::Write as _;

/// One named figure with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The `p`-th percentile (0..=100) by linear interpolation between
/// closest ranks; 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("read status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(ms: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in ms.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Debug formatting of f64 keeps every digit and always reads
        // back as a number (`1.0`, not `1`); JSON has no NaN or inf.
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("write to string");
    }
    out.push('}');
    out
}

/// SplitMix64: the benchmark's own seeded generator for choosing and
/// ordering inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

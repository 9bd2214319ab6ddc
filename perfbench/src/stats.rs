//! Per-op latency samples, failure accounting and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Latencies and attempt/failure counts of one op class.
#[derive(Debug, Default, Clone)]
pub struct OpSamples {
    /// Latency of every completed op, in milliseconds.
    pub ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one workload run observed, per op class.
#[derive(Debug, Default)]
pub struct Ops {
    by_op: BTreeMap<&'static str, OpSamples>,
}

impl Ops {
    /// Records one attempt of `op`: its latency when it succeeded, `None`
    /// when it came back as an error frame, `busy`, or an I/O error.
    pub fn record(&mut self, op: &'static str, ms: Option<f64>) {
        let s = self.by_op.entry(op).or_default();
        s.attempted += 1;
        match ms {
            Some(ms) => s.ms.push(ms),
            None => s.failed += 1,
        }
    }

    /// Adds another run's attempts and failures (its latencies are not
    /// kept: they were measured under different conditions).
    pub fn merge(&mut self, other: Ops) {
        for (op, s) in other.by_op {
            let mine = self.by_op.entry(op).or_default();
            mine.attempted += s.attempted;
            mine.failed += s.failed;
        }
    }

    pub fn get(&self, op: &str) -> Option<&OpSamples> {
        self.by_op.get(op)
    }

    pub fn attempted(&self) -> u64 {
        self.by_op.values().map(|s| s.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.by_op.values().map(|s| s.failed).sum()
    }

    pub fn completed(&self) -> u64 {
        self.by_op.values().map(|s| s.ms.len() as u64).sum()
    }

    /// Mean of `op`'s latencies, or `None` without samples.
    pub fn mean(&self, op: &str) -> Option<f64> {
        self.get(op)
            .filter(|s| !s.ms.is_empty())
            .map(|s| mean(&s.ms))
    }

    /// Counts and latency statistics per op, for the run record.
    pub fn counts_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (op, s)) in self.by_op.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let q = |p| quantile(&s.ms, p).unwrap_or(0.0);
            let _ = write!(
                out,
                "{sep}\"{op}\":{{\"attempted\":{},\"failed\":{},\"samples\":{},\"mean_ms\":{:.4},\"p50_ms\":{:.4},\"p90_ms\":{:.4}}}",
                s.attempted,
                s.failed,
                s.ms.len(),
                mean(&s.ms),
                q(0.5),
                q(0.9)
            );
        }
        out.push('}');
        out
    }
}

/// Nearest-rank quantile of `values` (unsorted), `None` when empty.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// The median of `values`, `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Named metrics with units, printed as the run's result line.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            // A non-finite value cannot be carried by JSON; 0 marks it.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

//! Answer checks.  A wrong answer fails the run; it is never a metric.

use ajd_server::Json;
use std::collections::HashMap;

/// Collects check failures of one run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
    /// Reply text of every request line seen so far: an identical request
    /// must get an identical frame, because frames carry no timings.
    replies: HashMap<String, String>,
    /// `(requested ε bits, relation rows) → sample_rows` of sampled
    /// estimates.
    plans: HashMap<(u64, u64), f64>,
}

impl Checks {
    pub fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            eprintln!("check failed: {what}");
        }
        self.failures.push(what);
    }

    /// Takes over the failures of another run.
    pub fn merge(&mut self, other: Checks) {
        self.failures.extend(other.failures);
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn count(&self) -> usize {
        self.failures.len()
    }

    /// Checks that `line` got the same frame as last time it was sent.
    pub fn repeatable(&mut self, line: &str, reply: &Json) {
        let text = reply.to_string();
        match self.replies.get(line) {
            Some(seen) if *seen != text => self.fail(format!(
                "identical request got a different frame: {line} -> {text} (was {seen})"
            )),
            Some(_) => {}
            None => {
                self.replies.insert(line.to_owned(), text);
            }
        }
    }

    /// Checks the paper's identities on an `analyze` frame: Thm 3.2
    /// (`J = D_KL`) and Lemma 4.1 (`J ≤ log(1+ρ)`).
    pub fn analyze_identities(&mut self, reply: &Json) {
        let report = reply.get("report");
        let field = |k: &str| report.and_then(|r| r.get(k)).and_then(Json::as_f64);
        let (Some(j), Some(kl), Some(log1p_rho)) =
            (field("j_nats"), field("kl_nats"), field("log1p_rho"))
        else {
            return self.fail(format!("analyze frame lacks j/kl/log1p_rho: {reply}"));
        };
        let tol = 1e-9 * (1.0 + j.abs());
        if (j - kl).abs() > tol {
            self.fail(format!("Thm 3.2 violated: j_nats {j} vs kl_nats {kl}"));
        }
        if log1p_rho < j - tol {
            self.fail(format!(
                "Lemma 4.1 violated: log1p_rho {log1p_rho} < j_nats {j}"
            ));
        }
    }

    /// Checks that a sampled `estimate` echoes its seed and ε, ran on a
    /// proper sample, and planned the same sample size as every other
    /// estimate with the same ε over a relation of the same size.
    pub fn estimate_echo(&mut self, reply: &Json, epsilon: f64, seed: u64) {
        let num = |k: &str| reply.get(k).and_then(Json::as_f64);
        let (Some(echo_seed), Some(echo_eps), Some(sample), Some(rows)) =
            (num("seed"), num("epsilon"), num("sample_rows"), num("rows"))
        else {
            return self.fail(format!(
                "estimate frame lacks seed/epsilon/sample_rows: {reply}"
            ));
        };
        if echo_seed != seed as f64 {
            self.fail(format!("estimate echoed seed {echo_seed}, sent {seed}"));
        }
        // J's reported ε is the honest union bound over its entropy terms,
        // so it is at least the per-entropy target that was sent.
        if echo_eps.is_nan() || echo_eps < epsilon {
            self.fail(format!(
                "estimate echoed epsilon {echo_eps} below the target {epsilon}"
            ));
        }
        if !(sample > 0.0 && sample < rows) || reply.get("exact") != Some(&Json::Bool(false)) {
            self.fail(format!("estimate did not sample: {reply}"));
        }
        if let Some(prev) = self.plans.insert((epsilon.to_bits(), rows as u64), sample) {
            if prev != sample {
                self.fail(format!("estimate planned {sample} rows, earlier {prev}"));
            }
        }
    }

    /// Checks that `field` of `reply` renders exactly like `expected` on
    /// the wire (bit-identity, as far as JSON carries it).
    pub fn field_equals(&mut self, reply: &Json, path: &[&str], expected: &Json) {
        let got = path.iter().try_fold(reply, |j, k| j.get(k));
        if got.map(Json::to_string) != Some(expected.to_string()) {
            self.fail(format!(
                "{} = {} but the reference says {expected}",
                path.join("."),
                got.map_or("<missing>".to_owned(), Json::to_string)
            ));
        }
    }
}

/// `true` when `reply` is a success frame.
pub fn is_ok(reply: &Json) -> bool {
    reply.get("ok") == Some(&Json::Bool(true))
}

//! `bench_e2e --compare A.json B.json`: apply the bounds fixed in
//! `BENCHMARK.json` to two result files, row by row.
//!
//! A result file is what one or more timed runs printed (each run's
//! record line; other lines are skipped), so redirecting standard output
//! of a few seeds into a file makes one. Every workload × end-to-end
//! metric is one row: the medians over each file's runs, their ratio
//! with its base, each side's spread (distance between the quartiles as
//! a share of the median) and a verdict —
//!
//! * `unresolved`: a side's spread is wider than the bound, so the
//!   medians cannot be told apart at that resolution;
//! * `worse`: B's median is worse than A's by more than the bound;
//! * `ok` otherwise.
//!
//! A higher share of failed requests is `worse` whatever the metrics say.

use crate::json::Json;
use crate::stats::{median, spread};
use std::collections::BTreeMap;

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// One file's runs.
#[derive(Default)]
struct Runs {
    /// `(workload, metric) -> one value per run`.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// `workload -> (failed, attempted)` summed over runs.
    failures: BTreeMap<String, (f64, f64)>,
}

impl Runs {
    fn values_of(&self, workload: &str, metric: &str) -> &[f64] {
        self.values
            .get(&(workload.to_string(), metric.to_string()))
            .map_or(&[], Vec::as_slice)
    }

    fn failed_frac(&self, workload: &str) -> Option<f64> {
        self.failures
            .get(workload)
            .map(|(failed, attempted)| failed / attempted.max(1.0))
    }
}

fn load_bounds(path: &str) -> Result<(Vec<String>, Vec<Bound>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let names = |key: &str| -> Result<Vec<&Json>, String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .map(|a| a.iter().collect())
            .ok_or(format!("{path}: no `{key}` array"))
    };
    let workloads = names("workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let mut bounds = Vec::new();
    for m in names("end_to_end")? {
        let field = |k: &str| {
            m.get(k)
                .and_then(Json::as_str)
                .ok_or(format!("{path}: metric without `{k}`"))
        };
        bounds.push(Bound {
            name: field("name")?.to_string(),
            unit: field("unit")?.to_string(),
            lower_is_better: field("better")? == "lower",
            bound: m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or(format!("{path}: metric without `bound`"))?,
        });
    }
    Ok((workloads, bounds))
}

fn load_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::default();
    for line in text.lines() {
        let Ok(doc) = Json::parse(line) else { continue };
        let (Some(workload), Some("timed")) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("mode").and_then(Json::as_str),
        ) else {
            continue;
        };
        for (name, m) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let Some(v) = m.get("value").and_then(Json::as_f64) else {
                continue;
            };
            runs.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
        let count = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let sums = runs.failures.entry(workload.to_string()).or_default();
        sums.0 += count("failed");
        sums.1 += count("attempted");
    }
    if runs.values.is_empty() {
        return Err(format!("{path}: no timed result records"));
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// The rule of one row.
fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (base, new) = (median(a), median(b));
    let worse = if lower_is_better {
        new > base * (1.0 + bound)
    } else {
        new < base * (1.0 - bound)
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Compare two result files; the process exit code.
pub fn run(a_path: &str, b_path: &str) -> i32 {
    let loaded = load_bounds("BENCHMARK.json")
        .and_then(|bounds| Ok((bounds, load_runs(a_path)?, load_runs(b_path)?)));
    let ((workloads, bounds), a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("bench_e2e --compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<12} {:<12} {:>13} {:>13} {:>8} {:>6} {:>9} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "B median",
        "B/A",
        "unit",
        "A spread",
        "B spread",
        "bound"
    );
    let mut bad = 0;
    for w in &workloads {
        for m in &bounds {
            let (va, vb) = (a.values_of(w, &m.name), b.values_of(w, &m.name));
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{w:<12} {:<12} missing from {}",
                    m.name,
                    if va.is_empty() { a_path } else { b_path }
                );
                continue;
            }
            let verdict = judge(va, vb, m.lower_is_better, m.bound);
            bad += (verdict == Verdict::Worse) as i32;
            println!(
                "{w:<12} {:<12} {:>13.5} {:>13.5} {:>8.4} {:>6} {:>8.2}% {:>8.2}% {:>5.0}%  {}",
                m.name,
                median(va),
                median(vb),
                median(vb) / median(va),
                m.unit,
                100.0 * spread(va),
                100.0 * spread(vb),
                100.0 * m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        if let (Some(fa), Some(fb)) = (a.failed_frac(w), b.failed_frac(w)) {
            let worse = fb > fa;
            bad += worse as i32;
            println!(
                "{w:<12} {:<12} {fa:>13.6} {fb:>13.6} {:>8} {:>6} {:>9} {:>9} {:>6}  {}",
                "failed_frac",
                "-",
                "ratio",
                "-",
                "-",
                "0%",
                if worse { "worse" } else { "ok" }
            );
        }
    }
    if bad > 0 {
        println!("{bad} row(s) worse");
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_ok_worse_or_unresolved() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Lower is better: 4 % up is inside a 5 % bound, 8 % is not.
        assert_eq!(judge(&steady, &[10.4, 10.4, 10.4], true, 0.05), Verdict::Ok);
        assert_eq!(
            judge(&steady, &[10.8, 10.8, 10.8], true, 0.05),
            Verdict::Worse
        );
        // An improvement is never worse.
        assert_eq!(judge(&steady, &[5.0, 5.0, 5.0], true, 0.05), Verdict::Ok);
        // Higher is better: the rule mirrors.
        assert_eq!(
            judge(&steady, &[9.2, 9.2, 9.2], false, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &[12.0, 12.0, 12.0], false, 0.05),
            Verdict::Ok
        );
        // A side whose own runs disagree by more than the bound cannot
        // resolve a difference of the bound's size.
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(
            judge(&noisy, &[10.8, 10.8, 10.8], true, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(judge(&steady, &noisy, true, 0.05), Verdict::Unresolved);
    }
}

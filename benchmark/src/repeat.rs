//! `repeat --sets N`: N full sets of runs, each run in a process of its
//! own and each set on its own seed, then per workload and metric the
//! minimum, median and maximum, the range and the quartile spread as a
//! share of the median — the evidence behind the bounds in `metrics.rs`.

use std::process::Command;

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::workloads::{RunOpts, Workload};

pub struct RunResult {
    pub correct: bool,
    /// `(name, value)` in the order printed.
    pub metrics: Vec<(String, f64)>,
}

/// Runs `workload` in a child process (the driver's form of the command
/// line) and reads its result line back.
pub fn child(workload: Workload, opts: &RunOpts, echo: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    if echo {
        lines.iter().for_each(|l| println!("{l}"));
    }
    if !out.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            workload.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let doc = Json::parse(last).map_err(|e| format!("{}: result line: {e}", workload.name()))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::fields)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.number()?)))
        .collect();
    Ok(RunResult { correct: doc.get("correct").and_then(Json::boolean) == Some(true), metrics })
}

/// The quartiles Python's `statistics.quantiles(v, n=4)` gives.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

pub fn run(sets: usize, opts: &RunOpts) -> Result<bool, String> {
    if sets < 2 {
        return Err("--sets must be at least 2".into());
    }
    let mut ok = true;
    // values[workload][metric] = one value per set
    let mut values: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()];
    for set in 0..sets {
        for (w, workload) in Workload::ALL.iter().enumerate() {
            let res = child(*workload, &RunOpts { seed: opts.seed + set as u64, ..*opts }, false)?;
            ok &= res.correct;
            println!(
                "set {} {} {}",
                set + 1,
                workload.name(),
                if res.correct { "correct" } else { "INCORRECT" }
            );
            for (i, m) in END_TO_END.iter().enumerate() {
                let v = res.metrics.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v);
                values[w][i].push(
                    v.ok_or_else(|| format!("{} did not report {}", workload.name(), m.name))?,
                );
            }
        }
    }
    println!("\n{sets} sets, seeds {}..{}, {} s runs. spread = (q3-q1)/median, range = (max-min)/median.", opts.seed, opts.seed + sets as u64 - 1, opts.seconds);
    for (w, workload) in Workload::ALL.iter().enumerate() {
        println!("\n{}", workload.name());
        println!(
            "  {:<16} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}",
            "metric", "min", "median", "max", "spread", "range", "bound"
        );
        for (i, m) in END_TO_END.iter().enumerate() {
            let mut v = values[w][i].clone();
            v.sort_by(f64::total_cmp);
            let [q1, med, q3] = quartiles(&v);
            let (min, max) = (v[0], v[v.len() - 1]);
            let range = (max - min) / med;
            let disagree = range > m.bound;
            ok &= !disagree;
            println!(
                "  {:<16} {:>14.4} {:>14.4} {:>14.4} {:>7.1}% {:>7.1}% {:>5.0}%{}",
                m.name,
                min,
                med,
                max,
                (q3 - q1) / med * 100.0,
                range * 100.0,
                m.bound * 100.0,
                if disagree { "  <- two sets disagree by more than the bound" } else { "" }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), [3.5, 13.5, 31.0]);
        // statistics.quantiles([10, 20], n=4)
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }
}

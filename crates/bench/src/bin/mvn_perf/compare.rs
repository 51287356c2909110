//! `mvn_perf compare <a.json> <b.json>`: one row per (end-to-end metric,
//! workload) the workload reports, judged against [`pair_bound`], plus each
//! workload's `fail_ratio`, which may not rise at all.

use crate::catalog::{pair_bound, Better, END_TO_END, WORKLOADS};
use crate::report::{Record, Set};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The run-to-run spread is wider than the bound: no claim either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// `b` against `a` as a share of `a` (`fail_ratio`: the plain
    /// difference), signed so that positive is worse.
    pub worse_by: f64,
    /// The wider of the two sets' run-to-run spreads; `None` when a set has
    /// a single run of the workload and so says nothing about it.
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// The median of `metric` over a set's untraced runs of `workload`, and
/// their run-to-run spread (first to third quartile over the median, the
/// driver's measure) when there are several.
fn median_and_spread(records: &[&Record], metric: &str) -> Option<(f64, Option<f64>)> {
    let values: Vec<f64> = records
        .iter()
        .filter_map(|r| r.metric(metric))
        .map(|s| s.value)
        .collect();
    let median = (!values.is_empty()).then(|| stats::median(&values))?;
    Some((median, stats::quartile_spread(&values)))
}

/// Failed checks over attempted ones, summed over `records`.
fn fail_ratio(records: &[&Record]) -> f64 {
    let (failed, attempted) = records
        .iter()
        .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
    failed as f64 / attempted.max(1) as f64
}

/// Judge set `b` against set `a`. Smoke runs are refused: their sizes say
/// nothing about the measured workloads.
pub fn compare(a: &Set, b: &Set) -> Result<Vec<Row>, String> {
    fn untraced<'a>(set: &'a Set, workload: &str) -> Result<Vec<&'a Record>, String> {
        let runs: Vec<&Record> = set
            .records
            .iter()
            .filter(|r| r.workload == workload && !r.trace)
            .collect();
        if runs.iter().any(|r| r.smoke) {
            return Err(format!("{workload}: smoke runs cannot be compared"));
        }
        Ok(runs)
    }
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        let (ra, rb) = (untraced(a, workload)?, untraced(b, workload)?);
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        for decl in END_TO_END {
            let (Some(bound), Some((va, sa)), Some((vb, sb))) = (
                pair_bound(decl.name, workload),
                median_and_spread(&ra, decl.name),
                median_and_spread(&rb, decl.name),
            ) else {
                continue;
            };
            let change = (vb - va) / va.abs();
            let worse_by = match decl.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let spread = sa.zip(sb).map(|(sa, sb)| sa.max(sb));
            let verdict = if spread.is_some_and(|s| s > bound) {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else if worse_by < -bound {
                Verdict::Better
            } else {
                Verdict::Same
            };
            rows.push(Row {
                workload,
                metric: decl.name,
                a: va,
                b: vb,
                worse_by,
                spread,
                bound,
                verdict,
            });
        }
        // A change that gets faster by answering wrongly must not pass: any
        // rise of the failure ratio is a regression, whatever the clocks say.
        let (fa, fb) = (fail_ratio(&ra), fail_ratio(&rb));
        rows.push(Row {
            workload,
            metric: "fail_ratio",
            a: fa,
            b: fb,
            worse_by: fb - fa,
            spread: None,
            bound: 0.0,
            verdict: match fb.total_cmp(&fa) {
                std::cmp::Ordering::Greater => Verdict::Worse,
                std::cmp::Ordering::Less => Verdict::Better,
                std::cmp::Ordering::Equal => Verdict::Same,
            },
        });
    }
    if rows.is_empty() {
        return Err("the two sets share no untraced workload run".to_string());
    }
    Ok(rows)
}

pub fn table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<12} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "a", "b", "worse by", "spread", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<12} {:>14.6} {:>14.6} {:>+8.1}% {:>8} {:>6.0}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse_by,
            r.spread
                .map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s)),
            100.0 * r.bound,
            r.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::record;

    fn set(solve_s: &[f64], req_per_s: f64) -> Set {
        let runs = |workload: &'static str| {
            solve_s.iter().zip(1..).map(move |(&s, seed)| {
                record(workload, seed, &[("solve_s", s), ("req_per_s", req_per_s)])
            })
        };
        Set {
            git_rev: "test".into(),
            records: runs("pmvn_dense").chain(runs("serve_hot")).collect(),
        }
    }

    fn verdict_of(rows: &[Row], metric: &str, workload: &str) -> Option<Verdict> {
        rows.iter()
            .find(|r| r.metric == metric && r.workload == workload)
            .map(|r| r.verdict)
    }

    #[test]
    fn flags_a_regression_past_the_bound_and_passes_one_inside_it() {
        let bound = pair_bound("solve_s", "pmvn_dense").unwrap();
        let base = [2.00, 2.01, 1.99, 2.00, 2.02];
        let scaled = |f: f64| base.map(|s| s * f).to_vec();
        let solve = |rows: &[Row]| verdict_of(rows, "solve_s", "pmvn_dense");

        let past = compare(&set(&base, 1.0), &set(&scaled(1.0 + bound + 0.01), 1.0)).unwrap();
        assert_eq!(solve(&past), Some(Verdict::Worse));
        assert_eq!(
            verdict_of(&past, "req_per_s", "serve_hot"),
            Some(Verdict::Same)
        );
        let inside = compare(&set(&base, 1.0), &set(&scaled(1.0 + bound - 0.01), 1.0)).unwrap();
        assert_eq!(solve(&inside), Some(Verdict::Same));
        let faster = compare(&set(&base, 1.0), &set(&scaled(0.5), 1.0)).unwrap();
        assert_eq!(solve(&faster), Some(Verdict::Better));
        // `req_per_s` is better when higher: a drop is the regression.
        let slower = compare(&set(&base, 1.0), &set(&base, 0.7)).unwrap();
        assert_eq!(
            verdict_of(&slower, "req_per_s", "serve_hot"),
            Some(Verdict::Worse)
        );
        // A metric the workload only fills in for the contract line gets no row.
        assert_eq!(verdict_of(&slower, "req_per_s", "pmvn_dense"), None);
        assert_eq!(verdict_of(&past, "solve_s", "serve_hot"), None);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_and_smoke_is_refused() {
        let noisy = [1.0, 1.6, 2.2, 2.8, 3.4];
        let rows = compare(&set(&noisy, 1.0), &set(&noisy, 1.0)).unwrap();
        assert_eq!(
            verdict_of(&rows, "solve_s", "pmvn_dense"),
            Some(Verdict::Unresolved)
        );

        // One run per set carries no run-to-run spread: medians only.
        let single = compare(&set(&[2.0], 1.0), &set(&[2.1], 1.0)).unwrap();
        assert_eq!(
            verdict_of(&single, "solve_s", "pmvn_dense"),
            Some(Verdict::Same)
        );
        assert!(single.iter().all(|r| r.spread.is_none()));

        let mut smoke = set(&[2.0], 1.0);
        smoke.records[0].smoke = true;
        assert!(compare(&smoke, &set(&[2.0], 1.0)).is_err());
    }

    #[test]
    fn a_failed_check_is_a_regression_however_fast_the_run() {
        let base = set(&[2.0, 2.0, 2.0], 1.0);
        let mut wrong = set(&[1.0, 1.0, 1.0], 1.0);
        wrong.records[0].failed = 1;
        wrong.records[0].correct = false;
        let rows = compare(&base, &wrong).unwrap();
        let fails = |rows: &[Row]| verdict_of(rows, "fail_ratio", "pmvn_dense");
        assert_eq!(
            verdict_of(&rows, "solve_s", "pmvn_dense"),
            Some(Verdict::Better)
        );
        assert_eq!(fails(&rows), Some(Verdict::Worse));
        assert_eq!(
            verdict_of(&rows, "fail_ratio", "serve_hot"),
            Some(Verdict::Same)
        );
        // Fixing a failure is the only way `fail_ratio` gets better.
        assert_eq!(
            fails(&compare(&wrong, &base).unwrap()),
            Some(Verdict::Better)
        );
    }
}

//! What a run prints and what a set file holds.
//!
//! A run prints a table for people, then one *detail* line (every metric the
//! workload reports, with median/min/max/count, plus the run's identity) and,
//! last, the *contract* line the driver reads: exactly `correct`,
//! `attempted`, `failed` and `metrics` (`value` and `unit` each) — every
//! metric of the trace mode, whether the workload reports it or not. A set
//! file — the input of `compare`, and the format of the committed baseline —
//! is a list of detail records.

use crate::catalog;
use crate::run::Run;
use crate::stats::Summary;
use mvn_service::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub cores: usize,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, String, Summary)>,
}

impl Record {
    /// The record of a finished run: everything it measured, in catalog
    /// order.
    pub fn of(run: &Run) -> Self {
        let metrics = catalog::END_TO_END
            .iter()
            .chain(catalog::PER_LAYER)
            .filter_map(|d| {
                let summary = *run.metrics.get(d.name)?;
                Some((d.name.to_string(), d.unit.to_string(), summary))
            })
            .collect();
        Self {
            workload: run.opts.workload.clone(),
            trace: run.opts.trace,
            seed: run.opts.seed,
            seconds: run.opts.seconds,
            smoke: run.opts.smoke,
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            correct: run.failed == 0,
            attempted: run.attempted,
            failed: run.failed,
            metrics,
        }
    }

    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, s)| s)
    }

    /// The metrics this workload reports: all it measured except the
    /// end-to-end ones it only fills in for the contract line.
    fn reported(&self) -> impl Iterator<Item = &(String, String, Summary)> {
        self.metrics.iter().filter(|(name, _, _)| {
            catalog::END_TO_END.iter().all(|d| d.name != name)
                || catalog::pair_bound(name, &self.workload).is_some()
        })
    }

    /// The table for people: one row per metric, by name, with its unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "# mvn_perf {}{} trace={} seed={} cores={} attempted={} failed={}\n",
            self.workload,
            if self.smoke { " [SMOKE]" } else { "" },
            u8::from(self.trace),
            self.seed,
            self.cores,
            self.attempted,
            self.failed
        );
        for (name, unit, s) in self.reported() {
            let better = catalog::decl(name).map_or("", |d| d.better.as_str());
            out.push_str(&format!(
                "{name:<34} {:>14.6} {unit:<8} min {:<12.6} max {:<12.6} n {:<5} ({better} is better)\n",
                s.value, s.min, s.max, s.count
            ));
        }
        out
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`,
    /// the last holding every metric of the trace mode. An end-to-end metric
    /// must have been measured; a layer the workload does not exercise reads 0.
    pub fn contract_line(&self) -> String {
        let owed = if self.trace {
            catalog::PER_LAYER
        } else {
            catalog::END_TO_END
        };
        let members: Vec<String> = owed
            .iter()
            .map(|d| {
                let value = self.metric(d.name).map_or_else(
                    || {
                        assert!(self.trace, "end-to-end metric {} not measured", d.name);
                        0.0
                    },
                    |s| s.value,
                );
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    d.name,
                    number(value),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            members.join(",")
        )
    }

    pub fn detail_line(&self) -> String {
        let mut out = format!(
            "{{\"workload\":\"{}\",\"trace\":{},\"seed\":{},\"seconds\":{},\"smoke\":{},\
             \"cores\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.workload,
            u8::from(self.trace),
            self.seed,
            number(self.seconds),
            self.smoke,
            self.cores,
            self.correct,
            self.attempted,
            self.failed
        );
        let members: Vec<String> = self
            .reported()
            .map(|(name, unit, s)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\",\"min\":{},\"max\":{},\
                     \"count\":{}}}",
                    number(s.value),
                    number(s.min),
                    number(s.max),
                    s.count
                )
            })
            .collect();
        out.push_str(&members.join(","));
        out.push_str("}}");
        out
    }

    pub fn parse(json: &Json) -> Result<Self, String> {
        let num = |k: &str| {
            json.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("record lacks {k:?}"))
        };
        let flag = |k: &str| {
            json.get(k)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("record lacks {k:?}"))
        };
        let Some(Json::Obj(fields)) = json.get("metrics") else {
            return Err("record lacks \"metrics\"".to_string());
        };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                let f = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("metric {name} lacks {k:?}"))
                };
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let summary = Summary {
                    value: f("value")?,
                    min: f("min")?,
                    max: f("max")?,
                    count: f("count")? as usize,
                };
                Ok((name.clone(), unit.to_string(), summary))
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            workload: json
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("record lacks \"workload\"")?
                .to_string(),
            trace: num("trace")? != 0.0,
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            smoke: flag("smoke")?,
            cores: num("cores")? as usize,
            correct: flag("correct")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }
}

/// A JSON number with all its digits; a failed request's infinite latency
/// (JSON has no infinity) prints as the largest finite value.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        format!("{:?}", f64::MAX.copysign(x))
    }
}

/// A set of runs: what `run --out` writes and `compare` reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Set {
    pub git_rev: String,
    pub records: Vec<Record>,
}

impl Set {
    pub fn render(&self) -> String {
        let mut out = format!(
            "{{\"mvn_perf\":1,\"git_rev\":\"{}\",\"runs\":[\n",
            self.git_rev
        );
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(&r.detail_line());
            out.push_str(if i + 1 < self.records.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }

    pub fn parse(doc: &str) -> Result<Self, String> {
        let json = Json::parse(doc)?;
        let runs = json
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("set file lacks \"runs\"")?;
        Ok(Self {
            git_rev: json
                .get("git_rev")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            records: runs.iter().map(Record::parse).collect::<Result<_, _>>()?,
        })
    }
}

/// An untraced record with the given single-valued metrics, for tests.
#[cfg(test)]
pub fn record(workload: &str, seed: u64, metrics: &[(&str, f64)]) -> Record {
    Record {
        workload: workload.to_string(),
        trace: false,
        seed,
        seconds: 12.0,
        smoke: false,
        cores: 2,
        correct: true,
        attempted: 5,
        failed: 0,
        metrics: metrics
            .iter()
            .map(|&(n, v)| (n.to_string(), "s".to_string(), Summary::single(v)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_files_round_trip() {
        let set = Set {
            git_rev: "abc1234".into(),
            records: vec![
                record("pmvn_dense", 1, &[("solve_s", 2.5), ("setup_s", 1e-7)]),
                record("serve_hot", 2, &[("p99_ms", f64::INFINITY)]),
            ],
        };
        let parsed = Set::parse(&set.render()).unwrap();
        assert_eq!(parsed.records[0], set.records[0]);
        assert_eq!(parsed.records[1].metric("p99_ms").unwrap().value, f64::MAX);
    }

    #[test]
    fn contract_line_has_exactly_the_drivers_keys_and_every_metric() {
        let all: Vec<(&str, f64)> = catalog::END_TO_END.iter().map(|d| (d.name, 2.5)).collect();
        let batch = record("pmvn_dense", 1, &all);
        let json = Json::parse(&batch.contract_line()).unwrap();
        let keys = |json: &Json| match json {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys(&json), ["correct", "attempted", "failed", "metrics"]);
        let metrics = json.get("metrics").unwrap();
        let names: Vec<&str> = catalog::END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(keys(metrics), names);
        assert_eq!(keys(metrics.get("solve_s").unwrap()), ["value", "unit"]);
        // The detail line and the table keep only what the workload reports.
        let detail = Json::parse(&batch.detail_line()).unwrap();
        assert_eq!(
            keys(detail.get("metrics").unwrap()),
            ["setup_s", "solve_s", "peak_rss_mb"]
        );
        assert!(!batch.table().contains("p99_ms"));
        // A traced run owes every per-layer metric: 0 where it measured none.
        let mut traced = record("pmvn_dense", 1, &[("tile-la.factor_s", 2.0)]);
        traced.trace = true;
        let json = Json::parse(&traced.contract_line()).unwrap();
        let metrics = json.get("metrics").unwrap();
        assert_eq!(keys(metrics).len(), catalog::PER_LAYER.len());
        let value = |name: &str| metrics.get(name).and_then(|m| m.get("value")).cloned();
        assert_eq!(
            value("tile-la.factor_s").and_then(|v| v.as_f64()),
            Some(2.0)
        );
        assert_eq!(value("tlr.factor_s").and_then(|v| v.as_f64()), Some(0.0));
    }
}

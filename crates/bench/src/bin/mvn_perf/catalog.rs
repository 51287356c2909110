//! Every workload and metric name the binary can emit, with unit and
//! direction, and the bound `compare` holds each (metric, workload) pair to.
//! `BENCHMARK.json` at the repository root declares the same names (a test
//! holds the two together) with the one bound per metric the driver gates on.

/// Seed used when `--seed` is not given (and for the committed baseline).
pub const DEFAULT_SEED: u64 = 20240518;

/// The `run_seconds` of `BENCHMARK.json`: at this `--seconds` every workload
/// runs its stated repetition count; other values scale the count (never the
/// problem), so the work of a run is a function of its arguments alone.
pub const RUN_SECONDS: f64 = 12.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const WORKLOADS: [&str; 6] = [
    "pmvn_dense",
    "pmvn_tlr",
    "crd_wind",
    "serve_hot",
    "serve_churn",
    "dist_dense",
];

/// Printed by every workload with `--trace 0` (the driver's contract wants
/// every metric from every run); [`pair_bound`] says which workloads a metric
/// is *reported* by.
pub const END_TO_END: &[Decl] = &[
    lower("setup_s", "s"),
    lower("solve_s", "s"),
    higher("req_per_s", "1/s"),
    lower("p50_ms", "ms"),
    lower("p99_ms", "ms"),
    lower("peak_rss_mb", "MB"),
];

/// Printed by every workload with `--trace 1`; the contract line reads 0 for
/// a layer the workload does not exercise.
pub const PER_LAYER: &[Decl] = &[
    higher("machine.cores", "count"),
    higher("machine.peak_gflops_1t", "gflop/s"),
    lower("mathx.norm_cdf_ns", "ns"),
    lower("mathx.norm_quantile_ns", "ns"),
    lower("mathx.bessel_k_ns", "ns"),
    lower("qmc.fill_ns", "ns"),
    higher("tile-la.gemm_nt_gflops", "gflop/s"),
    higher("tile-la.gemm_nn_gflops", "gflop/s"),
    higher("tile-la.syrk_gflops", "gflop/s"),
    higher("tile-la.trsm_gflops", "gflop/s"),
    higher("tile-la.potrf_gflops", "gflop/s"),
    higher("tile-la.gemm_peak_frac", "ratio"),
    lower("tile-la.factor_s", "s"),
    higher("tile-la.factor_gflops", "gflop/s"),
    lower("tile-la.gemm_busy_s", "s"),
    lower("tile-la.trsm_busy_s", "s"),
    lower("tile-la.syrk_busy_s", "s"),
    lower("tile-la.potrf_busy_s", "s"),
    lower("tile-la.tasks", "count"),
    lower("tlr.compress_ms", "ms"),
    lower("tlr.assemble_compress_s", "s"),
    lower("tlr.factor_s", "s"),
    lower("tlr.sweep_s", "s"),
    lower("tlr.lr_gemm_busy_s", "s"),
    lower("tlr.stored_ratio", "ratio"),
    lower("tlr.abs_diff_vs_dense", "prob"),
    lower("tlr.time_vs_dense", "ratio"),
    lower("task-runtime.task_overhead_us", "us"),
    higher("task-runtime.busy_frac", "ratio"),
    higher("task-runtime.speedup_2t", "ratio"),
    lower("mvn-core.sweep_s", "s"),
    lower("mvn-core.sweep_ns_per_row_chain", "ns"),
    lower("mvn-core.rel_std_error", "ratio"),
    lower("mvn-core.small_solve_us", "us"),
    higher("mvn-core.batch_gain", "ratio"),
    lower("geostat.assemble_exp_s", "s"),
    lower("geostat.assemble_matern_s", "s"),
    lower("excursion.corr_factor_s", "s"),
    lower("excursion.detect_s", "s"),
    lower("excursion.prefix_solves", "count"),
    higher("excursion.region_size", "count"),
    higher("excursion.mc_p_hat", "prob"),
    lower("wire.req_bytes", "bytes"),
    lower("wire.parse_us", "us"),
    lower("wire.render_us", "us"),
    higher("mvn-service.inproc_req_per_s", "1/s"),
    higher("mvn-service.engine_share", "ratio"),
    higher("mvn-service.mean_batch", "count"),
    higher("mvn-service.mixed_batches", "count"),
    higher("mvn-service.cache_hit_ratio", "ratio"),
    lower("mvn-service.factor_builds", "count"),
    lower("mvn-service.evictions", "count"),
    lower("mvn-service.rejected", "count"),
    lower("mvn-service.miss_ms", "ms"),
    lower("mvn-dist.engine_s", "s"),
    lower("mvn-dist.wall_p1_s", "s"),
    lower("mvn-dist.launch_s", "s"),
    higher("mvn-dist.speedup_vs_engine", "ratio"),
    lower("mvn-dist.compute_s", "s"),
    lower("mvn-dist.fetch_wait_s", "s"),
    lower("mvn-dist.serve_s", "s"),
    lower("mvn-dist.comm_mb", "MB"),
    lower("mvn-dist.fetches", "count"),
    lower("mvn-dist.recoveries", "count"),
    lower("obs.trace_overhead_pct", "%"),
    lower("obs.events", "count"),
    higher("bench.attributed_frac", "ratio"),
];

/// The declaration of `name`, end-to-end or per-layer.
pub fn decl(name: &str) -> Option<&'static Decl> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The regression bound `compare` holds `workload`'s `metric` to, as a share
/// of the reference value; `None` when the workload does not report the
/// metric (a batch workload has no request latencies, a serve workload no
/// repetition wall: the contract line fills those in from the same clock, and
/// judging them would report one regression three times).
///
/// Each bound is max(ISSUE 11's bound, 2 × the first-to-third-quartile
/// spread over ten same-code runs on the 2-core reference box) capped at
/// 25 %, see the README's bounds table; none may exceed the metric's
/// `BENCHMARK.json` bound, which is the loosest of its row because the driver
/// knows one bound per metric.
pub fn pair_bound(metric: &str, workload: &str) -> Option<f64> {
    let serve = workload.starts_with("serve_");
    Some(match (metric, workload) {
        ("setup_s", _) => 0.25,
        ("solve_s", "pmvn_dense") => 0.19,
        ("solve_s", "pmvn_tlr") => 0.18,
        ("solve_s", "crd_wind") => 0.19,
        ("solve_s", "dist_dense") => 0.19,
        ("req_per_s", "serve_hot") => 0.16,
        ("req_per_s", "serve_churn") => 0.21,
        ("p50_ms", "serve_hot") => 0.13,
        ("p50_ms" | "p99_ms", _) if serve => 0.25,
        ("peak_rss_mb", "crd_wind") => 0.15,
        ("peak_rss_mb", "dist_dense") => 0.18,
        ("peak_rss_mb", _) => 0.10,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvn_service::Json;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn declared(json: &Json, key: &str) -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key:?}"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn emitted(decls: &[Decl]) -> Vec<(String, String, String)> {
        decls
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let json = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(declared(&json, "end_to_end"), emitted(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), emitted(PER_LAYER));
        let workloads: Vec<String> = declared(&json, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(seen.insert(d.name), "duplicate name {:?}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "bad unit {:?}",
                d.unit
            );
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "bad workload name {w:?}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_bounds_cap_every_pair_bound() {
        let json = Json::parse(BENCHMARK_JSON).unwrap();
        let bound = |name: &str| {
            json.get("end_to_end")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|m| m.get("bound"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name} has no bound"))
        };
        for d in END_TO_END {
            let gate = bound(d.name);
            assert!(gate > 0.0 && gate <= bound("setup_s"), "{}: {gate}", d.name);
            let pairs: Vec<f64> = WORKLOADS
                .iter()
                .filter_map(|w| pair_bound(d.name, w))
                .collect();
            assert!(!pairs.is_empty(), "{} is reported by no workload", d.name);
            assert!(pairs.iter().all(|&b| b > 0.0 && b <= gate), "{}", d.name);
        }
        assert_eq!(bound("setup_s"), 0.25);
        // Batch workloads report a repetition wall, serve workloads latencies.
        assert!(pair_bound("solve_s", "serve_hot").is_none());
        assert!(pair_bound("p99_ms", "pmvn_dense").is_none());
    }

    /// The benchmark builds two ways (see the README): as a bin of
    /// `mvn-bench`, which the workspace's tests and lints cover, and as the
    /// package the driver builds. Hold the second to the first.
    #[test]
    fn the_stand_alone_manifest_tracks_the_workspace() {
        fn dependencies(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[dependencies]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter_map(|l| l.split(['.', ' ', '=']).next().filter(|n| !n.is_empty()))
                .filter(|n| !n.starts_with('#'))
                .collect()
        }
        let own = include_str!("Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let (own_deps, bench_deps) = (dependencies(own), dependencies(bench));
        assert!(!own_deps.is_empty());
        for dep in own_deps {
            assert!(
                bench_deps.contains(&dep),
                "{dep} is not an mvn-bench dependency"
            );
        }
        // Both builds must use cargo's stock release profile: a root
        // `[profile.release]` would not reach the stand-alone package.
        let has_section = |manifest: &str, prefix| manifest.lines().any(|l| l.starts_with(prefix));
        assert!(!has_section(root, "[profile.release") && !has_section(own, "[profile"));
    }
}

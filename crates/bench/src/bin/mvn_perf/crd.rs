//! `crd_wind`: confidence-region detection on the synthetic wind field — one
//! small factorization, then hundreds of prefix panel sweeps batched on the
//! engine.

use crate::gen;
use crate::pmvn::{anchor_checks, engine, ENGINE_WORKERS};
use crate::probes;
use crate::run::{label_delta, timed, Run};
use crate::stats;
use excursion::{
    correlation_factor_dense, detect_confidence_regions, excursion_set, mc_validate,
    CorrelationFactor, CrdConfig, CrdResult, McValidation,
};
use geostat::{synthetic_wind_dataset, CovarianceKernel, Location, MaternParams};
use mvn_core::{MvnConfig, MvnEngine};

const THRESHOLD_MS: f64 = 4.0;
const ALPHA: f64 = 0.05;
/// The fitted model stands in for the MLE step (left to a later benchmark).
const MODEL: MaternParams = MaternParams {
    sigma2: 0.989,
    range: 0.1146,
    smoothness: 1.0,
};
const FLUCTUATION: MaternParams = MaternParams {
    sigma2: 1.0,
    range: 0.08,
    smoothness: 1.0,
};
const FLUCTUATION_MS: f64 = 1.3;

struct Shape {
    side: usize,
    nb: usize,
    samples: usize,
    levels: usize,
    mc_samples: usize,
    reps: usize,
}

const FULL: Shape = Shape {
    side: 40,
    nb: 100,
    samples: 2000,
    levels: 12,
    mc_samples: 4000,
    reps: 3,
};
const SMOKE: Shape = Shape {
    side: 12,
    nb: 36,
    samples: 256,
    levels: 6,
    mc_samples: 1000,
    reps: 1,
};

struct Inputs {
    locs: Vec<Location>,
    values: Vec<f64>,
    cfg: CrdConfig,
    engine: MvnEngine,
}

impl Inputs {
    fn build(cx: &mut Run, shape: &Shape) -> Self {
        let wind = synthetic_wind_dataset(shape.side, cx.seed(), FLUCTUATION, FLUCTUATION_MS);
        let (values, mean, sd) = wind.standardize();
        let engine = engine(cx.seed(), ENGINE_WORKERS, shape.samples);
        anchor_checks(cx, &engine);
        let cfg = CrdConfig {
            threshold: (THRESHOLD_MS - mean) / sd,
            alpha: ALPHA,
            levels: shape.levels,
            mvn: MvnConfig {
                sample_size: shape.samples,
                seed: gen::engine_seed(cx.seed()),
                ..Default::default()
            },
            ..Default::default()
        };
        Self {
            locs: wind.unit_locations,
            values,
            cfg,
            engine,
        }
    }
}

struct Rep {
    region: Vec<usize>,
    result: CrdResult,
    factor: CorrelationFactor,
    sd: Vec<f64>,
    prefix_solves: u64,
}

fn rep(cx: &Run, inp: &Inputs, nb: usize, rep: u64) -> Rep {
    let _rep = cx.span("rep", rep);
    let cov = {
        let _s = cx.span("assemble", rep);
        CovarianceKernel::Matern(MODEL).dense_covariance(&inp.locs, 1e-8)
    };
    let (factor, sd) = {
        let _s = cx.span("corr_factor", rep);
        correlation_factor_dense(&cov, nb)
    };
    let before = inp.engine.pool_stats();
    let (region, result) = {
        let _s = cx.span("detect", rep);
        let result = detect_confidence_regions(&inp.engine, &factor, &inp.values, &sd, &inp.cfg);
        (excursion_set(&result, ALPHA), result)
    };
    let (_, prefix_solves) = label_delta(&before, &inp.engine.pool_stats(), "panel_sweep");
    Rep {
        region,
        result,
        factor,
        sd,
        prefix_solves,
    }
}

/// The `len` sites of highest marginal exceedance probability, by index.
fn most_probable(result: &CrdResult, len: usize) -> Vec<usize> {
    let mut sites = result.order[..len].to_vec();
    sites.sort_unstable();
    sites
}

pub fn run(cx: &mut Run) {
    let shape = if cx.opts.smoke { &SMOKE } else { &FULL };
    let (inp, setup_wall) = cx.setup(|cx| Inputs::build(cx, shape));
    let (warm, warm_wall) = timed(|| rep(cx, &inp, shape.nb, 0));
    let setup_s = setup_wall + warm_wall;

    let mut walls = Vec::new();
    for r in 1..=cx.reps(shape.reps) {
        let (out, wall) = timed(|| rep(cx, &inp, shape.nb, r as u64));
        let ok = !out.region.is_empty()
            && out.region == warm.region
            && out.region == most_probable(&out.result, out.region.len())
            && (out.region.iter()).all(|&i| out.result.marginal[i] >= 1.0 - ALPHA);
        cx.check(ok, || {
            format!(
                "repetition {r}: region of {} sites (warm-up {}) is empty, unstable, not a \
                 prefix of the marginal order or outside the marginal region",
                out.region.len(),
                warm.region.len()
            )
        });
        walls.push(wall);
    }

    // Untimed, by plain Monte Carlo. The region is a prefix of the marginal
    // order that ends between two evaluated prefix lengths, so (a) the
    // engine's joint probability of the evaluated prefix that contains it
    // must agree with the Monte-Carlo estimate of the same event, and (b)
    // the region's own coverage must lie between the joint probabilities of
    // the two evaluated prefixes around it (nested events). Whether the
    // coverage also reaches 1 − α depends on the straight line the
    // confidence function draws between those two levels: it is reported as
    // `excursion.mc_p_hat` and is not a check (README, suspect 6).
    let levels = &warm.result.prefix_probs;
    let outer = (levels.iter())
        .position(|&(len, _)| len >= warm.region.len())
        .expect("the last evaluated prefix is every site");
    let (outer_len, outer_p) = levels[outer];
    let inner_p = if outer == 0 { 1.0 } else { levels[outer - 1].1 };
    let outer_sites = most_probable(&warm.result, outer_len);
    // The same prefix solved on its own, for the standard error the
    // confidence function does not carry.
    let outer_se = {
        let mut a = vec![f64::NEG_INFINITY; inp.values.len()];
        for &i in &outer_sites {
            a[i] = (inp.cfg.threshold - inp.values[i]) / warm.sd[i];
        }
        let b = vec![f64::INFINITY; a.len()];
        (inp.engine)
            .solve_factored_with(&warm.factor, &a, &b, &inp.cfg.mvn)
            .std_error
    };
    let monte_carlo = |sites: &[usize]| -> McValidation {
        mc_validate(
            &inp.engine,
            &warm.factor,
            &inp.values,
            &warm.sd,
            sites,
            inp.cfg.threshold,
            shape.mc_samples,
            500,
            cx.seed(),
        )
    };
    let mc_outer = monte_carlo(&outer_sites);
    let mc = monte_carlo(&warm.region);
    // Five standard errors of (Monte Carlo at the engine's p) − (engine).
    let tol = |p: f64| 5.0 * (p * (1.0 - p) / shape.mc_samples as f64 + outer_se.powi(2)).sqrt();
    cx.check((mc_outer.p_hat - outer_p).abs() <= tol(outer_p), || {
        format!(
            "the engine gives the {outer_len} most probable sites a joint probability of \
             {outer_p} ± {outer_se}, Monte Carlo {mc_outer:?}"
        )
    });
    let bracket = outer_p - tol(outer_p)..=inner_p + tol(inner_p);
    cx.check(bracket.contains(&mc.p_hat), || {
        format!("Monte-Carlo coverage of the region is {mc:?}, outside {bracket:?}")
    });
    if !cx.opts.trace {
        cx.set_end_to_end_batch(setup_s, &walls);
        return;
    }

    let (out, spans) = cx.traced(|cx| rep(cx, &inp, shape.nb, 99));
    cx.set_trace_guards(&spans, stats::median(&walls));
    cx.set_value("geostat.assemble_matern_s", cx.phase_s(&spans, "assemble"));
    cx.set_value("excursion.corr_factor_s", cx.phase_s(&spans, "corr_factor"));
    cx.set_value("excursion.detect_s", cx.phase_s(&spans, "detect"));
    cx.set_value("excursion.prefix_solves", out.prefix_solves as f64);
    cx.set_value("excursion.region_size", out.region.len() as f64);
    cx.set_value("excursion.mc_p_hat", mc.p_hat);
    drop(out);
    probes::sweep_building_blocks(cx);
}

//! Derivative-free minimization by the Nelder–Mead simplex method.
//!
//! Stands in for the NLopt dependency of the paper's software stack: the MLE
//! step only needs a robust local optimizer over the three Matérn parameters.

/// Options controlling the Nelder–Mead iteration.
#[derive(Debug, Clone, Copy)]
pub struct NelderMeadOptions {
    /// Maximum number of iterations (reflection steps).
    pub max_iter: usize,
    /// Convergence tolerance on the spread of function values across the simplex.
    pub f_tol: f64,
    /// Convergence tolerance on the simplex diameter.
    pub x_tol: f64,
    /// Relative size of the initial simplex (per coordinate).
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        Self {
            max_iter: 500,
            f_tol: 1e-10,
            x_tol: 1e-10,
            initial_step: 0.1,
        }
    }
}

/// Result of a Nelder–Mead run.
#[derive(Debug, Clone)]
pub struct OptimResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Function value at the best point.
    pub fval: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether a convergence test (rather than the iteration cap) stopped
    /// the search.
    pub converged: bool,
}

/// Minimize `f` starting from `x0` with the Nelder–Mead simplex algorithm
/// (standard coefficients: reflection 1, expansion 2, contraction ½, shrink ½).
pub fn nelder_mead(f: impl Fn(&[f64]) -> f64, x0: &[f64], opts: NelderMeadOptions) -> OptimResult {
    let dim = x0.len();
    assert!(dim > 0, "nelder_mead: empty starting point");

    // Build the initial simplex: x0 plus a perturbation along each axis.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(dim + 1);
    simplex.push(x0.to_vec());
    for i in 0..dim {
        let mut p = x0.to_vec();
        let step = if p[i].abs() > 1e-12 {
            opts.initial_step * p[i].abs()
        } else {
            opts.initial_step
        };
        p[i] += step;
        simplex.push(p);
    }
    let mut fvals: Vec<f64> = simplex.iter().map(|p| f(p)).collect();

    let mut iterations = 0;
    let mut converged = false;
    while iterations < opts.max_iter {
        iterations += 1;
        // Order the simplex by function value.
        let mut order: Vec<usize> = (0..=dim).collect();
        order.sort_by(|&a, &b| fvals[a].partial_cmp(&fvals[b]).unwrap());
        let best = order[0];
        let worst = order[dim];
        let second_worst = order[dim - 1];

        // Convergence checks.
        let f_spread = (fvals[worst] - fvals[best]).abs();
        let x_spread = simplex
            .iter()
            .map(|p| {
                p.iter()
                    .zip(&simplex[best])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max)
            })
            .fold(0.0f64, f64::max);
        if f_spread < opts.f_tol && x_spread < opts.x_tol {
            converged = true;
            break;
        }

        // Centroid of all points except the worst.
        let mut centroid = vec![0.0; dim];
        for (i, p) in simplex.iter().enumerate() {
            if i == worst {
                continue;
            }
            for (c, v) in centroid.iter_mut().zip(p) {
                *c += v / dim as f64;
            }
        }

        let point_along = |coef: f64| -> Vec<f64> {
            centroid
                .iter()
                .zip(&simplex[worst])
                .map(|(c, w)| c + coef * (c - w))
                .collect()
        };

        // Reflection.
        let xr = point_along(1.0);
        let fr = f(&xr);
        if fr < fvals[best] {
            // Expansion.
            let xe = point_along(2.0);
            let fe = f(&xe);
            if fe < fr {
                simplex[worst] = xe;
                fvals[worst] = fe;
            } else {
                simplex[worst] = xr;
                fvals[worst] = fr;
            }
        } else if fr < fvals[second_worst] {
            simplex[worst] = xr;
            fvals[worst] = fr;
        } else {
            // Contraction (outside if fr better than the worst, inside otherwise).
            let (xc, fc) = if fr < fvals[worst] {
                let xc = point_along(0.5);
                let fc = f(&xc);
                (xc, fc)
            } else {
                let xc = point_along(-0.5);
                let fc = f(&xc);
                (xc, fc)
            };
            if fc < fvals[worst].min(fr) {
                simplex[worst] = xc;
                fvals[worst] = fc;
            } else {
                // Shrink towards the best point.
                let best_point = simplex[best].clone();
                for (i, p) in simplex.iter_mut().enumerate() {
                    if i == best {
                        continue;
                    }
                    for (v, b) in p.iter_mut().zip(&best_point) {
                        *v = b + 0.5 * (*v - b);
                    }
                    fvals[i] = f(p);
                }
            }
        }
    }

    let (best_idx, _) = fvals
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    OptimResult {
        x: simplex[best_idx].clone(),
        fval: fvals[best_idx],
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_a_quadratic_bowl() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + 2.0 * (x[1] + 1.0).powi(2) + 5.0;
        let r = nelder_mead(f, &[0.0, 0.0], NelderMeadOptions::default());
        assert!(r.converged);
        assert!((r.x[0] - 3.0).abs() < 1e-4, "{:?}", r.x);
        assert!((r.x[1] + 1.0).abs() < 1e-4, "{:?}", r.x);
        assert!((r.fval - 5.0).abs() < 1e-6);
    }

    #[test]
    fn minimizes_rosenbrock_in_two_dimensions() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let r = nelder_mead(
            f,
            &[-1.2, 1.0],
            NelderMeadOptions {
                max_iter: 5000,
                ..Default::default()
            },
        );
        assert!((r.x[0] - 1.0).abs() < 1e-3, "{:?}", r.x);
        assert!((r.x[1] - 1.0).abs() < 1e-3, "{:?}", r.x);
    }

    #[test]
    fn works_in_one_dimension() {
        let f = |x: &[f64]| (x[0] - 0.25).abs();
        let r = nelder_mead(
            f,
            &[10.0],
            NelderMeadOptions {
                max_iter: 2000,
                ..Default::default()
            },
        );
        assert!((r.x[0] - 0.25).abs() < 1e-4);
    }

    #[test]
    fn respects_iteration_cap() {
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let r = nelder_mead(
            f,
            &[5.0, 5.0, 5.0],
            NelderMeadOptions {
                max_iter: 3,
                ..Default::default()
            },
        );
        assert_eq!(r.iterations, 3);
        assert!(!r.converged);
    }

    #[test]
    fn already_converged_start_exits_quickly() {
        let f = |x: &[f64]| x[0] * x[0];
        let r = nelder_mead(
            f,
            &[0.0],
            NelderMeadOptions {
                initial_step: 1e-13,
                ..Default::default()
            },
        );
        assert!(r.converged);
        assert!(r.iterations < 10);
    }

    #[test]
    #[should_panic]
    fn empty_start_panics() {
        nelder_mead(|_| 0.0, &[], NelderMeadOptions::default());
    }
}

//! Naive Monte-Carlo estimator of the MVN probability.
//!
//! Samples `x = L·z` with `z` i.i.d. standard normal and counts how often the
//! whole vector falls inside the integration box. The paper uses exactly this
//! estimator (with 50,000 samples) to validate the confidence regions produced
//! by the SOV-based methods; it is also the "impractical in high dimensions"
//! baseline motivating the SOV algorithm, because the hit probability of a
//! high-dimensional box is tiny relative to the sampling noise.

use crate::{MvnConfig, MvnResult};
use qmc::Xoshiro256pp;
use tile_la::DenseMatrix;
use tlr::TlrMatrix;

/// Plain Monte-Carlo estimate of `Φₙ(a, b; 0, Σ)` from the tiled Cholesky
/// factor of `Σ` (dense or TLR).
///
/// Samples are drawn in blocks of `cfg.panel_width` columns, each block handled
/// by one parallel task (this is the structure of the paper's MC validation
/// timing experiment, Fig. 6).
pub fn mvn_prob_mc(l: &TlrMatrix, a: &[f64], b: &[f64], cfg: &MvnConfig) -> MvnResult {
    let n = a.len();
    assert_eq!(b.len(), n);
    assert_eq!(l.n(), n, "Cholesky factor dimension mismatch");
    assert!(cfg.sample_size > 0);

    let block = cfg.panel_width.max(1);
    let n_blocks = cfg.sample_size.div_ceil(block);

    let blocks: Vec<usize> = (0..n_blocks).collect();
    let hits_per_block = task_runtime::run_map_once("mc_block", &blocks, |_, &bi| {
        let start = bi * block;
        let end = ((bi + 1) * block).min(cfg.sample_size);
        let cols = end - start;
        let mut rng = Xoshiro256pp::seed_from(cfg.seed).stream(bi);
        let z = DenseMatrix::from_fn(n, cols, |_, _| rng.next_normal());
        let x = l.multiply_lower_panel(&z);
        let mut hits = 0usize;
        for c in 0..cols {
            let inside = (0..n).all(|i| {
                let v = x.get(i, c);
                v > a[i] && v <= b[i]
            });
            if inside {
                hits += 1;
            }
        }
        (hits, cols)
    });

    // Batch the block results into ~10 batches for the standard error.
    let n_batches = 10.min(n_blocks);
    let mut batch_hits = vec![0.0; n_batches];
    let mut batch_counts = vec![0usize; n_batches];
    for (i, (h, c)) in hits_per_block.iter().enumerate() {
        let b = i % n_batches;
        batch_hits[b] += *h as f64;
        batch_counts[b] += c;
    }
    let batches: Vec<(f64, usize)> = batch_hits
        .iter()
        .zip(&batch_counts)
        .filter(|(_, &c)| c > 0)
        .map(|(h, &c)| (h / c as f64, c))
        .collect();
    MvnResult::from_batches(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathx::norm_cdf;

    fn factored(sigma_fn: impl Fn(usize, usize) -> f64 + Sync, n: usize, nb: usize) -> TlrMatrix {
        let mut l = TlrMatrix::assemble(n, nb, None, sigma_fn);
        tlr::potrf_tlr(&mut l, &task_runtime::WorkerPool::new(1)).unwrap();
        l
    }

    #[test]
    fn independent_box_probability_is_recovered() {
        let n = 5;
        let l = factored(|i, j| if i == j { 1.0 } else { 0.0 }, n, 2);
        let a = vec![-1.0; n];
        let b = vec![1.0; n];
        let cfg = MvnConfig {
            sample_size: 200_000,
            seed: 1,
            ..Default::default()
        };
        let r = mvn_prob_mc(&l, &a, &b, &cfg);
        let want = (norm_cdf(1.0) - norm_cdf(-1.0)).powi(n as i32);
        assert!(
            (r.prob - want).abs() < 4.0 * r.std_error.max(2e-3),
            "{} vs {want} (se {})",
            r.prob,
            r.std_error
        );
    }

    #[test]
    fn bivariate_orthant_matches_closed_form() {
        let rho: f64 = 0.5;
        let l = factored(move |i, j| if i == j { 1.0 } else { rho }, 2, 2);
        let a = vec![0.0, 0.0];
        let b = vec![f64::INFINITY, f64::INFINITY];
        let cfg = MvnConfig {
            sample_size: 300_000,
            seed: 2,
            ..Default::default()
        };
        let r = mvn_prob_mc(&l, &a, &b, &cfg);
        let want = 0.25 + rho.asin() / (2.0 * std::f64::consts::PI);
        assert!((r.prob - want).abs() < 5e-3, "{} vs {want}", r.prob);
    }

    #[test]
    fn variance_of_scaled_normal_is_respected() {
        // Sigma = 4 on the diagonal: P(|X| < 2) = P(|Z| < 1).
        let l = factored(|i, j| if i == j { 4.0 } else { 0.0 }, 1, 1);
        let cfg = MvnConfig {
            sample_size: 200_000,
            seed: 3,
            ..Default::default()
        };
        let r = mvn_prob_mc(&l, &[-2.0], &[2.0], &cfg);
        let want = norm_cdf(1.0) - norm_cdf(-1.0);
        assert!((r.prob - want).abs() < 5e-3);
    }

    #[test]
    fn reproducible_for_fixed_seed_and_sensitive_to_seed() {
        let l = factored(|i, j| if i == j { 1.0 } else { 0.3 }, 4, 2);
        let a = vec![-0.5; 4];
        let b = vec![1.0; 4];
        let cfg1 = MvnConfig {
            sample_size: 20_000,
            seed: 9,
            ..Default::default()
        };
        let cfg2 = MvnConfig {
            sample_size: 20_000,
            seed: 10,
            ..Default::default()
        };
        let r1 = mvn_prob_mc(&l, &a, &b, &cfg1);
        let r1b = mvn_prob_mc(&l, &a, &b, &cfg1);
        let r2 = mvn_prob_mc(&l, &a, &b, &cfg2);
        assert_eq!(r1.prob, r1b.prob);
        assert!((r1.prob - r2.prob).abs() > 0.0);
    }

    #[test]
    fn empty_box_gives_zero() {
        let l = factored(|i, j| if i == j { 1.0 } else { 0.0 }, 3, 2);
        let cfg = MvnConfig::with_samples(1000);
        let r = mvn_prob_mc(&l, &[2.0, 2.0, 2.0], &[2.0, 2.0, 2.0], &cfg);
        assert_eq!(r.prob, 0.0);
    }
}

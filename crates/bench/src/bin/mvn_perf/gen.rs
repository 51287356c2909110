//! Seeded input generators. Everything the program under test sees —
//! integration limits, request order, request bytes — is a pure function of
//! `--seed`; the generator is the benchmark's own (SplitMix64), so a change
//! to the workspace's RNGs cannot silently change the inputs.

use mvn_service::{render_solve_request, CovSpec};

/// Independent input streams drawn from one `--seed`.
#[derive(Clone, Copy)]
pub enum Stream {
    Limits = 1,
    Order = 2,
    Audit = 3,
    Engine = 4,
    Probe = 5,
}

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: Stream) -> Self {
        let mut rng = Rng(seed ^ (stream as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64(); // decorrelate neighbouring seeds
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// The QMC seed handed to engines and services for this `--seed`.
pub fn engine_seed(seed: u64) -> u64 {
    Rng::new(seed, Stream::Engine).next_u64() >> 1
}

/// Lower integration limits `aᵢ = lo + width·uᵢ` (upper limits are `+∞`).
pub fn lower_limits(rng: &mut Rng, n: usize, lo: f64, width: f64) -> Vec<f64> {
    (0..n).map(|_| lo + width * rng.next_f64()).collect()
}

/// `count` spec choices in Zipf(1) proportions over `items` ranks (rank `r`
/// has weight `1/r`), in seeded random order. The composition is the same for
/// every seed (largest-remainder quotas) and only the order varies, so runs
/// on different seeds do comparable work.
pub fn zipf_order(rng: &mut Rng, items: usize, count: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=items).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * count as f64).collect();
    let mut quota: Vec<usize> = exact.iter().map(|e| *e as usize).collect();
    let mut by_remainder: Vec<usize> = (0..items).collect();
    by_remainder.sort_by(|&i, &j| (exact[j].fract()).total_cmp(&exact[i].fract()));
    let short = count - quota.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        quota[i] += 1;
    }
    let mut order: Vec<usize> = (0..items)
        .flat_map(|i| std::iter::repeat_n(i, quota[i]))
        .collect();
    // Fisher–Yates.
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// One pre-rendered solve request: the wire bytes (newline included) and
/// what is needed to audit its reply after timing.
pub struct Request {
    pub id: u64,
    pub spec: usize,
    pub a: Vec<f64>,
    pub line: Vec<u8>,
}

/// Render one request per entry of `order` (indices into `specs`), with ids
/// `first_id..`, seeded lower limits and `+∞` upper limits.
pub fn requests(rng: &mut Rng, specs: &[CovSpec], order: &[usize], first_id: u64) -> Vec<Request> {
    order
        .iter()
        .zip(first_id..)
        .map(|(&spec, id)| {
            let n = specs[spec].n();
            let a = lower_limits(rng, n, -1.0, 0.5);
            let mut line = render_solve_request(id, &specs[spec], &a, &vec![f64::INFINITY; n]);
            line.push('\n');
            Request {
                id,
                spec,
                a,
                line: line.into_bytes(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostat::{regular_grid, CovarianceKernel};

    fn specs() -> Vec<CovSpec> {
        [0.05, 0.1]
            .iter()
            .map(|&range| {
                CovSpec::dense(
                    regular_grid(3, 3),
                    CovarianceKernel::Exponential { sigma2: 1.0, range },
                    1e-8,
                    4,
                )
            })
            .collect()
    }

    fn lines(seed: u64) -> Vec<Vec<u8>> {
        let order = zipf_order(&mut Rng::new(seed, Stream::Order), 2, 12);
        requests(&mut Rng::new(seed, Stream::Limits), &specs(), &order, 7)
            .into_iter()
            .map(|r| r.line)
            .collect()
    }

    #[test]
    fn equal_seeds_give_identical_bytes_and_different_seeds_differ() {
        let limits = |seed| lower_limits(&mut Rng::new(seed, Stream::Limits), 50, -3.5, 0.25);
        assert_eq!(limits(11), limits(11));
        assert_ne!(limits(11), limits(12));
        assert!(limits(11).iter().all(|a| (-3.5..-3.25).contains(a)));

        let order = |seed| zipf_order(&mut Rng::new(seed, Stream::Order), 8, 400);
        assert_eq!(order(3), order(3));
        assert_ne!(order(3), order(4));

        assert_eq!(lines(5), lines(5));
        assert_ne!(lines(5), lines(6));
        assert!(lines(5).iter().all(|l| l.ends_with(b"}\n")));
        assert_ne!(engine_seed(1), engine_seed(2));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_covers_every_item() {
        let order = zipf_order(&mut Rng::new(9, Stream::Order), 8, 4000);
        let mut counts = [0usize; 8];
        for &i in &order {
            counts[i] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0));
        // Rank 1 carries 1/H₈ ≈ 36.8 % of the mass, rank 8 about 4.6 %.
        assert_eq!(counts.iter().sum::<usize>(), 4000);
        assert_eq!((counts[0], counts[7]), (1472, 184), "{counts:?}");
    }
}

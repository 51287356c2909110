//! The old assembly and factor entry points that the `mvn_perf` benchmark
//! still calls are wrappers over the one path, `TlrMatrix::assemble` then
//! `MvnEngine::factor`. This pins every tile they build to that path, bit
//! for bit, on a ragged tiling. It is the one file outside the benchmark
//! that calls the wrappers; they go once the benchmark moves off them.

use geostat::{jittered_grid, CovarianceKernel};
use mvn_core::{Factor, MvnEngine};
use qmc::{lattice_points, make_point_set, PointSet, SampleKind};
use tile_la::SymTileMatrix;
use tlr::{CompressionTol, Tile, TlrMatrix};

fn cov(i: usize, j: usize) -> f64 {
    let d = (i as f64 - j as f64).abs() / 9.0;
    (-d).exp() + if i == j { 1e-8 } else { 0.0 }
}

/// The bits of one tile: its format, shape and every stored double.
fn bits(t: &Tile) -> (bool, Vec<u64>) {
    let raw = |m: &tile_la::DenseMatrix| {
        let mut v = vec![m.nrows() as u64, m.ncols() as u64];
        v.extend(m.data().iter().map(|x| x.to_bits()));
        v
    };
    match t {
        Tile::Dense(d) => (false, raw(d)),
        Tile::LowRank(b) => (true, [raw(&b.u), raw(&b.v)].concat()),
    }
}

fn assert_same(got: &TlrMatrix, want: &TlrMatrix, what: &str) {
    assert_eq!(got.layout(), want.layout(), "{what}");
    assert_eq!(got.compression(), want.compression(), "{what}");
    for i in 0..got.num_tiles() {
        for j in 0..=i {
            assert!(
                bits(got.tile(i, j)) == bits(want.tile(i, j)),
                "{what}: tile ({i},{j})"
            );
        }
    }
}

fn tiled(f: Factor) -> TlrMatrix {
    match f {
        Factor::Tiled(l) => l,
        Factor::Vecchia(_) => panic!("expected a tiled factor"),
    }
}

#[test]
fn the_wrappers_are_bitwise_the_one_assembly_path() {
    let n = 45;
    // The wrappers' rank cap, at or above the break-even rank of every tile
    // here, so it cannot bind.
    let (tol, cap) = (CompressionTol::Absolute(1e-6), 6);
    let engine = MvnEngine::builder().workers(2).build().unwrap();
    let locs = jittered_grid(9, 5, 3);
    let kernel = CovarianceKernel::Exponential {
        sigma2: 1.3,
        range: 0.3,
    };
    for nb in [8, 16] {
        let what = |s: &str| format!("nb={nb}: {s}");
        let dense = TlrMatrix::assemble(n, nb, None, cov);
        let tlr = TlrMatrix::assemble(n, nb, Some(tol), cov);
        assert_same(
            &dense,
            &TlrMatrix::from(SymTileMatrix::from_fn(n, nb, cov)),
            &what("SymTileMatrix::from_fn"),
        );
        assert_same(
            &tlr,
            &TlrMatrix::from_fn(n, nb, tol, cap, cov),
            &what("from_fn"),
        );

        let want = tiled(engine.factor(dense.clone()).unwrap());
        let got = engine.factor_dense(SymTileMatrix::from_fn(n, nb, cov));
        assert_same(&tiled(got.unwrap()), &want, &what("factor_dense"));
        let want = tiled(engine.factor(tlr.clone()).unwrap());
        let got = engine.factor_tlr(tlr);
        assert_same(&tiled(got.unwrap()), &want, &what("factor_tlr"));

        let entry = kernel.entry(&locs, 1e-8);
        assert_same(
            &TlrMatrix::from(kernel.tiled_covariance(&locs, nb, 1e-8)),
            &TlrMatrix::assemble(n, nb, None, &entry),
            &what("tiled_covariance"),
        );
        assert_same(
            &kernel.tlr_covariance(&locs, nb, 1e-8, tol, cap),
            &TlrMatrix::assemble(n, nb, Some(tol), &entry),
            &what("tlr_covariance"),
        );
    }
}

#[test]
fn make_point_set_is_bitwise_the_lattice() {
    for dim in [1, 17, 1600] {
        for seed in [42, u64::MAX - 7] {
            let (count, ndims) = (33, dim.min(100));
            let dim0 = dim - ndims;
            let mut got = vec![0.0; count * ndims];
            let mut want = got.clone();
            make_point_set(SampleKind::RichtmyerLattice, dim, seed)
                .fill_block(5, count, dim0, ndims, &mut got);
            lattice_points(dim, seed).fill_block(5, count, dim0, ndims, &mut want);
            assert!(
                got.iter()
                    .map(|x| x.to_bits())
                    .eq(want.iter().map(|x| x.to_bits())),
                "dim={dim} seed={seed}"
            );
        }
    }
}

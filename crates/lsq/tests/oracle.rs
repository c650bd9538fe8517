//! The kernel against a reference solver: a heap-allocating Householder
//! QR over a row-major matrix, kept here verbatim in its arithmetic as
//! the oracle for [`etm_lsq::lstsq`]. Over seeded 2-, 3- and 4-column
//! systems the kernel must return bit-identical coefficients, or the
//! same [`LsqError`] with the same column. A [`FactoredDesign`] factored
//! once and solved against several observation vectors must in turn
//! match [`lstsq`] on a fresh copy of each case, and solving four
//! vectors in lockstep must match four single solves.

use etm_lsq::{lstsq, FactoredDesign, LsqError};
use etm_support::prop::check;
use etm_support::rng::Rng64;

/// A dense row-major `rows × cols` matrix, factored in place.
struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Dense {
    fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }
}

/// The compact Householder factorization: reflectors below the
/// diagonal, `R` on and above it, τ per column.
struct QrFactors {
    a: Dense,
    tau: Vec<f64>,
}

impl QrFactors {
    fn factor(mut x: Dense) -> Result<Self, LsqError> {
        let (m, n) = (x.rows, x.cols);
        if m < n {
            return Err(LsqError::Underdetermined { rows: m, cols: n });
        }
        let mut tau = vec![0.0; n];
        for (k, tk) in tau.iter_mut().enumerate() {
            let mut norm2 = 0.0;
            for i in k..m {
                let v = x.get(i, k);
                norm2 += v * v;
            }
            let norm = norm2.sqrt();
            if norm == 0.0 {
                *tk = 0.0;
                continue;
            }
            let akk = x.get(k, k);
            let alpha = if akk >= 0.0 { -norm } else { norm };
            let v0 = akk - alpha;
            for i in (k + 1)..m {
                let v = x.get(i, k) / v0;
                x.set(i, k, v);
            }
            *tk = -v0 / alpha;
            x.set(k, k, alpha);
            for j in (k + 1)..n {
                let mut dot = x.get(k, j);
                for i in (k + 1)..m {
                    dot += x.get(i, k) * x.get(i, j);
                }
                let scale = *tk * dot;
                let new_kj = x.get(k, j) - scale;
                x.set(k, j, new_kj);
                for i in (k + 1)..m {
                    let v = x.get(i, j) - scale * x.get(i, k);
                    x.set(i, j, v);
                }
            }
        }
        Ok(QrFactors { a: x, tau })
    }

    fn apply_qt(&self, y: &mut [f64]) {
        let n = self.a.cols;
        for k in 0..n {
            if self.tau[k] == 0.0 {
                continue;
            }
            let mut dot = y[k];
            for (i, &yi) in y.iter().enumerate().skip(k + 1) {
                dot += self.a.get(i, k) * yi;
            }
            let scale = self.tau[k] * dot;
            y[k] -= scale;
            for (i, yi) in y.iter_mut().enumerate().skip(k + 1) {
                *yi -= scale * self.a.get(i, k);
            }
        }
    }

    fn solve(&self, y: &[f64]) -> Result<Vec<f64>, LsqError> {
        let (m, n) = (self.a.rows, self.a.cols);
        let mut qty = y.to_vec();
        self.apply_qt(&mut qty);
        let rmax = (0..n)
            .map(|j| self.a.get(j, j).abs())
            .fold(0.0_f64, f64::max);
        let tol = rmax * (m.max(n) as f64) * f64::EPSILON;
        let mut c = vec![0.0; n];
        for j in (0..n).rev() {
            let rjj = self.a.get(j, j);
            if rjj.abs() <= tol {
                return Err(LsqError::RankDeficient { column: j });
            }
            let mut s = qty[j];
            for (k, &ck) in c.iter().enumerate().skip(j + 1) {
                s -= self.a.get(j, k) * ck;
            }
            c[j] = s / rjj;
        }
        Ok(c)
    }
}

/// The reference coefficient path: dimension check, factor, solve.
fn reference<const C: usize>(rows: &[[f64; C]], y: &[f64]) -> Result<Vec<f64>, LsqError> {
    if y.len() != rows.len() {
        return Err(LsqError::DimensionMismatch {
            expected: rows.len(),
            got: y.len(),
        });
    }
    let x = Dense {
        rows: rows.len(),
        cols: C,
        data: rows.iter().flatten().copied().collect(),
    };
    QrFactors::factor(x)?.solve(y)
}

/// Asserts the kernel matches the reference bit for bit on one system.
fn assert_matches<const C: usize>(rows: &[[f64; C]], y: &[f64]) {
    let want = reference(rows, y);
    let got = lstsq(&mut rows.to_vec(), &mut y.to_vec());
    match (&want, &got) {
        (Ok(w), Ok(g)) => {
            let w: Vec<u64> = w.iter().map(|c| c.to_bits()).collect();
            let g: Vec<u64> = g.iter().map(|c| c.to_bits()).collect();
            assert_eq!(g, w, "coefficients differ for {rows:?}");
        }
        _ => assert_eq!(
            got.map(|_| ()),
            want.map(|_| ()),
            "outcomes differ for {rows:?}"
        ),
    }
}

/// Asserts that one design, factored once and solved against every
/// vector of `ys` in turn, gives bit for bit the coefficients and errors
/// of [`lstsq`] on a fresh copy of each `(rows, y)` case.
fn assert_factored_matches<const C: usize>(rows: &[[f64; C]], ys: &[Vec<f64>]) {
    let design = FactoredDesign::factor(rows.to_vec());
    for y in ys {
        let want = lstsq(&mut rows.to_vec(), &mut y.clone());
        let got = match &design {
            Ok(d) => d.solve(&mut y.clone()),
            Err(e) if y.len() == rows.len() => Err(e.clone()),
            // `lstsq` checks the length before it factors; a design that
            // does not factor never sees `y`.
            Err(_) => {
                assert!(
                    matches!(want, Err(LsqError::DimensionMismatch { .. })),
                    "{want:?} for {rows:?}"
                );
                continue;
            }
        };
        match (&want, &got) {
            (Ok(w), Ok(g)) => {
                let w: Vec<u64> = w.iter().map(|c| c.to_bits()).collect();
                let g: Vec<u64> = g.iter().map(|c| c.to_bits()).collect();
                assert_eq!(g, w, "coefficients differ for {rows:?}, y = {y:?}");
            }
            _ => assert_eq!(got, want, "outcomes differ for {rows:?}, y = {y:?}"),
        }
    }
}

/// The shapes a case may take; each variant stresses one failure mode.
#[derive(Clone, Copy)]
enum Shape {
    /// Uniform random regressors.
    Random,
    /// The N-T cubic basis (truncated to `C` columns) over N ∈ [400, 9600].
    Cubic,
    /// Random regressors with one column zeroed.
    ZeroColumn,
    /// Random regressors with one column an exact multiple of another.
    Collinear,
    /// Random regressors with `y` one observation short.
    ShortY,
}

fn random_system<const C: usize>(rng: &mut Rng64) -> (Vec<[f64; C]>, Vec<f64>) {
    let shape = [
        Shape::Random,
        Shape::Cubic,
        Shape::ZeroColumn,
        Shape::Collinear,
        Shape::ShortY,
    ][rng.range_usize(5)];
    let m = rng.range_inclusive(1, 80);
    let mut rows: Vec<[f64; C]> = (0..m)
        .map(|_| {
            let mut r = [0.0; C];
            match shape {
                Shape::Cubic => {
                    let n = rng.range_inclusive(400, 9600) as f64;
                    let basis = [n * n * n, n * n, n, 1.0];
                    r.copy_from_slice(&basis[4 - C..]);
                }
                _ => r.iter_mut().for_each(|v| *v = rng.range_f64(-10.0, 10.0)),
            }
            r
        })
        .collect();
    match shape {
        Shape::ZeroColumn => {
            let j = rng.range_usize(C);
            rows.iter_mut().for_each(|r| r[j] = 0.0);
        }
        Shape::Collinear => {
            let (a, b) = (rng.range_usize(C), rng.range_usize(C));
            let k = rng.range_f64(-3.0, 3.0);
            if a != b {
                rows.iter_mut().for_each(|r| r[b] = k * r[a]);
            }
        }
        _ => {}
    }
    let ny = if matches!(shape, Shape::ShortY) {
        m - 1
    } else {
        m
    };
    let y = (0..ny).map(|_| rng.range_f64(-100.0, 100.0)).collect();
    (rows, y)
}

#[test]
fn kernel_is_bit_identical_to_the_reference_solver() {
    check(256, 0x4c53_5141, |rng| {
        let (rows, y) = random_system::<2>(rng);
        assert_matches(&rows, &y);
        let (rows, y) = random_system::<3>(rng);
        assert_matches(&rows, &y);
        let (rows, y) = random_system::<4>(rng);
        assert_matches(&rows, &y);
    });
}

#[test]
fn kernel_matches_the_reference_on_the_edge_systems() {
    // A zero column: RankDeficient at that column.
    assert_matches(&[[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], &[1.0, 2.0, 3.0]);
    // Exactly collinear columns.
    assert_matches(&[[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], &[1.0, 2.0, 3.0]);
    // A too-short y.
    assert_matches(&[[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]], &[1.0, 2.0]);
    // Fewer rows than columns.
    assert_matches(&[[1.0, 2.0, 3.0]], &[1.0]);
    // The paper's N-T cubic basis over the Basic sizes.
    let ns = [
        400.0, 600.0, 800.0, 1200.0, 1600.0, 2400.0, 3200.0, 4800.0, 6400.0f64,
    ];
    let rows: Vec<[f64; 4]> = ns.iter().map(|&n| [n * n * n, n * n, n, 1.0]).collect();
    let y: Vec<f64> = ns.iter().map(|n| 1e-9 * n * n * n + 0.3).collect();
    assert_matches(&rows, &y);
}

/// Several observation vectors for one design: the case's own `y` and
/// three fresh ones of the design's length.
fn with_more_ys(rows_len: usize, y: Vec<f64>, rng: &mut Rng64) -> Vec<Vec<f64>> {
    let mut ys = vec![y];
    for _ in 0..3 {
        ys.push(
            (0..rows_len)
                .map(|_| rng.range_f64(-100.0, 100.0))
                .collect(),
        );
    }
    ys
}

#[test]
fn one_factorization_solves_like_lstsq_on_every_right_hand_side() {
    check(256, 0x4644_5347, |rng| {
        let (rows, y) = random_system::<2>(rng);
        assert_factored_matches(&rows, &with_more_ys(rows.len(), y, rng));
        let (rows, y) = random_system::<3>(rng);
        assert_factored_matches(&rows, &with_more_ys(rows.len(), y, rng));
        let (rows, y) = random_system::<4>(rng);
        assert_factored_matches(&rows, &with_more_ys(rows.len(), y, rng));
    });
}

#[test]
fn one_factorization_matches_lstsq_on_the_edge_systems() {
    let three = vec![vec![1.0, 2.0, 3.0], vec![-4.0, 0.5, 9.0]];
    // Rank-deficient designs: the same `RankDeficient` column.
    let zero_column = [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]];
    assert_factored_matches(&zero_column, &three);
    assert_eq!(
        FactoredDesign::factor(zero_column.to_vec()).and_then(|d| d.solve(&mut [1.0, 2.0, 3.0])),
        Err(LsqError::RankDeficient { column: 1 })
    );
    assert_factored_matches(&[[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], &three);
    // Underdetermined: the design does not factor.
    assert_factored_matches(&[[1.0, 2.0, 3.0]], &[vec![1.0], vec![]]);
    assert!(matches!(
        FactoredDesign::factor(vec![[1.0, 2.0, 3.0]]),
        Err(LsqError::Underdetermined { rows: 1, cols: 3 })
    ));
    // A length mismatch, on either side of a good solve.
    let line = [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]];
    assert_factored_matches(
        &line,
        &[
            vec![1.0, 2.0],
            vec![1.0, 2.0, 4.0],
            vec![1.0, 2.0, 3.0, 4.0],
        ],
    );
    // The paper's N-T cubic basis over the Basic sizes, one design for
    // several kinds' curves.
    let ns = [
        400.0, 600.0, 800.0, 1200.0, 1600.0, 2400.0, 3200.0, 4800.0, 6400.0f64,
    ];
    let rows: Vec<[f64; 4]> = ns.iter().map(|&n| [n * n * n, n * n, n, 1.0]).collect();
    let ys: Vec<Vec<f64>> = [1e-9, 3e-10, 7e-11]
        .iter()
        .map(|k| ns.iter().map(|n| k * n * n * n + 0.3).collect())
        .collect();
    assert_factored_matches(&rows, &ys);
}

/// What [`lanes_solve_like_four_single_solves`] exercised.
#[derive(Default)]
struct Lanes {
    solved: usize,
    zero_column: usize,
    rank_deficient: usize,
    mismatched: usize,
}

/// Lays four equally long vectors side by side, one row per entry.
fn side_by_side(ys: &[Vec<f64>; 4]) -> Vec<[f64; 4]> {
    (0..ys[0].len())
        .map(|i| ys.each_ref().map(|y| y[i]))
        .collect()
}

/// Solves one factored design against four vectors in lockstep and
/// against each alone, and asserts the outcomes agree bit for bit, error
/// for error.
fn assert_lanes_match<const C: usize>(rows: &[[f64; C]], ys: &[Vec<f64>; 4], seen: &mut Lanes) {
    let Ok(design) = FactoredDesign::factor(rows.to_vec()) else {
        panic!("{} rows factor for {C} columns", rows.len());
    };
    let many = design.solve_many(&mut side_by_side(ys));
    for (l, y) in ys.iter().enumerate() {
        let want = design.solve(&mut y.clone());
        match (&many, &want) {
            (Ok(g), Ok(w)) => {
                let g: Vec<u64> = g[l].iter().map(|c| c.to_bits()).collect();
                let w: Vec<u64> = w.iter().map(|c| c.to_bits()).collect();
                assert_eq!(g, w, "lane {l} differs for {rows:?}, y = {y:?}");
                seen.solved += 1;
            }
            (Err(g), Err(w)) => assert_eq!(g, w, "lane {l} error for {rows:?}, y = {y:?}"),
            _ => panic!("lane {l}: {many:?} in lockstep, {want:?} alone, for {rows:?}"),
        }
        match want {
            Err(LsqError::RankDeficient { .. }) => seen.rank_deficient += 1,
            Err(LsqError::DimensionMismatch { .. }) => seen.mismatched += 1,
            _ => {}
        }
    }
    if (0..C).any(|j| rows.iter().all(|r| r[j] == 0.0)) {
        seen.zero_column += 1;
    }
}

/// A random system of at least four rows, and four observation vectors
/// for it: the system's own `y` (one short for a `ShortY` case) in a
/// random lane, and fresh ones of the same length in the others.
fn lane_case<const C: usize>(rng: &mut Rng64) -> (Vec<[f64; C]>, [Vec<f64>; 4]) {
    let (rows, y) = loop {
        let (rows, y) = random_system::<C>(rng);
        if rows.len() >= 4 {
            break (rows, y);
        }
    };
    let at = rng.range_usize(4);
    let len = y.len();
    let mut own = Some(y);
    let ys = std::array::from_fn(|l| match own.take_if(|_| l == at) {
        Some(y) => y,
        None => (0..len).map(|_| rng.range_f64(-100.0, 100.0)).collect(),
    });
    (rows, ys)
}

#[test]
fn lanes_solve_like_four_single_solves() {
    let mut seen = Lanes::default();
    check(256, 0x4c41_4e45, |rng| {
        let (rows, ys) = lane_case::<2>(rng);
        assert_lanes_match(&rows, &ys, &mut seen);
        let (rows, ys) = lane_case::<3>(rng);
        assert_lanes_match(&rows, &ys, &mut seen);
        let (rows, ys) = lane_case::<4>(rng);
        assert_lanes_match(&rows, &ys, &mut seen);
    });
    // The edge shapes, pinned: a zero column (its τ is 0, so `Qᵀ` skips
    // it in every lane) and a collinear pair report the same column for
    // every lane, and so does a row count the design does not have.
    let three = |a: f64| {
        [
            vec![1.0, 2.0, 3.0, a],
            vec![-4.0, 0.5, 9.0, a],
            vec![a; 4],
            vec![0.0; 4],
        ]
    };
    let zero_column = [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [5.0, 0.0]];
    assert_lanes_match(&zero_column, &three(1.0), &mut seen);
    let d = FactoredDesign::factor(zero_column.to_vec()).expect("four rows factor");
    assert_eq!(
        d.solve_many(&mut side_by_side(&three(2.0))),
        Err(LsqError::RankDeficient { column: 1 })
    );
    assert_lanes_match(
        &[[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]],
        &three(3.0),
        &mut seen,
    );
    let line = [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0], [4.0, 1.0]];
    let ys = three(4.0).map(|mut y| {
        y.pop();
        y
    });
    assert_lanes_match(&line, &ys, &mut seen);
    let d = FactoredDesign::factor(line.to_vec()).expect("four rows factor");
    assert_eq!(
        d.solve_many(&mut side_by_side(&ys)),
        Err(LsqError::DimensionMismatch {
            expected: 4,
            got: 3
        })
    );
    assert!(
        seen.solved > 1300
            && seen.zero_column > 100
            && seen.rank_deficient > 800
            && seen.mismatched > 500,
        "solved {}, zero columns {}, rank-deficient lanes {}, mismatched lanes {}",
        seen.solved,
        seen.zero_column,
        seen.rank_deficient,
        seen.mismatched
    );
}

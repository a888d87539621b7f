//! Dense vector/matrix primitives. Matrices are row-major `Vec<f64>` of
//! shape `(rows, cols)`; all routines are written for the small layer sizes
//! of the SimSub networks (tens of units), where simple loops beat any
//! BLAS dispatch overhead.

/// Dot product of two equal-length vectors.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x` element-wise.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = W x` for row-major `W` of shape `(rows, cols)`.
/// `y` must have length `rows`, `x` length `cols`.
#[inline]
pub fn matvec(w: &[f64], rows: usize, cols: usize, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(x.len(), cols);
    debug_assert_eq!(y.len(), rows);
    for (r, yr) in y.iter_mut().enumerate() {
        *yr = dot(&w[r * cols..(r + 1) * cols], x);
    }
}

/// `y = W x` for *column-major* `W` of shape `(y.len(), x.len())`:
/// `wt[c * rows + r]` is `W[r][c]`. Output lane `r` receives
/// `W[r][0] x[0]`, `W[r][1] x[1]`, … in that order on top of the `-0.0`
/// that `f64::sum` starts from — bit for bit what [`matvec`] gives for the
/// row-major transpose — but the lanes of a column sit side by side and do
/// not depend on each other, so a block of them accumulates in vector
/// registers across all columns.
#[inline]
pub fn matvec_columns(wt: &[f64], x: &[f64], y: &mut [f64]) {
    /// Output lanes per register-resident block.
    const LANES: usize = 16;
    let rows = y.len();
    assert_eq!(wt.len(), rows * x.len());
    if rows == 0 {
        return;
    }
    let columns = || wt.chunks_exact(rows).zip(x);
    let (blocks, tail) = y.as_chunks_mut::<LANES>();
    for (b, out) in blocks.iter_mut().enumerate() {
        let mut acc = [-0.0; LANES];
        for (col, &xc) in columns() {
            let col: &[f64; LANES] = col[b * LANES..]
                .first_chunk()
                .expect("a block lies inside its column");
            for l in 0..LANES {
                acc[l] += col[l] * xc;
            }
        }
        *out = acc;
    }
    let at = rows - tail.len();
    tail.fill(-0.0);
    for (col, &xc) in columns() {
        for (yr, w) in tail.iter_mut().zip(&col[at..]) {
            *yr += w * xc;
        }
    }
}

/// `y += Wᵀ g` for row-major `W` of shape `(rows, cols)`: propagates a
/// gradient `g` (length `rows`) back through `W`, accumulating into `y`
/// (length `cols`).
#[inline]
pub fn matvec_transpose(w: &[f64], rows: usize, cols: usize, g: &[f64], y: &mut [f64]) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(g.len(), rows);
    debug_assert_eq!(y.len(), cols);
    for (r, gr) in g.iter().enumerate() {
        axpy(*gr, &w[r * cols..(r + 1) * cols], y);
    }
}

/// `G += g ⊗ x`: accumulates the outer product of a row-gradient `g`
/// (length `rows`) and an input `x` (length `cols`) into a row-major
/// gradient matrix `G` of shape `(rows, cols)`.
#[inline]
pub fn add_outer(grad: &mut [f64], rows: usize, cols: usize, g: &[f64], x: &[f64]) {
    debug_assert_eq!(grad.len(), rows * cols);
    debug_assert_eq!(g.len(), rows);
    debug_assert_eq!(x.len(), cols);
    for (r, gr) in g.iter().enumerate() {
        axpy(*gr, x, &mut grad[r * cols..(r + 1) * cols]);
    }
}

/// Squared Euclidean distance between two equal-length vectors.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_known_values() {
        // W = [[1, 2], [3, 4], [5, 6]], x = [1, -1]
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x = [1.0, -1.0];
        let mut y = [0.0; 3];
        matvec(&w, 3, 2, &x, &mut y);
        assert_eq!(y, [-1.0, -1.0, -1.0]);
    }

    #[test]
    fn matvec_columns_matches_matvec_bitwise() {
        // 19 × 3 (one lane block and a tail), entries chosen so that
        // summation order shows in the bits.
        let (rows, cols) = (19, 3);
        let w: Vec<f64> = (0..rows * cols)
            .map(|i| 0.1 + (i as f64 * 0.37).sin() * 1e3)
            .collect();
        let wt: Vec<f64> = (0..rows * cols)
            .map(|i| w[(i % rows) * cols + i / rows])
            .collect();
        for x in [[0.3, -1e-9, 7.7], [0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]] {
            let (mut by_rows, mut by_cols) = ([0.0; 19], [1.0; 19]);
            matvec(&w, rows, cols, &x, &mut by_rows);
            matvec_columns(&wt, &x, &mut by_cols);
            assert_eq!(
                by_rows.map(f64::to_bits),
                by_cols.map(f64::to_bits),
                "x = {x:?}"
            );
        }
    }

    #[test]
    fn matvec_transpose_known_values() {
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let g = [1.0, 0.0, -1.0];
        let mut y = [0.0; 2];
        matvec_transpose(&w, 3, 2, &g, &mut y);
        assert_eq!(y, [-4.0, -4.0]);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut grad = [0.0; 6];
        add_outer(&mut grad, 3, 2, &[1.0, 2.0, 3.0], &[10.0, 20.0]);
        add_outer(&mut grad, 3, 2, &[1.0, 2.0, 3.0], &[10.0, 20.0]);
        assert_eq!(grad, [20.0, 40.0, 40.0, 80.0, 60.0, 120.0]);
    }

    #[test]
    fn squared_distance_matches_dot_identity() {
        let a = [1.0, 2.0, 3.0];
        let b = [0.0, -2.0, 4.0];
        // |a-b|^2 = 1 + 16 + 1
        assert_eq!(squared_distance(&a, &b), 18.0);
        assert_eq!(squared_distance(&a, &a), 0.0);
    }
}

//! Dense vector/matrix primitives. Matrices are column-major `Vec<f64>`:
//! `w[c * rows + r]` is `W[r][c]`, so column `c` is one contiguous run and
//! the outputs of `W x` sit side by side. All routines are written for the
//! small layer sizes of the SimSub networks (tens of units), where simple
//! loops beat any BLAS dispatch overhead.

/// `y = W x` for column-major `W` of shape `(y.len(), x.len())`:
/// `wt[c * rows + r]` is `W[r][c]`. Output lane `r` receives
/// `W[r][0] x[0]`, `W[r][1] x[1]`, … in that order on top of the `-0.0`
/// that `f64::sum` starts from — bit for bit a row-by-row dot product —
/// but the lanes of a column sit side by side and do not depend on each
/// other, so a block of them accumulates in vector registers across all
/// columns.
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

/// `y += Wᵀ g` for column-major `W` whose column `c` is
/// `w[c * stride..][..g.len()]`: propagates a gradient `g` back through
/// `W`. Each `y[c]` adds `g[0] W[0][c]`, `g[1] W[1][c]`, … in that order
/// onto what it holds — a row-major `W`'s row-by-row pull-back, bit for
/// bit. A column is a dependent chain, so four run side by side.
#[inline]
pub(crate) fn add_transposed(w: &[f64], stride: usize, g: &[f64], y: &mut [f64]) {
    const LANES: usize = 4;
    let (rows, cols) = (g.len(), y.len());
    let column = |c: usize| &w[c * stride..][..rows];
    let (blocks, tail) = y.as_chunks_mut::<LANES>();
    for (b, out) in blocks.iter_mut().enumerate() {
        let block: [&[f64]; LANES] = std::array::from_fn(|l| column(b * LANES + l));
        let mut acc = *out;
        for (r, &gr) in g.iter().enumerate() {
            for l in 0..LANES {
                acc[l] += gr * block[l][r];
            }
        }
        *out = acc;
    }
    let at = cols - tail.len();
    for (c, yc) in (at..).zip(tail) {
        for (&gr, &w) in g.iter().zip(column(c)) {
            *yc += gr * w;
        }
    }
}

/// `G += g ⊗ x` for column-major `G` whose column `c` is
/// `grad[c * stride..][..g.len()]`: each element receives the one product
/// `g[r] · x[c]`.
#[inline]
pub(crate) fn add_products(grad: &mut [f64], stride: usize, g: &[f64], x: &[f64]) {
    for (c, &xc) in x.iter().enumerate() {
        for (w, &gr) in grad[c * stride..][..g.len()].iter_mut().zip(g) {
            *w += gr * xc;
        }
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

    /// `W x` as row-by-row dot products over a row-major `W`.
    fn by_rows(w: &[f64], rows: usize, cols: usize, x: &[f64]) -> Vec<f64> {
        (0..rows)
            .map(|r| {
                w[r * cols..][..cols]
                    .iter()
                    .zip(x)
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect()
    }

    /// A `rows × cols` row-major matrix whose summation order shows in
    /// the bits, and its column-major form.
    fn matrix(rows: usize, cols: usize) -> (Vec<f64>, Vec<f64>) {
        let w: Vec<f64> = (0..rows * cols)
            .map(|i| 0.1 + (i as f64 * 0.37).sin() * 1e3)
            .collect();
        let wt = (0..rows * cols)
            .map(|i| w[(i % rows) * cols + i / rows])
            .collect();
        (w, wt)
    }

    #[test]
    fn matvec_columns_known_values() {
        // W = [[1, 2], [3, 4], [5, 6]] column by column, x = [1, -1].
        let wt = [1.0, 3.0, 5.0, 2.0, 4.0, 6.0];
        let mut y = [7.0; 3];
        matvec_columns(&wt, &[1.0, -1.0], &mut y);
        assert_eq!(y, [-1.0, -1.0, -1.0]);
    }

    #[test]
    fn matvec_columns_matches_row_dot_products_bitwise() {
        // 19 × 3: one lane block and a tail.
        let (rows, cols) = (19, 3);
        let (w, wt) = matrix(rows, cols);
        for x in [[0.3, -1e-9, 7.7], [0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]] {
            let mut by_cols = [1.0; 19];
            matvec_columns(&wt, &x, &mut by_cols);
            let want: Vec<u64> = by_rows(&w, rows, cols, &x)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(by_cols.map(f64::to_bits).to_vec(), want, "x = {x:?}");
        }
    }

    #[test]
    fn add_transposed_known_values() {
        // W = [[1, 2], [3, 4], [5, 6]] column by column, g = [1, 0, -1].
        let wt = [1.0, 3.0, 5.0, 2.0, 4.0, 6.0];
        let mut y = [0.5, 0.0];
        add_transposed(&wt, 3, &[1.0, 0.0, -1.0], &mut y);
        assert_eq!(y, [-3.5, -4.0]);
    }

    #[test]
    fn add_transposed_sums_rows_in_order_onto_what_y_holds() {
        // 6 rows of a stride-9 stack (offset 2), 7 columns: a block of four
        // and a tail, each checked against the row-by-row pull-back.
        let (rows, cols, stride, offset) = (6, 7, 9, 2);
        let (_, stacked) = matrix(stride, cols);
        let g: Vec<f64> = (0..rows).map(|r| [0.0, -0.0, 1e-3, -7.5][r % 4]).collect();
        for start in [0.0, -0.0, 2.5] {
            let mut want = vec![start; cols];
            for (r, &gr) in g.iter().enumerate() {
                for (c, v) in want.iter_mut().enumerate() {
                    *v += gr * stacked[c * stride + offset + r];
                }
            }
            let mut got = vec![start; cols];
            add_transposed(&stacked[offset..], stride, &g, &mut got);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "start {start}");
        }
    }

    #[test]
    fn add_products_accumulates_one_product_an_element() {
        // A 3 × 2 gradient in rows 1..4 of a stride-5 stack.
        let mut grad = [0.0; 10];
        for _ in 0..2 {
            add_products(&mut grad[1..], 5, &[1.0, 2.0, 3.0], &[10.0, 20.0]);
        }
        assert_eq!(
            grad,
            [0.0, 20.0, 40.0, 60.0, 0.0, 0.0, 40.0, 80.0, 120.0, 0.0]
        );
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

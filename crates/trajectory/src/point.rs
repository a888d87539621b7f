use serde::{Deserialize, Serialize};

/// A time-stamped 2-D location: the basic element of a trajectory.
///
/// Coordinates are planar (projected) coordinates; the similarity measures in
/// `simsub-measures` use Euclidean distance between the spatial components,
/// matching the paper's `d(p_i, q_j)`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Easting / longitude-like coordinate.
    pub x: f64,
    /// Northing / latitude-like coordinate.
    pub y: f64,
    /// Timestamp in seconds (monotone within a trajectory).
    pub t: f64,
}

impl Point {
    /// Creates a point with an explicit timestamp.
    pub fn new(x: f64, y: f64, t: f64) -> Self {
        Self { x, y, t }
    }

    /// Creates a point at time zero; convenient for purely spatial inputs.
    pub fn xy(x: f64, y: f64) -> Self {
        Self { x, y, t: 0.0 }
    }

    /// Euclidean distance between the spatial components of two points.
    ///
    /// ```
    /// use simsub_trajectory::Point;
    /// let d = Point::xy(0.0, 0.0).dist(Point::xy(3.0, 4.0));
    /// assert!((d - 5.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance; avoids the square root on hot paths
    /// where only comparisons are needed.
    #[inline]
    pub fn dist_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// True when both spatial coordinates and the timestamp are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.t.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dist_is_zero_on_self() {
        let p = Point::new(1.5, -2.0, 7.0);
        assert_eq!(p.dist(p), 0.0);
    }

    #[test]
    fn non_finite_detected() {
        assert!(!Point::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY, 0.0).is_finite());
        assert!(Point::new(0.0, 0.0, 0.0).is_finite());
    }

    proptest! {
        #[test]
        fn dist_symmetric(ax in -1e3..1e3f64, ay in -1e3..1e3f64,
                          bx in -1e3..1e3f64, by in -1e3..1e3f64) {
            let a = Point::xy(ax, ay);
            let b = Point::xy(bx, by);
            prop_assert!((a.dist(b) - b.dist(a)).abs() < 1e-9);
        }

        #[test]
        fn dist_triangle(ax in -1e3..1e3f64, ay in -1e3..1e3f64,
                         bx in -1e3..1e3f64, by in -1e3..1e3f64,
                         cx in -1e3..1e3f64, cy in -1e3..1e3f64) {
            let a = Point::xy(ax, ay);
            let b = Point::xy(bx, by);
            let c = Point::xy(cx, cy);
            prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-9);
        }

        #[test]
        fn dist_sq_consistent(ax in -1e3..1e3f64, ay in -1e3..1e3f64,
                              bx in -1e3..1e3f64, by in -1e3..1e3f64) {
            let a = Point::xy(ax, ay);
            let b = Point::xy(bx, by);
            prop_assert!((a.dist(b).powi(2) - a.dist_sq(b)).abs() < 1e-6);
        }
    }
}

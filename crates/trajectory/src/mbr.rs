use crate::Point;
use serde::{Deserialize, Serialize};

/// Minimum bounding rectangle over the spatial components of points.
///
/// Used by the R-tree index (`simsub-index`) for the MBR-intersection
/// pruning of Section 6.2(4) of the paper, and by the UCR adaptation's
/// `LB_Keogh` envelope, which lower-bounds the distance from a point to a
/// window of query points by the distance to their MBR (Appendix C).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mbr {
    /// Left edge.
    pub min_x: f64,
    /// Bottom edge.
    pub min_y: f64,
    /// Right edge.
    pub max_x: f64,
    /// Top edge.
    pub max_y: f64,
}

impl Mbr {
    /// The empty rectangle: identity element of [`Mbr::union`].
    pub const EMPTY: Mbr = Mbr {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    /// Rectangle covering a single point.
    pub fn of_point(p: Point) -> Self {
        Mbr {
            min_x: p.x,
            min_y: p.y,
            max_x: p.x,
            max_y: p.y,
        }
    }

    /// Tight rectangle over a point sequence; `EMPTY` for no points.
    pub fn of_points(points: &[Point]) -> Self {
        points
            .iter()
            .fold(Mbr::EMPTY, |acc, &p| acc.union(Mbr::of_point(p)))
    }

    /// True when no point has been added.
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Smallest rectangle covering both operands.
    pub fn union(self, other: Mbr) -> Mbr {
        Mbr {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// True when the two rectangles share at least one point
    /// (boundary contact counts as intersection).
    pub fn intersects(&self, other: &Mbr) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// Area of the rectangle (0 for the empty rectangle).
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.max_x - self.min_x) * (self.max_y - self.min_y)
        }
    }

    /// Half-perimeter, used as the R-tree split goodness metric.
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.max_x - self.min_x) + (self.max_y - self.min_y)
        }
    }

    /// Increase in area caused by enlarging `self` to cover `other`;
    /// the classic Guttman insertion heuristic.
    pub fn enlargement(&self, other: Mbr) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Shortest Euclidean distance between any point of `self` and any
    /// point of `other` (0 when they intersect; `INFINITY` when either is
    /// empty). Lower-bounds the distance between any pair of points drawn
    /// from the two rectangles — the O(1) "Kim-style" screen of the
    /// corpus-scan bound cascade in `simsub_core::bounds`.
    pub fn min_dist_mbr(&self, other: &Mbr) -> f64 {
        if self.is_empty() || other.is_empty() {
            return f64::INFINITY;
        }
        let dx = (other.min_x - self.max_x)
            .max(self.min_x - other.max_x)
            .max(0.0);
        let dy = (other.min_y - self.max_y)
            .max(self.min_y - other.max_y)
            .max(0.0);
        (dx * dx + dy * dy).sqrt()
    }

    /// Shortest Euclidean distance from `p` to the rectangle
    /// (0 when `p` is inside). This is the `d(p, MBR(..))` term of the
    /// adapted `LB_Keogh` bound in Appendix C.
    pub fn min_dist(&self, p: Point) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::xy(x, y)).collect()
    }

    #[test]
    fn empty_behaviour() {
        assert!(Mbr::EMPTY.is_empty());
        assert_eq!(Mbr::EMPTY.area(), 0.0);
        assert!(!Mbr::EMPTY.intersects(&Mbr::of_point(Point::xy(0.0, 0.0))));
        assert_eq!(Mbr::of_points(&[]), Mbr::EMPTY);
    }

    #[test]
    fn of_points_is_tight() {
        let m = Mbr::of_points(&pts(&[(1.0, 5.0), (-2.0, 3.0), (4.0, -1.0)]));
        assert_eq!(m.min_x, -2.0);
        assert_eq!(m.max_x, 4.0);
        assert_eq!(m.min_y, -1.0);
        assert_eq!(m.max_y, 5.0);
    }

    #[test]
    fn min_dist_inside_is_zero() {
        let m = Mbr::of_points(&pts(&[(0.0, 0.0), (10.0, 10.0)]));
        assert_eq!(m.min_dist(Point::xy(5.0, 5.0)), 0.0);
        assert_eq!(m.min_dist(Point::xy(0.0, 10.0)), 0.0);
        // Outside along x only.
        assert!((m.min_dist(Point::xy(13.0, 5.0)) - 3.0).abs() < 1e-12);
        // Outside diagonally.
        assert!((m.min_dist(Point::xy(13.0, 14.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn intersection_boundary_counts() {
        let a = Mbr::of_points(&pts(&[(0.0, 0.0), (1.0, 1.0)]));
        let b = Mbr::of_points(&pts(&[(1.0, 1.0), (2.0, 2.0)]));
        let c = Mbr::of_points(&pts(&[(1.1, 1.1), (2.0, 2.0)]));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn degenerate_boxes_intersect_what_they_touch() {
        let point = Mbr::of_point(Point::xy(1.0, 1.0));
        let horizontal = Mbr::of_points(&pts(&[(0.0, 1.0), (2.0, 1.0)]));
        let vertical = Mbr::of_points(&pts(&[(1.0, 0.0), (1.0, 2.0)]));
        let parallel = Mbr::of_points(&pts(&[(0.0, 1.5), (2.0, 1.5)]));
        assert!(point.intersects(&point), "a point meets itself");
        assert!(point.intersects(&horizontal) && horizontal.intersects(&point));
        assert!(horizontal.intersects(&vertical), "crossing segments");
        assert!(!horizontal.intersects(&parallel), "parallel segments");
        // A segment ending on another's line meets it; one stopping short
        // does not.
        let reaching = Mbr::of_points(&pts(&[(1.5, 1.0), (1.5, 3.0)]));
        let short = Mbr::of_points(&pts(&[(1.5, 1.0 + 1e-12), (1.5, 3.0)]));
        assert!(horizontal.intersects(&reaching));
        assert!(!horizontal.intersects(&short));
        assert!(!point.intersects(&Mbr::EMPTY) && !Mbr::EMPTY.intersects(&point));
    }

    proptest! {
        #[test]
        fn union_covers_both(
            xs in proptest::collection::vec((-1e3..1e3f64, -1e3..1e3f64), 1..20),
            ys in proptest::collection::vec((-1e3..1e3f64, -1e3..1e3f64), 1..20),
        ) {
            let a = Mbr::of_points(&pts(&xs));
            let b = Mbr::of_points(&pts(&ys));
            let u = a.union(b);
            for &(x, y) in xs.iter().chain(ys.iter()) {
                prop_assert!(u.min_x <= x && x <= u.max_x && u.min_y <= y && y <= u.max_y);
            }
            prop_assert!(u.area() + 1e-9 >= a.area());
            prop_assert!(u.area() + 1e-9 >= b.area());
        }

        #[test]
        fn min_dist_lower_bounds_point_dists(
            xs in proptest::collection::vec((-1e2..1e2f64, -1e2..1e2f64), 1..20),
            px in -2e2..2e2f64, py in -2e2..2e2f64,
        ) {
            let points = pts(&xs);
            let m = Mbr::of_points(&points);
            let p = Point::xy(px, py);
            let lb = m.min_dist(p);
            for q in &points {
                prop_assert!(lb <= p.dist(*q) + 1e-9,
                    "MBR min_dist {lb} must lower-bound point distance {}", p.dist(*q));
            }
        }

        #[test]
        fn min_dist_mbr_lower_bounds_cross_point_dists(
            xs in proptest::collection::vec((-1e2..1e2f64, -1e2..1e2f64), 1..15),
            ys in proptest::collection::vec((-1e2..1e2f64, -1e2..1e2f64), 1..15),
        ) {
            let (a, b) = (pts(&xs), pts(&ys));
            let (ma, mb) = (Mbr::of_points(&a), Mbr::of_points(&b));
            let lb = ma.min_dist_mbr(&mb);
            prop_assert_eq!(lb.to_bits(), mb.min_dist_mbr(&ma).to_bits());
            if ma.intersects(&mb) {
                prop_assert_eq!(lb, 0.0);
            }
            for p in &a {
                for q in &b {
                    prop_assert!(lb <= p.dist(*q) + 1e-9);
                }
                // Consistent with the point-to-rect distance too.
                prop_assert!(lb <= mb.min_dist(*p) + 1e-9);
            }
        }

        #[test]
        fn enlargement_nonnegative(
            xs in proptest::collection::vec((-1e2..1e2f64, -1e2..1e2f64), 1..10),
            ys in proptest::collection::vec((-1e2..1e2f64, -1e2..1e2f64), 1..10),
        ) {
            let a = Mbr::of_points(&pts(&xs));
            let b = Mbr::of_points(&pts(&ys));
            prop_assert!(a.enlargement(b) >= -1e-9);
        }
    }
}

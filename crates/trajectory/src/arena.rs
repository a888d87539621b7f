//! Columnar (structure-of-arrays) corpus storage — the memory layout of
//! the scan hot path.
//!
//! A [`CorpusArena`] stores every trajectory of a corpus in **one
//! contiguous slab per coordinate** (`xs`, `ys`, `ts`), an offsets table
//! delimiting trajectories, an id table, and a **precomputed per-trajectory
//! MBR table**. Compared to one `Vec<Point>` per trajectory
//! (array-of-structs, one heap allocation each), this layout:
//!
//! - keeps the whole corpus cache-line-friendly and prefetchable (a scan
//!   walks three dense `f64` streams instead of 24-byte `Point` strides
//!   scattered across the heap),
//! - lets the DP measure kernels consume raw coordinate slices
//!   (`simsub_measures` auto-vectorizes over them),
//! - makes per-trajectory MBRs an O(1) table read instead of an O(n)
//!   recomputation per scan, and
//! - is exactly the on-disk layout of the packed binary corpus format
//!   (`simsub_data::bin_io`), so reloading a packed corpus is one streaming
//!   pass + validation instead of a CSV re-parse.
//!
//! A [`TrajView`] is the borrowed, zero-copy window into one trajectory
//! (or any contiguous subrange of it) — the currency of the search hot
//! path, replacing `&[Point]` there. The AoS [`Trajectory`] remains the
//! construction/IO currency; `CorpusArena::from_trajectories` is a
//! bit-exact copy (coordinates keep their exact bit patterns, MBRs are
//! computed by the same fold as [`Trajectory::mbr`]), so arena-backed
//! scans return byte-identical answers to the pre-arena paths
//! (`tests/layout_equivalence.rs`).

use crate::{Mbr, Point, SubtrajRange, Trajectory};

/// Errors produced when assembling an arena from raw slabs (the binary
/// corpus loader's validation surface).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArenaError {
    /// The coordinate slabs have differing lengths.
    SlabMismatch,
    /// The offsets table is malformed: must start at 0, be strictly
    /// increasing (no empty trajectories), and end at the slab length.
    BadOffsets,
    /// The id table length disagrees with the offsets table.
    IdCountMismatch,
    /// A trajectory id appears twice.
    DuplicateId(u64),
    /// A coordinate or timestamp is NaN/infinite (global point index).
    NonFinitePoint(usize),
    /// Timestamps regress within a trajectory (global point index).
    TimeNotMonotone(usize),
}

impl std::fmt::Display for ArenaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArenaError::SlabMismatch => write!(f, "coordinate slabs have differing lengths"),
            ArenaError::BadOffsets => write!(
                f,
                "offsets must start at 0, increase strictly, and end at the point count"
            ),
            ArenaError::IdCountMismatch => {
                write!(f, "id table length disagrees with the offsets table")
            }
            ArenaError::DuplicateId(id) => write!(f, "duplicate trajectory id {id}"),
            ArenaError::NonFinitePoint(i) => {
                write!(f, "non-finite coordinate or timestamp at point {i}")
            }
            ArenaError::TimeNotMonotone(i) => {
                write!(
                    f,
                    "timestamps must be non-decreasing (violated at point {i})"
                )
            }
        }
    }
}

impl std::error::Error for ArenaError {}

/// Uniform read access over the two point-sequence representations the
/// search algorithms accept: AoS slices (`&[Point]`) and columnar
/// [`TrajView`]s. Search bodies are generic over this trait so the
/// public AoS entry points and the arena-backed scan path share one
/// implementation (and therefore stay bitwise identical by construction).
pub trait PointSeq: Copy {
    /// Number of points.
    fn seq_len(&self) -> usize;

    /// The `i`-th point.
    fn seq_point(&self, i: usize) -> Point;

    /// True when the sequence holds no points.
    fn seq_is_empty(&self) -> bool {
        self.seq_len() == 0
    }
}

impl PointSeq for &[Point] {
    #[inline]
    fn seq_len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn seq_point(&self, i: usize) -> Point {
        self[i]
    }
}

impl PointSeq for TrajView<'_> {
    #[inline]
    fn seq_len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn seq_point(&self, i: usize) -> Point {
        self.point(i)
    }
}

/// Borrowed columnar view of one trajectory (or a contiguous subrange):
/// the zero-copy currency of the scan hot path.
#[derive(Debug, Clone, Copy)]
pub struct TrajView<'a> {
    /// Stable id of the trajectory this view belongs to.
    pub id: u64,
    xs: &'a [f64],
    ys: &'a [f64],
    ts: &'a [f64],
}

impl<'a> TrajView<'a> {
    /// Assembles a view from coordinate slices of equal length.
    pub fn new(id: u64, xs: &'a [f64], ys: &'a [f64], ts: &'a [f64]) -> Self {
        assert!(
            xs.len() == ys.len() && xs.len() == ts.len(),
            "coordinate slices must have equal lengths"
        );
        Self { id, xs, ys, ts }
    }

    /// Number of points in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when the view holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The `i`-th point, materialized from the coordinate slabs. The bit
    /// patterns are exactly those of the `Point` the arena was built from.
    #[inline]
    pub fn point(&self, i: usize) -> Point {
        Point::new(self.xs[i], self.ys[i], self.ts[i])
    }

    /// The x-coordinate slice.
    #[inline]
    pub fn xs(&self) -> &'a [f64] {
        self.xs
    }

    /// The y-coordinate slice.
    #[inline]
    pub fn ys(&self) -> &'a [f64] {
        self.ys
    }

    /// The timestamp slice.
    #[inline]
    pub fn ts(&self) -> &'a [f64] {
        self.ts
    }

    /// Zero-copy view of the subtrajectory `T[r.start, r.end]`.
    pub fn sub(&self, r: SubtrajRange) -> TrajView<'a> {
        TrajView {
            id: self.id,
            xs: &self.xs[r.start..=r.end],
            ys: &self.ys[r.start..=r.end],
            ts: &self.ts[r.start..=r.end],
        }
    }

    /// Materializes the view as owned AoS points (bit-exact copies).
    pub fn to_points(&self) -> Vec<Point> {
        (0..self.len()).map(|i| self.point(i)).collect()
    }

    /// Minimum bounding rectangle of the viewed points, computed by the
    /// same fold as [`Mbr::of_points`] (bitwise identical). Whole-corpus
    /// scans should read [`CorpusArena::mbr`] instead — that table is
    /// precomputed once at arena construction.
    pub fn mbr(&self) -> Mbr {
        (0..self.len()).fold(Mbr::EMPTY, |acc, i| acc.union(Mbr::of_point(self.point(i))))
    }
}

/// One contiguous SoA slab per corpus: the columnar point store behind
/// [`crate::Trajectory`]-built databases and the packed binary corpus
/// format. See the module docs for the layout rationale.
#[derive(Debug, Clone, Default)]
pub struct CorpusArena {
    xs: Vec<f64>,
    ys: Vec<f64>,
    ts: Vec<f64>,
    /// `offsets[s]..offsets[s + 1]` delimits trajectory `s` in the slabs;
    /// `len() + 1` entries, starting at 0, strictly increasing.
    offsets: Vec<usize>,
    ids: Vec<u64>,
    /// Per-trajectory MBRs, precomputed once — scans read this table
    /// instead of re-deriving MBRs from the points (an O(n) pass).
    mbrs: Vec<Mbr>,
}

impl CorpusArena {
    /// An arena holding no trajectories.
    pub fn empty() -> Self {
        Self {
            offsets: vec![0],
            ..Self::default()
        }
    }

    /// Builds the arena from AoS trajectories: coordinates are copied
    /// bit-exactly into the slabs and MBRs are computed by the same fold
    /// as [`Trajectory::mbr`]. Duplicate ids are *not* rejected here —
    /// database builders assert them, the binary loader validates them
    /// ([`CorpusArena::from_raw_slabs`]).
    pub fn from_trajectories(trajs: &[Trajectory]) -> Self {
        let total: usize = trajs.iter().map(Trajectory::len).sum();
        let mut arena = Self {
            xs: Vec::with_capacity(total),
            ys: Vec::with_capacity(total),
            ts: Vec::with_capacity(total),
            offsets: Vec::with_capacity(trajs.len() + 1),
            ids: Vec::with_capacity(trajs.len()),
            mbrs: Vec::with_capacity(trajs.len()),
        };
        arena.offsets.push(0);
        for t in trajs {
            for p in t.points() {
                arena.xs.push(p.x);
                arena.ys.push(p.y);
                arena.ts.push(p.t);
            }
            arena.offsets.push(arena.xs.len());
            arena.ids.push(t.id);
            arena.mbrs.push(t.mbr());
        }
        arena
    }

    /// Assembles an arena from raw slabs — the binary corpus loader's
    /// entry point. Validates everything the [`Trajectory`] invariants
    /// guarantee for the AoS path (plus corpus-wide id uniqueness), so a
    /// corrupt or hand-crafted file can never produce an arena the search
    /// algorithms would misbehave on. MBRs are recomputed here rather
    /// than trusted from the file.
    pub fn from_raw_slabs(
        ids: Vec<u64>,
        offsets: Vec<usize>,
        xs: Vec<f64>,
        ys: Vec<f64>,
        ts: Vec<f64>,
    ) -> Result<Self, ArenaError> {
        if xs.len() != ys.len() || xs.len() != ts.len() {
            return Err(ArenaError::SlabMismatch);
        }
        if offsets.len() != ids.len() + 1 {
            return Err(ArenaError::IdCountMismatch);
        }
        if offsets.first() != Some(&0) || *offsets.last().expect("non-empty offsets") != xs.len() {
            return Err(ArenaError::BadOffsets);
        }
        if offsets.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ArenaError::BadOffsets);
        }
        let mut seen = std::collections::HashSet::with_capacity(ids.len());
        for &id in &ids {
            if !seen.insert(id) {
                return Err(ArenaError::DuplicateId(id));
            }
        }
        for i in 0..xs.len() {
            if !(xs[i].is_finite() && ys[i].is_finite() && ts[i].is_finite()) {
                return Err(ArenaError::NonFinitePoint(i));
            }
        }
        for w in offsets.windows(2) {
            for i in w[0] + 1..w[1] {
                if ts[i] < ts[i - 1] {
                    return Err(ArenaError::TimeNotMonotone(i));
                }
            }
        }
        let mut arena = Self {
            xs,
            ys,
            ts,
            offsets,
            ids,
            mbrs: Vec::new(),
        };
        arena.mbrs = (0..arena.len()).map(|s| arena.view(s).mbr()).collect();
        Ok(arena)
    }

    /// Number of trajectories.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the arena holds no trajectories.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Total points across all trajectories.
    #[inline]
    pub fn total_points(&self) -> usize {
        self.xs.len()
    }

    /// Borrowed view of trajectory `slot` (its position in the arena).
    #[inline]
    pub fn view(&self, slot: usize) -> TrajView<'_> {
        let (a, b) = (self.offsets[slot], self.offsets[slot + 1]);
        TrajView {
            id: self.ids[slot],
            xs: &self.xs[a..b],
            ys: &self.ys[a..b],
            ts: &self.ts[a..b],
        }
    }

    /// Id of trajectory `slot`.
    #[inline]
    pub fn id(&self, slot: usize) -> u64 {
        self.ids[slot]
    }

    /// Precomputed MBR of trajectory `slot` (bitwise equal to
    /// [`Trajectory::mbr`] of the source trajectory).
    #[inline]
    pub fn mbr(&self, slot: usize) -> &Mbr {
        &self.mbrs[slot]
    }

    /// The id table, in slot order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The precomputed MBR table, in slot order.
    pub fn mbrs(&self) -> &[Mbr] {
        &self.mbrs
    }

    /// The offsets table (`len() + 1` entries).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The x-coordinate slab.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y-coordinate slab.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The timestamp slab.
    pub fn ts(&self) -> &[f64] {
        &self.ts
    }

    /// Iterates over all trajectory views in slot order.
    pub fn iter(&self) -> impl Iterator<Item = TrajView<'_>> {
        (0..self.len()).map(|s| self.view(s))
    }

    /// A new arena holding the listed slots (in the given order) — the
    /// per-shard sub-arena builder. Slabs are copied contiguously, so
    /// each shard keeps the full locality story.
    pub fn gather(&self, slots: &[usize]) -> CorpusArena {
        let total: usize = slots
            .iter()
            .map(|&s| self.offsets[s + 1] - self.offsets[s])
            .sum();
        let mut out = Self {
            xs: Vec::with_capacity(total),
            ys: Vec::with_capacity(total),
            ts: Vec::with_capacity(total),
            offsets: Vec::with_capacity(slots.len() + 1),
            ids: Vec::with_capacity(slots.len()),
            mbrs: Vec::with_capacity(slots.len()),
        };
        out.offsets.push(0);
        for &s in slots {
            let (a, b) = (self.offsets[s], self.offsets[s + 1]);
            out.xs.extend_from_slice(&self.xs[a..b]);
            out.ys.extend_from_slice(&self.ys[a..b]);
            out.ts.extend_from_slice(&self.ts[a..b]);
            out.offsets.push(out.xs.len());
            out.ids.push(self.ids[s]);
            out.mbrs.push(self.mbrs[s]);
        }
        out
    }

    /// Materializes the arena back into owned AoS trajectories
    /// (bit-exact round trip; used by tooling and format converters).
    pub fn to_trajectories(&self) -> Vec<Trajectory> {
        self.iter()
            .map(|v| Trajectory::new_unchecked(v.id, v.to_points()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(id: u64, pts: &[(f64, f64, f64)]) -> Trajectory {
        Trajectory::new_unchecked(
            id,
            pts.iter().map(|&(x, y, t)| Point::new(x, y, t)).collect(),
        )
    }

    fn corpus() -> Vec<Trajectory> {
        vec![
            traj(7, &[(0.0, 1.0, 0.0), (2.0, -1.0, 1.0), (4.0, 0.5, 2.0)]),
            traj(3, &[(10.0, 10.0, 0.0)]),
            traj(9, &[(-5.0, 2.0, 0.0), (-6.0, 3.0, 4.0)]),
        ]
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let trajs = corpus();
        let arena = CorpusArena::from_trajectories(&trajs);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.total_points(), 6);
        for (slot, t) in trajs.iter().enumerate() {
            let v = arena.view(slot);
            assert_eq!(v.id, t.id);
            assert_eq!(v.len(), t.len());
            for (i, p) in t.points().iter().enumerate() {
                let q = v.point(i);
                assert_eq!(p.x.to_bits(), q.x.to_bits());
                assert_eq!(p.y.to_bits(), q.y.to_bits());
                assert_eq!(p.t.to_bits(), q.t.to_bits());
            }
            assert_eq!(arena.mbr(slot), &t.mbr(), "precomputed MBR table");
        }
        let back = arena.to_trajectories();
        assert_eq!(back, trajs);
    }

    #[test]
    fn views_slice_zero_copy() {
        let trajs = corpus();
        let arena = CorpusArena::from_trajectories(&trajs);
        let v = arena.view(0);
        let sub = v.sub(SubtrajRange::new(1, 2));
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.point(0).x, 2.0);
        assert_eq!(sub.point(1).x, 4.0);
        assert_eq!(sub.to_points(), &trajs[0].points()[1..=2]);
        // PointSeq agreement between AoS and the view.
        let pts = trajs[0].points();
        assert_eq!(pts.seq_len(), v.seq_len());
        for i in 0..pts.seq_len() {
            assert_eq!(pts.seq_point(i), v.seq_point(i));
        }
    }

    #[test]
    fn gather_builds_sub_arenas() {
        let arena = CorpusArena::from_trajectories(&corpus());
        let sub = arena.gather(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.id(0), 9);
        assert_eq!(sub.id(1), 7);
        assert_eq!(sub.total_points(), 5);
        assert_eq!(sub.view(1).to_points(), arena.view(0).to_points());
        assert_eq!(sub.mbr(0), arena.mbr(2));
        let none = arena.gather(&[]);
        assert!(none.is_empty());
        assert_eq!(none.offsets(), &[0]);
    }

    #[test]
    fn raw_slabs_round_trip_and_validate() {
        let arena = CorpusArena::from_trajectories(&corpus());
        let rebuilt = CorpusArena::from_raw_slabs(
            arena.ids().to_vec(),
            arena.offsets().to_vec(),
            arena.xs().to_vec(),
            arena.ys().to_vec(),
            arena.ts().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt.to_trajectories(), arena.to_trajectories());
        for s in 0..arena.len() {
            assert_eq!(rebuilt.mbr(s), arena.mbr(s), "recomputed MBRs agree");
        }

        let bad = |ids: Vec<u64>, offsets: Vec<usize>, xs: Vec<f64>, ys: Vec<f64>, ts: Vec<f64>| {
            CorpusArena::from_raw_slabs(ids, offsets, xs, ys, ts).unwrap_err()
        };
        assert_eq!(
            bad(
                vec![1],
                vec![0, 2],
                vec![0.0, 1.0],
                vec![0.0],
                vec![0.0, 0.0]
            ),
            ArenaError::SlabMismatch
        );
        assert_eq!(
            bad(
                vec![1],
                vec![0, 1],
                vec![0.0, 1.0],
                vec![0.0, 0.0],
                vec![0.0, 0.0]
            ),
            ArenaError::BadOffsets
        );
        assert_eq!(
            bad(vec![1, 2], vec![0, 1, 1], vec![0.0], vec![0.0], vec![0.0]),
            ArenaError::BadOffsets,
        );
        assert_eq!(
            bad(
                vec![1],
                vec![0, 1, 2],
                vec![0.0, 1.0],
                vec![0.0, 0.0],
                vec![0.0, 0.0]
            ),
            ArenaError::IdCountMismatch
        );
        assert_eq!(
            bad(
                vec![5, 5],
                vec![0, 1, 2],
                vec![0.0, 1.0],
                vec![0.0, 0.0],
                vec![0.0, 0.0]
            ),
            ArenaError::DuplicateId(5)
        );
        assert_eq!(
            bad(vec![1], vec![0, 1], vec![f64::NAN], vec![0.0], vec![0.0]),
            ArenaError::NonFinitePoint(0)
        );
        assert_eq!(
            bad(
                vec![1],
                vec![0, 2],
                vec![0.0, 1.0],
                vec![0.0, 0.0],
                vec![5.0, 4.0]
            ),
            ArenaError::TimeNotMonotone(1)
        );
    }

    #[test]
    fn empty_arena() {
        let arena = CorpusArena::empty();
        assert!(arena.is_empty());
        assert_eq!(arena.total_points(), 0);
        assert_eq!(arena.iter().count(), 0);
        let from_raw =
            CorpusArena::from_raw_slabs(vec![], vec![0], vec![], vec![], vec![]).unwrap();
        assert!(from_raw.is_empty());
        assert_eq!(
            CorpusArena::from_trajectories(&[]).offsets(),
            arena.offsets()
        );
    }
}

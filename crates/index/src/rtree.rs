//! A classic Guttman R-tree (quadratic split) storing `(Mbr, u64)` entries.
//!
//! Kept deliberately standard: least-enlargement descent for inserts,
//! quadratic pick-seeds / pick-next splitting, recursive intersection
//! queries. Trajectory databases in the experiments are static after
//! loading, but inserts are incremental so the index also serves streaming
//! ingestion.

use simsub_trajectory::Mbr;

/// Maximum entries per node before a split.
const MAX_ENTRIES: usize = 16;
/// Minimum entries a split may leave in a node.
const MIN_ENTRIES: usize = 6;

#[derive(Debug, Clone)]
enum Node {
    Leaf(Vec<(Mbr, u64)>),
    Internal(Vec<(Mbr, Box<Node>)>),
}

impl Node {
    fn mbr(&self) -> Mbr {
        match self {
            Node::Leaf(entries) => entries.iter().fold(Mbr::EMPTY, |acc, (m, _)| acc.union(*m)),
            Node::Internal(children) => children
                .iter()
                .fold(Mbr::EMPTY, |acc, (m, _)| acc.union(*m)),
        }
    }
}

/// An R-tree over 2-D rectangles with `u64` payloads ([`crate::TrajectoryDb`]
/// stores arena slots).
#[derive(Debug, Clone)]
pub struct RTree {
    root: Node,
    len: usize,
}

impl Default for RTree {
    fn default() -> Self {
        Self::new()
    }
}

impl RTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self {
            root: Node::Leaf(Vec::new()),
            len: 0,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry. Empty rectangles are rejected.
    pub fn insert(&mut self, mbr: Mbr, id: u64) {
        assert!(!mbr.is_empty(), "cannot index an empty MBR");
        if let Some((left, right)) = insert_rec(&mut self.root, mbr, id) {
            // Root split: grow the tree by one level.
            let old_root = std::mem::replace(&mut self.root, Node::Leaf(Vec::new()));
            drop(old_root); // fully replaced by the two halves below
            self.root = Node::Internal(vec![
                (left.mbr(), Box::new(left)),
                (right.mbr(), Box::new(right)),
            ]);
        }
        self.len += 1;
    }

    /// Payloads of all entries whose MBR intersects `query`
    /// (boundary contact counts).
    pub fn query_intersecting(&self, query: &Mbr) -> Vec<u64> {
        let mut out = Vec::new();
        collect(&self.root, query, &mut out);
        out
    }

    /// Height of the tree (1 for a sole leaf); exposed for tests and
    /// diagnostics.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &self.root;
        while let Node::Internal(children) = node {
            h += 1;
            node = &children[0].1;
        }
        h
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        fn walk(node: &Node, is_root: bool, depth: usize, leaf_depth: &mut Option<usize>) -> Mbr {
            match node {
                Node::Leaf(entries) => {
                    match leaf_depth {
                        Some(d) => assert_eq!(*d, depth, "leaves at different depths"),
                        None => *leaf_depth = Some(depth),
                    }
                    assert!(entries.len() <= MAX_ENTRIES);
                    node.mbr()
                }
                Node::Internal(children) => {
                    assert!(children.len() <= MAX_ENTRIES);
                    if !is_root {
                        assert!(children.len() >= MIN_ENTRIES.min(2));
                    }
                    let mut acc = Mbr::EMPTY;
                    for (m, child) in children {
                        let real = walk(child, false, depth + 1, leaf_depth);
                        // Stored MBR must cover the child's true MBR.
                        assert!(m.union(real) == *m, "stale child MBR");
                        acc = acc.union(*m);
                    }
                    acc
                }
            }
        }
        let mut leaf_depth = None;
        walk(&self.root, true, 0, &mut leaf_depth);
    }
}

/// Recursive insert. Returns `Some((left, right))` when the node split.
fn insert_rec(node: &mut Node, mbr: Mbr, id: u64) -> Option<(Node, Node)> {
    match node {
        Node::Leaf(entries) => {
            entries.push((mbr, id));
            if entries.len() > MAX_ENTRIES {
                let (a, b) = quadratic_split(std::mem::take(entries));
                Some((Node::Leaf(a), Node::Leaf(b)))
            } else {
                None
            }
        }
        Node::Internal(children) => {
            // ChooseSubtree: least enlargement, ties by smaller area.
            let mut best = 0;
            let mut best_enl = f64::INFINITY;
            let mut best_area = f64::INFINITY;
            for (i, (m, _)) in children.iter().enumerate() {
                let enl = m.enlargement(mbr);
                let area = m.area();
                if enl < best_enl - 1e-12 || (enl <= best_enl + 1e-12 && area < best_area) {
                    best = i;
                    best_enl = enl;
                    best_area = area;
                }
            }
            let split = insert_rec(&mut children[best].1, mbr, id);
            children[best].0 = children[best].1.mbr();
            if let Some((left, right)) = split {
                children[best] = (left.mbr(), Box::new(left));
                children.push((right.mbr(), Box::new(right)));
                if children.len() > MAX_ENTRIES {
                    let (a, b) = quadratic_split(std::mem::take(children));
                    return Some((Node::Internal(a), Node::Internal(b)));
                }
            }
            None
        }
    }
}

/// The two halves produced by a node split.
type SplitGroups<T> = (Vec<(Mbr, T)>, Vec<(Mbr, T)>);

/// Guttman's quadratic split over any entry type carrying an MBR.
fn quadratic_split<T>(mut entries: Vec<(Mbr, T)>) -> SplitGroups<T> {
    debug_assert!(entries.len() >= 2);
    // PickSeeds: the pair wasting the most area if grouped together.
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in i + 1..entries.len() {
            let waste =
                entries[i].0.union(entries[j].0).area() - entries[i].0.area() - entries[j].0.area();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }
    // Remove the later index first so the earlier stays valid.
    let b_entry = entries.swap_remove(seed_b.max(seed_a));
    let a_entry = entries.swap_remove(seed_b.min(seed_a));
    let mut group_a = vec![a_entry];
    let mut group_b = vec![b_entry];
    let mut mbr_a = group_a[0].0;
    let mut mbr_b = group_b[0].0;

    while let Some(next) = pick_next(&entries, mbr_a, mbr_b) {
        let entry = entries.swap_remove(next);
        // Force-assign when one group must absorb everything remaining to
        // reach MIN_ENTRIES.
        let remaining = entries.len() + 1;
        if group_a.len() + remaining <= MIN_ENTRIES {
            mbr_a = mbr_a.union(entry.0);
            group_a.push(entry);
            continue;
        }
        if group_b.len() + remaining <= MIN_ENTRIES {
            mbr_b = mbr_b.union(entry.0);
            group_b.push(entry);
            continue;
        }
        let enl_a = mbr_a.enlargement(entry.0);
        let enl_b = mbr_b.enlargement(entry.0);
        let to_a = enl_a < enl_b
            || (enl_a == enl_b && mbr_a.area() < mbr_b.area())
            || (enl_a == enl_b && mbr_a.area() == mbr_b.area() && group_a.len() <= group_b.len());
        if to_a {
            mbr_a = mbr_a.union(entry.0);
            group_a.push(entry);
        } else {
            mbr_b = mbr_b.union(entry.0);
            group_b.push(entry);
        }
    }
    (group_a, group_b)
}

/// PickNext: the entry with the greatest difference of enlargements —
/// the most "decided" one. Returns `None` when no entries remain.
fn pick_next<T>(entries: &[(Mbr, T)], mbr_a: Mbr, mbr_b: Mbr) -> Option<usize> {
    entries
        .iter()
        .enumerate()
        .max_by(|(_, x), (_, y)| {
            let dx = (mbr_a.enlargement(x.0) - mbr_b.enlargement(x.0)).abs();
            let dy = (mbr_a.enlargement(y.0) - mbr_b.enlargement(y.0)).abs();
            dx.total_cmp(&dy)
        })
        .map(|(i, _)| i)
}

fn collect(node: &Node, query: &Mbr, out: &mut Vec<u64>) {
    match node {
        Node::Leaf(entries) => {
            for (m, id) in entries {
                if m.intersects(query) {
                    out.push(*id);
                }
            }
        }
        Node::Internal(children) => {
            for (m, child) in children {
                if m.intersects(query) {
                    collect(child, query, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mbr(rng: &mut StdRng) -> Mbr {
        let x = rng.gen_range(-100.0..100.0);
        let y = rng.gen_range(-100.0..100.0);
        let w = rng.gen_range(0.0..20.0);
        let h = rng.gen_range(0.0..20.0);
        Mbr {
            min_x: x,
            min_y: y,
            max_x: x + w,
            max_y: y + h,
        }
    }

    #[test]
    fn empty_tree_queries_nothing() {
        let tree = RTree::new();
        assert!(tree.is_empty());
        let q = Mbr {
            min_x: -1e9,
            min_y: -1e9,
            max_x: 1e9,
            max_y: 1e9,
        };
        assert!(tree.query_intersecting(&q).is_empty());
    }

    #[test]
    fn grows_in_height_and_keeps_invariants() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut tree = RTree::new();
        for id in 0..500u64 {
            tree.insert(random_mbr(&mut rng), id);
            if id % 97 == 0 {
                tree.check_invariants();
            }
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 500);
        assert!(tree.height() >= 2, "tree should have split");
        // Every entry is findable with a universal query.
        let q = Mbr {
            min_x: -1e9,
            min_y: -1e9,
            max_x: 1e9,
            max_y: 1e9,
        };
        let mut all = tree.query_intersecting(&q);
        all.sort_unstable();
        assert_eq!(all, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn identical_degenerate_mbrs_survive_splits_and_are_all_found() {
        use simsub_trajectory::Point;
        // Every split of a node full of one box must keep each id exactly
        // once; a point and a segment are the degenerate boxes corpora
        // produce.
        let (x, y) = (3.0, -2.0);
        for (min_x, max_x) in [(x, x), (x - 4.0, x)] {
            let m = Mbr::of_points(&[Point::xy(min_x, y), Point::xy(max_x, y)]);
            let mut tree = RTree::new();
            (0..200u64).for_each(|id| tree.insert(m, id));
            tree.check_invariants();
            assert!(tree.height() >= 2, "tree should have split");
            let mut got = tree.query_intersecting(&m);
            got.sort_unstable();
            assert_eq!(got, (0..200).collect::<Vec<_>>());
            let beside = Mbr::of_points(&[Point::xy(x + 1e-9, y), Point::xy(x + 1.0, y)]);
            assert!(tree.query_intersecting(&beside).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "cannot index an empty MBR")]
    fn empty_mbr_rejected() {
        let mut tree = RTree::new();
        tree.insert(Mbr::EMPTY, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn query_matches_linear_scan(seed in 0u64..500, count in 1usize..120) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tree = RTree::new();
            let mut reference = Vec::new();
            for id in 0..count as u64 {
                let m = random_mbr(&mut rng);
                tree.insert(m, id);
                reference.push((m, id));
            }
            for _ in 0..10 {
                let q = random_mbr(&mut rng);
                let mut got = tree.query_intersecting(&q);
                got.sort_unstable();
                let mut want: Vec<u64> = reference
                    .iter()
                    .filter(|(m, _)| m.intersects(&q))
                    .map(|&(_, id)| id)
                    .collect();
                want.sort_unstable();
                prop_assert_eq!(&got, &want);
            }
        }
    }
}

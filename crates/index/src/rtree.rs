//! An R-tree storing `(Mbr, u64)` entries, built in one
//! sort-tile-recursive (STR) pack and grown by Guttman inserts.
//!
//! Every [`crate::TrajectoryDb`] is bulk-loaded ([`RTree::bulk_load`]):
//! sort the boxes by centre x, cut them into vertical slices, sort each
//! slice by centre y and cut it into balanced nodes, then pack those
//! nodes the same way one level up until one root is left.
//! [`RTree::insert`] is the incremental path, kept deliberately
//! standard: least-enlargement descent and quadratic pick-seeds /
//! pick-next splitting. Queries are recursive intersection walks, and
//! their answer — the set of intersecting payloads — does not depend on
//! how the tree was built.

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

    /// A tree over `mbrs` whose payloads are their indices (a
    /// [`crate::TrajectoryDb`]'s arena slots), built in one
    /// sort-tile-recursive pack.
    ///
    /// Each level sorts its boxes by centre x, cuts them into
    /// ⌈√(n / 16)⌉ balanced vertical slices, sorts each slice by centre y
    /// and cuts it into balanced nodes of at most 16 entries; the nodes
    /// are the next level's boxes, until one root is left. Every leaf is
    /// at one depth and every node but the root holds 8 to 16 entries
    /// (an insert's split may leave 6). The leaf level sorts indices
    /// against `mbrs`, so the build copies no box but into its leaf.
    /// Empty rectangles are rejected, as [`RTree::insert`] rejects them.
    pub fn bulk_load(mbrs: &[Mbr]) -> Self {
        assert!(
            mbrs.iter().all(|mbr| !mbr.is_empty()),
            "cannot index an empty MBR"
        );
        let slots = (0..mbrs.len()).collect();
        let mut level = str_pack(slots, |&slot| mbrs[slot], |slot| slot as u64, Node::Leaf);
        while level.len() > 1 {
            let boxed = |(_, node)| Box::new(node);
            level = str_pack(level, |(mbr, _)| *mbr, boxed, Node::Internal);
        }
        let root = level.pop().map_or(Node::Leaf(Vec::new()), |(_, node)| node);
        Self {
            root,
            len: mbrs.len(),
        }
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

/// One sort-tile-recursive level: sorts `items` by the centre x of
/// their `mbr`, cuts them into ⌈√⌈n / 16⌉⌉ balanced slices, sorts each
/// slice by centre y and cuts it into ⌈len / 16⌉ balanced groups, and
/// makes each group a node with `make`, an item entering it as its box
/// and its `payload`. Returns the nodes with their MBRs, in tile order.
///
/// A slice holds at least 8 items whenever `n > 16`, and a balanced cut
/// of at least 8 into groups of at most 16 leaves each group at least 8
/// (`MIN_ENTRIES` is 6), so no tail node is underfull.
fn str_pack<T, P>(
    mut items: Vec<T>,
    mbr: impl Fn(&T) -> Mbr,
    payload: impl Fn(T) -> P,
    make: impl Fn(Vec<(Mbr, P)>) -> Node,
) -> Vec<(Mbr, Node)> {
    // Twice the centre: the same order, one operation fewer.
    let x = |item: &T| {
        let m = mbr(item);
        m.min_x + m.max_x
    };
    let y = |item: &T| {
        let m = mbr(item);
        m.min_y + m.max_y
    };
    let n = items.len();
    let slices = (n.div_ceil(MAX_ENTRIES) as f64).sqrt().ceil() as usize;
    items.sort_unstable_by(|a, b| x(a).total_cmp(&x(b)));
    let mut sizes = Vec::with_capacity(n.div_ceil(MAX_ENTRIES) + slices);
    let mut start = 0;
    for slice_len in balanced(n, slices) {
        let slice = &mut items[start..start + slice_len];
        slice.sort_unstable_by(|a, b| y(a).total_cmp(&y(b)));
        sizes.extend(balanced(slice_len, slice_len.div_ceil(MAX_ENTRIES)));
        start += slice_len;
    }
    let mut rest = items.into_iter().map(|item| (mbr(&item), payload(item)));
    sizes
        .into_iter()
        .map(|size| {
            let group: Vec<(Mbr, P)> = rest.by_ref().take(size).collect();
            let mbr = group.iter().fold(Mbr::EMPTY, |acc, (m, _)| acc.union(*m));
            (mbr, make(group))
        })
        .collect()
}

/// The sizes of `n` items cut into `parts` runs that differ by at most one.
fn balanced(n: usize, parts: usize) -> impl Iterator<Item = usize> {
    (0..parts).map(move |i| n / parts + usize::from(i < n % parts))
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
        assert_eq!(all_payloads(&tree), (0..500).collect::<Vec<_>>());
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

    /// Asserts that every node but the root holds 8 (more than
    /// `MIN_ENTRIES`) to `MAX_ENTRIES` entries, as a bulk load leaves them.
    fn assert_filled(tree: &RTree) {
        fn walk(node: &Node, is_root: bool) {
            let len = match node {
                Node::Leaf(entries) => entries.len(),
                Node::Internal(children) => children.len(),
            };
            assert!(
                is_root || (8..=MAX_ENTRIES).contains(&len),
                "a non-root node holds {len} entries"
            );
            if let Node::Internal(children) = node {
                children.iter().for_each(|(_, child)| walk(child, false));
            }
        }
        walk(&tree.root, true);
    }

    /// Every payload in `tree`, sorted.
    fn all_payloads(tree: &RTree) -> Vec<u64> {
        let everywhere = Mbr {
            min_x: -1e9,
            min_y: -1e9,
            max_x: 1e9,
            max_y: 1e9,
        };
        let mut all = tree.query_intersecting(&everywhere);
        all.sort_unstable();
        all
    }

    /// Asserts that ten random queries find, in `tree`, exactly the
    /// indices of the boxes of `reference` they intersect.
    fn assert_queries_match_linear_scan(tree: &RTree, reference: &[Mbr], rng: &mut StdRng) {
        for _ in 0..10 {
            let q = random_mbr(rng);
            let mut got = tree.query_intersecting(&q);
            got.sort_unstable();
            let want: Vec<u64> = (0..reference.len() as u64)
                .filter(|&id| reference[id as usize].intersects(&q))
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn bulk_load_packs_full_trees_with_every_leaf_at_one_depth() {
        let mut rng = StdRng::seed_from_u64(2);
        for (n, height) in [
            (0, 1),
            (1, 1),
            (16, 1),
            (17, 2),
            (256, 2),
            (257, 3),
            (5_000, 4),
        ] {
            let mbrs: Vec<Mbr> = (0..n).map(|_| random_mbr(&mut rng)).collect();
            let tree = RTree::bulk_load(&mbrs);
            tree.check_invariants();
            assert_filled(&tree);
            assert_eq!(tree.len(), n);
            assert_eq!(tree.is_empty(), n == 0);
            assert_eq!(tree.height(), height, "n={n}");
            assert_eq!(all_payloads(&tree), (0..n as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn bulk_loaded_identical_degenerate_mbrs_are_all_found() {
        use simsub_trajectory::Point;
        // Many equal sort keys: every tile of one box must keep each id
        // exactly once.
        let (x, y) = (3.0, -2.0);
        for (min_x, max_x) in [(x, x), (x - 4.0, x)] {
            let m = Mbr::of_points(&[Point::xy(min_x, y), Point::xy(max_x, y)]);
            let tree = RTree::bulk_load(&[m; 300]);
            tree.check_invariants();
            assert_filled(&tree);
            assert_eq!(tree.height(), 3);
            let mut got = tree.query_intersecting(&m);
            got.sort_unstable();
            assert_eq!(got, (0..300).collect::<Vec<_>>());
            let beside = Mbr::of_points(&[Point::xy(x + 1e-9, y), Point::xy(x + 1.0, y)]);
            assert!(tree.query_intersecting(&beside).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "cannot index an empty MBR")]
    fn bulk_load_rejects_an_empty_mbr() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = RTree::bulk_load(&[random_mbr(&mut rng), Mbr::EMPTY]);
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
                reference.push(m);
            }
            assert_queries_match_linear_scan(&tree, &reference, &mut rng);
        }

        #[test]
        fn bulk_loaded_query_matches_linear_scan(seed in 0u64..500, count in 0usize..700) {
            let mut rng = StdRng::seed_from_u64(seed);
            let reference: Vec<Mbr> = (0..count).map(|_| random_mbr(&mut rng)).collect();
            let tree = RTree::bulk_load(&reference);
            tree.check_invariants();
            assert_filled(&tree);
            assert_queries_match_linear_scan(&tree, &reference, &mut rng);
        }

        #[test]
        fn bulk_loaded_then_inserted_query_matches_linear_scan(
            seed in 0u64..500,
            loaded in 0usize..400,
            inserted in 1usize..200,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reference: Vec<Mbr> = (0..loaded).map(|_| random_mbr(&mut rng)).collect();
            let mut tree = RTree::bulk_load(&reference);
            for id in loaded as u64..(loaded + inserted) as u64 {
                let m = random_mbr(&mut rng);
                tree.insert(m, id);
                reference.push(m);
            }
            tree.check_invariants();
            prop_assert_eq!(tree.len(), loaded + inserted);
            let ids: Vec<u64> = (0..(loaded + inserted) as u64).collect();
            prop_assert_eq!(all_payloads(&tree), ids);
            assert_queries_match_linear_scan(&tree, &reference, &mut rng);
        }
    }
}

//! The exact split engine (`Splitter::Best`): rank once, partition per
//! split. `Splitter::Random` grows on the same ranges, keeping only the
//! row order.
//!
//! * **Rank once per fit.** [`Ranks::build`] gives every base row a dense
//!   per-column rank. Values equal under `==` share one, so `-0.0` ties
//!   with `0.0`. Ensembles build it once and share it across members.
//! * **Counting-sort per tree.** A member's rows (a bootstrap draw or a
//!   subsample repeats or drops base rows) are sorted per feature by
//!   `(rank, tree row)` with one counting sort over the base ranks, plus
//!   one ascending row order.
//! * **Partition per split.** A node is a `[lo, hi)` range of those
//!   arrays. An accepted split stably partitions every order with the
//!   predicate `apply` routes by, `value <= threshold`. It never splits
//!   by scan position: the midpoint of two adjacent floats can round onto
//!   the upper one. Each child's segments stay sorted, so a candidate
//!   feature's scan walks its segment directly.
//!
//! The trees are bit for bit the ones a per-node stable sort builds. Ties
//! keep ascending row order, which is what stably sorting a node's
//! ascending rows by value gives. Node statistics still accumulate in
//! ascending row order. The feature-subsampling RNG is drawn in the same
//! depth-first order.

use crate::matrix::Matrix;
use crate::tree::{
    best_threshold_sorted, impurity_from_counts, node_stats, variance_from_sums, Node, Target,
    TreeParams,
};
use em_rt::{SliceRandom, StdRng};

/// Dense per-column ranks of a base matrix.
pub(crate) struct Ranks {
    /// Base rows (the column stride of `rank`).
    n: usize,
    /// Column-major: `rank[f * n + i]` is row `i`'s rank in column `f`.
    rank: Vec<u32>,
    /// Distinct values per column (the counting sort's bucket count).
    levels: Vec<usize>,
}

impl Ranks {
    /// Rank every column of `x` once.
    pub(crate) fn build(x: &Matrix) -> Ranks {
        let _span = em_obs::span!("tree.ranking");
        let (n, d) = (x.nrows(), x.ncols());
        assert!(u32::try_from(n).is_ok(), "too many rows to rank");
        let mut rank = vec![0u32; n * d];
        let mut levels = Vec::with_capacity(d);
        let mut col: Vec<(f64, u32)> = Vec::with_capacity(n);
        for f in 0..d {
            col.clear();
            col.extend((0..n).map(|i| (x.get(i, f), i as u32)));
            // `total_cmp` orders `-0.0` just before `0.0`; the `!=` below
            // then gives both the same rank.
            col.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let out = &mut rank[f * n..(f + 1) * n];
            let mut r = 0u32;
            for k in 0..n {
                if k > 0 && col[k].0 != col[k - 1].0 {
                    r += 1;
                }
                out[col[k].1 as usize] = r;
            }
            levels.push(if n == 0 { 0 } else { r as usize + 1 });
        }
        Ranks { n, rank, levels }
    }

    /// A member tree's rows sorted per feature by `(rank, tree row)`;
    /// feature `f` occupies `[f * m, (f + 1) * m)`. Tree row `r` is base
    /// row `rows[r]`, or `r` when `rows` is `None`.
    pub(crate) fn sorted_rows(&self, rows: Option<&[usize]>, m: usize) -> Vec<u32> {
        assert_eq!(
            rows.map_or(self.n, <[usize]>::len),
            m,
            "ranks/rows mismatch"
        );
        let mut sorted = vec![0u32; m * self.levels.len()];
        let mut keys = vec![0u32; m];
        let mut starts: Vec<u32> = Vec::new();
        for (f, out) in sorted.chunks_exact_mut(m).enumerate() {
            let col = &self.rank[f * self.n..(f + 1) * self.n];
            match rows {
                Some(rows) => keys.iter_mut().zip(rows).for_each(|(k, &i)| *k = col[i]),
                None => keys.copy_from_slice(col),
            }
            starts.clear();
            starts.resize(self.levels[f] + 1, 0);
            for &k in &keys {
                starts[k as usize + 1] += 1;
            }
            for l in 1..starts.len() {
                starts[l] += starts[l - 1];
            }
            // Ascending `r` within each bucket: ties keep row order.
            for (r, &k) in keys.iter().enumerate() {
                out[starts[k as usize] as usize] = r as u32;
                starts[k as usize] += 1;
            }
        }
        sorted
    }
}

/// Grow a tree on `x`: the exact scan over `sorted` (from
/// [`Ranks::sorted_rows`]), or random thresholds when `sorted` is `None`.
/// Returns the pre-order node array and the unnormalized importances.
pub(crate) fn grow(
    x: &Matrix,
    target: &Target<'_>,
    w: &[f64],
    params: &TreeParams,
    sorted: Option<Vec<u32>>,
) -> (Vec<Node>, Vec<f64>) {
    let m = x.nrows();
    let mut g = Grower {
        x,
        target,
        w,
        params,
        rng: StdRng::seed_from_u64(params.seed),
        m,
        rows: (0..m as u32).collect(),
        sorted,
        goes_left: vec![false; m],
        spill: vec![0; m],
        nodes: Vec::new(),
        importances: vec![0.0; x.ncols()],
    };
    g.node(0, m, 0);
    (g.nodes, g.importances)
}

struct Grower<'a> {
    x: &'a Matrix,
    target: &'a Target<'a>,
    w: &'a [f64],
    params: &'a TreeParams,
    /// Feature subsampling and random thresholds, drawn depth-first.
    rng: StdRng,
    /// Tree rows: the stride of `sorted`.
    m: usize,
    /// Node `[lo, hi)` owns `rows[lo..hi]`, in ascending row order.
    rows: Vec<u32>,
    /// Exact scan only: node `[lo, hi)` owns `sorted[f * m + lo..f * m +
    /// hi]` per feature `f`, in `(value, row)` order.
    sorted: Option<Vec<u32>>,
    /// Per row: does it go left at the split being applied?
    goes_left: Vec<bool>,
    /// Partition scratch.
    spill: Vec<u32>,
    nodes: Vec<Node>,
    importances: Vec<f64>,
}

impl Grower<'_> {
    /// Grow node `[lo, hi)`; returns its index.
    fn node(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let p = self.params;
        let stats = node_stats(self.target, self.w, &self.rows[lo..hi], p.criterion);
        let (impurity, total_w) = (stats.impurity, stats.total_w);
        let stop = hi - lo < p.min_samples_split
            || p.max_depth.is_some_and(|d| depth >= d)
            || impurity <= 1e-12;
        if !stop {
            if let Some((feature, threshold, gain)) = self.find_split(lo, hi, impurity, total_w) {
                if gain >= p.min_impurity_decrease.max(1e-12) {
                    if let Some(mid) = self.partition(lo, hi, feature, threshold, depth + 1) {
                        // Mean-decrease-in-impurity accounting: gains are
                        // weighted by the node's sample mass, matching
                        // sklearn's `feature_importances_`.
                        self.importances[feature] += total_w * gain;
                        // Reserve a slot so children see a stable parent index.
                        let my = self.nodes.len();
                        self.nodes.push(Node::Leaf { dist: Vec::new() });
                        let left = self.node(lo, mid, depth + 1);
                        let right = self.node(mid, hi, depth + 1);
                        self.nodes[my] = Node::Split {
                            feature,
                            threshold,
                            left,
                            right,
                        };
                        return my;
                    }
                }
            }
        }
        let my = self.nodes.len();
        self.nodes.push(Node::Leaf {
            dist: stats.leaf_dist,
        });
        my
    }

    /// Search candidate features for the best split.
    /// Returns `(feature, threshold, weighted impurity decrease)`.
    fn find_split(
        &mut self,
        lo: usize,
        hi: usize,
        parent_imp: f64,
        total_w: f64,
    ) -> Option<(usize, f64, f64)> {
        let d = self.x.ncols();
        let k = self.params.max_features.resolve(d);
        let mut features: Vec<usize> = (0..d).collect();
        if k < d {
            features.shuffle(&mut self.rng);
            features.truncate(k);
        }
        if total_w <= 0.0 {
            return None;
        }
        let (min_leaf, criterion) = (self.params.min_samples_leaf, self.params.criterion);
        let mut best: Option<(usize, f64, f64)> = None;
        for &f in &features {
            let candidate = match &self.sorted {
                Some(sorted) => best_threshold_sorted(
                    self.x,
                    self.target,
                    self.w,
                    &sorted[f * self.m + lo..f * self.m + hi],
                    f,
                    parent_imp,
                    total_w,
                    min_leaf,
                    criterion,
                ),
                None => random_threshold(
                    self.x,
                    self.target,
                    self.w,
                    &self.rows[lo..hi],
                    f,
                    parent_imp,
                    total_w,
                    self.params,
                    &mut self.rng,
                ),
            };
            if let Some((threshold, gain)) = candidate {
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f, threshold, gain));
                }
            }
        }
        best
    }

    /// Route node `[lo, hi)` by `value <= threshold` and stably partition
    /// the row order to match, and the sorted orders where a child may
    /// still scan them. Returns where the right child starts, or `None`
    /// when a child would fall below `min_samples_leaf`.
    fn partition(
        &mut self,
        lo: usize,
        hi: usize,
        feature: usize,
        threshold: f64,
        child_depth: usize,
    ) -> Option<usize> {
        // Per side: the first class seen, and whether another followed.
        let labels = match self.target {
            Target::Classes { y, .. } => Some(*y),
            Target::Values(_) => None,
        };
        let mut first = [usize::MAX; 2];
        let mut mixed = [labels.is_none(); 2];
        let mut n_left = 0;
        for &r in &self.rows[lo..hi] {
            let r = r as usize;
            let left = self.x.get(r, feature) <= threshold;
            self.goes_left[r] = left;
            n_left += usize::from(left);
            if let Some(y) = labels {
                let side = usize::from(!left);
                if first[side] == usize::MAX {
                    first[side] = y[r];
                }
                mixed[side] |= first[side] != y[r];
            }
        }
        let p = self.params;
        let n_right = hi - lo - n_left;
        if n_left < p.min_samples_leaf || n_right < p.min_samples_leaf {
            return None;
        }
        stable_partition(&mut self.rows[lo..hi], &self.goes_left, &mut self.spill);
        // A child below `min_samples_split`, at `max_depth`, or holding one
        // class (impurity 0) stops before it scans.
        let may_split = |n: usize, mixed: bool| n >= p.min_samples_split && mixed;
        let scanned = (may_split(n_left, mixed[0]) || may_split(n_right, mixed[1]))
            && p.max_depth.is_none_or(|d| child_depth < d);
        if let (Some(sorted), true) = (&mut self.sorted, scanned) {
            for (f, seg) in sorted.chunks_exact_mut(self.m).enumerate() {
                let seg = &mut seg[lo..hi];
                // Constant here means constant in every descendant, where
                // the scan finds no threshold whichever of these rows the
                // segment holds: leave it unpartitioned.
                let value = |i: u32| self.x.get(i as usize, f);
                if value(seg[0]) == value(seg[seg.len() - 1]) {
                    continue;
                }
                stable_partition(seg, &self.goes_left, &mut self.spill);
            }
        }
        Some(lo + n_left)
    }
}

/// Move the rows that go left to the front of `seg`, keeping the relative
/// order on both sides.
fn stable_partition(seg: &mut [u32], goes_left: &[bool], spill: &mut [u32]) {
    let (mut l, mut r) = (0, 0);
    for k in 0..seg.len() {
        let row = seg[k];
        let left = goes_left[row as usize];
        // Branch-free: write to both sides, advance one (`l <= k`).
        seg[l] = row;
        spill[r] = row;
        l += usize::from(left);
        r += usize::from(!left);
    }
    seg[l..].copy_from_slice(&spill[..r]);
}

/// Extra-trees: a single uniform threshold in the node's value range.
/// One fused pass over the node's ascending rows accumulates both
/// children's statistics, in the order partitioning followed by
/// [`node_stats`] would.
#[allow(clippy::too_many_arguments)]
fn random_threshold(
    x: &Matrix,
    target: &Target<'_>,
    w: &[f64],
    rows: &[u32],
    f: usize,
    parent_imp: f64,
    total_w: f64,
    params: &TreeParams,
    rng: &mut StdRng,
) -> Option<(f64, f64)> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &i in rows {
        let v = x.get(i as usize, f);
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if hi <= lo {
        return None;
    }
    let threshold = rng.random_range(lo..hi);
    let min_leaf = params.min_samples_leaf;
    let (mut n_left, mut n_right) = (0usize, 0usize);
    let (lw, rw, imp_l, imp_r) = match target {
        Target::Classes { y, n_classes } => {
            let mut left_counts = vec![0.0f64; *n_classes];
            let mut right_counts = vec![0.0f64; *n_classes];
            let (mut lw, mut rw) = (0.0f64, 0.0f64);
            for &i in rows {
                let i = i as usize;
                if x.get(i, f) <= threshold {
                    left_counts[y[i]] += w[i];
                    lw += w[i];
                    n_left += 1;
                } else {
                    right_counts[y[i]] += w[i];
                    rw += w[i];
                    n_right += 1;
                }
            }
            let left_total: f64 = left_counts.iter().sum();
            let right_total: f64 = right_counts.iter().sum();
            (
                lw,
                rw,
                impurity_from_counts(&left_counts, left_total, params.criterion),
                impurity_from_counts(&right_counts, right_total, params.criterion),
            )
        }
        Target::Values(t) => {
            let (mut lw, mut lsum, mut lsq) = (0.0f64, 0.0f64, 0.0f64);
            let (mut rw, mut rsum, mut rsq) = (0.0f64, 0.0f64, 0.0f64);
            for &i in rows {
                let i = i as usize;
                if x.get(i, f) <= threshold {
                    lw += w[i];
                    lsum += w[i] * t[i];
                    lsq += w[i] * t[i] * t[i];
                    n_left += 1;
                } else {
                    rw += w[i];
                    rsum += w[i] * t[i];
                    rsq += w[i] * t[i] * t[i];
                    n_right += 1;
                }
            }
            (
                lw,
                rw,
                variance_from_sums(lw, lsum, lsq),
                variance_from_sums(rw, rsum, rsq),
            )
        }
    };
    if n_left < min_leaf || n_right < min_leaf {
        return None;
    }
    let gain = parent_imp - (lw * imp_l + rw * imp_r) / total_w;
    Some((threshold, gain))
}

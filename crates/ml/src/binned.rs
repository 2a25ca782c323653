//! Histogram-based split finding (`Splitter::Binned`) — the LightGBM-style
//! answer to the exact CART scan's per-node re-sorting:
//!
//! * **Bin once per fit.** Every feature is quantile-binned into at most
//!   `n_bins` (≤ 256) bins and each sample stores one `u8` code per feature.
//!   When a feature has at most `n_bins` distinct values the binning is
//!   lossless: one bin per distinct value, and the candidate thresholds are
//!   exactly the midpoints the exact scan would pick.
//! * **Per-node histograms.** A split candidate is a boundary between two
//!   non-empty bins; scanning a node costs `O(features × touched bins)`
//!   instead of `O(features × n log n)`.
//! * **Sibling subtraction.** A parent's histogram is the elementwise sum of
//!   its children's (every sample lands in exactly one child), so only the
//!   smaller child is ever scanned — the larger child's histogram is
//!   `parent − smaller`, in place, reusing the parent's buffer.
//! * **Scratch pool.** Histogram and partition-index buffers are recycled
//!   through a free list; released histograms are zeroed only over the bin
//!   ranges they actually touched.
//! * **Per-node task splitting.** Large sibling subtrees run as separate
//!   tasks on the `em-rt` pool. Every node derives a private RNG seed from
//!   its parent's (`derive_seed`), and importances merge in fixed pre-order,
//!   so the fitted tree is bit-identical at any `EM_THREADS`.
//!
//! Small nodes fall back to the exact scan (`best_threshold_sorted`, after
//! sorting the node): below `cutoff` samples, zeroing and walking
//! `max_bins` bins costs more than sorting the node outright.

use crate::matrix::Matrix;
use crate::tree::{
    best_threshold_sorted, impurity_from_counts, midpoint, node_stats, variance_from_sums, Node,
    Target, TreeParams,
};
use em_rt::{SliceRandom, StdRng};
use std::sync::{Arc, Mutex};

/// Minimum size of *both* children before sibling subtrees are spawned as
/// separate pool tasks (below this, dispatch overhead beats the win).
const SPAWN_MIN: usize = 256;

static HIST_SUBTRACTIONS: em_obs::Counter = em_obs::Counter::new("tree.hist_subtractions");
static SUBTREE_TASKS: em_obs::Counter = em_obs::Counter::new("tree.subtree_tasks");

/// Quantile-bin `x` for the binned engine, once. Ensembles bin the base
/// matrix (through `tree::SplitPrep`) and each member gets a
/// [`BinnedMatrix::gather`] (bootstrap) or clone (shared rows), so the
/// per-feature sorts are paid once per fit, not once per tree.
pub(crate) fn bin_matrix(x: &Matrix, n_bins: usize) -> BinnedMatrix {
    let _span = em_obs::span!("tree.binning");
    BinnedMatrix::build(x, n_bins.clamp(2, 256))
}

/// Fit a tree with the binned engine. Returns the node array (same pre-order
/// layout as the exact builder) and the unnormalized per-feature importances.
/// `bm` must be the binning of exactly `x`'s rows.
pub(crate) fn fit_binned(
    x: &Matrix,
    target: &Target<'_>,
    w: &[f64],
    params: &TreeParams,
    bm: BinnedMatrix,
) -> (Vec<Node>, Vec<f64>) {
    debug_assert_eq!(bm.codes.len(), x.nrows() * x.ncols());
    let d = x.ncols();
    let sw = match target {
        // Slot 0 of every bin is the (unweighted) sample count used for
        // `min_samples_leaf`; the rest are the weighted class masses or the
        // weighted moment sums.
        Target::Classes { n_classes, .. } => n_classes + 1,
        Target::Values(_) => 4,
    };
    let stride = bm.max_bins * sw;
    let cutoff = (bm.max_bins / 4).max(8);
    let ctx = Ctx {
        x,
        target,
        w,
        params,
        d,
        sw,
        stride,
        cutoff,
        scratch: Scratch {
            hists: Mutex::new(Vec::new()),
            idxs: Mutex::new(Vec::new()),
            hist_len: d * stride,
            stride,
            sw,
            d,
        },
        bm,
    };
    let idx: Vec<u32> = (0..x.nrows() as u32).collect();
    let root_hist = (idx.len() >= ctx.cutoff).then(|| ctx.scan_hist(&idx));
    let (root, imp_list) = ctx.build(idx, root_hist, 0, params.seed);
    let mut nodes = Vec::new();
    flatten(root, &mut nodes);
    let mut importances = vec![0.0; d];
    for (f, v) in imp_list {
        importances[f] += v;
    }
    (nodes, importances)
}

/// The per-fit binning: u8 codes plus, per feature and bin, the extreme
/// observed values (thresholds are midpoints between adjacent bins' `hi` and
/// `lo`, which by construction never coincide with a sample value except in
/// sub-ulp degenerate ranges). Cheap to clone: codes and edges are shared.
#[derive(Clone)]
pub(crate) struct BinnedMatrix {
    /// Row-major codes: `codes[i * d + f]`.
    codes: Arc<Vec<u8>>,
    /// Number of features (the code-row stride).
    d: usize,
    /// Widest per-feature bin count (histogram width).
    max_bins: usize,
    edges: Arc<BinEdges>,
}

/// Per feature, per bin: the extreme observed values of the binning's base
/// matrix (shared untouched by [`BinnedMatrix::gather`]).
struct BinEdges {
    /// Smallest observed value in the bin.
    bin_lo: Vec<Vec<f64>>,
    /// Largest observed value in the bin (the bin's upper edge — bin `k`
    /// holds values in `(hi[k-1], hi[k]]`).
    bin_hi: Vec<Vec<f64>>,
}

impl BinnedMatrix {
    fn build(x: &Matrix, max_bins: usize) -> BinnedMatrix {
        let n = x.nrows();
        let d = x.ncols();
        let mut codes = vec![0u8; n * d];
        let mut bin_lo = Vec::with_capacity(d);
        let mut bin_hi = Vec::with_capacity(d);
        let mut widest = 1usize;
        let mut col: Vec<(f64, u32)> = Vec::with_capacity(n);
        for f in 0..d {
            col.clear();
            col.extend((0..n).map(|i| (x.get(i, f), i as u32)));
            col.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            // `total_cmp` sorts NaNs to the ends instead of panicking
            // mid-sort; reject them here (the exact engine rejects NaN too).
            assert!(!col[0].0.is_nan() && !col[n - 1].0.is_nan(), "NaN feature");
            let mut distinct = 1usize;
            for k in 1..n {
                if col[k].0 != col[k - 1].0 {
                    distinct += 1;
                }
            }
            // Bin upper edges: every distinct value when they fit (lossless),
            // otherwise ~equal-frequency quantile positions of the sorted
            // column (duplicates collapse, so heavy ties cost bins, not
            // correctness).
            let mut uppers: Vec<f64> = Vec::with_capacity(distinct.min(max_bins));
            if distinct <= max_bins {
                uppers.push(col[0].0);
                for k in 1..n {
                    if col[k].0 != col[k - 1].0 {
                        uppers.push(col[k].0);
                    }
                }
            } else {
                for j in 1..=max_bins {
                    let v = col[j * n / max_bins - 1].0;
                    if uppers.last() != Some(&v) {
                        uppers.push(v);
                    }
                }
            }
            // One walk in sorted order assigns every row's code (the index
            // of the bin `(hi[k-1], hi[k]]` containing its value — the last
            // edge is the column maximum, so codes always fit) and records
            // each bin's smallest observed value. Every bin contains at
            // least its own upper edge, so every `lo` slot is written.
            let mut lo = vec![0.0f64; uppers.len()];
            let mut code = 0usize;
            let mut prev_code = usize::MAX;
            for &(v, i) in &col {
                while v > uppers[code] {
                    code += 1;
                }
                if code != prev_code {
                    lo[code] = v;
                    prev_code = code;
                }
                codes[i as usize * d + f] = code as u8;
            }
            widest = widest.max(uppers.len());
            bin_lo.push(lo);
            bin_hi.push(uppers);
        }
        BinnedMatrix {
            codes: Arc::new(codes),
            d,
            max_bins: widest,
            edges: Arc::new(BinEdges { bin_lo, bin_hi }),
        }
    }

    /// The binning of `base.select_rows(idx)`: code rows are gathered, bin
    /// edges are shared. A bootstrap resample only ever repeats base rows, so
    /// its codes are exactly the base codes — no re-sort, no re-quantile.
    /// (Edges computed from the full base can differ from what binning the
    /// resample directly would produce — more bins, never coarser — but any
    /// fixed edge set is a valid binning, and in the lossless regime the
    /// split thresholds are identical either way.)
    pub(crate) fn gather(&self, idx: &[usize]) -> BinnedMatrix {
        let d = self.d;
        let mut codes = vec![0u8; idx.len() * d];
        for (r, &i) in idx.iter().enumerate() {
            codes[r * d..(r + 1) * d].copy_from_slice(&self.codes[i * d..(i + 1) * d]);
        }
        BinnedMatrix {
            codes: Arc::new(codes),
            d,
            max_bins: self.max_bins,
            edges: self.edges.clone(),
        }
    }
}

/// A node histogram: for feature `f` and bin `b`, slots
/// `buf[f * stride + b * sw ..][.. sw]`. `range[f]` is the inclusive code
/// span the node's samples touch for feature `f` (`(u16::MAX, 0)` = none).
struct HistBuf {
    buf: Vec<f64>,
    range: Vec<(u16, u16)>,
}

/// Free lists for histogram and partition-index buffers. Invariant: every
/// pooled histogram buffer is all-zero (release zeroes only the touched
/// ranges), so acquisition never pays a full clear.
struct Scratch {
    hists: Mutex<Vec<Vec<f64>>>,
    idxs: Mutex<Vec<Vec<u32>>>,
    hist_len: usize,
    stride: usize,
    sw: usize,
    d: usize,
}

impl Scratch {
    fn acquire_hist(&self) -> HistBuf {
        let buf = self
            .hists
            .lock()
            .unwrap()
            .pop()
            .unwrap_or_else(|| vec![0.0; self.hist_len]);
        HistBuf {
            buf,
            range: vec![(u16::MAX, 0); self.d],
        }
    }

    fn release_hist(&self, mut h: HistBuf) {
        for f in 0..self.d {
            let (lo, hi) = h.range[f];
            if lo <= hi {
                let a = f * self.stride + lo as usize * self.sw;
                let b = f * self.stride + (hi as usize + 1) * self.sw;
                h.buf[a..b].fill(0.0);
            }
        }
        self.hists.lock().unwrap().push(h.buf);
    }

    fn acquire_idx(&self) -> Vec<u32> {
        self.idxs.lock().unwrap().pop().unwrap_or_default()
    }

    fn release_idx(&self, mut v: Vec<u32>) {
        v.clear();
        self.idxs.lock().unwrap().push(v);
    }
}

/// Everything a node build needs; shared immutably across subtree tasks.
struct Ctx<'a> {
    x: &'a Matrix,
    target: &'a Target<'a>,
    w: &'a [f64],
    params: &'a TreeParams,
    d: usize,
    /// Slots per bin.
    sw: usize,
    /// Slots per feature (`max_bins * sw`).
    stride: usize,
    /// Nodes smaller than this take the exact sorted-scan fallback.
    cutoff: usize,
    scratch: Scratch,
    bm: BinnedMatrix,
}

/// Built tree as boxed nodes; flattened to the exact builder's pre-order
/// array layout at the end (children can be built concurrently this way).
enum BNode {
    Leaf {
        dist: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<BNode>,
        right: Box<BNode>,
    },
}

/// Importance contributions in pre-order: `(feature, node_weight * gain)`.
type ImpList = Vec<(usize, f64)>;

impl Ctx<'_> {
    /// Grow one node. `hist` is `Some` when the node runs the binned engine
    /// (`None` ⇒ this whole subtree uses the exact scan — node sizes only
    /// shrink, so the choice is consistent). `seed` is the node's private
    /// RNG stream; children derive theirs from it, so the result does not
    /// depend on which thread builds which subtree.
    fn build(
        &self,
        idx: Vec<u32>,
        hist: Option<HistBuf>,
        depth: usize,
        seed: u64,
    ) -> (BNode, ImpList) {
        let p = self.params;
        let stats = node_stats(self.target, self.w, &idx, p.criterion);
        let (impurity, leaf_dist) = (stats.impurity, stats.leaf_dist);
        let stop = idx.len() < p.min_samples_split
            || p.max_depth.is_some_and(|d| depth >= d)
            || impurity <= 1e-12;
        if stop {
            return self.leaf(idx, hist, leaf_dist);
        }
        let total_w = stats.total_w;
        if total_w <= 0.0 {
            return self.leaf(idx, hist, leaf_dist);
        }
        // Same feature-subsampling semantics as the exact path, but drawn
        // from the per-node stream instead of one DFS-threaded RNG.
        let k = p.max_features.resolve(self.d);
        let mut features: Vec<usize> = (0..self.d).collect();
        if k < self.d {
            let mut rng = StdRng::seed_from_u64(seed);
            features.shuffle(&mut rng);
            features.truncate(k);
        }
        let best = match &hist {
            Some(h) => self.best_split_hist(
                h,
                &features,
                impurity,
                total_w,
                &stats.totals,
                idx.len() as f64,
            ),
            None => self.best_split_exact(&idx, &features, impurity, total_w),
        };
        let Some((feature, threshold, gain)) = best else {
            return self.leaf(idx, hist, leaf_dist);
        };
        if gain < p.min_impurity_decrease.max(1e-12) {
            return self.leaf(idx, hist, leaf_dist);
        }
        // Stable value partition — the same predicate `apply` routes by.
        let mut left_idx = self.scratch.acquire_idx();
        let mut right_idx = self.scratch.acquire_idx();
        for &i in &idx {
            if self.x.get(i as usize, feature) <= threshold {
                left_idx.push(i);
            } else {
                right_idx.push(i);
            }
        }
        if left_idx.len() < p.min_samples_leaf || right_idx.len() < p.min_samples_leaf {
            self.scratch.release_idx(left_idx);
            self.scratch.release_idx(right_idx);
            return self.leaf(idx, hist, leaf_dist);
        }
        self.scratch.release_idx(idx);
        let (l_hist, r_hist) = self.child_hists(hist, &left_idx, &right_idx);
        let l_seed = em_rt::derive_seed(seed, 1);
        let r_seed = em_rt::derive_seed(seed, 2);
        // `threads()` (not `pool_workers()`): the runtime knob decides
        // whether subtree tasks are worth routing through the pool, so
        // `set_threads(1)` exercises the pure-recursion path in-process.
        let spawn = left_idx.len().min(right_idx.len()) >= SPAWN_MIN && em_rt::threads() > 1;
        let ((l_node, l_imp), (r_node, r_imp)) = if spawn {
            SUBTREE_TASKS.add(2);
            let l_in = Mutex::new(Some((left_idx, l_hist)));
            let r_in = Mutex::new(Some((right_idx, r_hist)));
            let l_out = Mutex::new(None);
            let r_out = Mutex::new(None);
            let l_task = || {
                let (idx, hist) = l_in.lock().unwrap().take().expect("left input");
                *l_out.lock().unwrap() = Some(self.build(idx, hist, depth + 1, l_seed));
            };
            let r_task = || {
                let (idx, hist) = r_in.lock().unwrap().take().expect("right input");
                *r_out.lock().unwrap() = Some(self.build(idx, hist, depth + 1, r_seed));
            };
            let tasks: [&(dyn Fn() + Sync); 2] = [&l_task, &r_task];
            em_rt::scope(0, &tasks);
            (
                l_out.into_inner().unwrap().expect("left subtree"),
                r_out.into_inner().unwrap().expect("right subtree"),
            )
        } else {
            (
                self.build(left_idx, l_hist, depth + 1, l_seed),
                self.build(right_idx, r_hist, depth + 1, r_seed),
            )
        };
        // Merge in fixed pre-order (self, left, right): the final
        // per-feature sums see one accumulation order at any thread count.
        let mut imp = Vec::with_capacity(1 + l_imp.len() + r_imp.len());
        imp.push((feature, total_w * gain));
        imp.extend(l_imp);
        imp.extend(r_imp);
        (
            BNode::Split {
                feature,
                threshold,
                left: Box::new(l_node),
                right: Box::new(r_node),
            },
            imp,
        )
    }

    fn leaf(&self, idx: Vec<u32>, hist: Option<HistBuf>, dist: Vec<f64>) -> (BNode, ImpList) {
        self.scratch.release_idx(idx);
        if let Some(h) = hist {
            self.scratch.release_hist(h);
        }
        (BNode::Leaf { dist }, Vec::new())
    }

    /// Histogram of `idx`: one sequential pass in index order (each node's
    /// histogram is owned by a single task — no parallel accumulation, no
    /// order divergence).
    fn scan_hist(&self, idx: &[u32]) -> HistBuf {
        let mut h = self.scratch.acquire_hist();
        let codes = &self.bm.codes;
        let d = self.d;
        let touch = |range: &mut (u16, u16), c: u16| {
            if c < range.0 {
                range.0 = c;
            }
            if c > range.1 {
                range.1 = c;
            }
        };
        match self.target {
            Target::Classes { y, .. } => {
                for &i in idx {
                    let i = i as usize;
                    let wi = self.w[i];
                    let yi = y[i];
                    for (f, &c) in codes[i * d..(i + 1) * d].iter().enumerate() {
                        let off = f * self.stride + c as usize * self.sw;
                        h.buf[off] += 1.0;
                        h.buf[off + 1 + yi] += wi;
                        touch(&mut h.range[f], c as u16);
                    }
                }
            }
            Target::Values(t) => {
                for &i in idx {
                    let i = i as usize;
                    let wi = self.w[i];
                    let wt = wi * t[i];
                    let wt2 = wi * t[i] * t[i];
                    for (f, &c) in codes[i * d..(i + 1) * d].iter().enumerate() {
                        let off = f * self.stride + c as usize * self.sw;
                        h.buf[off] += 1.0;
                        h.buf[off + 1] += wi;
                        h.buf[off + 2] += wt;
                        h.buf[off + 3] += wt2;
                        touch(&mut h.range[f], c as u16);
                    }
                }
            }
        }
        h
    }

    /// Children histograms from the parent's, consuming the parent buffer.
    /// A child below `cutoff` gets `None` (exact-fallback subtree). The
    /// larger child is derived by sibling subtraction when the parent's
    /// touched span is narrower than a direct scan.
    fn child_hists(
        &self,
        parent: Option<HistBuf>,
        left: &[u32],
        right: &[u32],
    ) -> (Option<HistBuf>, Option<HistBuf>) {
        let Some(parent) = parent else {
            return (None, None);
        };
        let l_need = left.len() >= self.cutoff;
        let r_need = right.len() >= self.cutoff;
        if !l_need && !r_need {
            self.scratch.release_hist(parent);
            return (None, None);
        }
        let left_is_small = left.len() <= right.len();
        let (small, large) = if left_is_small {
            (left, right)
        } else {
            (right, left)
        };
        let small_need = if left_is_small { l_need } else { r_need };
        let large_need = if left_is_small { r_need } else { l_need };
        let mut small_hist = None;
        let mut large_hist = None;
        if large_need {
            let parent_span: usize = parent
                .range
                .iter()
                .map(|&(lo, hi)| {
                    if lo <= hi {
                        hi as usize - lo as usize + 1
                    } else {
                        0
                    }
                })
                .sum();
            // Marginal cost of the subtraction route (the small scan is sunk
            // when the small child needs its histogram anyway) vs a direct
            // scan of the larger child. Pure size arithmetic — deterministic.
            let sub_cost = parent_span + if small_need { 0 } else { small.len() * self.d };
            if sub_cost <= large.len() * self.d {
                let sh = self.scan_hist(small);
                let mut lh = parent;
                self.subtract(&mut lh, &sh);
                HIST_SUBTRACTIONS.incr();
                large_hist = Some(lh);
                if small_need {
                    small_hist = Some(sh);
                } else {
                    self.scratch.release_hist(sh);
                }
            } else {
                large_hist = Some(self.scan_hist(large));
                if small_need {
                    small_hist = Some(self.scan_hist(small));
                }
                self.scratch.release_hist(parent);
            }
        } else {
            small_hist = Some(self.scan_hist(small));
            self.scratch.release_hist(parent);
        }
        if left_is_small {
            (small_hist, large_hist)
        } else {
            (large_hist, small_hist)
        }
    }

    /// `parent -= child`, elementwise over the child's touched ranges. The
    /// result is the sibling's histogram: the partition assigns every parent
    /// sample to exactly one child, so `hist(parent) = hist(l) + hist(r)`
    /// slot for slot (the integer count slots are exact; fully-subtracted
    /// float slots cancel to +0.0). The buffer keeps the parent's
    /// conservative ranges for release-time zeroing.
    fn subtract(&self, parent: &mut HistBuf, child: &HistBuf) {
        for f in 0..self.d {
            let (lo, hi) = child.range[f];
            if lo > hi {
                continue;
            }
            let a = f * self.stride + lo as usize * self.sw;
            let b = f * self.stride + (hi as usize + 1) * self.sw;
            for (pv, cv) in parent.buf[a..b].iter_mut().zip(&child.buf[a..b]) {
                *pv -= *cv;
            }
        }
    }

    /// Best split over the histogram: candidates are boundaries between
    /// consecutive non-empty bins, scanned left to right per feature with
    /// the exact engine's strict-improvement tie-break. Thresholds are
    /// midpoints of adjacent bins' extreme observed values — in the lossless
    /// regime these are exactly the exact scan's sample midpoints. `totals`
    /// and `n_tot` come from the node's sample-order stats pass; rights are
    /// totals minus lefts.
    #[allow(clippy::too_many_arguments)]
    fn best_split_hist(
        &self,
        h: &HistBuf,
        features: &[usize],
        parent_imp: f64,
        total_w: f64,
        totals: &[f64],
        n_tot: f64,
    ) -> Option<(usize, f64, f64)> {
        let min_leaf = self.params.min_samples_leaf as f64;
        let criterion = self.params.criterion;
        let mut best: Option<(usize, f64, f64)> = None;
        let push = |best: &mut Option<(usize, f64, f64)>, f: usize, thr: f64, gain: f64| {
            if best.is_none_or(|(_, _, g)| gain > g) {
                *best = Some((f, thr, gain));
            }
        };
        match self.target {
            Target::Classes { n_classes, .. } => {
                let nc = *n_classes;
                let tot = totals;
                let mut lc = vec![0.0f64; nc];
                let mut rc = vec![0.0f64; nc];
                for &f in features {
                    let (rmin, rmax) = h.range[f];
                    if rmin >= rmax {
                        continue;
                    }
                    let base = f * self.stride;
                    lc.fill(0.0);
                    let mut lw = 0.0f64;
                    let mut n_left = 0.0f64;
                    let mut last_present: Option<usize> = None;
                    for b in rmin as usize..=rmax as usize {
                        let off = base + b * self.sw;
                        if h.buf[off] == 0.0 {
                            continue;
                        }
                        if let Some(prev) = last_present {
                            if n_left >= min_leaf && n_tot - n_left >= min_leaf {
                                let rw = total_w - lw;
                                for ((r, &t), &l) in rc.iter_mut().zip(tot).zip(&lc) {
                                    *r = t - l;
                                }
                                let imp_l = impurity_from_counts(&lc, lw, criterion);
                                let imp_r = impurity_from_counts(&rc, rw, criterion);
                                let gain = parent_imp - (lw * imp_l + rw * imp_r) / total_w;
                                let thr = midpoint(
                                    self.bm.edges.bin_hi[f][prev],
                                    self.bm.edges.bin_lo[f][b],
                                );
                                push(&mut best, f, thr, gain);
                            }
                        }
                        n_left += h.buf[off];
                        for (c, l) in lc.iter_mut().enumerate() {
                            let v = h.buf[off + 1 + c];
                            *l += v;
                            lw += v;
                        }
                        last_present = Some(b);
                    }
                }
            }
            Target::Values(_) => {
                let (tw, tsum, tsq) = (totals[0], totals[1], totals[2]);
                for &f in features {
                    let (rmin, rmax) = h.range[f];
                    if rmin >= rmax {
                        continue;
                    }
                    let base = f * self.stride;
                    let (mut n_left, mut lw, mut lsum, mut lsq) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
                    let mut last_present: Option<usize> = None;
                    for b in rmin as usize..=rmax as usize {
                        let off = base + b * self.sw;
                        if h.buf[off] == 0.0 {
                            continue;
                        }
                        if let Some(prev) = last_present {
                            if n_left >= min_leaf && n_tot - n_left >= min_leaf {
                                let (rw, rsum, rsq) = (tw - lw, tsum - lsum, tsq - lsq);
                                let imp_l = variance_from_sums(lw, lsum, lsq);
                                let imp_r = variance_from_sums(rw, rsum, rsq);
                                let gain = parent_imp - (lw * imp_l + rw * imp_r) / total_w;
                                let thr = midpoint(
                                    self.bm.edges.bin_hi[f][prev],
                                    self.bm.edges.bin_lo[f][b],
                                );
                                push(&mut best, f, thr, gain);
                            }
                        }
                        n_left += h.buf[off];
                        lw += h.buf[off + 1];
                        lsum += h.buf[off + 2];
                        lsq += h.buf[off + 3];
                        last_present = Some(b);
                    }
                }
            }
        }
        best
    }

    /// Exact-fallback split search for small nodes: a stable sort of the
    /// node's ascending rows per feature, then the CART scan.
    fn best_split_exact(
        &self,
        idx: &[u32],
        features: &[usize],
        parent_imp: f64,
        total_w: f64,
    ) -> Option<(usize, f64, f64)> {
        let mut best: Option<(usize, f64, f64)> = None;
        let mut order: Vec<u32> = Vec::with_capacity(idx.len());
        for &f in features {
            order.clear();
            order.extend_from_slice(idx);
            let value = |i: u32| self.x.get(i as usize, f);
            order.sort_by(|&a, &b| value(a).partial_cmp(&value(b)).expect("NaN feature"));
            if let Some((threshold, gain)) = best_threshold_sorted(
                self.x,
                self.target,
                self.w,
                &order,
                f,
                parent_imp,
                total_w,
                self.params.min_samples_leaf,
                self.params.criterion,
            ) {
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f, threshold, gain));
                }
            }
        }
        best
    }
}

/// Pre-order flattening to the exact builder's array layout (parent, left
/// subtree, right subtree).
fn flatten(node: BNode, nodes: &mut Vec<Node>) -> usize {
    match node {
        BNode::Leaf { dist } => {
            let my = nodes.len();
            nodes.push(Node::Leaf { dist });
            my
        }
        BNode::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            let my = nodes.len();
            nodes.push(Node::Leaf { dist: Vec::new() });
            let l = flatten(*left, nodes);
            let r = flatten(*right, nodes);
            nodes[my] = Node::Split {
                feature,
                threshold,
                left: l,
                right: r,
            };
            my
        }
    }
}

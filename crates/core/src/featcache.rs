//! Interned feature cache: precompute-once-probe-many feature generation.
//!
//! The Table-II scheme evaluates 16 string similarities per string attribute
//! per candidate pair, and the benchmark tables are full of repeated
//! attribute values (cities, years, venues) — the same `(value, value)`
//! similarity vector is recomputed across pairs, folds, and search trials.
//! [`FeatureCache`] removes that waste in two layers:
//!
//! 1. **Profiles** — each distinct attribute value (shared across both
//!    tables) is tokenized once into an [`em_text::TokenProfile`] whose
//!    token ids come from one cache-wide [`em_text::TokenInterner`].
//!    Drafting runs on the `em-rt` pool; interning is a serial pass in
//!    value-id order, so ids are identical at any `EM_THREADS`.
//! 2. **Memoization** — the per-attribute vector of string-similarity
//!    values is memoized under the key `(left value id) << 32 | right value
//!    id`. A batch [`FeatureCache::generate`] first walks the pairs
//!    serially to collect the *distinct missing* keys in first-appearance
//!    order, computes them in parallel (disjoint writes, per-worker
//!    [`em_text::SimScratch`]), inserts serially, then fills the output
//!    matrix in parallel by lookup — every phase is bit-identical for every
//!    thread count, and the memo survives across calls.
//!
//! Numeric and boolean features are cheap (no tokenization, no DP) and are
//! computed inline during the fill phase, exactly like the uncached path.
//!
//! The cache is on by default in [`crate::PreparedDataset::prepare`]; set
//! `EM_FEATCACHE=off` to force the uncached [`crate::FeatureGenerator`]
//! path (for A/B benchmarks — both paths produce bit-identical matrices).

use crate::featuregen::{compute_feature, FeatureGenerator, FeatureKind};
use em_ml::Matrix;
use em_table::{RecordPair, Table};
use em_text::{ProfileDraft, SimScratch, StringSimilarity, TokenInterner, TokenProfile};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Profiles built (one per distinct attribute value).
static PROFILE_BUILDS: em_obs::Counter = em_obs::Counter::new("featcache.profile_builds");
/// Memo lookups served from the cache (including repeats within a batch).
static MEMO_HITS: em_obs::Counter = em_obs::Counter::new("featcache.memo_hits");
/// Memo lookups that required computing a fresh similarity vector.
static MEMO_MISSES: em_obs::Counter = em_obs::Counter::new("featcache.memo_misses");
/// Distinct tokens interned across all caches.
static INTERNER_TOKENS: em_obs::Counter = em_obs::Counter::new("featcache.interner_tokens");
/// Memo entries evicted by the serving-path entry cap (see
/// [`FeatureCache::set_memo_cap`]; zero unless a cap is set).
static EVICTIONS: em_obs::Counter = em_obs::Counter::new("featcache.evictions");

thread_local! {
    /// Per-worker similarity scratch: the pool's threads are persistent, so
    /// DP buffers are allocated once per thread and reused forever.
    static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::new());
}

/// Whether feature generation should go through the cache
/// (`EM_FEATCACHE=off|0|false` disables it; anything else, or unset, keeps
/// it on). Read per call so tests can flip the environment.
pub fn enabled() -> bool {
    std::env::var("EM_FEATCACHE").map_or(true, |v| !matches!(v.as_str(), "off" | "0" | "false"))
}

/// Memo key for a `(left value id, right value id)` pair.
fn memo_key(va: u32, vb: u32) -> u64 {
    (u64::from(va)) << 32 | u64::from(vb)
}

/// One memoized similarity vector, tagged with the epoch (batch ordinal) of
/// its last use so the serving-path cap can evict coarsely by age.
struct MemoEntry {
    /// Last [`FeatureCache::generate`] call that touched this entry.
    epoch: u64,
    /// One `f64` per planned similarity, in spec order.
    vals: Box<[f64]>,
}

/// Cached state for one string attribute: value-id maps for both tables,
/// one profile per distinct value, and the similarity-vector memo.
struct AttrCache {
    /// Index of this attribute in both schemas.
    attr_index: usize,
    /// The string similarities planned for this attribute, in spec order.
    sims: Vec<StringSimilarity>,
    /// Output matrix column of each entry in `sims`.
    cols: Vec<usize>,
    /// Distinct value -> dense id (shared across both tables). Retained so
    /// the left table can be rebound to fresh query batches when serving.
    value_ids: HashMap<String, u32>,
    /// Left-table row -> value id (`None` = null cell).
    a_rows: Vec<Option<u32>>,
    /// Right-table row -> value id.
    b_rows: Vec<Option<u32>>,
    /// Value id -> profile (ids shared across both tables).
    profiles: Vec<TokenProfile>,
    /// `(value id, value id)` -> similarity vector (one `f64` per sim).
    memo: HashMap<u64, MemoEntry>,
}

impl AttrCache {
    /// Ensure the memo holds every key the batch needs: serial collect of
    /// distinct missing keys (first-appearance order), parallel compute,
    /// serial insert. Entries touched by the batch (hit or inserted) are
    /// stamped with `epoch` so cap eviction never removes them mid-batch.
    fn fill_memo(&mut self, pairs: &[RecordPair], epoch: u64) {
        let mut missing: Vec<u64> = Vec::new();
        let mut missing_set: HashSet<u64> = HashSet::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for p in pairs {
            let (Some(va), Some(vb)) = (self.a_rows[p.left], self.b_rows[p.right]) else {
                continue;
            };
            let key = memo_key(va, vb);
            if let Some(entry) = self.memo.get_mut(&key) {
                entry.epoch = epoch;
                hits += 1;
            } else if !missing_set.insert(key) {
                hits += 1;
            } else {
                misses += 1;
                missing.push(key);
            }
        }
        MEMO_HITS.add(hits);
        MEMO_MISSES.add(misses);
        if missing.is_empty() {
            return;
        }
        let k = self.sims.len();
        let mut flat = vec![0.0f64; missing.len() * k];
        let writer = em_rt::SliceWriter::new(flat.as_mut_slice());
        let jobs = if missing.len() < 64 { 1 } else { 0 };
        em_rt::parallel_for(missing.len(), jobs, |m| {
            // Safety: each missing-key index is handed out exactly once and
            // the row slices `[m * k, (m + 1) * k)` are pairwise disjoint.
            let row = unsafe { writer.slice_mut(m * k, k) };
            let key = missing[m];
            let pa = &self.profiles[(key >> 32) as usize];
            let pb = &self.profiles[(key & u64::from(u32::MAX)) as usize];
            SCRATCH.with(|scratch| {
                let mut scratch = scratch.borrow_mut();
                for (slot, sim) in row.iter_mut().zip(&self.sims) {
                    *slot = sim.apply_profiles(pa, pb, &mut scratch);
                }
            });
        });
        for (m, &key) in missing.iter().enumerate() {
            self.memo.insert(
                key,
                MemoEntry {
                    epoch,
                    vals: flat[m * k..(m + 1) * k].to_vec().into_boxed_slice(),
                },
            );
        }
    }
}

/// A feature generator bound to a table pair, with interned value profiles
/// and a per-attribute similarity memo. See the module docs for the design.
pub struct FeatureCache {
    generator: FeatureGenerator,
    attrs: Vec<AttrCache>,
    interner: TokenInterner,
    n_left: usize,
    n_right: usize,
    /// Entry cap for the similarity memo (`None` = unbounded; see
    /// [`Self::set_memo_cap`]).
    memo_cap: Option<usize>,
    /// Batch ordinal, bumped once per [`Self::generate`] call; stamps memo
    /// entries for coarse oldest-epoch eviction.
    epoch: u64,
}

impl FeatureCache {
    /// Build profiles for every string attribute of the table pair, on the
    /// shared pool. The parallel part (tokenizing drafts) is order-free;
    /// value ids and token ids come from serial passes, so the cache's
    /// internal state is identical at any pool width.
    pub fn new(generator: FeatureGenerator, a: &Table, b: &Table) -> Self {
        Self::build(generator, Some(a), Some(b))
    }

    /// A fully unbound cache: neither side is profiled up front. The
    /// serving path rebinds the left side to each query batch and the
    /// right side to each gathered catalog slice ([`Self::rebind_left`] /
    /// [`Self::rebind_right`]); profiles and memo entries accumulate across
    /// batches exactly as in the bound path.
    pub fn unbound(generator: FeatureGenerator) -> Self {
        Self::build(generator, None, None)
    }

    /// Shared constructor: either side may start unbound (no rows mapped,
    /// no profiles built) and be bound later with the rebind methods.
    fn build(generator: FeatureGenerator, a: Option<&Table>, b: Option<&Table>) -> Self {
        let _span = em_obs::span!("featcache.build");
        let mut interner = TokenInterner::new();
        // Group the planned string features by attribute, in spec order.
        let mut by_attr: BTreeMap<usize, (Vec<StringSimilarity>, Vec<usize>)> = BTreeMap::new();
        for (col, spec) in generator.specs().iter().enumerate() {
            if let FeatureKind::String(sim) = &spec.kind {
                let entry = by_attr.entry(spec.attr_index).or_default();
                entry.0.push(*sim);
                entry.1.push(col);
            }
        }
        let attrs = by_attr
            .into_iter()
            .map(|(attr_index, (sims, cols))| {
                // Serial: dedupe attribute values across both tables into
                // dense ids (first-appearance order).
                let mut value_ids: HashMap<String, u32> = HashMap::new();
                let mut values: Vec<String> = Vec::new();
                let mut map_rows = |t: Option<&Table>| -> Vec<Option<u32>> {
                    t.map_or_else(Vec::new, |t| {
                        t.records()
                            .map(|rec| {
                                rec.get(attr_index).to_display_string().map(|s| {
                                    if let Some(&id) = value_ids.get(&s) {
                                        id
                                    } else {
                                        let id = values.len() as u32;
                                        values.push(s.clone());
                                        value_ids.insert(s, id);
                                        id
                                    }
                                })
                            })
                            .collect()
                    })
                };
                let a_rows = map_rows(a);
                let b_rows = map_rows(b);
                // Parallel: tokenize each distinct value into a draft.
                let mut drafts: Vec<Option<ProfileDraft>> = vec![None; values.len()];
                let writer = em_rt::SliceWriter::new(drafts.as_mut_slice());
                let draft_jobs = if values.len() < 64 { 1 } else { 0 };
                em_rt::parallel_for(values.len(), draft_jobs, |v| {
                    // Safety: each value index is handed out exactly once.
                    let slot = unsafe { &mut writer.slice_mut(v, 1)[0] };
                    *slot = Some(ProfileDraft::new(&values[v]));
                });
                // Serial: intern in value-id order (deterministic ids).
                let profiles: Vec<TokenProfile> = drafts
                    .into_iter()
                    .map(|d| TokenProfile::from_draft(d.expect("draft built"), &mut interner))
                    .collect();
                PROFILE_BUILDS.add(profiles.len() as u64);
                AttrCache {
                    attr_index,
                    sims,
                    cols,
                    value_ids,
                    a_rows,
                    b_rows,
                    profiles,
                    memo: HashMap::new(),
                }
            })
            .collect();
        INTERNER_TOKENS.add(interner.len() as u64);
        FeatureCache {
            generator,
            attrs,
            interner,
            n_left: a.map_or(0, Table::len),
            n_right: b.map_or(0, Table::len),
            memo_cap: None,
            epoch: 0,
        }
    }

    /// Rebind the *left* side of the cache to a fresh table (the serving
    /// path: the left side is each incoming query batch). Previously-unseen
    /// values are profiled and interned in row order — a serial pass, so
    /// the cache state after a given sequence of batches is identical at
    /// any `EM_THREADS`. Existing profiles and memo entries stay valid
    /// because both are keyed by value ids, which never change once
    /// assigned.
    pub fn rebind_left(&mut self, a: &Table) {
        let _span = em_obs::span!("featcache.rebind_left");
        let mut new_profiles = 0u64;
        for ac in &mut self.attrs {
            ac.a_rows = Self::bind_rows(ac, &mut self.interner, a, &mut new_profiles);
        }
        PROFILE_BUILDS.add(new_profiles);
        self.n_left = a.len();
    }

    /// Rebind the *right* side of the cache to a fresh table — the
    /// serving path, where the right side is the per-batch slice of catalog
    /// rows gathered for the probe's candidates rather than the whole
    /// catalog. Same contract as [`Self::rebind_left`]:
    /// unseen values are profiled and interned in row order (serial, so
    /// cache state after a given batch sequence is thread-count
    /// invariant), and existing profiles/memo entries stay valid because
    /// both are keyed by value ids.
    pub fn rebind_right(&mut self, b: &Table) {
        let _span = em_obs::span!("featcache.rebind_right");
        let mut new_profiles = 0u64;
        for ac in &mut self.attrs {
            ac.b_rows = Self::bind_rows(ac, &mut self.interner, b, &mut new_profiles);
        }
        PROFILE_BUILDS.add(new_profiles);
        self.n_right = b.len();
    }

    /// Map `t`'s rows of `ac`'s attribute to value ids, profiling and
    /// interning previously-unseen values in row order.
    fn bind_rows(
        ac: &mut AttrCache,
        interner: &mut TokenInterner,
        t: &Table,
        new_profiles: &mut u64,
    ) -> Vec<Option<u32>> {
        t.records()
            .map(|rec| {
                rec.get(ac.attr_index).to_display_string().map(|s| {
                    if let Some(&id) = ac.value_ids.get(&s) {
                        id
                    } else {
                        let id = ac.profiles.len() as u32;
                        let draft = ProfileDraft::new(&s);
                        ac.profiles.push(TokenProfile::from_draft(draft, interner));
                        ac.value_ids.insert(s, id);
                        *new_profiles += 1;
                        id
                    }
                })
            })
            .collect()
    }

    /// Cap the total number of memoized similarity vectors (across all
    /// attributes). `None` (the default) means unbounded — the right choice
    /// for training and search, where the value universe is fixed. Serving
    /// paths that stream unbounded query values should set a cap; when the
    /// memo exceeds it after a batch, whole *epochs* (batch ordinals of last
    /// use) are evicted oldest-first until the cap holds, counting into
    /// `featcache.evictions`. Eviction is a serial pass, so cache state
    /// stays deterministic.
    pub fn set_memo_cap(&mut self, cap: Option<usize>) {
        self.memo_cap = cap;
    }

    /// Total memo entries evicted so far by the entry cap, process-wide
    /// (counts only while tracing is enabled, like every `em-obs` counter).
    pub fn evictions() -> u64 {
        EVICTIONS.value()
    }

    /// Evict whole epochs, oldest first, until the memo fits the cap. The
    /// current epoch is never evicted (its entries were just used or
    /// inserted by the in-progress batch).
    fn evict_to_cap(&mut self) {
        let Some(cap) = self.memo_cap else { return };
        let mut total: usize = self.attrs.iter().map(|ac| ac.memo.len()).sum();
        while total > cap {
            let oldest = self
                .attrs
                .iter()
                .flat_map(|ac| ac.memo.values())
                .map(|e| e.epoch)
                .filter(|&ep| ep < self.epoch)
                .min();
            let Some(oldest) = oldest else { break };
            let mut dropped = 0usize;
            for ac in &mut self.attrs {
                let before = ac.memo.len();
                ac.memo.retain(|_, e| e.epoch != oldest);
                dropped += before - ac.memo.len();
            }
            EVICTIONS.add(dropped as u64);
            total -= dropped;
        }
    }

    /// The generator this cache was built from.
    pub fn generator(&self) -> &FeatureGenerator {
        &self.generator
    }

    /// Distinct tokens interned across all attribute profiles.
    pub fn interned_tokens(&self) -> usize {
        self.interner.len()
    }

    /// Memoized `(value, value)` similarity vectors currently held.
    pub fn memo_len(&self) -> usize {
        self.attrs.iter().map(|ac| ac.memo.len()).sum()
    }

    /// Compute the feature matrix for a batch of pairs — bit-identical to
    /// [`FeatureGenerator::generate`] on the same tables, with repeated
    /// attribute-value pairs served from the memo. The memo persists across
    /// calls, so later batches (other folds, blocking candidates, the
    /// active-learning pool) reuse earlier work.
    pub fn generate(&mut self, a: &Table, b: &Table, pairs: &[RecordPair]) -> Matrix {
        let _span = em_obs::span!("featcache.generate");
        assert_eq!(a.len(), self.n_left, "left table changed since build");
        assert_eq!(b.len(), self.n_right, "right table changed since build");
        let n = pairs.len();
        let d = self.generator.n_features();
        let mut out = Matrix::zeros(n, d);
        if n == 0 || d == 0 {
            return out;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        for ac in &mut self.attrs {
            ac.fill_memo(pairs, epoch);
        }
        self.evict_to_cap();
        let attrs = &self.attrs;
        let specs = self.generator.specs();
        let writer = em_rt::SliceWriter::new(out.as_mut_slice());
        let jobs = if n < 64 { 1 } else { 0 };
        em_rt::parallel_for(n, jobs, |r| {
            // Safety: each row index is handed out exactly once, and row
            // slices `[r * d, (r + 1) * d)` are pairwise disjoint.
            let row = unsafe { writer.slice_mut(r * d, d) };
            let p = pairs[r];
            for ac in attrs {
                match (ac.a_rows[p.left], ac.b_rows[p.right]) {
                    (Some(va), Some(vb)) => {
                        let vec = &ac.memo[&memo_key(va, vb)].vals;
                        for (&c, &v) in ac.cols.iter().zip(vec.iter()) {
                            row[c] = v;
                        }
                    }
                    // Null on either side: NaN, like the uncached path.
                    _ => {
                        for &c in &ac.cols {
                            row[c] = f64::NAN;
                        }
                    }
                }
            }
            let ra = a.record(p.left);
            let rb = b.record(p.right);
            for (c, spec) in specs.iter().enumerate() {
                if !matches!(spec.kind, FeatureKind::String(_)) {
                    row[c] = compute_feature(
                        &spec.kind,
                        ra.get(spec.attr_index),
                        rb.get(spec.attr_index),
                    );
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featuregen::FeatureScheme;
    use em_table::parse_csv;

    fn bitwise_eq(a: &Matrix, b: &Matrix) {
        assert_eq!(a.nrows(), b.nrows());
        assert_eq!(a.ncols(), b.ncols());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn cached_matches_uncached_on_benchmark() {
        let ds = em_data::Benchmark::FodorsZagats.generate_scaled(3, 0.25);
        for scheme in [FeatureScheme::Magellan, FeatureScheme::AutoMlEm] {
            let g = FeatureGenerator::plan_for_tables(scheme, &ds.table_a, &ds.table_b);
            let pairs: Vec<RecordPair> = ds.pairs.iter().map(|p| p.pair).collect();
            let uncached = g.generate(&ds.table_a, &ds.table_b, &pairs);
            let mut cache = FeatureCache::new(g, &ds.table_a, &ds.table_b);
            let cached = cache.generate(&ds.table_a, &ds.table_b, &pairs);
            bitwise_eq(&uncached, &cached);
            assert!(cache.interned_tokens() > 0);
            assert!(cache.memo_len() > 0);
            // Second batch is served from the memo, still identical.
            let again = cache.generate(&ds.table_a, &ds.table_b, &pairs);
            bitwise_eq(&uncached, &again);
        }
    }

    #[test]
    fn nulls_and_mixed_types_match_uncached() {
        let a = parse_csv("name,price,stock\nwidget,10,true\n,12,false\nacme,NaN,true\n").unwrap();
        let b = parse_csv("name,price,stock\nwidget x,11,true\n,9,\nacme,3,false\n").unwrap();
        let g = FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &a, &b);
        let pairs: Vec<RecordPair> = (0..a.len())
            .flat_map(|i| (0..b.len()).map(move |j| RecordPair::new(i, j)))
            .collect();
        let uncached = g.generate(&a, &b, &pairs);
        let mut cache = FeatureCache::new(g, &a, &b);
        bitwise_eq(&uncached, &cache.generate(&a, &b, &pairs));
    }

    #[test]
    fn memo_persists_across_batches() {
        let ds = em_data::Benchmark::FodorsZagats.generate_scaled(5, 0.2);
        let g =
            FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b);
        let pairs: Vec<RecordPair> = ds.pairs.iter().map(|p| p.pair).collect();
        let mut cache = FeatureCache::new(g, &ds.table_a, &ds.table_b);
        let _ = cache.generate(&ds.table_a, &ds.table_b, &pairs);
        let before = cache.memo_len();
        // Re-featurizing a subset adds no new memo entries.
        let _ = cache.generate(&ds.table_a, &ds.table_b, &pairs[..pairs.len() / 2]);
        assert_eq!(cache.memo_len(), before);
    }

    #[test]
    fn rebind_left_matches_uncached_on_fresh_batches() {
        let ds = em_data::Benchmark::FodorsZagats.generate_scaled(3, 0.25);
        let g =
            FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b);
        // Catalog = table_b; queries arrive as slices of table_a.
        let empty = Table::new(ds.table_a.schema().clone());
        let mut cache = FeatureCache::new(g.clone(), &empty, &ds.table_b);
        let half = ds.table_a.len() / 2;
        for (lo, hi) in [(0, half), (half, ds.table_a.len()), (0, half)] {
            let batch = ds.table_a.slice_rows(lo..hi);
            let pairs: Vec<RecordPair> = (0..batch.len())
                .flat_map(|i| (0..ds.table_b.len()).map(move |j| RecordPair::new(i, j)))
                .collect();
            cache.rebind_left(&batch);
            let cached = cache.generate(&batch, &ds.table_b, &pairs);
            let uncached = g.generate(&batch, &ds.table_b, &pairs);
            bitwise_eq(&uncached, &cached);
        }
    }

    #[test]
    fn unbound_cache_with_both_sides_rebound_matches_uncached() {
        let ds = em_data::Benchmark::FodorsZagats.generate_scaled(3, 0.25);
        let g =
            FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b);
        // The store-backed serving shape: queries are slices of table_a,
        // the "fetched catalog slice" is a varying slice of table_b.
        let mut cache = FeatureCache::unbound(g.clone());
        let half_a = ds.table_a.len() / 2;
        let half_b = ds.table_b.len() / 2;
        let windows = [
            (0, half_a, 0, half_b),
            (half_a, ds.table_a.len(), half_b, ds.table_b.len()),
            (0, half_a, 0, ds.table_b.len()),
        ];
        for (alo, ahi, blo, bhi) in windows {
            let batch = ds.table_a.slice_rows(alo..ahi);
            let slice = ds.table_b.slice_rows(blo..bhi);
            let pairs: Vec<RecordPair> = (0..batch.len())
                .flat_map(|i| (0..slice.len()).map(move |j| RecordPair::new(i, j)))
                .collect();
            cache.rebind_left(&batch);
            cache.rebind_right(&slice);
            let cached = cache.generate(&batch, &slice, &pairs);
            let uncached = g.generate(&batch, &slice, &pairs);
            bitwise_eq(&uncached, &cached);
        }
    }

    #[test]
    fn memo_cap_evicts_old_epochs_and_stays_correct() {
        let ds = em_data::Benchmark::FodorsZagats.generate_scaled(4, 0.25);
        let g =
            FeatureGenerator::plan_for_tables(FeatureScheme::AutoMlEm, &ds.table_a, &ds.table_b);
        let pairs: Vec<RecordPair> = ds.pairs.iter().map(|p| p.pair).collect();
        let uncached = g.generate(&ds.table_a, &ds.table_b, &pairs);
        let mut cache = FeatureCache::new(g, &ds.table_a, &ds.table_b);
        let _ = cache.generate(&ds.table_a, &ds.table_b, &pairs);
        let full = cache.memo_len();
        assert!(full > 8, "test needs a non-trivial memo");
        // A cap below the working set forces eviction between batches, but
        // never of entries the in-progress batch needs — results stay exact.
        cache.set_memo_cap(Some(full / 2));
        let mid = pairs.len() / 2;
        let first = cache.generate(&ds.table_a, &ds.table_b, &pairs[..mid]);
        let second = cache.generate(&ds.table_a, &ds.table_b, &pairs[mid..]);
        for r in 0..pairs.len() {
            let got = if r < mid {
                first.row(r)
            } else {
                second.row(r - mid)
            };
            for (x, y) in got.iter().zip(uncached.row(r)) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert!(
            cache.memo_len() <= full,
            "cap should prevent unbounded growth"
        );
    }

    #[test]
    fn enabled_reads_environment() {
        // Not a parallel-safe env mutation test; just the parse contract.
        assert!(enabled() || std::env::var("EM_FEATCACHE").is_ok());
    }
}

//! Baseline blocking strategies.
//!
//! The paper treats blocking as orthogonal to the matching phase (§II-A),
//! but end-to-end examples need one, so this module provides the two common
//! baseline blockers Magellan offers: attribute equivalence and token
//! overlap. Both avoid the quadratic all-pairs enumeration by hashing.
//!
//! Both run on the shared `em-rt` pool and return the same pairs in the
//! same order at any pool width. Attribute equivalence hashes the right
//! table once, then probes contiguous left-record shards in parallel, each
//! appending to its own buffer; shards are concatenated in range order.
//! Token overlap has no engine of its own: it bulk-builds the serving
//! [`IncrementalIndex`] over the right table and probes it with the left.

use crate::index::{IncrementalIndex, IndexOptions};
use crate::pairs::RecordPair;
use crate::table::Table;
use std::collections::HashMap;

/// Candidate pairs emitted by blocking (all blockers).
static PAIRS_EMITTED: em_obs::Counter = em_obs::Counter::new("blocking.pairs_emitted");

/// A blocker produces the candidate pairs the matcher will score.
pub trait Blocker {
    /// Generate candidate pairs between tables `a` and `b`.
    /// Implementations that run on the shared `em-rt` pool must return the
    /// same pairs in the same order at any pool width.
    fn candidates(&self, a: &Table, b: &Table) -> Vec<RecordPair>;
}

/// Left-table records per parallel shard. Small enough to balance skewed
/// per-record cost (a hub record whose key matches half the right table),
/// large enough that per-shard buffer overhead is noise.
const SHARD_SIZE: usize = 256;

/// Column of `attribute` in `t`; panics naming the `side` table when absent.
fn column(t: &Table, attribute: &str, side: &str) -> usize {
    t.schema()
        .index_of(attribute)
        .unwrap_or_else(|| panic!("attribute {attribute} missing in {side} table"))
}

/// Run a blocker's probe under the `blocking.candidates` span and count
/// the pairs it emits.
fn traced(probe: impl FnOnce() -> Vec<RecordPair>) -> Vec<RecordPair> {
    let _span = em_obs::span!("blocking.candidates");
    let out = probe();
    PAIRS_EMITTED.add(out.len() as u64);
    out
}

/// Probe every left record in `0..n_left` through `probe(record, out)`,
/// sharded over the pool, and return the concatenation of all shard buffers
/// in record order — exactly the serial output, at any pool width.
fn sharded_probe<F>(n_left: usize, probe: F) -> Vec<RecordPair>
where
    F: Fn(usize, &mut Vec<RecordPair>) + Sync,
{
    em_rt::parallel_map(n_left.div_ceil(SHARD_SIZE), 0, |s| {
        let mut buf = Vec::new();
        for i in s * SHARD_SIZE..((s + 1) * SHARD_SIZE).min(n_left) {
            probe(i, &mut buf);
        }
        buf
    })
    .concat()
}

/// Pairs records whose values on one attribute are exactly equal
/// (e.g. "put the restaurants with the same `city` into the same block").
/// Records with a null blocking key produce no candidates.
#[derive(Debug, Clone)]
pub struct AttrEquivalenceBlocker {
    /// Name of the blocking attribute (must exist in both schemas).
    pub attribute: String,
}

impl Blocker for AttrEquivalenceBlocker {
    fn candidates(&self, a: &Table, b: &Table) -> Vec<RecordPair> {
        let col_a = column(a, &self.attribute, "left");
        let col_b = column(b, &self.attribute, "right");
        let mut index: HashMap<String, Vec<usize>> = HashMap::new();
        for rec in b.records() {
            if let Some(key) = rec.get(col_b).to_display_string() {
                index.entry(key).or_default().push(rec.index());
            }
        }
        traced(|| {
            sharded_probe(a.len(), |i, out| {
                if let Some(key) = a.record(i).get(col_a).to_display_string() {
                    if let Some(rights) = index.get(&key) {
                        out.extend(rights.iter().map(|&r| RecordPair::new(i, r)));
                    }
                }
            })
        })
    }
}

/// Pairs records sharing at least `min_overlap` lowercase word tokens on one
/// attribute — the standard "overlap blocker".
///
/// Each call bulk-builds an [`IncrementalIndex`] over the right table and
/// probes it with the left, so batch blocking and serving share one
/// postings engine and agree by construction.
#[derive(Debug, Clone)]
pub struct OverlapBlocker {
    /// Name of the blocking attribute.
    pub attribute: String,
    /// Minimum number of shared word tokens required.
    pub min_overlap: usize,
}

impl Blocker for OverlapBlocker {
    fn candidates(&self, a: &Table, b: &Table) -> Vec<RecordPair> {
        // Check the left table first so a missing attribute panics naming
        // the side, like the attribute-equivalence blocker.
        column(a, &self.attribute, "left");
        let opts = IndexOptions {
            min_overlap: self.min_overlap,
            ..IndexOptions::default()
        };
        let index = IncrementalIndex::build_with_options(&self.attribute, opts, b)
            .unwrap_or_else(|_| panic!("attribute {} missing in right table", self.attribute));
        traced(|| index.candidates(a, 0))
    }
}

/// Candidate pairs for *deduplication* (a single table matched against
/// itself, the paper's "clean a customer table by detecting duplicate
/// customers" scenario): runs the blocker on `(t, t)` and keeps only one
/// orientation of each pair (`left < right`), dropping self-pairs.
pub fn self_join_candidates(blocker: &dyn Blocker, t: &Table) -> Vec<RecordPair> {
    let mut out: Vec<RecordPair> = blocker
        .candidates(t, t)
        .into_iter()
        .filter(|p| p.left < p.right)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Standard blocking-quality metrics (Christen; Papadakis et al. — the
/// paper's reference \[29\] evaluates blockers with exactly these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingStats {
    /// Fraction of the full cross product pruned away:
    /// `1 - |candidates| / (|A| × |B|)`. Higher is cheaper.
    pub reduction_ratio: f64,
    /// Fraction of true matches retained among the candidates
    /// (blocking recall). Higher is safer.
    pub pair_completeness: f64,
    /// Candidate count.
    pub candidates: usize,
}

impl BlockingStats {
    /// Evaluate a candidate set against gold matching pairs.
    pub fn evaluate(
        candidates: &[RecordPair],
        true_matches: &[RecordPair],
        n_left: usize,
        n_right: usize,
    ) -> Self {
        let cross = (n_left * n_right).max(1);
        let candidate_set: std::collections::HashSet<(usize, usize)> =
            candidates.iter().map(|p| (p.left, p.right)).collect();
        let retained = true_matches
            .iter()
            .filter(|p| candidate_set.contains(&(p.left, p.right)))
            .count();
        BlockingStats {
            reduction_ratio: 1.0 - candidate_set.len() as f64 / cross as f64,
            pair_completeness: if true_matches.is_empty() {
                1.0
            } else {
                retained as f64 / true_matches.len() as f64
            },
            candidates: candidate_set.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Value;

    fn tables() -> (Table, Table) {
        let schema = Schema::new(["name", "city"]);
        let mut a = Table::new(schema.clone());
        a.push_row(vec!["arts delicatessen".into(), "studio city".into()])
            .unwrap();
        a.push_row(vec!["fenix".into(), "west hollywood".into()])
            .unwrap();
        a.push_row(vec!["nowhere".into(), Value::Null]).unwrap();
        let mut b = Table::new(schema);
        b.push_row(vec!["arts deli".into(), "studio city".into()])
            .unwrap();
        b.push_row(vec!["fenix at the argyle".into(), "w. hollywood".into()])
            .unwrap();
        (a, b)
    }

    #[test]
    fn attr_equivalence() {
        let (a, b) = tables();
        let blocker = AttrEquivalenceBlocker {
            attribute: "city".into(),
        };
        let cands = blocker.candidates(&a, &b);
        // Only "studio city" matches exactly; nulls never pair.
        assert_eq!(cands, vec![RecordPair::new(0, 0)]);
    }

    #[test]
    fn overlap_blocker_finds_fuzzy_city() {
        let (a, b) = tables();
        let blocker = OverlapBlocker {
            attribute: "city".into(),
            min_overlap: 1,
        };
        let cands = blocker.candidates(&a, &b);
        // "west hollywood" and "w. hollywood" share the token "hollywood".
        assert!(cands.contains(&RecordPair::new(1, 1)));
        assert!(cands.contains(&RecordPair::new(0, 0)));
    }

    #[test]
    fn overlap_threshold_filters() {
        let (a, b) = tables();
        let strict = OverlapBlocker {
            attribute: "name".into(),
            min_overlap: 2,
        };
        let cands = strict.candidates(&a, &b);
        // "arts delicatessen" vs "arts deli": only "arts" is shared -> pruned.
        assert!(cands.is_empty());
    }

    #[test]
    fn overlap_reduces_cross_product() {
        let (a, b) = tables();
        let blocker = OverlapBlocker {
            attribute: "name".into(),
            min_overlap: 1,
        };
        let cands = blocker.candidates(&a, &b);
        assert!(cands.len() < a.len() * b.len());
    }

    #[test]
    fn self_join_drops_diagonal_and_mirrors() {
        let (a, _) = tables();
        let blocker = OverlapBlocker {
            attribute: "name".into(),
            min_overlap: 1,
        };
        let cands = self_join_candidates(&blocker, &a);
        for p in &cands {
            assert!(p.left < p.right, "{p:?}");
        }
        // No duplicates.
        let set: std::collections::BTreeSet<_> = cands.iter().collect();
        assert_eq!(set.len(), cands.len());
    }

    #[test]
    fn blocking_stats_measure_reduction_and_recall() {
        let (a, b) = tables();
        let blocker = OverlapBlocker {
            attribute: "city".into(),
            min_overlap: 1,
        };
        let candidates = blocker.candidates(&a, &b);
        let truth = vec![RecordPair::new(0, 0), RecordPair::new(1, 1)];
        let stats = BlockingStats::evaluate(&candidates, &truth, a.len(), b.len());
        assert!(stats.reduction_ratio > 0.0);
        assert_eq!(stats.pair_completeness, 1.0);
        assert_eq!(stats.candidates, candidates.len());
        // A blocker that returns nothing has perfect reduction, zero recall.
        let empty = BlockingStats::evaluate(&[], &truth, a.len(), b.len());
        assert_eq!(empty.reduction_ratio, 1.0);
        assert_eq!(empty.pair_completeness, 0.0);
    }

    #[test]
    fn parallel_candidates_match_serial_across_shard_boundaries() {
        // Enough left records to span several shards, with repeated keys so
        // blocks straddle shard boundaries.
        let schema = Schema::new(["name", "city"]);
        let mut a = Table::new(schema.clone());
        let mut b = Table::new(schema);
        for i in 0..(3 * super::SHARD_SIZE + 17) {
            a.push_row(vec![
                format!("alpha {}", i % 7).into(),
                format!("city{}", i % 13).into(),
            ])
            .unwrap();
        }
        for i in 0..97 {
            b.push_row(vec![
                format!("alpha {} beta", i % 7).into(),
                format!("city{}", i % 13).into(),
            ])
            .unwrap();
        }
        let overlap = OverlapBlocker {
            attribute: "name".into(),
            min_overlap: 1,
        };
        let equiv = AttrEquivalenceBlocker {
            attribute: "city".into(),
        };
        // The pool width is the only serial/parallel switch: compare a
        // one-thread pool against the default width (4 unless `EM_THREADS`
        // sets it), 2 and 8. Asking for 8 first builds the pool at that
        // width, so the wide runs must really have workers (unless
        // `EM_THREADS=1` asks for a one-thread process).
        let default = match std::env::var("EM_THREADS") {
            Ok(_) => em_rt::threads(),
            Err(_) => 4,
        };
        em_rt::set_threads(8);
        if std::env::var("EM_THREADS").as_deref() != Ok("1") {
            assert!(em_rt::pool_workers() > 0, "the wide runs need pool workers");
        }
        for blocker in [&overlap as &dyn Blocker, &equiv] {
            em_rt::set_threads(1);
            let serial = blocker.candidates(&a, &b);
            assert!(!serial.is_empty());
            for width in [default, 2, 8] {
                em_rt::set_threads(width);
                assert_eq!(serial, blocker.candidates(&a, &b));
            }
        }
        em_rt::set_threads(default);
    }

    #[test]
    #[should_panic(expected = "missing in left table")]
    fn missing_attribute_panics() {
        let (a, b) = tables();
        let blocker = AttrEquivalenceBlocker {
            attribute: "zip".into(),
        };
        let _ = blocker.candidates(&a, &b);
    }
}

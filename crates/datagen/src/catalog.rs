//! Million-record catalog synthesis for serving-scale benchmarks.
//!
//! The entity generators in this crate reproduce the *shape* of the
//! paper's eight benchmark datasets — hundreds to thousands of records.
//! Stress-testing the serving index needs a different knob set: catalogs
//! of 10⁴–10⁶ records whose token frequencies follow the zipf law real
//! vocabularies do (a handful of stopword-like tokens in hundreds of
//! thousands of records, a long tail of near-unique ones), plus a
//! controllable exact-duplicate rate so retraction and dedup paths see
//! realistic collisions.
//!
//! [`ScaleCatalog`] is fully seeded: every record value is a pure function
//! of `(seed, row)`, so benches and soak harnesses can synthesize a record
//! on demand without materializing the whole catalog, and two runs with
//! the same spec agree bit-for-bit.

use crate::vocab;
use em_rt::{derive_seed, parallel_map, StdRng};
use em_table::{Schema, Table, Value};

/// Single-word pools composed into the scale vocabulary (multi-word pools
/// like `CITIES` would split under the whitespace tokenizer).
const POOLS: &[&[&str]] = &[
    vocab::NAME_HEADS,
    vocab::NAME_TAILS,
    vocab::SONG_WORDS,
    vocab::PAPER_WORDS,
    vocab::BEER_ADJECTIVES,
    vocab::BEER_NOUNS,
    vocab::AUTHOR_FIRST,
    vocab::AUTHOR_LAST,
];

/// Shape of a synthetic serving catalog.
#[derive(Debug, Clone)]
pub struct CatalogSpec {
    /// Catalog size in records.
    pub records: usize,
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Distinct tokens in the vocabulary (zipf ranks).
    pub vocab: usize,
    /// Zipf exponent: token rank `r` has weight `1/r^s`. Natural-language
    /// vocabularies sit near 1; higher skews harder.
    pub zipf_s: f64,
    /// Minimum tokens per record value.
    pub min_tokens: usize,
    /// Maximum tokens per record value (inclusive).
    pub max_tokens: usize,
    /// Probability a record is an exact duplicate of an earlier one.
    pub duplicate_rate: f64,
}

impl Default for CatalogSpec {
    fn default() -> Self {
        CatalogSpec {
            records: 10_000,
            seed: 42,
            vocab: 40_000,
            zipf_s: 1.07,
            min_tokens: 4,
            max_tokens: 10,
            duplicate_rate: 0.10,
        }
    }
}

/// A seeded zipf-vocabulary catalog generator. Construction precomputes
/// the vocabulary CDF once (O(vocab)); record values are generated on
/// demand.
pub struct ScaleCatalog {
    spec: CatalogSpec,
    /// Cumulative zipf weights, normalized to end at 1.0; rank = the
    /// partition point of a uniform draw.
    cdf: Vec<f64>,
    /// Deduped base words (pools share words like "golden" and "grill";
    /// dedup keeps rank → token injective).
    words: Vec<&'static str>,
}

impl ScaleCatalog {
    /// Build the generator for `spec` (`records`, `vocab`, `min_tokens` ≥ 1;
    /// `max_tokens` ≥ `min_tokens`).
    pub fn new(spec: CatalogSpec) -> Self {
        assert!(spec.vocab >= 1 && spec.min_tokens >= 1);
        assert!(spec.max_tokens >= spec.min_tokens);
        let mut cdf = Vec::with_capacity(spec.vocab);
        let mut total = 0.0;
        for rank in 1..=spec.vocab {
            total += 1.0 / (rank as f64).powf(spec.zipf_s);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        let mut seen = std::collections::HashSet::new();
        let words = POOLS
            .iter()
            .flat_map(|p| p.iter().copied())
            .filter(|w| seen.insert(*w))
            .collect();
        ScaleCatalog { spec, cdf, words }
    }

    /// The spec this generator was built from.
    pub fn spec(&self) -> &CatalogSpec {
        &self.spec
    }

    /// Token text for vocabulary rank `id` (rank 0 = most frequent).
    /// Pool words carry a numeric generation suffix once the physical
    /// pools are exhausted, so every rank is a distinct non-numeric word.
    fn token_text(&self, id: usize) -> String {
        let (slot, generation) = (id % self.words.len(), id / self.words.len());
        let word = self.words[slot];
        if generation == 0 {
            word.to_string()
        } else {
            format!("{word}{generation}")
        }
    }

    /// Draw a vocabulary rank from the zipf distribution.
    fn sample_rank(&self, rng: &mut StdRng) -> usize {
        let u = rng.unit_f64();
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.spec.vocab - 1)
    }

    /// Compose a fresh (non-duplicate) value from `rng`.
    fn compose(&self, rng: &mut StdRng) -> String {
        let n = rng.random_range(self.spec.min_tokens..=self.spec.max_tokens);
        let mut words = Vec::with_capacity(n);
        for _ in 0..n {
            words.push(self.token_text(self.sample_rank(rng)));
        }
        words.join(" ")
    }

    /// The blocking value of catalog row `row` — a pure function of
    /// `(spec.seed, row)`. With probability `duplicate_rate` a row is an
    /// exact copy of an earlier row (redirects strictly decrease the row,
    /// so the chain always terminates).
    pub fn value(&self, row: usize) -> String {
        let mut i = row;
        loop {
            let mut rng = StdRng::seed_from_u64(derive_seed(self.spec.seed, i as u64));
            if i > 0 && rng.unit_f64() < self.spec.duplicate_rate {
                i = rng.random_range(0..i);
                continue;
            }
            return self.compose(&mut rng);
        }
    }

    /// The schema of every table/row this generator produces.
    pub fn schema(&self) -> Schema {
        Schema::new(["name"])
    }

    /// Catalog row `row` as table cells — for appending rows to a
    /// persistent store one at a time without materializing the catalog.
    pub fn row_values(&self, row: usize) -> Vec<Value> {
        vec![Value::Text(self.value(row))]
    }

    /// Stream the catalog through `sink` in row order, `chunk` rows at a
    /// time: each chunk's values are synthesized in parallel on the
    /// `em-rt` pool (bit-identical at any `EM_THREADS` — every row derives
    /// its own rng), then handed over as `(first_row, rows)`. Peak memory
    /// is O(chunk), never O(records), which is what lets the scale bench
    /// load a million-record catalog into a store the process could not
    /// hold as a `Table`.
    ///
    /// # Errors
    /// Stops at and returns the first error from `sink`.
    pub fn for_each_chunk<E>(
        &self,
        chunk: usize,
        mut sink: impl FnMut(usize, Vec<Vec<Value>>) -> Result<(), E>,
    ) -> Result<(), E> {
        assert!(chunk >= 1);
        let n = self.spec.records;
        let mut start = 0usize;
        while start < n {
            let len = chunk.min(n - start);
            let rows = parallel_map(len, 0, |i| self.row_values(start + i));
            sink(start, rows)?;
            start += len;
        }
        Ok(())
    }

    /// Materialize the whole catalog as a one-column `name` table. Values
    /// are synthesized in parallel on the `em-rt` pool; output is
    /// identical at any `EM_THREADS` because each row derives its own rng.
    pub fn table(&self) -> Table {
        let mut table = Table::new(Schema::new(["name"]));
        for v in parallel_map(self.spec.records, 0, |i| self.value(i)) {
            table.push_row(vec![Value::Text(v)]).unwrap();
        }
        table
    }

    /// Query `q`'s blocking value, drawn from a seed stream disjoint from
    /// the catalog's. Half the queries are noisy lookups of an existing
    /// record (one token dropped, one fresh token appended — the serving
    /// hot path); half are fresh compositions (mostly-miss traffic).
    pub fn query_value(&self, q: usize) -> String {
        let mut rng = StdRng::seed_from_u64(derive_seed(self.spec.seed ^ 0x5EED_CAFE, q as u64));
        if self.spec.records > 0 && rng.unit_f64() < 0.5 {
            let row = rng.random_range(0..self.spec.records);
            let base = self.value(row);
            let mut words: Vec<&str> = base.split_whitespace().collect();
            if words.len() > 1 {
                let drop = rng.random_range(0..words.len());
                words.remove(drop);
            }
            let mut out = words.join(" ");
            let extra = self.token_text(self.sample_rank(&mut rng));
            out.push(' ');
            out.push_str(&extra);
            out
        } else {
            self.compose(&mut rng)
        }
    }

    /// A batch of `n` query records (same schema as [`Self::table`]),
    /// starting at query stream offset `start`.
    pub fn queries(&self, start: usize, n: usize) -> Table {
        let mut table = Table::new(Schema::new(["name"]));
        for q in start..start + n {
            table
                .push_row(vec![Value::Text(self.query_value(q))])
                .unwrap();
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small_spec() -> CatalogSpec {
        CatalogSpec {
            records: 2_000,
            seed: 7,
            vocab: 500,
            ..CatalogSpec::default()
        }
    }

    #[test]
    fn values_are_deterministic() {
        let a = ScaleCatalog::new(small_spec());
        let b = ScaleCatalog::new(small_spec());
        for row in [0, 1, 17, 999, 1_999] {
            assert_eq!(a.value(row), b.value(row));
        }
        for q in [0, 5, 123] {
            assert_eq!(a.query_value(q), b.query_value(q));
        }
    }

    #[test]
    fn table_matches_on_demand_values() {
        let cat = ScaleCatalog::new(CatalogSpec {
            records: 300,
            ..small_spec()
        });
        let table = cat.table();
        assert_eq!(table.len(), 300);
        let col = table.schema().index_of("name").unwrap();
        for rec in table.records() {
            let v = rec.get(col).to_display_string().unwrap();
            assert_eq!(v, cat.value(rec.index()));
        }
    }

    #[test]
    fn chunked_streaming_matches_materialized_table() {
        let cat = ScaleCatalog::new(CatalogSpec {
            records: 300,
            ..small_spec()
        });
        let table = cat.table();
        let mut streamed: Vec<Vec<Value>> = Vec::new();
        cat.for_each_chunk(64, |start, rows| {
            assert_eq!(start, streamed.len());
            streamed.extend(rows);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(streamed.len(), table.len());
        for (i, row) in streamed.iter().enumerate() {
            assert_eq!(row.as_slice(), table.record(i).values());
            assert_eq!(row.as_slice(), cat.row_values(i).as_slice());
        }
        // Errors from the sink stop the stream and propagate.
        let mut calls = 0;
        let err = cat.for_each_chunk(64, |_, _| {
            calls += 1;
            Err("stop")
        });
        assert_eq!((err, calls), (Err("stop"), 1));
    }

    #[test]
    fn duplicate_rate_produces_exact_copies() {
        let cat = ScaleCatalog::new(small_spec());
        let mut seen: HashMap<String, usize> = HashMap::new();
        for row in 0..cat.spec().records {
            *seen.entry(cat.value(row)).or_default() += 1;
        }
        let dups: usize = seen.values().filter(|&&c| c > 1).map(|&c| c - 1).sum();
        let rate = dups as f64 / cat.spec().records as f64;
        // Spec asks for ~10%; chained redirects push the realized rate a
        // little higher, near-unique compositions a little lower.
        assert!(
            (0.05..=0.25).contains(&rate),
            "duplicate rate {rate} out of band"
        );
    }

    #[test]
    fn token_frequencies_are_zipf_skewed() {
        // Vocab larger than the total draw count, so the tail shows as
        // singletons rather than being saturated by repeat draws.
        let cat = ScaleCatalog::new(CatalogSpec {
            vocab: 50_000,
            ..small_spec()
        });
        let mut freq: HashMap<String, usize> = HashMap::new();
        let mut total = 0usize;
        for row in 0..cat.spec().records {
            for w in cat.value(row).split_whitespace() {
                *freq.entry(w.to_string()).or_default() += 1;
                total += 1;
            }
        }
        let max = *freq.values().max().unwrap();
        // The head token should carry percents of all draws — far above
        // the uniform expectation of total/vocab (< 1 here).
        assert!(max * 100 > total, "head token frequency {max} of {total}");
        // And the tail should be long: many tokens seen once or twice.
        let tail = freq.values().filter(|&&c| c <= 2).count();
        assert!(
            tail * 2 > freq.len(),
            "tail too short: {tail}/{}",
            freq.len()
        );
    }

    #[test]
    fn distinct_ranks_yield_distinct_tokens() {
        let cat = ScaleCatalog::new(small_spec());
        let mut seen = std::collections::HashSet::new();
        for id in 0..cat.spec().vocab {
            assert!(seen.insert(cat.token_text(id)), "token collision at {id}");
        }
    }
}

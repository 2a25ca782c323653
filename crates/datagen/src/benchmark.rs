//! The eight benchmark builders mirroring the paper's Table III: dataset
//! sizes, attribute counts, positive-pair counts, and difficulty categories
//! (easy & small, easy & large, hard & large).
//!
//! Real benchmark data is not redistributable here, so each builder
//! synthesizes tables whose *shape* matches the original: same schema arity,
//! same pair counts, same positive rate, string-length profile chosen so the
//! Magellan type inference assigns the same buckets, and noise calibrated to
//! the difficulty class. See DESIGN.md §1 for the substitution argument.

use crate::domains::{
    BeerDomain, DescriptionProductDomain, ElectronicsDomain, PublicationDomain, RestaurantDomain,
    SoftwareDomain, SongDomain,
};
use crate::entity::{family_of, EntityDomain, FAMILY_SIZE};
use crate::noise::NoiseModel;
use em_rt::StdRng;
use em_table::{LabeledPair, PairStats, Table};
use std::collections::BTreeSet;

/// Difficulty category from Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Difficulty {
    /// Easy & small (hundreds of pairs).
    EasySmall,
    /// Easy & large (tens of thousands of pairs).
    EasyLarge,
    /// Hard & large (noisy, textual, ~10k pairs).
    HardLarge,
}

/// Static description of one benchmark (the Table III row).
#[derive(Debug, Clone)]
pub struct DatasetProfile {
    /// Benchmark name as the paper spells it.
    pub name: &'static str,
    /// Total candidate pairs (train + test in the paper's accounting).
    pub total_pairs: usize,
    /// Matching (positive) pairs among them.
    pub positives: usize,
    /// Number of attributes.
    pub n_attrs: usize,
    /// Difficulty category.
    pub difficulty: Difficulty,
}

/// The eight paper benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Beer dataset: 450 pairs, 68 positive, 4 attributes.
    BeerAdvoRateBeer,
    /// Restaurant dataset: 946 pairs, 110 positive, 6 attributes.
    FodorsZagats,
    /// Song dataset: 539 pairs, 132 positive, 8 attributes.
    ItunesAmazon,
    /// Publication dataset: 12363 pairs, 2220 positive, 4 attributes.
    DblpAcm,
    /// Publication dataset: 28707 pairs, 5347 positive, 4 attributes.
    DblpScholar,
    /// Software products: 11460 pairs, 1167 positive, 3 attributes.
    AmazonGoogle,
    /// Electronics: 10242 pairs, 962 positive, 5 attributes.
    WalmartAmazon,
    /// Products with long descriptions: 9575 pairs, 1028 positive, 3 attrs.
    AbtBuy,
}

impl Benchmark {
    /// All eight benchmarks in the paper's Table III order.
    pub fn all() -> [Benchmark; 8] {
        [
            Benchmark::BeerAdvoRateBeer,
            Benchmark::FodorsZagats,
            Benchmark::ItunesAmazon,
            Benchmark::DblpAcm,
            Benchmark::DblpScholar,
            Benchmark::AmazonGoogle,
            Benchmark::WalmartAmazon,
            Benchmark::AbtBuy,
        ]
    }

    /// The Table III row for this benchmark.
    pub fn profile(&self) -> DatasetProfile {
        match self {
            Benchmark::BeerAdvoRateBeer => DatasetProfile {
                name: "BeerAdvo-RateBeer",
                total_pairs: 450,
                positives: 68,
                n_attrs: 4,
                difficulty: Difficulty::EasySmall,
            },
            Benchmark::FodorsZagats => DatasetProfile {
                name: "Fodors-Zagats",
                total_pairs: 946,
                positives: 110,
                n_attrs: 6,
                difficulty: Difficulty::EasySmall,
            },
            Benchmark::ItunesAmazon => DatasetProfile {
                name: "iTunes-Amazon",
                total_pairs: 539,
                positives: 132,
                n_attrs: 8,
                difficulty: Difficulty::EasySmall,
            },
            Benchmark::DblpAcm => DatasetProfile {
                name: "DBLP-ACM",
                total_pairs: 12363,
                positives: 2220,
                n_attrs: 4,
                difficulty: Difficulty::EasyLarge,
            },
            Benchmark::DblpScholar => DatasetProfile {
                name: "DBLP-Scholar",
                total_pairs: 28707,
                positives: 5347,
                n_attrs: 4,
                difficulty: Difficulty::EasyLarge,
            },
            Benchmark::AmazonGoogle => DatasetProfile {
                name: "Amazon-Google",
                total_pairs: 11460,
                positives: 1167,
                n_attrs: 3,
                difficulty: Difficulty::HardLarge,
            },
            Benchmark::WalmartAmazon => DatasetProfile {
                name: "Walmart-Amazon",
                total_pairs: 10242,
                positives: 962,
                n_attrs: 5,
                difficulty: Difficulty::HardLarge,
            },
            Benchmark::AbtBuy => DatasetProfile {
                name: "Abt-Buy",
                total_pairs: 9575,
                positives: 1028,
                n_attrs: 3,
                difficulty: Difficulty::HardLarge,
            },
        }
    }

    /// The A-side and B-side domain generators. DBLP-Scholar renders its B
    /// side in "scholar style" (abbreviated venues, author initials).
    fn domains(&self) -> (Box<dyn EntityDomain>, Box<dyn EntityDomain>) {
        match self {
            Benchmark::BeerAdvoRateBeer => (Box::new(BeerDomain), Box::new(BeerDomain)),
            Benchmark::FodorsZagats => (Box::new(RestaurantDomain), Box::new(RestaurantDomain)),
            Benchmark::ItunesAmazon => (Box::new(SongDomain), Box::new(SongDomain)),
            Benchmark::DblpAcm => (
                Box::new(PublicationDomain {
                    scholar_style: false,
                }),
                Box::new(PublicationDomain {
                    scholar_style: false,
                }),
            ),
            Benchmark::DblpScholar => (
                Box::new(PublicationDomain {
                    scholar_style: false,
                }),
                Box::new(PublicationDomain {
                    scholar_style: true,
                }),
            ),
            Benchmark::AmazonGoogle => (Box::new(SoftwareDomain), Box::new(SoftwareDomain)),
            Benchmark::WalmartAmazon => (Box::new(ElectronicsDomain), Box::new(ElectronicsDomain)),
            Benchmark::AbtBuy => (
                Box::new(DescriptionProductDomain),
                Box::new(DescriptionProductDomain),
            ),
        }
    }

    /// Noise profile for the B side, by difficulty.
    fn noise(&self) -> NoiseModel {
        match self {
            // Paper F1 bands: Beer ~79-82 and DBLP-Scholar ~92-95 are the
            // noisier members of the "easy" category.
            Benchmark::BeerAdvoRateBeer | Benchmark::DblpScholar => NoiseModel::medium(),
            Benchmark::ItunesAmazon => NoiseModel {
                typo: 0.05,
                drop_token: 0.06,
                ..NoiseModel::light()
            },
            _ => match self.profile().difficulty {
                Difficulty::EasySmall | Difficulty::EasyLarge => NoiseModel::light(),
                Difficulty::HardLarge => NoiseModel::heavy(),
            },
        }
    }

    /// Per-attribute noise override, modeling the *structural* divergence of
    /// the real sources (e.g. the Google side of Amazon-Google leaves the
    /// manufacturer blank for most products; Abt and Buy price the same item
    /// differently). `None` falls back to [`Benchmark::noise`].
    fn attr_noise(&self, attr: usize) -> Option<NoiseModel> {
        let base = self.noise();
        match (self, attr) {
            // Amazon-Google: manufacturer mostly missing on one side,
            // prices diverge.
            (Benchmark::AmazonGoogle, 1) => Some(NoiseModel {
                missing: 0.55,
                ..base
            }),
            (Benchmark::AmazonGoogle, 2) => Some(NoiseModel {
                numeric_jitter: 0.20,
                numeric_requantize: 0.6,
                missing: 0.15,
                ..base
            }),
            // Walmart-Amazon: model numbers typo-ridden or absent, brand
            // sometimes blank.
            (Benchmark::WalmartAmazon, 3) => Some(NoiseModel {
                typo: 0.40,
                missing: 0.40,
                ..base
            }),
            (Benchmark::WalmartAmazon, 2) => Some(NoiseModel {
                missing: 0.25,
                ..base
            }),
            // Abt-Buy: names often drop the distinguishing model token,
            // descriptions are rewrapped, prices diverge between the shops.
            (Benchmark::AbtBuy, 0) => Some(NoiseModel {
                drop_token: 0.35,
                typo: 0.15,
                ..base
            }),
            (Benchmark::AbtBuy, 1) => Some(NoiseModel {
                drop_token: 0.22,
                typo: 0.10,
                swap_tokens: 0.30,
                ..base
            }),
            (Benchmark::AbtBuy, 2) => Some(NoiseModel {
                numeric_jitter: 0.15,
                numeric_requantize: 0.6,
                missing: 0.20,
                ..base
            }),
            // BeerAdvo-RateBeer: the two sites disagree on ABV decimals.
            (Benchmark::BeerAdvoRateBeer, 3) => Some(NoiseModel {
                numeric_jitter: 0.015,
                numeric_requantize: 0.2,
                ..base
            }),
            (Benchmark::BeerAdvoRateBeer, 0) => Some(NoiseModel {
                typo: 0.06,
                drop_token: 0.06,
                ..base
            }),
            _ => None,
        }
    }

    /// Fraction of negatives drawn from the same family (hard negatives).
    fn hard_negative_fraction(&self) -> f64 {
        match self.profile().difficulty {
            Difficulty::EasySmall | Difficulty::EasyLarge => 0.35,
            Difficulty::HardLarge => 0.70,
        }
    }

    /// Generate the dataset at the paper's full size.
    pub fn generate(&self, seed: u64) -> EmDataset {
        self.generate_scaled(seed, 1.0)
    }

    /// Generate at `scale` × the paper's size (0 < scale ≤ 1). Tests and
    /// quick experiment runs use small scales; the full harness uses 1.0.
    ///
    /// Entity synthesis is one pool task per entity: entity `e` draws from
    /// its own `derive_seed(seed, e)` RNG stream and writes into its own
    /// row slot, so the dataset depends only on `(seed, scale)` and is
    /// bit-identical at any pool width. Negative-pair sampling runs serially
    /// on a separate `derive_seed(seed, u64::MAX)` stream (a reserved index
    /// no entity can reach).
    pub fn generate_scaled(&self, seed: u64, scale: f64) -> EmDataset {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let profile = self.profile();
        let positives = ((profile.positives as f64 * scale).round() as usize).max(8);
        let total = ((profile.total_pairs as f64 * scale).round() as usize).max(positives * 2);
        let negatives = total - positives;
        let (domain_a, domain_b) = self.domains();
        let noise = self.noise();
        let mut table_a = Table::new(domain_a.schema());
        let mut table_b = Table::new(domain_b.schema());
        // One entity per positive pair; A gets the clean render, B the
        // noisy render of the same entity (DBLP-Scholar also switches the
        // rendering style via its distinct B-side domain).
        let rows = em_rt::parallel_map(positives, 0, |e| {
            let mut rng = StdRng::seed_from_u64(em_rt::derive_seed(seed, e as u64));
            let (family, member) = family_of(e);
            let rec_a = domain_a.base_record(family, member, &mut rng);
            let rec_b_base = domain_b.base_record(family, member, &mut rng);
            let rec_b: Vec<em_table::Value> = rec_b_base
                .iter()
                .enumerate()
                .map(|(col, v)| {
                    let model = self.attr_noise(col).unwrap_or(noise);
                    model.apply(v, &mut rng)
                })
                .collect();
            (rec_a, rec_b)
        });
        for (rec_a, rec_b) in rows {
            table_a.push_row(rec_a).expect("domain arity");
            table_b.push_row(rec_b).expect("domain arity");
        }
        let mut rng = StdRng::seed_from_u64(em_rt::derive_seed(seed, u64::MAX));
        let mut pairs: Vec<LabeledPair> = (0..positives)
            .map(|e| LabeledPair::new(e, e, true))
            .collect();
        // Negatives reference existing rows: same-family cross pairs are the
        // hard ones, cross-family pairs the easy ones. Hard pairs are finite
        // (≈ positives × (FAMILY_SIZE - 1)), so enumerate them exhaustively,
        // shuffle, and take up to the target; easy pairs fill the remainder.
        let hard_target = (negatives as f64 * self.hard_negative_fraction()).round() as usize;
        let mut seen: BTreeSet<(usize, usize)> = (0..positives).map(|e| (e, e)).collect();
        let mut hard_pool: Vec<(usize, usize)> = Vec::new();
        for i in 0..positives {
            let (family, _) = family_of(i);
            for m in 0..FAMILY_SIZE {
                let j = family * FAMILY_SIZE + m;
                if j != i && j < positives {
                    hard_pool.push((i, j));
                }
            }
        }
        {
            use em_rt::SliceRandom;
            hard_pool.shuffle(&mut rng);
        }
        let mut negatives_made = 0usize;
        for (i, j) in hard_pool.into_iter().take(hard_target.min(negatives)) {
            if seen.insert((i, j)) {
                pairs.push(LabeledPair::new(i, j, false));
                negatives_made += 1;
            }
        }
        // Easy negatives: random cross-family pairs until the count is met
        // (bounded retries guard against pathological tiny datasets).
        let mut attempts = 0usize;
        let max_attempts = negatives * 200 + 10_000;
        while negatives_made < negatives && attempts < max_attempts {
            attempts += 1;
            let i = rng.random_range(0..positives);
            let j = rng.random_range(0..positives);
            if family_of(i).0 == family_of(j).0 {
                continue;
            }
            if seen.insert((i, j)) {
                pairs.push(LabeledPair::new(i, j, false));
                negatives_made += 1;
            }
        }
        EmDataset {
            name: profile.name.to_owned(),
            benchmark: *self,
            table_a,
            table_b,
            pairs,
        }
    }
}

/// A generated EM dataset: two tables plus the labeled candidate pairs.
#[derive(Debug, Clone)]
pub struct EmDataset {
    /// Human-readable benchmark name.
    pub name: String,
    /// Which benchmark produced this dataset.
    pub benchmark: Benchmark,
    /// Left (clean) table.
    pub table_a: Table,
    /// Right (noisy) table.
    pub table_b: Table,
    /// Labeled candidate pairs.
    pub pairs: Vec<LabeledPair>,
}

impl EmDataset {
    /// Positive/total statistics.
    pub fn stats(&self) -> PairStats {
        PairStats::of(&self.pairs)
    }

    /// Gold labels as 0/1 class indices in pair order.
    pub fn labels(&self) -> Vec<usize> {
        self.pairs.iter().map(|p| usize::from(p.label)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_table_iii() {
        let p = Benchmark::DblpScholar.profile();
        assert_eq!(p.total_pairs, 28707);
        assert_eq!(p.positives, 5347);
        assert_eq!(p.n_attrs, 4);
        let p = Benchmark::AbtBuy.profile();
        assert_eq!(p.total_pairs, 9575);
        assert_eq!(p.positives, 1028);
        assert_eq!(p.n_attrs, 3);
    }

    #[test]
    fn schema_arity_matches_profiles() {
        for b in Benchmark::all() {
            let ds = b.generate_scaled(0, 0.05);
            assert_eq!(
                ds.table_a.schema().len(),
                b.profile().n_attrs,
                "{}",
                ds.name
            );
            assert_eq!(ds.table_b.schema().len(), b.profile().n_attrs);
        }
    }

    #[test]
    fn scaled_counts_are_proportional() {
        let ds = Benchmark::AbtBuy.generate_scaled(1, 0.1);
        let stats = ds.stats();
        let profile = Benchmark::AbtBuy.profile();
        let expect_pos = (profile.positives as f64 * 0.1).round() as usize;
        assert_eq!(stats.positives, expect_pos);
        assert!(
            (stats.total as f64 - profile.total_pairs as f64 * 0.1).abs()
                < profile.total_pairs as f64 * 0.02,
            "total {} vs expected ~{}",
            stats.total,
            profile.total_pairs / 10
        );
    }

    #[test]
    fn pairs_reference_valid_rows_and_are_unique() {
        let ds = Benchmark::FodorsZagats.generate_scaled(2, 0.5);
        let mut seen = BTreeSet::new();
        for p in &ds.pairs {
            assert!(p.pair.left < ds.table_a.len());
            assert!(p.pair.right < ds.table_b.len());
            assert!(seen.insert((p.pair.left, p.pair.right)), "duplicate pair");
        }
    }

    #[test]
    fn positives_are_diagonal_negatives_off_diagonal() {
        let ds = Benchmark::BeerAdvoRateBeer.generate_scaled(3, 1.0);
        for p in &ds.pairs {
            assert_eq!(p.label, p.pair.left == p.pair.right);
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = Benchmark::ItunesAmazon.generate_scaled(7, 0.5);
        let b = Benchmark::ItunesAmazon.generate_scaled(7, 0.5);
        assert_eq!(a.table_a, b.table_a);
        assert_eq!(a.table_b, b.table_b);
        assert_eq!(a.pairs, b.pairs);
        let c = Benchmark::ItunesAmazon.generate_scaled(8, 0.5);
        assert_ne!(a.table_b, c.table_b);
    }

    #[test]
    fn positive_pairs_are_textually_similar() {
        use em_text::{jaccard, Tokenizer};
        let ds = Benchmark::FodorsZagats.generate_scaled(4, 1.0);
        let mut pos_sim = 0.0;
        let mut neg_sim = 0.0;
        let (mut np, mut nn) = (0, 0);
        for p in &ds.pairs {
            let a = ds.table_a.record(p.pair.left);
            let b = ds.table_b.record(p.pair.right);
            let (Some(na), Some(nb)) = (a.get(0).to_display_string(), b.get(0).to_display_string())
            else {
                continue;
            };
            let s = jaccard(&na, &nb, Tokenizer::QGram(3));
            if p.label {
                pos_sim += s;
                np += 1;
            } else {
                neg_sim += s;
                nn += 1;
            }
        }
        let pos_avg = pos_sim / np as f64;
        let neg_avg = neg_sim / nn as f64;
        assert!(
            pos_avg > neg_avg + 0.2,
            "positives ({pos_avg:.2}) should be clearly more similar than negatives ({neg_avg:.2})"
        );
    }

    #[test]
    fn hard_dataset_has_more_confusable_negatives() {
        use em_text::{jaccard, Tokenizer};
        let easy = Benchmark::FodorsZagats.generate_scaled(5, 0.5);
        let hard = Benchmark::AbtBuy.generate_scaled(5, 0.05);
        let avg_neg_sim = |ds: &EmDataset| {
            let mut total = 0.0;
            let mut n = 0;
            for p in ds.pairs.iter().filter(|p| !p.label) {
                let a = ds.table_a.record(p.pair.left).get(0).to_display_string();
                let b = ds.table_b.record(p.pair.right).get(0).to_display_string();
                if let (Some(a), Some(b)) = (a, b) {
                    total += jaccard(&a, &b, Tokenizer::Whitespace);
                    n += 1;
                }
            }
            total / n as f64
        };
        assert!(avg_neg_sim(&hard) > avg_neg_sim(&easy));
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn zero_scale_rejected() {
        let _ = Benchmark::AbtBuy.generate_scaled(0, 0.0);
    }
}

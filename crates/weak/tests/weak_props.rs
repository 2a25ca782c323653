//! Property and degenerate-case tests for the weak-supervision subsystem:
//! DSL JSON round-trips, label-model fixed points on pathological vote
//! matrices, and the zero-hand-labels AutoML path end to end.

use automl_em::{all_string_similarities, AutoMlEmOptions, FeatureScheme, PreparedDataset};
use em_data::Benchmark;
use em_table::RecordPair;
use em_text::{StringSimilarity, Tokenizer};
use em_weak::{
    majority_vote, similarity_from_name, weak_automl, Comparison, LabelModel, LabelModelOptions,
    LfRule, LfSet, Vote, VoteMatrix, WeakSupervision,
};

fn sample_lf_set() -> LfSet {
    LfSet::new([
        (
            "name_jaccard_high",
            LfRule::SimThreshold {
                attr: "name".to_owned(),
                sim: StringSimilarity::Jaccard(Tokenizer::Whitespace),
                cmp: Comparison::AtLeast,
                threshold: 0.8,
                vote: Vote::Match,
            },
        ),
        (
            "name_qgram_low",
            LfRule::SimThreshold {
                attr: "name".to_owned(),
                sim: StringSimilarity::Jaccard(Tokenizer::QGram(3)),
                cmp: Comparison::AtMost,
                threshold: 0.2,
                vote: Vote::NonMatch,
            },
        ),
        (
            "city_equal",
            LfRule::AttrEquality {
                attr: "city".to_owned(),
                vote_equal: Vote::Match,
                vote_differ: Vote::Abstain,
            },
        ),
        (
            "name_no_overlap",
            LfRule::BlockingOverlap {
                attr: "name".to_owned(),
                tokenizer: Tokenizer::Whitespace,
                cmp: Comparison::AtMost,
                shared: 0,
                vote: Vote::NonMatch,
            },
        ),
        (
            "name_monge_elkan",
            LfRule::SimThreshold {
                attr: "name".to_owned(),
                sim: StringSimilarity::MongeElkan,
                cmp: Comparison::AtLeast,
                threshold: 0.95,
                vote: Vote::Match,
            },
        ),
    ])
}

#[test]
fn lf_set_json_round_trips_identically() {
    let lfs = sample_lf_set();
    let rendered = lfs.to_json().render();
    let parsed = LfSet::from_json(&em_rt::Json::parse(&rendered).unwrap()).unwrap();
    assert_eq!(parsed, lfs);
    // parse -> render -> parse is the identity on the rendered form too.
    assert_eq!(parsed.to_json().render(), rendered);
}

#[test]
fn every_similarity_name_round_trips() {
    let mut sims = all_string_similarities();
    sims.push(StringSimilarity::OverlapSize(Tokenizer::Whitespace));
    sims.push(StringSimilarity::OverlapSize(Tokenizer::QGram(3)));
    sims.push(StringSimilarity::Jaccard(Tokenizer::QGram(2)));
    for sim in sims {
        assert_eq!(similarity_from_name(&sim.name()), Some(sim), "{sim:?}");
    }
    assert_eq!(similarity_from_name("no_such_sim"), None);
    // q-gram widths are capped at 16.
    let q16 = StringSimilarity::Jaccard(Tokenizer::QGram(16));
    assert_eq!(similarity_from_name("jaccard_16gram"), Some(q16));
    assert_eq!(similarity_from_name("jaccard_17gram"), None);
}

#[test]
fn malformed_json_is_rejected_with_context() {
    for (rule, name) in [
        (
            r#""type": "sim_threshold", "sim": "unknown_sim", "threshold": 0.5"#,
            "unknown_sim",
        ),
        (
            r#""type": "sim_threshold", "sim": "jaccard_4000000000gram", "threshold": 0.5"#,
            "jaccard_4000000000gram",
        ),
        (
            r#""type": "blocking_overlap", "tokenizer": "17gram", "shared": 1"#,
            "17gram",
        ),
    ] {
        let bad = em_rt::Json::parse(&format!(
            r#"{{"labeling_functions": [{{"name": "x", "attr": "a", {rule},
                "cmp": "at_least", "vote": "match"}}]}}"#
        ))
        .unwrap();
        let err = LfSet::from_json(&bad).unwrap_err();
        assert!(err.contains('x') && err.contains(name), "{err}");
    }
}

/// Truth-aligned votes from three perfectly accurate LFs (with different
/// propensities) on an alternating truth vector.
fn perfect_votes(n: usize) -> (VoteMatrix, Vec<usize>) {
    let truth: Vec<usize> = (0..n).map(|i| usize::from(i % 3 == 0)).collect();
    let mut votes = Vec::with_capacity(n * 3);
    for (i, &y) in truth.iter().enumerate() {
        let v = if y == 1 { 1i8 } else { -1i8 };
        votes.push(v);
        votes.push(if i % 2 == 0 { v } else { 0 });
        votes.push(if i % 5 == 0 { 0 } else { v });
    }
    (VoteMatrix::from_votes(votes, n, 3), truth)
}

#[test]
fn majority_vote_equals_label_model_when_lfs_are_perfect() {
    let (votes, truth) = perfect_votes(60);
    let model = LabelModel::fit(&votes, &LabelModelOptions::default());
    assert!(model.converged);
    let posteriors = model.posteriors(&votes);
    let mv = majority_vote(&votes);
    for i in 0..votes.n_pairs() {
        assert_eq!(
            posteriors[i] >= 0.5,
            mv[i] >= 0.5,
            "pair {i}: posterior {} vs majority {}",
            posteriors[i],
            mv[i]
        );
        assert_eq!(usize::from(posteriors[i] >= 0.5), truth[i], "pair {i}");
    }
    // Perfect agreement drives every accuracy toward the ceiling; the MAP
    // pseudo-votes at the 0.7 init center keep it strictly below, more so
    // for the lower-coverage LFs.
    for (j, &a) in model.accuracies.iter().enumerate() {
        assert!(a > 0.9, "lf {j} learned accuracy {a}");
        assert!(a < 1.0 - 1e-3 + 1e-12, "lf {j} learned accuracy {a}");
    }
}

#[test]
fn label_model_separates_good_from_noisy_lf() {
    // LF 0 is right 95% of the time, LF 1 only 60%, LF 2 90%: the learned
    // accuracies must order 0 above 1. Three LFs are the minimum — with
    // only two, the agreement matrix is symmetric in the pair and their
    // accuracies are unidentifiable under a fixed class prior (the same
    // reason Snorkel's triplet method needs conditionally independent
    // triples).
    let n = 400;
    let mut rng = em_rt::StdRng::seed_from_u64(7);
    let truth: Vec<i8> = (0..n).map(|i| if i % 4 == 0 { 1 } else { -1 }).collect();
    let mut votes = Vec::with_capacity(n * 3);
    for &y in &truth {
        votes.push(if rng.random_bool(0.95) { y } else { -y });
        votes.push(if rng.random_bool(0.60) { y } else { -y });
        votes.push(if rng.random_bool(0.90) { y } else { -y });
    }
    let votes = VoteMatrix::from_votes(votes, n, 3);
    let model = LabelModel::fit(&votes, &LabelModelOptions::default());
    assert!(
        model.accuracies[0] > model.accuracies[1] + 0.1,
        "accuracies {:?}",
        model.accuracies
    );
    assert!(model.accuracies[0] > 0.85);
    assert!((model.propensities[0] - 1.0).abs() < 1e-12);
}

#[test]
fn all_abstain_votes_yield_a_finite_fixed_point() {
    let votes = VoteMatrix::from_votes(vec![0i8; 50 * 4], 50, 4);
    let stats = votes.stats();
    assert_eq!(stats.covered, 0);
    assert_eq!(stats.conflicted, 0);
    assert_eq!(stats.coverage_rate(), 0.0);
    let model = LabelModel::fit(&votes, &LabelModelOptions::default());
    assert!(model.converged);
    assert_eq!(model.iterations, 0);
    assert!(model.prior.is_finite());
    assert!(model.propensities.iter().all(|&b| b == 0.0));
    let posteriors = model.posteriors(&votes);
    // No evidence: every posterior is exactly the prior.
    assert!(posteriors.iter().all(|&p| (p - model.prior).abs() < 1e-12));
}

#[test]
fn single_lf_orders_posteriors_by_vote() {
    let votes: Vec<i8> = (0..30).map(|i| [1i8, 0, -1][i % 3]).collect();
    let votes = VoteMatrix::from_votes(votes, 30, 1);
    let opts = LabelModelOptions::default();
    let model = LabelModel::fit(&votes, &opts);
    assert!(model.converged);
    let a = model.accuracies[0];
    assert!((opts.clamp..=1.0 - opts.clamp).contains(&a), "accuracy {a}");
    let p = model.posteriors(&votes);
    assert!(p[0] > p[1] && p[1] > p[2], "posteriors {:?}", &p[..3]);
}

#[test]
fn perfectly_correlated_duplicate_lfs_do_not_diverge() {
    // Ten copies of the same column: conditional independence is maximally
    // violated, the posterior saturates, but every parameter must stay
    // finite and inside the clamp interval.
    let n = 80;
    let base: Vec<i8> = (0..n).map(|i| if i % 4 == 0 { 1 } else { -1 }).collect();
    let m = 10;
    let mut votes = Vec::with_capacity(n * m);
    for &v in &base {
        votes.extend(std::iter::repeat_n(v, m));
    }
    let votes = VoteMatrix::from_votes(votes, n, m);
    let stats = votes.stats();
    assert_eq!(stats.covered, n);
    assert_eq!(stats.conflicted, 0);
    let opts = LabelModelOptions::default();
    let model = LabelModel::fit(&votes, &opts);
    assert!(model.iterations <= opts.max_iterations);
    for &a in &model.accuracies {
        assert!(a.is_finite());
        assert!((opts.clamp..=1.0 - opts.clamp).contains(&a), "accuracy {a}");
    }
    let p = model.posteriors(&votes);
    assert!(p.iter().all(|&x| x.is_finite() && (0.0..=1.0).contains(&x)));
    // Duplicates must not flip the labels: majority agreement preserved.
    for (i, &v) in base.iter().enumerate() {
        assert_eq!(p[i] >= 0.5, v > 0, "pair {i}");
    }
}

#[test]
fn compile_dedupes_shared_columns_and_validates_names() {
    let ds = Benchmark::FodorsZagats.generate_scaled(3, 0.05);
    let schema = ds.table_a.schema();
    let lfs = sample_lf_set();
    let compiled = lfs.compile(schema).unwrap();
    assert_eq!(compiled.n_lfs(), 5);
    // All five rules reference distinct (attr, similarity) columns.
    assert_eq!(compiled.n_columns(), 5);

    // A second threshold on the same similarity shares its column.
    let mut shared = lfs.clone();
    shared.lfs.push(em_weak::LabelingFunction {
        name: "name_jaccard_mid".to_owned(),
        rule: LfRule::SimThreshold {
            attr: "name".to_owned(),
            sim: StringSimilarity::Jaccard(Tokenizer::Whitespace),
            cmp: Comparison::AtMost,
            threshold: 0.4,
            vote: Vote::NonMatch,
        },
    });
    let shared = shared.compile(schema).unwrap();
    assert_eq!(shared.n_lfs(), 6);
    assert_eq!(shared.n_columns(), 5);

    let unknown = LfSet::new([(
        "bad",
        LfRule::AttrEquality {
            attr: "no_such_attr".to_owned(),
            vote_equal: Vote::Match,
            vote_differ: Vote::Abstain,
        },
    )]);
    assert!(unknown
        .compile(schema)
        .unwrap_err()
        .contains("no_such_attr"));

    let mut dup = sample_lf_set();
    dup.lfs.push(dup.lfs[0].clone());
    assert!(dup.compile(schema).unwrap_err().contains("duplicate"));

    assert!(LfSet::default().compile(schema).is_err());
}

#[test]
fn applied_votes_match_scalar_rule_evaluation() {
    let ds = Benchmark::FodorsZagats.generate_scaled(11, 0.1);
    let pairs: Vec<RecordPair> = ds.pairs.iter().map(|p| p.pair).collect();
    let lfs = sample_lf_set();
    let compiled = lfs.compile(ds.table_a.schema()).unwrap();
    let votes = compiled.apply(&ds.table_a, &ds.table_b, &pairs);
    assert_eq!(votes.n_pairs(), pairs.len());
    assert_eq!(votes.n_lfs(), lfs.len());
    // Re-evaluate a few rows through the scalar &str path.
    let schema = ds.table_a.schema();
    for (i, pair) in pairs.iter().enumerate().step_by(17) {
        for (j, lf) in lfs.lfs.iter().enumerate() {
            let attr = schema.index_of(lf.rule.attr()).unwrap();
            let va = ds.table_a.record(pair.left).get(attr);
            let vb = ds.table_b.record(pair.right).get(attr);
            let value = match (va.as_text(), vb.as_text()) {
                (Some(a), Some(b)) => match &lf.rule {
                    LfRule::SimThreshold { sim, .. } => sim.apply(a, b),
                    LfRule::AttrEquality { .. } => StringSimilarity::ExactMatch.apply(a, b),
                    LfRule::BlockingOverlap { tokenizer, .. } => {
                        StringSimilarity::OverlapSize(*tokenizer).apply(a, b)
                    }
                },
                _ => f64::NAN,
            };
            assert_eq!(
                votes.row(i)[j],
                lf.rule.vote_for(value).as_i8(),
                "pair {i} lf {}",
                lf.name
            );
        }
    }
}

#[test]
fn weak_automl_labels_fodors_zagats_with_zero_hand_labels() {
    let seed = 42;
    let ds = Benchmark::FodorsZagats.generate_scaled(seed, 0.3);
    let prep = PreparedDataset::prepare(&ds, FeatureScheme::AutoMlEm, seed);
    let mut pool: Vec<usize> = prep.split.train.clone();
    pool.extend_from_slice(&prep.split.valid);
    let pool_pairs: Vec<RecordPair> = pool.iter().map(|&i| ds.pairs[i].pair).collect();

    let lfs = LfSet::similarity_battery(&ds.table_a, &ds.table_b, 0.7, 0.2);
    assert!(!lfs.is_empty());
    let sup = WeakSupervision::run(
        &lfs,
        &ds.table_a,
        &ds.table_b,
        &pool_pairs,
        &LabelModelOptions::default(),
    )
    .unwrap();
    assert!(sup.stats.coverage_rate() > 0.5, "battery barely covers");

    let training = sup.training_set();
    let x_pool = prep.features.select_rows(&pool);
    let options = AutoMlEmOptions {
        budget: em_automl::Budget::Evaluations(4),
        seed,
        ..AutoMlEmOptions::default()
    };
    let result = weak_automl(&x_pool, &training, options, 0.2, seed).unwrap();
    let (x_test, y_test) = prep.test();
    let f1 = result.automl.fitted.f1(&x_test, &y_test);
    assert!(f1 > 0.6, "zero-hand-label F1 {f1} below floor");
}

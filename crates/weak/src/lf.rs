//! The labeling-function DSL: small declarative rules that vote
//! match / non-match / abstain on candidate record pairs.
//!
//! Three rule shapes cover the battery Panda-style weak supervision needs
//! for entity matching:
//!
//! * [`LfRule::SimThreshold`] — compare any Table-II string similarity on
//!   one attribute against a threshold ("jaccard_space(name) ≥ 0.8 →
//!   match").
//! * [`LfRule::AttrEquality`] — exact string equality of one attribute,
//!   with separate votes for the equal and differing cases ("phone equal →
//!   match, else abstain").
//! * [`LfRule::BlockingOverlap`] — threshold the *raw* shared-token count
//!   (the quantity blocking computes) on one attribute ("0 shared name
//!   tokens → non-match").
//!
//! An [`LfSet`] round-trips through [`em_rt::Json`] and compiles against a
//! table schema into a [`CompiledLfSet`]: every rule is lowered to one
//! similarity column (deduplicated across rules), evaluated for all pairs
//! through the interned [`automl_em::FeatureCache`] — so LF application
//! reuses the memoized similarity kernels and is bit-identical at any
//! `EM_THREADS` — and then thresholded into a [`VoteMatrix`].

use automl_em::{
    featcache, FeatureCache, FeatureGenerator, FeatureKind, FeatureScheme, FeatureSpec,
};
use em_rt::Json;
use em_table::{RecordPair, Schema, Table};
use em_text::{StringSimilarity, Tokenizer};

/// Candidate pairs run through `CompiledLfSet::apply` (one per pair per
/// call, regardless of how many LFs voted).
static PAIRS_LABELED: em_obs::Counter = em_obs::Counter::new("weak.pairs_labeled");
/// Non-abstain votes emitted across all LFs and pairs.
static LF_VOTES: em_obs::Counter = em_obs::Counter::new("weak.lf_votes");
/// Pairs that received at least one non-abstain vote.
static PAIRS_COVERED: em_obs::Counter = em_obs::Counter::new("weak.pairs_covered");
/// Pairs that received votes of both polarities.
static PAIRS_CONFLICTED: em_obs::Counter = em_obs::Counter::new("weak.pairs_conflicted");

/// One labeling function's verdict on one candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vote {
    /// The pair does not match.
    NonMatch,
    /// No opinion (the rule's condition did not fire, or the attribute
    /// value was missing).
    Abstain,
    /// The pair matches.
    Match,
}

impl Vote {
    /// Encoded vote: `+1` match, `-1` non-match, `0` abstain.
    pub fn as_i8(self) -> i8 {
        match self {
            Vote::NonMatch => -1,
            Vote::Abstain => 0,
            Vote::Match => 1,
        }
    }

    /// Stable snake-case name used in the JSON encoding.
    pub fn name(self) -> &'static str {
        match self {
            Vote::NonMatch => "non_match",
            Vote::Abstain => "abstain",
            Vote::Match => "match",
        }
    }

    /// Inverse of [`Vote::name`].
    pub fn from_name(name: &str) -> Option<Vote> {
        match name {
            "non_match" => Some(Vote::NonMatch),
            "abstain" => Some(Vote::Abstain),
            "match" => Some(Vote::Match),
            _ => None,
        }
    }
}

/// Direction of a threshold comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// Fires when `value >= threshold`.
    AtLeast,
    /// Fires when `value <= threshold`.
    AtMost,
}

impl Comparison {
    /// Whether `value` satisfies the comparison against `threshold`.
    pub fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            Comparison::AtLeast => value >= threshold,
            Comparison::AtMost => value <= threshold,
        }
    }

    /// Stable snake-case name used in the JSON encoding.
    pub fn name(self) -> &'static str {
        match self {
            Comparison::AtLeast => "at_least",
            Comparison::AtMost => "at_most",
        }
    }

    /// Inverse of [`Comparison::name`].
    pub fn from_name(name: &str) -> Option<Comparison> {
        match name {
            "at_least" => Some(Comparison::AtLeast),
            "at_most" => Some(Comparison::AtMost),
            _ => None,
        }
    }
}

/// The rule body of a labeling function.
#[derive(Debug, Clone, PartialEq)]
pub enum LfRule {
    /// Threshold any Table-II string similarity on one attribute; emits
    /// `vote` when the comparison holds, abstains otherwise.
    SimThreshold {
        /// Attribute name in the shared schema.
        attr: String,
        /// Which similarity to evaluate.
        sim: StringSimilarity,
        /// Comparison direction.
        cmp: Comparison,
        /// Threshold value.
        threshold: f64,
        /// Vote emitted when the comparison holds.
        vote: Vote,
    },
    /// Exact string equality of one attribute with separate votes for the
    /// equal and differing cases (either may be `Abstain`).
    AttrEquality {
        /// Attribute name in the shared schema.
        attr: String,
        /// Vote when the attribute values are equal.
        vote_equal: Vote,
        /// Vote when the attribute values differ.
        vote_differ: Vote,
    },
    /// Threshold the raw shared-token count on one attribute; emits `vote`
    /// when the comparison holds, abstains otherwise.
    BlockingOverlap {
        /// Attribute name in the shared schema.
        attr: String,
        /// Tokenizer for the overlap count.
        tokenizer: Tokenizer,
        /// Comparison direction.
        cmp: Comparison,
        /// Shared-token threshold.
        shared: usize,
        /// Vote emitted when the comparison holds.
        vote: Vote,
    },
}

impl LfRule {
    /// The attribute the rule reads.
    pub fn attr(&self) -> &str {
        match self {
            LfRule::SimThreshold { attr, .. }
            | LfRule::AttrEquality { attr, .. }
            | LfRule::BlockingOverlap { attr, .. } => attr,
        }
    }

    /// The similarity column the rule is lowered to.
    fn feature_kind(&self) -> FeatureKind {
        match self {
            LfRule::SimThreshold { sim, .. } => FeatureKind::String(*sim),
            LfRule::AttrEquality { .. } => FeatureKind::String(StringSimilarity::ExactMatch),
            LfRule::BlockingOverlap { tokenizer, .. } => {
                FeatureKind::String(StringSimilarity::OverlapSize(*tokenizer))
            }
        }
    }

    /// Evaluate the rule on its precomputed similarity value. A NaN value
    /// (missing attribute on either side) always abstains.
    pub fn vote_for(&self, value: f64) -> Vote {
        if value.is_nan() {
            return Vote::Abstain;
        }
        match self {
            LfRule::SimThreshold {
                cmp,
                threshold,
                vote,
                ..
            } => {
                if cmp.holds(value, *threshold) {
                    *vote
                } else {
                    Vote::Abstain
                }
            }
            LfRule::AttrEquality {
                vote_equal,
                vote_differ,
                ..
            } => {
                if value >= 0.5 {
                    *vote_equal
                } else {
                    *vote_differ
                }
            }
            LfRule::BlockingOverlap {
                cmp, shared, vote, ..
            } => {
                if cmp.holds(value, *shared as f64) {
                    *vote
                } else {
                    Vote::Abstain
                }
            }
        }
    }

    fn to_json(&self) -> Json {
        match self {
            LfRule::SimThreshold {
                attr,
                sim,
                cmp,
                threshold,
                vote,
            } => Json::obj([
                ("type", Json::from("sim_threshold")),
                ("attr", Json::from(attr.as_str())),
                ("sim", Json::Str(sim.name())),
                ("cmp", Json::from(cmp.name())),
                ("threshold", Json::from(*threshold)),
                ("vote", Json::from(vote.name())),
            ]),
            LfRule::AttrEquality {
                attr,
                vote_equal,
                vote_differ,
            } => Json::obj([
                ("type", Json::from("attr_equality")),
                ("attr", Json::from(attr.as_str())),
                ("vote_equal", Json::from(vote_equal.name())),
                ("vote_differ", Json::from(vote_differ.name())),
            ]),
            LfRule::BlockingOverlap {
                attr,
                tokenizer,
                cmp,
                shared,
                vote,
            } => Json::obj([
                ("type", Json::from("blocking_overlap")),
                ("attr", Json::from(attr.as_str())),
                ("tokenizer", Json::Str(tokenizer.name())),
                ("cmp", Json::from(cmp.name())),
                ("shared", Json::from(*shared as f64)),
                ("vote", Json::from(vote.name())),
            ]),
        }
    }

    fn from_json(value: &Json) -> Result<LfRule, String> {
        let field = |key: &str| -> Result<&Json, String> {
            value
                .get(key)
                .ok_or_else(|| format!("rule is missing {key:?}"))
        };
        let text = |key: &str| -> Result<&str, String> {
            field(key)?
                .as_str()
                .ok_or_else(|| format!("rule field {key:?} must be a string"))
        };
        let vote = |key: &str| -> Result<Vote, String> {
            let name = text(key)?;
            Vote::from_name(name).ok_or_else(|| format!("unknown vote {name:?} in {key:?}"))
        };
        let cmp = |key: &str| -> Result<Comparison, String> {
            let name = text(key)?;
            Comparison::from_name(name).ok_or_else(|| format!("unknown comparison {name:?}"))
        };
        match text("type")? {
            "sim_threshold" => Ok(LfRule::SimThreshold {
                attr: text("attr")?.to_owned(),
                sim: {
                    let name = text("sim")?;
                    similarity_from_name(name)
                        .ok_or_else(|| format!("unknown similarity {name:?}"))?
                },
                cmp: cmp("cmp")?,
                threshold: field("threshold")?
                    .as_f64()
                    .ok_or("rule field \"threshold\" must be a number")?,
                vote: vote("vote")?,
            }),
            "attr_equality" => Ok(LfRule::AttrEquality {
                attr: text("attr")?.to_owned(),
                vote_equal: vote("vote_equal")?,
                vote_differ: vote("vote_differ")?,
            }),
            "blocking_overlap" => Ok(LfRule::BlockingOverlap {
                attr: text("attr")?.to_owned(),
                tokenizer: {
                    let name = text("tokenizer")?;
                    tokenizer_from_name(name)
                        .ok_or_else(|| format!("unknown tokenizer {name:?}"))?
                },
                cmp: cmp("cmp")?,
                shared: field("shared")?
                    .as_f64()
                    .ok_or("rule field \"shared\" must be a number")?
                    as usize,
                vote: vote("vote")?,
            }),
            other => Err(format!("unknown rule type {other:?}")),
        }
    }
}

/// Widest q-gram an LF set may name (see [`tokenizer_from_name`]).
const MAX_QGRAM: usize = 16;

/// Inverse of [`Tokenizer::name`] (`"space"`, `"3gram"`, ...). A q-gram
/// wider than 16 is `None`: rules use 2–4, and q-gram tokenization builds
/// about `len + q` strings of `q` chars per value, so an unbounded width
/// read from an LF set file would be an unbounded allocation per value.
pub fn tokenizer_from_name(name: &str) -> Option<Tokenizer> {
    if name == "space" {
        return Some(Tokenizer::Whitespace);
    }
    let q: usize = name.strip_suffix("gram")?.parse().ok()?;
    (q <= MAX_QGRAM).then_some(Tokenizer::QGram(q))
}

/// Inverse of [`StringSimilarity::name`] (`"jaccard_space"`,
/// `"overlap_size_3gram"`, ...).
pub fn similarity_from_name(name: &str) -> Option<StringSimilarity> {
    match name {
        "lev_dist" => return Some(StringSimilarity::LevenshteinDistance),
        "lev_sim" => return Some(StringSimilarity::LevenshteinSimilarity),
        "jaro" => return Some(StringSimilarity::Jaro),
        "exact_match" => return Some(StringSimilarity::ExactMatch),
        "jaro_winkler" => return Some(StringSimilarity::JaroWinkler),
        "needleman_wunsch" => return Some(StringSimilarity::NeedlemanWunsch),
        "smith_waterman" => return Some(StringSimilarity::SmithWaterman),
        "monge_elkan" => return Some(StringSimilarity::MongeElkan),
        _ => {}
    }
    // "overlap_size_" shares the "overlap_" prefix: check it first.
    type Ctor = fn(Tokenizer) -> StringSimilarity;
    let prefixed: [(&str, Ctor); 5] = [
        ("overlap_size_", StringSimilarity::OverlapSize),
        ("overlap_", StringSimilarity::OverlapCoefficient),
        ("dice_", StringSimilarity::Dice),
        ("cosine_", StringSimilarity::Cosine),
        ("jaccard_", StringSimilarity::Jaccard),
    ];
    for (prefix, ctor) in prefixed {
        if let Some(rest) = name.strip_prefix(prefix) {
            return tokenizer_from_name(rest).map(ctor);
        }
    }
    None
}

/// A named labeling function.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelingFunction {
    /// Unique name (used in stats, traces, and the report table).
    pub name: String,
    /// The rule body.
    pub rule: LfRule,
}

/// An ordered set of labeling functions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LfSet {
    /// The labeling functions, in application (column) order.
    pub lfs: Vec<LabelingFunction>,
}

impl LfSet {
    /// Build a set from `(name, rule)` pairs.
    pub fn new<S: Into<String>>(lfs: impl IntoIterator<Item = (S, LfRule)>) -> Self {
        LfSet {
            lfs: lfs
                .into_iter()
                .map(|(name, rule)| LabelingFunction {
                    name: name.into(),
                    rule,
                })
                .collect(),
        }
    }

    /// Number of labeling functions.
    pub fn len(&self) -> usize {
        self.lfs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.lfs.is_empty()
    }

    /// Serialize to JSON (`{"labeling_functions": [{"name": ..., ...}]}`).
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "labeling_functions",
            Json::arr(self.lfs.iter().map(|lf| {
                let mut fields = vec![("name".to_owned(), Json::from(lf.name.as_str()))];
                if let Json::Obj(rule_fields) = lf.rule.to_json() {
                    fields.extend(rule_fields);
                }
                Json::Obj(fields)
            })),
        )])
    }

    /// Parse the [`LfSet::to_json`] encoding.
    pub fn from_json(value: &Json) -> Result<LfSet, String> {
        let items = value
            .get("labeling_functions")
            .and_then(Json::as_arr)
            .ok_or("expected a \"labeling_functions\" array")?;
        let mut lfs = Vec::with_capacity(items.len());
        for item in items {
            let name = item
                .get("name")
                .and_then(Json::as_str)
                .ok_or("labeling function is missing \"name\"")?
                .to_owned();
            let rule = LfRule::from_json(item).map_err(|e| format!("{name}: {e}"))?;
            lfs.push(LabelingFunction { name, rule });
        }
        Ok(LfSet { lfs })
    }

    /// Resolve attribute names against `schema` and lower every rule to a
    /// similarity column (deduplicated across rules, so e.g. two thresholds
    /// on `jaccard_space(name)` share one column and one memoized kernel).
    pub fn compile(&self, schema: &Schema) -> Result<CompiledLfSet, String> {
        if self.lfs.is_empty() {
            return Err("labeling-function set is empty".to_owned());
        }
        for (i, lf) in self.lfs.iter().enumerate() {
            if self.lfs[..i].iter().any(|other| other.name == lf.name) {
                return Err(format!("duplicate labeling-function name {:?}", lf.name));
            }
        }
        let mut specs: Vec<FeatureSpec> = Vec::new();
        let mut columns = Vec::with_capacity(self.lfs.len());
        for lf in &self.lfs {
            let attr = lf.rule.attr();
            let attr_index = schema.index_of(attr).ok_or_else(|| {
                format!(
                    "labeling function {:?}: unknown attribute {attr:?}",
                    lf.name
                )
            })?;
            let kind = lf.rule.feature_kind();
            let col = specs
                .iter()
                .position(|s| s.attr_index == attr_index && s.kind == kind);
            let col = match col {
                Some(c) => c,
                None => {
                    specs.push(FeatureSpec {
                        attr_index,
                        attr_name: attr.to_owned(),
                        kind,
                    });
                    specs.len() - 1
                }
            };
            columns.push(col);
        }
        Ok(CompiledLfSet {
            lfs: self.lfs.clone(),
            generator: FeatureGenerator::from_specs(FeatureScheme::AutoMlEm, specs),
            columns,
        })
    }
}

/// An [`LfSet`] lowered against a schema: one similarity column per
/// distinct `(attribute, similarity)` the rules reference.
#[derive(Debug, Clone)]
pub struct CompiledLfSet {
    lfs: Vec<LabelingFunction>,
    generator: FeatureGenerator,
    columns: Vec<usize>,
}

impl CompiledLfSet {
    /// The labeling functions, in column order.
    pub fn lfs(&self) -> &[LabelingFunction] {
        &self.lfs
    }

    /// Number of labeling functions.
    pub fn n_lfs(&self) -> usize {
        self.lfs.len()
    }

    /// Number of distinct similarity columns the set evaluates.
    pub fn n_columns(&self) -> usize {
        self.generator.n_features()
    }

    /// Evaluate every labeling function on every candidate pair.
    ///
    /// The similarity columns are computed through [`FeatureCache`] (or the
    /// uncached generator under `EM_FEATCACHE=off` — both paths are
    /// bit-identical), then thresholded serially into votes, so the result
    /// is bit-identical at any `EM_THREADS`.
    pub fn apply(&self, a: &Table, b: &Table, pairs: &[RecordPair]) -> VoteMatrix {
        let _span = em_obs::span!("weak.apply");
        let feats = if featcache::enabled() {
            let mut cache = FeatureCache::new(self.generator.clone(), a, b);
            cache.generate(a, b, pairs)
        } else {
            self.generator.generate(a, b, pairs)
        };
        let n_pairs = pairs.len();
        let n_lfs = self.lfs.len();
        let mut votes = vec![0i8; n_pairs * n_lfs];
        let mut lf_votes = 0u64;
        let mut covered = 0u64;
        let mut conflicted = 0u64;
        for i in 0..n_pairs {
            let row = &mut votes[i * n_lfs..(i + 1) * n_lfs];
            let (mut pos, mut neg) = (false, false);
            for (slot, (lf, &col)) in row.iter_mut().zip(self.lfs.iter().zip(&self.columns)) {
                let v = lf.rule.vote_for(feats.get(i, col)).as_i8();
                *slot = v;
                pos |= v > 0;
                neg |= v < 0;
                lf_votes += (v != 0) as u64;
            }
            covered += (pos || neg) as u64;
            conflicted += (pos && neg) as u64;
        }
        PAIRS_LABELED.add(n_pairs as u64);
        LF_VOTES.add(lf_votes);
        PAIRS_COVERED.add(covered);
        PAIRS_CONFLICTED.add(conflicted);
        VoteMatrix {
            votes,
            n_pairs,
            n_lfs,
        }
    }
}

/// Votes of every labeling function on every candidate pair, row-major
/// (`row(i)[j]` = vote of LF `j` on pair `i`, encoded via [`Vote::as_i8`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteMatrix {
    votes: Vec<i8>,
    n_pairs: usize,
    n_lfs: usize,
}

impl VoteMatrix {
    /// Build from a row-major vote buffer.
    pub fn from_votes(votes: Vec<i8>, n_pairs: usize, n_lfs: usize) -> Self {
        assert_eq!(votes.len(), n_pairs * n_lfs, "vote buffer shape mismatch");
        VoteMatrix {
            votes,
            n_pairs,
            n_lfs,
        }
    }

    /// Number of candidate pairs (rows).
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Number of labeling functions (columns).
    pub fn n_lfs(&self) -> usize {
        self.n_lfs
    }

    /// The votes on pair `i`.
    pub fn row(&self, i: usize) -> &[i8] {
        &self.votes[i * self.n_lfs..(i + 1) * self.n_lfs]
    }

    /// Coverage and agreement statistics (serial, fixed order).
    pub fn stats(&self) -> VoteStats {
        let mut lf_votes = vec![0usize; self.n_lfs];
        let mut lf_positive = vec![0usize; self.n_lfs];
        let mut covered = 0usize;
        let mut conflicted = 0usize;
        for i in 0..self.n_pairs {
            let row = self.row(i);
            let (mut pos, mut neg) = (false, false);
            for (j, &v) in row.iter().enumerate() {
                if v != 0 {
                    lf_votes[j] += 1;
                    if v > 0 {
                        lf_positive[j] += 1;
                        pos = true;
                    } else {
                        neg = true;
                    }
                }
            }
            covered += (pos || neg) as usize;
            conflicted += (pos && neg) as usize;
        }
        VoteStats {
            n_pairs: self.n_pairs,
            lf_votes,
            lf_positive,
            covered,
            conflicted,
        }
    }
}

/// Aggregate coverage/conflict statistics of a [`VoteMatrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteStats {
    /// Number of candidate pairs.
    pub n_pairs: usize,
    /// Non-abstain votes per LF.
    pub lf_votes: Vec<usize>,
    /// Match votes per LF.
    pub lf_positive: Vec<usize>,
    /// Pairs with at least one non-abstain vote.
    pub covered: usize,
    /// Pairs with votes of both polarities.
    pub conflicted: usize,
}

impl VoteStats {
    /// Fraction of pairs LF `j` voted on.
    pub fn lf_coverage(&self, j: usize) -> f64 {
        if self.n_pairs == 0 {
            0.0
        } else {
            self.lf_votes[j] as f64 / self.n_pairs as f64
        }
    }

    /// Fraction of pairs with at least one vote.
    pub fn coverage_rate(&self) -> f64 {
        if self.n_pairs == 0 {
            0.0
        } else {
            self.covered as f64 / self.n_pairs as f64
        }
    }

    /// Fraction of pairs with votes of both polarities.
    pub fn conflict_rate(&self) -> f64 {
        if self.n_pairs == 0 {
            0.0
        } else {
            self.conflicted as f64 / self.n_pairs as f64
        }
    }
}

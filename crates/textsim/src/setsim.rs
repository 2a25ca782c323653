//! Token-set similarity functions (Table II rows 9-16): Jaccard, Dice,
//! cosine, and overlap coefficient, each parameterized by a [`Tokenizer`].
//!
//! Token sets are sorted deduplicated `Vec<String>`s and the intersection
//! is a merge join — no tree allocation per call. The interned-profile path
//! ([`crate::eval_families`]) merge-joins `u32` id slices instead, once per
//! tokenizer, and shares [`set_score`]'s arithmetic.

use crate::tokenize::Tokenizer;
use crate::StringSimilarity;

fn intersection_size(a: &[String], b: &[String]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Jaccard similarity `|A ∩ B| / |A ∪ B|` over token sets.
///
/// ```
/// use em_text::Tokenizer;
/// let s = em_text::jaccard("new york", "new york city", Tokenizer::Whitespace);
/// assert!((s - 2.0 / 3.0).abs() < 1e-12);
/// ```
pub fn jaccard(a: &str, b: &str, tok: Tokenizer) -> f64 {
    on_sets(StringSimilarity::Jaccard(tok), tok, a, b)
}

/// Dice similarity `2|A ∩ B| / (|A| + |B|)` over token sets.
pub fn dice(a: &str, b: &str, tok: Tokenizer) -> f64 {
    on_sets(StringSimilarity::Dice(tok), tok, a, b)
}

/// Set cosine similarity `|A ∩ B| / sqrt(|A| * |B|)` over token sets
/// (the Ochiai coefficient, which is what `py_stringmatching.Cosine`
/// computes on token sets).
pub fn cosine(a: &str, b: &str, tok: Tokenizer) -> f64 {
    on_sets(StringSimilarity::Cosine(tok), tok, a, b)
}

/// Raw shared-token count `|A ∩ B|` over token sets (unnormalized).
///
/// This is the quantity blocking already computes when it counts shared
/// tokens between candidate records; exposing it as a similarity lets
/// labeling functions threshold on "at least k tokens in common" without
/// the normalization of Jaccard/Dice/cosine. Not part of the Table II
/// feature battery.
pub fn overlap_size(a: &str, b: &str, tok: Tokenizer) -> f64 {
    on_sets(StringSimilarity::OverlapSize(tok), tok, a, b)
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)` over token sets.
pub fn overlap_coefficient(a: &str, b: &str, tok: Tokenizer) -> f64 {
    on_sets(StringSimilarity::OverlapCoefficient(tok), tok, a, b)
}

/// `sim` on the token sets of `a` and `b` under `tok`.
fn on_sets(sim: StringSimilarity, tok: Tokenizer, a: &str, b: &str) -> f64 {
    let sa = tok.sorted_tokens(a);
    let sb = tok.sorted_tokens(b);
    set_score(sim, intersection_size(&sa, &sb), sa.len(), sb.len())
}

/// A token-set measure from `|A ∩ B|`, `|A|` and `|B|`: the arithmetic the
/// `&str` functions and [`crate::eval_families`] share. The normalized
/// measures score two empty sets 1 and one empty set 0; the raw
/// [`overlap_size`] is the plain count.
pub(crate) fn set_score(sim: StringSimilarity, inter: usize, na: usize, nb: usize) -> f64 {
    if let StringSimilarity::OverlapSize(_) = sim {
        return inter as f64;
    }
    if na == 0 && nb == 0 {
        return 1.0;
    }
    if na == 0 || nb == 0 {
        return 0.0;
    }
    match sim {
        StringSimilarity::Jaccard(_) => inter as f64 / (na + nb - inter) as f64,
        StringSimilarity::Dice(_) => 2.0 * inter as f64 / (na + nb) as f64,
        StringSimilarity::Cosine(_) => inter as f64 / ((na as f64) * (nb as f64)).sqrt(),
        StringSimilarity::OverlapCoefficient(_) => inter as f64 / na.min(nb) as f64,
        _ => unreachable!("{sim:?} is not a token-set measure"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WS: Tokenizer = Tokenizer::Whitespace;

    #[test]
    fn paper_jaccard_example() {
        // Section III-B: jaccard("new york", "new york city") = 2/3.
        assert!((jaccard("new york", "new york city", WS) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn identical_inputs_score_one() {
        for f in [jaccard, dice, cosine, overlap_coefficient] {
            assert_eq!(f("a b c", "a b c", WS), 1.0);
            assert_eq!(f("", "", WS), 1.0);
        }
    }

    #[test]
    fn disjoint_inputs_score_zero() {
        for f in [jaccard, dice, cosine, overlap_coefficient] {
            assert_eq!(f("a b", "c d", WS), 0.0);
            assert_eq!(f("a", "", WS), 0.0);
        }
    }

    #[test]
    fn dice_known() {
        // A={a,b,c}, B={b,c,d}: dice = 2*2/6 = 2/3
        assert!((dice("a b c", "b c d", WS) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_known() {
        // A={a,b}, B={b}: 1 / sqrt(2)
        assert!((cosine("a b", "b", WS) - 1.0 / 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn overlap_subset_is_one() {
        assert_eq!(overlap_coefficient("a b", "a b c d", WS), 1.0);
    }

    #[test]
    fn overlap_size_counts_shared_distinct_tokens() {
        assert_eq!(overlap_size("a b c", "b c d", WS), 2.0);
        assert_eq!(overlap_size("a a b", "a", WS), 1.0);
        assert_eq!(overlap_size("a b", "c d", WS), 0.0);
        assert_eq!(overlap_size("", "", WS), 0.0);
    }

    #[test]
    fn ordering_overlap_ge_dice_ge_jaccard() {
        // For any pair, overlap >= dice >= jaccard (standard inequalities).
        for (a, b) in [("a b c", "b c d e"), ("x y", "y z"), ("p q r s", "q")] {
            let j = jaccard(a, b, WS);
            let d = dice(a, b, WS);
            let o = overlap_coefficient(a, b, WS);
            assert!(o >= d - 1e-12);
            assert!(d >= j - 1e-12);
        }
    }

    #[test]
    fn qgram_variant() {
        let t = Tokenizer::QGram(3);
        // shared grams 7, union 12 -> 7/12
        assert!((jaccard("nichola", "nicholas", t) - 7.0 / 12.0).abs() < 1e-12);
        assert_eq!(jaccard("abc", "abc", t), 1.0);
    }

    #[test]
    fn merge_join_matches_btreeset_intersection() {
        // Duplicated tokens in the input must collapse before the join.
        for (a, b) in [
            ("a b a b c", "b c c d"),
            ("x x x", "x"),
            ("p q", ""),
            ("m n o", "n o p q n"),
        ] {
            let sa = WS.sorted_tokens(a);
            let sb = WS.sorted_tokens(b);
            let naive = WS.token_set(a).intersection(&WS.token_set(b)).count();
            assert_eq!(intersection_size(&sa, &sb), naive, "{a:?} vs {b:?}");
        }
    }
}

//! Tokenizers used by the token-based similarity functions.
//!
//! The paper's feature-generation tables (Tables I and II) pair token-based
//! similarity functions with one of two tokenizers: whitespace (`Space`) and
//! 3-gram (`QGram(3)`).

use std::collections::BTreeSet;

/// A tokenizer splits a string into tokens. Token-based similarity functions
/// operate on the resulting token *sets* (duplicates removed), matching the
/// behaviour of the `py_stringmatching` tokenizers Magellan uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tokenizer {
    /// Split on runs of Unicode `White_Space` chars (`str::split_whitespace`).
    Whitespace,
    /// Sliding character q-grams of the given width. Strings are padded with
    /// `#` on both sides (q-1 pad characters), so even strings shorter than
    /// `q` produce tokens.
    QGram(usize),
}

impl Tokenizer {
    /// Tokenize `s` into a list of tokens (duplicates preserved, in order).
    pub fn tokenize(&self, s: &str) -> Vec<String> {
        match *self {
            Tokenizer::Whitespace => s.split_whitespace().map(str::to_owned).collect(),
            Tokenizer::QGram(q) => qgrams(s, q),
        }
    }

    /// Tokenize `s` into a set of unique tokens.
    pub fn token_set(&self, s: &str) -> BTreeSet<String> {
        self.tokenize(s).into_iter().collect()
    }

    /// Tokenize `s` into a sorted, deduplicated token list — the same set
    /// as [`Tokenizer::token_set`] but flat, so set intersections can run
    /// as merge joins without tree allocation.
    pub fn sorted_tokens(&self, s: &str) -> Vec<String> {
        let mut toks = self.tokenize(s);
        toks.sort_unstable();
        toks.dedup();
        toks
    }

    /// Short lowercase name used when building feature names
    /// (e.g. `jaccard_space`, `cosine_3gram`).
    pub fn name(&self) -> String {
        match *self {
            Tokenizer::Whitespace => "space".to_owned(),
            Tokenizer::QGram(q) => format!("{q}gram"),
        }
    }
}

/// Character q-grams with `#` padding on both ends, mirroring
/// `py_stringmatching.QgramTokenizer(padding=True)`.
///
/// An empty input produces no tokens. `q` of zero is treated as one.
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    let q = q.max(1);
    if s.is_empty() {
        return Vec::new();
    }
    let pad = "#".repeat(q.saturating_sub(1));
    let padded: Vec<char> = format!("{pad}{s}{pad}").chars().collect();
    if padded.len() < q {
        return vec![padded.iter().collect()];
    }
    padded.windows(q).map(|w| w.iter().collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitespace_splits_on_runs() {
        let t = Tokenizer::Whitespace;
        assert_eq!(t.tokenize("new  york\tcity"), vec!["new", "york", "city"]);
    }

    #[test]
    fn whitespace_empty_string() {
        assert!(Tokenizer::Whitespace.tokenize("").is_empty());
        assert!(Tokenizer::Whitespace.tokenize("   ").is_empty());
    }

    #[test]
    fn qgram_basic() {
        // "ab" with q=3 pads to "##ab##": ##a, #ab, ab#, b##
        assert_eq!(qgrams("ab", 3), vec!["##a", "#ab", "ab#", "b##"]);
    }

    #[test]
    fn qgram_single_char() {
        assert_eq!(qgrams("a", 2), vec!["#a", "a#"]);
    }

    #[test]
    fn qgram_empty() {
        assert!(qgrams("", 3).is_empty());
    }

    #[test]
    fn qgram_count_formula() {
        // With padding q-1 on both sides, an n-char string yields n + q - 1 grams.
        for q in 1..=4usize {
            for s in ["a", "ab", "abcdef"] {
                let n = s.chars().count();
                assert_eq!(qgrams(s, q).len(), n + q - 1, "s={s} q={q}");
            }
        }
    }

    #[test]
    fn qgram_unicode_safe() {
        // Must not panic on multi-byte characters.
        let grams = qgrams("café", 2);
        assert_eq!(grams.len(), 5);
        assert_eq!(grams[0], "#c");
        assert_eq!(grams[4], "é#");
    }

    #[test]
    fn token_set_dedupes() {
        let set = Tokenizer::Whitespace.token_set("a b a b c");
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn names() {
        assert_eq!(Tokenizer::Whitespace.name(), "space");
        assert_eq!(Tokenizer::QGram(3).name(), "3gram");
    }
}

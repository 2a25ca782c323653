//! Interned token profiles: everything the similarity kernels need about
//! one string, computed once.
//!
//! The Table-II scheme evaluates 16 string similarities per attribute per
//! candidate pair, and the same attribute value participates in many pairs.
//! The `&str` entry points re-tokenize and re-collect `Vec<char>` buffers on
//! every call. This module moves that work to a precompute-once-probe-many
//! shape:
//!
//! * [`TokenInterner`] maps token strings to dense `u32` ids (insertion
//!   order, so interning is deterministic when driven serially).
//! * [`TokenProfile`] caches everything the 16 similarity functions need
//!   about one string: the char buffer, whitespace token spans (in order,
//!   duplicates preserved — Monge-Elkan needs them), and *sorted deduped*
//!   token-id slices for the Whitespace and QGram(3) tokenizers.
//!
//! [`eval_families`](crate::eval_families) evaluates a list of measures on
//! two profiles, bit-identical to
//! [`StringSimilarity::apply`](crate::StringSimilarity::apply) on the
//! original strings. Its per-pair char masks live in per-thread scratch,
//! not here: profiles are kept for as long as their value can recur.
//!
//! Profile construction is split in two so the expensive half can run on
//! the `em-rt` pool without losing determinism: [`ProfileDraft::new`] does
//! the tokenizing/sorting work and is side-effect free (safe to run in any
//! order, in parallel), while [`TokenProfile::from_draft`] interns the token
//! strings and must be driven serially in a fixed order so ids never depend
//! on the thread count.

use crate::tokenize::{Tokenizer, QGRAM_PAD};
use std::collections::HashMap;

/// The q-gram width the profile precomputes (Table II uses QGram(3) only).
pub const PROFILE_QGRAM: usize = 3;

/// Maps token strings to dense `u32` ids in first-intern order.
///
/// One interner serves both tokenizers' namespaces: id equality is string
/// equality, and whitespace-token id slices are only ever intersected with
/// other whitespace slices (same for q-grams), so sharing the id space is
/// harmless and keeps the blocker/profile plumbing to a single type.
#[derive(Debug, Clone, Default)]
pub struct TokenInterner {
    map: HashMap<String, u32>,
}

impl TokenInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Id for `token`, interning it on first sight.
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.map.get(token) {
            return id;
        }
        let id = u32::try_from(self.map.len()).expect("more than u32::MAX distinct tokens");
        self.map.insert(token.to_owned(), id);
        id
    }

    /// Id for `token` if it has been interned (never allocates).
    pub fn get(&self, token: &str) -> Option<u32> {
        self.map.get(token).copied()
    }

    /// Number of distinct tokens interned.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no token has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Export the vocabulary as `(token, id)` pairs sorted by id — the
    /// persistence hook for index artifacts (`em-serve`). Ids are dense in
    /// `0..len()`, so re-interning the tokens in id order reproduces this
    /// interner exactly.
    pub fn export(&self) -> Vec<(&str, u32)> {
        let mut entries: Vec<(&str, u32)> = self
            .map
            .iter()
            .map(|(tok, &id)| (tok.as_str(), id))
            .collect();
        entries.sort_unstable_by_key(|&(_, id)| id);
        entries
    }

    /// Rebuild an interner from tokens listed in id order (the shape
    /// [`TokenInterner::export`] produces). Fails if any token repeats.
    pub fn from_tokens<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, String> {
        let mut interner = TokenInterner::new();
        for token in tokens {
            let before = interner.len();
            let id = interner.intern(&token);
            if (id as usize) != before {
                return Err(format!("duplicate token {token:?} in interner import"));
            }
        }
        Ok(interner)
    }
}

/// The parallel-safe half of profile construction: everything about one
/// string except the token ids. See the module docs for why the split
/// exists.
///
/// A draft holds no token strings. Whitespace tokens stay spans into the
/// chars, and each 3-gram is its three code points packed into a `u64`
/// (21 bits each, first char highest). Both lists are sorted and
/// deduplicated by content: code-point order is UTF-8 byte order, so they
/// come out in `String` order, the order [`TokenProfile::from_draft`]
/// interns them in. Token strings are built only there, one at a time in
/// a reused buffer.
#[derive(Debug, Clone)]
pub struct ProfileDraft {
    chars: Vec<char>,
    ws_spans: Vec<(u32, u32)>,
    /// One span per distinct whitespace token, in string order.
    ws_unique: Vec<(u32, u32)>,
    /// Distinct packed 3-grams, ascending (string order).
    qgram_unique: Vec<u64>,
}

/// Bits per code point in a packed 3-gram (`char::MAX` is below 2^21).
const CODE_BITS: u32 = 21;

impl ProfileDraft {
    /// Tokenize and dedupe `s` (the expensive part; no shared state).
    pub fn new(s: &str) -> Self {
        let chars: Vec<char> = s.chars().collect();
        // Whitespace token spans over `chars`: maximal runs of
        // non-whitespace, matching `str::split_whitespace` exactly.
        let mut ws_spans = Vec::new();
        let mut start = None;
        for (i, c) in chars.iter().enumerate() {
            if c.is_whitespace() {
                if let Some(s0) = start.take() {
                    ws_spans.push((s0 as u32, i as u32));
                }
            } else if start.is_none() {
                start = Some(i);
            }
        }
        if let Some(s0) = start {
            ws_spans.push((s0 as u32, chars.len() as u32));
        }
        let mut ws_unique = ws_spans.clone();
        ws_unique.sort_unstable_by(|&x, &y| span_chars(&chars, x).cmp(span_chars(&chars, y)));
        ws_unique.dedup_by(|x, y| span_chars(&chars, *x) == span_chars(&chars, *y));
        // The 3-grams of `qgrams(s, 3)`: windows over `s` padded with two
        // pad chars on each side, rolled into one `u64` char by char.
        let mut qgram_unique = Vec::with_capacity(chars.len() + 2);
        if !chars.is_empty() {
            const PAD: [char; PROFILE_QGRAM - 1] = [QGRAM_PAD; PROFILE_QGRAM - 1];
            let mask = (1u64 << (CODE_BITS * PROFILE_QGRAM as u32)) - 1;
            let mut gram = 0u64;
            for (k, &c) in PAD.iter().chain(&chars).chain(&PAD).enumerate() {
                gram = (gram << CODE_BITS | u64::from(c)) & mask;
                if k + 1 >= PROFILE_QGRAM {
                    qgram_unique.push(gram);
                }
            }
        }
        qgram_unique.sort_unstable();
        qgram_unique.dedup();
        ProfileDraft {
            chars,
            ws_spans,
            ws_unique,
            qgram_unique,
        }
    }
}

/// The chars of a packed 3-gram, first char first.
fn unpack(gram: u64) -> [char; PROFILE_QGRAM] {
    std::array::from_fn(|k| {
        let shift = (PROFILE_QGRAM - 1 - k) as u32 * CODE_BITS;
        let code = (gram >> shift) as u32 & ((1 << CODE_BITS) - 1);
        char::from_u32(code).expect("packed from a char")
    })
}

/// Intern the token `chars` spell, built in the reused buffer `buf`.
fn intern_chars(interner: &mut TokenInterner, buf: &mut String, chars: &[char]) -> u32 {
    buf.clear();
    buf.extend(chars);
    interner.intern(buf)
}

/// The chars of the token at `span` (`[start, end)` into `chars`).
pub(crate) fn span_chars(chars: &[char], (start, end): (u32, u32)) -> &[char] {
    &chars[start as usize..end as usize]
}

/// Everything the Table-II similarity functions need about one string,
/// precomputed. Build with [`TokenProfile::build`], or via
/// [`ProfileDraft`] + [`TokenProfile::from_draft`] when drafting runs on
/// the pool.
#[derive(Debug, Clone)]
pub struct TokenProfile {
    chars: Vec<char>,
    ws_spans: Vec<(u32, u32)>,
    ws_ids: Vec<u32>,
    qgram_ids: Vec<u32>,
}

impl TokenProfile {
    /// Intern a draft's tokens (the serial part — call in a fixed order).
    pub fn from_draft(draft: ProfileDraft, interner: &mut TokenInterner) -> Self {
        let mut buf = String::new();
        let mut ws_ids: Vec<u32> = draft
            .ws_unique
            .iter()
            .map(|&span| intern_chars(interner, &mut buf, span_chars(&draft.chars, span)))
            .collect();
        ws_ids.sort_unstable();
        let mut qgram_ids: Vec<u32> = draft
            .qgram_unique
            .iter()
            .map(|&gram| intern_chars(interner, &mut buf, &unpack(gram)))
            .collect();
        qgram_ids.sort_unstable();
        TokenProfile {
            chars: draft.chars,
            ws_spans: draft.ws_spans,
            ws_ids,
            qgram_ids,
        }
    }

    /// Draft + intern in one step (serial convenience).
    pub fn build(s: &str, interner: &mut TokenInterner) -> Self {
        Self::from_draft(ProfileDraft::new(s), interner)
    }

    /// The string's chars (the exact char sequence of the source string).
    pub fn chars(&self) -> &[char] {
        &self.chars
    }

    /// Sorted deduped token ids under the given tokenizer, when the profile
    /// precomputes that tokenizer (Whitespace and QGram(3)).
    pub fn token_ids(&self, tok: Tokenizer) -> Option<&[u32]> {
        match tok {
            Tokenizer::Whitespace => Some(&self.ws_ids),
            Tokenizer::QGram(PROFILE_QGRAM) => Some(&self.qgram_ids),
            Tokenizer::QGram(_) => None,
        }
    }

    /// Whitespace token spans (`[start, end)` into [`Self::chars`], in
    /// order, duplicates preserved).
    pub fn ws_spans(&self) -> &[(u32, u32)] {
        &self.ws_spans
    }
}

/// Number of elements two sorted deduped id slices share (merge join).
pub fn intersection_size_sorted(a: &[u32], b: &[u32]) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::Tokenizer;

    #[test]
    fn interner_is_insertion_ordered_and_idempotent() {
        let mut it = TokenInterner::new();
        assert!(it.is_empty());
        assert_eq!(it.intern("new"), 0);
        assert_eq!(it.intern("york"), 1);
        assert_eq!(it.intern("new"), 0);
        assert_eq!(it.get("york"), Some(1));
        assert_eq!(it.get("city"), None);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn profile_spans_match_split_whitespace() {
        for s in ["", "   ", "new  york\tcity", " a ", "único  día"] {
            let mut it = TokenInterner::new();
            let p = TokenProfile::build(s, &mut it);
            let toks: Vec<String> = p
                .ws_spans()
                .iter()
                .map(|&(a, b)| p.chars()[a as usize..b as usize].iter().collect())
                .collect();
            let expect: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
            assert_eq!(toks, expect, "input {s:?}");
        }
    }

    #[test]
    fn token_id_slices_are_sorted_dedup_and_sized_like_token_sets() {
        for s in ["a b a b c", "new york", "", "ababab"] {
            let mut it = TokenInterner::new();
            let p = TokenProfile::build(s, &mut it);
            for tok in [Tokenizer::Whitespace, Tokenizer::QGram(3)] {
                let ids = p.token_ids(tok).unwrap();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted dedup");
                assert_eq!(ids.len(), tok.token_set(s).len(), "input {s:?}");
            }
            assert!(p.token_ids(Tokenizer::QGram(2)).is_none());
        }
    }

    #[test]
    fn merge_join_counts_shared_ids() {
        assert_eq!(intersection_size_sorted(&[], &[]), 0);
        assert_eq!(intersection_size_sorted(&[1, 3, 5], &[2, 3, 5, 9]), 2);
        assert_eq!(intersection_size_sorted(&[1, 2], &[3, 4]), 0);
        assert_eq!(intersection_size_sorted(&[7], &[7]), 1);
    }
}

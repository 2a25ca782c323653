//! Property-based tests for the similarity substrate: metric bounds,
//! symmetry, identity, and triangle-inequality style invariants.
//!
//! Each property runs over `CASES` deterministically seeded random inputs
//! drawn from the `em-rt` RNG; on failure the offending seed is printed so
//! the case can be replayed with `StdRng::seed_from_u64(seed)`.

use em_rt::StdRng;
use em_text::*;

const CASES: u64 = 256;

/// Run a property over `CASES` seeded RNGs, reporting the failing seed.
fn check(f: impl Fn(&mut StdRng) + std::panic::RefUnwindSafe) {
    for case in 0..CASES {
        let seed = 0x7e57_0000 ^ case;
        let result = std::panic::catch_unwind(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            f(&mut rng);
        });
        if let Err(e) = result {
            eprintln!("property failed for seed {seed} (case {case}/{CASES})");
            std::panic::resume_unwind(e);
        }
    }
}

/// ASCII-ish strings including whitespace, to exercise tokenization
/// (the old `[a-z0-9 ]{0,24}` strategy).
fn word_string(rng: &mut StdRng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 ";
    let len = rng.random_range(0..=24usize);
    (0..len)
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())] as char)
        .collect()
}

/// Non-empty lowercase word (the old `[a-z]{1,16}` strategy).
fn lowercase_word(rng: &mut StdRng) -> String {
    let len = rng.random_range(1..=16usize);
    (0..len)
        .map(|_| (b'a' + rng.random_range(0..26usize) as u8) as char)
        .collect()
}

#[test]
fn levenshtein_identity() {
    check(|rng| {
        let s = word_string(rng);
        assert_eq!(levenshtein_distance(&s, &s), 0);
        assert_eq!(levenshtein_similarity(&s, &s), 1.0);
    });
}

#[test]
fn levenshtein_symmetry() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        assert_eq!(levenshtein_distance(&a, &b), levenshtein_distance(&b, &a));
    });
}

#[test]
fn levenshtein_triangle() {
    check(|rng| {
        let (a, b, c) = (word_string(rng), word_string(rng), word_string(rng));
        let ab = levenshtein_distance(&a, &b);
        let bc = levenshtein_distance(&b, &c);
        let ac = levenshtein_distance(&a, &c);
        assert!(ac <= ab + bc);
    });
}

#[test]
fn levenshtein_bounded_by_longer_length() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let d = levenshtein_distance(&a, &b);
        assert!(d <= a.chars().count().max(b.chars().count()));
        // and at least the length difference
        assert!(d >= a.chars().count().abs_diff(b.chars().count()));
    });
}

#[test]
fn levenshtein_similarity_in_unit_interval() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let s = levenshtein_similarity(&a, &b);
        assert!((0.0..=1.0).contains(&s));
    });
}

#[test]
fn jaro_bounds_symmetry_identity() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let j = jaro(&a, &b);
        assert!((0.0..=1.0).contains(&j));
        assert!((j - jaro(&b, &a)).abs() < 1e-12);
        assert!((jaro(&a, &a) - 1.0).abs() < 1e-12);
    });
}

#[test]
fn jaro_winkler_dominates_jaro() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let j = jaro(&a, &b);
        let jw = jaro_winkler(&a, &b);
        assert!(jw >= j - 1e-12);
        assert!(jw <= 1.0 + 1e-12);
    });
}

#[test]
fn set_sims_bounds_and_identity() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        for tok in [Tokenizer::Whitespace, Tokenizer::QGram(3)] {
            for f in [jaccard, dice, cosine, overlap_coefficient] {
                let s = f(&a, &b, tok);
                assert!((0.0..=1.0 + 1e-12).contains(&s), "value {s}");
                assert!((f(&a, &a, tok) - 1.0).abs() < 1e-12);
                // symmetry
                assert!((s - f(&b, &a, tok)).abs() < 1e-12);
            }
        }
    });
}

#[test]
fn set_sim_ordering() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let tok = Tokenizer::Whitespace;
        let j = jaccard(&a, &b, tok);
        let d = dice(&a, &b, tok);
        let c = cosine(&a, &b, tok);
        let o = overlap_coefficient(&a, &b, tok);
        // Standard chain: jaccard <= dice <= cosine(ochiai) <= overlap.
        assert!(j <= d + 1e-12);
        assert!(d <= c + 1e-12);
        assert!(c <= o + 1e-12);
    });
}

#[test]
fn smith_waterman_bounded() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let s = smith_waterman(&a, &b);
        assert!(s >= 0.0);
        assert!(s <= a.chars().count().min(b.chars().count()) as f64);
        // Identity achieves the max.
        assert_eq!(smith_waterman(&a, &a), a.chars().count() as f64);
    });
}

#[test]
fn needleman_wunsch_identity_is_length() {
    check(|rng| {
        let a = word_string(rng);
        assert_eq!(needleman_wunsch(&a, &a), a.chars().count() as f64);
    });
}

#[test]
fn needleman_wunsch_upper_bound() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        // NW score can never exceed the number of possible matches.
        let s = needleman_wunsch(&a, &b);
        assert!(s <= a.chars().count().min(b.chars().count()) as f64);
    });
}

#[test]
fn monge_elkan_bounds() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let s = monge_elkan(&a, &b);
        assert!((0.0..=1.0 + 1e-9).contains(&s), "value {s}");
        assert!((monge_elkan(&a, &a) - 1.0).abs() < 1e-9);
    });
}

#[test]
fn qgram_token_count() {
    check(|rng| {
        let s = lowercase_word(rng);
        let q = rng.random_range(1..5usize);
        assert_eq!(qgrams(&s, q).len(), s.chars().count() + q - 1);
    });
}

#[test]
fn absolute_norm_bounds() {
    check(|rng| {
        let a = rng.random_range(-1e6f64..1e6);
        let b = rng.random_range(-1e6f64..1e6);
        let s = absolute_norm(a, b);
        assert!((0.0..=1.0).contains(&s));
        assert_eq!(absolute_norm(a, a), 1.0);
        assert!((s - absolute_norm(b, a)).abs() < 1e-12);
    });
}

/// Strings mixing ASCII, multi-byte unicode (accents, CJK), and whitespace —
/// profiles cache `Vec<char>`, so char-index vs byte-index confusions would
/// surface here.
fn unicode_string(rng: &mut StdRng) -> String {
    const ALPHABET: &[char] = &[
        'a', 'b', 'c', 'z', '0', '9', ' ', ' ', 'é', 'ü', 'ß', 'ñ', 'č', '東', '京', 'λ', 'Ω', '✓',
    ];
    let len = rng.random_range(0..=24usize);
    (0..len)
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
        .collect()
}

/// All 16 Table-II string similarities, plus the raw overlap counts the
/// labeling functions use.
fn table2_similarities() -> Vec<StringSimilarity> {
    use StringSimilarity::*;
    let mut sims = vec![
        LevenshteinDistance,
        LevenshteinSimilarity,
        Jaro,
        ExactMatch,
        JaroWinkler,
        NeedlemanWunsch,
        SmithWaterman,
        MongeElkan,
    ];
    for tok in [Tokenizer::Whitespace, Tokenizer::QGram(3)] {
        sims.extend([
            Jaccard(tok),
            Dice(tok),
            Cosine(tok),
            OverlapCoefficient(tok),
            OverlapSize(tok),
        ]);
    }
    sims
}

/// Assert that one family evaluation over profiles of `a` and `b` gives
/// every measure the bits of the `&str` function.
fn assert_families_match_strings(sims: &[StringSimilarity], a: &str, b: &str) {
    let mut interner = TokenInterner::new();
    let pa = TokenProfile::build(a, &mut interner);
    let pb = TokenProfile::build(b, &mut interner);
    let mut out = vec![0.0; sims.len()];
    eval_families(sims, &pa, &pb, &mut out);
    for (sim, via_profile) in sims.iter().zip(&out) {
        let via_string = sim.apply(a, b);
        assert_eq!(
            via_string.to_bits(),
            via_profile.to_bits(),
            "{sim:?} diverged on {a:?} vs {b:?}: {via_string} != {via_profile}"
        );
    }
}

#[test]
fn profile_similarities_bit_identical_to_string_path() {
    let sims = table2_similarities();
    check(|rng| {
        let (a, b) = (unicode_string(rng), unicode_string(rng));
        assert_families_match_strings(&sims, &a, &b);
    });
}

#[test]
fn profile_similarities_bit_identical_on_ascii_words() {
    let sims = table2_similarities();
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        assert_families_match_strings(&sims, &a, &b);
    });
}

/// A 0–200 char string (so masks cross the 64- and 128-char word
/// boundaries) from one of five shapes: a two- or three-symbol alphabet
/// with long runs of repeats, an alphabet mixing `é`, a CJK char and a
/// non-BMP char, whitespace-separated words that repeat and include tokens
/// longer than 64 chars, heavily repeated tokens from a small vocabulary of
/// near-duplicates (64 and 65 chars among them), so that two draws share
/// some tokens and Monge-Elkan scores many repeats of the others, or plain
/// ASCII words.
fn long_string(rng: &mut StdRng) -> String {
    const SMALL: &[char] = &['a', 'b', 'a', 'a', ' '];
    const WIDE: &[char] = &['a', 'b', 'é', '東', '𝄞', ' '];
    let len = rng.random_range(0..=200usize);
    let pick = |rng: &mut StdRng, alphabet: &[char]| alphabet[rng.random_range(0..alphabet.len())];
    let words = |rng: &mut StdRng, vocabulary: &[&str]| {
        let mut s = String::new();
        while s.chars().count() < len {
            s.push_str(vocabulary[rng.random_range(0..vocabulary.len())]);
            for _ in 0..rng.random_range(1..=3usize) {
                s.push(pick(rng, &[' ', ' ', '\t']));
            }
        }
        s.chars().take(len).collect()
    };
    match rng.random_range(0..5u32) {
        0 => {
            let k = rng.random_range(2..=SMALL.len());
            (0..len).map(|_| pick(rng, &SMALL[..k])).collect()
        }
        1 => (0..len).map(|_| pick(rng, WIDE)).collect(),
        2 => {
            let long_token = "x".repeat(63) + "yz";
            words(rng, &["sony", "sony", "tv", "é東𝄞", long_token.as_str()])
        }
        3 => {
            const NEAR: &[&str] = &["sony", "sony", "sonny", "soyn", "tv", "tvs", "é東𝄞", "é東"];
            let (t64, t65) = ("x".repeat(62) + "yz", "x".repeat(63) + "yz");
            let mut vocabulary = NEAR.to_vec();
            vocabulary.extend(["sony", "tv", "hd", "hdmi", &t64, &t65]);
            words(rng, &vocabulary)
        }
        _ => {
            const ASCII: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 ";
            (0..len)
                .map(|_| ASCII[rng.random_range(0..ASCII.len())] as char)
                .collect()
        }
    }
}

/// `s` after a few random substitutions, insertions and deletions drawn
/// from its own chars, so the pair shares long aligned runs.
fn mutate(rng: &mut StdRng, s: &str) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    for _ in 0..rng.random_range(0..=6usize) {
        let pool = if chars.is_empty() {
            vec!['q']
        } else {
            chars.clone()
        };
        let c = pool[rng.random_range(0..pool.len())];
        let at = rng.random_range(0..=chars.len());
        match rng.random_range(0..3u32) {
            0 if at < chars.len() => chars[at] = c,
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.insert(at, c),
        }
    }
    chars.into_iter().collect()
}

/// A pair of long strings: independent draws, or a draw and its mutation.
fn long_pair(rng: &mut StdRng) -> (String, String) {
    let a = long_string(rng);
    let b = if rng.random_range(0..2u32) == 0 {
        mutate(rng, &a)
    } else {
        long_string(rng)
    };
    (a, b)
}

#[test]
fn families_bit_identical_past_the_word_boundary() {
    let sims = table2_similarities();
    assert_families_match_strings(&sims, "", "");
    check(|rng| {
        let (a, b) = long_pair(rng);
        assert_families_match_strings(&sims, &a, &b);
        assert_families_match_strings(&sims, &b, &a);
    });
}

/// Needleman-Wunsch and Smith-Waterman through `eval_families` against the
/// textbook DPs, in both argument orders: the alignment pass takes the
/// shorter string as its pattern (`b` on a tie), so each string of an
/// equal-length pair serves as the pattern once.
fn assert_alignment_matches_textbook(a: &str, b: &str) {
    let sims = [
        StringSimilarity::NeedlemanWunsch,
        StringSimilarity::SmithWaterman,
    ];
    assert_families_match_strings(&sims, a, b);
    assert_families_match_strings(&sims, b, a);
}

/// A pattern of `m` chars over a three-char background with runs of
/// distinct chars across positions 58..70 and 122..134 (clipped to `m`),
/// and a longer text holding the same runs two positions later over a
/// background that agrees with the pattern's only here and there. Aligning
/// the runs carries matches across the pattern's 64-row word boundaries.
fn run_fixture(m: usize) -> (String, String) {
    const RUN: &[char] = &['m', 'n', 'o', 'é', 'q', 'r', '東', 't', 'u', '𝄞', 'w', 'x'];
    let run = |i: usize| {
        [58, 122]
            .into_iter()
            .find(|&start| (start..start + RUN.len()).contains(&i))
            .map(|start| RUN[i - start])
    };
    let pattern = (0..m).map(|i| run(i).unwrap_or(['a', 'b', 'c'][i % 3]));
    let text = (0..m + 9).map(|j| {
        j.checked_sub(2)
            .and_then(run)
            .unwrap_or(['a', 'c', 'd', 'b'][j % 4])
    });
    (pattern.collect(), text.collect())
}

#[test]
fn alignment_pass_matches_textbook_with_either_string_as_pattern() {
    let sims = [
        StringSimilarity::NeedlemanWunsch,
        StringSimilarity::SmithWaterman,
    ];
    let mut interner = TokenInterner::new();
    let empty = TokenProfile::build("", &mut interner);
    let mut out = [1.0; 2];
    eval_families(&sims, &empty, &empty, &mut out);
    assert_eq!(
        out.map(f64::to_bits),
        [(-0.0f64).to_bits(), 0.0f64.to_bits()]
    );
    for (a, b) in [
        ("", ""),
        ("", "x"),
        ("", "ab東"),
        ("a", "a"),
        ("a", "b"),
        ("é", "東é"),
        ("𝄞", "a𝄞b"),
        ("dva", "deeva"),
        // SW's best cell ("xyz") is on the last column, off the last row.
        ("xyzabc", "qqqqqqqxyz"),
    ] {
        assert_alignment_matches_textbook(a, b);
    }
    for m in [63, 64, 65, 127, 128, 129] {
        let (pattern, text) = run_fixture(m);
        assert_eq!(pattern.chars().count(), m);
        assert_alignment_matches_textbook(&pattern, &text);
        // Equal lengths: each string is the pattern in one of the orders.
        let same_length: String = text.chars().skip(2).take(m).collect();
        assert_alignment_matches_textbook(&pattern, &same_length);
        let shifted: String = text.chars().skip(1).collect();
        assert_alignment_matches_textbook(&pattern, &shifted);
        // The pattern's head closing the text: SW's maximum sits on the
        // last column, with a prefix sum that crosses a word boundary.
        let head: String = pattern.chars().take((m - 2).min(70)).collect();
        assert_alignment_matches_textbook(&pattern, &("z".repeat(m) + &head));
    }
    check(|rng| {
        let (a, b) = long_pair(rng);
        assert_alignment_matches_textbook(&a, &b);
    });
}

#[test]
fn profile_token_ids_match_interning_sorted_token_strings() {
    // ASCII, two- three- and four-byte UTF-8, whitespace runs, and `#`
    // inside the text, where it meets the q-gram pad char.
    let values = [
        "new york café",
        "東京 tower #1",
        "a#b ## #",
        "𝄞 clef 𝄞𝄞 é",
        "#",
        "",
        "  é東𝄞#a  tower ",
        "café café east",
    ];
    let mut via_profiles = TokenInterner::new();
    let mut via_strings = TokenInterner::new();
    for s in values {
        let profile = TokenProfile::build(s, &mut via_profiles);
        for tok in [Tokenizer::Whitespace, Tokenizer::QGram(PROFILE_QGRAM)] {
            let ids: Vec<u32> = tok
                .sorted_tokens(s)
                .iter()
                .map(|t| via_strings.intern(t))
                .collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(profile.token_ids(tok), Some(sorted.as_slice()), "{s:?}");
        }
    }
    assert_eq!(via_profiles.export(), via_strings.export());
}

#[test]
fn merge_join_intersection_matches_naive() {
    check(|rng| {
        let (a, b) = (unicode_string(rng), unicode_string(rng));
        for tok in [Tokenizer::Whitespace, Tokenizer::QGram(3)] {
            let sa = tok.sorted_tokens(&a);
            let sb = tok.sorted_tokens(&b);
            let naive = sa.iter().filter(|t| sb.contains(t)).count();
            let mut interner = TokenInterner::new();
            let ia: Vec<u32> = {
                let mut v: Vec<u32> = sa.iter().map(|t| interner.intern(t)).collect();
                v.sort_unstable();
                v
            };
            let ib: Vec<u32> = {
                let mut v: Vec<u32> = sb.iter().map(|t| interner.intern(t)).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(intersection_size_sorted(&ia, &ib), naive);
        }
    });
}

#[test]
fn exact_match_is_binary() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let e = exact_match(&a, &b);
        assert!(e == 0.0 || e == 1.0);
        assert_eq!(e == 1.0, a == b);
    });
}

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
/// boundaries) from one of four shapes: a two- or three-symbol alphabet
/// with long runs of repeats, an alphabet mixing `é`, a CJK char and a
/// non-BMP char, whitespace-separated words that repeat and include tokens
/// longer than 64 chars, or plain ASCII words.
fn long_string(rng: &mut StdRng) -> String {
    const SMALL: &[char] = &['a', 'b', 'a', 'a', ' '];
    const WIDE: &[char] = &['a', 'b', 'é', '東', '𝄞', ' '];
    let len = rng.random_range(0..=200usize);
    let pick = |rng: &mut StdRng, alphabet: &[char]| alphabet[rng.random_range(0..alphabet.len())];
    match rng.random_range(0..4u32) {
        0 => {
            let k = rng.random_range(2..=SMALL.len());
            (0..len).map(|_| pick(rng, &SMALL[..k])).collect()
        }
        1 => (0..len).map(|_| pick(rng, WIDE)).collect(),
        2 => {
            let long_token = "x".repeat(63) + "yz";
            let words = ["sony", "sony", "tv", "é東𝄞", long_token.as_str()];
            let mut s = String::new();
            while s.chars().count() < len {
                s.push_str(words[rng.random_range(0..words.len())]);
                for _ in 0..rng.random_range(1..=3usize) {
                    s.push(pick(rng, &[' ', ' ', '\t']));
                }
            }
            s.chars().take(len).collect()
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

#[test]
fn align_scores_match_textbook_at_both_lane_widths() {
    let expect = |a: &str, b: &str| (needleman_wunsch(a, b), smith_waterman(a, b));
    let bits = |(nw, sw): (f64, f64)| (nw.to_bits(), sw.to_bits());
    for (a, b) in [("", ""), ("", "ab"), ("ab", ""), ("dva", "deeva")] {
        let (ac, bc): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
        assert_eq!(bits(align_scores::<i16>(&ac, &bc)), bits(expect(a, b)));
        assert_eq!(bits(align_scores::<i32>(&ac, &bc)), bits(expect(a, b)));
    }
    check(|rng| {
        let (a, b) = long_pair(rng);
        let (ac, bc): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
        let want = bits(expect(&a, &b));
        assert_eq!(
            bits(align_scores::<i16>(&ac, &bc)),
            want,
            "i16 on {a:?} vs {b:?}"
        );
        assert_eq!(
            bits(align_scores::<i32>(&ac, &bc)),
            want,
            "i32 on {a:?} vs {b:?}"
        );
    });
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

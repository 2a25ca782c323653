//! Edit-distance based similarity functions (Table I/II rows 1-2).

/// Levenshtein (edit) distance between two strings: the minimum number of
/// single-character insertions, deletions, or substitutions needed to turn
/// `a` into `b`.
///
/// Runs in `O(|a| * |b|)` time and `O(min(|a|, |b|))` space.
///
/// ```
/// assert_eq!(em_text::levenshtein_distance("new yrk", "new york"), 1);
/// assert_eq!(em_text::levenshtein_distance("kitten", "sitting"), 3);
/// ```
pub fn levenshtein_distance(a: &str, b: &str) -> usize {
    let (short, long): (Vec<char>, Vec<char>) = {
        let ac: Vec<char> = a.chars().collect();
        let bc: Vec<char> = b.chars().collect();
        if ac.len() <= bc.len() {
            (ac, bc)
        } else {
            (bc, ac)
        }
    };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Normalized Levenshtein similarity in `[0, 1]`:
/// `1 - distance / max(|a|, |b|)`. Two empty strings are defined to have
/// similarity 1.
///
/// ```
/// let s = em_text::levenshtein_similarity("new york", "new york");
/// assert_eq!(s, 1.0);
/// ```
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    similarity_from_distance(
        levenshtein_distance(a, b),
        a.chars().count(),
        b.chars().count(),
    )
}

/// `1 - distance / max(la, lb)`, or 1 when both lengths are 0.
pub(crate) fn similarity_from_distance(distance: usize, la: usize, lb: usize) -> f64 {
    let m = la.max(lb);
    if m == 0 {
        return 1.0;
    }
    1.0 - distance as f64 / m as f64
}

/// Exact string equality as a 0/1 similarity (Table I row 4).
pub fn exact_match(a: &str, b: &str) -> f64 {
    if a == b {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_known_values() {
        assert_eq!(levenshtein_distance("", ""), 0);
        assert_eq!(levenshtein_distance("abc", ""), 3);
        assert_eq!(levenshtein_distance("", "abc"), 3);
        assert_eq!(levenshtein_distance("abc", "abc"), 0);
        assert_eq!(levenshtein_distance("flaw", "lawn"), 2);
        assert_eq!(levenshtein_distance("gumbo", "gambol"), 2);
        assert_eq!(levenshtein_distance("saturday", "sunday"), 3);
    }

    #[test]
    fn distance_is_symmetric() {
        assert_eq!(
            levenshtein_distance("abcdef", "azced"),
            levenshtein_distance("azced", "abcdef")
        );
    }

    #[test]
    fn distance_unicode() {
        assert_eq!(levenshtein_distance("café", "cafe"), 1);
    }

    #[test]
    fn similarity_bounds() {
        let s = levenshtein_similarity("abc", "xyz");
        assert_eq!(s, 0.0);
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("a", ""), 0.0);
    }

    #[test]
    fn paper_example() {
        // From the paper, Section III-B: distance("new yrk", "new york") = 1.
        assert_eq!(levenshtein_distance("new yrk", "new york"), 1);
    }

    #[test]
    fn exact() {
        assert_eq!(exact_match("a", "a"), 1.0);
        assert_eq!(exact_match("a", "b"), 0.0);
        assert_eq!(exact_match("", ""), 1.0);
    }
}

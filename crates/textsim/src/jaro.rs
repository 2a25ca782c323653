//! Jaro and Jaro-Winkler similarity (Table I/II rows 3 and 5).
//!
//! Despite the paper's table labelling these "Jaro Distance" and
//! "Jaro-Winkler Distance" (following `py_stringmatching` naming), both
//! functions return a *similarity* in `[0, 1]` where 1 means identical.

/// Jaro similarity between two strings.
///
/// Characters match when equal and within `max(|a|, |b|) / 2 - 1` positions
/// of one another; the similarity combines the match count and the number of
/// transpositions.
///
/// ```
/// let s = em_text::jaro("martha", "marhta");
/// assert!((s - 0.944444).abs() < 1e-5);
/// ```
pub fn jaro(a: &str, b: &str) -> f64 {
    let ac: Vec<char> = a.chars().collect();
    let bc: Vec<char> = b.chars().collect();
    if ac.is_empty() && bc.is_empty() {
        return 1.0;
    }
    if ac.is_empty() || bc.is_empty() {
        return 0.0;
    }
    let window = (ac.len().max(bc.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; bc.len()];
    let mut matches_a: Vec<char> = Vec::new();
    for (i, ca) in ac.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(bc.len());
        for j in lo..hi {
            if !b_used[j] && bc[j] == *ca {
                b_used[j] = true;
                matches_a.push(*ca);
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    let matches_b: Vec<char> = bc
        .iter()
        .zip(b_used.iter())
        .filter_map(|(c, used)| used.then_some(*c))
        .collect();
    let transpositions = matches_a
        .iter()
        .zip(matches_b.iter())
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    score(m, transpositions, ac.len(), bc.len())
}

/// The Jaro score of `m > 0` matches with `t` transpositions between
/// strings of lengths `la` and `lb`.
pub(crate) fn score(m: usize, t: usize, la: usize, lb: usize) -> f64 {
    let m = m as f64;
    (m / la as f64 + m / lb as f64 + (m - t as f64) / m) / 3.0
}

/// Jaro-Winkler similarity: Jaro boosted by a prefix bonus.
///
/// Uses the standard scaling factor `p = 0.1` and a maximum common-prefix
/// length of 4, matching the classic definition.
///
/// ```
/// let s = em_text::jaro_winkler("dwayne", "duane");
/// assert!((s - 0.84).abs() < 1e-9);
/// ```
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    winkler(jaro(a, b), common_prefix(a.chars(), b.chars()))
}

/// Length of the common prefix of two char sequences, capped at the
/// 4 chars Winkler's bonus counts.
pub(crate) fn common_prefix<T: PartialEq>(
    a: impl Iterator<Item = T>,
    b: impl Iterator<Item = T>,
) -> usize {
    a.zip(b).take(4).take_while(|(x, y)| x == y).count()
}

/// Jaro score `j` boosted by Winkler's prefix bonus (`p = 0.1`).
pub(crate) fn winkler(j: f64, prefix: usize) -> f64 {
    const P: f64 = 0.1;
    j + prefix as f64 * P * (1.0 - j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(x: f64, y: f64) {
        assert!((x - y).abs() < 1e-6, "{x} != {y}");
    }

    #[test]
    fn jaro_known_values() {
        close(jaro("martha", "marhta"), 0.9444444444444445);
        close(jaro("dixon", "dicksonx"), 0.7666666666666666);
        close(jaro("jellyfish", "smellyfish"), 0.8962962962962964);
    }

    #[test]
    fn jaro_edge_cases() {
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("abc", ""), 0.0);
        assert_eq!(jaro("", "abc"), 0.0);
        assert_eq!(jaro("same", "same"), 1.0);
        assert_eq!(jaro("ab", "cd"), 0.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        close(jaro_winkler("martha", "marhta"), 0.9611111111111111);
        close(jaro_winkler("dixon", "dicksonx"), 0.8133333333333332);
        close(jaro_winkler("dwayne", "duane"), 0.84);
    }

    #[test]
    fn jaro_winkler_at_least_jaro() {
        for (a, b) in [("hello", "hallo"), ("abc", "abd"), ("x", "y")] {
            assert!(jaro_winkler(a, b) >= jaro(a, b) - 1e-12);
        }
    }

    #[test]
    fn jaro_symmetric() {
        for (a, b) in [("martha", "marhta"), ("dixon", "dicksonx"), ("", "x")] {
            close(jaro(a, b), jaro(b, a));
        }
    }
}

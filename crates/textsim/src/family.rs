//! One evaluation per measure family over two [`TokenProfile`]s.
//!
//! The 16 Table-II string measures fall into six families that share their
//! expensive part: Levenshtein distance and similarity share one edit
//! distance, Jaro and Jaro-Winkler one match/transposition count,
//! Needleman-Wunsch and Smith-Waterman one alignment pass, Monge-Elkan is
//! its own, and every token-set measure of a tokenizer shares one
//! intersection. [`eval_families`] runs each family a planned measure list
//! needs at most once per pair, each on an exact kernel whose `f64` result
//! has the same bits as the textbook `&str` function:
//!
//! * **Levenshtein** — Myers/Hyyrö's block bit-vector algorithm with the
//!   shorter string as the pattern. The distance is an integer, so the
//!   derived similarity is the same expression on the same integer.
//! * **Jaro** — the textbook's greedy matching on bit masks: each char of
//!   `a` takes the lowest unused position of `b` inside the window that
//!   holds the same char, which is the first hit of the textbook's
//!   ascending scan. Transpositions walk the two match masks in order, so
//!   the counts, and the score built from them, are the textbook's.
//! * **Needleman-Wunsch + Smith-Waterman** — one anti-diagonal pass over
//!   integer lanes ([`align_scores`]). Unit scores keep every cell of the
//!   `f64` DP a small integer, which `f64` holds exactly, so the integer
//!   result converts to the same bits; the one exception is the `-0.0` the
//!   `f64` DP returns for NW of two empty strings, reproduced here.
//! * **Monge-Elkan** — the Jaro kernel on token segments of `b`'s masks. An
//!   `a` token that also occurs in `b` scores 1.0 without a Jaro-Winkler
//!   scan: Jaro-Winkler rounds to at most 1.0 for any strings and is
//!   exactly 1.0 for identical ones, so 1.0 is that token's maximum.
//! * **Token sets** — one merge join of the profiles' sorted id slices per
//!   tokenizer feeds every set measure of that tokenizer.
//!
//! Char masks are built per pair in a per-thread scratch and cleared after
//! it, never stored on profiles: serving keeps every profile it has built,
//! so per-profile masks would grow its memory with the catalog.

use crate::profile::{intersection_size_sorted, TokenProfile};
use crate::{edit, jaro, setsim, StringSimilarity, Tokenizer};
use std::cell::RefCell;
use std::ops::{Add, Range, Sub};

/// Mask rows for the ASCII chars, indexed by code point; non-ASCII chars
/// get rows after these through a sorted side table.
const ASCII: usize = 128;

/// Mask storage above this many words is freed after the pair that needed
/// it, so one pathological pair does not pin memory in a pool thread.
const KEEP_WORDS: usize = 1 << 16;

/// Per-char position masks of one string: bit `j % 64` of word `j / 64` in
/// a char's row is set where the string holds that char. All rows are zero
/// outside a [`CharMasks::load`] / [`CharMasks::clear`] bracket, so a load
/// only touches the rows of the chars it sets.
#[derive(Debug, Default)]
struct CharMasks {
    /// Words per row: `ceil(len / 64)`, at least 1.
    words: usize,
    /// Sorted distinct non-ASCII chars of the loaded string; the row after
    /// theirs is all zero and stands for every absent char.
    side: Vec<char>,
    rows: Vec<u64>,
}

impl CharMasks {
    fn load(&mut self, s: &[char]) {
        self.words = s.len().div_ceil(64).max(1);
        self.side.clear();
        self.side.extend(s.iter().filter(|c| !c.is_ascii()));
        self.side.sort_unstable();
        self.side.dedup();
        let need = (ASCII + self.side.len() + 1) * self.words;
        if self.rows.len() < need {
            self.rows.resize(need, 0);
        }
        for (j, &c) in s.iter().enumerate() {
            let r = self.slot(c) * self.words + j / 64;
            self.rows[r] |= 1 << (j % 64);
        }
    }

    /// Zero the rows `load(s)` set.
    fn clear(&mut self, s: &[char]) {
        if self.rows.len() > KEEP_WORDS {
            self.rows = Vec::new();
            return;
        }
        for &c in s {
            let r = self.slot(c) * self.words;
            self.rows[r..r + self.words].fill(0);
        }
    }

    fn slot(&self, c: char) -> usize {
        if c.is_ascii() {
            c as usize
        } else {
            ASCII + self.side.binary_search(&c).unwrap_or(self.side.len())
        }
    }

    /// The mask row of `c` (all zero when the string does not hold it).
    fn row(&self, c: char) -> &[u64] {
        let r = self.slot(c) * self.words;
        &self.rows[r..r + self.words]
    }
}

/// Per-thread buffers: every kernel is allocation-free once these have
/// grown to the workload's longest string.
#[derive(Debug, Default)]
struct Scratch {
    /// Masks of `b`: Jaro, Monge-Elkan, and Levenshtein when `b` is the
    /// pattern.
    b_masks: CharMasks,
    /// Masks of `a`: Levenshtein when `a` is the shorter string.
    a_masks: CharMasks,
    /// Myers' vertical delta vectors, one word per pattern block.
    pv: Vec<u64>,
    mv: Vec<u64>,
    /// Jaro's used positions of `b` and matched positions of `a`.
    used: Vec<u64>,
    hit: Vec<u64>,
    /// `b` reversed, so both chars of an anti-diagonal run forward.
    rb: Vec<char>,
    lanes16: Vec<i16>,
    lanes32: Vec<i32>,
}

thread_local! {
    /// The pool's threads are persistent, so each allocates its buffers
    /// once and reuses them for every pair it evaluates.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Evaluate `sims` on two profiles into `out` (one value per measure, in
/// order), running each measure family at most once. Every value has the
/// same bits as [`StringSimilarity::apply`] on the source strings.
///
/// Profiles precompute token ids for the Table-II tokenizers only
/// (Whitespace and QGram(3)); a token-set measure with any other q falls
/// back to the string path on strings rebuilt from the cached chars.
///
/// ```
/// use em_text::{eval_families, StringSimilarity, TokenInterner, TokenProfile};
///
/// let mut interner = TokenInterner::new();
/// let a = TokenProfile::build("kitten", &mut interner);
/// let b = TokenProfile::build("sitting", &mut interner);
/// let sims = [StringSimilarity::LevenshteinDistance, StringSimilarity::JaroWinkler];
/// let mut out = [0.0; 2];
/// eval_families(&sims, &a, &b, &mut out);
/// assert_eq!(out[0], 3.0);
/// assert_eq!(out[1].to_bits(), em_text::jaro_winkler("kitten", "sitting").to_bits());
/// ```
///
/// # Panics
///
/// If `out` and `sims` differ in length.
pub fn eval_families(
    sims: &[StringSimilarity],
    a: &TokenProfile,
    b: &TokenProfile,
    out: &mut [f64],
) {
    assert_eq!(sims.len(), out.len(), "one output slot per measure");
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let mut pair = Pair {
            a,
            b,
            s: &mut scratch,
            b_loaded: false,
            lev: None,
            jaro: None,
            align: None,
            ws_inter: None,
            qgram_inter: None,
            strings: None,
        };
        for (slot, &sim) in out.iter_mut().zip(sims) {
            *slot = pair.value(sim);
        }
        if pair.b_loaded {
            pair.s.b_masks.clear(b.chars());
        }
    });
}

/// One pair's family results, each computed on first use.
struct Pair<'a> {
    a: &'a TokenProfile,
    b: &'a TokenProfile,
    s: &'a mut Scratch,
    b_loaded: bool,
    lev: Option<usize>,
    jaro: Option<f64>,
    align: Option<(f64, f64)>,
    ws_inter: Option<usize>,
    qgram_inter: Option<usize>,
    strings: Option<(String, String)>,
}

impl Pair<'_> {
    fn value(&mut self, sim: StringSimilarity) -> f64 {
        let (ac, bc) = (self.a.chars(), self.b.chars());
        match sim {
            StringSimilarity::LevenshteinDistance => self.lev() as f64,
            StringSimilarity::LevenshteinSimilarity => {
                let d = self.lev();
                edit::similarity_from_distance(d, ac.len(), bc.len())
            }
            StringSimilarity::Jaro => self.jaro(),
            StringSimilarity::JaroWinkler => {
                let j = self.jaro();
                jaro::winkler(j, jaro::common_prefix(ac.iter(), bc.iter()))
            }
            StringSimilarity::ExactMatch => {
                if ac == bc {
                    1.0
                } else {
                    0.0
                }
            }
            StringSimilarity::NeedlemanWunsch => self.align().0,
            StringSimilarity::SmithWaterman => self.align().1,
            StringSimilarity::MongeElkan => self.monge_elkan(),
            StringSimilarity::OverlapCoefficient(t)
            | StringSimilarity::Dice(t)
            | StringSimilarity::Cosine(t)
            | StringSimilarity::Jaccard(t)
            | StringSimilarity::OverlapSize(t) => match self.set_counts(t) {
                Some((inter, na, nb)) => setsim::set_score(sim, inter, na, nb),
                None => {
                    let (sa, sb) = self
                        .strings
                        .get_or_insert_with(|| (ac.iter().collect(), bc.iter().collect()));
                    sim.apply(sa, sb)
                }
            },
        }
    }

    /// `(|A ∩ B|, |A|, |B|)` under `t`, or `None` for a tokenizer profiles
    /// do not hold.
    fn set_counts(&mut self, t: Tokenizer) -> Option<(usize, usize, usize)> {
        let (ia, ib) = (self.a.token_ids(t)?, self.b.token_ids(t)?);
        let memo = match t {
            Tokenizer::Whitespace => &mut self.ws_inter,
            Tokenizer::QGram(_) => &mut self.qgram_inter,
        };
        let inter = *memo.get_or_insert_with(|| intersection_size_sorted(ia, ib));
        Some((inter, ia.len(), ib.len()))
    }

    fn load_b(&mut self) {
        if !self.b_loaded {
            self.s.b_masks.load(self.b.chars());
            self.b_loaded = true;
        }
    }

    fn lev(&mut self) -> usize {
        if let Some(d) = self.lev {
            return d;
        }
        let (ac, bc) = (self.a.chars(), self.b.chars());
        // Edit distance is symmetric: the shorter string is the pattern
        // (ties go to `b`, whose masks Jaro and Monge-Elkan share).
        let a_is_pattern = ac.len() < bc.len();
        if !a_is_pattern {
            self.load_b();
        }
        let s = &mut *self.s;
        let d = if a_is_pattern {
            s.a_masks.load(ac);
            let d = myers(&s.a_masks, ac.len(), bc, &mut s.pv, &mut s.mv);
            s.a_masks.clear(ac);
            d
        } else {
            myers(&s.b_masks, bc.len(), ac, &mut s.pv, &mut s.mv)
        };
        *self.lev.insert(d)
    }

    fn jaro(&mut self) -> f64 {
        if let Some(j) = self.jaro {
            return j;
        }
        self.load_b();
        let (ac, bc) = (self.a.chars(), self.b.chars());
        let s = &mut *self.s;
        let j = jaro_masked(ac, bc, 0..bc.len(), &s.b_masks, &mut s.used, &mut s.hit);
        *self.jaro.insert(j)
    }

    fn align(&mut self) -> (f64, f64) {
        if let Some(v) = self.align {
            return v;
        }
        let (ac, bc) = (self.a.chars(), self.b.chars());
        let s = &mut *self.s;
        let v = if ac.len() + bc.len() < i16::LIMIT {
            align_in::<i16>(ac, bc, &mut s.rb, &mut s.lanes16)
        } else {
            align_in::<i32>(ac, bc, &mut s.rb, &mut s.lanes32)
        };
        *self.align.insert(v)
    }

    fn monge_elkan(&mut self) -> f64 {
        let (ta, tb) = (self.a.ws_spans(), self.b.ws_spans());
        if ta.is_empty() && tb.is_empty() {
            return 1.0;
        }
        if ta.is_empty() || tb.is_empty() {
            return 0.0;
        }
        self.load_b();
        let (ac, bc) = (self.a.chars(), self.b.chars());
        let s = &mut *self.s;
        let mut total = 0.0;
        let range = |(lo, hi): (u32, u32)| lo as usize..hi as usize;
        for &span in ta {
            let x = &ac[range(span)];
            total += if tb.iter().any(|&y| &bc[range(y)] == x) {
                1.0
            } else {
                tb.iter()
                    .map(|&y| {
                        let prefix = jaro::common_prefix(x.iter(), bc[range(y)].iter());
                        let j = jaro_masked(x, bc, range(y), &s.b_masks, &mut s.used, &mut s.hit);
                        jaro::winkler(j, prefix)
                    })
                    .fold(f64::NEG_INFINITY, f64::max)
            };
        }
        total / ta.len() as f64
    }
}

/// Levenshtein distance between a pattern of length `m`, whose masks are
/// `pm`, and `text`: Myers' block algorithm (J. ACM 46(3), 1999) in
/// Hyyrö's edit-distance form, one column of `D` per text char.
/// `pv`/`mv` hold the column's vertical +1/−1 deltas, one word per
/// 64-row block; each block hands its bottom row's horizontal delta to
/// the next as `hin`, and the top row `D[0][j] = j` enters block 0 as +1.
fn myers(pm: &CharMasks, m: usize, text: &[char], pv: &mut Vec<u64>, mv: &mut Vec<u64>) -> usize {
    if m == 0 {
        return text.len();
    }
    let w = pm.words;
    let last = 1u64 << ((m - 1) % 64);
    pv.clear();
    pv.resize(w, !0);
    mv.clear();
    mv.resize(w, 0);
    let mut score = m as isize;
    for &c in text {
        let eq = pm.row(c);
        let mut hin = 1isize;
        for (k, ((p, n), &e)) in pv.iter_mut().zip(mv.iter_mut()).zip(eq).enumerate() {
            let (pk, nk) = (*p, *n);
            let xv = e | nk;
            let e = e | u64::from(hin < 0);
            let xh = ((e & pk).wrapping_add(pk) ^ pk) | e;
            let ph = nk | !(xh | pk);
            let mh = pk & xh;
            let top = if k + 1 == w { last } else { 1 << 63 };
            let hout = if ph & top != 0 {
                1
            } else if mh & top != 0 {
                -1
            } else {
                0
            };
            let ph = ph << 1 | u64::from(hin > 0);
            let mh = mh << 1 | u64::from(hin < 0);
            *p = mh | !(xv | ph);
            *n = ph & xv;
            hin = hout;
        }
        score += hin;
    }
    score as usize
}

/// Jaro similarity of `a` against the segment `seg` of `b`, whose masks
/// are `bm`; positions stay in `b`'s coordinates, so Monge-Elkan's token
/// segments reuse the whole string's masks. `used` marks matched positions
/// of `b` and `hit` matched positions of `a`.
fn jaro_masked(
    a: &[char],
    b: &[char],
    seg: Range<usize>,
    bm: &CharMasks,
    used: &mut Vec<u64>,
    hit: &mut Vec<u64>,
) -> f64 {
    let (la, lb) = (a.len(), seg.len());
    if la == 0 && lb == 0 {
        return 1.0;
    }
    if la == 0 || lb == 0 {
        return 0.0;
    }
    let window = (la.max(lb) / 2).saturating_sub(1);
    let words = seg.start / 64..(seg.end - 1) / 64 + 1;
    if used.len() < bm.words {
        used.resize(bm.words, 0);
    }
    used[words.clone()].fill(0);
    hit.clear();
    hit.resize(la.div_ceil(64), 0);
    let mut m = 0usize;
    for (i, &c) in a.iter().enumerate() {
        let lo = seg.start + i.saturating_sub(window);
        let hi = seg.start + (i + window + 1).min(lb);
        if lo >= hi {
            continue;
        }
        let eq = bm.row(c);
        let (first, last) = (lo / 64, (hi - 1) / 64);
        for k in first..=last {
            let mut cand = eq[k] & !used[k];
            if k == first {
                cand &= !0 << (lo % 64);
            }
            if k == last {
                cand &= !0 >> (63 - (hi - 1) % 64);
            }
            if cand != 0 {
                used[k] |= cand & cand.wrapping_neg();
                hit[i / 64] |= 1 << (i % 64);
                m += 1;
                break;
            }
        }
    }
    if m == 0 {
        return 0.0;
    }
    let half_transposed = set_bits(hit, 0)
        .zip(set_bits(&used[words.clone()], words.start * 64))
        .filter(|&(i, j)| a[i] != b[j])
        .count();
    jaro::score(m, half_transposed / 2, la, lb)
}

/// Positions of the set bits of `words`, ascending, offset by `base`.
fn set_bits(words: &[u64], base: usize) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(move |(k, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let t = w.trailing_zeros() as usize;
                w &= w - 1;
                base + k * 64 + t
            })
        })
    })
}

/// Integer lane type of the anti-diagonal alignment pass ([`align_scores`]):
/// `i16` or `i32`.
pub trait AlignLane:
    Copy + Ord + Default + From<bool> + Into<f64> + Add<Output = Self> + Sub<Output = Self>
{
    /// Inputs must satisfy `|a| + |b| < LIMIT`, which keeps every cell and
    /// intermediate of both DPs inside the lane.
    const LIMIT: usize;
    /// The lane value of a cell count below [`AlignLane::LIMIT`].
    fn from_len(n: usize) -> Self;
}

impl AlignLane for i16 {
    const LIMIT: usize = i16::MAX as usize;
    fn from_len(n: usize) -> Self {
        n as i16
    }
}

impl AlignLane for i32 {
    const LIMIT: usize = i32::MAX as usize;
    fn from_len(n: usize) -> Self {
        n as i32
    }
}

/// Needleman-Wunsch and Smith-Waterman scores of `a` vs `b` in one
/// anti-diagonal pass over `T` lanes: the same values, bit for bit, as
/// [`needleman_wunsch`](crate::needleman_wunsch) and
/// [`smith_waterman`](crate::smith_waterman) on the source strings.
/// [`eval_families`] runs it at `i16` when `|a| + |b| < i16::MAX` and at
/// `i32` otherwise; either width gives the same result wherever it fits.
///
/// ```
/// let (a, b): (Vec<char>, Vec<char>) = ("dva".chars().collect(), "deeva".chars().collect());
/// assert_eq!(em_text::align_scores::<i16>(&a, &b), (1.0, 2.0));
/// assert_eq!(em_text::align_scores::<i32>(&a, &b), (1.0, 2.0));
/// ```
///
/// # Panics
///
/// If `|a| + |b| >= T::LIMIT`.
pub fn align_scores<T: AlignLane>(a: &[char], b: &[char]) -> (f64, f64) {
    align_in::<T>(a, b, &mut Vec::new(), &mut Vec::new())
}

/// [`align_scores`] on caller-owned buffers. Cell `(i, j)` of diagonal
/// `d = i + j` sits at index `i` of that diagonal's lane vector, and three
/// rotating diagonals per DP suffice: a cell reads `(i-1, j-1)` from
/// diagonal `d-2` and `(i-1, j)`, `(i, j-1)` from `d-1`. With `b` reversed,
/// a diagonal's interior is one run of equal-length slices the compiler
/// vectorizes, since no cell waits on a neighbour of its own diagonal.
fn align_in<T: AlignLane>(
    a: &[char],
    b: &[char],
    rb: &mut Vec<char>,
    lanes: &mut Vec<T>,
) -> (f64, f64) {
    let (la, lb) = (a.len(), b.len());
    assert!(la + lb < T::LIMIT, "alignment inputs too long for the lane");
    if la == 0 || lb == 0 {
        // The f64 NW DP's corner is -(0 as f64), so two empty strings
        // score -0.0; SW never leaves its +0.0 start.
        return (-((la + lb) as f64), 0.0);
    }
    rb.clear();
    rb.extend(b.iter().rev());
    lanes.clear();
    lanes.resize(6 * (la + 1), T::default());
    let mut diagonals = lanes.chunks_exact_mut(la + 1);
    let mut next = || diagonals.next().expect("six diagonals");
    let (mut nw2, mut nw1, mut nw0) = (next(), next(), next());
    let (mut sw2, mut sw1, mut sw0) = (next(), next(), next());
    let (zero, one) = (T::default(), T::from(true));
    let mut best = zero;
    for d in 0..=la + lb {
        // Border cells: row 0 and column 0, both -d for NW and 0 for SW.
        if d <= lb {
            nw0[0] = zero - T::from_len(d);
            sw0[0] = zero;
        }
        if d <= la {
            nw0[d] = zero - T::from_len(d);
            sw0[d] = zero;
        }
        // Interior rows i in lo..=hi; cell (i, d-i) compares a[i-1] with
        // b[d-i-1] = rb[lb-d+i].
        let lo = d.saturating_sub(lb).max(1);
        let hi = la.min(d.saturating_sub(1));
        if lo <= hi {
            let len = hi - lo + 1;
            let chars = a[lo - 1..].iter().zip(&rb[lb + lo - d..]);
            let cells = nw0[lo..lo + len].iter_mut().zip(&mut sw0[lo..lo + len]);
            let nw_in = nw2[lo - 1..].iter().zip(&nw1[lo - 1..]).zip(&nw1[lo..]);
            let sw_in = sw2[lo - 1..].iter().zip(&sw1[lo - 1..]).zip(&sw1[lo..]);
            for (((nw, sw), (x, y)), (((&nd, &nu), &nl), ((&sd, &su), &sl))) in
                cells.zip(chars).zip(nw_in.zip(sw_in))
            {
                let hit = T::from(x == y);
                *nw = (nd + hit).max(nu.max(nl) - one);
                *sw = (sd + hit).max(su.max(sl) - one).max(zero);
                best = best.max(*sw);
            }
        }
        std::mem::swap(&mut nw2, &mut nw1);
        std::mem::swap(&mut nw1, &mut nw0);
        std::mem::swap(&mut sw2, &mut sw1);
        std::mem::swap(&mut sw1, &mut sw0);
    }
    (nw1[la].into(), best.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TokenInterner, Tokenizer};

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    fn table2() -> Vec<StringSimilarity> {
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
        for t in [Tokenizer::Whitespace, Tokenizer::QGram(3)] {
            sims.extend([
                OverlapCoefficient(t),
                Dice(t),
                Cosine(t),
                Jaccard(t),
                OverlapSize(t),
            ]);
        }
        sims
    }

    fn assert_matches_apply(a: &str, b: &str, sims: &[StringSimilarity]) {
        let mut interner = TokenInterner::new();
        let pa = TokenProfile::build(a, &mut interner);
        let pb = TokenProfile::build(b, &mut interner);
        let mut out = vec![0.0; sims.len()];
        eval_families(sims, &pa, &pb, &mut out);
        for (sim, got) in sims.iter().zip(&out) {
            let want = sim.apply(a, b);
            assert_eq!(want.to_bits(), got.to_bits(), "{sim:?} on {a:?} vs {b:?}");
        }
    }

    #[test]
    fn families_match_apply_on_fixtures() {
        let long = "x".repeat(70) + " y";
        let cases = [
            ("new york", "new york city"),
            ("arnie mortons of chicago", "arnie mortons chicago"),
            ("", ""),
            ("", "abc"),
            ("abc", ""),
            ("martha", "marhta"),
            ("café münchen", "cafe munchen"),
            ("dva", "deeva"),
            ("  a  a ", "a"),
            (long.as_str(), "x y"),
        ];
        for (a, b) in cases {
            assert_matches_apply(a, b, &table2());
            assert_matches_apply(b, a, &table2());
        }
    }

    #[test]
    fn unprofiled_qgram_width_falls_back_to_string_path() {
        let sims = [
            StringSimilarity::Jaccard(Tokenizer::QGram(2)),
            StringSimilarity::OverlapSize(Tokenizer::QGram(4)),
            StringSimilarity::Jaccard(Tokenizer::QGram(3)),
        ];
        assert_matches_apply("nichola", "nicholas", &sims);
    }

    #[test]
    fn nw_of_two_empty_strings_is_negative_zero() {
        assert_eq!(
            crate::needleman_wunsch("", "").to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            align_scores::<i16>(&[], &[]).0.to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            align_scores::<i32>(&[], &[]).0.to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn myers_crosses_block_boundaries() {
        let mut masks = CharMasks::default();
        let (mut pv, mut mv) = (Vec::new(), Vec::new());
        for (p, t) in [
            ("a".repeat(130), "a".repeat(129) + "b"),
            ("ab".repeat(65), "ba".repeat(64)),
            ("kitten".repeat(20), "sitting".repeat(19)),
        ] {
            let (pc, tc) = (chars(&p), chars(&t));
            masks.load(&pc);
            let got = myers(&masks, pc.len(), &tc, &mut pv, &mut mv);
            masks.clear(&pc);
            assert_eq!(got, crate::levenshtein_distance(&p, &t), "{p:?} vs {t:?}");
        }
        assert!(masks.rows.iter().all(|&w| w == 0), "clear zeroes every row");
    }

    #[test]
    fn masks_look_up_non_ascii_through_the_side_table() {
        let mut masks = CharMasks::default();
        let s = chars("é東a😀é");
        masks.load(&s);
        assert_eq!(masks.row('é'), &[0b10001]);
        assert_eq!(masks.row('東'), &[0b10]);
        assert_eq!(masks.row('😀'), &[0b1000]);
        assert_eq!(masks.row('a'), &[0b100]);
        assert_eq!(masks.row('ü'), &[0]);
        assert_eq!(masks.row('b'), &[0]);
        masks.clear(&s);
        assert!(masks.rows.iter().all(|&w| w == 0));
    }

    #[test]
    fn scratch_reuse_does_not_leak_state_across_pairs() {
        // A long pair first grows every buffer; the short pair after it
        // must not see the leftovers.
        let long_a = "the quick brown fox ".repeat(8);
        let long_b = "quick brown dogs jump ".repeat(7);
        assert_matches_apply(&long_a, &long_b, &table2());
        assert_matches_apply("ab", "ba", &table2());
        assert_matches_apply("é", "é", &table2());
    }
}

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
//! * **Needleman-Wunsch + Smith-Waterman** — one bit-parallel pass over
//!   the shorter string's masks ([`align`]): 64 DP rows per word, one
//!   column per char of the other string. Both measures are symmetric, so
//!   either string can be the pattern.
//!   - *Deltas.* Under match 1 / mismatch 0 / gap −1 the differences
//!     `ΔV = H[i][j] − H[i−1][j]` and `ΔH = H[i][j] − H[i][j−1]` lie in
//!     −1..=2, so `u = ΔV+1` and `v = ΔH+1` fit two bit planes each. From
//!     `H[i][j] = max(H[i−1][j−1] + s, H[i−1][j] − 1, H[i][j−1] − 1)`,
//!     `s = [a_i = b_j]`, a cell maps the `u` from its left and the `v`
//!     from above to `v' = max(max(2+s, v) − u, 0)` and
//!     `u' = max(max(2+s, u) − v, 0)`.
//!   - *The carry.* `max(2+s, v)` is `2 + (s ∨ [v = 3])`, so all a row
//!     needs from the row above is the bit `[v = 3]`, and it passes
//!     `v' = 3` down exactly where `u = 0` and that bit or `s` is set: with
//!     `z = [u = 0]` and `g = z ∧ s`, `y_i = g_i ∨ (z_i ∧ y_{i−1})`. That is
//!     a carry chain, so one add resolves a whole word: the carry into
//!     row `i` of `z + g + carry-in` is `y_{i−1}`. Each word hands its
//!     bottom row's `y` and `v` to the word below.
//!   - *Scores.* NW's borders `H[i][0] = −i` and `H[0][j] = −j` give
//!     `u = v = 0` there, and its score `H[m][n]` is `−n` plus the sum of
//!     `u − 1` down the last column. SW's DP is NW's with zero borders
//!     (`u = v = 1`): mismatch 0 keeps every cell at least its diagonal
//!     predecessor, so no cell drops below the border's 0, SW's clamp at 0
//!     never acts, and each diagonal's maximum is its last cell, which lies
//!     on the last row or the last column. SW's score is the largest prefix
//!     sum of `v − 1` along the last row or of `u − 1` down the last
//!     column.
//!   - Every cell of the textbook `f64` DPs is a small integer, so the
//!     integer scores convert to the same bits; the one exception is the
//!     `-0.0` the `f64` DP returns for NW of two empty strings, reproduced
//!     here.
//! * **Monge-Elkan** — one Jaro-Winkler per distinct (`a` token, `b`
//!   token) pair. Both token lists are deduplicated by content; each
//!   distinct `a` token's best score is computed once and added once per
//!   occurrence, in `a`'s token order, the textbook's summation order.
//!   `max` returns one of its operands and no score is NaN or `-0.0`, so
//!   the maximum over distinct `b` tokens has the bits of the maximum over
//!   occurrences. Two tokens of at most 64 chars run a one-word Jaro on
//!   masks cut from `b`'s at the `b` token's offset, with the textbook's
//!   greedy order and counts; a longer token runs the string kernel on its
//!   segment of `b`'s masks. An `a` token that also occurs in `b` scores
//!   1.0 without a scan: Jaro-Winkler rounds to at most 1.0 for any
//!   strings and is exactly 1.0 for identical ones, so 1.0 is that token's
//!   maximum.
//! * **Token sets** — one merge join of the profiles' sorted id slices per
//!   tokenizer feeds every set measure of that tokenizer.
//!
//! Char masks are built per pair in a per-thread scratch and cleared after
//! it, never stored on profiles: serving keeps every profile it has built,
//! so per-profile masks would grow its memory with the catalog.

use crate::profile::{intersection_size_sorted, span_chars, TokenProfile};
use crate::{edit, jaro, setsim, StringSimilarity, Tokenizer};
use std::cell::RefCell;
use std::ops::Range;

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
            let r = self.start(c) + j / 64;
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
            let r = self.start(c);
            self.rows[r..r + self.words].fill(0);
        }
    }

    /// Index of the first word of `c`'s row in `rows`.
    fn start(&self, c: char) -> usize {
        let slot = if c.is_ascii() {
            c as usize
        } else {
            ASCII + self.side.binary_search(&c).unwrap_or(self.side.len())
        };
        slot * self.words
    }

    /// The mask row of `c` (all zero when the string does not hold it).
    fn row(&self, c: char) -> &[u64] {
        let r = self.start(c);
        &self.rows[r..r + self.words]
    }

    /// Bits `seg` of the row starting at `start`, shifted down to bit 0;
    /// `seg` spans at most 64 positions.
    fn window(&self, start: usize, seg: &Range<usize>) -> u64 {
        let (k, off, len) = (start + seg.start / 64, seg.start % 64, seg.len());
        let mut w = self.rows[k] >> off;
        if off + len > 64 {
            w |= self.rows[k + 1] << (64 - off);
        }
        w & (!0 >> (64 - len))
    }
}

/// Per-thread buffers: every kernel is allocation-free once these have
/// grown to the workload's longest string.
#[derive(Debug, Default)]
struct Scratch {
    /// Masks of `b`: Jaro, Monge-Elkan, and the pattern of Levenshtein and
    /// the alignment pass unless `a` is shorter.
    b_masks: CharMasks,
    /// Masks of `a`: the pattern when `a` is the shorter string.
    a_masks: CharMasks,
    /// Myers' vertical delta vectors, one word per pattern block.
    pv: Vec<u64>,
    mv: Vec<u64>,
    /// The alignment pass's `ΔV + 1` planes of NW and of SW, one pair per
    /// pattern block.
    align: Vec<[Planes; 2]>,
    /// Jaro's used positions of `b` and matched positions of `a`.
    used: Vec<u64>,
    hit: Vec<u64>,
    /// Monge-Elkan: `b`'s distinct token spans, each `a` token's best
    /// score, and the mask row starts of one `a` token's chars.
    b_tokens: Vec<(u32, u32)>,
    best: Vec<f64>,
    row_starts: Vec<usize>,
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
            a_loaded: false,
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
        if pair.a_loaded {
            pair.s.a_masks.clear(a.chars());
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
    a_loaded: bool,
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

    /// Load the masks of the pattern of the symmetric DPs (Levenshtein and
    /// the alignment pass): the shorter string, with ties going to `b`,
    /// whose masks Jaro and Monge-Elkan share. Returns whether it is `a`.
    fn load_pattern(&mut self) -> bool {
        let a_is_pattern = self.a.chars().len() < self.b.chars().len();
        if !a_is_pattern {
            self.load_b();
        } else if !self.a_loaded {
            self.s.a_masks.load(self.a.chars());
            self.a_loaded = true;
        }
        a_is_pattern
    }

    fn lev(&mut self) -> usize {
        if let Some(d) = self.lev {
            return d;
        }
        let a_is_pattern = self.load_pattern();
        let (ac, bc) = (self.a.chars(), self.b.chars());
        let s = &mut *self.s;
        let d = if a_is_pattern {
            myers(&s.a_masks, ac.len(), bc, &mut s.pv, &mut s.mv)
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
        let a_is_pattern = self.load_pattern();
        let (ac, bc) = (self.a.chars(), self.b.chars());
        let s = &mut *self.s;
        let v = if a_is_pattern {
            align(&s.a_masks, ac.len(), bc, &mut s.align)
        } else {
            align(&s.b_masks, bc.len(), ac, &mut s.align)
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
        // `b`'s distinct tokens, and one best score per `a` token: a
        // repeat copies its first occurrence's. A linear search per token
        // is proportionate, since the scan compares every pair of distinct
        // tokens anyway.
        s.b_tokens.clear();
        for &y in tb {
            let yc = span_chars(bc, y);
            if !s.b_tokens.iter().any(|&t| span_chars(bc, t) == yc) {
                s.b_tokens.push(y);
            }
        }
        s.best.clear();
        let mut total = 0.0;
        for (i, &span) in ta.iter().enumerate() {
            let x = span_chars(ac, span);
            let repeat = ta[..i].iter().position(|&t| span_chars(ac, t) == x);
            let best = if let Some(first) = repeat {
                s.best[first]
            } else if s.b_tokens.iter().any(|&y| span_chars(bc, y) == x) {
                1.0
            } else {
                let bm = &s.b_masks;
                s.row_starts.clear();
                s.row_starts.extend(x.iter().map(|&c| bm.start(c)));
                s.b_tokens
                    .iter()
                    .map(|&y| {
                        let (seg, yc) = (y.0 as usize..y.1 as usize, span_chars(bc, y));
                        let prefix = jaro::common_prefix(x.iter(), yc.iter());
                        let j = if x.len() > 64 || yc.len() > 64 {
                            jaro_masked(x, bc, seg, bm, &mut s.used, &mut s.hit)
                        } else {
                            jaro_word(x, yc, |i| bm.window(s.row_starts[i], &seg))
                        };
                        jaro::winkler(j, prefix)
                    })
                    .fold(f64::NEG_INFINITY, f64::max)
            };
            s.best.push(best);
            total += best;
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

/// Jaro similarity of two non-empty strings of at most 64 chars each, in
/// one word: `eq(i)` is the mask of `b`'s positions holding `a[i]`. The
/// same greedy matching and counts as [`jaro_masked`], with the window cut
/// by shifts instead of branches.
fn jaro_word(a: &[char], b: &[char], eq: impl Fn(usize) -> u64) -> f64 {
    let (la, lb) = (a.len(), b.len());
    let window = (la.max(lb) / 2).saturating_sub(1);
    let (mut used, mut hit) = (0u64, 0u64);
    for i in 0..la {
        let (lo, hi) = (i.saturating_sub(window), (i + window + 1).min(lb));
        let cand = eq(i) & !used & (!0 << lo) & (!0 >> (64 - hi));
        let first = cand & cand.wrapping_neg();
        used |= first;
        hit |= u64::from(first != 0) << i;
    }
    let m = used.count_ones() as usize;
    if m == 0 {
        return 0.0;
    }
    let mut half_transposed = 0;
    while hit != 0 {
        let (i, j) = (hit.trailing_zeros(), used.trailing_zeros());
        half_transposed += usize::from(a[i as usize] != b[j as usize]);
        hit &= hit - 1;
        used &= used - 1;
    }
    jaro::score(m, half_transposed / 2, la, lb)
}

/// Values in `0..=3` for 64 DP rows, one bit plane each: bit 1 in `hi`,
/// bit 0 in `lo`.
#[derive(Debug, Default, Clone, Copy)]
struct Planes {
    hi: u64,
    lo: u64,
}

impl Planes {
    /// `max(2 + t − x, 0)` per row, for `t` in `{0, 1}`: the update of
    /// either delta, where `2 + t` is `max(2 + s, other delta)`.
    fn step(t: u64, x: Planes) -> Planes {
        // Where t is 0 the low bit is [x = 1], and where t is 1 it is
        // [x even]: a select between the two.
        let x_is_one = !x.hi & x.lo;
        Planes {
            hi: !x.hi & (t | !x.lo),
            lo: x_is_one ^ (t & (!x.lo ^ x_is_one)),
        }
    }

    /// The value of row `r`.
    fn at(self, r: usize) -> isize {
        (2 * (self.hi >> r & 1) + (self.lo >> r & 1)) as isize
    }

    /// The sum of the values of rows `0..rows`.
    fn sum(self, rows: usize) -> isize {
        let mask = !0 >> (64 - rows);
        (2 * (self.hi & mask).count_ones() + (self.lo & mask).count_ones()) as isize
    }
}

/// What one 64-row block of a column hands the block below it: the bit
/// `[v = 3]` of its bottom row's `ΔH + 1`, and that `v`, in bit 0.
#[derive(Debug, Clone, Copy)]
struct Carry {
    y: u64,
    v: Planes,
}

/// One 64-row block of one alignment column: `eq` marks the rows whose
/// pattern char equals the column's text char, and `u` holds the block's
/// `ΔV + 1` planes, updated from the previous column to this one. Returns
/// the block's outgoing `ΔH + 1` planes (row `i`'s at bit `i`).
fn align_block(eq: u64, u: &mut Planes, carry: &mut Carry) -> Planes {
    // Row i passes v = 3 down (y_i) where u = 0 and the row matches or
    // receives v = 3 from above: y_i = g_i | (z_i & y_{i-1}) with
    // generate g = z & eq and propagate z. That is a carry chain, so one
    // add resolves it: the add's carry into row i is y_{i-1}.
    let z = !(u.hi | u.lo);
    let g = z & eq;
    let y_in = z.wrapping_add(g).wrapping_add(carry.y) ^ z ^ g;
    let v = Planes::step(eq | y_in, *u);
    let v_in = Planes {
        hi: v.hi << 1 | carry.v.hi,
        lo: v.lo << 1 | carry.v.lo,
    };
    *u = Planes::step(eq | (u.hi & u.lo), v_in);
    carry.y = (g | (z & y_in)) >> 63;
    carry.v = Planes {
        hi: v.hi >> 63,
        lo: v.lo >> 63,
    };
    v
}

/// Needleman-Wunsch and Smith-Waterman scores of a pattern of length `m`,
/// whose masks are `pm`, against `text`, in one bit-parallel pass (see the
/// module docs for the recurrence): the same values, bit for bit, as
/// [`needleman_wunsch`](crate::needleman_wunsch) and
/// [`smith_waterman`](crate::smith_waterman) on the source strings, in
/// either order. `cols` holds the `ΔV + 1` planes of NW and of SW, one
/// pair per 64-row block.
fn align(pm: &CharMasks, m: usize, text: &[char], cols: &mut Vec<[Planes; 2]>) -> (f64, f64) {
    if m == 0 {
        // The f64 NW DP's corner is -(0 as f64), so two empty strings
        // score -0.0; SW never leaves its +0.0 start.
        return (-(text.len() as f64), 0.0);
    }
    // Column 0: NW's H[i][0] = -i gives ΔV = -1 (u = 0) and SW's zero
    // border ΔV = 0 (u = 1).
    cols.clear();
    cols.resize(
        pm.words,
        [Planes { hi: 0, lo: 0 }, Planes { hi: 0, lo: !0 }],
    );
    let bottom = (m - 1) % 64;
    let (mut sw_row, mut sw_best) = (0isize, 0isize);
    for &c in text {
        // Row 0: NW's H[0][j] = -j gives ΔH = -1 (v = 0) and SW's zero
        // border ΔH = 0 (v = 1).
        let mut nw_carry = Carry {
            y: 0,
            v: Planes { hi: 0, lo: 0 },
        };
        let mut sw_carry = Carry {
            y: 0,
            v: Planes { hi: 0, lo: 1 },
        };
        let mut sw_v = Planes::default();
        for (&e, [nw_u, sw_u]) in pm.row(c).iter().zip(cols.iter_mut()) {
            align_block(e, nw_u, &mut nw_carry);
            sw_v = align_block(e, sw_u, &mut sw_carry);
        }
        // SW's last row, H[m][j] = H[m][j-1] + ΔH, is one place its
        // maximum can be.
        sw_row += sw_v.at(bottom) - 1;
        sw_best = sw_best.max(sw_row);
    }
    // The last column, H[i][n] = H[0][n] + Σ ΔV down to row i: NW's score
    // is its bottom cell, and SW's maximum can also be in it.
    let mut nw_score = -((m + text.len()) as isize);
    let mut sw_col = 0isize;
    for (k, [nw_u, sw_u]) in cols.iter().enumerate() {
        let rows = (m - 64 * k).min(64);
        nw_score += nw_u.sum(rows);
        for r in 0..rows {
            sw_col += sw_u.at(r) - 1;
            sw_best = sw_best.max(sw_col);
        }
    }
    (nw_score as f64, sw_best as f64)
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
        let got = align(&CharMasks::default(), 0, &[], &mut Vec::new());
        assert_eq!(got.0.to_bits(), (-0.0f64).to_bits());
        assert_eq!(got.1.to_bits(), 0.0f64.to_bits());
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
    fn mask_windows_cut_token_segments_across_words() {
        let mut masks = CharMasks::default();
        let s = chars(&("ab".repeat(40) + "a"));
        masks.load(&s);
        let a = masks.start('a');
        assert_eq!(masks.window(a, &(0..3)), 0b101);
        assert_eq!(masks.window(a, &(1..4)), 0b010);
        // Positions 60..80 straddle the first word boundary.
        assert_eq!(masks.window(a, &(60..80)), 0x5_5555);
        assert_eq!(masks.window(a, &(16..80)), 0x5555_5555_5555_5555);
        assert_eq!(masks.window(masks.start('z'), &(60..80)), 0);
        masks.clear(&s);
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

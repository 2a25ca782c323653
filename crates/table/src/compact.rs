//! Compact delta-encoded sorted-set storage for postings and per-record
//! token sets.
//!
//! A million-record catalog holds tens of millions of `(token, row)` posting
//! entries, and the zipf shape of real vocabularies means most token lists
//! are tiny while a few are enormous. Storing each list as a `Vec<u32>`
//! (the pre-scale [`crate::IncrementalIndex`] layout) costs a heap
//! allocation plus 24 bytes of header per list — the tail of singleton
//! tokens dominates that overhead. [`DeltaList`] fixes both ends:
//!
//! * values are stored as **LEB128 varint gaps** (strictly ascending `u32`
//!   sequences, so every gap is ≥ 1 and most encode in one byte);
//! * short lists live **inline** in the enum payload ([`INLINE_BYTES`]
//!   bytes, no heap allocation at all) and spill to a `Vec<u8>` only when
//!   they outgrow it.
//!
//! Appending a value larger than the current maximum is O(1) (the common
//! case when catalog rows are ingested in ascending order). Inserting into
//! the middle — the re-upsert of an existing row, which serving churn does
//! on most writes — walks the stream to the first larger value and splits
//! that one gap varint into two in place: a forward decode up to the
//! insertion point plus one shift of the tail bytes, with no decoded copy.
//! Either way the bytes equal what [`DeltaList::from_sorted`] encodes for
//! the same set. Decoding is a forward walk; there is no random access,
//! which is fine because every consumer (probe, compaction, invariant
//! check) walks whole lists.

/// Inline payload capacity. 30 bytes keeps the enum at the size its `Spill`
/// variant forces anyway (`Vec<u8>` + count + last ≈ 32 bytes + tag), so
/// the inline headroom is free. At one-byte gaps that is up to 30 entries
/// with no heap allocation — deeper than the zipf tail needs.
pub const INLINE_BYTES: usize = 30;

/// Encode `v` as a LEB128 varint at the start of `buf`, returning the byte
/// count (≤ 5).
#[inline]
fn encode_varint(mut v: u32, buf: &mut [u8]) -> usize {
    let mut n = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[n] = byte;
            return n + 1;
        }
        buf[n] = byte | 0x80;
        n += 1;
    }
}

/// Decode one LEB128 varint starting at `pos`, advancing `pos`.
/// Input is always bytes this module encoded, so malformed data is a bug.
#[inline]
fn decode_varint(bytes: &[u8], pos: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        v |= u32::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Decode one LEB128 varint starting at `pos` from bytes of unknown
/// origin, advancing `pos` only on success. The varint must be complete,
/// fit a `u32` and be the one [`encode_varint`] writes: no zero final
/// byte after the first, so every value has exactly one encoding.
fn checked_varint(bytes: &[u8], pos: &mut usize) -> Result<u32, &'static str> {
    let mut v = 0u32;
    for i in 0..5 {
        let byte = *bytes.get(*pos + i).ok_or("truncated varint")?;
        if i == 4 && byte > 0x0f {
            return Err("value beyond u32");
        }
        v |= u32::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            if i > 0 && byte == 0 {
                return Err("non-canonical varint");
            }
            *pos += i + 1;
            return Ok(v);
        }
    }
    unreachable!("the fifth byte has no continuation bit")
}

/// A strictly-ascending `u32` sequence stored as delta varints, inline for
/// short lists. See the module docs for the layout rationale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaList {
    /// Up to [`INLINE_BYTES`] encoded bytes, no heap allocation. Count and
    /// last value are recovered by walking (≤ 30 bytes, cache-resident).
    Inline {
        /// Encoded bytes in use.
        len: u8,
        /// Varint gap stream (first value absolute, then gaps).
        buf: [u8; INLINE_BYTES],
    },
    /// Heap-backed list with count and last value cached for O(1) append.
    Spill {
        /// Varint gap stream (first value absolute, then gaps).
        bytes: Vec<u8>,
        /// Number of encoded values.
        count: u32,
        /// Largest (= last) encoded value.
        last: u32,
    },
}

impl Default for DeltaList {
    fn default() -> Self {
        DeltaList::Inline {
            len: 0,
            buf: [0; INLINE_BYTES],
        }
    }
}

impl DeltaList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a strictly-ascending slice.
    pub fn from_sorted(vals: &[u32]) -> Self {
        debug_assert!(vals.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
        let mut list = Self::new();
        for &v in vals {
            list.push(v);
        }
        list
    }

    /// The encoded varint gap stream: what an index checkpoint stores and
    /// [`Self::from_encoded`] reads back.
    pub fn encoded(&self) -> &[u8] {
        match self {
            DeltaList::Inline { len, buf } => &buf[..usize::from(*len)],
            DeltaList::Spill { bytes, .. } => bytes,
        }
    }

    /// The list whose [`Self::encoded`] stream is `bytes`, checked in one
    /// pass: every varint complete and canonical, every value below
    /// `bound`, the values strictly ascending. The result equals, variant
    /// included, the list that wrote the bytes (a stream of at most
    /// [`INLINE_BYTES`] bytes is inline, a longer one spilled), and it
    /// allocates at most `bytes.len()`.
    ///
    /// # Errors
    /// Names the first defect of a stream no list encodes.
    pub fn from_encoded(bytes: &[u8], bound: u32) -> Result<Self, &'static str> {
        let (mut pos, mut count, mut last) = (0usize, 0u32, 0u32);
        while pos < bytes.len() {
            let gap = checked_varint(bytes, &mut pos)?;
            if count > 0 && gap == 0 {
                return Err("values not strictly ascending");
            }
            last = last.checked_add(gap).ok_or("value beyond u32")?;
            if last >= bound {
                return Err("value out of range");
            }
            // Strictly ascending values below `bound` number at most `bound`.
            count += 1;
        }
        Ok(if bytes.len() <= INLINE_BYTES {
            let mut buf = [0; INLINE_BYTES];
            buf[..bytes.len()].copy_from_slice(bytes);
            DeltaList::Inline {
                len: bytes.len() as u8,
                buf,
            }
        } else {
            DeltaList::Spill {
                bytes: bytes.to_vec(),
                count,
                last,
            }
        })
    }

    /// Number of values held.
    pub fn count(&self) -> u32 {
        match self {
            DeltaList::Inline { .. } => self.iter().count() as u32,
            DeltaList::Spill { count, .. } => *count,
        }
    }

    /// True when no value is held.
    pub fn is_empty(&self) -> bool {
        self.encoded().is_empty()
    }

    /// Largest (= last) value, `None` when empty.
    pub fn last(&self) -> Option<u32> {
        match self {
            DeltaList::Inline { .. } => self.iter().last(),
            DeltaList::Spill { bytes, last, .. } => (!bytes.is_empty()).then_some(*last),
        }
    }

    /// Heap bytes owned by this list (0 while inline) — for the index's
    /// memory accounting.
    pub fn heap_bytes(&self) -> usize {
        match self {
            DeltaList::Inline { .. } => 0,
            DeltaList::Spill { bytes, .. } => bytes.capacity(),
        }
    }

    /// Walk the decoded values in ascending order.
    pub fn iter(&self) -> DeltaIter<'_> {
        DeltaIter::new(self.encoded())
    }

    /// How many held values also appear in `sorted` (strictly ascending):
    /// one merge walk, no allocation.
    pub(crate) fn intersection_size(&self, sorted: &[u32]) -> usize {
        let (mut n, mut j) = (0, 0);
        for x in self.iter() {
            while j < sorted.len() && sorted[j] < x {
                j += 1;
            }
            if j == sorted.len() {
                break;
            }
            if sorted[j] == x {
                n += 1;
                j += 1;
            }
        }
        n
    }

    /// Append `v`, which must be strictly greater than [`Self::last`].
    /// O(1) amortized — the ascending-ingest hot path.
    pub fn push(&mut self, v: u32) {
        let mut scratch = [0u8; 5];
        match self {
            DeltaList::Inline { len, buf } => {
                // Walk once for count/last (cheap: ≤ INLINE_BYTES bytes).
                let used = usize::from(*len);
                let (count, last) = tally(&buf[..used]);
                assert!(count == 0 || v > last, "push must be ascending");
                let n = encode_varint(v - last, &mut scratch);
                if used + n <= INLINE_BYTES {
                    buf[used..used + n].copy_from_slice(&scratch[..n]);
                    *len = (used + n) as u8;
                } else {
                    let mut bytes = Vec::with_capacity(used + n);
                    bytes.extend_from_slice(&buf[..used]);
                    bytes.extend_from_slice(&scratch[..n]);
                    *self = DeltaList::Spill {
                        bytes,
                        count: count + 1,
                        last: v,
                    };
                }
            }
            DeltaList::Spill { bytes, count, last } => {
                assert!(*count == 0 || v > *last, "push must be ascending");
                let gap = if *count == 0 { v } else { v - *last };
                let n = encode_varint(gap, &mut scratch);
                bytes.extend_from_slice(&scratch[..n]);
                *count += 1;
                *last = v;
            }
        }
    }

    /// Insert `v` keeping the sequence strictly ascending. Returns `false`
    /// (and changes nothing) when `v` is already present. A value beyond
    /// the current maximum takes the O(1) append path. An interior insert
    /// walks to the first value `next` above `v` and replaces the gap
    /// varint `next − prev` with the two varints `v − prev` and `next − v`
    /// in place: a decode up to the insertion point plus one shift of the
    /// tail. An inline list stays inline while it fits in
    /// [`INLINE_BYTES`] and spills once otherwise, so the result is
    /// byte-for-byte what [`Self::from_sorted`] encodes for the same set.
    pub fn insert(&mut self, v: u32) -> bool {
        if self.last().is_none_or(|last| v > last) {
            self.push(v);
            return true;
        }
        // Some value is ≥ v. The first value is a gap from 0, so one walk
        // covers an insert before it too.
        let bytes = self.encoded();
        let (mut pos, mut prev) = (0usize, 0u32);
        loop {
            let at = pos;
            let next = prev + decode_varint(bytes, &mut pos);
            if next == v {
                return false;
            }
            if next > v {
                let mut split = [0u8; 10];
                let n = encode_varint(v - prev, &mut split);
                let n = n + encode_varint(next - v, &mut split[n..]);
                self.splice(at, pos, &split[..n]);
                return true;
            }
            prev = next;
        }
    }

    /// Replace the encoded bytes `at..end` (one gap varint) with `split`
    /// (its two halves) and count the new value. Splitting a gap never
    /// shortens it: the larger half needs at most one byte fewer than the
    /// whole, and the other half at least one byte. So an inline buffer
    /// only grows, and its bytes past `len` stay zero, as a push leaves
    /// them.
    fn splice(&mut self, at: usize, end: usize, split: &[u8]) {
        debug_assert!(split.len() >= end - at, "a split gap never shrinks");
        match self {
            DeltaList::Inline { len, buf } => {
                let used = usize::from(*len);
                let grown = used - (end - at) + split.len();
                if grown <= INLINE_BYTES {
                    buf.copy_within(end..used, at + split.len());
                    buf[at..at + split.len()].copy_from_slice(split);
                    *len = grown as u8;
                } else {
                    let mut bytes = Vec::with_capacity(grown);
                    bytes.extend_from_slice(&buf[..at]);
                    bytes.extend_from_slice(split);
                    bytes.extend_from_slice(&buf[end..used]);
                    let (count, last) = tally(&bytes);
                    *self = DeltaList::Spill { bytes, count, last };
                }
            }
            DeltaList::Spill { bytes, count, .. } => {
                bytes.splice(at..end, split.iter().copied());
                *count += 1;
            }
        }
    }
}

/// Count and last value of an encoded stream (last is 0 when empty).
fn tally(bytes: &[u8]) -> (u32, u32) {
    DeltaIter::new(bytes).fold((0, 0), |(count, _), v| (count + 1, v))
}

/// Forward decoder over a [`DeltaList`].
pub struct DeltaIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    prev: u32,
}

impl<'a> DeltaIter<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        DeltaIter {
            bytes,
            pos: 0,
            prev: 0,
        }
    }
}

impl Iterator for DeltaIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        // The first value is stored absolute, which is its gap from 0.
        self.prev += decode_varint(self.bytes, &mut self.pos);
        Some(self.prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_list() {
        let l = DeltaList::new();
        assert!(l.is_empty());
        assert_eq!(l.count(), 0);
        assert_eq!(l.last(), None);
        assert_eq!(l.iter().count(), 0);
    }

    #[test]
    fn push_round_trip_with_spill_promotion() {
        let vals: Vec<u32> = (0..200).map(|i| i * 3 + 1).collect();
        let mut l = DeltaList::new();
        for &v in &vals {
            l.push(v);
        }
        assert!(matches!(l, DeltaList::Spill { .. }));
        assert_eq!(l.iter().collect::<Vec<_>>(), vals);
        assert_eq!(l.count(), 200);
        assert_eq!(l.last(), Some(*vals.last().unwrap()));
    }

    #[test]
    fn inline_stays_inline_for_small_lists() {
        let l = DeltaList::from_sorted(&[5, 6, 9, 200]);
        assert!(matches!(l, DeltaList::Inline { .. }));
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![5, 6, 9, 200]);
        assert_eq!(l.heap_bytes(), 0);
    }

    #[test]
    fn insert_dedups_and_keeps_order() {
        let mut l = DeltaList::from_sorted(&[10, 30, 50]);
        assert!(l.insert(20));
        assert!(!l.insert(30));
        assert!(l.insert(60));
        assert!(!l.insert(60));
        assert!(l.insert(1));
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![1, 10, 20, 30, 50, 60]);
    }

    #[test]
    fn intersection_size_merges_with_a_sorted_slice() {
        let l = DeltaList::from_sorted(&[2, 5, 9, 40, 41]);
        assert_eq!(l.intersection_size(&[]), 0);
        assert_eq!(l.intersection_size(&[1, 3, 50]), 0);
        assert_eq!(l.intersection_size(&[2, 9, 41]), 3);
        assert_eq!(l.intersection_size(&[0, 5, 6, 40, 41, 99]), 3);
        assert_eq!(DeltaList::new().intersection_size(&[1, 2]), 0);
    }

    #[test]
    fn large_values_use_five_byte_varints() {
        let vals = [0, 1, u32::MAX - 1, u32::MAX];
        let l = DeltaList::from_sorted(&vals);
        assert_eq!(l.iter().collect::<Vec<_>>(), vals);
    }

    #[test]
    fn from_encoded_round_trips_inline_and_spilled_lists() {
        for vals in [
            vec![],
            vec![0],
            vec![5, 6, 9, 200],
            (0..200).map(|i| i * 3).collect(),
        ] {
            let l = DeltaList::from_sorted(&vals);
            assert_eq!(DeltaList::from_encoded(l.encoded(), 600), Ok(l));
        }
        let top = DeltaList::from_sorted(&[0, u32::MAX - 1]);
        assert_eq!(DeltaList::from_encoded(top.encoded(), u32::MAX), Ok(top));
    }

    #[test]
    fn from_encoded_rejects_every_stream_no_list_writes() {
        let max = u32::MAX;
        let cases: [(&[u8], u32, &str); 7] = [
            (&[0x85], 5, "truncated varint"),
            (&[0x85, 0x00], 5, "non-canonical varint"),
            (&[0xff, 0xff, 0xff, 0xff, 0x1f], max, "value beyond u32"),
            (
                &[0xff, 0xff, 0xff, 0xff, 0x8f, 0x01],
                max,
                "value beyond u32",
            ),
            (
                &[0xfe, 0xff, 0xff, 0xff, 0x0f, 0x02],
                max,
                "value beyond u32",
            ),
            (&[3, 0], 5, "values not strictly ascending"),
            (&[3, 1, 1], 5, "value out of range"),
        ];
        for (bytes, bound, why) in cases {
            assert_eq!(DeltaList::from_encoded(bytes, bound), Err(why), "{bytes:?}");
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn push_rejects_non_ascending() {
        let mut l = DeltaList::from_sorted(&[7]);
        l.push(7);
    }
}

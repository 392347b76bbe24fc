//! Compact collections: distinct-element sets for the per-record
//! accumulation layer, and the sorted columns of the finished analysis.
//!
//! The collector used to keep a heap-allocated `HashSet` behind every
//! port→sources and source→ports relation — one allocation plus one SipHash
//! probe per insert, with poor locality on iteration. With sources interned
//! to dense ids ([`crate::intern`]) both relations become sets of *small
//! dense integers*, for which two representations beat a hash set:
//!
//! * **sorted members** while the set is small (the common case: most
//!   sources touch a handful of ports, most ports and (week, /16) cells see
//!   few sources), where insertion is a short `memmove` and membership a
//!   binary search. The smallest sets keep their members *inline* in the
//!   enum's own 32 bytes and never allocate; past the inline bound they move
//!   to a sorted heap vector;
//! * a **bitmap** once the set grows past the sorted bound, where insertion
//!   and membership are single word operations and memory is `max_id/8`
//!   bytes — compact precisely because interned ids are dense.
//!
//! All keep an exact element count, so cardinality queries (the only thing
//! most call sites need at `finish()` time) are O(1). Iteration is always
//! ascending. Which variant a set is in follows from its members alone, and
//! both sorted variants snapshot as the same tag, so the representation is
//! invisible in checkpoints.
//!
//! Once a year is finished nothing is inserted any more: the analysis is
//! merged, encoded, decoded and queried. [`SortedMap`] is the map for that
//! half of the life cycle — one key-ascending vector, which is also the
//! order the store format writes, so no stage hashes or re-sorts.

use crate::checkpoint::{Ascending, CheckpointError, SnapReader, SnapWriter};

/// Members an [`IdSet`] keeps inline, in the enum's own 32 bytes.
const ID_INLINE_MAX: usize = 7;

/// Sorted capacity of [`IdSet`] before it spills to a bitmap.
const ID_SMALL_MAX: usize = 16;

/// Members a [`PortSet`] keeps inline, in the enum's own 32 bytes.
const PORT_INLINE_MAX: usize = 14;

/// Sorted capacity of [`PortSet`] before it spills to a bitmap.
const PORT_SMALL_MAX: usize = 32;

// The inline variants ride in space the heap variants already need: one set
// per source and per (week, /16) cell.
const _: () = assert!(std::mem::size_of::<IdSet>() <= 32);
const _: () = assert!(std::mem::size_of::<PortSet>() <= 32);

/// Words in a full 16-bit port bitmap (65536 bits).
const PORT_WORDS: usize = 1 << 10;

/// A set of dense `crate::intern::SourceId`s (inline / sorted vec / bitmap
/// hybrid).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdSet {
    /// Sorted, deduplicated ids held in place (≤ `ID_INLINE_MAX`); the
    /// slots past `len` are zero.
    Inline {
        /// Number of ids in `ids`.
        len: u8,
        /// The ids, ascending in `ids[..len]`.
        ids: [u32; ID_INLINE_MAX],
    },
    /// Sorted, deduplicated ids on the heap (≤ `ID_SMALL_MAX`).
    Small(Vec<u32>),
    /// Bitmap over ids, sized to the largest id seen.
    Bits {
        /// One bit per id, little-endian within each word.
        words: Vec<u64>,
        /// Exact number of set bits.
        len: u32,
    },
}

impl Default for IdSet {
    fn default() -> Self {
        IdSet::Inline {
            len: 0,
            ids: [0; ID_INLINE_MAX],
        }
    }
}

impl IdSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The set of `items` (sorted, deduplicated, at most `ID_SMALL_MAX`), in
    /// the variant its size calls for.
    fn from_sorted(items: Vec<u32>) -> Self {
        if items.len() <= ID_INLINE_MAX {
            let (len, ids) = inline_of(&items);
            IdSet::Inline { len, ids }
        } else {
            IdSet::Small(items)
        }
    }

    /// The members, ascending, unless the set is a bitmap.
    fn sorted(&self) -> Option<&[u32]> {
        match self {
            IdSet::Inline { len, ids } => Some(&ids[..usize::from(*len)]),
            IdSet::Small(items) => Some(items),
            IdSet::Bits { .. } => None,
        }
    }

    /// Insert `id`; returns `true` when it was not already present.
    #[inline]
    pub(crate) fn insert(&mut self, id: u32) -> bool {
        match self {
            IdSet::Inline { len, ids } => match insert_inline(len, ids, id) {
                Ok(inserted) => inserted,
                Err(pos) => {
                    *self = IdSet::Small(spill(ids, pos, id, ID_SMALL_MAX));
                    true
                }
            },
            IdSet::Small(items) => match items.binary_search(&id) {
                Ok(_) => false,
                Err(pos) => {
                    if items.len() < ID_SMALL_MAX {
                        items.insert(pos, id);
                        return true;
                    }
                    let mut words = Vec::new();
                    let mut len = 0u32;
                    for &existing in items.iter() {
                        Self::set_bit(&mut words, existing);
                        len += 1;
                    }
                    Self::set_bit(&mut words, id);
                    len += 1;
                    *self = IdSet::Bits { words, len };
                    true
                }
            },
            IdSet::Bits { words, len } => {
                if Self::set_bit(words, id) {
                    *len += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Set one bit, growing the word vector on demand; returns `true` when
    /// the bit was previously clear.
    #[inline]
    fn set_bit(words: &mut Vec<u64>, id: u32) -> bool {
        let word = (id >> 6) as usize;
        if word >= words.len() {
            words.resize(word + 1, 0);
        }
        let mask = 1u64 << (id & 63);
        let was_clear = words[word] & mask == 0;
        words[word] |= mask;
        was_clear
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: u32) -> bool {
        match self {
            IdSet::Bits { words, .. } => {
                let word = (id >> 6) as usize;
                word < words.len() && words[word] & (1u64 << (id & 63)) != 0
            }
            _ => self
                .sorted()
                .is_some_and(|ids| ids.binary_search(&id).is_ok()),
        }
    }

    /// Number of distinct ids.
    pub(crate) fn len(&self) -> usize {
        match self {
            IdSet::Bits { len, .. } => *len as usize,
            _ => self.sorted().map_or(0, <[u32]>::len),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The largest id, if any.
    pub(crate) fn last(&self) -> Option<u32> {
        match self {
            IdSet::Bits { words, .. } => {
                let word = words.iter().rposition(|&bits| bits != 0)?;
                Some(word as u32 * 64 + 63 - words[word].leading_zeros())
            }
            _ => self.sorted().and_then(|ids| ids.last().copied()),
        }
    }

    /// Iterate ids in ascending order.
    pub(crate) fn iter(&self) -> IdSetIter<'_> {
        match self {
            IdSet::Bits { words, .. } => IdSetIter::Bits {
                words,
                word: 0,
                current: words.first().copied().unwrap_or(0),
            },
            _ => IdSetIter::Small(self.sorted().unwrap_or_default().iter()),
        }
    }

    /// Serialize for a pipeline checkpoint: tag 0 and the members for both
    /// sorted variants (which one a set is in follows from its size), tag 1
    /// and the words for a bitmap.
    pub(crate) fn snapshot_to(&self, w: &mut SnapWriter) {
        match self {
            IdSet::Bits { words, len } => {
                w.put_u8(1);
                w.put_u32(*len);
                w.put_u64(words.len() as u64);
                for &word in words {
                    w.put_u64(word);
                }
            }
            _ => snapshot_ids(self.sorted().unwrap_or_default(), w),
        }
    }

    /// Rebuild a set written by [`IdSet::snapshot_to`].
    pub(crate) fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, CheckpointError> {
        match r.take_u8()? {
            0 => {
                let len = r.take_len(4)?;
                if len > ID_SMALL_MAX {
                    return Err(CheckpointError::Corrupt(format!(
                        "inline IdSet of {len} ids"
                    )));
                }
                let mut items = Vec::with_capacity(len);
                let mut order = Ascending::new("inline IdSet ids");
                for _ in 0..len {
                    items.push(order.admit(r.take_u32()?)?);
                }
                Ok(IdSet::from_sorted(items))
            }
            1 => {
                let len = r.take_u32()?;
                let word_count = r.take_len(8)?;
                let mut words = Vec::with_capacity(word_count);
                for _ in 0..word_count {
                    words.push(r.take_u64()?);
                }
                let bits: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
                if bits != u64::from(len) {
                    return Err(CheckpointError::Corrupt(format!(
                        "IdSet bitmap has {bits} bits, recorded len {len}"
                    )));
                }
                Ok(IdSet::Bits { words, len })
            }
            t => Err(CheckpointError::Corrupt(format!("IdSet tag {t}"))),
        }
    }

    /// Merge `other` into `self` (set union) — the cross-shard combine for
    /// compact sets. Sorted inputs merge sequentially; anything else inserts
    /// `other`'s members one by one. Either way the result is the variant
    /// inserting the union into a fresh set would give.
    pub fn union_with(&mut self, other: &IdSet) {
        match (self.sorted(), other.sorted()) {
            (Some(mine), Some(theirs)) if mine.len() + theirs.len() <= ID_SMALL_MAX => {
                // The bound check guarantees the merged set is still sorted
                // (it can only shrink under dedup).
                *self = IdSet::from_sorted(sorted_union(mine, theirs));
            }
            _ => {
                for id in other.iter() {
                    self.insert(id);
                }
            }
        }
    }
}

/// Write the ascending, deduplicated `ids` exactly as
/// [`IdSet::snapshot_to`] writes the set that holds them: up to
/// `ID_SMALL_MAX` members as tag 0 and the ids, more as tag 1 and the bitmap
/// inserting them would grow, one word per 64 ids up to the largest.
pub(crate) fn snapshot_ids(ids: &[u32], w: &mut SnapWriter) {
    if ids.len() <= ID_SMALL_MAX {
        w.put_u8(0);
        w.put_u64(ids.len() as u64);
        for &id in ids {
            w.put_u32(id);
        }
        return;
    }
    w.put_u8(1);
    w.put_u32(ids.len() as u32);
    let words = (ids[ids.len() - 1] >> 6) as usize + 1;
    w.put_u64(words as u64);
    let mut rest = ids;
    for word in 0..words {
        let in_word = rest.partition_point(|&id| (id >> 6) as usize == word);
        let (these, tail) = rest.split_at(in_word);
        w.put_u64(these.iter().fold(0, |bits, &id| bits | 1 << (id & 63)));
        rest = tail;
    }
}

/// Insert `x` into the ascending, deduplicated `members[..*len]`: `Ok`
/// with whether it was new, or `Err(position)` when it is new but the
/// array is full.
#[inline]
fn insert_inline<T: Ord + Copy, const N: usize>(
    len: &mut u8,
    members: &mut [T; N],
    x: T,
) -> Result<bool, usize> {
    let n = usize::from(*len);
    match members[..n].binary_search(&x) {
        Ok(_) => Ok(false),
        Err(pos) if n < N => {
            members.copy_within(pos..n, pos + 1);
            members[pos] = x;
            *len += 1;
            Ok(true)
        }
        Err(pos) => Err(pos),
    }
}

/// The full inline `members` plus `x` at `pos`, as a heap vector with room
/// for `capacity` members.
fn spill<T: Copy>(members: &[T], pos: usize, x: T, capacity: usize) -> Vec<T> {
    let mut items = Vec::with_capacity(capacity);
    items.extend_from_slice(&members[..pos]);
    items.push(x);
    items.extend_from_slice(&members[pos..]);
    items
}

/// `items` (at most `N`) as an inline length and zero-padded array.
fn inline_of<T: Copy + Default, const N: usize>(items: &[T]) -> (u8, [T; N]) {
    let mut members = [T::default(); N];
    members[..items.len()].copy_from_slice(items);
    (items.len() as u8, members)
}

/// A map kept as one key-ascending `Vec<(K, V)>`: lookup is a binary search,
/// iteration is in key order, and two maps combine in one sorted merge.
///
/// The entries are private so the order cannot be broken from outside: a map
/// is built by [`FromIterator`] (which sorts), by `SortedMap::from_sorted`
/// (which checks), or by `SortedMap::merge_from`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for SortedMap<K, V> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
        }
    }
}

/// Borrowing iterator over a [`SortedMap`], ascending by key.
pub(crate) type SortedMapIter<'a, K, V> =
    std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (&'a K, &'a V)>;

impl<K: Ord, V> SortedMap<K, V> {
    /// Adopt `entries` as they are, or `None` unless their keys are strictly
    /// ascending (which also rules out duplicates).
    pub(crate) fn from_sorted(entries: Vec<(K, V)>) -> Option<Self> {
        entries
            .windows(2)
            .all(|pair| pair[0].0 < pair[1].0)
            .then_some(Self { entries })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, ascending by key.
    pub(crate) fn as_slice(&self) -> &[(K, V)] {
        &self.entries
    }

    /// Position of `key` in [`SortedMap::as_slice`].
    pub(crate) fn position(&self, key: &K) -> Option<usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key)).ok()
    }

    /// The value stored under `key`.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.position(key).map(|at| &self.entries[at].1)
    }

    /// As [`SortedMap::get`], trying position `hint` before searching: two
    /// maps over the same key set hold a key at the same position.
    pub(crate) fn get_near(&self, hint: usize, key: &K) -> Option<&V> {
        match self.entries.get(hint) {
            Some((k, value)) if k == key => Some(value),
            _ => self.get(key),
        }
    }

    /// `(key, value)` pairs, ascending by key.
    pub fn iter(&self) -> SortedMapIter<'_, K, V> {
        let project: fn(&(K, V)) -> (&K, &V) = |(k, v)| (k, v);
        self.entries.iter().map(project)
    }

    /// Keys, ascending.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &K> + DoubleEndedIterator + Clone {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values, in key order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &V> + DoubleEndedIterator + Clone {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Merge `other` into `self` in one pass over both, in `self`'s own
    /// buffer. A key only one side holds moves across unchanged; for a key
    /// both hold, `combine(mine, theirs)` decides what stays.
    pub(crate) fn merge_from(&mut self, other: Self, mut combine: impl FnMut(&mut V, V))
    where
        K: Default,
        V: Default,
    {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        let mut theirs = other.entries;
        let entries = &mut self.entries;
        let mut unread = entries.len();
        entries.resize_with(unread + theirs.len(), Default::default);
        let mut write = entries.len();
        // Fill from the back, largest key first. `write - unread` is the
        // count of their entries still to place plus the shared keys seen,
        // so a write never lands on one of mine still unread.
        while let Some((key, value)) = theirs.pop() {
            while unread > 0 && entries[unread - 1].0 > key {
                unread -= 1;
                write -= 1;
                entries.swap(unread, write);
            }
            write -= 1;
            if unread > 0 && entries[unread - 1].0 == key {
                unread -= 1;
                entries.swap(unread, write);
                combine(&mut entries[write].1, value);
            } else {
                entries[write] = (key, value);
            }
        }
        // Mine still unread are in place; each shared key left one
        // placeholder between them and the merged tail.
        entries.drain(unread..write);
    }
}

impl<K: Ord, V> std::ops::Index<&K> for SortedMap<K, V> {
    type Output = V;

    /// # Panics
    /// If `key` is absent, as `HashMap`'s and `BTreeMap`'s `Index` do.
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for SortedMap<K, V> {
    /// Sorts by key; of entries with equal keys the last one wins, as when
    /// collecting into a std map.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut entries: Vec<(K, V)> = iter.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|later, earlier| {
            let same = later.0 == earlier.0;
            if same {
                std::mem::swap(later, earlier);
            }
            same
        });
        Self { entries }
    }
}

impl<K, V> IntoIterator for SortedMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a SortedMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = SortedMapIter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// How many elements two sorted, deduplicated slices share.
pub(crate) fn sorted_intersection_len(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

/// Union of two sorted, deduplicated slices, preserving both invariants.
pub(crate) fn sorted_union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Ascending iterator over an [`IdSet`].
#[derive(Debug)]
pub enum IdSetIter<'a> {
    /// Inline representation: iterate the sorted slice.
    Small(std::slice::Iter<'a, u32>),
    /// Bitmap representation: walk set bits word by word.
    Bits {
        /// The bitmap words.
        words: &'a [u64],
        /// Index of the word `current` was loaded from.
        word: usize,
        /// Remaining unvisited bits of the current word.
        current: u64,
    },
}

impl Iterator for IdSetIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            IdSetIter::Small(iter) => iter.next().copied(),
            IdSetIter::Bits {
                words,
                word,
                current,
            } => loop {
                if *current != 0 {
                    let bit = current.trailing_zeros();
                    *current &= *current - 1;
                    return Some((*word as u32) * 64 + bit);
                }
                *word += 1;
                if *word >= words.len() {
                    return None;
                }
                *current = words[*word];
            },
        }
    }
}

/// A set of 16-bit destination ports (inline / sorted vec / fixed bitmap
/// hybrid). Only the cardinality is consumed at `finish()` time
/// (`source_port_counts`), so the bitmap variant keeps an exact counter and
/// never needs to iterate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortSet {
    /// Sorted, deduplicated ports held in place (≤ `PORT_INLINE_MAX`); the
    /// slots past `len` are zero.
    Inline {
        /// Number of ports in `ports`.
        len: u8,
        /// The ports, ascending in `ports[..len]`.
        ports: [u16; PORT_INLINE_MAX],
    },
    /// Sorted, deduplicated ports on the heap (≤ `PORT_SMALL_MAX`).
    Small(Vec<u16>),
    /// Full 8 KiB port bitmap — only for the rare wide (vertical) scanners.
    Bits {
        /// 65536 bits, one per port.
        words: Box<[u64]>,
        /// Exact number of set bits.
        len: u32,
    },
}

impl Default for PortSet {
    fn default() -> Self {
        PortSet::Inline {
            len: 0,
            ports: [0; PORT_INLINE_MAX],
        }
    }
}

impl PortSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The members, ascending, unless the set is a bitmap.
    fn sorted(&self) -> Option<&[u16]> {
        match self {
            PortSet::Inline { len, ports } => Some(&ports[..usize::from(*len)]),
            PortSet::Small(items) => Some(items),
            PortSet::Bits { .. } => None,
        }
    }

    /// Insert `port`; returns `true` when it was not already present.
    #[inline]
    pub(crate) fn insert(&mut self, port: u16) -> bool {
        match self {
            PortSet::Inline { len, ports } => match insert_inline(len, ports, port) {
                Ok(inserted) => inserted,
                Err(pos) => {
                    *self = PortSet::Small(spill(ports, pos, port, PORT_SMALL_MAX));
                    true
                }
            },
            PortSet::Small(items) => match items.binary_search(&port) {
                Ok(_) => false,
                Err(pos) => {
                    if items.len() < PORT_SMALL_MAX {
                        items.insert(pos, port);
                        return true;
                    }
                    let mut words = vec![0u64; PORT_WORDS].into_boxed_slice();
                    for &existing in items.iter() {
                        words[usize::from(existing >> 6)] |= 1u64 << (existing & 63);
                    }
                    words[usize::from(port >> 6)] |= 1u64 << (port & 63);
                    *self = PortSet::Bits {
                        words,
                        len: PORT_SMALL_MAX as u32 + 1,
                    };
                    true
                }
            },
            PortSet::Bits { words, len } => {
                let word = &mut words[usize::from(port >> 6)];
                let mask = 1u64 << (port & 63);
                if *word & mask == 0 {
                    *word |= mask;
                    *len += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Whether `port` is in the set.
    pub fn contains(&self, port: u16) -> bool {
        match self {
            PortSet::Bits { words, .. } => {
                words[usize::from(port >> 6)] & (1u64 << (port & 63)) != 0
            }
            _ => self
                .sorted()
                .is_some_and(|ports| ports.binary_search(&port).is_ok()),
        }
    }

    /// Number of distinct ports.
    pub(crate) fn len(&self) -> usize {
        match self {
            PortSet::Bits { len, .. } => *len as usize,
            _ => self.sorted().map_or(0, <[u16]>::len),
        }
    }

    /// Serialize for a pipeline checkpoint: tag 0 and the members for both
    /// sorted variants, tag 1 and the fixed-size bitmap otherwise.
    pub(crate) fn snapshot_to(&self, w: &mut SnapWriter) {
        match self {
            PortSet::Bits { words, len } => {
                w.put_u8(1);
                w.put_u32(*len);
                for &word in words.iter() {
                    w.put_u64(word);
                }
            }
            _ => {
                let items = self.sorted().unwrap_or_default();
                w.put_u8(0);
                w.put_u64(items.len() as u64);
                for &port in items {
                    w.put_u16(port);
                }
            }
        }
    }

    /// Rebuild a set written by [`PortSet::snapshot_to`]. The bitmap variant
    /// is always exactly `PORT_WORDS` words, so only the sorted length is
    /// encoded.
    pub(crate) fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, CheckpointError> {
        match r.take_u8()? {
            0 => {
                let len = r.take_len(2)?;
                if len > PORT_SMALL_MAX {
                    return Err(CheckpointError::Corrupt(format!(
                        "inline PortSet of {len} ports"
                    )));
                }
                let mut items = Vec::with_capacity(len);
                let mut order = Ascending::new("inline PortSet ports");
                for _ in 0..len {
                    items.push(order.admit(r.take_u16()?)?);
                }
                if items.len() <= PORT_INLINE_MAX {
                    let (len, ports) = inline_of(&items);
                    Ok(PortSet::Inline { len, ports })
                } else {
                    Ok(PortSet::Small(items))
                }
            }
            1 => {
                let len = r.take_u32()?;
                let mut words = vec![0u64; PORT_WORDS].into_boxed_slice();
                for word in words.iter_mut() {
                    *word = r.take_u64()?;
                }
                let bits: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
                if bits != u64::from(len) {
                    return Err(CheckpointError::Corrupt(format!(
                        "PortSet bitmap has {bits} bits, recorded len {len}"
                    )));
                }
                Ok(PortSet::Bits { words, len })
            }
            t => Err(CheckpointError::Corrupt(format!("PortSet tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idset_inserts_dedups_and_counts() {
        let mut set = IdSet::new();
        assert!(set.is_empty());
        assert!(set.insert(5));
        assert!(set.insert(3));
        assert!(!set.insert(5), "duplicate rejected");
        assert_eq!(set.len(), 2);
        assert!(set.contains(3));
        assert!(!set.contains(4));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn idset_spills_to_bitmap_and_stays_exact() {
        let mut set = IdSet::new();
        // Duplicate-heavy stream around the spill boundary.
        for round in 0..3 {
            for id in 0..40u32 {
                let inserted = set.insert(id * 3);
                assert_eq!(inserted, round == 0, "id {id} round {round}");
            }
        }
        assert!(matches!(set, IdSet::Bits { .. }), "spilled past inline max");
        assert_eq!(set.len(), 40);
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            (0..40u32).map(|i| i * 3).collect::<Vec<_>>(),
            "bitmap iteration is ascending and exact"
        );
        assert!(set.contains(117));
        assert!(!set.contains(118));
    }

    #[test]
    fn idset_exact_boundary_spill() {
        let mut set = IdSet::new();
        for id in 0..16u32 {
            set.insert(id);
        }
        assert!(matches!(set, IdSet::Small(_)), "inline at the bound");
        set.insert(16);
        assert!(matches!(set, IdSet::Bits { .. }), "bound + 1 spills");
        assert_eq!(set.len(), 17);
    }

    #[test]
    fn idset_union_small_small_inline() {
        // Empty × non-empty, overlapping, all staying inline.
        let mut a = IdSet::new();
        let mut b = IdSet::new();
        a.union_with(&b);
        assert!(a.is_empty(), "empty ∪ empty");
        for id in [1u32, 5, 9] {
            b.insert(id);
        }
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 5, 9], "empty ∪ b = b");
        let mut c = IdSet::new();
        for id in [5u32, 7] {
            c.insert(id);
        }
        a.union_with(&c);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 5, 7, 9]);
        assert!(matches!(a, IdSet::Inline { .. }), "four ids stay inline");
    }

    #[test]
    fn idset_union_spilling_and_mixed_reprs() {
        // Cross-shard shape: two disjoint dense ranges, each inline, whose
        // union must spill; then union a bitmap into a small set.
        let mut low = IdSet::new();
        let mut high = IdSet::new();
        for id in 0..12u32 {
            low.insert(id);
            high.insert(100 + id);
        }
        low.union_with(&high);
        assert_eq!(low.len(), 24);
        assert!(low.contains(0) && low.contains(111));

        let mut big = IdSet::new();
        for id in 0..50u32 {
            big.insert(id * 2);
        }
        let mut small = IdSet::new();
        small.insert(1);
        small.insert(4); // overlaps big
        small.union_with(&big);
        assert_eq!(small.len(), 51);
        let mut expected: Vec<u32> = (0..50u32).map(|i| i * 2).collect();
        expected.push(1);
        expected.sort_unstable();
        assert_eq!(small.iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn idset_union_is_idempotent() {
        let mut a = IdSet::new();
        for id in 0..30u32 {
            a.insert(id);
        }
        let snapshot = a.clone();
        let b = a.clone();
        a.union_with(&b);
        assert_eq!(a, snapshot, "self-union changes nothing");
    }

    #[test]
    fn portset_inserts_and_spills() {
        let mut set = PortSet::new();
        assert!(set.insert(443));
        assert!(!set.insert(443));
        assert!(set.insert(80));
        assert_eq!(set.len(), 2);
        assert!(set.contains(80) && !set.contains(22));

        // A vertical scanner hitting every 7th port: spills to the bitmap
        // and the count stays exact under duplicates.
        for _ in 0..2 {
            for p in (0..u16::MAX).step_by(7) {
                set.insert(p);
            }
        }
        assert!(matches!(set, PortSet::Bits { .. }));
        let expected = (0..u16::MAX).step_by(7).count() + 2
            - usize::from(443 % 7 == 0)
            - usize::from(80 % 7 == 0);
        assert_eq!(set.len(), expected);
        assert!(set.contains(7) && set.contains(443));
    }

    #[test]
    fn portset_boundary_ports() {
        let mut set = PortSet::new();
        assert!(set.insert(0));
        assert!(set.insert(u16::MAX));
        assert_eq!(set.len(), 2);
        for p in 1..=PORT_SMALL_MAX as u16 {
            set.insert(p);
        }
        assert!(matches!(set, PortSet::Bits { .. }));
        assert!(set.contains(0) && set.contains(u16::MAX));
        assert_eq!(set.len(), 2 + PORT_SMALL_MAX);
    }

    fn round_trip_idset(set: &IdSet) -> IdSet {
        let mut w = SnapWriter::new();
        set.snapshot_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = IdSet::restore_from(&mut r).unwrap();
        assert_eq!(r.remaining(), 0, "snapshot fully consumed");
        back
    }

    fn round_trip_portset(set: &PortSet) -> PortSet {
        let mut w = SnapWriter::new();
        set.snapshot_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = PortSet::restore_from(&mut r).unwrap();
        assert_eq!(r.remaining(), 0, "snapshot fully consumed");
        back
    }

    #[test]
    fn idset_snapshot_round_trips_both_representations() {
        // Empty, inline, boundary, and bitmap states.
        assert_eq!(round_trip_idset(&IdSet::new()), IdSet::new());

        let mut inline = IdSet::new();
        for id in [3u32, 9, 4_000_000_000] {
            inline.insert(id);
        }
        assert_eq!(round_trip_idset(&inline), inline);

        let mut at_bound = IdSet::new();
        for id in 0..16u32 {
            at_bound.insert(id);
        }
        assert_eq!(round_trip_idset(&at_bound), at_bound);

        let mut bitmap = IdSet::new();
        for id in 0..40u32 {
            bitmap.insert(id * 11);
        }
        assert!(matches!(bitmap, IdSet::Bits { .. }));
        assert_eq!(round_trip_idset(&bitmap), bitmap);
    }

    #[test]
    fn idset_restore_rejects_inconsistent_bitmaps() {
        let mut set = IdSet::new();
        for id in 0..40u32 {
            set.insert(id);
        }
        let mut w = SnapWriter::new();
        set.snapshot_to(&mut w);
        let mut bytes = w.into_bytes();
        // Flip a data bit so the recorded cardinality no longer matches.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            IdSet::restore_from(&mut r),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn inline_sets_restore_only_strictly_ascending_members() {
        // Tag 0, two members: swapped, then duplicated. Either would load
        // as a set whose binary search misses a member it holds.
        for members in [[9u32, 3], [3, 3]] {
            let mut w = SnapWriter::new();
            w.put_u8(0);
            w.put_u64(2);
            members.iter().for_each(|&id| w.put_u32(id));
            let bytes = w.into_bytes();
            let result = IdSet::restore_from(&mut SnapReader::new(&bytes));
            assert!(
                matches!(result, Err(CheckpointError::Corrupt(_))),
                "{members:?}"
            );

            let mut w = SnapWriter::new();
            w.put_u8(0);
            w.put_u64(2);
            members.iter().for_each(|&port| w.put_u16(port as u16));
            let bytes = w.into_bytes();
            let result = PortSet::restore_from(&mut SnapReader::new(&bytes));
            assert!(
                matches!(result, Err(CheckpointError::Corrupt(_))),
                "{members:?}"
            );
        }
    }

    #[test]
    fn portset_snapshot_round_trips_both_representations() {
        assert_eq!(round_trip_portset(&PortSet::new()), PortSet::new());

        let mut inline = PortSet::new();
        for port in [0u16, 443, u16::MAX] {
            inline.insert(port);
        }
        assert_eq!(round_trip_portset(&inline), inline);

        let mut bitmap = PortSet::new();
        for port in (0..u16::MAX).step_by(7) {
            bitmap.insert(port);
        }
        assert!(matches!(bitmap, PortSet::Bits { .. }));
        assert_eq!(round_trip_portset(&bitmap), bitmap);
    }

    /// Ids at the representation boundaries: the inline bound, one past
    /// it, the sorted bound, and one past that (the bitmap spill).
    fn idset_at_each_bound() -> Vec<(usize, IdSet)> {
        [
            0,
            ID_INLINE_MAX,
            ID_INLINE_MAX + 1,
            ID_SMALL_MAX,
            ID_SMALL_MAX + 1,
        ]
        .into_iter()
        .map(|n| {
            let mut set = IdSet::new();
            // Descending, spread ids: every insert shifts the members.
            for i in (0..n as u32).rev() {
                assert!(set.insert(i * 97 + 3));
            }
            (n, set)
        })
        .collect()
    }

    fn idset_bytes(set: &IdSet) -> Vec<u8> {
        let mut w = SnapWriter::new();
        set.snapshot_to(&mut w);
        w.into_bytes()
    }

    fn portset_bytes(set: &PortSet) -> Vec<u8> {
        let mut w = SnapWriter::new();
        set.snapshot_to(&mut w);
        w.into_bytes()
    }

    #[test]
    fn bare_ids_snapshot_as_the_set_that_holds_them() {
        let mut wide = IdSet::new();
        for id in [5u32, 64, 700, 701, 4_095, 9_000] {
            wide.insert(id);
        }
        for i in 0..40u32 {
            wide.insert(i * 131);
        }
        let mut sets = idset_at_each_bound();
        sets.push((wide.len(), wide));
        for (n, set) in sets {
            let ids: Vec<u32> = set.iter().collect();
            let mut w = SnapWriter::new();
            snapshot_ids(&ids, &mut w);
            assert!(w.into_bytes() == idset_bytes(&set), "{n} ids");
            assert_eq!(set.last(), ids.last().copied(), "{n} ids");
        }
    }

    #[test]
    fn idset_variant_follows_size_through_snapshot_and_re_encode() {
        for (n, set) in idset_at_each_bound() {
            let expected_variant = match n {
                n if n <= ID_INLINE_MAX => matches!(set, IdSet::Inline { .. }),
                n if n <= ID_SMALL_MAX => matches!(set, IdSet::Small(_)),
                _ => matches!(set, IdSet::Bits { .. }),
            };
            assert!(expected_variant, "{n} ids: {set:?}");
            assert_eq!(set.len(), n);
            let bytes = idset_bytes(&set);
            // Both sorted variants write tag 0 and the members.
            assert_eq!(bytes[0], u8::from(n > ID_SMALL_MAX), "{n} ids");
            let back = round_trip_idset(&set);
            assert_eq!(back, set, "{n} ids restore to the same variant");
            assert_eq!(idset_bytes(&back), bytes, "{n} ids re-encode");
            assert!(set.iter().all(|id| back.contains(id)));
        }
    }

    #[test]
    fn idset_union_over_every_variant_pair_matches_fresh_inserts() {
        // Overlapping (shared ids) and disjoint (shifted ids) partners for
        // every pair of sizes around the bounds.
        let left = idset_at_each_bound();
        for (n, mine) in &left {
            for (m, base) in idset_at_each_bound() {
                for shift in [0u32, 1_000_000] {
                    let theirs: IdSet = {
                        let mut set = IdSet::new();
                        base.iter().for_each(|id| {
                            set.insert(id + shift);
                        });
                        set
                    };
                    let mut union = mine.clone();
                    union.union_with(&theirs);
                    let mut fresh = IdSet::new();
                    for id in mine.iter().chain(theirs.iter()) {
                        fresh.insert(id);
                    }
                    assert_eq!(union, fresh, "{n} ∪ {m} ids, shift {shift}");
                    let back = round_trip_idset(&union);
                    assert_eq!(idset_bytes(&back), idset_bytes(&union));
                }
            }
        }
    }

    #[test]
    fn portset_variant_follows_size_through_snapshot_and_re_encode() {
        for n in [
            0,
            PORT_INLINE_MAX,
            PORT_INLINE_MAX + 1,
            PORT_SMALL_MAX,
            PORT_SMALL_MAX + 1,
        ] {
            let mut set = PortSet::new();
            for i in (0..n as u16).rev() {
                assert!(set.insert(i * 1999 + 7));
            }
            let expected_variant = match n {
                n if n <= PORT_INLINE_MAX => matches!(set, PortSet::Inline { .. }),
                n if n <= PORT_SMALL_MAX => matches!(set, PortSet::Small(_)),
                _ => matches!(set, PortSet::Bits { .. }),
            };
            assert!(expected_variant, "{n} ports: {set:?}");
            assert_eq!(set.len(), n);
            let bytes = portset_bytes(&set);
            assert_eq!(bytes[0], u8::from(n > PORT_SMALL_MAX), "{n} ports");
            let back = round_trip_portset(&set);
            assert_eq!(back, set, "{n} ports restore to the same variant");
            assert_eq!(portset_bytes(&back), bytes, "{n} ports re-encode");
            assert!((0..n as u16).all(|i| back.contains(i * 1999 + 7)));
        }
    }

    #[test]
    fn sorted_map_sorts_on_collect_and_checks_on_adopt() {
        let map: SortedMap<u32, &str> = [(7, "g"), (3, "c"), (7, "G"), (5, "e")]
            .into_iter()
            .collect();
        assert_eq!(map.as_slice(), &[(3, "c"), (5, "e"), (7, "G")], "last wins");
        assert_eq!(map.get(&5), Some(&"e"));
        assert_eq!(map.get(&4), None);
        assert!(map.get(&7).is_some() && map.get(&8).is_none());
        assert_eq!(map[&3], "c");
        assert_eq!(map.position(&7), Some(2));
        assert_eq!(map.get_near(2, &7), Some(&"G"), "hint hits");
        assert_eq!(map.get_near(0, &7), Some(&"G"), "wrong hint searches");
        assert_eq!(map.get_near(9, &4), None, "hint past the end, key absent");
        assert_eq!(map.keys().copied().collect::<Vec<_>>(), vec![3, 5, 7]);
        assert_eq!(
            map.values().copied().collect::<Vec<_>>(),
            vec!["c", "e", "G"]
        );
        assert_eq!((&map).into_iter().len(), map.len());

        assert_eq!(
            SortedMap::from_sorted(vec![(1, ()), (2, ())]).map(|m| m.len()),
            Some(2)
        );
        assert!(
            SortedMap::from_sorted(vec![(2, ()), (1, ())]).is_none(),
            "descending"
        );
        assert!(
            SortedMap::from_sorted(vec![(1, ()), (1, ())]).is_none(),
            "repeated"
        );
        assert!(SortedMap::<u8, ()>::from_sorted(Vec::new()).is_some_and(|m| m.is_empty()));
    }

    #[test]
    fn sorted_map_merge_combines_shared_keys_and_keeps_the_rest() {
        let of = |entries: &[(u32, u64)]| entries.iter().copied().collect::<SortedMap<_, _>>();
        let mut sum = of(&[(1, 10), (4, 40), (9, 90)]);
        sum.merge_from(of(&[(0, 1), (4, 2), (5, 3), (12, 4)]), |mine, theirs| {
            *mine += theirs
        });
        assert_eq!(
            sum.as_slice(),
            &[(0, 1), (1, 10), (4, 42), (5, 3), (9, 90), (12, 4)]
        );

        let mut empty = SortedMap::default();
        empty.merge_from(sum.clone(), |_: &mut u64, _| unreachable!("no shared key"));
        assert_eq!(empty, sum);
        empty.merge_from(SortedMap::default(), |_, _| unreachable!("no shared key"));
        assert_eq!(empty, sum);
    }

    #[test]
    fn sorted_map_merge_in_place_matches_a_btreemap_for_every_overlap() {
        use std::collections::BTreeMap;
        use synscan_stats::mix64;
        // Up to 12 and 10 keys out of 40: disjoint, interleaved, nested and
        // shared runs, either side empty. The values own heap memory, so a
        // move that duplicates or drops one shows.
        for case in 0..300u64 {
            let draw = |salt: u64, n: u64| -> BTreeMap<u32, Vec<u64>> {
                (0..n)
                    .map(|i| {
                        let r = mix64(case << 16 | salt << 8 | i);
                        ((r % 40) as u32, vec![r >> 40])
                    })
                    .collect()
            };
            let (mine, theirs) = (draw(1, case % 13), draw(2, case % 11));
            let mut reference = mine.clone();
            for (key, values) in &theirs {
                reference.entry(*key).or_default().extend(values);
            }
            let mut merged: SortedMap<u32, Vec<u64>> = mine.into_iter().collect();
            merged.merge_from(theirs.into_iter().collect(), |mine, theirs| {
                mine.extend(theirs)
            });
            let reference: Vec<(u32, Vec<u64>)> = reference.into_iter().collect();
            assert_eq!(merged.as_slice(), reference.as_slice(), "case {case}");
        }
    }

    #[test]
    fn sorted_intersection_counts_shared_members() {
        assert_eq!(sorted_intersection_len(&[], &[1, 2]), 0);
        assert_eq!(sorted_intersection_len(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), 2);
        assert_eq!(sorted_intersection_len(&[4, 5], &[4, 5]), 2);
    }

    #[test]
    fn sorted_union_edge_cases() {
        assert_eq!(sorted_union(&[], &[]), Vec::<u32>::new());
        assert_eq!(sorted_union(&[1, 2], &[]), vec![1, 2]);
        assert_eq!(sorted_union(&[], &[3]), vec![3]);
        assert_eq!(sorted_union(&[1, 3, 5], &[1, 3, 5]), vec![1, 3, 5]);
        assert_eq!(sorted_union(&[1, 4], &[2, 3, 9]), vec![1, 2, 3, 4, 9]);
    }
}

//! Source-address interning: one hash probe per record, dense ids after.
//!
//! Every stateful stage of the measurement loop is keyed by source address
//! (§3.3 fingerprint windows, §3.4 open-scan state, the per-source
//! aggregates). Before this layer existed each stage re-hashed the same
//! 32-bit address — ~8 SipHash probes per admitted record. A
//! [`SourceTable`] assigns each distinct `src_ip` a dense `u32` index at
//! admission; every downstream per-source structure is then a plain `Vec`
//! indexed by that id, so the *only* per-source keyed lookup left in the
//! admit path is the intern probe itself (one [`crate::fasthash`] probe).
//!
//! Ids are assigned in first-appearance order, which is deterministic for a
//! given record stream. Nothing downstream depends on the numbering: all
//! public output maps are re-keyed by IP at `finish()` time via
//! `SourceTable::into_ips`.

use crate::checkpoint::{CheckpointError, SnapReader, SnapWriter};
use crate::fasthash::FxHashMap;

/// Dense index of an interned source address (assignment order = first
/// appearance in the stream).
pub(crate) type SourceId = u32;

/// Interner mapping `src_ip` ↔ dense `SourceId`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceTable {
    ids: FxHashMap<u32, SourceId>,
    ips: Vec<u32>,
}

impl SourceTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size for roughly `sources` distinct addresses (rehash avoidance;
    /// never load-bearing).
    pub(crate) fn reserve(&mut self, sources: usize) {
        self.ids.reserve(sources);
        self.ips.reserve(sources);
    }

    /// Intern `ip`, assigning the next dense id on first sight.
    ///
    /// This is the one keyed lookup per record the hot path performs for
    /// per-source state.
    #[inline]
    pub fn intern(&mut self, ip: u32) -> SourceId {
        if let Some(&id) = self.ids.get(&ip) {
            return id;
        }
        let id = self.ips.len() as SourceId;
        self.ids.insert(ip, id);
        self.ips.push(ip);
        id
    }

    /// The id of `ip`, if it has been interned.
    pub fn get(&self, ip: u32) -> Option<SourceId> {
        self.ids.get(&ip).copied()
    }

    /// The address behind `id`.
    ///
    /// # Panics
    /// If `id` was not produced by this table.
    pub(crate) fn ip_of(&self, id: SourceId) -> u32 {
        self.ips[id as usize]
    }

    /// All interned addresses, indexed by id — the `finish()`-time bridge
    /// from dense per-source vectors back to IP-keyed public maps. The
    /// reverse map is dropped here: nothing interns after `finish`.
    pub(crate) fn into_ips(self) -> Vec<u32> {
        self.ips
    }

    /// Number of interned sources.
    pub(crate) fn len(&self) -> usize {
        self.ips.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ips.is_empty()
    }

    /// Serialize for a pipeline checkpoint. The id-ordered `ips` vector is
    /// the whole state: the reverse map is rebuilt on restore by
    /// re-interning in order, which reassigns the identical dense ids.
    pub(crate) fn snapshot_to(&self, w: &mut SnapWriter) {
        w.put_u64(self.ips.len() as u64);
        for &ip in &self.ips {
            w.put_u32(ip);
        }
    }

    /// Rebuild a table written by [`SourceTable::snapshot_to`].
    pub(crate) fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, CheckpointError> {
        let len = r.take_len(4)?;
        let mut table = SourceTable::new();
        table.reserve(len);
        for expected in 0..len {
            let ip = r.take_u32()?;
            let id = table.intern(ip);
            if id as usize != expected {
                return Err(CheckpointError::Corrupt(format!(
                    "duplicate address {ip:#010x} in interner snapshot"
                )));
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_first_appearance_ordered() {
        let mut table = SourceTable::new();
        assert_eq!(table.intern(0x0a00_0001), 0);
        assert_eq!(table.intern(0x0b00_0002), 1);
        assert_eq!(table.intern(0x0a00_0001), 0, "re-intern is stable");
        assert_eq!(table.intern(0x0c00_0003), 2);
        assert_eq!(table.into_ips(), [0x0a00_0001, 0x0b00_0002, 0x0c00_0003]);
    }

    #[test]
    fn round_trips_ip_and_id() {
        let mut table = SourceTable::new();
        table.reserve(100);
        for i in 0..100u32 {
            let ip = i.wrapping_mul(2_654_435_761);
            let id = table.intern(ip);
            assert_eq!(table.ip_of(id), ip);
            assert_eq!(table.get(ip), Some(id));
        }
        assert_eq!(table.get(0xdead_beef), None);
        assert!(!table.is_empty());
    }

    #[test]
    fn empty_table() {
        let table = SourceTable::new();
        assert!(table.is_empty());
        assert!(table.into_ips().is_empty());
    }

    #[test]
    fn snapshot_round_trips_ids_and_lookups() {
        let mut table = SourceTable::new();
        for i in 0..50u32 {
            table.intern(i.wrapping_mul(2_654_435_761));
        }
        let mut w = SnapWriter::new();
        table.snapshot_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = SourceTable::restore_from(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(back, table, "ids, ips, and the reverse map all match");
        // The restored table keeps assigning fresh ids past the snapshot.
        let mut back = back;
        assert_eq!(back.intern(0xdead_beef), 50);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let mut w = SnapWriter::new();
        SourceTable::new().snapshot_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = SourceTable::restore_from(&mut r).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn snapshot_with_duplicate_addresses_is_rejected() {
        let mut w = SnapWriter::new();
        w.put_u64(2);
        w.put_u32(7);
        w.put_u32(7);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            SourceTable::restore_from(&mut r),
            Err(CheckpointError::Corrupt(_))
        ));
    }
}

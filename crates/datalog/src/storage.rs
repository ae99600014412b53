//! Indexed in-memory relation storage over a flat interned-tuple arena.
//!
//! A [`Relation`] stores its tuples as one `arity`-strided `Vec<ValueId>`
//! arena — row `i` is the slice `arena[i*arity .. (i+1)*arity]` — rather
//! than one heap allocation per tuple. Values are interned once at the
//! boundary ([`crate::intern`]); everything below works on dense `u32` ids,
//! where tuple equality is a slice compare and hashing is a few integer
//! multiplies instead of a walk over string/byte payloads.
//!
//! Membership and every secondary index share one shape: a map from a
//! 64-bit **slice hash** to the posting list of row ids whose (masked)
//! columns hash there. There is no second copy of any tuple — the arena is
//! the single canonical store, and probes verify candidates against it
//! (collisions are possible but only cost an extra compare). Index keys
//! that used to be `Box<[Value]>` per entry are gone entirely; probe keys
//! are integer slices in caller-provided buffers, so lookups allocate
//! nothing.
//!
//! A join like `pictures($id, $n, $owner, $d), rate($owner, 5)` probes
//! `rate` with column 0 bound: the first such probe builds the index for
//! that *binding pattern* (the [`ColMask`] of bound columns) and later
//! probes are O(1) per matching tuple. Indexes are cached behind an
//! `RwLock` so lookups work through `&Relation` (evaluation holds shared
//! references to the database) and are maintained in place by insertion
//! and removal — single-tuple removal sits on the incremental maintenance
//! hot path, where dropping the cache would turn an O(change) step into an
//! O(database) rebuild.

use crate::intern::{self, ValueId};
use crate::{Result, Tuple, Value};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, RwLock};

/// A binding pattern: bit `i` set means column `i` is bound at the lookup.
/// 64 bits wide, so every supported arity ([`MAX_ARITY`]) indexes without
/// aliasing — with a narrower mask, columns ≥ the width would silently
/// collide into the same index slots.
pub type ColMask = u64;

/// The widest relation the index masks can address.
pub const MAX_ARITY: usize = ColMask::BITS as usize;

/// Hashes a slice of interned ids (fxhash-style multiply-rotate-xor).
/// Quality only affects collision rates — every lookup verifies candidates
/// against the arena, so a collision costs a compare, never a wrong match.
#[inline]
pub(crate) fn hash_ids(ids: &[ValueId]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h: u64 = ids.len() as u64;
    for id in ids {
        h = (h.rotate_left(5) ^ u64::from(id.raw())).wrapping_mul(K);
    }
    h
}

/// Pass-through hasher for keys that are already well-mixed 64-bit slice
/// hashes; avoids re-hashing them through SipHash on every map operation.
#[derive(Default, Clone)]
pub(crate) struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed with this; keep a fallback anyway.
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

type IdTable = HashMap<u64, Vec<u32>, BuildHasherDefault<PreHashed>>;

/// A stored relation: a set of same-arity tuples in a flat arena with lazy
/// secondary indexes.
pub struct Relation {
    arity: usize,
    /// Number of rows; tracked explicitly so arity-0 relations work.
    len: usize,
    /// Flat `arity`-strided tuple storage — the single canonical copy.
    arena: Vec<ValueId>,
    /// Full-row hash → row ids with that hash (usually exactly one).
    membership: IdTable,
    /// Binding pattern → (masked-columns hash → row ids). Each index sits
    /// behind an `Arc` so probes iterate a refcounted snapshot instead of
    /// holding the map's read guard across their callback — a nested probe
    /// of the *same* relation with a not-yet-built mask takes the write
    /// lock to install its index, which would self-deadlock against an
    /// outer probe's held read guard (the regression
    /// `nested_same_relation_probe_with_fresh_index_mask` pins this).
    /// In-place index maintenance on `&mut self` uses `Arc::make_mut`,
    /// which never copies there: exclusive access means no probe snapshot
    /// is alive.
    indexes: RwLock<HashMap<ColMask, Arc<IdTable>>>,
}

impl Relation {
    /// Creates an empty relation of the given arity.
    ///
    /// # Panics
    /// Panics when `arity` exceeds [`MAX_ARITY`]; use [`Relation::try_new`]
    /// for a recoverable error (the [`crate::Database`] entry points do).
    pub fn new(arity: usize) -> Relation {
        Relation::try_new(arity).expect("relation arity exceeds MAX_ARITY")
    }

    /// Creates an empty relation, rejecting arities the index masks cannot
    /// address ([`MAX_ARITY`]) with [`DatalogError::UnsupportedArity`].
    ///
    /// [`DatalogError::UnsupportedArity`]: crate::DatalogError::UnsupportedArity
    pub fn try_new(arity: usize) -> Result<Relation> {
        if arity > MAX_ARITY {
            return Err(crate::DatalogError::UnsupportedArity {
                arity,
                max: MAX_ARITY,
            });
        }
        Ok(Relation {
            arity,
            len: 0,
            arena: Vec::new(),
            membership: IdTable::default(),
            indexes: RwLock::new(HashMap::new()),
        })
    }

    /// The number of columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `id` as an id slice.
    #[inline]
    pub(crate) fn row(&self, id: u32) -> &[ValueId] {
        let start = id as usize * self.arity;
        &self.arena[start..start + self.arity]
    }

    /// Total `ValueId` slots held by the arena. Exposed so tests can assert
    /// the one-canonical-copy invariant: always exactly `len() * arity()` —
    /// no shadow copies in membership or index structures.
    pub fn arena_slots(&self) -> usize {
        self.arena.len()
    }

    /// The row id storing `ids`, if present.
    #[inline]
    pub(crate) fn find(&self, ids: &[ValueId]) -> Option<u32> {
        let candidates = self.membership.get(&hash_ids(ids))?;
        candidates.iter().copied().find(|&id| self.row(id) == ids)
    }

    /// Membership test on interned ids.
    pub(crate) fn contains_ids(&self, ids: &[ValueId]) -> bool {
        ids.len() == self.arity && self.find(ids).is_some()
    }

    /// Membership test. A tuple containing a never-interned value cannot be
    /// stored here (storage interns on insert), so it is absent by
    /// construction.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        if tuple.len() != self.arity {
            return false;
        }
        let mut ids = Vec::with_capacity(tuple.len());
        intern::lookup_row(tuple, &mut ids) && self.find(&ids).is_some()
    }

    /// Iterates over all tuples in insertion order, resolving each row back
    /// to owned values.
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.len).map(move |i| intern::resolve_row(self.row(i as u32)))
    }

    /// Iterates over all rows as id slices, in insertion order.
    pub(crate) fn iter_ids(&self) -> impl Iterator<Item = &[ValueId]> + '_ {
        (0..self.len).map(move |i| self.row(i as u32))
    }

    /// Inserts a tuple; returns `true` if it was new. Values are interned
    /// here — the single boundary where data enters the id plane.
    ///
    /// Existing indexes are updated incrementally so a fixpoint loop that
    /// inserts into a derived relation does not keep invalidating them.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        self.check_arity(tuple.len())?;
        let mut ids = Vec::with_capacity(tuple.len());
        intern::intern_row(&tuple, &mut ids);
        self.insert_ids(&ids)
    }

    /// Id-native insert (same semantics as [`Relation::insert`]).
    pub(crate) fn insert_ids(&mut self, ids: &[ValueId]) -> Result<bool> {
        self.check_arity(ids.len())?;
        let h = hash_ids(ids);
        if let Some(candidates) = self.membership.get(&h) {
            if candidates.iter().any(|&id| self.row(id) == ids) {
                return Ok(false);
            }
        }
        let id = u32::try_from(self.len).map_err(|_| {
            // Row ids are u32 to keep postings compact; a relation at 2^32
            // tuples fails recoverably instead of panicking.
            crate::DatalogError::CapacityExceeded {
                capacity: u64::from(u32::MAX) + 1,
            }
        })?;
        let mut indexes = self.indexes.write().expect("index lock poisoned");
        let mut key: Vec<ValueId> = Vec::new();
        for (&mask, index) in indexes.iter_mut() {
            key.clear();
            masked_key(ids, mask, &mut key);
            Arc::make_mut(index)
                .entry(hash_ids(&key))
                .or_default()
                .push(id);
        }
        drop(indexes);
        self.membership.entry(h).or_default().push(id);
        self.arena.extend_from_slice(ids);
        self.len += 1;
        Ok(true)
    }

    /// Removes a tuple; returns `true` if it was present.
    pub fn remove(&mut self, tuple: &[Value]) -> bool {
        if tuple.len() != self.arity {
            return false;
        }
        let mut ids = Vec::with_capacity(tuple.len());
        if !intern::lookup_row(tuple, &mut ids) {
            return false;
        }
        self.remove_ids(&ids)
    }

    /// Id-native removal (same semantics as [`Relation::remove`]).
    ///
    /// Cached indexes are updated in place — the incremental maintenance
    /// engine deletes single tuples on its hot path, so dropping the whole
    /// cache (and rebuilding it on the next probe) would turn an O(change)
    /// maintenance step back into an O(database) one. Removal swap-fills
    /// the vacated arena slot with the last row, so every posting naming
    /// the old last id is remapped to the vacated id.
    pub(crate) fn remove_ids(&mut self, ids: &[ValueId]) -> bool {
        let Some(id) = self.find(ids) else {
            return false;
        };
        let last = (self.len - 1) as u32;
        // Membership: drop the removed row's posting, remap the moved row.
        remove_posting(&mut self.membership, hash_ids(ids), id);
        if id != last {
            let last_hash = hash_ids(self.row(last));
            remap_posting(&mut self.membership, last_hash, last, id);
        }
        let mut indexes = self.indexes.write().expect("index lock poisoned");
        let mut key: Vec<ValueId> = Vec::new();
        for (&mask, index) in indexes.iter_mut() {
            let index = Arc::make_mut(index);
            key.clear();
            masked_key(ids, mask, &mut key);
            remove_posting(index, hash_ids(&key), id);
            if id != last {
                key.clear();
                masked_key(self.row(last), mask, &mut key);
                remap_posting(index, hash_ids(&key), last, id);
            }
        }
        drop(indexes);
        // Arena: swap-fill the hole with the last row, then truncate.
        if id != last {
            let (dst, src) = (id as usize * self.arity, last as usize * self.arity);
            self.arena.copy_within(src..src + self.arity, dst);
        }
        self.arena.truncate(last as usize * self.arity);
        self.len -= 1;
        true
    }

    /// Removes all tuples.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.len = 0;
        self.membership.clear();
        self.indexes.write().expect("index lock poisoned").clear();
    }

    /// Looks up rows matching `key` on the columns of `mask`, building the
    /// index for `mask` on first use, and passes each matching row (as an
    /// id slice) to `f`; `f` returns `false` to stop early. A zero mask
    /// visits every row. Probing allocates nothing: the key is hashed as a
    /// slice and candidates are verified against the arena.
    pub(crate) fn for_each_match_ids(
        &self,
        mask: ColMask,
        key: &[ValueId],
        mut f: impl FnMut(&[ValueId]) -> bool,
    ) {
        if mask == 0 {
            for i in 0..self.len {
                if !f(self.row(i as u32)) {
                    return;
                }
            }
            return;
        }
        // Iterate a refcounted snapshot, NOT under the map's read guard:
        // `f` may recursively probe this same relation with a mask whose
        // index is not built yet, and installing that index takes the
        // write lock — held-guard iteration would self-deadlock.
        let index = self.index_for(mask);
        if let Some(ids) = index.get(&hash_ids(key)) {
            for &id in ids {
                let row = self.row(id);
                if masked_eq(row, mask, key) && !f(row) {
                    return;
                }
            }
        }
    }

    /// Value-facing variant of `Relation::for_each_match_ids`: the key is
    /// looked up in the interner (a never-interned value cannot match) and
    /// each matching row is resolved for the callback.
    pub fn for_each_match(&self, mask: ColMask, key: &[Value], mut f: impl FnMut(&[Value])) {
        let mut key_ids = Vec::with_capacity(key.len());
        if !intern::lookup_row(key, &mut key_ids) {
            return;
        }
        self.for_each_match_ids(mask, &key_ids, |row| {
            f(&intern::resolve_row(row));
            true
        });
    }

    /// Like [`Relation::for_each_match`] but collects matches (test helper).
    pub fn matches(&self, mask: ColMask, key: &[Value]) -> Vec<Tuple> {
        let mut out = Vec::new();
        self.for_each_match(mask, key, |t| out.push(t.iter().cloned().collect()));
        out
    }

    /// Number of index structures currently cached (observability/tests).
    pub fn cached_indexes(&self) -> usize {
        self.indexes.read().expect("index lock poisoned").len()
    }

    /// Returns the index for `mask`, building it on first use. No lock is
    /// held on return — the caller iterates the `Arc` snapshot freely.
    fn index_for(&self, mask: ColMask) -> Arc<IdTable> {
        {
            let indexes = self.indexes.read().expect("index lock poisoned");
            if let Some(index) = indexes.get(&mask) {
                return Arc::clone(index);
            }
        }
        let mut index = IdTable::default();
        let mut key: Vec<ValueId> = Vec::new();
        for id in 0..self.len as u32 {
            key.clear();
            masked_key(self.row(id), mask, &mut key);
            index.entry(hash_ids(&key)).or_default().push(id);
        }
        let mut indexes = self.indexes.write().expect("index lock poisoned");
        Arc::clone(indexes.entry(mask).or_insert_with(|| Arc::new(index)))
    }

    fn check_arity(&self, found: usize) -> Result<()> {
        if found != self.arity {
            return Err(crate::DatalogError::ArityMismatch {
                relation: "<relation>".into(),
                expected: self.arity,
                found,
            });
        }
        Ok(())
    }
}

/// A process-independent column dump of a relation, for persistence.
///
/// [`ValueId`]s are process-local and deliberately non-serializable; a dump
/// therefore carries the referenced values themselves (each distinct value
/// once, in first-use order) plus the rows as `u32` indexes into that local
/// slice. Loading re-interns the values and remaps the local indexes onto
/// whatever ids the destination process assigns, so a segment written by one
/// process loads correctly into another whose interner assigned the same
/// values entirely different ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnExport {
    /// Number of columns.
    pub arity: usize,
    /// Number of rows (explicit so nullary relations round-trip).
    pub rows: usize,
    /// Distinct referenced values, in first-use (row-major) order.
    pub values: Vec<Value>,
    /// `rows * arity` local indexes into `values`, row-major.
    pub cells: Vec<u32>,
}

impl ColumnExport {
    /// Rebuilds a relation in this process, re-interning every referenced
    /// value and remapping the local cell indexes onto the fresh ids.
    /// Malformed dumps (cell out of range, cell count not `rows * arity`)
    /// are rejected recoverably with [`DatalogError::CorruptExport`].
    ///
    /// [`DatalogError::CorruptExport`]: crate::DatalogError::CorruptExport
    pub fn into_relation(&self) -> Result<Relation> {
        if self.cells.len() != self.rows * self.arity {
            return Err(crate::DatalogError::CorruptExport(format!(
                "cell count {} != rows {} * arity {}",
                self.cells.len(),
                self.rows,
                self.arity
            )));
        }
        if let Some(&bad) = self
            .cells
            .iter()
            .find(|&&c| c as usize >= self.values.len())
        {
            return Err(crate::DatalogError::CorruptExport(format!(
                "cell index {bad} out of range for {} values",
                self.values.len()
            )));
        }
        let ids: Vec<ValueId> = self.values.iter().map(ValueId::intern).collect();
        let mut rel = Relation::try_new(self.arity)?;
        let mut row: Vec<ValueId> = Vec::with_capacity(self.arity);
        for r in 0..self.rows {
            row.clear();
            row.extend(
                self.cells[r * self.arity..(r + 1) * self.arity]
                    .iter()
                    .map(|&c| ids[c as usize]),
            );
            rel.insert_ids(&row)?;
        }
        Ok(rel)
    }
}

impl Relation {
    /// Dumps the relation as process-independent columns (see
    /// [`ColumnExport`]): rows in insertion order, each distinct value
    /// emitted once at its first use.
    pub fn export_columns(&self) -> ColumnExport {
        let mut local: HashMap<ValueId, u32> = HashMap::with_capacity(64);
        let mut values: Vec<Value> = Vec::new();
        let mut cells: Vec<u32> = Vec::with_capacity(self.arena.len());
        for &id in &self.arena {
            let next = u32::try_from(values.len()).expect("column export value overflow");
            let ix = *local.entry(id).or_insert_with(|| {
                values.push(id.value());
                next
            });
            cells.push(ix);
        }
        ColumnExport {
            arity: self.arity,
            rows: self.len,
            values,
            cells,
        }
    }
}

/// Extracts the masked columns of `row` (in column order) into `key`.
#[inline]
fn masked_key(row: &[ValueId], mask: ColMask, key: &mut Vec<ValueId>) {
    let mut m = mask;
    while m != 0 {
        let col = m.trailing_zeros() as usize;
        key.push(row[col]);
        m &= m - 1;
    }
}

/// True iff `row`'s masked columns equal `key` (in column order).
#[inline]
fn masked_eq(row: &[ValueId], mask: ColMask, key: &[ValueId]) -> bool {
    let mut m = mask;
    let mut i = 0;
    while m != 0 {
        let col = m.trailing_zeros() as usize;
        if row[col] != key[i] {
            return false;
        }
        i += 1;
        m &= m - 1;
    }
    true
}

fn remove_posting(table: &mut IdTable, hash: u64, id: u32) {
    if let Some(ids) = table.get_mut(&hash) {
        if let Some(pos) = ids.iter().position(|&x| x == id) {
            ids.swap_remove(pos);
        }
        if ids.is_empty() {
            table.remove(&hash);
        }
    }
}

fn remap_posting(table: &mut IdTable, hash: u64, from: u32, to: u32) {
    if let Some(ids) = table.get_mut(&hash) {
        if let Some(pos) = ids.iter().position(|&x| x == from) {
            ids[pos] = to;
        }
    }
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            arity: self.arity,
            len: self.len,
            arena: self.arena.clone(),
            membership: self.membership.clone(),
            // Index caches are rebuilt on demand in the clone.
            indexes: RwLock::new(HashMap::new()),
        }
    }
}

impl std::fmt::Debug for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Relation")
            .field("arity", &self.arity)
            .field("len", &self.len)
            .finish()
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && self.len == other.len
            && self.iter_ids().all(|row| other.contains_ids(row))
    }
}

impl Eq for Relation {}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::from(v)).collect()
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut r = Relation::new(2);
        assert!(r.insert(t(&[1, 2])).unwrap());
        assert!(!r.insert(t(&[1, 2])).unwrap());
        assert_eq!(r.len(), 1);
        assert!(r.contains(&t(&[1, 2])));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = Relation::new(2);
        assert!(r.insert(t(&[1])).is_err());
    }

    #[test]
    fn remove_and_membership_stay_consistent() {
        let mut r = Relation::new(1);
        for i in 0..10 {
            r.insert(t(&[i])).unwrap();
        }
        assert!(r.remove(&t(&[3])));
        assert!(!r.remove(&t(&[3])));
        assert_eq!(r.len(), 9);
        // After swap_remove, every remaining tuple must still be findable.
        for i in 0..10 {
            assert_eq!(r.contains(&t(&[i])), i != 3);
        }
    }

    #[test]
    fn indexed_lookup_matches_scan() {
        let mut r = Relation::new(2);
        for i in 0..100i64 {
            r.insert(t(&[i % 10, i])).unwrap();
        }
        // bound column 0 == 3
        let key = [Value::from(3)];
        let hits = r.matches(0b01, &key);
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|tu| tu[0] == Value::from(3)));
        assert_eq!(r.cached_indexes(), 1);
        // Index updated incrementally on insert.
        r.insert(t(&[3, 1000])).unwrap();
        assert_eq!(r.matches(0b01, &key).len(), 11);
    }

    #[test]
    fn multi_column_index() {
        let mut r = Relation::new(3);
        r.insert(t(&[1, 2, 3])).unwrap();
        r.insert(t(&[1, 2, 4])).unwrap();
        r.insert(t(&[1, 5, 3])).unwrap();
        let hits = r.matches(0b011, &[Value::from(1), Value::from(2)]);
        assert_eq!(hits.len(), 2);
        let hits = r.matches(0b101, &[Value::from(1), Value::from(3)]);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn zero_mask_scans_everything() {
        let mut r = Relation::new(1);
        for i in 0..5 {
            r.insert(t(&[i])).unwrap();
        }
        assert_eq!(r.matches(0, &[]).len(), 5);
        assert_eq!(r.cached_indexes(), 0);
    }

    #[test]
    fn removal_updates_indexes_in_place() {
        let mut r = Relation::new(1);
        r.insert(t(&[1])).unwrap();
        r.insert(t(&[2])).unwrap();
        assert_eq!(r.matches(0b1, &[Value::from(1)]).len(), 1);
        assert_eq!(r.cached_indexes(), 1);
        r.remove(&t(&[1]));
        // The index survives the removal (no cache drop) and stays correct.
        assert_eq!(r.cached_indexes(), 1);
        assert_eq!(r.matches(0b1, &[Value::from(1)]).len(), 0);
        assert_eq!(r.matches(0b1, &[Value::from(2)]).len(), 1);
    }

    /// Regression: the swap-fill in `remove` moves the last row into the
    /// vacated slot; a stale posting would then resolve probes of the moved
    /// tuple to the wrong row (or past the end).
    #[test]
    fn remove_remaps_swapped_tuple_in_indexes() {
        let mut r = Relation::new(2);
        for i in 0..6i64 {
            r.insert(t(&[i, i * 10])).unwrap();
        }
        // Build two indexes with different masks.
        assert_eq!(r.matches(0b01, &[Value::from(5)]).len(), 1);
        assert_eq!(r.matches(0b11, &[Value::from(5), Value::from(50)]).len(), 1);
        // Removing row 0 swap-fills slot 0 with row 5.
        assert!(r.remove(&t(&[0, 0])));
        assert_eq!(r.cached_indexes(), 2);
        let hits = r.matches(0b01, &[Value::from(5)]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0][1], Value::from(50));
        assert_eq!(r.matches(0b11, &[Value::from(5), Value::from(50)]).len(), 1);
        // Every remaining tuple is still findable through the index.
        for i in 1..6i64 {
            assert_eq!(r.matches(0b01, &[Value::from(i)]).len(), 1, "probe {i}");
        }
        assert_eq!(r.matches(0b01, &[Value::from(0)]).len(), 0);
    }

    /// Interleaved inserts and removes keep index probes identical to full
    /// scans, including duplicate-key buckets.
    #[test]
    fn interleaved_mutation_keeps_indexes_consistent() {
        let mut r = Relation::new(2);
        // Touch the index early so every later mutation maintains it.
        let _ = r.matches(0b01, &[Value::from(0)]);
        let ops: &[(bool, i64, i64)] = &[
            (true, 1, 1),
            (true, 1, 2),
            (true, 2, 1),
            (false, 1, 1),
            (true, 3, 3),
            (false, 2, 1),
            (true, 1, 1),
            (false, 1, 2),
            (false, 3, 3),
        ];
        for &(insert, a, b) in ops {
            if insert {
                r.insert(t(&[a, b])).unwrap();
            } else {
                r.remove(&t(&[a, b]));
            }
            for probe in 0..4i64 {
                let via_index = r.matches(0b01, &[Value::from(probe)]);
                let via_scan: Vec<_> = r.iter().filter(|tu| tu[0] == Value::from(probe)).collect();
                assert_eq!(
                    via_index.len(),
                    via_scan.len(),
                    "probe {probe} after {ops:?}"
                );
            }
        }
        assert_eq!(r.cached_indexes(), 1);
    }

    #[test]
    fn clone_preserves_tuples_not_caches() {
        let mut r = Relation::new(1);
        r.insert(t(&[7])).unwrap();
        let _ = r.matches(0b1, &[Value::from(7)]);
        assert_eq!(r.cached_indexes(), 1);
        let c = r.clone();
        assert_eq!(c.cached_indexes(), 0);
        assert_eq!(c.len(), 1);
        assert_eq!(r, c);
    }

    /// Regression: masks are 64-bit, so columns ≥ 32 index without
    /// aliasing (a u32 mask would have collided `1 << 35` into low bits),
    /// and arities beyond [`MAX_ARITY`] are rejected recoverably rather
    /// than corrupting index slots.
    #[test]
    fn wide_arities_index_high_columns_without_aliasing() {
        let mut r = Relation::try_new(40).unwrap();
        // Two tuples differing only in column 35.
        let mut a: Vec<Value> = (0..40i64).map(Value::from).collect();
        let mut b = a.clone();
        a[35] = Value::from(1000);
        b[35] = Value::from(2000);
        r.insert(a.clone().into()).unwrap();
        r.insert(b.into()).unwrap();
        let mask: ColMask = 1 << 35;
        let hits = r.matches(mask, &[Value::from(1000)]);
        assert_eq!(hits.len(), 1, "column 35 must discriminate");
        assert_eq!(hits[0][35], Value::from(1000));
        // The widest supported arity works end to end…
        let mut widest = Relation::try_new(MAX_ARITY).unwrap();
        let t: Vec<Value> = (0..MAX_ARITY as i64).map(Value::from).collect();
        widest.insert(t.into()).unwrap();
        let top: ColMask = 1 << (MAX_ARITY - 1);
        assert_eq!(
            widest
                .matches(top, &[Value::from(MAX_ARITY as i64 - 1)])
                .len(),
            1
        );
        // …and one past it is a recoverable error, not a panic.
        assert!(matches!(
            Relation::try_new(MAX_ARITY + 1),
            Err(crate::DatalogError::UnsupportedArity { arity: 65, max: 64 })
        ));
    }

    /// The database entry points surface the arity bound as an error too.
    #[test]
    fn database_rejects_oversized_arity_recoverably() {
        let mut db = crate::Database::new();
        assert!(matches!(
            db.declare("wide", MAX_ARITY + 3),
            Err(crate::DatalogError::UnsupportedArity { .. })
        ));
        let tuple: Tuple = (0..(MAX_ARITY as i64 + 1)).map(Value::from).collect();
        assert!(matches!(
            db.insert_tuple(crate::Symbol::intern("wide2"), tuple),
            Err(crate::DatalogError::UnsupportedArity { .. })
        ));
        // A failed insert must not leave a half-created relation behind.
        assert!(db.relation("wide2").is_none());
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut a = Relation::new(1);
        let mut b = Relation::new(1);
        a.insert(t(&[1])).unwrap();
        a.insert(t(&[2])).unwrap();
        b.insert(t(&[2])).unwrap();
        b.insert(t(&[1])).unwrap();
        assert_eq!(a, b);
    }

    /// The arena is the single canonical copy: exactly `len * arity` value
    /// ids are stored, through inserts, duplicate inserts and removals —
    /// the membership structure keys rows by hash and holds row ids only
    /// (the double-storage `HashMap<Tuple, id>` of the old layout is gone).
    #[test]
    fn one_canonical_copy_per_tuple() {
        let mut r = Relation::new(3);
        for i in 0..50i64 {
            assert!(r.insert(t(&[i, i * 2, i % 7])).unwrap());
            assert!(!r.insert(t(&[i, i * 2, i % 7])).unwrap(), "dup rejected");
            assert_eq!(r.arena_slots(), r.len() * r.arity());
        }
        // Build an index, then mutate: the invariant must survive in-place
        // index maintenance and swap-fill removals.
        assert_eq!(r.matches(0b100, &[Value::from(3)]).len(), 7);
        for i in (0..50i64).step_by(3) {
            assert!(r.remove(&t(&[i, i * 2, i % 7])));
            assert_eq!(r.arena_slots(), r.len() * r.arity());
        }
        assert_eq!(r.len(), 33);
        assert_eq!(r.arena_slots(), 33 * 3);
    }

    /// Column export round-trips through the value plane: the dump names
    /// values (not ids), each distinct value exactly once, and reloading
    /// re-interns + remaps so the rebuilt relation equals the original even
    /// when the destination interner assigned different ids.
    #[test]
    fn column_export_round_trips() {
        let mut r = Relation::new(2);
        r.insert(vec![Value::from("col-export-a"), Value::from(1)].into())
            .unwrap();
        r.insert(vec![Value::from("col-export-b"), Value::from(1)].into())
            .unwrap();
        r.insert(vec![Value::from("col-export-a"), Value::from(2)].into())
            .unwrap();
        let dump = r.export_columns();
        assert_eq!(dump.rows, 3);
        assert_eq!(dump.cells.len(), 6);
        // Distinct values only: a, 1, b, 2 — in first-use order.
        assert_eq!(dump.values.len(), 4);
        assert_eq!(dump.values[0], Value::from("col-export-a"));
        assert_eq!(dump.values[1], Value::from(1));
        // Skew the interner between dump and load; remap must absorb it.
        for i in 0..32 {
            ValueId::intern(&Value::from(format!("col-export-skew-{i}")));
        }
        let back = dump.into_relation().unwrap();
        assert_eq!(back, r);
    }

    /// Malformed dumps fail recoverably, never panic.
    #[test]
    fn column_export_rejects_corruption() {
        let mut r = Relation::new(1);
        r.insert(t(&[9])).unwrap();
        let mut dump = r.export_columns();
        dump.cells[0] = 99; // out of range
        assert!(matches!(
            dump.into_relation(),
            Err(crate::DatalogError::CorruptExport(_))
        ));
        let mut dump2 = r.export_columns();
        dump2.rows = 7; // cells.len() no longer rows * arity
        assert!(matches!(
            dump2.into_relation(),
            Err(crate::DatalogError::CorruptExport(_))
        ));
        // Nullary relations round-trip via the explicit row count.
        let mut n = Relation::new(0);
        n.insert(t(&[])).unwrap();
        let nd = n.export_columns();
        assert_eq!((nd.rows, nd.cells.len()), (1, 0));
        assert_eq!(nd.into_relation().unwrap().len(), 1);
    }

    /// Nullary relations (zero columns) hold at most the empty tuple and
    /// survive the arena layout (no division by arity anywhere).
    #[test]
    fn nullary_relation_works() {
        let mut r = Relation::new(0);
        assert!(r.insert(t(&[])).unwrap());
        assert!(!r.insert(t(&[])).unwrap());
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
        assert_eq!(r.iter().count(), 1);
        assert_eq!(r.matches(0, &[]).len(), 1);
        assert!(r.remove(&[]));
        assert!(r.is_empty());
    }
}

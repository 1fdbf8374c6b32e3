//! Interned fragment handles.
//!
//! The seed implementation keyed every index structure on
//! [`FragmentId`] = `Vec<Value>`, so each posting, graph node and top-k
//! candidate carried (and cloned) multi-value vectors on the hot path.
//! The [`FragmentCatalog`] assigns each crawled fragment a dense
//! [`Frag`] handle (`u32`) once, at build/maintenance time; everything
//! downstream — inverted lists, graph columns, search candidates — is
//! handle-native and resolves back to identifiers only at the output
//! boundary. Dense handles also index straight into columnar arrays
//! (weights, node positions), which is what makes the fragment graph's
//! `locate` O(1) and keeps the index layout shard- and mmap-friendly.
//!
//! The identifiers themselves are columns too: a group handle per
//! fragment into keys interned once per equality group, plus one range
//! value column (see [`FragmentCatalog`]). The catalog is the one owner
//! of every fragment fact — identifier, group key, key order, weight —
//! and the graph and the inverted lists hold only handles into it.

use std::cmp::Ordering;
use std::sync::OnceLock;

use dash_relation::Value;

use crate::error::CoreError;
use crate::fragment::{Fragment, FragmentId};
use crate::Result;

/// A dense interned fragment handle. `Frag(i)` indexes the catalog's
/// columns directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frag(pub u32);

impl Frag {
    /// The handle as a column index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A dense equality-group handle: the index of the group's key in the
/// catalog, in first-seen order. It is stable for the catalog's
/// lifetime — a group that maintenance empties keeps its handle, its
/// key and its rank — and it indexes the graph's range-sorted runs
/// directly. Its position in key order is its *rank*
/// ([`FragmentCatalog::group_rank`]), the top-k heap's tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl GroupId {
    /// The handle as a column index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A dense interned keyword handle (see
/// [`KeywordInterner`](crate::index::inverted::KeywordInterner)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Kw(pub u32);

impl Kw {
    /// The handle as a column index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The fragment interner: identifier ⇄ handle, plus the per-fragment
/// columns every layer shares (total keywords = node weight, record
/// count).
///
/// Handles are append-only: removing a fragment from the *index*
/// leaves its handle interned (a tombstone), so handles held anywhere
/// stay valid; re-adding the same identifier re-uses its handle and
/// refreshes the columns.
///
/// Identifiers are held as **columns**, not as one `Vec<Value>` each
/// (the column-store layout of Stonebraker et al., C-Store, VLDB
/// 2005). An identifier `⟨v1 … vm⟩` is its equality-group key — the
/// values at every position but the range position — plus its range
/// value:
///
/// * `keys` interns each group key once (a shard holds thousands of
///   groups, not hundreds of thousands of fragments), and `group_of`
///   gives every handle its 4-byte [`GroupId`], the key's index;
/// * `range` is one `Value` column, absent when the application has no
///   range attribute.
///
/// [`FragmentCatalog::cmp_ids`] and [`FragmentCatalog::frag`] compare
/// an identifier as three borrowed slices — the key before the range
/// position, the range value, the key after it — so they order exactly
/// as [`FragmentId`]'s `Ord` does and allocate nothing. An owned
/// [`FragmentId`] is built only at the output boundary
/// ([`FragmentCatalog::id`]: search hits and shard dumps); the image
/// writer and the graph read single values through
/// [`FragmentCatalog::values`] and [`FragmentCatalog::value_at`].
///
/// The identifier → handle direction is `order`, the handles sorted by
/// identifier (4 bytes a handle), searched by bisection — no hash map
/// holding a second copy of every identifier.
#[derive(Debug, Clone, Default)]
pub struct FragmentCatalog {
    /// Position of the range value within identifiers (`None`: every
    /// value is part of the group key).
    range_position: Option<usize>,
    /// Every group key ever interned, once each, in first-seen order:
    /// `keys[g]` is the key of [`GroupId`] `g`.
    keys: Vec<Vec<Value>>,
    /// Every group, sorted by key: a group's rank is its position here.
    /// Interning a key bisects it — an append when keys arrive in
    /// ascending order, as a bulk build of identifier-sorted input with
    /// the range value last delivers them; a new key out of order is an
    /// O(groups) insert that also moves every later key up one rank.
    key_order: Vec<u32>,
    /// Per group: its rank, the inverse of `key_order`.
    key_rank: Vec<u32>,
    /// Per handle: its group.
    group_of: Vec<u32>,
    /// Per handle: its range value (empty without a range position).
    range: Vec<Value>,
    /// Every handle, in ascending identifier order ([`cmp_ids`] order):
    /// `frag(id)` bisects it. A bulk build of identifier-sorted input
    /// interns in that order, so the column comes out as the identity
    /// permutation, appended in O(n). Lazily derived (`OnceLock`) on the
    /// arena-image load path, which only ever *searches* until the
    /// first delta arrives; `intern`/`frag` force it on first use.
    ///
    /// [`cmp_ids`]: FragmentCatalog::cmp_ids
    order: OnceLock<Vec<Frag>>,
    total_keywords: Vec<u64>,
    record_counts: Vec<u64>,
}

impl FragmentCatalog {
    /// An empty catalog for identifiers whose range value sits at
    /// `range_position`.
    pub fn new(range_position: Option<usize>) -> Self {
        FragmentCatalog {
            range_position,
            ..Self::default()
        }
    }

    /// An empty catalog with room for `count` handles, its handle-order
    /// column derived (empty) or deferred, its per-handle `u64` columns
    /// sized for `columns` handles.
    fn with_capacity(
        range_position: Option<usize>,
        count: usize,
        order: OnceLock<Vec<Frag>>,
        columns: usize,
    ) -> Self {
        FragmentCatalog {
            range_position,
            keys: Vec::new(),
            key_order: Vec::new(),
            key_rank: Vec::new(),
            group_of: Vec::with_capacity(count),
            range: Vec::with_capacity(if range_position.is_some() { count } else { 0 }),
            order,
            total_keywords: Vec::with_capacity(columns),
            record_counts: Vec::with_capacity(columns),
        }
    }

    /// Interns every fragment, in order — when `fragments` is sorted by
    /// identifier (crawls produce sorted output), handle order equals
    /// identifier order.
    ///
    /// # Errors
    ///
    /// [`CoreError::IdentifierArity`] when an identifier holds no value
    /// at `range_position`.
    pub fn from_fragments(fragments: &[Fragment], range_position: Option<usize>) -> Result<Self> {
        let refs: Vec<&Fragment> = fragments.iter().collect();
        Self::from_refs(&refs, range_position)
    }

    /// [`FragmentCatalog::from_fragments`] over borrowed fragments — the
    /// zero-copy build path the sharded partition uses (shard parts are
    /// reference runs into one crawl output, never clones).
    ///
    /// # Errors
    ///
    /// Same as [`FragmentCatalog::from_fragments`].
    pub fn from_refs(fragments: &[&Fragment], range_position: Option<usize>) -> Result<Self> {
        let mut catalog = Self::with_capacity(
            range_position,
            fragments.len(),
            OnceLock::from(Vec::with_capacity(fragments.len())),
            fragments.len(),
        );
        catalog.check_arity(fragments.iter().map(|f| &f.id))?;
        for f in fragments {
            catalog.intern(f);
        }
        Ok(catalog)
    }

    /// Checks that every identifier holds a value at the range position
    /// — the one shape the columns cannot represent otherwise.
    ///
    /// # Errors
    ///
    /// [`CoreError::IdentifierArity`] for the first identifier too
    /// short, naming the least arity that has a range value.
    pub(crate) fn check_arity<'a>(
        &self,
        ids: impl IntoIterator<Item = &'a FragmentId>,
    ) -> Result<()> {
        let Some(pos) = self.range_position else {
            return Ok(());
        };
        match ids.into_iter().find(|id| id.values().len() <= pos) {
            Some(id) => Err(CoreError::IdentifierArity {
                id: id.to_string(),
                arity: id.values().len(),
                expected: pos + 1,
            }),
            None => Ok(()),
        }
    }

    /// The handles in identifier order, derived on first use: O(n)
    /// when handle order already is identifier order (every bulk
    /// build), one sort otherwise.
    fn order(&self) -> &[Frag] {
        self.order.get_or_init(|| {
            let mut order: Vec<Frag> = (0..self.len() as u32).map(Frag).collect();
            if !order.is_sorted_by(|&a, &b| self.cmp_ids(a, b).is_le()) {
                order.sort_unstable_by(|&a, &b| self.cmp_ids(a, b));
            }
            order
        })
    }

    /// Interns one fragment, refreshing its columns if already known.
    ///
    /// # Panics
    ///
    /// When the identifier holds no value at the range position
    /// ([`FragmentIndex::apply`](crate::index::FragmentIndex::apply)
    /// and the bulk builds check that before anything changes).
    pub fn intern(&mut self, fragment: &Fragment) -> Frag {
        let id = &fragment.id;
        // An identifier above every interned one appends (the bulk
        // build's case: one comparison); any other is bisected.
        let order = self.order();
        let at = match order.last() {
            Some(&last) if self.cmp_to_id(last, id).is_ge() => {
                match order.binary_search_by(|&h| self.cmp_to_id(h, id)) {
                    Ok(found) => {
                        let frag = order[found];
                        self.refresh(frag, fragment);
                        return frag;
                    }
                    Err(at) => at,
                }
            }
            _ => order.len(),
        };
        let frag = self.push(id.values());
        self.total_keywords.push(fragment.total_keywords);
        self.record_counts.push(fragment.record_count);
        self.order
            .get_mut()
            .expect("order derived above")
            .insert(at, frag);
        frag
    }

    /// Refreshes an interned handle's per-handle columns from a
    /// recomputation of its fragment (same identifier).
    pub(crate) fn refresh(&mut self, frag: Frag, fragment: &Fragment) {
        self.total_keywords[frag.index()] = fragment.total_keywords;
        self.record_counts[frag.index()] = fragment.record_count;
    }

    /// Appends one identifier at the next handle: its range value, and
    /// its group key interned (allocated only the first time the key is
    /// seen). The caller fills the per-handle `u64` columns.
    fn push(&mut self, values: &[Value]) -> Frag {
        let frag = Frag(u32::try_from(self.len()).expect("more than u32::MAX fragments"));
        if let Some(pos) = self.range_position {
            self.range.push(values[pos].clone());
        }
        let (head, tail) = key_parts(values, self.range_position);
        let group = self.intern_key(head, tail);
        self.group_of.push(group);
        frag
    }

    /// The rank of the group key `head ++ tail`, or the rank it would
    /// take: one comparison against the highest key when keys arrive in
    /// order, a bisection of `key_order` otherwise.
    fn rank_of_key(&self, head: &[Value], tail: &[Value]) -> std::result::Result<usize, usize> {
        let cmp = |&g: &u32| self.keys[g as usize].iter().cmp(head.iter().chain(tail));
        match self.key_order.last().map(cmp) {
            None => Err(0),
            Some(Ordering::Equal) => Ok(self.key_order.len() - 1),
            Some(Ordering::Less) => Err(self.key_order.len()),
            Some(Ordering::Greater) => self.key_order.binary_search_by(cmp),
        }
    }

    /// The group of the key `head ++ tail`, interning the key if new.
    fn intern_key(&mut self, head: &[Value], tail: &[Value]) -> u32 {
        let at = match self.rank_of_key(head, tail) {
            Ok(rank) => return self.key_order[rank],
            Err(at) => at,
        };
        let group = u32::try_from(self.keys.len()).expect("more than u32::MAX group keys");
        self.keys.push(head.iter().chain(tail).cloned().collect());
        self.key_order.insert(at, group);
        self.key_rank.push(at as u32);
        for &later in &self.key_order[at + 1..] {
            self.key_rank[later as usize] += 1;
        }
        group
    }

    /// The handle of an identifier, if interned — a bisection of the
    /// identifier-ordered handle column.
    #[inline]
    pub fn frag(&self, id: &FragmentId) -> Option<Frag> {
        let order = self.order();
        order
            .binary_search_by(|&h| self.cmp_to_id(h, id))
            .ok()
            .map(|at| order[at])
    }

    /// The identifier behind a handle, assembled from the columns — an
    /// owned value for the output boundary (search hits, shard dumps).
    pub fn id(&self, frag: Frag) -> FragmentId {
        FragmentId::new(self.values(frag).cloned().collect())
    }

    /// The identifier behind a handle as a borrowed view of its values,
    /// in identifier order.
    #[inline]
    pub fn values(&self, frag: Frag) -> impl Iterator<Item = &Value> {
        let key = self.key(frag);
        let split = self.range_position.unwrap_or(key.len());
        let (head, tail) = key.split_at(split);
        head.iter().chain(self.range.get(frag.index())).chain(tail)
    }

    /// The value at position `pos` of a handle's identifier.
    ///
    /// # Panics
    ///
    /// When `pos` is past the identifier's end.
    #[inline]
    pub fn value_at(&self, frag: Frag, pos: usize) -> &Value {
        let key = self.key(frag);
        match self.range_position {
            Some(range) if pos == range => &self.range[frag.index()],
            Some(range) if pos > range => &key[pos - 1],
            _ => &key[pos],
        }
    }

    /// The handle's equality-group key: its identifier without the
    /// range value.
    #[inline]
    pub fn key(&self, frag: Frag) -> &[Value] {
        self.group_key(self.group(frag))
    }

    /// The handle's equality group: equal groups, equal keys.
    #[inline]
    pub fn group(&self, frag: Frag) -> GroupId {
        GroupId(self.group_of[frag.index()])
    }

    /// A group's key.
    #[inline]
    pub fn group_key(&self, group: GroupId) -> &[Value] {
        &self.keys[group.index()]
    }

    /// A group's rank: its key's position in key order.
    #[inline]
    pub fn group_rank(&self, group: GroupId) -> u32 {
        self.key_rank[group.index()]
    }

    /// The group at a rank ([`FragmentCatalog::group_rank`]'s inverse).
    #[inline]
    pub fn group_at_rank(&self, rank: u32) -> GroupId {
        GroupId(self.key_order[rank as usize])
    }

    /// The group holding a key, if it was ever interned — a bisection
    /// of the key order.
    pub fn group_by_key(&self, key: &[Value]) -> Option<GroupId> {
        let rank = self.rank_of_key(key, &[]).ok()?;
        Some(self.group_at_rank(rank as u32))
    }

    /// The group an identifier belongs to, if its key was ever
    /// interned (the identifier itself need not be) — a bisection of
    /// the key order.
    pub(crate) fn group_of_id(&self, id: &FragmentId) -> Option<GroupId> {
        let (head, tail) = key_parts(id.values(), self.range_position);
        let rank = self.rank_of_key(head, tail).ok()?;
        Some(self.group_at_rank(rank as u32))
    }

    /// Number of group keys interned, groups that maintenance emptied
    /// included: every rank below it names a group.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// The number of values in a handle's identifier.
    pub fn arity(&self, frag: Frag) -> usize {
        self.key(frag).len() + usize::from(self.range_position.is_some())
    }

    /// The range value's position within identifiers.
    pub fn range_position(&self) -> Option<usize> {
        self.range_position
    }

    /// The fragment's total keyword count (its graph node weight).
    #[inline]
    pub fn total_keywords(&self, frag: Frag) -> u64 {
        self.total_keywords[frag.index()]
    }

    /// The fragment's joined-record count.
    #[inline]
    pub fn record_count(&self, frag: Frag) -> u64 {
        self.record_counts[frag.index()]
    }

    /// Number of interned handles (tombstones included).
    pub fn len(&self) -> usize {
        self.group_of.len()
    }

    /// Whether nothing was ever interned.
    pub fn is_empty(&self) -> bool {
        self.group_of.is_empty()
    }

    /// Compares two handles by their *identifiers* — the order every
    /// deterministic tie-break uses, equal to [`FragmentId`]'s `Ord`.
    /// Equals numeric handle order while interning happened in
    /// identifier order.
    #[inline]
    pub fn cmp_ids(&self, a: Frag, b: Frag) -> Ordering {
        let (key_a, key_b) = (self.key(a), self.key(b));
        match self.range_position {
            // One key: the identifiers differ at most in the range value.
            Some(_) if self.group_of[a.index()] == self.group_of[b.index()] => {
                self.range[a.index()].cmp(&self.range[b.index()])
            }
            // Lexicographic over `head ++ [range] ++ tail` on both sides,
            // as three slice comparisons.
            Some(pos) => key_a[..pos]
                .cmp(&key_b[..pos])
                .then_with(|| self.range[a.index()].cmp(&self.range[b.index()]))
                .then_with(|| key_a[pos..].cmp(&key_b[pos..])),
            None => key_a.cmp(key_b),
        }
    }

    /// Compares a handle's identifier with `id`, lexicographically.
    #[inline]
    pub(crate) fn cmp_to_id(&self, frag: Frag, id: &FragmentId) -> Ordering {
        let (key, values) = (self.key(frag), id.values());
        match self.range_position {
            Some(pos) if values.len() > pos => key[..pos]
                .cmp(&values[..pos])
                .then_with(|| self.range[frag.index()].cmp(&values[pos]))
                .then_with(|| key[pos..].cmp(&values[pos + 1..])),
            // `id` stops before the range position: no value to split at.
            Some(_) => self.values(frag).cmp(values),
            None => key.cmp(values),
        }
    }

    /// Heap bytes behind the identifiers (the group keys with their
    /// values and strings, the key order and its inverse, the
    /// per-handle group and range columns with the range strings), the
    /// handle-order column (0 until derived) and the two per-handle
    /// columns — capacities, not lengths.
    pub(crate) fn heap_bytes(&self) -> (usize, usize, usize) {
        let keys = self.keys.capacity() * size_of::<Vec<Value>>()
            + self.keys.iter().map(values_heap_bytes).sum::<usize>()
            + (self.key_order.capacity() + self.key_rank.capacity()) * size_of::<u32>();
        let ids =
            keys + self.group_of.capacity() * size_of::<u32>() + values_heap_bytes(&self.range);
        let order = self
            .order
            .get()
            .map_or(0, |order| order.capacity() * size_of::<Frag>());
        let columns =
            (self.total_keywords.capacity() + self.record_counts.capacity()) * size_of::<u64>();
        (ids, order, columns)
    }

    /// The two per-handle `u64` columns in handle order — with
    /// [`FragmentCatalog::values`] per handle, the arena-image dump
    /// view (`persist`). The key order, its inverse and the
    /// handle-order column are derived state and not part of the image.
    pub(crate) fn image_columns(&self) -> (&[u64], &[u64]) {
        (&self.total_keywords, &self.record_counts)
    }

    /// An empty catalog for the arena-image load path, with room for
    /// `count` handles. The handle-order column is NOT derived: searches
    /// never consult it, so a loaded shard defers it until the first
    /// `intern`/`frag` call (the first applied delta).
    pub(crate) fn for_image(range_position: Option<usize>, count: usize) -> Self {
        Self::with_capacity(range_position, count, OnceLock::new(), 0)
    }

    /// Appends one dumped identifier at the next handle, decoded
    /// straight into the columns. Returns `false`, appending nothing,
    /// when it holds no value at the range position.
    pub(crate) fn push_image_id(&mut self, values: &[Value]) -> bool {
        if self.range_position.is_some_and(|pos| values.len() <= pos) {
            return false;
        }
        self.push(values);
        true
    }

    /// Sets the dumped per-handle columns once every identifier is
    /// pushed; both must hold one entry per handle.
    pub(crate) fn set_image_columns(&mut self, total_keywords: Vec<u64>, record_counts: Vec<u64>) {
        debug_assert_eq!(total_keywords.len(), self.len());
        debug_assert_eq!(record_counts.len(), self.len());
        self.total_keywords = total_keywords;
        self.record_counts = record_counts;
    }
}

/// The equality-group key of an identifier's values: every value but
/// the one at the range position, as the runs before and after it (the
/// whole identifier, when there is no range position or the identifier
/// stops before it). This one derivation defines group membership
/// everywhere — the catalog's interning, the sharded engine's routing
/// and partition, and the serving layer's invalidation signatures —
/// so shard rank offsets match global group ranks and no stale cached
/// page survives a delta.
pub fn key_parts(values: &[Value], range_position: Option<usize>) -> (&[Value], &[Value]) {
    match range_position {
        Some(pos) if pos < values.len() => (&values[..pos], &values[pos + 1..]),
        _ => (values, &[]),
    }
}

/// Heap bytes a value vector owns: its buffer and its strings.
pub(crate) fn values_heap_bytes(values: &Vec<Value>) -> usize {
    values.capacity() * size_of::<Value>()
        + values
            .iter()
            .map(|v| match v {
                Value::Str(s) => s.capacity(),
                _ => 0,
            })
            .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_relation::Value;
    use std::collections::BTreeMap;

    fn fragment(cuisine: &str, budget: i64, total: u64) -> Fragment {
        let mut occ = BTreeMap::new();
        occ.insert("w".to_string(), total);
        Fragment::new(
            FragmentId::new(vec![Value::str(cuisine), Value::Int(budget)]),
            occ,
            total,
        )
    }

    #[test]
    fn roundtrip_id_handle_id() {
        let fragments = vec![
            fragment("American", 9, 8),
            fragment("American", 10, 8),
            fragment("Thai", 10, 10),
        ];
        let catalog = FragmentCatalog::from_fragments(&fragments, Some(1)).unwrap();
        assert_eq!(catalog.len(), 3);
        for f in &fragments {
            let h = catalog.frag(&f.id).expect("interned");
            assert_eq!(catalog.id(h), f.id);
            assert_eq!(catalog.total_keywords(h), f.total_keywords);
            assert_eq!(catalog.record_count(h), f.record_count);
        }
        assert_eq!(
            catalog.frag(&FragmentId::new(vec![Value::str("Nope"), Value::Int(1)])),
            None
        );
    }

    #[test]
    fn handles_are_dense_and_ordered_for_sorted_input() {
        let fragments = vec![
            fragment("American", 9, 8),
            fragment("American", 10, 8),
            fragment("Thai", 10, 10),
        ];
        let catalog = FragmentCatalog::from_fragments(&fragments, Some(1)).unwrap();
        for (i, f) in fragments.iter().enumerate() {
            assert_eq!(catalog.frag(&f.id), Some(Frag(i as u32)));
        }
        assert_eq!(catalog.cmp_ids(Frag(0), Frag(2)), std::cmp::Ordering::Less);
    }

    #[test]
    fn out_of_order_interning_keeps_every_lookup_exact() {
        // Handles are issued in arrival order; the handle-order column
        // stays sorted by identifier, so every lookup bisects.
        let mut catalog = FragmentCatalog::new(Some(1));
        let arrivals = [("Thai", 10), ("American", 9), ("Udon", 1), ("American", 12)];
        let fragments: Vec<Fragment> = arrivals.iter().map(|&(c, b)| fragment(c, b, 5)).collect();
        for (i, f) in fragments.iter().enumerate() {
            assert_eq!(catalog.intern(f), Frag(i as u32));
        }
        for (i, f) in fragments.iter().enumerate() {
            assert_eq!(catalog.frag(&f.id), Some(Frag(i as u32)));
        }
        assert_eq!(catalog.order(), &[Frag(1), Frag(3), Frag(0), Frag(2)]);
        assert_eq!(catalog.frag(&fragment("Korean", 1, 1).id), None);
        // Groups are numbered in first-seen order and ranked in key
        // order: Thai is group 0 at rank 1.
        let ranks = |catalog: &FragmentCatalog| -> Vec<u32> {
            (0..catalog.key_count() as u32)
                .map(|g| catalog.group_rank(GroupId(g)))
                .collect()
        };
        assert_eq!(ranks(&catalog), [1, 0, 2]);
        assert_eq!(catalog.group(Frag(3)), GroupId(1));
        // A duplicate refreshes its columns in place.
        assert_eq!(catalog.intern(&fragment("Udon", 1, 9)), Frag(2));
        assert_eq!(catalog.total_keywords(Frag(2)), 9);
        assert_eq!(catalog.len(), 4);
    }

    #[test]
    fn image_catalog_derives_its_handle_order_on_first_lookup() {
        let fragments = [fragment("Thai", 10, 3), fragment("American", 9, 4)];
        let mut catalog = FragmentCatalog::for_image(Some(1), fragments.len());
        for f in &fragments {
            assert!(catalog.push_image_id(f.id.values()));
        }
        assert!(
            !catalog.push_image_id(&[Value::str("Lao")]),
            "no range value"
        );
        catalog.set_image_columns(vec![3, 4], vec![1, 1]);
        assert_eq!(catalog.heap_bytes().1, 0, "not derived at load");
        assert_eq!(catalog.frag(&fragments[1].id), Some(Frag(1)));
        assert_eq!(catalog.heap_bytes().1, 4 * catalog.len());
        assert_eq!(catalog.order(), &[Frag(1), Frag(0)]);
        assert_eq!(catalog.total_keywords(Frag(1)), 4);
        // A bulk build of sorted input is the identity, 4 bytes a handle.
        let sorted = FragmentCatalog::from_fragments(
            &[
                fragment("American", 9, 4),
                fragment("American", 10, 4),
                fragment("Thai", 10, 3),
            ],
            Some(1),
        )
        .unwrap();
        assert_eq!(sorted.order(), &[Frag(0), Frag(1), Frag(2)]);
        assert_eq!(sorted.heap_bytes().1, 4 * 3);
    }

    #[test]
    fn one_key_per_group_and_one_range_column() {
        let fragments = [
            fragment("American", 9, 4),
            fragment("American", 10, 4),
            fragment("Thai", 10, 3),
        ];
        let catalog = FragmentCatalog::from_fragments(&fragments, Some(1)).unwrap();
        assert_eq!(
            catalog.keys,
            vec![vec![Value::str("American")], vec![Value::str("Thai")]]
        );
        assert_eq!(catalog.group_of, vec![0, 0, 1]);
        assert_eq!(catalog.key(Frag(1)), &[Value::str("American")]);
        assert_eq!(catalog.value_at(Frag(2), 0), &Value::str("Thai"));
        assert_eq!(catalog.value_at(Frag(2), 1), &Value::Int(10));
        assert_eq!(catalog.arity(Frag(0)), 2);
        // Without a range position the whole identifier is the key.
        let keyed = FragmentCatalog::from_fragments(&fragments, None).unwrap();
        assert_eq!(keyed.keys.len(), 3);
        assert!(keyed.range.is_empty());
        assert_eq!(keyed.id(Frag(2)), fragments[2].id);
        // An identifier without a range value is a typed error.
        let short = Fragment::new(FragmentId::new(vec![Value::str("Lao")]), BTreeMap::new(), 1);
        assert_eq!(
            FragmentCatalog::from_fragments(&[short], Some(1)).unwrap_err(),
            CoreError::IdentifierArity {
                id: "(Lao)".to_string(),
                arity: 1,
                expected: 2,
            }
        );
    }

    #[test]
    fn reintern_refreshes_columns_and_keeps_handle() {
        let mut catalog = FragmentCatalog::new(Some(1));
        let first = fragment("American", 9, 8);
        let h = catalog.intern(&first);
        let updated = fragment("American", 9, 13);
        assert_eq!(catalog.intern(&updated), h);
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog.total_keywords(h), 13);
    }
}

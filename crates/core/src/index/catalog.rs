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

use std::sync::OnceLock;

use dash_relation::Value;

use crate::fragment::{Fragment, FragmentId};

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
/// Each identifier is held once, in `ids`. The identifier → handle
/// direction is `order`, the handles sorted by identifier (4 bytes a
/// handle), searched by bisection — no hash map holding a second clone
/// of every identifier.
#[derive(Debug, Clone, Default)]
pub struct FragmentCatalog {
    ids: Vec<FragmentId>,
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
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns every fragment, in order — when `fragments` is sorted by
    /// identifier (crawls produce sorted output), handle order equals
    /// identifier order.
    pub fn from_fragments(fragments: &[Fragment]) -> Self {
        let refs: Vec<&Fragment> = fragments.iter().collect();
        Self::from_refs(&refs)
    }

    /// [`FragmentCatalog::from_fragments`] over borrowed fragments — the
    /// zero-copy build path the sharded partition uses (shard parts are
    /// reference runs into one crawl output, never clones).
    pub fn from_refs(fragments: &[&Fragment]) -> Self {
        let mut catalog = FragmentCatalog {
            ids: Vec::with_capacity(fragments.len()),
            order: OnceLock::from(Vec::with_capacity(fragments.len())),
            total_keywords: Vec::with_capacity(fragments.len()),
            record_counts: Vec::with_capacity(fragments.len()),
        };
        for f in fragments {
            catalog.intern(f);
        }
        catalog
    }

    /// The handles in identifier order, derived from `ids` on first
    /// use: O(n) when handle order already is identifier order (every
    /// bulk build), one sort otherwise.
    fn order(&self) -> &[Frag] {
        self.order.get_or_init(|| {
            let mut order: Vec<Frag> = (0..self.ids.len() as u32).map(Frag).collect();
            if !self.ids.is_sorted() {
                order.sort_unstable_by(|&a, &b| self.cmp_ids(a, b));
            }
            order
        })
    }

    /// Interns one fragment, refreshing its columns if already known.
    pub fn intern(&mut self, fragment: &Fragment) -> Frag {
        self.order();
        let FragmentCatalog {
            ids,
            order,
            total_keywords,
            record_counts,
        } = self;
        let order = order.get_mut().expect("order initialized above");
        // An identifier above every interned one appends (the bulk
        // build's case: one comparison); any other is bisected.
        let at = match order.last() {
            Some(&last) if ids[last.index()] >= fragment.id => {
                match order.binary_search_by(|&h| ids[h.index()].cmp(&fragment.id)) {
                    Ok(found) => {
                        let frag = order[found];
                        total_keywords[frag.index()] = fragment.total_keywords;
                        record_counts[frag.index()] = fragment.record_count;
                        return frag;
                    }
                    Err(at) => at,
                }
            }
            _ => order.len(),
        };
        let frag = Frag(u32::try_from(ids.len()).expect("more than u32::MAX fragments"));
        ids.push(fragment.id.clone());
        order.insert(at, frag);
        total_keywords.push(fragment.total_keywords);
        record_counts.push(fragment.record_count);
        frag
    }

    /// The handle of an identifier, if interned — a bisection of the
    /// identifier-ordered handle column.
    #[inline]
    pub fn frag(&self, id: &FragmentId) -> Option<Frag> {
        let order = self.order();
        order
            .binary_search_by(|&h| self.ids[h.index()].cmp(id))
            .ok()
            .map(|at| order[at])
    }

    /// The identifier behind a handle.
    #[inline]
    pub fn id(&self, frag: Frag) -> &FragmentId {
        &self.ids[frag.index()]
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
        self.ids.len()
    }

    /// Whether nothing was ever interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Compares two handles by their *identifiers* — the order every
    /// deterministic tie-break uses. Equals numeric handle order while
    /// interning happened in identifier order.
    #[inline]
    pub fn cmp_ids(&self, a: Frag, b: Frag) -> std::cmp::Ordering {
        self.ids[a.index()].cmp(&self.ids[b.index()])
    }

    /// Heap bytes behind the identifiers (`ids`, each identifier's
    /// value vector and string payloads), the handle-order column (0
    /// until derived) and the two per-handle columns — capacities, not
    /// lengths.
    pub(crate) fn heap_bytes(&self) -> (usize, usize, usize) {
        let ids = self.ids.capacity() * size_of::<FragmentId>()
            + self
                .ids
                .iter()
                .map(|id| values_heap_bytes(&id.0))
                .sum::<usize>();
        let order = self
            .order
            .get()
            .map_or(0, |order| order.capacity() * size_of::<Frag>());
        let columns =
            (self.total_keywords.capacity() + self.record_counts.capacity()) * size_of::<u64>();
        (ids, order, columns)
    }

    /// The catalog's columns in handle order — the arena-image dump
    /// view (`persist`). The handle-order column is derived state and
    /// not part of the image.
    pub(crate) fn image_parts(&self) -> (&[FragmentId], &[u64], &[u64]) {
        (&self.ids, &self.total_keywords, &self.record_counts)
    }

    /// Reassembles a catalog from dumped columns — the arena-image load
    /// path. The handle-order column is NOT derived here: searches
    /// never consult it, so a loaded shard defers it until the first
    /// `intern`/`frag` call (the first applied delta). Columns must be
    /// equal-length and in handle order.
    pub(crate) fn from_image_parts(
        ids: Vec<FragmentId>,
        total_keywords: Vec<u64>,
        record_counts: Vec<u64>,
    ) -> Self {
        debug_assert_eq!(ids.len(), total_keywords.len());
        debug_assert_eq!(ids.len(), record_counts.len());
        FragmentCatalog {
            ids,
            order: OnceLock::new(),
            total_keywords,
            record_counts,
        }
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
        let catalog = FragmentCatalog::from_fragments(&fragments);
        assert_eq!(catalog.len(), 3);
        for f in &fragments {
            let h = catalog.frag(&f.id).expect("interned");
            assert_eq!(catalog.id(h), &f.id);
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
        let catalog = FragmentCatalog::from_fragments(&fragments);
        for (i, f) in fragments.iter().enumerate() {
            assert_eq!(catalog.frag(&f.id), Some(Frag(i as u32)));
        }
        assert_eq!(catalog.cmp_ids(Frag(0), Frag(2)), std::cmp::Ordering::Less);
    }

    #[test]
    fn out_of_order_interning_keeps_every_lookup_exact() {
        // Handles are issued in arrival order; the handle-order column
        // stays sorted by identifier, so every lookup bisects.
        let mut catalog = FragmentCatalog::new();
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
        // A duplicate refreshes its columns in place.
        assert_eq!(catalog.intern(&fragment("Udon", 1, 9)), Frag(2));
        assert_eq!(catalog.total_keywords(Frag(2)), 9);
        assert_eq!(catalog.len(), 4);
    }

    #[test]
    fn image_catalog_derives_its_handle_order_on_first_lookup() {
        let fragments = [fragment("Thai", 10, 3), fragment("American", 9, 4)];
        let ids: Vec<FragmentId> = fragments.iter().map(|f| f.id.clone()).collect();
        let catalog = FragmentCatalog::from_image_parts(ids, vec![3, 4], vec![1, 1]);
        assert_eq!(catalog.heap_bytes().1, 0, "not derived at load");
        assert_eq!(catalog.frag(&fragments[1].id), Some(Frag(1)));
        assert_eq!(catalog.heap_bytes().1, 4 * catalog.len());
        assert_eq!(catalog.order(), &[Frag(1), Frag(0)]);
        // A bulk build of sorted input is the identity, 4 bytes a handle.
        let sorted = FragmentCatalog::from_fragments(&[
            fragment("American", 9, 4),
            fragment("American", 10, 4),
            fragment("Thai", 10, 3),
        ]);
        assert_eq!(sorted.order(), &[Frag(0), Frag(1), Frag(2)]);
        assert_eq!(sorted.heap_bytes().1, 4 * 3);
    }

    #[test]
    fn reintern_refreshes_columns_and_keeps_handle() {
        let mut catalog = FragmentCatalog::new();
        let first = fragment("American", 9, 8);
        let h = catalog.intern(&first);
        let updated = fragment("American", 9, 13);
        assert_eq!(catalog.intern(&updated), h);
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog.total_keywords(h), 13);
    }
}

//! The inverted fragment index (Figure 6 of the paper), columnar.
//!
//! Structurally a conventional inverted file with *fragment handles* in
//! place of URLs: for each keyword, the fragments containing it with
//! their occurrence counts, sorted by descending TF. `IDF_w` is
//! approximated as `1 / |L_w|` — the inverse of the number of fragments
//! containing `w` (Section VI).
//!
//! Storage is two contiguous arenas of 8-byte [`Posting`]s — fragment
//! handle and occurrence count, both `u32` — sharing one offset table,
//! indexed by interned [`Kw`] handles:
//!
//! * `tf_arena` — every keyword's posting list sorted by descending TF
//!   (the order the top-k seeding cursor walks), one keyword after the
//!   next;
//! * `probe_arena` — the same postings sorted by fragment handle, so
//!   the occurrence of *any* fragment (an expansion neighbor) is one
//!   binary search away, replacing the seed's per-keyword
//!   `HashMap<FragmentId, u64>` maps and their clone-heavy probes.
//!
//! TF is never stored. It is `occurrences / total_keywords`, with the
//! fragment's total from the catalog, and every reader derives it with
//! the one expression [`Posting::tf`], so the bits — hence the TF sort
//! order, every score and every tie — are the same wherever it is
//! computed. A count above `u32::MAX` is refused with
//! [`CoreError::OccurrenceOverflow`] at build and at delta apply, never
//! truncated.
//!
//! Posting lists never allocate per entry; building sorts each
//! keyword's slice independently (parallelized across lists). The
//! lists sit in the arenas in handle order with no gaps — list `i`
//! starts where list `i − 1` ends — which is what lets maintenance
//! (`InvertedFragmentIndex::locate`, then `InvertedFragmentIndex::splice`,
//! behind [`FragmentIndex::apply`](crate::index::FragmentIndex::apply))
//! splice a delta in place: only the lists the delta touches are
//! edited, and the postings around the edits at most slide to their
//! new offsets.

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;
use std::ops::Range;

use crate::error::CoreError;
use crate::fragment::{Fragment, FragmentId};
use crate::index::catalog::{Frag, FragmentCatalog, Kw};
use crate::index::Add;
use crate::{par, Result};

/// One entry of an inverted list, 8 bytes, in both arenas: the
/// TF-sorted one and the fragment-sorted probe one hold the same
/// postings in two orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// The fragment containing the keyword.
    pub frag: Frag,
    /// Raw occurrence count of the keyword in the fragment — the same
    /// count in both arenas after any build, image load or splice, so a
    /// search seeding from a TF-sorted posting reads its keyword's
    /// count here instead of probing.
    pub occurrences: u32,
}

impl Posting {
    /// The posting's term frequency, `occurrences / total_keywords`
    /// (0 for a keyword-less fragment), where `total_keywords` is the
    /// fragment's catalog total. Not stored: every reader calls this
    /// one expression, so TF bits never differ between the build's
    /// sort, a splice's search and the top-k seeding scan.
    #[inline]
    pub fn tf(self, total_keywords: u64) -> f64 {
        if total_keywords == 0 {
            0.0
        } else {
            f64::from(self.occurrences) / total_keywords as f64
        }
    }
}

/// An occurrence count narrowed to a posting's `u32` — an error,
/// never a truncation, when it does not fit.
fn narrow(keyword: &str, occurrences: u64) -> Result<u32> {
    u32::try_from(occurrences).map_err(|_| CoreError::OccurrenceOverflow {
        keyword: keyword.to_string(),
        occurrences,
    })
}

/// Checks that every occurrence count of `fragments` fits a posting
/// and that each fragment's counts sum to at most its
/// `total_keywords` — the checks a delta passes before any structure
/// changes.
///
/// # Errors
///
/// [`CoreError::OccurrenceOverflow`] for the first count above
/// `u32::MAX`, and [`CoreError::OccurrencesPastTotal`] for the first
/// fragment whose counts sum past its total.
pub(crate) fn check_counts<'a>(fragments: impl IntoIterator<Item = &'a Fragment>) -> Result<()> {
    for fragment in fragments {
        let mut sum = 0u64;
        for (word, &occurrences) in &fragment.keyword_occurrences {
            narrow(word, occurrences)?;
            sum = sum.saturating_add(occurrences);
        }
        check_total(&fragment.id, sum, fragment.total_keywords)?;
    }
    Ok(())
}

/// Checks that a fragment's occurrences, summing to `occurrences`, do
/// not pass its `total_keywords`: no TF may exceed 1.
///
/// # Errors
///
/// [`CoreError::OccurrencesPastTotal`] when they do.
pub(crate) fn check_total(id: &FragmentId, occurrences: u64, total_keywords: u64) -> Result<()> {
    if occurrences > total_keywords {
        return Err(CoreError::OccurrencesPastTotal {
            id: id.to_string(),
            occurrences,
            total_keywords,
        });
    }
    Ok(())
}

/// The keyword interner: keyword string ⇄ dense [`Kw`] handle.
///
/// Each keyword is held once, in `words`. The word → handle direction
/// is an open-addressing table of handles (linear probing, at most half
/// full, 4 bytes a slot) whose every hit is verified against `words` —
/// no map holding a second copy of every word. The table hashes with a
/// per-interner random key (`RandomState`), as `HashMap` does.
#[derive(Debug, Clone, Default)]
pub struct KeywordInterner {
    words: Vec<String>,
    /// Handles by hash slot; [`NO_KW`] marks an empty slot. Empty, or a
    /// power of two at least twice `words.len()`.
    slots: Vec<u32>,
    hasher: RandomState,
}

/// An empty slot of the interner's table.
const NO_KW: u32 = u32::MAX;

impl KeywordInterner {
    /// Interns `word`, returning its stable handle.
    pub fn intern(&mut self, word: &str) -> Kw {
        if let Some(kw) = self.kw(word) {
            return kw;
        }
        let kw = Kw(u32::try_from(self.words.len())
            .ok()
            .filter(|&k| k != NO_KW)
            .expect("more than u32::MAX - 1 keywords"));
        self.words.push(word.to_string());
        if 2 * self.words.len() > self.slots.len() {
            self.rehash();
        } else {
            self.place(kw);
        }
        kw
    }

    /// The handle of `word`, if interned: one hash and a probe run.
    #[inline]
    pub fn kw(&self, word: &str) -> Option<Kw> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(word) as usize & mask;
        loop {
            match self.slots[slot] {
                NO_KW => return None,
                kw if self.words[kw as usize] == word => return Some(Kw(kw)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Puts `kw` in the first empty slot of its probe run.
    fn place(&mut self, kw: Kw) {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(&self.words[kw.index()]) as usize & mask;
        while self.slots[slot] != NO_KW {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = kw.0;
    }

    /// Rebuilds the table from `words`, at the least power of two (16
    /// or more) slots that keeps it at most half full.
    fn rehash(&mut self) {
        self.slots = vec![NO_KW; (2 * self.words.len()).next_power_of_two().max(16)];
        for kw in 0..self.words.len() as u32 {
            self.place(Kw(kw));
        }
    }

    /// The keyword behind a handle.
    #[inline]
    pub fn word(&self, kw: Kw) -> &str {
        &self.words[kw.index()]
    }

    /// Number of interned keywords (including ones whose lists emptied).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether nothing was interned yet.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Heap bytes: the word column, the words and the slot table.
    fn heap_bytes(&self) -> usize {
        self.words.capacity() * size_of::<String>()
            + self.words.iter().map(String::capacity).sum::<usize>()
            + self.slots.capacity() * size_of::<u32>()
    }

    /// The interned words in handle order — the arena-image dump view.
    /// The slot table is derived state and not part of the image.
    pub(crate) fn image_words(&self) -> &[String] {
        &self.words
    }

    /// Reassembles an interner from dumped words, re-deriving the slot
    /// table in one O(n) pass — the arena-image load path.
    pub(crate) fn from_image_words(words: Vec<String>) -> Self {
        let mut interner = KeywordInterner {
            words,
            ..Self::default()
        };
        interner.rehash();
        interner
    }
}

/// Per-keyword slice bounds, shared by both arenas. Contiguous in
/// handle order: `lists[i].start` is the sum of the lengths before it
/// (empty lists included), and the last list ends at the arena's end.
#[derive(Debug, Clone, Copy, Default)]
struct ListRef {
    start: u32,
    len: u32,
}

impl ListRef {
    /// The list's slice bounds in either arena.
    #[inline]
    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A posting a delta brings, as [`InvertedFragmentIndex::locate`]
/// keys it: the total its TF divides by (the fragment's new one) and,
/// for an identifier not interned yet, the identifier its TF ties
/// compare by.
#[derive(Debug, Clone, Copy)]
struct Arrival<'d> {
    posting: Posting,
    total_keywords: u64,
    new_id: Option<&'d FragmentId>,
}

/// What one delta does to one inverted list: the postings leaving it
/// and the postings entering it.
#[derive(Debug, Default)]
struct ListEdit<'d> {
    stale: Vec<Posting>,
    fresh: Vec<Arrival<'d>>,
}

/// A delta's posting splice, located against the index before it by
/// [`InvertedFragmentIndex::locate`] and written by
/// [`InvertedFragmentIndex::splice`] — into that index, or into an
/// identical twin, which then only moves postings.
#[derive(Debug)]
pub(crate) struct Splice<'d> {
    /// The words the delta brings that the interner has not seen, in
    /// the order the append-only `intern` gives them handles.
    new_words: Vec<&'d str>,
    /// Every touched list, ascending, with its length after the delta.
    lists: Vec<(Kw, u32)>,
    /// Each touched list's edit of the TF arena, in list order.
    tf: Vec<ArenaEdit>,
    /// Each touched list's edit of the probe arena, in list order.
    probe: Vec<ArenaEdit>,
}

impl Splice<'_> {
    /// Every arriving posting with its keyword, by keyword, then by
    /// handle.
    pub(crate) fn arrivals(&self) -> impl Iterator<Item = (Kw, Frag)> + '_ {
        self.lists
            .iter()
            .zip(&self.probe)
            .flat_map(|(&(kw, _), edit)| edit.fresh.iter().map(move |(_, p)| (kw, p.frag)))
    }
}

/// One run of surviving postings and where it slides to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Move {
    from: usize,
    to: usize,
    len: usize,
}

/// The positions in `entries` (a frag-sorted probe run) of the postings
/// whose handle is in `wanted` (sorted), ascending: a merge of the two
/// runs in which whichever side is behind gallops ahead by
/// `partition_point`, so a sparse side costs a binary search a step.
pub(crate) fn intersect<'a>(
    entries: &'a [Posting],
    mut wanted: &'a [Frag],
) -> impl Iterator<Item = usize> + 'a {
    let mut at = 0;
    std::iter::from_fn(move || {
        while let (Some(entry), Some(&frag)) = (entries.get(at), wanted.first()) {
            match entry.frag.cmp(&frag) {
                Ordering::Equal => {
                    wanted = &wanted[1..];
                    at += 1;
                    return Some(at - 1);
                }
                Ordering::Less => at += entries[at..].partition_point(|e| e.frag < frag),
                Ordering::Greater => {
                    wanted = &wanted[wanted.partition_point(|&f| f < entry.frag)..];
                }
            }
        }
        None
    })
}

/// The inverted half of the fragment index.
#[derive(Debug, Clone, Default)]
pub struct InvertedFragmentIndex {
    interner: KeywordInterner,
    lists: Vec<ListRef>,
    tf_arena: Vec<Posting>,
    probe_arena: Vec<Posting>,
}

impl InvertedFragmentIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the index from materialized fragments; every fragment must
    /// already be interned in `catalog`.
    ///
    /// # Errors
    ///
    /// [`CoreError::OccurrenceOverflow`] when a keyword occurs more than
    /// `u32::MAX` times in one fragment.
    pub fn build(catalog: &FragmentCatalog, fragments: &[Fragment]) -> Result<Self> {
        let refs: Vec<&Fragment> = fragments.iter().collect();
        Self::build_refs(catalog, &refs)
    }

    /// [`InvertedFragmentIndex::build`] over borrowed fragments — the
    /// zero-copy path shard construction uses.
    ///
    /// # Errors
    ///
    /// Same as [`InvertedFragmentIndex::build`].
    pub fn build_refs(catalog: &FragmentCatalog, fragments: &[&Fragment]) -> Result<Self> {
        let mut index = Self::place(catalog, fragments)?;
        index.rebuild_tf_arena(catalog);
        Ok(index)
    }

    /// Stage one of a bulk build, the half that reads the fragments:
    /// interns every keyword and places every posting into the probe
    /// arena. The TF arena stays empty until
    /// [`InvertedFragmentIndex::rebuild_tf_arena`] derives it from the
    /// probe arena and the catalog alone, so the caller may drop the
    /// fragments in between.
    ///
    /// # Errors
    ///
    /// Same as [`InvertedFragmentIndex::build`].
    pub(crate) fn place(catalog: &FragmentCatalog, fragments: &[&Fragment]) -> Result<Self> {
        let mut interner = KeywordInterner::default();
        // Pass 1: intern keywords, count list lengths.
        let mut counts: Vec<u32> = Vec::new();
        for f in fragments {
            for word in f.keyword_occurrences.keys() {
                let kw = interner.intern(word);
                if kw.index() == counts.len() {
                    counts.push(0);
                }
                counts[kw.index()] += 1;
            }
        }
        // Offsets: one prefix sum shared by both arenas.
        let mut lists = Vec::with_capacity(counts.len());
        let mut total = 0u32;
        for &len in &counts {
            lists.push(ListRef { start: total, len });
            total += len;
        }
        // Pass 2: place postings keyword-major. When fragments arrive
        // in ascending handle order (the common case: a crawl interned
        // in identifier order) each probe slice comes out sorted by
        // fragment already; out-of-order input is detected and the
        // affected slices re-sorted, since the occurrence probe binary
        // searches them.
        let mut probe_arena = vec![EMPTY; total as usize];
        let mut cursors: Vec<u32> = lists.iter().map(|l| l.start).collect();
        let mut monotone = true;
        let mut prev = None;
        for f in fragments {
            let frag = catalog.frag(&f.id).expect("fragment interned in catalog");
            monotone &= prev.is_none_or(|p| p < frag);
            prev = Some(frag);
            for (word, &occurrences) in &f.keyword_occurrences {
                let kw = interner.kw(word).expect("interned in pass 1");
                let at = cursors[kw.index()];
                probe_arena[at as usize] = Posting {
                    frag,
                    occurrences: narrow(word, occurrences)?,
                };
                cursors[kw.index()] = at + 1;
            }
        }
        if !monotone {
            for list in &lists {
                let slice = &mut probe_arena[list.range()];
                slice.sort_unstable_by_key(|e| e.frag);
            }
        }
        Ok(InvertedFragmentIndex {
            interner,
            lists,
            tf_arena: Vec::new(),
            probe_arena,
        })
    }

    /// Stage two of a bulk build: derives the TF-sorted arena from the
    /// probe arena, sorting every keyword's slice independently (in
    /// parallel). It reads only the probe arena and the catalog, never
    /// a fragment. Bulk build only — maintenance never re-sorts a list.
    pub(crate) fn rebuild_tf_arena(&mut self, catalog: &FragmentCatalog) {
        self.tf_arena = self.probe_arena.clone();
        // Carve the arena into per-keyword slices and sort each:
        // descending TF, ties by ascending fragment identifier (a total
        // order — index layout is independent of insertion order).
        let mut slices: Vec<&mut [Posting]> = Vec::with_capacity(self.lists.len());
        let mut rest: &mut [Posting] = &mut self.tf_arena;
        for list in &self.lists {
            let (head, tail) = rest.split_at_mut(list.len as usize);
            slices.push(head);
            rest = tail;
        }
        par::for_each(slices, |slice| {
            if slice.len() < 2 {
                return;
            }
            // Each TF derived once per posting, not once per comparison.
            let mut keyed: Vec<(f64, Posting)> = slice
                .iter()
                .map(|&p| (p.tf(catalog.total_keywords(p.frag)), p))
                .collect();
            keyed.sort_unstable_by(|a, b| tf_order(catalog, (a.0, a.1.frag), (b.0, b.1.frag)));
            for (slot, (_, posting)) in slice.iter_mut().zip(keyed) {
                *slot = posting;
            }
        });
    }

    /// The TF-sorted inverted list for `word` (`None` when no fragment
    /// has it).
    #[inline]
    pub fn postings(&self, word: &str) -> Option<&[Posting]> {
        let list = self.interner.kw(word).map(|kw| self.lists[kw.index()])?;
        if list.len == 0 {
            return None;
        }
        Some(&self.tf_arena[list.range()])
    }

    /// The TF-sorted inverted list for an interned keyword.
    #[inline]
    pub fn postings_kw(&self, kw: Kw) -> &[Posting] {
        let list = self.lists[kw.index()];
        &self.tf_arena[list.range()]
    }

    /// The handle of `word`, if any fragment contains it.
    #[inline]
    pub fn kw(&self, word: &str) -> Option<Kw> {
        let kw = self.interner.kw(word)?;
        if self.lists[kw.index()].len == 0 {
            return None;
        }
        Some(kw)
    }

    /// The keyword behind a handle.
    pub fn word(&self, kw: Kw) -> &str {
        self.interner.word(kw)
    }

    /// Occurrences of keyword `kw` in fragment `frag` — the O(log L)
    /// probe the top-k search uses for a seed's *other* request
    /// keywords (its own comes with the posting) and for expansion
    /// neighbors.
    #[inline]
    pub fn occurrences(&self, kw: Kw, frag: Frag) -> u64 {
        let list = self.lists[kw.index()];
        let slice = &self.probe_arena[list.range()];
        match slice.binary_search_by(|e| e.frag.cmp(&frag)) {
            Ok(i) => u64::from(slice[i].occurrences),
            Err(_) => 0,
        }
    }

    /// Fragment frequency of `word` (`|L_w|`).
    pub fn df(&self, word: &str) -> usize {
        self.interner
            .kw(word)
            .map_or(0, |kw| self.lists[kw.index()].len as usize)
    }

    /// `IDF_w = 1 / |L_w|` — Dash's fragment-based IDF approximation.
    pub fn idf(&self, word: &str) -> f64 {
        match self.df(word) {
            0 => 0.0,
            n => 1.0 / n as f64,
        }
    }

    /// Number of distinct keywords with a non-empty list.
    pub fn keyword_count(&self) -> usize {
        self.lists.iter().filter(|l| l.len > 0).count()
    }

    /// Keywords by descending fragment frequency (for hot/warm/cold
    /// keyword selection in the evaluation).
    pub fn keywords_by_df(&self) -> Vec<(&str, usize)> {
        let mut out: Vec<(&str, usize)> = self
            .lists
            .iter()
            .enumerate()
            .filter(|(_, l)| l.len > 0)
            .map(|(i, l)| (self.interner.word(Kw(i as u32)), l.len as usize))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        out
    }

    /// Locates one batched mutation — every posting splice of an
    /// [`IndexDelta`](crate::update::IndexDelta) — against the index as
    /// it stands before the delta, changing nothing. It reads no list
    /// it does not edit: O(log L) comparisons per posting, in the lists
    /// the delta touches.
    ///
    /// 1. The *touched* lists are those holding a `stale` posting
    ///    (found by `FragmentIndex::prepare`'s walk of the touched
    ///    groups' vocabulary, for every removed or re-added fragment)
    ///    plus those receiving a posting of `adds`. No other list
    ///    changes: a posting's TF depends only on its own fragment's
    ///    `total_keywords`.
    /// 2. In each touched list, in each arena, the stale postings are
    ///    located by binary search (by handle in the probe slice, by
    ///    `tf_order` in the TF slice) and each fresh posting is given
    ///    the `partition_point` of the same total order the bulk build
    ///    sorts with. Survivors keep their relative order and the order
    ///    is total (identifiers are unique), so the resulting slice is
    ///    exactly what a from-scratch sort of the same postings lays
    ///    out — exact by construction.
    ///
    ///    `catalog` is the pre-delta one, so every entry already in a
    ///    TF slice (stale or surviving) is keyed by the total it was
    ///    sorted with, and a fresh posting by its fragment's new total.
    ///    A fresh posting of an identifier not interned yet carries the
    ///    handle `FragmentCatalog::intern` will give it, and its TF
    ///    ties compare by its [`FragmentId`]; a word not interned yet
    ///    takes the handle `KeywordInterner::intern` will give it.
    ///
    /// Every fragment of `adds` appears once, has its previous postings
    /// (if any) listed in `stale` (by keyword, then handle) and has
    /// passed [`check_counts`]. A delta that matches nothing (no stale
    /// postings, no keywords added) locates an empty splice.
    pub(crate) fn locate<'d>(
        &self,
        catalog: &FragmentCatalog,
        stale: &[(Kw, Posting)],
        adds: &[Add<'d>],
    ) -> Splice<'d> {
        let mut edits: BTreeMap<Kw, ListEdit<'d>> = BTreeMap::new();
        for &(kw, posting) in stale {
            edits.entry(kw).or_default().stale.push(posting);
        }
        let mut new_words: Vec<&'d str> = Vec::new();
        let mut new_kws: HashMap<&'d str, Kw> = HashMap::new();
        for add in adds {
            let fragment: &'d Fragment = add.fragment;
            for (word, &occurrences) in &fragment.keyword_occurrences {
                let kw = self.interner.kw(word).unwrap_or_else(|| {
                    *new_kws.entry(word.as_str()).or_insert_with(|| {
                        new_words.push(word);
                        Kw(u32::try_from(self.interner.len() + new_words.len() - 1)
                            .expect("more than u32::MAX keywords"))
                    })
                });
                edits.entry(kw).or_default().fresh.push(Arrival {
                    posting: Posting {
                        frag: add.frag,
                        occurrences: narrow(word, occurrences)
                            .expect("counts checked before the delta is prepared"),
                    },
                    total_keywords: fragment.total_keywords,
                    new_id: add.new.then_some(&fragment.id),
                });
            }
        }

        // Locate every stale and fresh posting in both arenas (handle
        // order = arena order, as `BTreeMap` iterates). A new word's
        // list is empty, at the arena's end.
        let old_key = |p: &Posting| TfKey {
            tf: p.tf(catalog.total_keywords(p.frag)),
            frag: p.frag,
            new_id: None,
        };
        let by_frag = |p: &Posting| p.frag;
        let mut splice = Splice {
            new_words,
            lists: Vec::with_capacity(edits.len()),
            tf: Vec::with_capacity(edits.len()),
            probe: Vec::with_capacity(edits.len()),
        };
        for (&kw, edit) in &edits {
            let list = self.lists.get(kw.index()).copied().unwrap_or(ListRef {
                start: self.tf_arena.len() as u32,
                len: 0,
            });
            splice.lists.push((
                kw,
                list.len - edit.stale.len() as u32 + edit.fresh.len() as u32,
            ));
            splice.tf.push(ArenaEdit::locate(
                list.start as usize,
                &self.tf_arena[list.range()],
                &edit.stale,
                edit.fresh.iter().map(|a| {
                    let key = TfKey {
                        tf: a.posting.tf(a.total_keywords),
                        frag: a.posting.frag,
                        new_id: a.new_id,
                    };
                    (key, a.posting)
                }),
                old_key,
                |a, b| a.order(b, catalog),
            ));
            splice.probe.push(ArenaEdit::locate(
                list.start as usize,
                &self.probe_arena[list.range()],
                &edit.stale,
                edit.fresh.iter().map(|a| (a.posting.frag, a.posting)),
                by_frag,
                Frag::cmp,
            ));
        }
        splice
    }

    /// Writes a [`Splice`] located on this index, or on an identical
    /// twin, **in place**: it interns the delta's new words, slides
    /// each arena's runs of survivors to their new offsets (`relocate`)
    /// and writes the fresh postings into the holes, then re-derives
    /// the offset table in one O(lists) pass. A run whose offset does
    /// not change is not touched at all: the common upsert (same
    /// keyword set, new TFs) moves only the postings between a
    /// fragment's old and new rank in each of its TF slices, and a
    /// delta that grows or shrinks a list shifts the arena's tail once,
    /// with `memmove`.
    pub(crate) fn splice(&mut self, splice: &Splice<'_>) {
        for &word in &splice.new_words {
            let kw = self.interner.intern(word);
            debug_assert_eq!(
                kw.index(),
                self.lists.len(),
                "a new word takes the handle it was located under"
            );
            // A brand-new keyword: an empty list at the arena's end
            // keeps the layout contiguous.
            self.lists.push(ListRef {
                start: self.tf_arena.len() as u32,
                len: 0,
            });
        }
        if splice.lists.is_empty() {
            return;
        }
        splice_arena(&mut self.tf_arena, &splice.tf);
        splice_arena(&mut self.probe_arena, &splice.probe);

        // Re-derive the offset table: touched lists change length,
        // everything after them shifts.
        let mut touched = splice.lists.iter().peekable();
        let mut at = 0u32;
        for (i, list) in self.lists.iter_mut().enumerate() {
            if let Some(&(_, len)) = touched.next_if(|(kw, _)| kw.index() == i) {
                list.len = len;
            }
            list.start = at;
            at = at
                .checked_add(list.len)
                .expect("more than u32::MAX postings");
        }
    }

    /// The keyword-occurrence maps of **every** live fragment,
    /// reconstructed in one pass over the probe arena — O(total
    /// postings). This is the path behind
    /// [`ShardedEngine::dump_shards`](crate::ShardedEngine::dump_shards): the
    /// index stores no fragment-major copy of the occurrence maps, so
    /// a shard's fragments are re-derived keyword-major (probing
    /// per-fragment instead would cost O(fragments × keywords log L)).
    pub fn all_fragment_terms(&self) -> HashMap<Frag, BTreeMap<String, u64>> {
        let mut terms: HashMap<Frag, BTreeMap<String, u64>> = HashMap::new();
        for (i, list) in self.lists.iter().enumerate() {
            if list.len == 0 {
                continue;
            }
            let word = self.interner.word(Kw(i as u32));
            let slice = &self.probe_arena[list.range()];
            for entry in slice {
                terms
                    .entry(entry.frag)
                    .or_default()
                    .insert(word.to_string(), u64::from(entry.occurrences));
            }
        }
        terms
    }

    /// The fragment-sorted probe slice of an interned keyword.
    #[inline]
    pub(crate) fn probe_postings(&self, kw: Kw) -> &[Posting] {
        &self.probe_arena[self.lists[kw.index()].range()]
    }

    /// Number of inverted lists: one per interned keyword, emptied
    /// ones included.
    pub(crate) fn list_count(&self) -> usize {
        self.lists.len()
    }

    /// The whole-index walk, kept as the oracle of
    /// `FragmentIndex::prepare`'s vocabulary walk: the keywords held by
    /// **any** of `frags`, ascending, and the live postings of `stale`
    /// (a subset of `frags`) by keyword, then by handle — found by
    /// visiting every inverted list and intersecting its probe slice
    /// with `frags`.
    #[cfg(test)]
    pub(crate) fn walk_every_list(
        &self,
        frags: &[Frag],
        stale: &[Frag],
    ) -> (Vec<Kw>, Vec<(Kw, Posting)>) {
        debug_assert!(stale.iter().all(|f| frags.binary_search(f).is_ok()));
        let (mut held, mut stale_postings) = (Vec::new(), Vec::new());
        for i in 0..self.lists.len() {
            let kw = Kw(i as u32);
            let entries = self.probe_postings(kw);
            let Some(first) = intersect(entries, frags).next() else {
                continue;
            };
            held.push(kw);
            let rest = &entries[first..];
            stale_postings.extend(intersect(rest, stale).map(|at| (kw, rest[at])));
        }
        (held, stale_postings)
    }

    /// The live keywords of **one** fragment, with occurrence counts —
    /// one binary search per inverted list, O(keywords · log L). The
    /// per-fragment oracle of the touched groups' vocabulary
    /// (for whole-index dumps use
    /// [`InvertedFragmentIndex::all_fragment_terms`], which amortizes
    /// the arena walk across every fragment at once).
    pub fn fragment_terms(&self, frag: Frag) -> Vec<(&str, u64)> {
        let mut terms = Vec::new();
        for (i, list) in self.lists.iter().enumerate() {
            if list.len == 0 {
                continue;
            }
            let slice = &self.probe_arena[list.range()];
            if let Ok(at) = slice.binary_search_by(|e| e.frag.cmp(&frag)) {
                terms.push((
                    self.interner.word(Kw(i as u32)),
                    u64::from(slice[at].occurrences),
                ));
            }
        }
        terms
    }

    /// Total postings across every inverted list.
    pub fn posting_count(&self) -> usize {
        self.tf_arena.len()
    }

    /// The per-keyword slice bounds as `(start, len)` pairs in handle
    /// order — the arena-image dump view of the shared offset table.
    pub(crate) fn image_lists(&self) -> impl ExactSizeIterator<Item = (u32, u32)> + '_ {
        self.lists.iter().map(|l| (l.start, l.len))
    }

    /// The TF-sorted arena, exactly as laid out in memory.
    pub(crate) fn image_tf_arena(&self) -> &[Posting] {
        &self.tf_arena
    }

    /// The fragment-sorted probe arena, exactly as laid out in memory.
    pub(crate) fn image_probe_arena(&self) -> &[Posting] {
        &self.probe_arena
    }

    /// Heap bytes of the interner (its word column, the words and its
    /// slot table), the list table and the two arenas — capacities, not
    /// lengths.
    pub(crate) fn heap_bytes(&self) -> (usize, usize, usize, usize) {
        (
            self.interner.heap_bytes(),
            self.lists.capacity() * size_of::<ListRef>(),
            self.tf_arena.capacity() * size_of::<Posting>(),
            self.probe_arena.capacity() * size_of::<Posting>(),
        )
    }

    /// The interner behind the index (arena-image dump view).
    pub(crate) fn image_interner(&self) -> &KeywordInterner {
        &self.interner
    }

    /// Reassembles an index from dumped arenas without re-sorting a
    /// single list — the arena-image load path. Callers are expected to
    /// hand back exactly what [`InvertedFragmentIndex::image_lists`] /
    /// `image_tf_arena` / `image_probe_arena` produced (the checksummed
    /// persist sections), so both arenas arrive already in their final
    /// sort orders, and to have checked that `lists` tiles the arenas
    /// contiguously in handle order (`persist::read_image` does).
    pub(crate) fn from_image_parts(
        interner: KeywordInterner,
        lists: Vec<(u32, u32)>,
        tf_arena: Vec<Posting>,
        probe_arena: Vec<Posting>,
    ) -> Self {
        InvertedFragmentIndex {
            interner,
            lists: lists
                .into_iter()
                .map(|(start, len)| ListRef { start, len })
                .collect(),
            tf_arena,
            probe_arena,
        }
    }
}

/// The order of every TF slice on `(TF, fragment)` keys: descending
/// TF, ties by ascending fragment identifier. Total, since identifiers
/// are unique — so a list's layout is independent of insertion order,
/// and bulk sort and in-place splice agree by construction. TFs compare
/// as the doubles [`Posting::tf`] yields, never by cross-multiplying:
/// two different ratios that round to one double tie.
#[inline]
fn tf_order(catalog: &FragmentCatalog, (tf_a, a): (f64, Frag), (tf_b, b): (f64, Frag)) -> Ordering {
    tf_b.partial_cmp(&tf_a)
        .expect("finite TF")
        .then_with(|| catalog.cmp_ids(a, b))
}

/// A TF slice's sort key for a splice: the posting's TF, its handle
/// and, for an identifier not interned yet (whose handle is only the
/// one `intern` will give it), the identifier itself.
#[derive(Debug, Clone, Copy)]
struct TfKey<'d> {
    tf: f64,
    frag: Frag,
    new_id: Option<&'d FragmentId>,
}

impl TfKey<'_> {
    /// [`tf_order`], with an identifier not interned yet compared by
    /// its [`FragmentId`] — the order it takes once interned, since the
    /// catalog orders handles as their identifiers' `Ord`.
    fn order(&self, other: &Self, catalog: &FragmentCatalog) -> Ordering {
        other
            .tf
            .partial_cmp(&self.tf)
            .expect("finite TF")
            .then_with(|| match (self.new_id, other.new_id) {
                (None, None) => catalog.cmp_ids(self.frag, other.frag),
                (Some(a), Some(b)) => a.cmp(b),
                (Some(a), None) => catalog.cmp_to_id(other.frag, a).reverse(),
                (None, Some(b)) => catalog.cmp_to_id(self.frag, b),
            })
    }
}

/// The filler a growing arena's new tail holds until the splice
/// overwrites it.
const EMPTY: Posting = Posting {
    frag: Frag(0),
    occurrences: 0,
};

/// One touched list's edit of one arena, in arena coordinates: the
/// positions of the postings leaving and, for each posting arriving,
/// the position of the old posting it goes in front of. Both ascending.
#[derive(Debug)]
struct ArenaEdit {
    gone: Vec<usize>,
    fresh: Vec<(usize, Posting)>,
}

impl ArenaEdit {
    /// Locates `stale` (each must be present) and the keyed `fresh`
    /// postings in the sorted slice `old`, which begins at arena
    /// position `start` — O(log L) comparisons per posting. `old_key`
    /// keys the postings already in the slice (stale ones included) as
    /// the slice is sorted, and `cmp` orders keys.
    fn locate<K: Copy>(
        start: usize,
        old: &[Posting],
        stale: &[Posting],
        fresh: impl Iterator<Item = (K, Posting)>,
        old_key: impl Fn(&Posting) -> K,
        cmp: impl Fn(&K, &K) -> Ordering,
    ) -> Self {
        let mut gone: Vec<usize> = stale
            .iter()
            .map(|s| {
                let key = old_key(s);
                let at = old.binary_search_by(|o| cmp(&old_key(o), &key));
                start + at.expect("a stale posting is in both of its list's slices")
            })
            .collect();
        gone.sort_unstable();
        let mut fresh: Vec<(K, Posting)> = fresh.collect();
        fresh.sort_unstable_by(|a, b| cmp(&a.0, &b.0));
        let fresh = fresh
            .into_iter()
            .map(|(key, f)| {
                (
                    start + old.partition_point(|o| cmp(&old_key(o), &key).is_lt()),
                    f,
                )
            })
            .collect();
        ArenaEdit { gone, fresh }
    }
}

/// Applies the touched lists' edits (ascending list order) to one
/// arena in place: the edit positions cut the arena into runs of
/// survivors, each run slides to its new offset (`relocate`), and the
/// fresh postings fill the holes left between them.
fn splice_arena(arena: &mut Vec<Posting>, edits: &[ArenaEdit]) {
    let mut moves: Vec<Move> = Vec::new();
    let mut writes: Vec<(usize, Posting)> = Vec::new();
    // The run of survivors being extended; it ends at the next event.
    let mut run = Move {
        from: 0,
        to: 0,
        len: 0,
    };
    let mut end_run = |run: &mut Move, at: usize| {
        run.len = at - run.from;
        if run.len > 0 {
            moves.push(*run);
        }
        run.to + run.len
    };
    for edit in edits {
        let mut gone = edit.gone.iter().copied().peekable();
        let mut fresh = edit.fresh.iter().copied().peekable();
        loop {
            // A fresh entry goes in front of the old entry at its
            // position, so at equal positions it is handled first.
            let arrival = match (gone.peek(), fresh.peek()) {
                (None, None) => break,
                (Some(&g), Some(&(f, _))) => f <= g,
                (None, Some(_)) => true,
                (Some(_), None) => false,
            };
            run = if arrival {
                let (at, entry) = fresh.next().expect("peeked");
                let to = end_run(&mut run, at);
                writes.push((to, entry));
                Move {
                    from: at,
                    to: to + 1,
                    len: 0,
                }
            } else {
                let at = gone.next().expect("peeked");
                let to = end_run(&mut run, at);
                Move {
                    from: at + 1,
                    to,
                    len: 0,
                }
            };
        }
    }
    let total = end_run(&mut run, arena.len());
    relocate(arena, &moves, total, EMPTY);
    for (at, entry) in writes {
        arena[at] = entry;
    }
}

/// Slides blocks of an arena to new offsets **in place** and sets the
/// arena's length to `total`. `moves` lists disjoint blocks in
/// ascending order of both `from` and `to` (the runs of survivors
/// between the postings a delta removes or inserts); whatever lies
/// between their destinations afterwards is unspecified — the caller
/// overwrites it.
///
/// Order of operations, and why no move clobbers a block still waiting
/// to move: the arena grows first (if it grows); then the left-movers
/// (`to < from`) go in ascending order, then the right-movers in
/// descending order; then the arena is truncated.
///
/// * A left-mover's destination ends before its own old end, hence
///   before the old start of every later block; and it starts at or
///   after the new end of every earlier block, which for an earlier
///   right-mover lies beyond that block's old end. So it overlaps
///   nothing but its own source (`copy_within` is a `memmove`).
/// * When the right-movers run, every left-mover's source is dead. A
///   right-mover's destination starts after its own old start, hence
///   after the old end of every earlier (not yet moved) block, and the
///   destinations are pairwise disjoint, so it lands only on space
///   already vacated.
///
/// Growth reserves exactly what is needed plus 1/64 slack: `Vec`'s
/// amortized doubling would double a multi-megabyte arena's footprint
/// for a one-posting delta.
fn relocate<T: Copy>(arena: &mut Vec<T>, moves: &[Move], total: usize, filler: T) {
    if total > arena.len() {
        if total > arena.capacity() {
            arena.reserve_exact(total - arena.len() + total / 64);
        }
        arena.resize(total, filler);
    }
    for m in moves.iter().filter(|m| m.to < m.from) {
        arena.copy_within(m.from..m.from + m.len, m.to);
    }
    for m in moves.iter().rev().filter(|m| m.to > m.from) {
        arena.copy_within(m.from..m.from + m.len, m.to);
    }
    arena.truncate(total);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::FragmentId;
    use dash_relation::Value;
    use std::collections::BTreeMap;

    fn fragment(id: &[Value], words: &[(&str, u64)]) -> Fragment {
        let occ: BTreeMap<String, u64> = words.iter().map(|(w, n)| (w.to_string(), *n)).collect();
        Fragment::new(FragmentId::new(id.to_vec()), occ, 1)
    }

    /// The paper's Figure 6 sample: burger appears in (American,10) ×2,
    /// (American,12) ×1, (Thai,10) ×1.
    fn figure_6_fragments() -> Vec<Fragment> {
        vec![
            fragment(
                &[Value::str("American"), Value::Int(9)],
                &[("coffee", 1), ("nice", 1), ("cafe", 1)],
            ),
            fragment(
                &[Value::str("American"), Value::Int(10)],
                &[("burger", 2), ("queen", 1), ("experts", 1)],
            ),
            fragment(
                &[Value::str("American"), Value::Int(12)],
                &[("burger", 1), ("fries", 1), ("unique", 1), ("bad", 1)],
            ),
            fragment(
                &[Value::str("Thai"), Value::Int(10)],
                &[("burger", 1), ("thai", 1)],
            ),
        ]
    }

    fn build() -> (FragmentCatalog, InvertedFragmentIndex) {
        let fragments = figure_6_fragments();
        let catalog = FragmentCatalog::from_fragments(&fragments, Some(1)).unwrap();
        let index = InvertedFragmentIndex::build(&catalog, &fragments).unwrap();
        (catalog, index)
    }

    #[test]
    fn the_interner_holds_each_keyword_once() {
        let words: Vec<String> = (0..1000).map(|i| format!("kw{i:06}")).collect();
        let mut interner = KeywordInterner::default();
        for (i, word) in words.iter().enumerate() {
            assert_eq!(interner.intern(word), Kw(i as u32));
        }
        let loaded = KeywordInterner::from_image_words(words.clone());
        for table in [&interner, &loaded] {
            for (i, word) in words.iter().enumerate() {
                assert_eq!(table.kw(word), Some(Kw(i as u32)));
                assert_eq!(table.word(Kw(i as u32)), word);
            }
            assert_eq!(table.kw("kw001000"), None);
            assert_eq!(table.kw(""), None);
            // The word column, each word's text once, and 4 bytes a slot
            // in a table at most half full.
            let text: usize = words.iter().map(String::len).sum();
            assert_eq!(table.slots.len(), 2048);
            assert_eq!(
                table.heap_bytes(),
                table.words.capacity() * size_of::<String>() + text + 4 * 2048
            );
        }
        // Re-interning a known word adds nothing.
        assert_eq!(interner.intern("kw000500"), Kw(500));
        assert_eq!(interner.len(), 1000);
    }

    #[test]
    fn tf_is_occurrences_over_total() {
        let posting = Posting {
            frag: Frag(0),
            occurrences: 3,
        };
        assert_eq!(posting.tf(0), 0.0);
        for total in [3u64, 7, 10, 1 << 40] {
            assert_eq!(posting.tf(total).to_bits(), (3.0 / total as f64).to_bits());
        }
        let most = Posting {
            frag: Frag(0),
            occurrences: u32::MAX,
        };
        assert_eq!(most.tf(u64::from(u32::MAX)), 1.0);
    }

    #[test]
    fn a_count_past_u32_is_an_error_not_a_truncation() {
        let mut fragments = figure_6_fragments();
        let wide = u64::from(u32::MAX) + 1;
        fragments[2]
            .keyword_occurrences
            .insert("burger".to_string(), wide);
        let catalog = FragmentCatalog::from_fragments(&fragments, Some(1)).unwrap();
        let err = InvertedFragmentIndex::build(&catalog, &fragments).unwrap_err();
        assert_eq!(
            err,
            CoreError::OccurrenceOverflow {
                keyword: "burger".to_string(),
                occurrences: wide,
            }
        );
        assert!(err.to_string().contains("4294967295"), "{err}");
        // The widest count that fits is kept exactly.
        fragments[2]
            .keyword_occurrences
            .insert("burger".to_string(), u64::from(u32::MAX));
        let idx = InvertedFragmentIndex::build(&catalog, &fragments).unwrap();
        let frag = catalog.frag(&fragments[2].id).unwrap();
        assert_eq!(
            idx.occurrences(idx.kw("burger").unwrap(), frag),
            u64::from(u32::MAX)
        );
        // Both counts fit; the raised one passes the fragment's stale
        // total until the total follows it.
        assert!(matches!(
            check_counts(&fragments),
            Err(CoreError::OccurrencesPastTotal { .. })
        ));
        fragments[2].total_keywords = fragments[2].keyword_occurrences.values().sum();
        assert!(check_counts(&fragments).is_ok());
    }

    #[test]
    fn df_and_idf_match_figure_6() {
        let (_, idx) = build();
        assert_eq!(idx.df("burger"), 3);
        assert!((idx.idf("burger") - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(idx.df("coffee"), 1);
        assert_eq!(idx.df("fries"), 1);
        assert_eq!(idx.posting_count(), 12);
    }

    #[test]
    fn postings_tf_sorted() {
        let (catalog, idx) = build();
        let burger = idx.postings("burger").unwrap();
        // (American,10) has TF 2/4 here — the highest.
        assert_eq!(
            catalog.id(burger[0].frag),
            FragmentId::new(vec![Value::str("American"), Value::Int(10)])
        );
        let tf = |p: &Posting| p.tf(catalog.total_keywords(p.frag));
        assert!(tf(&burger[0]) >= tf(&burger[1]));
        assert!(tf(&burger[1]) >= tf(&burger[2]));
    }

    #[test]
    fn probe_finds_arbitrary_fragments() {
        let (catalog, idx) = build();
        let kw = idx.kw("burger").unwrap();
        let ten = catalog
            .frag(&FragmentId::new(vec![
                Value::str("American"),
                Value::Int(10),
            ]))
            .unwrap();
        let nine = catalog
            .frag(&FragmentId::new(vec![
                Value::str("American"),
                Value::Int(9),
            ]))
            .unwrap();
        assert_eq!(idx.occurrences(kw, ten), 2);
        assert_eq!(idx.occurrences(kw, nine), 0);
        assert_eq!(idx.kw("zzz"), None);
    }

    /// The two-step splice protocol: locate the stale postings (here
    /// with the whole-index walk), then splice them out.
    fn remove(idx: &mut InvertedFragmentIndex, catalog: &FragmentCatalog, frag: Frag) -> usize {
        let (_, stale) = idx.walk_every_list(&[frag], &[frag]);
        let splice = idx.locate(catalog, &stale, &[]);
        idx.splice(&splice);
        stale.len()
    }

    /// Splices `fragment` back in under its (known) handle.
    fn readd(
        idx: &mut InvertedFragmentIndex,
        catalog: &FragmentCatalog,
        frag: Frag,
        fragment: &Fragment,
    ) {
        let adds = [Add {
            frag,
            new: false,
            fragment,
        }];
        let splice = idx.locate(catalog, &[], &adds);
        idx.splice(&splice);
    }

    #[test]
    fn incremental_remove_and_add() {
        let fragments = figure_6_fragments();
        let catalog = FragmentCatalog::from_fragments(&fragments, Some(1)).unwrap();
        let mut idx = InvertedFragmentIndex::build(&catalog, &fragments).unwrap();
        let target = catalog
            .frag(&FragmentId::new(vec![
                Value::str("American"),
                Value::Int(10),
            ]))
            .unwrap();
        let touched = remove(&mut idx, &catalog, target);
        assert_eq!(touched, 3); // burger, queen, experts
        assert_eq!(idx.df("burger"), 2);
        assert_eq!(idx.postings("queen"), None);
        assert_eq!(remove(&mut idx, &catalog, target), 0); // nothing left to match
        readd(&mut idx, &catalog, target, &fragments[1]);
        assert_eq!(idx.df("burger"), 3);
        let kw = idx.kw("burger").unwrap();
        assert_eq!(idx.occurrences(kw, target), 2);
    }

    #[test]
    fn maintenance_converges_to_bulk_layout() {
        let fragments = figure_6_fragments();
        let catalog = FragmentCatalog::from_fragments(&fragments, Some(1)).unwrap();
        let bulk = InvertedFragmentIndex::build(&catalog, &fragments).unwrap();
        let mut incremental = InvertedFragmentIndex::build(&catalog, &fragments).unwrap();
        let target = catalog
            .frag(&FragmentId::new(vec![
                Value::str("American"),
                Value::Int(10),
            ]))
            .unwrap();
        remove(&mut incremental, &catalog, target);
        readd(&mut incremental, &catalog, target, &fragments[1]);
        for word in ["burger", "coffee", "queen", "thai", "fries"] {
            assert_eq!(bulk.postings(word), incremental.postings(word), "{word}");
        }
        assert_eq!(bulk.image_probe_arena(), incremental.image_probe_arena());
    }

    /// The splice when totals move: every TF slice is sorted by the
    /// totals from before the delta while the catalog already holds the
    /// new ones, so an entry already in a slice must be keyed by its
    /// old total. Six "burger" fragments whose burger TFs are
    /// 1/2 > 1/3 > … > 1/7; each step's arenas must equal a bulk
    /// build's over the same fragments.
    #[test]
    fn splice_keys_old_entries_by_their_pre_delta_totals() {
        use crate::index::FragmentIndex;
        use crate::update::IndexDelta;

        // Identifier rank `i`, burger once, `filler` other words: the
        // total is `1 + filler`.
        let fragment = |i: i64, filler: u64| {
            let occ: BTreeMap<String, u64> =
                [("burger".to_string(), 1), ("pad".to_string(), filler)]
                    .into_iter()
                    .filter(|&(_, n)| n > 0)
                    .collect();
            Fragment::new(
                FragmentId::new(vec![Value::str("A"), Value::Int(i)]),
                occ,
                1,
            )
        };
        let mut live: BTreeMap<FragmentId, Fragment> = (0..6)
            .map(|i| fragment(i, i as u64 + 1))
            .map(|f| (f.id.clone(), f))
            .collect();
        let initial: Vec<Fragment> = live.values().cloned().collect();
        let mut index = FragmentIndex::build(&initial, Some(1)).unwrap();
        // Where fragment `f` sits in the burger list, if it is there.
        let rank = |index: &FragmentIndex, f: &Fragment| {
            let burger = index.inverted.postings("burger").unwrap();
            burger.iter().position(|p| index.catalog.id(p.frag) == f.id)
        };
        let probe = |idx: &InvertedFragmentIndex, word: &str| {
            let list = idx.lists[idx.interner.kw(word).unwrap().index()];
            idx.probe_arena[list.range()].to_vec()
        };
        // (case, removed ranks, upserted (rank, filler) pairs)
        type Case = (&'static str, &'static [i64], &'static [(i64, u64)]);
        let cases: [Case; 6] = [
            // One fragment's TF falls past its neighbours...
            ("down", &[], &[(1, 40)]),
            // ...another's rises past every one...
            ("up", &[], &[(4, 0)]),
            // ...two cross each other in one delta: locating either's
            // stale posting compares against the other's old entry.
            ("crossing", &[], &[(1, 0), (4, 40)]),
            // Removed outright, then re-added with a new total.
            ("removed", &[2], &[]),
            ("re-added", &[], &[(2, 9)]),
            // Removed and re-added in one delta, moving to the top,
            // beside an upsert moving the other way.
            ("replaced", &[3], &[(3, 0), (0, 30)]),
        ];
        for (case, removes, adds) in cases {
            let adds: Vec<Fragment> = adds.iter().map(|&(i, n)| fragment(i, n)).collect();
            let removes: Vec<FragmentId> = removes
                .iter()
                .map(|&i| FragmentId::new(vec![Value::str("A"), Value::Int(i)]))
                .collect();
            for id in &removes {
                live.remove(id);
            }
            for f in &adds {
                live.insert(f.id.clone(), f.clone());
            }
            let before: Vec<Option<usize>> = adds.iter().map(|f| rank(&index, f)).collect();
            index
                .apply(&IndexDelta::new(removes, adds.clone()))
                .unwrap();
            let fragments: Vec<Fragment> = live.values().cloned().collect();
            let bulk = InvertedFragmentIndex::build(&index.catalog, &fragments).unwrap();
            for word in ["burger", "pad"] {
                let (spliced, built) = (&index.inverted, &bulk);
                assert_eq!(
                    spliced.postings(word),
                    built.postings(word),
                    "{case}: {word}"
                );
                assert_eq!(probe(spliced, word), probe(built, word), "{case}: {word}");
            }
            // Every upsert moved its fragment in the TF order.
            let after: Vec<Option<usize>> = adds.iter().map(|f| rank(&index, f)).collect();
            assert!(
                before.iter().zip(&after).all(|(b, a)| b != a),
                "{case}: {before:?} -> {after:?}"
            );
        }
    }

    #[test]
    fn relocate_slides_left_and_right_movers_in_place() {
        // Old layout, one letter per list (uppercase = rewritten by the
        // delta, its old content dead):
        //   aa BBB cc dddd E ff | new: aa B cc dddd EEEE ff + 1 grown
        // `cc dddd` slide left by 2, `ff` slides right by 1, `aa` stays.
        let mut arena: Vec<char> = "aaBBBccddddEff".chars().collect();
        let moves = [
            Move {
                from: 0,
                to: 0,
                len: 2,
            },
            Move {
                from: 5,
                to: 3,
                len: 6,
            },
            Move {
                from: 12,
                to: 13,
                len: 2,
            },
        ];
        relocate(&mut arena, &moves, 15, '#');
        assert_eq!(arena.len(), 15);
        let at = |r: Range<usize>| arena[r].iter().collect::<String>();
        assert_eq!(at(0..2), "aa");
        assert_eq!(at(3..9), "ccdddd");
        assert_eq!(at(13..15), "ff");
        // Growth is exact-plus-slack, not a doubling.
        assert!(arena.capacity() < 2 * 14);

        // Overlapping self-moves in both directions, then a shrink:
        // a 6-long block 1 to the right, a 6-long block 3 to the left.
        let mut arena: Vec<char> = "XabcdefYYYYYghijkl".chars().collect();
        let moves = [
            Move {
                from: 1,
                to: 2,
                len: 6,
            },
            Move {
                from: 12,
                to: 9,
                len: 6,
            },
        ];
        relocate(&mut arena, &moves, 15, '#');
        assert_eq!(arena[2..8].iter().collect::<String>(), "abcdef");
        assert_eq!(arena[9..15].iter().collect::<String>(), "ghijkl");
        assert_eq!(arena.len(), 15);
    }

    #[test]
    fn build_tolerates_out_of_order_fragments() {
        // The catalog interned one order; the build slice iterates
        // another. Probe slices must still binary-search correctly.
        let fragments = figure_6_fragments();
        let catalog = FragmentCatalog::from_fragments(&fragments, Some(1)).unwrap();
        let mut reordered = fragments.clone();
        reordered.reverse();
        let idx = InvertedFragmentIndex::build(&catalog, &reordered).unwrap();
        let kw = idx.kw("burger").unwrap();
        for f in &fragments {
            let frag = catalog.frag(&f.id).unwrap();
            assert_eq!(
                idx.occurrences(kw, frag),
                f.occurrences("burger"),
                "probe for {}",
                f.id
            );
        }
        let sorted = InvertedFragmentIndex::build(&catalog, &fragments).unwrap();
        for word in ["burger", "coffee", "thai"] {
            assert_eq!(idx.postings(word), sorted.postings(word), "{word}");
        }
    }

    #[test]
    fn keywords_by_df_ranks_hot_first() {
        let (_, idx) = build();
        let ranked = idx.keywords_by_df();
        assert_eq!(ranked[0], ("burger", 3));
        assert_eq!(idx.keyword_count(), ranked.len());
    }
}

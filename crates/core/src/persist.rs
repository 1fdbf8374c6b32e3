//! Engine persistence: save a built engine's arenas to a compact
//! binary image and load it back without re-crawling or re-building.
//!
//! A search engine builds its index rarely and serves it constantly; the
//! paper's crawls take hours (Figure 10), so shipping the built engine
//! to the serving tier matters. The format is a small self-describing
//! binary codec with no external dependencies; everything an engine
//! needs round-trips exactly, so a loaded engine is byte-for-byte the
//! engine that was saved (tested).
//!
//! # Record codec
//!
//! Fragments and values share one length-prefixed little-endian record
//! codec. A fragment is its identifier arity and values, its record
//! count, and its keyword/occurrence entries in `BTreeMap` order (a
//! count is written as a u64; the decoder refuses one above
//! `u32::MAX`, since no posting can hold it). A
//! value is a tag byte — `0`=Null, `1`=Int (i64), `2`=Decimal (cents
//! i64), `3`=Str (u64 length + UTF-8, ≤ 2^24 bytes), `4`=Date (u16 year,
//! u8 month, u8 day) — then its payload. The image's identifier column
//! uses the value codec; [`wire`](crate::wire) ships a delta's added
//! fragments as records.
//!
//! # Arena images (`DASHIMG4`)
//!
//! The image stores every fact once. The dump format *is* the
//! arenas' in-memory layout: the columns of [`FragmentCatalog`] and of
//! [`InvertedFragmentIndex`] (both posting arenas plus the shared
//! list-ref table) are written as fixed-width little-endian arrays, so
//! a shard loads by bulk-reading bytes back into columns instead of
//! re-running `build` — no BTreeMap materialization, no per-posting
//! interning, no TF re-sorts. The catalog section stores whole
//! identifiers, one per handle; the loader decodes each straight into
//! the catalog's columns (its group key interned once per group, its
//! range value appended to the range column), and the writer reads
//! them back off the columns.
//!
//! The [`FragmentGraph`] is a function of the catalog and of which
//! handles are live, so its section is only the handles that are *not*
//! live (fragments maintenance removed; empty for an engine that never
//! removed one), sorted. The loader rebuilds the graph from the catalog
//! minus those handles ([`FragmentGraph::build`], the bulk build's own
//! path), the interner's word → handle slot table in one O(n) pass,
//! and each group's vocabulary in one pass over the probe arena, which
//! also refuses a total-keyword column lowered under a fragment's
//! occurrences; the catalog's identifier-ordered handle column waits
//! for the first delta. Group keys, their order and the node weights live in the
//! catalog alone, so no two copies of a fact can disagree in an image
//! that loads, and two engines holding the same handles and live set
//! dump the same image regardless of maintenance history.
//!
//! Everything after the magic is framed in checksummed *sections*:
//!
//! | field | bytes | meaning |
//! |---|---|---|
//! | tag | 4 | section kind (below) |
//! | reserved | 4 | must be 0 |
//! | length | 8 | payload bytes |
//! | payload | length | section body |
//! | checksum | 8 | mixes every payload byte; any bit flip is detected |
//!
//! File layout: magic, one `0x01` header section (shard count ≤ 2^16,
//! range position with `u64::MAX` = none), then per shard the six
//! sections in order:
//!
//! | tag | section | payload |
//! |---|---|---|
//! | `0x10` | catalog | count; identifiers (per handle: arity, then values by the value codec); total-keyword u64 column; record-count u64 column |
//! | `0x11` | words | count; blob length; word-length u32 column; UTF-8 blob |
//! | `0x12` | lists | list count; start u32 column; len u32 column — the refs must tile both arenas in handle order (each start = the sum of the lengths before it, the last list ending at the posting count) |
//! | `0x13` | tf arena | posting count; frag u32 column; occurrence u32 column |
//! | `0x14` | probe arena | posting count; frag u32 column; occurrence u32 column — no posting may name a dead handle |
//! | `0x15` | graph | dead count; dead-handle u32 column, strictly ascending, each below the catalog count |
//!
//! TF is not in the image: like the engine, the loader derives it from
//! the occurrence column and the catalog's totals when it needs it.
//! Neither is the live fragment count, which is the catalog count minus
//! the dead handles. Older versions are refused as unsupported:
//! `DASHIMG2` stored TF, and `DASHIMG3` stored the fragment count and
//! each group's key, node run and weights beside the catalog's.
//!
//! A torn or bit-flipped file fails its section checksum (or a
//! structural length check) before any engine state is touched — the
//! replication layer relies on this to reject half-transferred
//! SNAPSHOT frames. Entry points are
//! [`ShardedEngine::write_image`](crate::ShardedEngine::write_image) /
//! [`IngestSource::Image`](crate::IngestSource::Image).

use std::collections::BTreeMap;
use std::io::{self, Read, Write};

use dash_relation::{Date, Decimal, Value};

use crate::fragment::{Fragment, FragmentId};
use crate::index::{
    Frag, FragmentCatalog, FragmentGraph, FragmentIndex, InvertedFragmentIndex, KeywordInterner,
    Posting,
};
use crate::par;

const IMAGE_MAGIC: &[u8; 8] = b"DASHIMG4";

/// The shared record codec: a length-prefixed fragment list.
pub(crate) fn write_fragment_list<W: Write>(
    writer: &mut W,
    fragments: &[Fragment],
) -> io::Result<()> {
    write_u64(writer, fragments.len() as u64)?;
    for f in fragments {
        write_one_fragment(writer, f)?;
    }
    Ok(())
}

/// One fragment through the record codec.
fn write_one_fragment<W: Write>(writer: &mut W, f: &Fragment) -> io::Result<()> {
    write_u64(writer, f.id.values().len() as u64)?;
    for v in f.id.values() {
        write_value(writer, v)?;
    }
    write_u64(writer, f.record_count)?;
    write_u64(writer, f.keyword_occurrences.len() as u64)?;
    for (kw, &n) in &f.keyword_occurrences {
        write_str(writer, kw)?;
        write_u64(writer, n)?;
    }
    Ok(())
}

/// Reads one length-prefixed fragment list. Decode errors name the
/// fragment record they broke in, so a torn file is diagnosable from
/// the message alone instead of surfacing as a bare codec error.
pub(crate) fn read_fragment_list<R: Read>(reader: &mut R) -> io::Result<Vec<Fragment>> {
    let count = read_u64(reader)?;
    let mut fragments = Vec::with_capacity(count.min(1 << 20) as usize);
    for i in 0..count {
        fragments.push(
            read_one_fragment(reader).map_err(|e| with_context(&format!("fragment {i}"), e))?,
        );
    }
    Ok(fragments)
}

fn read_one_fragment<R: Read>(reader: &mut R) -> io::Result<Fragment> {
    let arity = read_u64(reader)?;
    if arity > 64 {
        return Err(invalid("identifier arity out of bounds"));
    }
    let mut values = Vec::with_capacity(arity as usize);
    for _ in 0..arity {
        values.push(read_value(reader)?);
    }
    let record_count = read_u64(reader)?;
    let keywords = read_u64(reader)?;
    let mut occ = BTreeMap::new();
    for _ in 0..keywords {
        let kw = read_str(reader)?;
        let n = read_u64(reader)?;
        if n > u64::from(u32::MAX) {
            return Err(invalid(
                "occurrence count exceeds what a posting holds (u32)",
            ));
        }
        occ.insert(kw, n);
    }
    Ok(Fragment::new(FragmentId::new(values), occ, record_count))
}

// ---------------------------------------------------------------------
// Arena images
// ---------------------------------------------------------------------

const SEC_HEADER: u32 = 0x01;
const SEC_CATALOG: u32 = 0x10;
const SEC_WORDS: u32 = 0x11;
const SEC_LISTS: u32 = 0x12;
const SEC_TF: u32 = 0x13;
const SEC_PROBE: u32 = 0x14;
const SEC_GRAPH: u32 = 0x15;

/// `range_position` encoding for "no range attribute".
const NO_RANGE: u64 = u64::MAX;

/// Serializes a sharded engine's per-shard indexes as one arena
/// image (header + six checksummed sections per shard).
pub(crate) fn write_image<W: Write>(
    mut writer: W,
    range_position: Option<usize>,
    shards: &[&FragmentIndex],
) -> io::Result<()> {
    writer.write_all(IMAGE_MAGIC)?;
    let mut header = Vec::with_capacity(16);
    write_u64(&mut header, shards.len() as u64)?;
    write_u64(&mut header, range_position.map_or(NO_RANGE, |p| p as u64))?;
    write_section(&mut writer, SEC_HEADER, &header)?;
    for index in shards {
        write_index_image(&mut writer, index)?;
    }
    Ok(())
}

/// Deserializes an arena image back into per-shard indexes, verifying
/// every section checksum — a torn or bit-flipped image errors before
/// any index is assembled. Returns the dumped range position alongside
/// the shards so the caller can cross-check it against its application.
pub(crate) fn read_image(bytes: &[u8]) -> io::Result<(Option<usize>, Vec<FragmentIndex>)> {
    let mut r = bytes;
    let magic = take(&mut r, 8, "magic number")?;
    if magic != IMAGE_MAGIC {
        return Err(magic_mismatch(magic));
    }
    let mut header = read_section(&mut r, SEC_HEADER)?;
    let shard_count = take_u64(&mut header, "shard count")?;
    if shard_count > (1 << 16) {
        return Err(invalid("shard count out of bounds"));
    }
    let range_raw = take_u64(&mut header, "range position")?;
    ensure_consumed(header, "header section")?;
    let range_position = match range_raw {
        NO_RANGE => None,
        p if p > 64 => return Err(invalid("range position out of bounds")),
        p => Some(p as usize),
    };
    let mut parts = Vec::with_capacity(shard_count as usize);
    for s in 0..shard_count {
        parts.push(
            read_index_image(&mut r, range_position)
                .map_err(|e| with_context(&format!("shard {s}"), e))?,
        );
    }
    if !r.is_empty() {
        return Err(invalid("trailing bytes after the last shard image"));
    }
    // The groups' vocabulary is derived, not stored: one pass over each
    // shard's probe arena, the shards in parallel. The same pass
    // refuses a total-keyword column lowered under its occurrences.
    let shards = par::map(parts, |(catalog, inverted, graph)| {
        FragmentIndex::assemble(catalog, inverted, graph)
    })
    .into_iter()
    .enumerate()
    .map(|(s, index)| index.map_err(|e| invalid(&format!("shard {s}: {e}"))))
    .collect::<io::Result<Vec<_>>>()?;
    Ok((range_position, shards))
}

/// Writes one shard's `FragmentIndex` as its six sections. Each
/// section's payload is staged in a reused buffer (peak extra memory =
/// the largest single section, not the whole image).
fn write_index_image<W: Write>(w: &mut W, index: &FragmentIndex) -> io::Result<()> {
    let mut payload = Vec::new();

    // Catalog: identifiers (value codec), each read off the catalog's
    // columns as a view, then the two u64 columns.
    let catalog = &index.catalog;
    let (totals, records) = catalog.image_columns();
    write_u64(&mut payload, catalog.len() as u64)?;
    for frag in (0..catalog.len() as u32).map(Frag) {
        write_u64(&mut payload, catalog.arity(frag) as u64)?;
        for v in catalog.values(frag) {
            write_value(&mut payload, v)?;
        }
    }
    for &t in totals {
        payload.extend_from_slice(&t.to_le_bytes());
    }
    for &rc in records {
        payload.extend_from_slice(&rc.to_le_bytes());
    }
    write_section(w, SEC_CATALOG, &payload)?;
    payload.clear();

    // Interner words: length column + one concatenated UTF-8 blob.
    let words = index.inverted.image_interner().image_words();
    write_u64(&mut payload, words.len() as u64)?;
    let blob_len: u64 = words.iter().map(|word| word.len() as u64).sum();
    write_u64(&mut payload, blob_len)?;
    for word in words {
        payload.extend_from_slice(&(word.len() as u32).to_le_bytes());
    }
    for word in words {
        payload.extend_from_slice(word.as_bytes());
    }
    write_section(w, SEC_WORDS, &payload)?;
    payload.clear();

    // The shared list-ref table, as (start, len) columns.
    write_u64(&mut payload, index.inverted.image_lists().len() as u64)?;
    for (start, _) in index.inverted.image_lists() {
        payload.extend_from_slice(&start.to_le_bytes());
    }
    for (_, len) in index.inverted.image_lists() {
        payload.extend_from_slice(&len.to_le_bytes());
    }
    write_section(w, SEC_LISTS, &payload)?;
    payload.clear();

    // The two posting arenas, each column-major: frag, occurrences.
    write_arena(&mut payload, index.inverted.image_tf_arena())?;
    write_section(w, SEC_TF, &payload)?;
    payload.clear();
    write_arena(&mut payload, index.inverted.image_probe_arena())?;
    write_section(w, SEC_PROBE, &payload)?;
    payload.clear();

    // Graph: the handles without a live node, ascending.
    let dead: Vec<Frag> = (0..catalog.len() as u32)
        .map(Frag)
        .filter(|&frag| index.graph.locate(frag).is_none())
        .collect();
    write_u64(&mut payload, dead.len() as u64)?;
    for frag in dead {
        payload.extend_from_slice(&frag.0.to_le_bytes());
    }
    write_section(w, SEC_GRAPH, &payload)?;
    Ok(())
}

/// Reads one shard's six sections back into the parts of a
/// `FragmentIndex`, checked.
fn read_index_image(
    r: &mut &[u8],
    range_position: Option<usize>,
) -> io::Result<(FragmentCatalog, InvertedFragmentIndex, FragmentGraph)> {
    // Catalog.
    let mut p = read_section(r, SEC_CATALOG)?;
    // Identifiers decode straight into the catalog's columns through
    // one reused value buffer.
    let count = take_u64(&mut p, "catalog count")? as usize;
    let mut catalog = FragmentCatalog::for_image(range_position, count.min(1 << 20));
    let mut values = Vec::new();
    for _ in 0..count {
        let arity = take_u64(&mut p, "identifier arity")?;
        if arity > 64 {
            return Err(invalid("identifier arity out of bounds"));
        }
        values.clear();
        for _ in 0..arity {
            values.push(read_value(&mut p)?);
        }
        if !catalog.push_image_id(&values) {
            return Err(invalid("identifier holds no value at the range position"));
        }
    }
    let totals = take_u64_col(&mut p, count, "total-keyword column")?;
    let records = take_u64_col(&mut p, count, "record-count column")?;
    ensure_consumed(p, "catalog section")?;
    catalog.set_image_columns(totals, records);

    // Interner words.
    let mut p = read_section(r, SEC_WORDS)?;
    let word_count = take_u64(&mut p, "word count")? as usize;
    let blob_len = take_u64(&mut p, "word blob length")? as usize;
    let lens = take_u32_col(&mut p, word_count, "word-length column")?;
    let blob = take(&mut p, blob_len, "word blob")?;
    ensure_consumed(p, "words section")?;
    if lens.iter().map(|&l| l as u64).sum::<u64>() != blob_len as u64 {
        return Err(invalid("word lengths do not cover the word blob"));
    }
    let mut words = Vec::with_capacity(word_count);
    let mut at = 0usize;
    for len in lens {
        let bytes = &blob[at..at + len as usize];
        at += len as usize;
        words.push(
            std::str::from_utf8(bytes)
                .map_err(|_| invalid("interned word is not UTF-8"))?
                .to_string(),
        );
    }
    let interner = KeywordInterner::from_image_words(words);

    // List refs.
    let mut p = read_section(r, SEC_LISTS)?;
    let list_count = take_u64(&mut p, "list count")? as usize;
    if list_count != interner.len() {
        return Err(invalid("list count does not match interned word count"));
    }
    let starts = take_u32_col(&mut p, list_count, "list-start column")?;
    let lens = take_u32_col(&mut p, list_count, "list-length column")?;
    ensure_consumed(p, "lists section")?;

    // The two posting arenas, in their final sort orders.
    let tf_arena = read_arena(&mut read_section(r, SEC_TF)?, "TF")?;
    let probe_arena = read_arena(&mut read_section(r, SEC_PROBE)?, "probe")?;
    let tf_count = tf_arena.len();
    if probe_arena.len() != tf_count {
        return Err(invalid("probe arena length does not match TF arena"));
    }
    // The lists tile the arenas in handle order — no overlap, no gap,
    // nothing running backwards: in-place maintenance slides them by
    // their offsets, so a torn table must fail here, not mis-splice
    // at the first delta.
    let mut at = 0u64;
    for (&start, &len) in starts.iter().zip(&lens) {
        if start as u64 != at {
            return Err(invalid("list refs are not contiguous in handle order"));
        }
        at += len as u64;
    }
    if at != tf_count as u64 {
        return Err(invalid("list refs do not cover the arena"));
    }
    let frag_bound = count as u32;
    if tf_arena
        .iter()
        .map(|p| p.frag.0)
        .chain(probe_arena.iter().map(|e| e.frag.0))
        .any(|f| f >= frag_bound)
    {
        return Err(invalid("posting frag handle out of catalog bounds"));
    }

    // Graph: the dead handles, strictly ascending (sorted, no
    // duplicates) and inside the catalog; a removed fragment holds no
    // posting.
    let mut p = read_section(r, SEC_GRAPH)?;
    let dead_count = take_u64(&mut p, "dead count")? as usize;
    let dead: Vec<Frag> = take_u32_col(&mut p, dead_count, "dead-handle column")?
        .into_iter()
        .map(Frag)
        .collect();
    ensure_consumed(p, "graph section")?;
    if !dead.is_sorted_by(|a, b| a < b) {
        return Err(invalid("dead handles are not strictly ascending"));
    }
    if dead.last().is_some_and(|f| f.0 >= frag_bound) {
        return Err(invalid("dead handle out of catalog bounds"));
    }
    let graph = FragmentGraph::build(&catalog, &dead);
    if !dead.is_empty() && probe_arena.iter().any(|p| graph.locate(p.frag).is_none()) {
        return Err(invalid("a posting names a dead handle"));
    }
    let inverted = InvertedFragmentIndex::from_image_parts(
        interner,
        starts.into_iter().zip(lens).collect(),
        tf_arena,
        probe_arena,
    );
    Ok((catalog, inverted, graph))
}

/// One posting arena's section payload: the posting count, then the
/// frag u32 column and the occurrence u32 column.
fn write_arena(payload: &mut Vec<u8>, arena: &[Posting]) -> io::Result<()> {
    write_u64(payload, arena.len() as u64)?;
    for p in arena {
        payload.extend_from_slice(&p.frag.0.to_le_bytes());
    }
    for p in arena {
        payload.extend_from_slice(&p.occurrences.to_le_bytes());
    }
    Ok(())
}

/// Decodes a posting arena's section payload (see [`write_arena`]).
/// The arena IS the wire format (two fixed-width LE columns), so
/// decode is a single fused pass straight into the final
/// `Vec<Posting>` — no intermediate column vectors. At
/// million-fragment scale the intermediates are megabytes of
/// freshly-faulted pages each; fusing them away is most of the
/// arena-vs-parse load win.
fn read_arena(p: &mut &[u8], arena: &str) -> io::Result<Vec<Posting>> {
    let count = take_u64(p, &format!("{arena} posting count"))? as usize;
    let frags = take_col(p, count, 4, &format!("{arena} frag column"))?;
    let occurrences = take_col(p, count, 4, &format!("{arena} occurrence column"))?;
    ensure_consumed(p, &format!("{arena} section"))?;
    let word = |c: &[u8]| u32::from_le_bytes(c.try_into().expect("4-byte chunk"));
    Ok(frags
        .chunks_exact(4)
        .zip(occurrences.chunks_exact(4))
        .map(|(f, o)| Posting {
            frag: Frag(word(f)),
            occurrences: word(o),
        })
        .collect())
}

/// Frames one section: tag, reserved word, payload length, payload,
/// checksum.
fn write_section<W: Write>(w: &mut W, tag: u32, payload: &[u8]) -> io::Result<()> {
    w.write_all(&tag.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    write_u64(w, payload.len() as u64)?;
    w.write_all(payload)?;
    write_u64(w, checksum64(payload))
}

/// Unframes the next section, requiring tag `want` and a matching
/// checksum.
fn read_section<'a>(r: &mut &'a [u8], want: u32) -> io::Result<&'a [u8]> {
    let tag = take_u32(r, "section tag")?;
    if tag != want {
        return Err(invalid(&format!(
            "unexpected section tag {tag:#x} (wanted {want:#x})"
        )));
    }
    let reserved = take_u32(r, "section reserved field")?;
    if reserved != 0 {
        return Err(invalid("nonzero reserved section field"));
    }
    let len = take_u64(r, "section length")?;
    if len.checked_add(8).is_none_or(|need| need > r.len() as u64) {
        return Err(invalid("section length exceeds remaining image"));
    }
    let payload = take(r, len as usize, "section payload")?;
    let stored = take_u64(r, "section checksum")?;
    if stored != checksum64(payload) {
        return Err(invalid("section checksum mismatch — corrupt or torn image"));
    }
    Ok(payload)
}

/// A fast 64-bit mixing checksum over `bytes`, word-at-a-time. Every
/// step (xor, odd multiply, rotate) is a bijection of the running
/// state, so *any* single-bit flip in the input is guaranteed to change
/// the sum; multi-bit corruption escapes with probability ~2^-64.
fn checksum64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (bytes.len() as u64).wrapping_mul(K);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let word = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ word).wrapping_mul(K).rotate_left(29);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(tail))
            .wrapping_mul(K)
            .rotate_left(29);
    }
    h
}

/// Splits the next `n` bytes off the front of `r`.
fn take<'a>(r: &mut &'a [u8], n: usize, what: &str) -> io::Result<&'a [u8]> {
    if r.len() < n {
        return Err(invalid(&format!("truncated image: {what}")));
    }
    let (head, rest) = r.split_at(n);
    *r = rest;
    Ok(head)
}

fn take_u32(r: &mut &[u8], what: &str) -> io::Result<u32> {
    let bytes = take(r, 4, what)?;
    Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
}

fn take_u64(r: &mut &[u8], what: &str) -> io::Result<u64> {
    let bytes = take(r, 8, what)?;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

/// Splits off a fixed-width column of `n` entries of `width` bytes,
/// unconverted — for fused decodes that parse straight into a final
/// arena type.
fn take_col<'a>(r: &mut &'a [u8], n: usize, width: usize, what: &str) -> io::Result<&'a [u8]> {
    let len = n
        .checked_mul(width)
        .ok_or_else(|| invalid("column length overflow"))?;
    take(r, len, what)
}

/// Bulk-reads a fixed-width u32 column of `n` entries.
fn take_u32_col(r: &mut &[u8], n: usize, what: &str) -> io::Result<Vec<u32>> {
    let len = n
        .checked_mul(4)
        .ok_or_else(|| invalid("column length overflow"))?;
    let bytes = take(r, len, what)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect())
}

/// Bulk-reads a fixed-width u64 column of `n` entries.
fn take_u64_col(r: &mut &[u8], n: usize, what: &str) -> io::Result<Vec<u64>> {
    let len = n
        .checked_mul(8)
        .ok_or_else(|| invalid("column length overflow"))?;
    let bytes = take(r, len, what)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect())
}

fn ensure_consumed(rest: &[u8], what: &str) -> io::Result<()> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(invalid(&format!("trailing bytes in {what}")))
    }
}

/// Diagnoses a magic mismatch (`found` is the file's first 8 bytes,
/// already split off): an unsupported image version and
/// another Dash file kind (such as a retired fragment dump) each get
/// their own message, so a stale or foreign file does not surface as a
/// bare "bad magic".
fn magic_mismatch(found: &[u8]) -> io::Error {
    if found[..7] == IMAGE_MAGIC[..7] {
        return invalid(&format!(
            "unsupported arena image version '{}' (this build reads '{}')",
            found[7] as char, IMAGE_MAGIC[7] as char
        ));
    }
    if found.starts_with(b"DASH") {
        return invalid("not a Dash arena image: the magic names a different Dash dump kind");
    }
    invalid("bad magic number; not a Dash arena image")
}

pub(crate) fn write_value<W: Write>(w: &mut W, v: &Value) -> io::Result<()> {
    match v {
        Value::Null => w.write_all(&[0]),
        Value::Int(i) => {
            w.write_all(&[1])?;
            w.write_all(&i.to_le_bytes())
        }
        Value::Decimal(d) => {
            w.write_all(&[2])?;
            w.write_all(&d.cents().to_le_bytes())
        }
        Value::Str(s) => {
            w.write_all(&[3])?;
            write_str(w, s)
        }
        Value::Date(d) => {
            w.write_all(&[4])?;
            w.write_all(&d.year().to_le_bytes())?;
            w.write_all(&[d.month(), d.day()])
        }
    }
}

pub(crate) fn read_value<R: Read>(r: &mut R) -> io::Result<Value> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    Ok(match tag[0] {
        0 => Value::Null,
        1 => Value::Int(read_i64(r)?),
        2 => Value::Decimal(Decimal::from_cents(read_i64(r)?)),
        3 => Value::Str(read_str(r)?),
        4 => {
            let mut year = [0u8; 2];
            r.read_exact(&mut year)?;
            let mut md = [0u8; 2];
            r.read_exact(&mut md)?;
            Value::Date(Date::new(u16::from_le_bytes(year), md[0], md[1]))
        }
        other => return Err(invalid(&format!("unknown value tag {other}"))),
    })
}

pub(crate) fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

pub(crate) fn read_i64<R: Read>(r: &mut R) -> io::Result<i64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(i64::from_le_bytes(buf))
}

pub(crate) fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

pub(crate) fn read_str<R: Read>(r: &mut R) -> io::Result<String> {
    let len = read_u64(r)?;
    if len > (1 << 24) {
        return Err(invalid("string length out of bounds"));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| invalid("string is not UTF-8"))
}

pub(crate) fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Wraps an error with a locating prefix, preserving its kind (so
/// `UnexpectedEof` stays recognizable through the context).
pub(crate) fn with_context(what: &str, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::reference;
    use crate::ingest::IngestSource;
    use crate::search::SearchRequest;
    use crate::sharded::ShardedEngine;
    use crate::update::IndexDelta;
    use dash_webapp::fooddb;

    fn fooddb_fragments() -> Vec<Fragment> {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        reference::fragments(&app, &db).unwrap()
    }

    fn record_roundtrip(fragments: &[Fragment]) -> Vec<Fragment> {
        let mut buf = Vec::new();
        write_fragment_list(&mut buf, fragments).unwrap();
        let mut reader = buf.as_slice();
        let back = read_fragment_list(&mut reader).unwrap();
        assert!(
            reader.is_empty(),
            "the list reads exactly the bytes it wrote"
        );
        back
    }

    #[test]
    fn a_lowered_total_column_fails_the_load() {
        let fragments = vec![
            Fragment::new(
                FragmentId::new(vec![Value::str("A"), Value::Int(1)]),
                [("burger".to_string(), 2), ("fries".to_string(), 1)].into(),
                1,
            ),
            Fragment::new(
                FragmentId::new(vec![Value::str("B"), Value::Int(1)]),
                [("burger".to_string(), 1)].into(),
                1,
            ),
        ];
        let mut index = FragmentIndex::build(&fragments, Some(1)).unwrap();
        let frag = index.catalog.frag(&fragments[0].id).unwrap();
        let mut lowered = fragments[0].clone();
        lowered.total_keywords = 2;
        index.catalog.refresh(frag, &lowered);
        let mut bytes = Vec::new();
        write_image(&mut bytes, Some(1), &[&index]).unwrap();
        let err = read_image(&bytes).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("past its total of 2"), "{err}");
    }

    #[test]
    fn roundtrip_preserves_fragments() {
        let fragments = fooddb_fragments();
        assert_eq!(record_roundtrip(&fragments), fragments);
    }

    #[test]
    fn loaded_engine_equals_built_engine() {
        let app = fooddb::search_application().unwrap();
        let fragments = fooddb_fragments();
        let built = ShardedEngine::builder(app.clone())
            .shards(2)
            .source(IngestSource::Fragments(&fragments))
            .build()
            .unwrap();
        let mut image = Vec::new();
        built.write_image(&mut image).unwrap();
        let loaded = ShardedEngine::builder(app.clone())
            .source(IngestSource::Image(&image))
            .build()
            .unwrap();
        let single = ShardedEngine::builder(app)
            .source(IngestSource::Fragments(&fragments))
            .build()
            .unwrap();
        for kw in ["burger", "fries", "coffee"] {
            let req = SearchRequest::new(&[kw]).k(5).min_size(20);
            assert_eq!(loaded.search(&req), single.search(&req), "{kw}");
        }
    }

    #[test]
    fn all_value_types_roundtrip() {
        let mut occ = BTreeMap::new();
        occ.insert("w".to_string(), 3);
        let fragment = Fragment::new(
            FragmentId::new(vec![
                Value::Null,
                Value::Int(-42),
                Value::decimal(-1250),
                Value::str("héllo wörld"),
                Value::Date(Date::new(2012, 6, 21)),
            ]),
            occ,
            7,
        );
        let fragments = vec![fragment];
        assert_eq!(record_roundtrip(&fragments), fragments);
    }

    #[test]
    fn corrupt_inputs_rejected() {
        // Truncated stream.
        let fragments = fooddb_fragments();
        let mut buf = Vec::new();
        write_fragment_list(&mut buf, &fragments).unwrap();
        let err = read_fragment_list(&mut &buf[..buf.len() / 2]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Unknown tag.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u64.to_le_bytes()); // one fragment
        bad.extend_from_slice(&1u64.to_le_bytes()); // arity 1
        bad.push(99); // bogus value tag
        let err = read_fragment_list(&mut bad.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn magic_errors_distinguish_kind_and_version() {
        // An unsupported *version* of the image names the version.
        let err = read_image(b"DASHIMG9").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version"), "{err}");
        // A retired fragment dump is named as another Dash kind...
        let err = read_image(b"DASHFRG1").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("different Dash dump kind"),
            "{err}"
        );
        // ...and a foreign file is not mistaken for either.
        let err = read_image(b"PNGJPEGX").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn dashimg2_and_dashimg3_images_are_unsupported_versions() {
        // `DASHIMG2` stored TF and 8-byte counts, `DASHIMG3` the
        // fragment count and every group's key, node run and weights
        // beside the catalog's own; their sections do not parse as this
        // format's, so the magic refuses them up front.
        let index = FragmentIndex::build(&fooddb_fragments(), Some(1)).unwrap();
        let mut image = Vec::new();
        write_image(&mut image, Some(1), &[&index]).unwrap();
        assert_eq!(&image[..8], b"DASHIMG4");
        for version in ['2', '3'] {
            image[7] = version as u8;
            let err = read_image(&image).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let expected =
                format!("unsupported arena image version '{version}' (this build reads '4')");
            assert!(err.to_string().contains(&expected), "{err}");
        }
    }

    #[test]
    fn decode_errors_name_the_breaking_record() {
        let fragments = fooddb_fragments();
        let mut buf = Vec::new();
        write_fragment_list(&mut buf, &fragments).unwrap();
        // Tear the stream inside the last fragment: the error must
        // locate the record instead of surfacing as a bare codec error,
        // while the EOF kind stays recognizable through the context.
        let err = read_fragment_list(&mut &buf[..buf.len() - 3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let last = fragments.len() - 1;
        assert!(
            err.to_string().contains(&format!("fragment {last}")),
            "{err}"
        );
    }

    #[test]
    fn empty_set_roundtrips() {
        assert!(record_roundtrip(&[]).is_empty());
    }

    #[test]
    fn sharded_dump_roundtrips_with_empty_shards() {
        let fragments = fooddb_fragments();
        let head = FragmentIndex::build(&fragments[..2], Some(1)).unwrap();
        let empty = FragmentIndex::build(&[], Some(1)).unwrap();
        let tail = FragmentIndex::build(&fragments[2..], Some(1)).unwrap();
        let mut image = Vec::new();
        write_image(&mut image, Some(1), &[&head, &empty, &tail]).unwrap();
        // An empty shard survives the image, in position.
        let (range, shards) = read_image(&image).unwrap();
        assert_eq!(range, Some(1));
        let sizes: Vec<usize> = shards.iter().map(|s| s.catalog.len()).collect();
        assert_eq!(sizes, vec![2, 0, fragments.len() - 2]);
        let mut again = Vec::new();
        write_image(&mut again, Some(1), &shards.iter().collect::<Vec<_>>()).unwrap();
        assert_eq!(again, image);
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        let bytes: Vec<u8> = (0u16..100).map(|i| (i * 7) as u8).collect();
        let reference = checksum64(&bytes);
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&flipped), reference, "bit {bit} undetected");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        // Length extension is not a collision either.
        let mut longer = bytes.clone();
        longer.push(0);
        assert_ne!(checksum64(&longer), reference);
    }

    #[test]
    fn arena_image_roundtrips_byte_identically() {
        let fragments = fooddb_fragments();
        let index = FragmentIndex::build(&fragments, Some(1)).unwrap();
        let mut buf = Vec::new();
        write_image(&mut buf, Some(1), &[&index]).unwrap();
        let (range, shards) = read_image(&buf).unwrap();
        assert_eq!(range, Some(1));
        assert_eq!(shards.len(), 1);
        let loaded = &shards[0];
        // Arenas are bit-identical, not merely equivalent.
        assert_eq!(
            loaded.inverted.image_tf_arena(),
            index.inverted.image_tf_arena()
        );
        assert_eq!(
            loaded.inverted.image_probe_arena(),
            index.inverted.image_probe_arena()
        );
        assert_eq!(
            loaded.inverted.image_lists().collect::<Vec<_>>(),
            index.inverted.image_lists().collect::<Vec<_>>()
        );
        assert_eq!(loaded.catalog.len(), index.catalog.len());
        for frag in (0..index.catalog.len() as u32).map(Frag) {
            assert_eq!(loaded.catalog.id(frag), index.catalog.id(frag));
        }
        assert_eq!(
            loaded.catalog.image_columns(),
            index.catalog.image_columns()
        );
        assert_eq!(loaded.graph.node_count(), index.graph.node_count());
        assert_eq!(loaded.graph.edge_count(), index.graph.edge_count());
        assert!(loaded
            .graph
            .iter_groups(&loaded.catalog)
            .eq(index.graph.iter_groups(&index.catalog)));
        // Re-dumping the loaded index reproduces the exact bytes.
        let mut again = Vec::new();
        write_image(&mut again, Some(1), &[&shards[0]]).unwrap();
        assert_eq!(again, buf);
    }

    #[test]
    fn torn_and_flipped_images_rejected() {
        let fragments = fooddb_fragments();
        let index = FragmentIndex::build(&fragments, Some(1)).unwrap();
        let mut buf = Vec::new();
        write_image(&mut buf, Some(1), &[&index]).unwrap();
        // Every truncation point fails.
        for cut in [8, 20, buf.len() / 2, buf.len() - 1] {
            assert!(read_image(&buf[..cut]).is_err(), "cut at {cut} accepted");
        }
        // Every single-bit flip fails (the whole file is covered by
        // either the magic check, a structural check, or a checksum).
        for bit in (0..buf.len() * 8).step_by(101) {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(read_image(&bad).is_err(), "flipped bit {bit} accepted");
        }
        // Trailing garbage fails.
        let mut padded = buf.clone();
        padded.push(0);
        assert!(read_image(&padded).is_err());
    }

    /// `image` with the payload of its first section tagged `tag`
    /// rewritten by `edit`, re-framed and re-checksummed: a hostile
    /// payload inside a well-formed frame (a buggy or hostile writer,
    /// not a torn transfer).
    fn with_section(image: &[u8], tag: u32, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut at = 8usize;
        loop {
            let found = u32::from_le_bytes(image[at..at + 4].try_into().unwrap());
            let len = u64::from_le_bytes(image[at + 8..at + 16].try_into().unwrap()) as usize;
            if found == tag {
                let mut payload = image[at + 16..at + 16 + len].to_vec();
                edit(&mut payload);
                let mut out = image[..at].to_vec();
                write_section(&mut out, tag, &payload).unwrap();
                out.extend_from_slice(&image[at + 16 + len + 8..]);
                return out;
            }
            at += 16 + len + 8;
        }
    }

    #[test]
    fn non_contiguous_list_refs_rejected() {
        // A lists section whose checksum is VALID but whose refs do not
        // tile the arenas in handle order: in-place maintenance would
        // slide the wrong postings, so the loader must refuse it.
        let fragments = fooddb_fragments();
        let index = FragmentIndex::build(&fragments, Some(1)).unwrap();
        let mut image = Vec::new();
        write_image(&mut image, Some(1), &[&index]).unwrap();
        let table: Vec<(u32, u32)> = index.inverted.image_lists().collect();
        let lists = table.len();
        assert!(lists >= 3 && table.iter().all(|&(_, len)| len > 0));
        // Copies with some u32 cells of the start / len columns (which
        // follow the u64 list count) overwritten.
        let start_of = |i: usize| 8 + 4 * i;
        let len_of = |i: usize| 8 + 4 * (lists + i);
        let patched = |cells: &[(usize, u32)]| {
            with_section(&image, SEC_LISTS, |payload| {
                for &(at, value) in cells {
                    payload[at..at + 4].copy_from_slice(&value.to_le_bytes());
                }
            })
        };
        assert!(patched(&[]) == image);
        let cases: [(&str, Vec<(usize, u32)>); 4] = [
            ("overlap", vec![(start_of(1), table[1].0 - 1)]),
            ("gap", vec![(start_of(1), table[1].0 + 1)]),
            (
                "backwards",
                vec![(start_of(1), table[2].0), (start_of(2), table[1].0)],
            ),
            (
                "short cover",
                vec![(len_of(lists - 1), table[lists - 1].1 - 1)],
            ),
        ];
        for (what, cells) in cases {
            let err = read_image(&patched(&cells)).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains("list refs"), "{what}: {err}");
        }
    }

    #[test]
    fn a_hostile_dead_handle_column_is_invalid_data() {
        // Two removals leave dead handles 1 and 3. A graph section that
        // checksums but names a handle outside the catalog, out of
        // order, twice, or one that still holds postings must be
        // refused as `InvalidData`, never panic and never load.
        let fragments = fooddb_fragments();
        let mut index = FragmentIndex::build(&fragments, Some(1)).unwrap();
        assert_eq!(
            index
                .apply(&IndexDelta::removing(vec![fragments[1].id.clone()]))
                .unwrap()
                .removed,
            1
        );
        assert_eq!(
            index
                .apply(&IndexDelta::removing(vec![fragments[3].id.clone()]))
                .unwrap()
                .removed,
            1
        );
        let mut image = Vec::new();
        write_image(&mut image, Some(1), &[&index]).unwrap();
        let with_dead = |count: u64, dead: &[u32]| {
            with_section(&image, SEC_GRAPH, |payload| {
                payload.clear();
                payload.extend_from_slice(&count.to_le_bytes());
                for frag in dead {
                    payload.extend_from_slice(&frag.to_le_bytes());
                }
            })
        };
        assert!(with_dead(2, &[1, 3]) == image);
        let (_, shards) = read_image(&image).unwrap();
        assert_eq!(shards[0].fragment_count(), fragments.len() - 2);
        let bound = fragments.len() as u32;
        let cases: [(&str, Vec<u8>, &str); 6] = [
            (
                "out of bounds",
                with_dead(2, &[1, bound]),
                "out of catalog bounds",
            ),
            (
                "far out of bounds",
                with_dead(1, &[u32::MAX]),
                "out of catalog bounds",
            ),
            ("unsorted", with_dead(2, &[3, 1]), "strictly ascending"),
            ("duplicated", with_dead(2, &[1, 1]), "strictly ascending"),
            (
                "holds postings",
                with_dead(2, &[0, 3]),
                "names a dead handle",
            ),
            ("short column", with_dead(3, &[1, 3]), "truncated"),
        ];
        for (what, bad, message) in cases {
            let err = read_image(&bad).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains(message), "{what}: {err}");
        }
    }
}

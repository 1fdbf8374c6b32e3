//! Wire (de)serialization of the maintenance vocabulary — the codec a
//! distributed DASH deployment ships between nodes.
//!
//! Every mutation goes through one abstraction: an [`IndexDelta`]
//! (stale identifiers out, fresh fragments in), built from the
//! [`RecordChange`] batches the bulk write path takes. Those two types
//! are exactly what a primary streams to its replicas and what an
//! update client POSTs to a server, so they get a first-class binary
//! codec here, sharing the length-prefixed record/value encoding of
//! [`persist`](crate::persist) (the same `u64`/string/`Value`
//! primitives the arena image's identifier columns use, so one codec
//! covers every byte a node ships). A delta's invalidation signature
//! never travels: each node derives it from its own pre-delta state.
//!
//! The format is self-contained and versioned by construction — every
//! list is length-prefixed, every value tagged — and **canonical**:
//! encoding is a pure function of the in-memory value, so
//! encode→decode→encode produces identical bytes (the
//! `wire_roundtrip` test tier proves decode∘encode is the identity
//! over generated deltas and change batches).
//!
//! Framing (length prefixes, epoch stamps, frame tags) is the
//! transport's business — see `dash-net` — not this module's: these
//! functions encode one value each, reading exactly the bytes they
//! wrote.

use std::io::{self, Read, Write};

use dash_relation::Record;

use crate::fragment::FragmentId;
use crate::persist::{
    invalid, read_fragment_list, read_str, read_u64, read_value, write_fragment_list, write_str,
    write_u64, write_value,
};
use crate::update::{IndexDelta, RecordChange};

/// Serializes one [`IndexDelta`]: the remove list (identifiers) then
/// the add list (fragments), both length-prefixed.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_delta<W: Write>(mut writer: W, delta: &IndexDelta) -> io::Result<()> {
    write_u64(&mut writer, delta.removes.len() as u64)?;
    for id in &delta.removes {
        write_fragment_id(&mut writer, id)?;
    }
    write_fragment_list(&mut writer, &delta.adds)
}

/// Deserializes one [`IndexDelta`] written by [`write_delta`].
///
/// # Errors
///
/// Returns `InvalidData` on unknown value tags, malformed UTF-8,
/// out-of-bounds lengths or an occurrence count above `u32::MAX`, and
/// propagates underlying I/O errors (including `UnexpectedEof` on
/// truncation).
pub fn read_delta<R: Read>(mut reader: R) -> io::Result<IndexDelta> {
    let count = read_u64(&mut reader)?;
    if count > (1 << 32) {
        return Err(invalid("delta remove count out of bounds"));
    }
    let mut removes = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        removes.push(read_fragment_id(&mut reader)?);
    }
    let adds = read_fragment_list(&mut reader)?;
    Ok(IndexDelta { removes, adds })
}

/// Serializes one [`RecordChange`]: the relation name then the
/// record's values.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_change<W: Write>(mut writer: W, change: &RecordChange) -> io::Result<()> {
    write_str(&mut writer, &change.relation)?;
    write_u64(&mut writer, change.record.values().len() as u64)?;
    for value in change.record.values() {
        write_value(&mut writer, value)?;
    }
    Ok(())
}

/// Deserializes one [`RecordChange`] written by [`write_change`].
///
/// # Errors
///
/// Same classes as [`read_delta`].
pub fn read_change<R: Read>(mut reader: R) -> io::Result<RecordChange> {
    let relation = read_str(&mut reader)?;
    let arity = read_u64(&mut reader)?;
    if arity > (1 << 16) {
        return Err(invalid("record arity out of bounds"));
    }
    let mut values = Vec::with_capacity(arity as usize);
    for _ in 0..arity {
        values.push(read_value(&mut reader)?);
    }
    Ok(RecordChange::new(relation, Record::new(values)))
}

/// Serializes a length-prefixed [`RecordChange`] batch.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_changes<W: Write>(mut writer: W, changes: &[RecordChange]) -> io::Result<()> {
    write_u64(&mut writer, changes.len() as u64)?;
    for change in changes {
        write_change(&mut writer, change)?;
    }
    Ok(())
}

/// Deserializes a [`RecordChange`] batch written by [`write_changes`].
///
/// # Errors
///
/// Same classes as [`read_delta`].
pub fn read_changes<R: Read>(mut reader: R) -> io::Result<Vec<RecordChange>> {
    let count = read_u64(&mut reader)?;
    if count > (1 << 32) {
        return Err(invalid("change count out of bounds"));
    }
    (0..count).map(|_| read_change(&mut reader)).collect()
}

fn write_fragment_id<W: Write>(writer: &mut W, id: &FragmentId) -> io::Result<()> {
    write_u64(writer, id.values().len() as u64)?;
    for value in id.values() {
        write_value(writer, value)?;
    }
    Ok(())
}

fn read_fragment_id<R: Read>(reader: &mut R) -> io::Result<FragmentId> {
    let arity = read_u64(reader)?;
    if arity > 64 {
        return Err(invalid("fragment identifier arity out of bounds"));
    }
    let mut values = Vec::with_capacity(arity as usize);
    for _ in 0..arity {
        values.push(read_value(reader)?);
    }
    Ok(FragmentId::new(values))
}

/// Convenience: encodes a delta into a fresh byte buffer.
pub fn encode_delta(delta: &IndexDelta) -> Vec<u8> {
    let mut buf = Vec::new();
    write_delta(&mut buf, delta).expect("Vec<u8> writes are infallible");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::Fragment;
    use dash_relation::{Date, Decimal, Value};

    fn sample_delta() -> IndexDelta {
        IndexDelta::new(
            vec![
                FragmentId::new(vec![Value::str("Thai"), Value::Int(10)]),
                FragmentId::new(vec![Value::Null, Value::Date(Date::new(2012, 6, 18))]),
            ],
            vec![Fragment::new(
                FragmentId::new(vec![
                    Value::str("American"),
                    Value::Decimal(Decimal::from_cents(1250)),
                ]),
                [("waffle".to_string(), 2u64), ("syrup".to_string(), 7)]
                    .into_iter()
                    .collect(),
                3,
            )],
        )
    }

    #[test]
    fn delta_roundtrips() {
        let delta = sample_delta();
        let bytes = encode_delta(&delta);
        assert_eq!(read_delta(bytes.as_slice()).unwrap(), delta);
        // Canonical: re-encoding the decoded value is byte-identical.
        assert_eq!(encode_delta(&read_delta(bytes.as_slice()).unwrap()), bytes);
    }

    #[test]
    fn change_batch_roundtrips() {
        let changes = vec![
            RecordChange::new(
                "restaurant",
                Record::new(vec![
                    Value::Int(8),
                    Value::str("Sushi Go"),
                    Value::str("Japanese"),
                    Value::Int(25),
                    Value::str("4.9"),
                ]),
            ),
            RecordChange::new("comment", Record::new(vec![Value::Null])),
        ];
        let mut buf = Vec::new();
        write_changes(&mut buf, &changes).unwrap();
        assert_eq!(read_changes(buf.as_slice()).unwrap(), changes);
    }

    #[test]
    fn truncated_bytes_error_cleanly() {
        let bytes = encode_delta(&sample_delta());
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(read_delta(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn an_occurrence_count_past_u32_is_refused_at_decode() {
        let with_syrup = |count: u64| {
            let mut delta = sample_delta();
            delta.adds[0]
                .keyword_occurrences
                .insert("syrup".to_string(), count);
            encode_delta(&delta)
        };
        assert!(read_delta(with_syrup(u64::from(u32::MAX)).as_slice()).is_ok());
        let err = read_delta(with_syrup(u64::from(u32::MAX) + 1).as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("occurrence count"), "{err}");
    }

    #[test]
    fn empty_delta_is_sixteen_bytes() {
        // Two zero-length prefixes — the steady-state heartbeat cost.
        assert_eq!(encode_delta(&IndexDelta::default()).len(), 16);
    }
}

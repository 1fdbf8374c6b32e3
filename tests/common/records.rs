//! fooddb records the maintenance scenarios insert: a restaurant rated
//! 4.0 and a comment dated 02/12.

use dash::relation::{Record, Value};

pub fn restaurant(rid: i64, name: &str, cuisine: &str, budget: i64) -> Record {
    Record::new(vec![
        Value::Int(rid),
        Value::str(name),
        Value::str(cuisine),
        Value::Int(budget),
        Value::str("4.0"),
    ])
}

pub fn comment(cid: i64, rid: i64, uid: i64, text: &str) -> Record {
    Record::new(vec![
        Value::Int(cid),
        Value::Int(rid),
        Value::Int(uid),
        Value::str(text),
        Value::str("02/12"),
    ])
}

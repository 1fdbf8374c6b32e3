//! The frozen JSON renderer: `dash_net::json::hits_to_json` as it
//! stood before the writer stopped allocating per value — one
//! `format!` per number, a `char`-by-`char` escaper. It is kept
//! verbatim as the byte oracle of the writer that replaced it: every
//! response byte the serving stack writes must equal what this writes
//! for the same hits.

use dash::core::SearchHit;
use dash::relation::Value;

/// Encodes a hit list as a JSON array, fields in declaration order.
pub fn oracle_hits_to_json(hits: &[SearchHit]) -> String {
    let mut out = String::with_capacity(64 * hits.len() + 2);
    out.push('[');
    for (at, hit) in hits.iter().enumerate() {
        if at > 0 {
            out.push(',');
        }
        out.push_str("{\"url\":");
        write_json_str(&mut out, &hit.url);
        out.push_str(",\"query_string\":");
        write_json_str(&mut out, &hit.query_string);
        out.push_str(&format!(",\"score\":{}", hit.score));
        out.push_str(&format!(",\"size\":{}", hit.size));
        out.push_str(",\"fragment_ids\":[");
        for (fat, id) in hit.fragment_ids.iter().enumerate() {
            if fat > 0 {
                out.push(',');
            }
            out.push('[');
            for (vat, value) in id.values().iter().enumerate() {
                if vat > 0 {
                    out.push(',');
                }
                write_json_value(&mut out, value);
            }
            out.push(']');
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

fn write_json_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Int(i) => out.push_str(&format!("{{\"i\":{i}}}")),
        Value::Decimal(d) => out.push_str(&format!("{{\"c\":{}}}", d.cents())),
        Value::Str(s) => {
            out.push_str("{\"s\":");
            write_json_str(out, s);
            out.push('}');
        }
        Value::Date(d) => out.push_str(&format!(
            "{{\"d\":[{},{},{}]}}",
            d.year(),
            d.month(),
            d.day()
        )),
    }
}

/// Writes a JSON string literal with full escaping.
fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

//! Query strings: forward parsing (`c=American&l=10&u=15` → field values)
//! and the building blocks of *reverse query-string parsing* (parameter
//! values → query string), which is how Dash suggests URLs (Section III).

use std::fmt::{self, Write as _};

use dash_relation::{write_i64, ColumnType, Date, Decimal, Value};

use crate::error::WebAppError;

/// An ordered list of `field=value` pairs, as they appear after `?` in a
/// db-page URL.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryString {
    pairs: Vec<(String, String)>,
}

impl QueryString {
    /// Creates an empty query string.
    pub fn new() -> Self {
        QueryString::default()
    }

    /// Parses `a=1&b=two` (the `?` must already be stripped). `+` decodes
    /// to a space, mirroring [`Value::to_query_value`].
    ///
    /// # Errors
    ///
    /// Returns [`WebAppError::QueryString`] on pairs without `=` or empty
    /// field names.
    pub fn parse(text: &str) -> Result<Self, WebAppError> {
        let mut pairs = Vec::new();
        if text.is_empty() {
            return Ok(QueryString { pairs });
        }
        for piece in text.split('&') {
            let (field, value) = piece
                .split_once('=')
                .ok_or_else(|| WebAppError::QueryString {
                    detail: format!("`{piece}` is not a field=value pair"),
                })?;
            if field.is_empty() {
                return Err(WebAppError::QueryString {
                    detail: "empty field name".to_string(),
                });
            }
            pairs.push((field.to_string(), value.replace('+', " ")));
        }
        Ok(QueryString { pairs })
    }

    /// Appends a pair (builder style).
    pub fn with(mut self, field: impl Into<String>, value: impl Into<String>) -> Self {
        self.pairs.push((field.into(), value.into()));
        self
    }

    /// The raw value of `field`, if present.
    pub fn get(&self, field: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(f, _)| f == field)
            .map(|(_, v)| v.as_str())
    }

    /// The pairs in order.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.pairs
    }

    /// Parses the value of `field` as a typed [`Value`].
    ///
    /// # Errors
    ///
    /// Returns [`WebAppError::QueryString`] when the field is missing or
    /// its text does not parse as `ty`.
    pub fn typed_value(&self, field: &str, ty: ColumnType) -> Result<Value, WebAppError> {
        let raw = self.get(field).ok_or_else(|| WebAppError::QueryString {
            detail: format!("missing field `{field}`"),
        })?;
        parse_typed(raw, ty).map_err(|detail| WebAppError::QueryString { detail })
    }
}

/// Parses `raw` as a value of type `ty`.
pub(crate) fn parse_typed(raw: &str, ty: ColumnType) -> Result<Value, String> {
    match ty {
        ColumnType::Int => raw
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| format!("`{raw}` is not an integer")),
        ColumnType::Decimal => Decimal::from_str_exact(raw)
            .map(Value::Decimal)
            .map_err(|e| e.to_string()),
        ColumnType::Str => Ok(Value::str(raw)),
        ColumnType::Date => Date::parse_iso(raw)
            .map(Value::Date)
            .map_err(|e| e.to_string()),
    }
}

/// The query-string value encoder: writes `raw` with every space as
/// `+` (the inverse of [`QueryString::parse`]'s decoding). Both
/// [`QueryString`]'s `Display` and
/// [`WebApplication::render_query_string`](crate::WebApplication::render_query_string)
/// write values through it.
///
/// # Errors
///
/// Only what `out` returns.
pub(crate) fn write_encoded<W: fmt::Write>(out: &mut W, raw: &str) -> fmt::Result {
    let mut parts = raw.split(' ');
    out.write_str(parts.next().unwrap_or_default())?;
    for part in parts {
        out.write_char('+')?;
        out.write_str(part)?;
    }
    Ok(())
}

/// Writes `value` as a query-string value: its
/// [`Value::to_query_value`] text encoded by [`write_encoded`], without
/// allocating that text. Only a `Str` can hold a space, so the other
/// variants write their `Display` text directly.
///
/// # Errors
///
/// Only what `out` returns.
pub(crate) fn write_query_value<W: fmt::Write>(out: &mut W, value: &Value) -> fmt::Result {
    match value {
        Value::Null => Ok(()),
        Value::Int(i) => write_i64(out, *i),
        Value::Decimal(d) => write!(out, "{d}"),
        Value::Str(s) => write_encoded(out, s),
        Value::Date(d) => write!(out, "{d}"),
    }
}

impl fmt::Display for QueryString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (field, value)) in self.pairs.iter().enumerate() {
            if i > 0 {
                f.write_char('&')?;
            }
            write!(f, "{field}=")?;
            write_encoded(f, value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let qs = QueryString::parse("c=American&l=10&u=15").unwrap();
        assert_eq!(qs.get("c"), Some("American"));
        assert_eq!(qs.get("l"), Some("10"));
        assert_eq!(qs.to_string(), "c=American&l=10&u=15");
    }

    #[test]
    fn plus_decodes_to_space() {
        let qs = QueryString::parse("c=New+American").unwrap();
        assert_eq!(qs.get("c"), Some("New American"));
        assert_eq!(qs.to_string(), "c=New+American");
    }

    #[test]
    fn typed_values() {
        let qs = QueryString::parse("a=12&b=12.50&c=hello&d=2011-08-15").unwrap();
        assert_eq!(
            qs.typed_value("a", ColumnType::Int).unwrap(),
            Value::Int(12)
        );
        assert_eq!(
            qs.typed_value("b", ColumnType::Decimal).unwrap(),
            Value::decimal(1250)
        );
        assert_eq!(
            qs.typed_value("c", ColumnType::Str).unwrap(),
            Value::str("hello")
        );
        assert!(matches!(
            qs.typed_value("d", ColumnType::Date).unwrap(),
            Value::Date(_)
        ));
        assert!(qs.typed_value("a", ColumnType::Date).is_err());
        assert!(qs.typed_value("missing", ColumnType::Int).is_err());
    }

    #[test]
    fn malformed_rejected() {
        assert!(QueryString::parse("noequals").is_err());
        assert!(QueryString::parse("=x").is_err());
        assert!(QueryString::parse("").unwrap().pairs().is_empty());
    }

    #[test]
    fn builder() {
        let qs = QueryString::new().with("c", "Thai").with("l", "10");
        assert_eq!(qs.to_string(), "c=Thai&l=10");
    }

    #[test]
    fn empty_value_allowed() {
        let qs = QueryString::parse("c=").unwrap();
        assert_eq!(qs.get("c"), Some(""));
    }
}

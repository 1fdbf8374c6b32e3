//! Typed scalar values.
//!
//! Dash groups records into db-page fragments keyed by *selection attribute
//! values* (the fragment identifier of Definition 2), so every value must be
//! usable as a hash/sort key. That rules out raw floats; money-like
//! quantities use the exact fixed-point [`Decimal`] type instead, matching
//! TPC-H semantics.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

use crate::error::RelationError;

/// A fixed-point decimal with two fractional digits, stored as scaled
/// hundredths (`i64`).
///
/// This is the representation used for TPC-H money columns (`acctbal`,
/// `extendedprice`, ...) and the running example's `budget`. Being an
/// integer under the hood it is `Eq + Ord + Hash` and therefore usable in
/// fragment identifiers.
///
/// ```
/// use dash_relation::Decimal;
/// let d = Decimal::from_cents(1250);
/// assert_eq!(d.to_string(), "12.50");
/// assert_eq!(Decimal::from_str_exact("12.5").unwrap(), d);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Decimal(i64);

impl Decimal {
    /// Creates a decimal from a count of hundredths.
    pub fn from_cents(cents: i64) -> Self {
        Decimal(cents)
    }

    /// Creates a decimal from a whole-unit integer.
    pub fn from_int(units: i64) -> Self {
        Decimal(units * 100)
    }

    /// Returns the scaled hundredths representation.
    pub fn cents(self) -> i64 {
        self.0
    }

    /// Returns the value truncated toward zero to whole units.
    pub fn trunc(self) -> i64 {
        self.0 / 100
    }

    /// Parses a decimal from text with at most two fractional digits.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::ParseValue`] when the text is not a decimal
    /// number or carries more than two fractional digits.
    pub fn from_str_exact(text: &str) -> Result<Self, RelationError> {
        let err = || RelationError::ParseValue {
            text: text.to_string(),
            expected: "Decimal".to_string(),
        };
        let (neg, body) = match text.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, text),
        };
        if body.is_empty() {
            return Err(err());
        }
        let (int_part, frac_part) = match body.split_once('.') {
            Some((i, f)) => (i, f),
            None => (body, ""),
        };
        if frac_part.len() > 2 {
            return Err(err());
        }
        let int: i64 = if int_part.is_empty() {
            0
        } else {
            int_part.parse().map_err(|_| err())?
        };
        let frac: i64 = if frac_part.is_empty() {
            0
        } else {
            let padded = format!("{frac_part:0<2}");
            padded.parse().map_err(|_| err())?
        };
        let cents = int * 100 + frac;
        Ok(Decimal(if neg { -cents } else { cents }))
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        write!(f, "{sign}{}.{:02}", abs / 100, abs % 100)
    }
}

impl From<i64> for Decimal {
    fn from(units: i64) -> Self {
        Decimal::from_int(units)
    }
}

/// A calendar date stored as `(year, month, day)` packed into an ordinal
/// day count for ordering.
///
/// The generator only needs dates to be orderable, hashable and printable
/// (`MM/YY` in db-pages, `YYYY-MM-DD` in SQL); no full calendar arithmetic
/// is required.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Date {
    year: u16,
    month: u8,
    day: u8,
}

impl Date {
    /// Creates a date. Months and days are clamped into valid ranges rather
    /// than validated against a full calendar, which suffices for synthetic
    /// data.
    pub fn new(year: u16, month: u8, day: u8) -> Self {
        Date {
            year,
            month: month.clamp(1, 12),
            day: day.clamp(1, 31),
        }
    }

    /// The year component.
    pub fn year(self) -> u16 {
        self.year
    }

    /// The month component (1–12).
    pub fn month(self) -> u8 {
        self.month
    }

    /// The day component (1–31).
    pub fn day(self) -> u8 {
        self.day
    }

    /// Parses `YYYY-MM-DD`.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::ParseValue`] on malformed input.
    pub fn parse_iso(text: &str) -> Result<Self, RelationError> {
        let err = || RelationError::ParseValue {
            text: text.to_string(),
            expected: "Date".to_string(),
        };
        let mut parts = text.split('-');
        let year: u16 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let month: u8 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let day: u8 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        if parts.next().is_some() || !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return Err(err());
        }
        Ok(Date { year, month, day })
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A dynamically typed scalar value stored in a [`Record`](crate::Record).
///
/// `Value` is totally ordered: `Null` sorts before everything, and values of
/// different types order by a fixed type rank. This makes heterogeneous sort
/// keys well-defined (needed by MapReduce shuffle sorting) while same-typed
/// comparisons behave naturally.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL — produced by outer joins for unmatched sides.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// Exact fixed-point decimal (two fractional digits).
    Decimal(Decimal),
    /// UTF-8 string.
    Str(String),
    /// Calendar date.
    Date(Date),
}

impl Value {
    /// Shorthand for building a [`Value::Str`].
    ///
    /// ```
    /// use dash_relation::Value;
    /// assert_eq!(Value::str("American"), Value::Str("American".to_string()));
    /// ```
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Shorthand for building a [`Value::Decimal`] from hundredths.
    pub fn decimal(cents: i64) -> Self {
        Value::Decimal(Decimal::from_cents(cents))
    }

    /// Returns `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The [`ColumnType`](crate::ColumnType) tag of this value, or `None`
    /// for `Null` (which inhabits every type).
    pub fn column_type(&self) -> Option<crate::schema::ColumnType> {
        use crate::schema::ColumnType;
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ColumnType::Int),
            Value::Decimal(_) => Some(ColumnType::Decimal),
            Value::Str(_) => Some(ColumnType::Str),
            Value::Date(_) => Some(ColumnType::Date),
        }
    }

    /// Extracts an `i64` if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extracts a `&str` if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts a [`Decimal`] if this is a [`Value::Decimal`].
    pub fn as_decimal(&self) -> Option<Decimal> {
        match self {
            Value::Decimal(d) => Some(*d),
            _ => None,
        }
    }

    /// A numeric view: `Int` and `Decimal` both map onto scaled hundredths
    /// so cross-type numeric comparisons (e.g. `budget BETWEEN 10 AND 15`
    /// against a decimal column) behave as SQL users expect.
    pub fn numeric_cents(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(i * 100),
            Value::Decimal(d) => Some(d.cents()),
            _ => None,
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Decimal(_) => 1, // numerics compare together
            Value::Str(_) => 2,
            Value::Date(_) => 3,
        }
    }

    /// Renders the value the way a db-page would print it (no quoting; NULL
    /// renders as empty text so it contributes no keywords).
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            other => other.to_string(),
        }
    }

    /// Renders the value as a query-string form value. The text is
    /// *unencoded* — URL escaping (space → `+`) is the responsibility of
    /// the query-string renderer, so values stored in a
    /// [`QueryString`](https://docs.rs/dash-webapp) never double-encode.
    pub fn to_query_value(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Int(i) => i.to_string(),
            Value::Decimal(d) => d.to_string(),
            Value::Str(s) => s.clone(),
            Value::Date(d) => d.to_string(),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Decimal(a), Decimal(b)) => a.cmp(b),
            (Int(_), Decimal(_)) | (Decimal(_), Int(_)) => self
                .numeric_cents()
                .expect("numeric")
                .cmp(&other.numeric_cents().expect("numeric")),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Decimal(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Decimal> for Value {
    fn from(v: Decimal) -> Self {
        Value::Decimal(v)
    }
}

impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

/// Writes `n` in decimal, byte for byte as its `Display` does, without
/// the formatting machinery: the output paths that write many small
/// integers (query strings, JSON responses) call it per value.
///
/// # Errors
///
/// Only what `out` returns.
pub fn write_u64<W: fmt::Write>(out: &mut W, mut n: u64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
}

/// [`write_u64`] for a signed integer (`i64::MIN` included).
///
/// # Errors
///
/// Only what `out` returns.
pub fn write_i64<W: fmt::Write>(out: &mut W, n: i64) -> fmt::Result {
    if n < 0 {
        out.write_char('-')?;
    }
    write_u64(out, n.unsigned_abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_write_as_they_display() {
        let mut out = String::new();
        for n in [0, 1, 9, 10, 99, 100, -1, -10, 1 << 40, i64::MIN, i64::MAX] {
            out.clear();
            write_i64(&mut out, n).unwrap();
            assert_eq!(out, n.to_string());
        }
        for n in [0, 7, 10, u64::MAX] {
            out.clear();
            write_u64(&mut out, n).unwrap();
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn decimal_roundtrip_display_parse() {
        for cents in [0, 1, 99, 100, 101, 1250, -1250, 123456] {
            let d = Decimal::from_cents(cents);
            let back = Decimal::from_str_exact(&d.to_string()).unwrap();
            assert_eq!(back, d, "roundtrip {cents}");
        }
    }

    #[test]
    fn decimal_parse_variants() {
        assert_eq!(Decimal::from_str_exact("12").unwrap().cents(), 1200);
        assert_eq!(Decimal::from_str_exact("12.5").unwrap().cents(), 1250);
        assert_eq!(Decimal::from_str_exact("12.05").unwrap().cents(), 1205);
        assert_eq!(Decimal::from_str_exact("-3.07").unwrap().cents(), -307);
        assert_eq!(Decimal::from_str_exact(".5").unwrap().cents(), 50);
        assert!(Decimal::from_str_exact("12.345").is_err());
        assert!(Decimal::from_str_exact("abc").is_err());
        assert!(Decimal::from_str_exact("").is_err());
        assert!(Decimal::from_str_exact("-").is_err());
    }

    #[test]
    fn date_parse_and_display() {
        let d = Date::parse_iso("2011-08-15").unwrap();
        assert_eq!(d.to_string(), "2011-08-15");
        assert_eq!((d.year(), d.month(), d.day()), (2011, 8, 15));
        assert!(Date::parse_iso("2011-13-01").is_err());
        assert!(Date::parse_iso("2011-08").is_err());
        assert!(Date::parse_iso("2011-08-15-1").is_err());
    }

    #[test]
    fn date_ordering() {
        let a = Date::new(2010, 6, 10);
        let b = Date::new(2010, 6, 11);
        let c = Date::new(2011, 1, 1);
        assert!(a < b && b < c);
    }

    #[test]
    fn value_ordering_null_first() {
        let mut values = [
            Value::str("zzz"),
            Value::Int(3),
            Value::Null,
            Value::decimal(150),
        ];
        values.sort();
        assert_eq!(values[0], Value::Null);
    }

    #[test]
    fn numeric_cross_type_comparison() {
        // 12 (int) vs 12.00 (decimal) — equal numerically, ordered equal.
        assert_eq!(Value::Int(12).cmp(&Value::decimal(1200)), Ordering::Equal);
        assert!(Value::Int(12) < Value::decimal(1250));
        assert!(Value::decimal(1250) < Value::Int(13));
    }

    #[test]
    fn render_null_is_empty() {
        assert_eq!(Value::Null.render(), "");
        assert_eq!(Value::Int(5).render(), "5");
    }

    #[test]
    fn query_value_is_unencoded() {
        // Encoding happens at the query-string layer, exactly once.
        assert_eq!(Value::str("New York").to_query_value(), "New York");
    }

    #[test]
    fn value_common_traits() {
        fn assert_traits<T: Clone + std::fmt::Debug + PartialEq + Eq + std::hash::Hash>() {}
        assert_traits::<Value>();
        assert_traits::<Decimal>();
        assert_traits::<Date>();
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(Decimal::from_int(2)), Value::decimal(200));
    }
}

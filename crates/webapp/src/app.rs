//! The [`WebApplication`] — the analyzed, executable model of a target web
//! application `A` (Section III/IV of the paper).

use std::fmt::{self, Write as _};

use dash_relation::{ColumnType, Database, Value};

use crate::analyzer::{analyze_servlet, AnalyzedApplication};
use crate::error::WebAppError;
use crate::page::DbPage;
use crate::psj::{ParamValues, PsjQuery, SelectionBinding};
use crate::query_string::{parse_typed, write_query_value, QueryString};
use crate::servlet::parse_servlet;

/// An analyzed web application: the parameterized PSJ query it wraps, the
/// query-string field ↔ parameter map, and the base URI — everything Dash
/// needs to (a) crawl its database, and (b) reconstruct db-page URLs.
#[derive(Debug, Clone, PartialEq)]
pub struct WebApplication {
    /// Application name (the servlet class name).
    pub name: String,
    /// Base URI, e.g. `www.example.com/Search`.
    pub base_uri: String,
    /// GET (query string in the URL) or POST (query string in the body).
    pub method: crate::servlet::HttpMethod,
    /// The resolved parameterized query.
    pub query: PsjQuery,
    /// `(field, parameter)` pairs in query-string order.
    pub field_params: Vec<(String, String)>,
    /// The recovered SQL text (for diagnostics/documentation).
    pub sql: String,
}

impl WebApplication {
    /// Full analysis pipeline: parse the servlet source, run dataflow
    /// analysis, parse the recovered SQL, and resolve it against `db`'s
    /// metadata.
    ///
    /// # Errors
    ///
    /// Any of the stage errors: [`WebAppError::ServletSyntax`],
    /// [`WebAppError::Analysis`], [`WebAppError::Sql`],
    /// [`WebAppError::Relation`].
    pub fn from_servlet_source(source: &str, db: &Database) -> Result<Self, WebAppError> {
        let program = parse_servlet(source)?;
        let analyzed = analyze_servlet(&program)?;
        Self::from_analyzed(analyzed, db)
    }

    /// Builds from an already-analyzed application.
    ///
    /// # Errors
    ///
    /// Returns [`WebAppError::Analysis`] when a query-string field maps to
    /// a parameter the query never uses, plus any resolution error.
    pub fn from_analyzed(
        analyzed: AnalyzedApplication,
        db: &Database,
    ) -> Result<Self, WebAppError> {
        let query = PsjQuery::resolve(&analyzed.statement, db)?;
        let query_params = query.param_names();
        for (field, param) in &analyzed.field_params {
            if !query_params.contains(&param.as_str()) {
                return Err(WebAppError::Analysis {
                    detail: format!(
                        "field `{field}` maps to parameter `{param}` which the query never uses"
                    ),
                });
            }
        }
        Ok(WebApplication {
            name: analyzed.name,
            base_uri: analyzed.base_uri,
            method: analyzed.method,
            query,
            field_params: analyzed.field_params,
            sql: analyzed.sql,
        })
    }

    /// The declared column type of each query-string field (from the
    /// selection attribute its parameter binds).
    ///
    /// # Errors
    ///
    /// Returns [`WebAppError::Analysis`] if a field's parameter cannot be
    /// located (cannot happen for values built by `from_analyzed`).
    pub fn field_types(&self) -> Result<Vec<(String, ColumnType)>, WebAppError> {
        let mut out = Vec::with_capacity(self.field_params.len());
        for (field, param) in &self.field_params {
            let ty = self
                .query
                .selections
                .iter()
                .find(|s| s.binding.params().contains(&param.as_str()))
                .map(|s| s.column.column_type)
                .ok_or_else(|| WebAppError::Analysis {
                    detail: format!("parameter `{param}` not found in selections"),
                })?;
            out.push((field.clone(), ty));
        }
        Ok(out)
    }

    /// Step (a) of the execution model: parses a query string into typed
    /// parameter values.
    ///
    /// # Errors
    ///
    /// Returns [`WebAppError::QueryString`] for missing fields or values
    /// that fail to parse at the selection attribute's type.
    pub fn parse_query_string(&self, qs: &QueryString) -> Result<ParamValues, WebAppError> {
        let mut params = ParamValues::new();
        for (field, ty) in self.field_types()? {
            let param = self
                .field_params
                .iter()
                .find(|(f, _)| *f == field)
                .map(|(_, p)| p.clone())
                .expect("field_types iterates field_params");
            let value = qs.typed_value(&field, ty)?;
            params.insert(param, value);
        }
        Ok(params)
    }

    /// *Reverse query-string parsing* (Section III): turns parameter
    /// values back into the query string the application would have
    /// received.
    ///
    /// # Errors
    ///
    /// Returns [`WebAppError::QueryString`] when a parameter value is
    /// missing.
    pub fn reverse_query_string(&self, params: &ParamValues) -> Result<QueryString, WebAppError> {
        let mut qs = QueryString::new();
        for (field, param) in &self.field_params {
            let value = params.get(param).ok_or_else(|| WebAppError::QueryString {
                detail: format!("missing value for parameter `{param}`"),
            })?;
            qs = qs.with(field.clone(), value.to_query_value());
        }
        Ok(qs)
    }

    /// [`WebApplication::reverse_query_string`] rendered in one pass,
    /// from `(parameter, value)` pairs instead of a map: writes
    /// `field=value&…` in `field_params` order straight into one
    /// string. A parameter's value is its *last* pair, as if every pair
    /// had been inserted into a [`ParamValues`] in order; a field whose
    /// parameter has no pair yields `None`. For a map `m` with pairs
    /// `p`, `render_query_string(p) == reverse_query_string(m).to_string()`.
    pub fn render_query_string(&self, params: &[(&str, &Value)]) -> Option<String> {
        let mut out = String::with_capacity(64);
        self.write_query_string(&mut out, params)?
            .expect("writing to a String cannot fail");
        Some(out)
    }

    /// Whether every query-string field's parameter has a pair in
    /// `params` — exactly when [`WebApplication::render_query_string`]
    /// renders.
    pub fn binds_every_field(&self, params: &[(&str, &Value)]) -> bool {
        self.field_params
            .iter()
            .all(|(_, param)| params.iter().any(|(p, _)| p == param))
    }

    /// [`WebApplication::render_query_string`] written into `out`
    /// instead of a fresh string. A field whose parameter has no pair
    /// yields `None`, and then nothing has been written.
    pub fn write_query_string<W: fmt::Write>(
        &self,
        out: &mut W,
        params: &[(&str, &Value)],
    ) -> Option<fmt::Result> {
        if !self.binds_every_field(params) {
            return None;
        }
        let write = |out: &mut W| {
            for (i, (field, param)) in self.field_params.iter().enumerate() {
                let (_, value) = params
                    .iter()
                    .rev()
                    .find(|(p, _)| p == param)
                    .expect("every field is bound");
                if i > 0 {
                    out.write_char('&')?;
                }
                out.write_str(field)?;
                out.write_char('=')?;
                write_query_value(out, value)?;
            }
            Ok(())
        };
        Some(write(out))
    }

    /// The URL suggestion for given parameter values. For GET this is
    /// base URI + `?` + reverse-parsed query string; for POST the query
    /// string travels in the request body, so the suggestion spells that
    /// out instead of fabricating a GET-style URL.
    ///
    /// # Errors
    ///
    /// Same as [`WebApplication::reverse_query_string`].
    pub fn url_for(&self, params: &ParamValues) -> Result<String, WebAppError> {
        let qs = self.reverse_query_string(params)?;
        Ok(self.render_suggestion(&qs.to_string()))
    }

    /// Formats a URL suggestion from an already-rendered query string,
    /// honoring the application's HTTP method.
    pub fn render_suggestion(&self, query_string: &str) -> String {
        let mut out = String::with_capacity(self.base_uri.len() + query_string.len() + 8);
        self.write_suggestion(&mut out, |out| out.write_str(query_string))
            .expect("writing to a String cannot fail");
        out
    }

    /// [`WebApplication::render_suggestion`] written into `out`, with
    /// `query_string` writing the query string in its place — so a
    /// caller that renders the query string on the fly never holds it
    /// as a string.
    ///
    /// # Errors
    ///
    /// Only what `out` or `query_string` returns.
    pub fn write_suggestion<W: fmt::Write>(
        &self,
        out: &mut W,
        query_string: impl FnOnce(&mut W) -> fmt::Result,
    ) -> fmt::Result {
        let (open, close) = match self.method {
            crate::servlet::HttpMethod::Get => ("?", ""),
            crate::servlet::HttpMethod::Post => (" [POST ", "]"),
        };
        out.write_str(&self.base_uri)?;
        out.write_str(open)?;
        query_string(out)?;
        out.write_str(close)
    }

    /// Executes the application for a query string — steps (a)+(b)+(c) of
    /// the execution model — returning the generated db-page. This is the
    /// ground truth Dash's fragment-assembled pages are validated against.
    ///
    /// # Errors
    ///
    /// Propagates query-string and relational errors.
    pub fn execute(&self, db: &Database, qs: &QueryString) -> Result<DbPage, WebAppError> {
        let params = self.parse_query_string(qs)?;
        let result = self.query.evaluate(db, &params)?;
        let url = format!("{}?{qs}", self.base_uri);
        Ok(DbPage::from_table(url, &result))
    }

    /// Parses a raw field string into the typed value for `param`.
    ///
    /// # Errors
    ///
    /// Returns [`WebAppError::QueryString`] on unknown parameter or
    /// unparsable text.
    pub fn parse_param(&self, param: &str, raw: &str) -> Result<Value, WebAppError> {
        let ty = self
            .query
            .selections
            .iter()
            .find(|s| s.binding.params().contains(&param))
            .map(|s| s.column.column_type)
            .ok_or_else(|| WebAppError::QueryString {
                detail: format!("unknown parameter `{param}`"),
            })?;
        parse_typed(raw, ty).map_err(|detail| WebAppError::QueryString { detail })
    }

    /// Convenience: the selection attributes whose binding is an equality
    /// parameter or constant.
    pub fn equality_selections(&self) -> Vec<&crate::psj::SelectionAttr> {
        self.query
            .selections
            .iter()
            .filter(|s| !s.binding.is_range())
            .collect()
    }

    /// Convenience: the range selection attribute, if the query has one.
    pub fn range_selection(&self) -> Option<&crate::psj::SelectionAttr> {
        self.query.selections.iter().find(|s| s.binding.is_range())
    }

    /// The query-string fields for the range parameter pair `(low, high)`,
    /// if the query has a range selection — e.g. `("l", "u")` for the
    /// running example.
    pub fn range_fields(&self) -> Option<(String, String)> {
        let range = self.range_selection()?;
        if let SelectionBinding::RangeParams { low, high } = &range.binding {
            let find = |p: &str| {
                self.field_params
                    .iter()
                    .find(|(_, param)| param == p)
                    .map(|(f, _)| f.clone())
            };
            Some((find(low)?, find(high)?))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fooddb;

    #[test]
    fn end_to_end_execution_matches_figure_1() {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let qs = QueryString::parse("c=American&l=10&u=15").unwrap();
        let p1 = app.execute(&db, &qs).unwrap();
        assert_eq!(p1.url, "www.example.com/Search?c=American&l=10&u=15");
        let text = p1.render_text();
        assert!(text.contains("Burger Queen"));
        assert!(text.contains("Unique burger"));
        assert!(!text.contains("McRonald"));

        let qs2 = QueryString::parse("c=American&l=10&u=20").unwrap();
        let p2 = app.execute(&db, &qs2).unwrap();
        assert!(p2.render_text().contains("Regret taking it"));
        assert!(p2.rows.len() > p1.rows.len());
    }

    #[test]
    fn reverse_query_string_roundtrip() {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let qs = QueryString::parse("c=American&l=10&u=12").unwrap();
        let params = app.parse_query_string(&qs).unwrap();
        assert_eq!(params.get("cuisine"), Some(&Value::str("American")));
        assert_eq!(params.get("min"), Some(&Value::Int(10)));
        let back = app.reverse_query_string(&params).unwrap();
        assert_eq!(back, qs);
        assert_eq!(
            app.url_for(&params).unwrap(),
            "www.example.com/Search?c=American&l=10&u=12"
        );
        let _ = db;
    }

    #[test]
    fn field_types_follow_schema() {
        let app = fooddb::search_application().unwrap();
        let types = app.field_types().unwrap();
        assert_eq!(
            types,
            vec![
                ("c".to_string(), ColumnType::Str),
                ("l".to_string(), ColumnType::Int),
                ("u".to_string(), ColumnType::Int),
            ]
        );
    }

    #[test]
    fn bad_query_string_value_rejected() {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let qs = QueryString::parse("c=American&l=ten&u=15").unwrap();
        assert!(matches!(
            app.execute(&db, &qs),
            Err(WebAppError::QueryString { .. })
        ));
    }

    #[test]
    fn range_and_equality_helpers() {
        let app = fooddb::search_application().unwrap();
        assert_eq!(app.equality_selections().len(), 1);
        assert!(app.range_selection().is_some());
        assert_eq!(app.range_fields(), Some(("l".to_string(), "u".to_string())));
        assert!(app.parse_param("min", "7").is_ok());
        assert!(app.parse_param("nope", "7").is_err());
    }
}

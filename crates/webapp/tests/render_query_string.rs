//! The one-pass query-string renderer the search uses for every hit
//! ([`WebApplication::render_query_string`]) against the map-based
//! reverse parse ([`WebApplication::reverse_query_string`] rendered
//! with `to_string()`, and [`WebApplication::url_for`]): same bytes for
//! GET and POST applications, every value type, equality constants,
//! repeated parameters and missing ones.

use dash_relation::{ColumnType, Database, Date, Value};
use dash_tpch::{generate, Scale, TpchConfig};
use dash_webapp::{fooddb, ParamValues, SelectionBinding, WebApplication};

const POST_SERVLET: &str = r#"
servlet Search at "www.example.com/Search" via POST {
    String cuisine = q.getParameter("c");
    String min = q.getParameter("l");
    String max = q.getParameter("u");
    Query = "SELECT name, budget, rate, comment, uname, date "
          + "FROM (restaurant LEFT JOIN comment) JOIN customer "
          + "WHERE (cuisine = \"" + cuisine + "\") "
          + "AND (budget BETWEEN " + min + " AND " + max + ")";
    output(execute(Query));
}
"#;

/// A baked-in equality constant, a `Decimal` parameter and a `Date`
/// range.
const ORDERS_SERVLET: &str = r#"
servlet Orders at "www.example.com/Orders" {
    String price = q.getParameter("p");
    String from = q.getParameter("from");
    String to = q.getParameter("to");
    Query = "SELECT * FROM (customer JOIN orders) JOIN lineitem "
          + "WHERE (orders.o_orderstatus = \"F\") "
          + "AND (orders.o_totalprice = " + price + ") "
          + "AND (orders.o_orderdate BETWEEN " + from + " AND " + to + ")";
    output(execute(Query));
}
"#;

fn tpch() -> Database {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 8;
    config.base_parts = 8;
    generate(&config)
}

/// Both renderings of `params` agree, query string and suggestion.
fn assert_same(app: &WebApplication, params: &ParamValues) {
    let pairs: Vec<(&str, &Value)> = params.iter().map(|(p, v)| (p.as_str(), v)).collect();
    let rendered = app
        .render_query_string(&pairs)
        .expect("every parameter bound");
    assert_eq!(
        rendered,
        app.reverse_query_string(params).unwrap().to_string()
    );
    assert_eq!(
        app.render_suggestion(&rendered),
        app.url_for(params).unwrap()
    );
}

/// A value of `ty` for every parameter, spaces in the strings.
fn typed_params(app: &WebApplication) -> ParamValues {
    let mut params = ParamValues::new();
    for ((_, param), (_, ty)) in app.field_params.iter().zip(app.field_types().unwrap()) {
        let value = match ty {
            ColumnType::Int => Value::Int(-42),
            ColumnType::Decimal => Value::decimal(1250),
            ColumnType::Str => Value::str("New  American grill"),
            ColumnType::Date => Value::Date(Date::parse_iso("2011-08-15").unwrap()),
        };
        params.insert(param.clone(), value);
    }
    params
}

#[test]
fn one_pass_rendering_matches_the_map_rendering() {
    let food = fooddb::database();
    let tpch = tpch();
    let apps = [
        fooddb::search_application().unwrap(),
        WebApplication::from_servlet_source(POST_SERVLET, &food).unwrap(),
        dash_tpch::q2_application(&tpch).unwrap(),
        WebApplication::from_servlet_source(ORDERS_SERVLET, &tpch).unwrap(),
    ];
    for app in &apps {
        assert_same(app, &typed_params(app));
    }
    // The orders application covers what the bundled ones do not.
    let orders = &apps[3];
    assert!(orders
        .query
        .selections
        .iter()
        .any(|s| matches!(s.binding, SelectionBinding::EqConst(_))));
    let kinds: Vec<ColumnType> = orders
        .field_types()
        .unwrap()
        .into_iter()
        .map(|(_, ty)| ty)
        .collect();
    assert!(kinds.contains(&ColumnType::Decimal) && kinds.contains(&ColumnType::Date));
    let rendered = apps[1].render_query_string(&[
        ("cuisine", &Value::str("New American")),
        ("min", &Value::Int(10)),
        ("max", &Value::Int(12)),
    ]);
    assert_eq!(rendered.as_deref(), Some("c=New+American&l=10&u=12"));
    assert_eq!(
        apps[1].render_suggestion(&rendered.unwrap()),
        "www.example.com/Search [POST c=New+American&l=10&u=12]"
    );
}

#[test]
fn the_last_pair_for_a_parameter_wins_like_a_map_insert() {
    let app = fooddb::search_application().unwrap();
    let pairs = [
        ("cuisine", &Value::str("Thai")),
        ("min", &Value::Int(10)),
        ("cuisine", &Value::str("American")),
        ("max", &Value::Int(12)),
        ("min", &Value::Int(9)),
    ];
    let mut params = ParamValues::new();
    for (param, value) in pairs {
        params.insert(param.to_string(), value.clone());
    }
    assert_same(&app, &params);
    assert_eq!(
        app.render_query_string(&pairs).as_deref(),
        Some("c=American&l=9&u=12")
    );
}

#[test]
fn a_missing_parameter_renders_nothing() {
    let app = fooddb::search_application().unwrap();
    let pairs = [("cuisine", &Value::str("Thai")), ("min", &Value::Int(10))];
    assert_eq!(app.render_query_string(&pairs), None);
    let params: ParamValues = pairs
        .iter()
        .map(|(p, v)| (p.to_string(), (*v).clone()))
        .collect();
    assert!(app.reverse_query_string(&params).is_err());
    assert_eq!(app.render_query_string(&[]), None);
}

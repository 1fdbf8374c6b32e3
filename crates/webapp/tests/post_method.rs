//! POST-method applications (footnote 1 of the paper): query strings
//! arriving in the request body instead of the URL. Analysis and
//! execution are method-agnostic; only the URL suggestion differs.

use dash_webapp::{fooddb, HttpMethod, QueryString, WebApplication};

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

#[test]
fn post_servlet_parses_and_analyzes() {
    let db = fooddb::database();
    let app = WebApplication::from_servlet_source(POST_SERVLET, &db).unwrap();
    assert_eq!(app.method, HttpMethod::Post);
    assert_eq!(app.query.relations.len(), 3);
}

#[test]
fn get_is_the_default() {
    let app = fooddb::search_application().unwrap();
    assert_eq!(app.method, HttpMethod::Get);
}

#[test]
fn explicit_get_accepted_unknown_method_rejected() {
    let db = fooddb::database();
    let get_src = POST_SERVLET.replace("via POST", "via GET");
    let app = WebApplication::from_servlet_source(&get_src, &db).unwrap();
    assert_eq!(app.method, HttpMethod::Get);
    let bad = POST_SERVLET.replace("via POST", "via PUT");
    assert!(WebApplication::from_servlet_source(&bad, &db).is_err());
}

#[test]
fn post_suggestions_spell_out_the_body() {
    let db = fooddb::database();
    let app = WebApplication::from_servlet_source(POST_SERVLET, &db).unwrap();
    let qs = QueryString::parse("c=American&l=10&u=12").unwrap();
    let params = app.parse_query_string(&qs).unwrap();
    let suggestion = app.url_for(&params).unwrap();
    assert_eq!(
        suggestion,
        "www.example.com/Search [POST c=American&l=10&u=12]"
    );
}

#[test]
fn post_execution_matches_get_execution() {
    let db = fooddb::database();
    let post = WebApplication::from_servlet_source(POST_SERVLET, &db).unwrap();
    let get = fooddb::search_application().unwrap();
    let qs = QueryString::parse("c=American&l=10&u=15").unwrap();
    let p = post.execute(&db, &qs).unwrap();
    let g = get.execute(&db, &qs).unwrap();
    assert_eq!(p.rows, g.rows);
}

#[test]
fn dash_engine_searches_post_applications() {
    use dash_core::{DashConfig, IngestSource, SearchRequest, ShardedEngine};
    let db = fooddb::database();
    let app = WebApplication::from_servlet_source(POST_SERVLET, &db).unwrap();
    let config = DashConfig::default();
    let engine = ShardedEngine::builder(app)
        .source(IngestSource::Crawl {
            db: &db,
            config: &config,
        })
        .build()
        .unwrap();
    let hits = engine.search(&SearchRequest::new(&["burger"]).k(2).min_size(20));
    assert_eq!(hits.len(), 2);
    assert!(hits.iter().all(|h| h.url.contains("[POST ")));
}

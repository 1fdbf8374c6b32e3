//! A primary serving stack over the fooddb application on ephemeral
//! ports, and the fragments a server holds now (the input of the
//! reference that checks it).

use std::net::TcpListener;
use std::sync::Arc;

use dash::prelude::*;
use dash::webapp::fooddb;

use super::fooddb::app;

/// The `DashServer`, its HTTP front-end and its replication hub.
pub fn primary(
    fragments: &[Fragment],
    serve: ServeConfig,
) -> (Arc<DashServer>, NetServer, ReplicationHub) {
    let server = Arc::new(DashServer::from_fragments(app(), fragments, serve).unwrap());
    let net = NetServer::serve_primary(
        Arc::clone(&server),
        fooddb::database(),
        TcpListener::bind("127.0.0.1:0").unwrap(),
        NetConfig::default(),
    )
    .unwrap();
    let hub = ReplicationHub::start(
        Arc::clone(&server),
        TcpListener::bind("127.0.0.1:0").unwrap(),
    )
    .unwrap();
    (server, net, hub)
}

pub fn dump(server: &DashServer) -> Vec<Fragment> {
    server
        .snapshot()
        .engine
        .dump_shards()
        .into_iter()
        .flatten()
        .collect()
}

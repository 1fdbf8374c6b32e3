//! Request micro-batching: concurrent callers' searches are collected
//! into one [`ShardedEngine::search_many`] call.
//!
//! Every search pays one shard fan-out (per-request IDF pass, worker
//! dispatch, trace merge); `search_many` amortizes that across a whole
//! batch and reuses one scratch per shard. The batcher is a single
//! thread fed by a **bounded** queue (senders block when serving falls
//! behind — closed-loop backpressure instead of unbounded buffering).
//! It takes the first waiting request, keeps collecting until the
//! batch window elapses or the batch size cap is reached, grabs one
//! snapshot, answers everything against it, and distributes results.
//! Identical requests inside a batch are deduplicated — computed once,
//! answered everywhere.
//!
//! Correctness rides on two already-proven facts: `search_many` is
//! position-aligned and byte-identical to per-request `search`, and a
//! snapshot is an immutable fully-applied state — so *any* grouping of
//! concurrent requests into batches returns exactly what each request
//! would have gotten alone.
//!
//! [`ShardedEngine::search_many`]: dash_core::ShardedEngine::search_many

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dash_core::{SearchHit, SearchRequest};

use crate::ServerShared;

/// One enqueued search: the request plus the caller's reply channel.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) request: SearchRequest,
    pub(crate) reply: Sender<Vec<SearchHit>>,
}

/// The batcher thread body: drain the queue into micro-batches until
/// every sender (the server) is gone.
pub(crate) fn run(
    jobs: Receiver<Job>,
    shared: Arc<ServerShared>,
    window: Duration,
    max_batch: usize,
) {
    let max_batch = max_batch.max(1);
    while let Ok(first) = jobs.recv() {
        let mut batch = vec![first];
        let opened = Instant::now();
        let deadline = opened + window;
        while batch.len() < max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match jobs.recv_timeout(deadline - now) {
                Ok(job) => batch.push(job),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Window occupancy: time spent collecting after the first job.
        // Near the configured window means batches close on time, well
        // under it means the size cap fires first.
        if shared.batch_window_ns.is_enabled() {
            shared
                .batch_window_ns
                .record(opened.elapsed().as_nanos() as u64);
        }
        serve_batch(&shared, batch);
    }
}

/// Answers one batch against one snapshot and feeds the result cache.
fn serve_batch(shared: &ServerShared, batch: Vec<Job>) {
    // Dedup identical requests: one engine computation per distinct
    // request, every duplicate answered from it (a thundering herd on
    // a hot query costs one search).
    let mut unique: Vec<SearchRequest> = Vec::new();
    let mut slots: Vec<usize> = Vec::with_capacity(batch.len());
    for job in &batch {
        match unique.iter().position(|r| *r == job.request) {
            Some(at) => slots.push(at),
            None => {
                slots.push(unique.len());
                unique.push(job.request.clone());
            }
        }
    }
    let snapshot = shared.handle.snapshot();
    let results = snapshot.engine.search_many(&unique);
    shared.batches.inc();
    shared.batched_requests.add(batch.len() as u64);
    shared.batch_size.record(batch.len() as u64);
    if shared.cache.enabled() {
        for (request, hits) in unique.iter().zip(&results) {
            shared.cache.insert(request, hits.clone(), snapshot.epoch);
        }
    }
    for (job, slot) in batch.into_iter().zip(slots) {
        // A dropped caller (disconnected reply) is not an error.
        let _ = job.reply.send(results[slot].clone());
    }
}

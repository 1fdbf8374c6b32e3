//! The epoch-style snapshot handle: readers grab an `Arc` to an
//! immutable engine snapshot, writers publish a successor atomically.
//!
//! The handle is a double-buffer protocol over two [`ShardedEngine`]s
//! kept in lockstep (see [`crate::DashServer`]): the *live* side is
//! behind this handle, the *shadow* side is exclusively owned by the
//! writer. A publication applies the delta to the shadow, swaps it in
//! as the new live snapshot (one pointer store under a write lock held
//! for nanoseconds), then waits for the retired side's readers to
//! drain — the epoch's grace period — and catches it up with the same
//! delta so it can serve as the next shadow. Searches therefore never
//! wait on index maintenance and can never observe a half-applied
//! delta: every snapshot they can reach is a fully applied state.

use std::sync::Arc;

use dash_core::ShardedEngine;
use parking_lot::RwLock;

/// One immutable, fully consistent serving state: a sharded engine
/// plus the epoch (publication count) it corresponds to.
#[derive(Debug)]
pub struct EngineSnapshot {
    /// The engine answering this epoch's searches. Shared `&self`
    /// access only — mutation happens on the writer's shadow copy.
    pub engine: ShardedEngine,
    /// How many deltas have been published up to (and including) this
    /// state. Epoch 0 is the freshly built engine.
    pub epoch: u64,
}

/// The reader-facing handle: hands out `Arc` snapshots and lets the
/// writer swap in a successor atomically.
#[derive(Debug)]
pub(crate) struct SnapshotHandle {
    live: RwLock<Arc<EngineSnapshot>>,
}

impl SnapshotHandle {
    /// Wraps a built engine at the given starting epoch. Epoch 0 is a
    /// freshly built engine; a replica mirroring a primary (or a
    /// promoted ex-replica) opens at the primary epoch its state
    /// corresponds to, so epoch numbering stays cluster-wide.
    pub(crate) fn new(engine: ShardedEngine, epoch: u64) -> Self {
        SnapshotHandle {
            live: RwLock::new(Arc::new(EngineSnapshot { engine, epoch })),
        }
    }

    /// The current snapshot. The read lock is held only for the `Arc`
    /// clone; the returned snapshot stays valid (and immutable) for as
    /// long as the caller keeps it, regardless of later publications.
    pub(crate) fn snapshot(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.live.read())
    }

    /// Atomically replaces the live snapshot, returning the retired
    /// one. Readers either see the old state or the new one — never a
    /// mixture.
    pub(crate) fn swap(&self, next: Arc<EngineSnapshot>) -> Arc<EngineSnapshot> {
        std::mem::replace(&mut *self.live.write(), next)
    }
}

/// Waits (bounded) for every reader of `snapshot` to drop its `Arc`,
/// then returns the snapshot by value — the grace-period wait of the
/// publish protocol. The serving path holds snapshots only for the
/// duration of one engine search, so the wait normally ends
/// within a few yields; but [`SnapshotHandle::snapshot`] is public and
/// its contract lets a caller keep a snapshot indefinitely, so after
/// `attempts` yields the wait gives up and returns `None` (the caller
/// falls back to forking the new live engine instead of reclaiming the
/// retired one — see `DashServer::publish`). Only the *writer* ever
/// waits here; readers are never blocked.
pub(crate) fn try_drain(
    mut snapshot: Arc<EngineSnapshot>,
    attempts: usize,
) -> Option<EngineSnapshot> {
    for _ in 0..attempts {
        match Arc::try_unwrap(snapshot) {
            Ok(inner) => return Some(inner),
            Err(still_shared) => {
                snapshot = still_shared;
                std::thread::yield_now();
            }
        }
    }
    None
}

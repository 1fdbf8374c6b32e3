//! Request micro-batching: concurrent callers' searches are collected
//! into one [`ShardedEngine::search_many`] call — by the callers
//! themselves, with no batching thread and no window (flat combining:
//! Hendler, Incze, Shavit, Tzafrir, SPAA 2010).
//!
//! Every `search_many` call pays a fixed entry cost (an engine span, a
//! pooled scratch taken and returned); batching amortizes it across the
//! batch, which reuses one scratch throughout. Identical requests inside
//! a batch are deduplicated — computed once, answered everywhere.
//!
//! **Protocol.** A caller locks the batcher, enqueues its requests
//! under fresh tickets (one contiguous ticket range per call), then
//! loops:
//!
//! * all of its tickets are answered → it takes the answers and leaves;
//! * nobody is leading → it becomes the leader: drains up to
//!   `max_batch` requests from the front of the FIFO (its own and
//!   anyone else's), unlocks, serves them with the caller-supplied
//!   serve step, relocks, files the answers under their tickets, stops
//!   leading and wakes every waiter;
//! * someone else is leading → it waits to be woken.
//!
//! A lone request is therefore a batch of one that its own thread
//! leads and serves inline: no hand-off, no timer, no context switch.
//! Requests that arrive while a batch runs queue up and the next
//! leader serves them together, so batch size follows load with no
//! setting. At most one batch is in flight at any instant.
//!
//! **Hand-over and fairness.** A leader serves one batch per turn and
//! leaves as soon as its own tickets are answered; the wake-up after
//! every turn hands leadership to whichever waiter still has queued
//! work. The queue drains front first and tickets are issued in
//! arrival order, so no request is overtaken by one that arrived
//! after it, and no caller serves other people's batches indefinitely:
//! a leader only takes another turn while one of its own requests is
//! still queued. The queue is bounded by the callers' outstanding
//! requests, because every caller blocks until it is answered.
//!
//! **Failure.** A serve step that panics unwinds through the leader's
//! turn guard, which marks that batch's tickets failed, clears the
//! leading flag and wakes everyone: each caller whose request was in
//! the failed batch panics naming it, the leader itself carries the
//! original panic out of its call, and every other caller keeps being
//! served. The lock is never held across the serve step, and every
//! acquisition ignores poisoning, so one panic cannot wedge the rest.
//!
//! **Exactness.** Correctness rides on two already-proven facts:
//! `search_many` is position-aligned and byte-identical to per-request
//! `search`, and a snapshot is an immutable fully-applied state — so
//! *any* grouping of concurrent requests into batches returns exactly
//! what each request would have gotten alone.
//!
//! [`ShardedEngine::search_many`]: dash_core::ShardedEngine::search_many

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use dash_core::{SearchHit, SearchRequest};
use dash_obs::Histogram;

use crate::ServerShared;

/// The caller-led combiner: a FIFO of ticketed requests and the
/// finished answers, behind one mutex. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct Batcher {
    state: Mutex<State>,
    /// Signalled after every turn: answers were filed and nobody leads.
    served: Condvar,
    /// Most requests one leader serves per turn.
    max_batch: usize,
    /// Per request: enqueue → start of the batch that serves it.
    wait_ns: Arc<Histogram>,
}

#[derive(Debug, Default)]
struct State {
    queue: VecDeque<Queued>,
    /// Finished tickets: the answer, or the number of the turn whose
    /// serve step panicked.
    answers: HashMap<u64, Result<Vec<SearchHit>, u64>>,
    next_ticket: u64,
    leading: bool,
    /// Turns taken so far; names a failed batch.
    turns: u64,
}

#[derive(Debug)]
struct Queued {
    ticket: u64,
    request: SearchRequest,
    enqueued: Instant,
}

impl Batcher {
    pub(crate) fn new(max_batch: usize, wait_ns: Arc<Histogram>) -> Self {
        Batcher {
            state: Mutex::default(),
            served: Condvar::new(),
            max_batch: max_batch.max(1),
            wait_ns,
        }
    }

    /// Poison-tolerant: no update under the lock can panic halfway (the
    /// serve step runs unlocked), so the state is valid at every step.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Answers `requests`, position-aligned, sharing batches with any
    /// concurrent callers. `serve` answers one batch (position-aligned
    /// too); whichever caller leads a turn runs its own `serve` on it.
    ///
    /// # Panics
    ///
    /// If the batch holding one of `requests` panicked in `serve`.
    pub(crate) fn submit<F>(&self, requests: Vec<SearchRequest>, serve: F) -> Vec<Vec<SearchHit>>
    where
        F: Fn(&[SearchRequest]) -> Vec<Vec<SearchHit>>,
    {
        let mut state = self.lock();
        let mine = state.next_ticket..state.next_ticket + requests.len() as u64;
        state.next_ticket = mine.end;
        let enqueued = Instant::now();
        state
            .queue
            .extend(mine.clone().zip(requests).map(|(ticket, request)| Queued {
                ticket,
                request,
                enqueued,
            }));
        while !mine
            .clone()
            .all(|ticket| state.answers.contains_key(&ticket))
        {
            state = if state.leading {
                self.served
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner)
            } else {
                self.lead(state, &mine, &serve)
            };
        }
        let answers: Vec<_> = mine
            .map(|ticket| state.answers.remove(&ticket).expect("answered"))
            .collect();
        drop(state);
        answers
            .into_iter()
            .map(|answer| {
                answer.unwrap_or_else(|turn| panic!("search batch #{turn} panicked while serving"))
            })
            .collect()
    }

    /// One leader turn: serves the front of the queue and files the
    /// answers. Entered with the lock held, nobody leading and the
    /// queue non-empty (the caller's own tickets are still queued:
    /// none is answered and no batch is in flight).
    fn lead<'a, F>(
        &'a self,
        mut state: MutexGuard<'a, State>,
        mine: &Range<u64>,
        serve: &F,
    ) -> MutexGuard<'a, State>
    where
        F: Fn(&[SearchRequest]) -> Vec<Vec<SearchHit>>,
    {
        state.leading = true;
        state.turns += 1;
        let take = state.queue.len().min(self.max_batch);
        let opened = Instant::now();
        let recording = self.wait_ns.is_enabled();
        let mut tickets = Vec::with_capacity(take);
        let mut requests = Vec::with_capacity(take);
        for queued in state.queue.drain(..take) {
            if recording {
                let waited = opened.saturating_duration_since(queued.enqueued);
                self.wait_ns.record(waited.as_nanos() as u64);
            }
            tickets.push(queued.ticket);
            requests.push(queued.request);
        }
        let mut turn = Turn {
            batcher: self,
            mine: mine.clone(),
            number: state.turns,
            tickets,
        };
        drop(state);
        let answers = serve(&requests);
        assert_eq!(answers.len(), requests.len(), "serve step misaligned");
        let mut state = self.lock();
        for (ticket, answer) in std::mem::take(&mut turn.tickets).into_iter().zip(answers) {
            state.answers.insert(ticket, Ok(answer));
        }
        state.leading = false;
        self.served.notify_all();
        state
    }
}

/// A leader's turn in flight. Completing the turn empties `tickets`;
/// dropping it with tickets left means the serve step unwound.
struct Turn<'a> {
    batcher: &'a Batcher,
    /// The leader's own tickets (it will never collect them now).
    mine: Range<u64>,
    number: u64,
    tickets: Vec<u64>,
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        if self.tickets.is_empty() {
            return;
        }
        let mut state = self.batcher.lock();
        for &ticket in &self.tickets {
            if !self.mine.contains(&ticket) {
                state.answers.insert(ticket, Err(self.number));
            }
        }
        // The leader unwinds out of `submit`: drop whatever else of its
        // own is queued or answered, or it would sit there forever.
        let mine = &self.mine;
        state.queue.retain(|queued| !mine.contains(&queued.ticket));
        state.answers.retain(|ticket, _| !mine.contains(ticket));
        state.leading = false;
        self.batcher.served.notify_all();
    }
}

/// Answers one batch against one snapshot. Caching is the caller's:
/// each path caches the payload it produces.
pub(crate) fn serve_batch(shared: &ServerShared, batch: &[SearchRequest]) -> Vec<Vec<SearchHit>> {
    // Dedup identical requests: one engine computation per distinct
    // request, every duplicate answered from it (a thundering herd on
    // a hot query costs one search).
    let mut unique: Vec<SearchRequest> = Vec::new();
    let mut slots: Vec<usize> = Vec::with_capacity(batch.len());
    for request in batch {
        match unique.iter().position(|r| r == request) {
            Some(at) => slots.push(at),
            None => {
                slots.push(unique.len());
                unique.push(request.clone());
            }
        }
    }
    let snapshot = shared.handle.snapshot();
    let results = snapshot.engine.search_many(&unique);
    shared.batches.inc();
    shared.batched_requests.add(batch.len() as u64);
    shared.batch_size.record(batch.len() as u64);
    if unique.len() == batch.len() {
        // No duplicates (a lone miss always): slot i is result i, so
        // hand the results over instead of cloning every hit list.
        return results;
    }
    slots
        .into_iter()
        .map(|slot| results[slot].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread;

    fn request(n: usize) -> SearchRequest {
        SearchRequest::new(&[format!("q{n}").as_str()]).k(n + 1)
    }

    /// The fake serve step's answer: one hit naming the request.
    fn answer(request: &SearchRequest) -> Vec<SearchHit> {
        vec![SearchHit {
            url: request.keywords[0].clone(),
            query_string: String::new(),
            score: 0.0,
            size: request.k as u64,
            fragment_ids: Vec::new(),
        }]
    }

    fn fake(batch: &[SearchRequest]) -> Vec<Vec<SearchHit>> {
        batch.iter().map(answer).collect()
    }

    fn batcher(max_batch: usize) -> Batcher {
        Batcher::new(max_batch, Arc::new(Histogram::new()))
    }

    fn queued(batcher: &Batcher) -> usize {
        batcher.lock().queue.len()
    }

    #[test]
    fn a_lone_call_is_served_inline_as_a_batch_of_one() {
        let batcher = batcher(16);
        let caller = thread::current().id();
        let served_on = Mutex::new(Vec::new());
        let got = batcher.submit(vec![request(3)], |batch| {
            served_on
                .lock()
                .unwrap()
                .push((thread::current().id(), batch.len()));
            fake(batch)
        });
        assert_eq!(got, vec![answer(&request(3))]);
        assert_eq!(*served_on.lock().unwrap(), vec![(caller, 1)]);
        // The wait is recorded, and for a lone request it is ~0.
        let wait = batcher.wait_ns.snapshot();
        assert_eq!(wait.count(), 1);
        assert!(wait.quantile(1.0) < 50_000_000, "{}", wait.quantile(1.0));
        // A burst from one caller shares a batch.
        let burst: Vec<_> = (0..5).map(request).collect();
        let got = batcher.submit(burst.clone(), |batch| {
            served_on
                .lock()
                .unwrap()
                .push((thread::current().id(), batch.len()));
            fake(batch)
        });
        assert_eq!(got, fake(&burst));
        assert_eq!(served_on.lock().unwrap()[1], (caller, 5));
    }

    #[test]
    fn followers_queued_behind_a_leader_share_the_next_batches() {
        for (followers, max_batch) in [(5usize, 8usize), (8, 8), (11, 4)] {
            let batcher = batcher(max_batch);
            let in_flight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let sizes = Mutex::new(Vec::new());
            let turn_open = Barrier::new(2);
            let release = Barrier::new(2);
            let serve = |batch: &[SearchRequest]| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                let first = sizes.lock().unwrap().is_empty();
                sizes.lock().unwrap().push(batch.len());
                if first {
                    // Hold the leader's turn until every follower queued.
                    turn_open.wait();
                    release.wait();
                }
                in_flight.fetch_sub(1, Ordering::SeqCst);
                fake(batch)
            };
            thread::scope(|scope| {
                let (batcher, serve) = (&batcher, &serve);
                let leader = scope.spawn(move || batcher.submit(vec![request(0)], serve));
                turn_open.wait();
                let handles: Vec<_> = (1..=followers)
                    .map(|n| scope.spawn(move || (n, batcher.submit(vec![request(n)], serve))))
                    .collect();
                while queued(batcher) < followers {
                    thread::yield_now();
                }
                release.wait();
                assert_eq!(leader.join().unwrap(), vec![answer(&request(0))]);
                for handle in handles {
                    let (n, got) = handle.join().unwrap();
                    assert_eq!(got, vec![answer(&request(n))], "position-correct");
                }
            });
            let sizes = sizes.into_inner().unwrap();
            assert_eq!(sizes[0], 1, "the leader started alone");
            assert_eq!(sizes[1], followers.min(max_batch), "{sizes:?}");
            assert!(sizes.iter().all(|&size| size <= max_batch), "{sizes:?}");
            assert_eq!(sizes.iter().sum::<usize>(), followers + 1);
            assert_eq!(peak.load(Ordering::SeqCst), 1, "one batch in flight");
            assert!(batcher.lock().answers.is_empty());
        }
    }

    #[test]
    fn a_panicking_batch_fails_its_callers_and_spares_the_rest() {
        let batcher = batcher(2);
        let turn_open = Barrier::new(2);
        let release = Barrier::new(2);
        let turns = AtomicUsize::new(0);
        // Turn 1 (the leader alone) is held open while two followers
        // queue; turn 2 serves both of them and is held open while a
        // third follower queues, then panics; turn 3 serves the third,
        // which waited through the failure.
        let serve = |batch: &[SearchRequest]| {
            let turn = turns.fetch_add(1, Ordering::SeqCst);
            if turn < 2 {
                turn_open.wait();
                release.wait();
            }
            if turn == 1 {
                panic!("injected serve failure");
            }
            fake(batch)
        };
        thread::scope(|scope| {
            let (batcher, serve) = (&batcher, &serve);
            // Spawns follower `n` and waits until the queue is `depth`
            // long, so tickets follow `n`.
            let follow = |n: usize, depth: usize| {
                let handle = scope.spawn(move || {
                    panic::catch_unwind(AssertUnwindSafe(|| {
                        batcher.submit(vec![request(n)], serve)
                    }))
                });
                while queued(batcher) < depth {
                    thread::yield_now();
                }
                handle
            };
            let leader = scope.spawn(move || batcher.submit(vec![request(0)], serve));
            turn_open.wait();
            let mut followers = vec![follow(1, 1), follow(2, 2)];
            release.wait();
            assert_eq!(leader.join().unwrap(), vec![answer(&request(0))]);
            turn_open.wait();
            followers.push(follow(3, 1));
            release.wait();
            let mut outcomes: Vec<_> = followers
                .into_iter()
                .map(|handle| match handle.join().unwrap() {
                    Ok(got) => format!("served {}", got[0][0].url),
                    Err(failure) => failure
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| failure.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default(),
                })
                .collect();
            outcomes.sort();
            // Whichever of followers 1 and 2 led turn 2 re-raises the
            // injected panic; the other names the failed batch.
            assert_eq!(
                outcomes,
                [
                    "injected serve failure",
                    "search batch #2 panicked while serving",
                    "served q3",
                ]
            );
        });
        // Not wedged: nobody leads, nothing leaked, and later callers
        // are served — alone and as a burst.
        {
            let state = batcher.lock();
            assert!(!state.leading && state.queue.is_empty() && state.answers.is_empty());
        }
        assert_eq!(
            batcher.submit(vec![request(7)], fake),
            vec![answer(&request(7))]
        );
        let burst: Vec<_> = (3..8).map(request).collect();
        assert_eq!(batcher.submit(burst.clone(), serve), fake(&burst));
    }
}

//! Replica→primary write forwarding: the upstream half of "any node
//! accepts `POST /update`".
//!
//! A replica's HTTP front-end hands every update body to its
//! [`Upstream`], which relays it to the current primary over one
//! persistent [`NetClient`] connection. Connect failures retry under
//! the shared jittered-backoff discipline ([`crate::backoff`]) — a
//! refused or unreachable primary is retried until the per-call
//! deadline, which is exactly the window a failover needs: when the
//! control plane promotes a replica and calls
//! [`Upstream::retarget`], in-flight forwards pick up the new target
//! on their next attempt and the write lands on the new primary.
//!
//! The non-duplication contract is inherited from [`NetClient`]: a
//! failure *after* the request started flowing is returned to the
//! caller, never silently resent — the primary may have applied an
//! update whose response was lost, and replaying it would
//! double-apply. Only provably-unsent requests (connect-phase
//! failures) retry.
//!
//! The ack relayed back carries the **primary's** publication epoch,
//! so a client that wrote through a replica can read-its-writes: wait
//! (or have the replica front-end wait — see
//! `NetServer`'s forwarding backend) until the replica's replicated
//! epoch reaches the ack's.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::backoff::{Backoff, BackoffConfig};
use crate::client::NetClient;
use crate::server::{UpdateAck, UpdateBody};

/// A persistent, retargetable connection to the cluster's current
/// primary, shared by every thread of a replica's HTTP front-end.
#[derive(Debug)]
pub struct Upstream {
    target: Mutex<SocketAddr>,
    client: Mutex<Option<NetClient>>,
    backoff: BackoffConfig,
    forwarded: AtomicU64,
    retries: AtomicU64,
}

impl Upstream {
    /// Points an upstream at the primary's HTTP address. The
    /// connection is opened lazily on the first forward.
    pub fn new(target: SocketAddr, backoff: BackoffConfig) -> Upstream {
        Upstream {
            target: Mutex::new(target),
            client: Mutex::new(None),
            backoff,
            forwarded: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// The current forward target (the primary's HTTP address).
    pub fn target(&self) -> SocketAddr {
        *self.target.lock()
    }

    /// Repoints the upstream — the failover half of replica
    /// promotion: the control plane (or router) calls this on every
    /// surviving replica once a new primary is serving. The stale
    /// connection is dropped; the next forward dials the new target.
    pub fn retarget(&self, addr: SocketAddr) {
        *self.target.lock() = addr;
        *self.client.lock() = None;
    }

    /// Updates successfully forwarded.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }

    /// Connect-phase retries spent across all forwards.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Relays one update body to the primary and returns its ack
    /// (carrying the primary's publication epoch).
    ///
    /// # Errors
    ///
    /// Connect failures after the backoff deadline; any exchange-phase
    /// failure immediately (the update may have been applied — see the
    /// module docs).
    pub fn forward(&self, body: &UpdateBody) -> io::Result<UpdateAck> {
        let mut backoff = Backoff::start(&self.backoff);
        loop {
            let target = self.target();
            let mut client = self.client.lock();
            // A retarget since the last forward invalidates the cached
            // connection.
            if client.as_ref().is_some_and(|c| c.addr() != target) {
                *client = None;
            }
            if client.is_none() {
                // Connect phase: nothing sent, always safe to retry.
                // The per-attempt connect is single-shot (zero
                // deadline) — pacing lives in *this* loop, so a
                // retarget mid-backoff is picked up.
                match NetClient::connect_with(
                    target,
                    self.backoff.deadline(std::time::Duration::ZERO),
                ) {
                    Ok(fresh) => *client = Some(fresh),
                    Err(e) => {
                        drop(client);
                        if backoff.wait() {
                            self.retries.fetch_add(1, Ordering::Relaxed);
                            crate::obs::global_counter!("dash_repl_forward_retries_total").inc();
                            continue;
                        }
                        return Err(e);
                    }
                }
            }
            let result = client.as_mut().expect("connected above").update(body);
            match result {
                Ok(ack) => {
                    self.forwarded.fetch_add(1, Ordering::Relaxed);
                    crate::obs::global_counter!("dash_repl_forwarded_total").inc();
                    return Ok(ack);
                }
                Err(e) => {
                    // Exchange phase: the primary may have applied the
                    // update — surface the error, never resend.
                    *client = None;
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    #[test]
    fn forward_gives_up_after_the_deadline_when_nobody_listens() {
        // Bind-then-drop: the port is (very likely) refused.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let upstream = Upstream::new(
            addr,
            BackoffConfig::default()
                .base(Duration::from_millis(2))
                .cap(Duration::from_millis(8))
                .deadline(Duration::from_millis(40)),
        );
        let begin = std::time::Instant::now();
        let result = upstream.forward(&UpdateBody::Publish(Default::default()));
        assert!(result.is_err());
        assert!(
            begin.elapsed() < Duration::from_secs(2),
            "deadline bounds the retry loop"
        );
        assert!(upstream.retries() >= 1, "connect failures were retried");
        assert_eq!(upstream.forwarded(), 0);
    }

    #[test]
    fn retarget_swaps_the_destination() {
        let a = "127.0.0.1:4000".parse().unwrap();
        let b = "127.0.0.1:4001".parse().unwrap();
        let upstream = Upstream::new(a, BackoffConfig::default());
        assert_eq!(upstream.target(), a);
        upstream.retarget(b);
        assert_eq!(upstream.target(), b);
    }
}

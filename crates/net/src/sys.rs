//! The readiness syscalls the front-end needs and `std` does not have:
//! `epoll_create1`, `epoll_ctl` and `epoll_wait`, declared against the
//! libc the standard library already links (no new dependency).
//!
//! This is the only `unsafe` in the crate, and it stays in this
//! module. Every call returns [`io::Result`] and retries `EINTR`; the
//! epoll handle is an [`OwnedFd`], closed when the [`Epoll`] drops, and
//! registered descriptors are passed as `&impl AsRawFd`, so a caller
//! registers only something it holds. A descriptor number that is not
//! open is the kernel's to refuse (`EBADF`); no call here reads or
//! writes memory the caller did not lend it for that call.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::time::Duration;

/// Readable, or the peer closed (a read returns 0).
pub(crate) const IN: u32 = 0x001;
/// Writable.
pub(crate) const OUT: u32 = 0x004;
/// The peer shut down its writing half.
pub(crate) const RDHUP: u32 = 0x2000;
/// Report one event, then stay disarmed until the next `modify`.
pub(crate) const ONESHOT: u32 = 1 << 30;

const CTL_ADD: i32 = 1;
const CTL_MOD: i32 = 3;
/// `EPOLL_CLOEXEC` (= `O_CLOEXEC`): a spawned process inherits no handle.
const CLOEXEC: i32 = 0o2_000_000;

/// `struct epoll_event`. The kernel packs it on x86-64 (12 bytes) and
/// aligns `data` naturally elsewhere (16 bytes).
#[derive(Debug, Clone, Copy)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub(crate) struct Event {
    events: u32,
    data: u64,
}

impl Event {
    /// An empty slot for [`Epoll::wait`] to fill.
    pub(crate) const EMPTY: Event = Event { events: 0, data: 0 };

    /// The token the descriptor was registered with.
    pub(crate) fn token(&self) -> u64 {
        self.data
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
}

/// Runs a syscall wrapper until it does not fail with `EINTR`,
/// turning `-1` into the thread's `errno`.
fn retry(mut call: impl FnMut() -> i32) -> io::Result<i32> {
    loop {
        let status = call();
        if status != -1 {
            return Ok(status);
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
}

/// An epoll instance.
#[derive(Debug)]
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// A new, empty interest list.
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: no pointer is passed; the flag is a valid constant.
        let fd = retry(|| unsafe { epoll_create1(CLOEXEC) })?;
        // SAFETY: the kernel just returned `fd` as a new open
        // descriptor, and nothing else owns it.
        let fd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Epoll { fd })
    }

    /// Registers `fd` for `interest`, reporting `token` with its events
    /// (`EEXIST` if it is registered already).
    pub(crate) fn add(&self, fd: &impl AsRawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(CTL_ADD, fd.as_raw_fd(), interest, token)
    }

    /// Replaces a registration's interest and token, re-arming a
    /// one-shot registration (`ENOENT` if `fd` is not registered). An
    /// fd already ready reports at once.
    pub(crate) fn modify(&self, fd: &impl AsRawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(CTL_MOD, fd.as_raw_fd(), interest, token)
    }

    fn ctl(&self, op: i32, fd: i32, interest: u32, token: u64) -> io::Result<()> {
        let mut event = Event {
            events: interest,
            data: token,
        };
        // SAFETY: `event` is an initialised `epoll_event` that outlives
        // the call, which only reads it; `self.fd` is an open epoll
        // descriptor owned by `self`.
        retry(|| unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) }).map(drop)
    }

    /// Waits for events, filling the front of `events` and returning
    /// how many arrived. `None` waits without limit; a timeout is
    /// rounded up to whole milliseconds, so a wait never ends before
    /// its deadline. A wait interrupted by a signal starts over.
    pub(crate) fn wait(
        &self,
        events: &mut [Event],
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let timeout = timeout.map_or(-1, |t| {
            let ms = t.as_nanos().div_ceil(1_000_000);
            i32::try_from(ms).unwrap_or(i32::MAX)
        });
        let max = i32::try_from(events.len()).unwrap_or(i32::MAX);
        // SAFETY: `events` is a live, writable buffer of at least `max`
        // entries for the whole call; the kernel writes at most `max`
        // of them. `self.fd` is an open epoll descriptor owned by
        // `self`.
        let got = retry(|| unsafe {
            epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), max, timeout)
        })?;
        Ok(usize::try_from(got).expect("epoll_wait returns a count on success"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::RawFd;
    use std::os::unix::net::UnixStream;

    fn errno(result: io::Result<()>) -> Option<i32> {
        result
            .expect_err("the kernel refuses this call")
            .raw_os_error()
    }

    #[test]
    fn adding_a_registered_fd_twice_is_eexist() {
        let poll = Epoll::new().unwrap();
        let (a, _b) = UnixStream::pair().unwrap();
        poll.add(&a, IN, 1).unwrap();
        assert_eq!(errno(poll.add(&a, IN, 1)), Some(17)); // EEXIST
    }

    #[test]
    fn modifying_an_unregistered_fd_is_enoent() {
        let poll = Epoll::new().unwrap();
        let (a, _b) = UnixStream::pair().unwrap();
        assert_eq!(errno(poll.modify(&a, IN, 1)), Some(2)); // ENOENT
    }

    #[test]
    fn a_descriptor_that_is_not_open_is_ebadf() {
        // No process can hold a descriptor this large (the kernel caps
        // `nr_open` far below it), so the number is closed for certain
        // even while parallel tests open and close their own.
        let closed: RawFd = RawFd::MAX;
        let poll = Epoll::new().unwrap();
        assert_eq!(errno(poll.add(&closed, IN, 1)), Some(9)); // EBADF
        assert_eq!(errno(poll.modify(&closed, IN, 1)), Some(9));
    }

    #[test]
    fn a_zero_timeout_wait_with_nothing_ready_returns_no_events() {
        let poll = Epoll::new().unwrap();
        let (a, _b) = UnixStream::pair().unwrap();
        poll.add(&a, IN, 1).unwrap();
        let mut events = [Event::EMPTY; 4];
        assert_eq!(poll.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn a_oneshot_fd_stays_silent_until_it_is_rearmed() {
        let poll = Epoll::new().unwrap();
        let (a, mut b) = UnixStream::pair().unwrap();
        poll.add(&a, IN | ONESHOT, 7).unwrap();
        let mut events = [Event::EMPTY; 4];
        b.write_all(b"x").unwrap();
        assert_eq!(poll.wait(&mut events, None).unwrap(), 1);
        assert_eq!(events[0].token(), 7);
        // Still readable (nothing was read) and more bytes arrive, but
        // the registration fired once and is disarmed.
        b.write_all(b"y").unwrap();
        assert_eq!(poll.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
        // Re-arming reports the pending bytes at once, under the new
        // token.
        poll.modify(&a, IN | ONESHOT, 8).unwrap();
        assert_eq!(poll.wait(&mut events, Some(Duration::ZERO)).unwrap(), 1);
        assert_eq!(events[0].token(), 8);
    }
}

//! Readiness for the io threads: one epoll instance and one eventfd per
//! io thread, declared against the libc `std` already links (no crate).
//!
//! An io thread registers its sockets here and blocks in [`Poller::sleep`]
//! until one of them is ready or the eventfd is rung. The one producer,
//! the acceptor handing it a new connection, calls [`Poller::notify`]
//! after it enqueues; it costs a syscall only when the io thread has
//! declared itself asleep. Shutdown rings unconditionally. The protocol,
//! and why no wake-up is lost, is ARCHITECTURE.md's "Io-thread readiness".
//!
//! Every `unsafe` block of the crate lives in this module.

#[cfg(not(target_os = "linux"))]
compile_error!(
    "jiffy-server's io threads block in epoll_wait on an eventfd, which only Linux has; \
     the server has no portable fallback"
);

use std::ffi::{c_int, c_long, c_void};
use std::fs::File;
use std::io::{self, Read as _, Write as _};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::time::Duration;

/// Readable (or at end of stream).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// The peer shut down its writing half.
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;
const EFD_CLOEXEC: c_int = 0o2_000_000;
const EFD_NONBLOCK: c_int = 0o4_000;

/// The `data` word that marks the eventfd among the ready events; socket
/// registrations carry their fd, which is never negative.
const WAKE_TOKEN: u64 = u64::MAX;

/// `struct epoll_event`. The kernel's x86-64 ABI packs it (12 bytes, no
/// padding before `data`); every other architecture uses natural layout.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct timespec` as glibc lays it out by default on Linux: two `long`s.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
}

/// Whether the kernel has `epoll_pwait2` (Linux 5.11+), which takes its
/// timeout in nanoseconds. Cleared at the first `ENOSYS`; from then on
/// waits go through `epoll_wait`, their timeouts rounded up to whole
/// milliseconds.
static PWAIT2: AtomicBool = AtomicBool::new(true);

/// A `-1`-on-error return as an `io::Result` owning the fd it made.
///
/// # Safety
///
/// `fd` is negative or an open descriptor that nothing else owns.
unsafe fn owned(fd: c_int) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: the caller's contract: `fd` is open and unowned.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// One io thread's epoll set, its eventfd, and the flag that says whether
/// a producer owes it a ring.
pub(crate) struct Poller {
    epoll: OwnedFd,
    /// The eventfd, nonblocking; `File` gives it `read` and `write`.
    wake: File,
    /// Set by the io thread (then a SeqCst fence, then a re-check of its
    /// new-connection queue) before it blocks; a producer that swaps it
    /// back to `false` owes the eventfd a write.
    sleeping: AtomicBool,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes a flag word and touches no memory;
        // it returns -1 or a new descriptor that nothing else owns.
        let epoll = unsafe { owned(epoll_create1(EPOLL_CLOEXEC)) }?;
        // SAFETY: `eventfd` takes an initial count and a flag word and
        // touches no memory; it returns -1 or a new, unowned descriptor.
        let wake = File::from(unsafe { owned(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) }?);
        let poller = Poller { epoll, wake, sleeping: AtomicBool::new(false) };
        poller.ctl(EPOLL_CTL_ADD, poller.wake.as_raw_fd(), EPOLLIN, WAKE_TOKEN)?;
        Ok(poller)
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` is a live, initialised `epoll_event` the kernel only
        // reads during the call; a bad `fd` is reported as an error.
        let rc = unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Watch `fd` (level-triggered) for `events`. Closing the fd removes it.
    pub(crate) fn add(&self, fd: RawFd, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, fd as u64)
    }

    /// Replace the events watched on an added `fd`.
    pub(crate) fn modify(&self, fd: RawFd, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, fd as u64)
    }

    /// The io thread's side, step one: declare itself asleep. After this
    /// returns it must look at the queue a producer [`notify`]s it
    /// about, and then either [`sleep`] or, having found work, [`wake_up`].
    ///
    /// [`notify`]: Poller::notify
    /// [`sleep`]: Poller::sleep
    /// [`wake_up`]: Poller::wake_up
    pub(crate) fn prepare_to_sleep(&self) {
        self.sleeping.store(true, Ordering::Relaxed);
        // Pairs with the fence in `notify`: either this thread's re-check
        // sees the producer's enqueue, or the producer sees `true`.
        fence(Ordering::SeqCst);
    }

    /// The io thread is awake: producers owe it nothing.
    pub(crate) fn wake_up(&self) {
        self.sleeping.store(false, Ordering::Relaxed);
    }

    /// Block until a watched fd is ready, the eventfd is rung, or `timeout`
    /// passes; then clear the eventfd if it was rung. Returns whether the
    /// wait ended before its timeout.
    pub(crate) fn sleep(&self, timeout: Duration) -> bool {
        let mut events = [EpollEvent { events: 0, data: 0 }; 64];
        let n = self.wait(&mut events, timeout);
        self.wake_up();
        let n = match n {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return true,
            // The only other errors name a bad fd or buffer: a bug here.
            Err(e) => panic!("epoll wait: {e}"),
        };
        // `{ ev.data }` copies the field out: a packed field takes no `&`.
        if events[..n].iter().any(|ev| { ev.data } == WAKE_TOKEN) {
            // Reading resets the count; `WouldBlock` means a racing read
            // already did. Level-triggered, an unread count would only
            // cost one spurious wake.
            let _ = (&self.wake).read(&mut [0u8; 8]);
        }
        n > 0
    }

    /// One `epoll_pwait2` (or, on a kernel without it, `epoll_wait`) into
    /// `events`; how many it filled.
    fn wait(&self, events: &mut [EpollEvent], timeout: Duration) -> io::Result<usize> {
        let (epfd, max) = (self.epoll.as_raw_fd(), events.len() as c_int);
        if PWAIT2.load(Ordering::Relaxed) {
            let ts = Timespec {
                tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
                tv_nsec: timeout.subsec_nanos() as c_long,
            };
            // SAFETY: the kernel writes at most `max` entries into `events`
            // and reads `ts`, both live across the call; a null sigmask
            // leaves the signal mask alone.
            let n = unsafe { epoll_pwait2(epfd, events.as_mut_ptr(), max, &ts, std::ptr::null()) };
            let r = usize::try_from(n).map_err(|_| io::Error::last_os_error());
            match r {
                Err(e) if e.kind() == io::ErrorKind::Unsupported => {
                    PWAIT2.store(false, Ordering::Relaxed);
                }
                r => return r,
            }
        }
        // Rounded up: a sub-millisecond timeout must not become a poll.
        let ms = c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
        // SAFETY: the kernel writes at most `max` entries into `events`,
        // which lives across the call.
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), max, ms) };
        usize::try_from(n).map_err(|_| io::Error::last_os_error())
    }

    /// Write the eventfd, unconditionally (shutdown uses this).
    pub(crate) fn ring(&self) {
        // A full counter (2^64 - 2 unread rings) refuses the write with
        // `WouldBlock`, and is already readable: nothing is lost.
        let _ = (&self.wake).write(&1u64.to_ne_bytes());
    }

    /// The producer's side, called *after* it enqueued: ring the eventfd
    /// only if the io thread declared itself asleep, and only once per
    /// sleep. A busy io thread costs its producers a fence and a load.
    pub(crate) fn notify(&self) {
        fence(Ordering::SeqCst);
        if self.sleeping.load(Ordering::Relaxed) && self.sleeping.swap(false, Ordering::Relaxed) {
            self.ring();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// The shortest of `rounds` timed-out sleeps of `timeout`.
    fn shortest_sleep(poller: &Poller, timeout: Duration, rounds: usize) -> Duration {
        (0..rounds)
            .map(|_| {
                let t0 = Instant::now();
                assert!(!poller.sleep(timeout), "nothing is watched or rung");
                t0.elapsed()
            })
            .min()
            .unwrap()
    }

    /// A 100 µs sleep lasts well under a millisecond with `epoll_pwait2`,
    /// and at least one without it (rounded up, never down to a poll).
    /// One test, because it flips the process-wide fallback flag.
    #[test]
    fn sub_millisecond_timeouts_keep_their_length() {
        let poller = Poller::new().unwrap();
        let tick = Duration::from_micros(100);
        let precise = shortest_sleep(&poller, tick, 20);
        if PWAIT2.load(Ordering::Relaxed) {
            assert!(precise >= tick, "woke before its timeout: {precise:?}");
            assert!(precise < Duration::from_micros(900), "rounded up to {precise:?}");
        }
        PWAIT2.store(false, Ordering::Relaxed);
        let fallback = shortest_sleep(&poller, tick, 3);
        PWAIT2.store(true, Ordering::Relaxed);
        assert!(fallback >= Duration::from_millis(1), "epoll_wait polled: {fallback:?}");
    }

    /// A ring ends a sleep at once, and the next sleep times out again.
    #[test]
    fn a_ring_ends_the_sleep() {
        let poller = Poller::new().unwrap();
        poller.ring();
        let t0 = Instant::now();
        assert!(poller.sleep(Duration::from_secs(5)));
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert!(!poller.sleep(Duration::from_micros(100)), "the ring was read");
    }
}

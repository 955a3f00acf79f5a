//! Readiness for the io threads: one epoll instance and one eventfd per
//! io thread, declared against the libc `std` already links (no crate).
//!
//! An io thread registers its sockets here and blocks in [`Poller::sleep`]
//! until one of them is ready or a producer rings the eventfd. Producers
//! (the workers answering its connections, the acceptor handing it a new
//! one) call [`Poller::notify`] after they enqueue; it costs a syscall only
//! when the io thread has declared itself asleep. The protocol, and why no
//! wake-up is lost, is ARCHITECTURE.md's "Io-thread readiness".
//!
//! Every `unsafe` block of the crate lives in this module.

#[cfg(not(target_os = "linux"))]
compile_error!(
    "jiffy-server's io threads block in epoll_wait on an eventfd, which only Linux has; \
     the server has no portable fallback"
);

use std::ffi::c_int;
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

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
}

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
    /// queues) before it blocks; a producer that swaps it back to `false`
    /// owes the eventfd a write.
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
    /// returns it must look at every queue a producer [`notify`]s it
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

    /// Block until a watched fd is ready, the eventfd is rung, or `backstop`
    /// passes; then clear the eventfd if it was rung.
    pub(crate) fn sleep(&self, backstop: Duration) {
        let mut events = [EpollEvent { events: 0, data: 0 }; 64];
        let timeout = c_int::try_from(backstop.as_millis()).unwrap_or(c_int::MAX);
        // SAFETY: the kernel writes at most `events.len()` entries into
        // `events`, which lives across the call.
        let n = unsafe {
            epoll_wait(self.epoll.as_raw_fd(), events.as_mut_ptr(), events.len() as c_int, timeout)
        };
        self.wake_up();
        if n < 0 {
            let e = io::Error::last_os_error();
            // The only other errors name a bad fd or buffer: a bug here.
            assert_eq!(e.kind(), io::ErrorKind::Interrupted, "epoll_wait: {e}");
            return;
        }
        // `{ ev.data }` copies the field out: a packed field takes no `&`.
        if events[..n as usize].iter().any(|ev| { ev.data } == WAKE_TOKEN) {
            // Reading resets the count; `WouldBlock` means a racing read
            // already did. Level-triggered, an unread count would only
            // cost one spurious wake.
            let _ = (&self.wake).read(&mut [0u8; 8]);
        }
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

//! Offline shim for the `polling` crate: a level-triggered readiness
//! poller over raw Linux epoll, plus an eventfd-backed [`Waker`] for
//! cross-thread wakeups. The build environment cannot reach crates.io,
//! so the syscalls are declared directly (`std` already links libc —
//! no external crate needed). The API is the reduced subset the
//! `simsub-service` reactor uses:
//!
//! - [`Poller::add`] / [`Poller::modify`] / [`Poller::delete`] register
//!   a raw fd under a caller-chosen `usize` key with read/write
//!   [`Interest`]; registration is **level-triggered**, so a readiness
//!   event repeats on every `wait` until the condition is drained or
//!   the interest is dropped.
//! - [`Poller::wait`] blocks up to a timeout and fills [`Events`].
//! - [`Waker::wake`] makes the poller's wait return with the waker's
//!   key readable; [`Waker::drain`] rearms it (level-triggered eventfd
//!   stays readable until read).
//!
//! Non-Linux targets get a stub that fails with
//! `io::ErrorKind::Unsupported`, mirroring how the other shims degrade.
//! There is no fallback: `simsub_service::Server::bind` returns that
//! error.

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;
    pub const RLIMIT_NOFILE: c_int = 7;

    /// Matches the kernel ABI: packed on x86_64 (the one architecture
    /// where the kernel struct is unaligned), natural layout elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    pub struct Rlimit {
        pub cur: u64,
        pub max: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    }
}

#[cfg(target_os = "linux")]
pub use linux::{Poller, Waker};
#[cfg(not(target_os = "linux"))]
pub use stub::{Poller, Waker};

/// Which readiness conditions a registration reports. Error/hangup are
/// always reported regardless of interest (epoll semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness notification: the registration `key` plus which
/// conditions fired. `hup`/`err` fold peer-close and error states in;
/// callers typically treat them as readable (the subsequent read
/// observes EOF or the real error).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub key: usize,
    pub readable: bool,
    pub writable: bool,
    pub err: bool,
    pub hup: bool,
}

/// Reusable output buffer for [`Poller::wait`].
pub struct Events {
    #[cfg(target_os = "linux")]
    raw: Vec<sys::EpollEvent>,
    filled: Vec<Event>,
}

impl Events {
    pub fn with_capacity(capacity: usize) -> Events {
        let capacity = capacity.max(1);
        Events {
            #[cfg(target_os = "linux")]
            raw: vec![sys::EpollEvent { events: 0, data: 0 }; capacity],
            filled: Vec::with_capacity(capacity),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.filled.iter().copied()
    }

    pub fn is_empty(&self) -> bool {
        self.filled.is_empty()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = Event;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Event>>;
    fn into_iter(self) -> Self::IntoIter {
        self.filled.iter().copied()
    }
}

/// Best-effort bump of `RLIMIT_NOFILE` to its hard cap. Returns the
/// soft limit now in effect (the old one if raising was refused —
/// containers commonly pin the hard limit). Callers size connection
/// targets off the returned value instead of assuming the raise worked.
pub fn raise_nofile_limit() -> u64 {
    #[cfg(target_os = "linux")]
    // Safety: Rlimit matches the kernel struct rlimit layout; the
    // pointers are valid for the duration of each call.
    unsafe {
        let mut lim = sys::Rlimit { cur: 0, max: 0 };
        if sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) != 0 {
            return 1024;
        }
        if lim.cur < lim.max {
            let want = sys::Rlimit {
                cur: lim.max,
                max: lim.max,
            };
            if sys::setrlimit(sys::RLIMIT_NOFILE, &want) == 0 {
                return want.cur;
            }
        }
        lim.cur
    }
    #[cfg(not(target_os = "linux"))]
    1024
}

#[cfg(target_os = "linux")]
mod linux {
    use super::{sys, Event, Events, Interest};
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    /// A level-triggered epoll instance. All methods take `&self`; the
    /// kernel serializes epoll_ctl against epoll_wait, so one thread
    /// can wait while others add/modify/delete registrations.
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // Safety: plain syscall, no pointers.
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, key: usize, interest: Interest) -> io::Result<()> {
            let mut flags = sys::EPOLLRDHUP;
            if interest.readable {
                flags |= sys::EPOLLIN;
            }
            if interest.writable {
                flags |= sys::EPOLLOUT;
            }
            let mut ev = sys::EpollEvent {
                events: flags,
                data: key as u64,
            };
            // Safety: `ev` is a valid EpollEvent for the duration of
            // the call (ignored for EPOLL_CTL_DEL).
            let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Registers `fd` under `key`. The fd must stay open while
        /// registered; the caller owns it (the poller never closes it).
        pub fn add(&self, fd: RawFd, key: usize, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd, key, interest)
        }

        pub fn modify(&self, fd: RawFd, key: usize, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, key, interest)
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        /// Waits up to `timeout` (`None` = forever) and fills `events`.
        /// Returns the number of events; `Ok(0)` on timeout or signal
        /// interruption (EINTR is folded into an empty wakeup so
        /// callers keep a single loop shape).
        pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
            events.filled.clear();
            let timeout_ms: c_int = match timeout {
                // Round sub-millisecond remainders up so a 100µs
                // timeout still sleeps instead of busy-spinning, and
                // clamp into the c_int domain.
                Some(t) => {
                    let carry = u128::from(t.subsec_nanos() % 1_000_000 != 0);
                    c_int::try_from(t.as_millis() + carry).unwrap_or(c_int::MAX)
                }
                None => -1,
            };
            // Safety: the raw buffer outlives the call and its length
            // bounds maxevents.
            let n = unsafe {
                sys::epoll_wait(
                    self.epfd,
                    events.raw.as_mut_ptr(),
                    c_int::try_from(events.raw.len()).unwrap_or(c_int::MAX),
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            for raw in &events.raw[..n as usize] {
                // Copy out of the (possibly packed) struct before use.
                let flags = raw.events;
                let key = raw.data as usize;
                events.filled.push(Event {
                    key,
                    readable: flags & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                    writable: flags & sys::EPOLLOUT != 0,
                    err: flags & sys::EPOLLERR != 0,
                    hup: flags & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                });
            }
            Ok(events.filled.len())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // Safety: epfd is a live fd owned by this struct.
            unsafe { sys::close(self.epfd) };
        }
    }

    /// Cross-thread wakeup for a [`Poller`]: an eventfd registered
    /// under a caller-chosen key. `wake` makes the poller report the
    /// key readable; `drain` clears it (level-triggered, so an
    /// undrained waker re-fires on every wait).
    pub struct Waker {
        efd: RawFd,
    }

    impl Waker {
        pub fn new(poller: &Poller, key: usize) -> io::Result<Waker> {
            // Safety: plain syscall, no pointers.
            let efd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
            if efd < 0 {
                return Err(io::Error::last_os_error());
            }
            let waker = Waker { efd };
            poller.add(efd, key, Interest::READ)?;
            Ok(waker)
        }

        pub fn wake(&self) -> io::Result<()> {
            let one: u64 = 1;
            // Safety: writes 8 bytes from a valid u64; eventfd writes
            // are atomic at this size.
            let n = unsafe { sys::write(self.efd, (&one as *const u64).cast(), 8) };
            if n < 0 {
                let err = io::Error::last_os_error();
                // EAGAIN means the counter is saturated — the poller is
                // already guaranteed to wake, so that is a success.
                if err.kind() != io::ErrorKind::WouldBlock {
                    return Err(err);
                }
            }
            Ok(())
        }

        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            // Safety: reads at most 8 bytes into a valid buffer.
            unsafe { sys::read(self.efd, buf.as_mut_ptr().cast(), 8) };
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            // Closing the fd implicitly removes its epoll registration.
            // Safety: efd is a live fd owned by this struct.
            unsafe { sys::close(self.efd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod stub {
    use super::{Events, Interest};
    use std::io;
    use std::time::Duration;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "polling shim: only Linux epoll is implemented",
        ))
    }

    pub struct Poller {}

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            unsupported()
        }
        pub fn add(&self, _fd: i32, _key: usize, _interest: Interest) -> io::Result<()> {
            unsupported()
        }
        pub fn modify(&self, _fd: i32, _key: usize, _interest: Interest) -> io::Result<()> {
            unsupported()
        }
        pub fn delete(&self, _fd: i32) -> io::Result<()> {
            unsupported()
        }
        pub fn wait(&self, _events: &mut Events, _timeout: Option<Duration>) -> io::Result<usize> {
            unsupported()
        }
    }

    pub struct Waker {}

    impl Waker {
        pub fn new(_poller: &Poller, _key: usize) -> io::Result<Waker> {
            unsupported()
        }
        pub fn wake(&self) -> io::Result<()> {
            unsupported()
        }
        pub fn drain(&self) {}
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    #[test]
    fn waker_wakes_and_drains() {
        let poller = Poller::new().expect("epoll");
        let waker = Waker::new(&poller, 7).expect("eventfd");
        let mut events = Events::with_capacity(8);

        // No wake yet: a short wait times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .expect("wait");
        assert_eq!(n, 0);

        waker.wake().expect("wake");
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(n, 1);
        let ev = events.iter().next().expect("event");
        assert_eq!(ev.key, 7);
        assert!(ev.readable);

        // Level-triggered: still readable until drained.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .expect("wait");
        assert_eq!(n, 1);
        waker.drain();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .expect("wait");
        assert_eq!(n, 0);
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).expect("nonblocking");
        let poller = Poller::new().expect("epoll");
        poller.add(b.as_raw_fd(), 42, Interest::READ).expect("add");
        let mut events = Events::with_capacity(8);

        // Nothing to read yet.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .expect("wait");
        assert_eq!(n, 0);
        assert!(events.is_empty());

        a.write_all(b"x").expect("write");
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(n, 1);
        let ev = events.iter().next().expect("event");
        assert_eq!(ev.key, 42);
        assert!(ev.readable && !ev.writable);

        // Flip to write interest: an idle socket is instantly writable.
        poller
            .modify(b.as_raw_fd(), 42, Interest::WRITE)
            .expect("modify");
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(n, 1);
        assert!(events.iter().next().expect("event").writable);

        poller.delete(b.as_raw_fd()).expect("delete");
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .expect("wait");
        assert_eq!(n, 0);
    }

    #[test]
    fn hangup_is_reported() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let poller = Poller::new().expect("epoll");
        poller.add(b.as_raw_fd(), 3, Interest::READ).expect("add");
        drop(a);
        let mut events = Events::with_capacity(8);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(n, 1);
        let ev = events.iter().next().expect("event");
        assert!(ev.hup && ev.readable);
    }

    #[test]
    fn timeout_is_honored() {
        let poller = Poller::new().expect("epoll");
        let mut events = Events::with_capacity(4);
        let start = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .expect("wait");
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn nofile_limit_is_queried() {
        assert!(raise_nofile_limit() >= 256);
    }
}

//! Offline stand-in for the [`polling`] crate: a level-triggered
//! readiness poller over raw file descriptors.
//!
//! Two backends, both reached through hand-rolled `extern "C"`
//! declarations against the libc that std already links (no new
//! dependencies):
//!
//! * **epoll** (Linux): one `epoll_create1` instance per [`Poller`];
//!   `add`/`modify`/`delete` map onto `epoll_ctl`, `wait` onto
//!   `epoll_wait`. O(ready) wakeups.
//! * **poll(2)** (portable fallback, any unix): the interest set lives
//!   in a mutex-guarded table and `wait` rebuilds a `pollfd` array per
//!   call. O(registered) wakeups, but correct everywhere poll exists.
//!
//! Both backends are **level-triggered**: an fd that stays readable
//! keeps reporting readable on every `wait`. Callers drain to
//! `WouldBlock` or deregister.
//!
//! Cross-thread wakeup (`notify`) uses a nonblocking
//! [`UnixDatagram::pair`]: `notify` sends one byte on one end and the
//! other end is registered inside the poller — a std-only "self-pipe"
//! that avoids `eventfd` FFI, opens no network socket and works
//! identically on both backends. A pending notification is drained by
//! the next `wait` and never surfaces as a caller-visible event; `wait`
//! may therefore return zero events spuriously.
//!
//! Concurrency contract: `add`/`modify`/`delete`/`notify` may be called
//! from any thread; `wait` is intended for the single owning thread.
//! On the poll(2) backend an interest change made while another thread
//! is blocked in `wait` takes effect at the *next* `wait` call — pair
//! interest changes with `notify`, as the real crate's callers do.
//!
//! [`polling`]: https://docs.rs/polling

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixDatagram;
use std::sync::Mutex;
use std::time::Duration;

/// Readiness interest and/or readiness state for one registered fd.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Caller-chosen identifier reported back by [`Poller::wait`].
    pub key: usize,
    /// Interested in / ready for reading.
    pub readable: bool,
    /// Interested in / ready for writing.
    pub writable: bool,
}

impl Event {
    /// Read-only interest.
    pub fn readable(key: usize) -> Self {
        Event {
            key,
            readable: true,
            writable: false,
        }
    }

    /// Write-only interest.
    pub fn writable(key: usize) -> Self {
        Event {
            key,
            readable: false,
            writable: true,
        }
    }

    /// Read + write interest.
    pub fn all(key: usize) -> Self {
        Event {
            key,
            readable: true,
            writable: true,
        }
    }

    /// No interest (keeps the fd registered but silent).
    pub fn none(key: usize) -> Self {
        Event {
            key,
            readable: false,
            writable: false,
        }
    }
}

/// Which OS facility a [`Poller`] drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Linux `epoll` — O(ready) wakeups.
    Epoll,
    /// Portable `poll(2)` — O(registered) wakeups.
    Poll,
}

/// Key reserved for the internal waker; never reported to callers.
const WAKER_KEY: usize = usize::MAX;

mod sys {
    //! Hand-rolled libc declarations. std already links libc, so these
    //! resolve without any new dependency.
    use std::os::raw::{c_int, c_ulong};

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct pollfd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        pub fn poll(fds: *mut pollfd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    #[cfg(target_os = "linux")]
    pub use linux::*;

    #[cfg(target_os = "linux")]
    mod linux {
        use std::os::raw::c_int;

        pub const EPOLL_CLOEXEC: c_int = 0o2000000;
        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_DEL: c_int = 2;
        pub const EPOLL_CTL_MOD: c_int = 3;
        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;

        // The kernel packs epoll_event on x86-64 only (see
        // uapi/linux/eventpoll.h: EPOLL_PACKED).
        #[repr(C)]
        #[cfg_attr(target_arch = "x86_64", repr(packed))]
        #[derive(Clone, Copy)]
        pub struct epoll_event {
            pub events: u32,
            pub data: u64,
        }

        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut epoll_event,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            pub fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
        }
    }
}

/// Pins the calling thread to one CPU (Linux; a no-op `Ok` elsewhere).
/// Best-effort affinity for reactor-style workers that want their
/// per-connection state to stay cache-local; `cpu` is taken modulo the
/// mask width libc accepts here (1024 CPUs).
pub fn pin_current_thread_to_cpu(cpu: usize) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        let cpu = cpu % 1024;
        let mut mask = [0u64; 16]; // 1024-bit cpu_set_t
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: pid 0 = calling thread; the mask buffer outlives the
        // call and its length is passed alongside.
        let ret = unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        cvt(ret).map(|_| ())
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        Ok(())
    }
}

/// Converts a `-1` libc return into the thread's errno as an
/// [`io::Error`]; passes other returns through.
fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Millisecond timeout for epoll_wait/poll: `None` blocks forever;
/// sub-millisecond remainders round *up* so a short deadline cannot
/// degenerate into a zero-timeout busy loop.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let mut ms = d.as_millis();
            if d.subsec_nanos() % 1_000_000 != 0 {
                ms += 1;
            }
            ms.min(i32::MAX as u128) as i32
        }
    }
}

#[cfg(target_os = "linux")]
mod epoll_backend {
    use super::*;
    use std::os::fd::{FromRawFd, OwnedFd};

    /// Thin owner of an epoll instance.
    pub struct Epoll {
        epfd: OwnedFd,
    }

    fn interest_mask(ev: Event) -> u32 {
        let mut mask = 0;
        if ev.readable {
            mask |= sys::EPOLLIN;
        }
        if ev.writable {
            mask |= sys::EPOLLOUT;
        }
        mask
    }

    impl Epoll {
        pub fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 has no pointer arguments; on
            // success the returned fd is freshly ours to own.
            let raw = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
            // SAFETY: `raw` is a valid fd we exclusively own.
            let epfd = unsafe { OwnedFd::from_raw_fd(raw) };
            Ok(Epoll { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, ev: Option<Event>) -> io::Result<()> {
            let mut event = sys::epoll_event {
                events: ev.map(interest_mask).unwrap_or(0),
                data: ev.map(|e| e.key as u64).unwrap_or(0),
            };
            // SAFETY: `event` outlives the call; the kernel copies it.
            cvt(unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut event) })?;
            Ok(())
        }

        pub fn add(&self, fd: RawFd, ev: Event) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd, Some(ev))
        }

        pub fn modify(&self, fd: RawFd, ev: Event) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, Some(ev))
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_DEL, fd, None)
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<bool> {
            const CAP: usize = 256;
            let mut buf = [sys::epoll_event { events: 0, data: 0 }; CAP];
            let n = loop {
                // SAFETY: `buf` is a writable array of CAP epoll_events.
                let ret = unsafe {
                    sys::epoll_wait(
                        self.epfd.as_raw_fd(),
                        buf.as_mut_ptr(),
                        CAP as i32,
                        timeout_ms(timeout),
                    )
                };
                match cvt(ret) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            let mut woke = false;
            for raw in &buf[..n] {
                // Copy out of the (possibly packed) struct before use.
                let mask = raw.events;
                let key = raw.data as usize;
                if key == WAKER_KEY {
                    woke = true;
                    continue;
                }
                // Error/hangup surface as read+write readiness so the
                // caller's next I/O attempt observes the real error.
                let err = mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
                events.push(Event {
                    key,
                    readable: mask & sys::EPOLLIN != 0 || err,
                    writable: mask & sys::EPOLLOUT != 0 || err,
                });
            }
            Ok(woke)
        }
    }
}

mod poll_backend {
    use super::*;

    /// One registered fd in the portable backend's interest table.
    #[derive(Clone, Copy)]
    struct Slot {
        fd: RawFd,
        key: usize,
        mask: i16,
    }

    /// Portable poll(2) backend: interest table + per-wait pollfd array.
    pub struct PollTable {
        slots: Mutex<Vec<Slot>>,
    }

    fn interest_mask(ev: Event) -> i16 {
        let mut mask = 0;
        if ev.readable {
            mask |= sys::POLLIN;
        }
        if ev.writable {
            mask |= sys::POLLOUT;
        }
        mask
    }

    impl PollTable {
        pub fn new() -> Self {
            PollTable {
                slots: Mutex::new(Vec::new()),
            }
        }

        pub fn add(&self, fd: RawFd, ev: Event) -> io::Result<()> {
            let mut slots = self.slots.lock().unwrap();
            if slots.iter().any(|s| s.fd == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            slots.push(Slot {
                fd,
                key: ev.key,
                mask: interest_mask(ev),
            });
            Ok(())
        }

        pub fn modify(&self, fd: RawFd, ev: Event) -> io::Result<()> {
            let mut slots = self.slots.lock().unwrap();
            let slot = slots
                .iter_mut()
                .find(|s| s.fd == fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            slot.key = ev.key;
            slot.mask = interest_mask(ev);
            Ok(())
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            let mut slots = self.slots.lock().unwrap();
            let before = slots.len();
            slots.retain(|s| s.fd != fd);
            if slots.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<bool> {
            // Snapshot under the lock, block outside it: a concurrent
            // interest change lands at the next wait (callers notify).
            let snapshot: Vec<Slot> = self.slots.lock().unwrap().clone();
            let mut fds: Vec<sys::pollfd> = snapshot
                .iter()
                .map(|s| sys::pollfd {
                    fd: s.fd,
                    events: s.mask,
                    revents: 0,
                })
                .collect();
            loop {
                // SAFETY: `fds` is a writable array of fds.len() pollfds.
                let ret = unsafe {
                    sys::poll(
                        fds.as_mut_ptr(),
                        fds.len() as std::os::raw::c_ulong,
                        timeout_ms(timeout),
                    )
                };
                match cvt(ret) {
                    Ok(_) => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            let mut woke = false;
            for (slot, pfd) in snapshot.iter().zip(&fds) {
                let re = pfd.revents;
                if re == 0 {
                    continue;
                }
                if slot.key == WAKER_KEY {
                    woke = true;
                    continue;
                }
                let err = re & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
                events.push(Event {
                    key: slot.key,
                    readable: re & sys::POLLIN != 0 || err,
                    writable: re & sys::POLLOUT != 0 || err,
                });
            }
            Ok(woke)
        }
    }
}

enum BackendImpl {
    #[cfg(target_os = "linux")]
    Epoll(epoll_backend::Epoll),
    Poll(poll_backend::PollTable),
}

/// A level-triggered readiness poller with a cross-thread waker.
pub struct Poller {
    backend: BackendImpl,
    /// `notify` sends on this end of the waker pair.
    wake_tx: UnixDatagram,
    /// Registered under [`WAKER_KEY`]; `wait` drains it.
    wake_rx: UnixDatagram,
}

impl Poller {
    /// Opens a poller on the platform's best backend: epoll on Linux,
    /// poll(2) elsewhere.
    pub fn new() -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        {
            Self::with_backend(Backend::Epoll)
        }
        #[cfg(not(target_os = "linux"))]
        {
            Self::with_backend(Backend::Poll)
        }
    }

    /// Opens a poller on an explicit backend. `Backend::Epoll` fails
    /// with `Unsupported` off Linux.
    pub fn with_backend(backend: Backend) -> io::Result<Self> {
        let backend = match backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll => BackendImpl::Epoll(epoll_backend::Epoll::new()?),
            #[cfg(not(target_os = "linux"))]
            Backend::Epoll => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "epoll backend requires Linux",
                ))
            }
            Backend::Poll => BackendImpl::Poll(poll_backend::PollTable::new()),
        };
        // Datagram socket pair: a 1-byte send on `wake_tx` from any
        // thread makes `wake_rx` readable and wakes a blocked `wait`.
        let (wake_tx, wake_rx) = UnixDatagram::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let poller = Poller {
            backend,
            wake_tx,
            wake_rx,
        };
        poller.add(poller.wake_rx.as_raw_fd(), Event::readable(WAKER_KEY))?;
        Ok(poller)
    }

    /// Which backend this poller runs on.
    pub fn backend(&self) -> Backend {
        match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(_) => Backend::Epoll,
            BackendImpl::Poll(_) => Backend::Poll,
        }
    }

    /// Registers `fd` with the given interest. The caller keeps
    /// ownership of the fd and must `delete` it before closing it
    /// (closing first is tolerated by epoll but an error on poll(2)).
    pub fn add(&self, fd: RawFd, ev: Event) -> io::Result<()> {
        if ev.key == WAKER_KEY && fd != self.wake_rx.as_raw_fd() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "event key usize::MAX is reserved",
            ));
        }
        match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(e) => e.add(fd, ev),
            BackendImpl::Poll(p) => p.add(fd, ev),
        }
    }

    /// Replaces the interest set (and key) for a registered `fd`.
    pub fn modify(&self, fd: RawFd, ev: Event) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(e) => e.modify(fd, ev),
            BackendImpl::Poll(p) => p.modify(fd, ev),
        }
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(e) => e.delete(fd),
            BackendImpl::Poll(p) => p.delete(fd),
        }
    }

    /// Blocks until at least one registered fd is ready, the timeout
    /// lapses, or another thread calls [`notify`](Self::notify).
    /// Ready events are appended to `events` (not cleared first);
    /// returns how many were appended. Zero with an elapsed timeout or
    /// after a notification is not an error.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let before = events.len();
        let woke = match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(e) => e.wait(events, timeout)?,
            BackendImpl::Poll(p) => p.wait(events, timeout)?,
        };
        if woke {
            // Drain every pending notification so the level-triggered
            // waker fd goes quiet until the next notify.
            let mut sink = [0u8; 16];
            while self.wake_rx.recv(&mut sink).is_ok() {}
        }
        Ok(events.len() - before)
    }

    /// Wakes a thread blocked in [`wait`](Self::wait). Safe from any
    /// thread; coalesces (many notifies, one wakeup).
    pub fn notify(&self) -> io::Result<()> {
        match self.wake_tx.send(&[1]) {
            Ok(_) => Ok(()),
            // A full datagram queue means a wakeup is already pending.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn backends() -> Vec<Backend> {
        if cfg!(target_os = "linux") {
            vec![Backend::Epoll, Backend::Poll]
        } else {
            vec![Backend::Poll]
        }
    }

    #[test]
    fn notify_wakes_a_blocked_wait() {
        for backend in backends() {
            let poller = std::sync::Arc::new(Poller::with_backend(backend).unwrap());
            let waiter = {
                let poller = poller.clone();
                std::thread::spawn(move || {
                    let mut events = Vec::new();
                    let start = Instant::now();
                    poller
                        .wait(&mut events, Some(Duration::from_secs(10)))
                        .unwrap();
                    (events.len(), start.elapsed())
                })
            };
            std::thread::sleep(Duration::from_millis(50));
            poller.notify().unwrap();
            let (n, elapsed) = waiter.join().unwrap();
            assert_eq!(n, 0, "waker must not surface as a caller event");
            assert!(
                elapsed < Duration::from_secs(1),
                "{backend:?}: wait did not wake on notify ({elapsed:?})"
            );
        }
    }

    #[test]
    fn notifies_without_a_wait_coalesce_and_a_full_queue_still_succeeds() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            for i in 0..1000 {
                poller
                    .notify()
                    .unwrap_or_else(|e| panic!("{backend:?}: notify {i} failed: {e}"));
            }
            // Fill the datagram queue to the brim: the raw send reports
            // `WouldBlock`, which `notify` reads as a pending wakeup.
            let mut full = false;
            for _ in 0..1_000_000 {
                match poller.wake_tx.send(&[1]) {
                    Ok(_) => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        full = true;
                        break;
                    }
                    Err(e) => panic!("{backend:?}: {e}"),
                }
            }
            assert!(full, "{backend:?}: the waker queue never filled");
            poller.notify().unwrap();
            let mut events = Vec::new();
            let start = Instant::now();
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(
                n, 0,
                "{backend:?}: waker must not surface as a caller event"
            );
            assert!(start.elapsed() < Duration::from_secs(1), "{backend:?}");
        }
    }

    #[test]
    fn a_wait_after_the_drain_times_out_with_no_events() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            for _ in 0..3 {
                poller.notify().unwrap();
            }
            let mut events = Vec::new();
            assert_eq!(
                poller
                    .wait(&mut events, Some(Duration::from_secs(5)))
                    .unwrap(),
                0
            );
            // Every pending notification was drained: the next wait
            // blocks for its whole timeout.
            let start = Instant::now();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            assert_eq!(n, 0, "{backend:?}");
            assert!(
                start.elapsed() >= Duration::from_millis(45),
                "{backend:?}: waker still readable after the drain ({:?})",
                start.elapsed()
            );
        }
    }

    #[test]
    fn listener_becomes_readable_on_connect() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            poller
                .add(listener.as_raw_fd(), Event::readable(7))
                .unwrap();
            let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let mut events = Vec::new();
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1, "{backend:?}");
            assert_eq!(events[0].key, 7);
            assert!(events[0].readable);
        }
    }

    #[test]
    fn connected_stream_reports_writable_then_readable_after_peer_write() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (mut peer, _) = listener.accept().unwrap();
            client.set_nonblocking(true).unwrap();
            poller.add(client.as_raw_fd(), Event::all(3)).unwrap();

            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.key == 3 && e.writable),
                "{backend:?}: fresh stream should be writable"
            );

            peer.write_all(b"ping").unwrap();
            // Level-triggered: keeps firing until drained.
            for _ in 0..2 {
                events.clear();
                poller
                    .wait(&mut events, Some(Duration::from_secs(5)))
                    .unwrap();
                assert!(
                    events.iter().any(|e| e.key == 3 && e.readable),
                    "{backend:?}: undrained readable fd must re-fire"
                );
            }
            let mut buf = [0u8; 8];
            let mut stream = &client;
            assert_eq!(stream.read(&mut buf).unwrap(), 4);
        }
    }

    #[test]
    fn modify_and_delete_change_reported_interest() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (_peer, _) = listener.accept().unwrap();
            client.set_nonblocking(true).unwrap();
            poller.add(client.as_raw_fd(), Event::all(1)).unwrap();

            // Writable interest masked off: nothing should fire.
            poller.modify(client.as_raw_fd(), Event::none(1)).unwrap();
            let mut events = Vec::new();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            assert_eq!(n, 0, "{backend:?}: masked fd fired {events:?}");

            // Back on, fires again; then delete silences it for good.
            poller
                .modify(client.as_raw_fd(), Event::writable(1))
                .unwrap();
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1, "{backend:?}");
            poller.delete(client.as_raw_fd()).unwrap();
            events.clear();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            assert_eq!(n, 0, "{backend:?}: deleted fd fired {events:?}");
        }
    }

    #[test]
    fn reserved_key_is_rejected() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let err = poller
            .add(listener.as_raw_fd(), Event::readable(WAKER_KEY))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn sub_millisecond_timeouts_round_up() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(5))), 5);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1500))), 2);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
    }
}

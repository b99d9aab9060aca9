//! A minimal readiness shim for the event-loop server: `poll(2)` without
//! `libc`, plus a cross-thread waker.
//!
//! The workspace builds with zero external crates, so readiness
//! notification is obtained from the kernel directly: on Linux
//! (x86_64/aarch64) [`poll`] issues the raw `ppoll` syscall via inline
//! assembly; everywhere else it degrades to a bounded sleep that reports
//! every descriptor as ready, which turns the event loop into a
//! short-period scan over nonblocking sockets (correct, just not
//! load-proportional). Either way the loop above only ever *attempts*
//! nonblocking I/O on reported-ready descriptors and treats `WouldBlock`
//! as a no-op, so spurious readiness is harmless.
//!
//! [`Waker`] is the std-only stand-in for a self-pipe: a loopback TCP
//! pair whose read end sits in the poll set. Worker threads (and
//! subscription push sinks) call [`Waker::wake`] to make a blocked
//! [`poll`] return; a pending-flag coalesces bursts into a single byte
//! so the pair's socket buffer can never fill.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Readiness: data to read (or a peer hang-up to observe).
pub const POLLIN: i16 = 0x001;
/// Readiness: the socket's send buffer has room.
pub const POLLOUT: i16 = 0x004;
/// Result-only: error condition on the descriptor.
pub const POLLERR: i16 = 0x008;
/// Result-only: peer hung up.
pub const POLLHUP: i16 = 0x010;
/// Result-only: descriptor not open.
pub const POLLNVAL: i16 = 0x020;

/// One entry in a [`poll`] set — layout-compatible with the kernel's
/// `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The raw file descriptor to watch.
    pub fd: i32,
    /// Requested readiness ([`POLLIN`] / [`POLLOUT`]).
    pub events: i16,
    /// Reported readiness (filled by [`poll`]; includes [`POLLERR`],
    /// [`POLLHUP`], [`POLLNVAL`] even when unrequested).
    pub revents: i16,
}

impl PollFd {
    /// Watch `fd` for `events`.
    pub fn new(fd: i32, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether any of `mask` was reported.
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }

    /// Whether an error/hang-up condition was reported.
    pub fn broken(&self) -> bool {
        self.revents & (POLLERR | POLLNVAL) != 0
    }
}

/// Block until a descriptor in `fds` is ready, `timeout` elapses
/// (`None` = block indefinitely), or a wakeup arrives. Returns the
/// number of ready descriptors; `revents` is filled in place. `EINTR`
/// is retried internally.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    imp::poll(fds, timeout)
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::PollFd;
    use std::io;
    use std::time::Duration;

    /// Kernel `struct timespec` (both supported ABIs use 64-bit fields).
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    #[cfg(target_arch = "x86_64")]
    const SYS_PPOLL: usize = 271;
    #[cfg(target_arch = "aarch64")]
    const SYS_PPOLL: usize = 73;

    const EINTR: isize = -4;

    /// Raw 5-argument syscall. Safety: the caller must uphold the
    /// syscall's own contract — here, `a1` points to `a2` valid pollfds
    /// and `a3` is null or a valid timespec, all live across the call.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall5(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall5(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            options(nostack)
        );
        ret
    }

    pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
        let ts = timeout.map(|d| Timespec {
            tv_sec: d.as_secs() as i64,
            tv_nsec: d.subsec_nanos() as i64,
        });
        loop {
            let ts_ptr = ts
                .as_ref()
                .map(|t| t as *const Timespec as usize)
                .unwrap_or(0);
            // SAFETY: `fds` is a live, exclusively-borrowed slice of
            // `#[repr(C)]` pollfd-layout structs; `ts_ptr` is null or a
            // live timespec; the sigmask is null (size 8 is ignored for a
            // null mask). ppoll writes only into `fds[..len].revents`.
            let ret = unsafe {
                syscall5(
                    SYS_PPOLL,
                    fds.as_mut_ptr() as usize,
                    fds.len(),
                    ts_ptr,
                    0, // sigmask: keep the caller's signal mask
                    8, // sizeof(kernel sigset_t)
                )
            };
            if ret == EINTR {
                continue;
            }
            if ret < 0 {
                return Err(io::Error::from_raw_os_error(-ret as i32));
            }
            return Ok(ret as usize);
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use super::{PollFd, POLLIN, POLLOUT};
    use std::io;
    use std::time::Duration;

    /// Portable fallback: no readiness syscall, so sleep a short bounded
    /// interval and report everything as (maybe) ready. The event loop's
    /// nonblocking attempts turn false positives into `WouldBlock`
    /// no-ops; wake latency is bounded by the scan period.
    const SCAN_PERIOD: Duration = Duration::from_millis(5);

    pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
        let nap = timeout.map_or(SCAN_PERIOD, |t| t.min(SCAN_PERIOD));
        std::thread::sleep(nap);
        for fd in fds.iter_mut() {
            fd.revents = fd.events & (POLLIN | POLLOUT);
        }
        Ok(fds.len())
    }
}

/// A cross-thread wakeup for a [`poll`]-blocked event loop, built from a
/// loopback TCP pair (std has no pipes). The read end lives in the poll
/// set; [`Waker::wake`] writes one byte to the write end. A pending-flag
/// coalesces concurrent wakes so at most one byte is ever in flight.
#[derive(Debug)]
pub struct Waker {
    tx: TcpStream,
    pending: AtomicBool,
}

/// The loop-owned read end of a [`Waker`] pair.
#[derive(Debug)]
pub struct WakeReceiver {
    rx: TcpStream,
}

impl Waker {
    /// Build a connected waker pair.
    pub fn pair() -> io::Result<(Waker, WakeReceiver)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        tx.set_nonblocking(true)?;
        tx.set_nodelay(true)?;
        rx.set_nonblocking(true)?;
        Ok((
            Waker {
                tx,
                pending: AtomicBool::new(false),
            },
            WakeReceiver { rx },
        ))
    }

    /// Make the next (or current) [`poll`] return. Cheap and safe to call
    /// from any thread; errors are ignored (a torn-down loop needs no
    /// wake).
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            let _ = (&self.tx).write(&[1]);
        }
    }
}

impl WakeReceiver {
    /// The descriptor to register with [`POLLIN`].
    pub fn fd(&self) -> i32 {
        use std::os::fd::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// Consume pending wake bytes and re-arm the waker. Call after
    /// [`poll`] returns and **before** collecting the work the wakes
    /// announce (the completion queues).
    ///
    /// The order is what makes a wake impossible to lose: the socket is
    /// read empty *first*, the coalescing flag cleared *second*, the work
    /// collected *last*. A [`Waker::wake`] that lands before the clear
    /// finds the flag still set and writes nothing — its work was queued
    /// before it called `wake`, so the collection that follows sees it. A
    /// wake that lands after the clear writes a fresh byte and turns the
    /// next [`poll`]. (Clearing first, as this once did, let the drain
    /// swallow the byte of a wake that had just re-set the flag; the flag
    /// then stayed set and every later wake was coalesced away.)
    pub fn drain(&mut self, waker: &Waker) {
        let mut buf = [0u8; 64];
        while matches!(self.rx.read(&mut buf), Ok(n) if n > 0) {}
        // A read-modify-write, so it synchronizes with the `swap` of every
        // coalesced wake before it: their queued work is visible to the
        // collection that follows.
        waker.pending.swap(false, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::AsRawFd;

    #[test]
    fn poll_reports_writable_and_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();

        // A fresh connection is writable but not readable.
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN | POLLOUT)];
        let n = poll(&mut fds, Some(Duration::from_millis(200))).unwrap();
        assert!(n >= 1);
        assert!(fds[0].ready(POLLOUT));

        // After the peer writes, it becomes readable.
        (&a).write_all(b"x").unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            poll(&mut fds, Some(Duration::from_millis(50))).unwrap();
            if fds[0].ready(POLLIN) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "never became readable"
            );
        }
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn poll_timeout_expires_on_idle_fd() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        let _keep = a;
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let t = std::time::Instant::now();
        let n = poll(&mut fds, Some(Duration::from_millis(60))).unwrap();
        assert_eq!(n, 0, "idle fd must time out, not report readiness");
        assert!(t.elapsed() >= Duration::from_millis(50));
    }

    /// Regression for the lost wake-up: producers queue an item and call
    /// `wake()`; the loop polls (with a timeout no healthy wake-up comes
    /// near), drains, then collects. With the flag cleared *before* the
    /// socket was read, a wake landing in between had its byte swallowed
    /// while the flag stayed set, every later wake was coalesced away, and
    /// queued items sat until the poll timed out. 1.6 M wakes hit that
    /// window within the first few thousand on every run tried.
    #[test]
    fn hammered_waker_never_strands_a_completion() {
        use std::sync::{Arc, Mutex};
        use std::time::Instant;
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 400_000;
        const POLL_TURN: Duration = Duration::from_millis(500);

        let (waker, mut rx) = Waker::pair().unwrap();
        let waker = Arc::new(waker);
        let queue: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for _ in 0..PRODUCERS {
                let (waker, queue) = (Arc::clone(&waker), Arc::clone(&queue));
                scope.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        queue.lock().unwrap().push(Instant::now());
                        waker.wake();
                        if i % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let mut collected = 0usize;
            while collected < PRODUCERS * PER_PRODUCER {
                let mut fds = [PollFd::new(rx.fd(), POLLIN)];
                poll(&mut fds, Some(POLL_TURN)).unwrap();
                rx.drain(&waker);
                let batch = std::mem::take(&mut *queue.lock().unwrap());
                let now = Instant::now();
                for queued_at in &batch {
                    let waited = now.duration_since(*queued_at);
                    assert!(
                        waited < POLL_TURN / 2,
                        "a completion waited {waited:?} of a {POLL_TURN:?} poll turn: \
                         its wake-up was lost ({collected} collected before it)"
                    );
                }
                collected += batch.len();
            }
        });
    }

    #[test]
    fn waker_unblocks_poll_and_coalesces() {
        let (waker, mut rx) = Waker::pair().unwrap();
        let waker = std::sync::Arc::new(waker);
        let w2 = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            // A burst of wakes coalesces into (at most) one byte.
            for _ in 0..100 {
                w2.wake();
            }
        });
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poll(&mut fds, Some(Duration::from_millis(100))).unwrap();
            if fds[0].ready(POLLIN) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "wake never arrived");
        }
        rx.drain(&waker);
        // Drained: a fresh poll times out (nothing pending).
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        poll(&mut fds, Some(Duration::from_millis(20))).unwrap();
        t.join().unwrap();
        // And the waker still works after a drain.
        waker.wake();
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poll(&mut fds, Some(Duration::from_millis(100))).unwrap();
            if fds[0].ready(POLLIN) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "re-wake never arrived"
            );
        }
    }
}

//! The I/O reactor: one epoll instance, one dispatch thread.
//!
//! The workspace vendors no async runtime (the build environment has no
//! crates.io access), so `megate-net` brings its own minimal reactor:
//! a single thread parked in `epoll_wait(2)` that wakes the
//! [`Waker`]s interested futures registered. The raw syscalls are
//! declared via `extern "C"` against the libc every Rust binary on
//! Linux already links — no external crate needed.
//!
//! Design points:
//!
//! * **One-shot arming.** Sources are registered with an empty event
//!   mask at creation; an I/O future that hits `WouldBlock` arms the
//!   mask it needs (`EPOLLIN`/`EPOLLOUT`) together with `EPOLLONESHOT`.
//!   After the event fires the source is quiescent again, so a level-
//!   triggered storm can never spin the dispatch thread.
//! * **Read and write wakers are independent.** A connection's reader
//!   and writer tasks park on the same fd; the dispatch thread wakes
//!   whichever half the event readiness covers and re-arms the other.
//! * **Timers ride the same thread.** Pending timers sit in one
//!   deadline-ordered map behind a mutex; `epoll_wait`'s timeout is the
//!   first deadline, and a self-wake socketpair interrupts the wait
//!   when an earlier one arrives. A fired timer sets a flag its
//!   [`Sleep`] reads without the lock.

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::future::Future;
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::Waker;
use std::time::{Duration, Instant};

// ---- raw epoll bindings (std links libc; no crate needed) ----

/// `epoll_event` as the kernel ABI defines it (packed on x86-64).
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `epoll_event` as the kernel ABI defines it.
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
}

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLONESHOT: u32 = 1 << 30;

/// Which readiness a future is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Readable (or peer hangup — a read will observe EOF).
    Read,
    /// Writable (or error — a write will observe it).
    Write,
}

/// Per-fd reactor state: the parked wakers and the currently armed
/// event mask.
#[derive(Default)]
struct Source {
    fd: RawFd,
    read_waker: Option<Waker>,
    write_waker: Option<Waker>,
    /// Set (under this lock) when the registration drops, *before* the
    /// fd leaves the epoll set. The kernel reuses fd numbers as soon as
    /// the owner closes, so a late `rearm` keyed by the old token would
    /// otherwise clobber the reused fd's freshly-armed mask and strand
    /// its waker forever.
    dead: bool,
}

impl Source {
    fn armed_mask(&self) -> u32 {
        let mut m = 0;
        if self.read_waker.is_some() {
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if self.write_waker.is_some() {
            m |= EPOLLOUT;
        }
        m
    }
}

/// A registered fd's handle. Dropping it deregisters the fd from the
/// reactor (the owner closes the fd itself afterwards).
pub struct Registration {
    token: u64,
    reactor: &'static Reactor,
}

impl Registration {
    /// Parks `waker` until the fd is ready for `interest`. Re-arms the
    /// epoll mask to the union of both halves' outstanding interests.
    pub fn arm(&self, interest: Interest, waker: &Waker) {
        let sources = self.reactor.sources.lock();
        let Some(src) = sources.get(&self.token) else {
            return;
        };
        let mut src = src.lock();
        if src.dead {
            // Racing a drop: re-poll immediately and observe the close.
            waker.wake_by_ref();
            return;
        }
        match interest {
            Interest::Read => src.read_waker = Some(waker.clone()),
            Interest::Write => src.write_waker = Some(waker.clone()),
        }
        self.reactor.rearm(self.token, &src);
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        let src = self.reactor.sources.lock().remove(&self.token);
        if let Some(src) = src {
            let mut s = src.lock();
            // Under the source lock, so it serializes against a
            // dispatch-thread rearm in flight for this token: whichever
            // runs second either sees `dead` or MODs an fd we have not
            // deleted yet. The owner closes the fd only after this drop
            // returns, so no reused-fd MOD can slip through.
            s.dead = true;
            let mut ev = EpollEvent { events: 0, data: 0 };
            unsafe { epoll_ctl(self.reactor.epfd, EPOLL_CTL_DEL, s.fd, &mut ev) };
            // Anything still parked observes the closed fd on its next
            // poll rather than sleeping forever.
            if let Some(w) = s.read_waker.clone() {
                w.wake();
            }
            if let Some(w) = s.write_waker.clone() {
                w.wake();
            }
        }
    }
}

/// A pending timer's handle; dropping it cancels the timer.
pub struct TimerHandle {
    key: (Instant, u64),
    /// Set by the dispatch thread just before it wakes the timer's
    /// waker; lets the owner re-poll without the timer lock or a clock
    /// read.
    fired: Arc<AtomicBool>,
    reactor: &'static Reactor,
}

impl TimerHandle {
    /// Whether the deadline has passed and the waker been woken.
    fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// Replaces the waker the timer will fire.
    pub fn reset_waker(&self, waker: &Waker) {
        let mut timers = self.reactor.timers.lock();
        if let Some(slot) = timers.get_mut(&self.key) {
            slot.waker = waker.clone();
        }
    }
}

impl Drop for TimerHandle {
    fn drop(&mut self) {
        self.reactor.timers.lock().remove(&self.key);
    }
}

/// A registered timer: whom to wake, and the flag its handle watches.
struct Timer {
    waker: Waker,
    fired: Arc<AtomicBool>,
}

/// The process-wide reactor (lazily started on first use).
pub struct Reactor {
    epfd: RawFd,
    sources: Mutex<HashMap<u64, Arc<Mutex<Source>>>>,
    /// Pending timers ordered by deadline (the sequence number breaks
    /// ties); the dispatch thread sleeps until the first one.
    timers: Mutex<BTreeMap<(Instant, u64), Timer>>,
    next_token: AtomicU64,
    /// Write half of the self-wake socketpair.
    wake_tx: std::os::unix::net::UnixStream,
}

static REACTOR: OnceLock<Reactor> = OnceLock::new();

impl Reactor {
    /// The global reactor, starting its dispatch thread on first call.
    pub fn global() -> &'static Reactor {
        REACTOR.get_or_init(|| {
            let epfd = unsafe {
                epoll_create1(0o2000000 /* EPOLL_CLOEXEC */)
            };
            assert!(
                epfd >= 0,
                "epoll_create1 failed: {}",
                io::Error::last_os_error()
            );
            let (wake_tx, wake_rx) =
                std::os::unix::net::UnixStream::pair().expect("socketpair for reactor self-wake");
            wake_rx.set_nonblocking(true).unwrap();
            let mut ev = EpollEvent {
                events: EPOLLIN,
                data: u64::MAX, // reserved self-wake token
            };
            let rc = unsafe { epoll_ctl(epfd, EPOLL_CTL_ADD, wake_rx.as_raw_fd(), &mut ev) };
            assert_eq!(rc, 0, "epoll_ctl(self-wake) failed");
            let reactor = Reactor {
                epfd,
                sources: Mutex::new(HashMap::new()),
                timers: Mutex::new(BTreeMap::new()),
                next_token: AtomicU64::new(1),
                wake_tx,
            };
            std::thread::Builder::new()
                .name("megate-net-reactor".into())
                .spawn(move || dispatch_loop(Reactor::global(), wake_rx))
                .expect("spawn reactor thread");
            reactor
        })
    }

    /// Registers a (nonblocking) fd with an empty event mask; futures
    /// arm interests through the returned [`Registration`].
    pub fn register(&'static self, fd: RawFd) -> io::Result<Registration> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let mut ev = EpollEvent {
            events: EPOLLONESHOT, // quiescent until armed
            data: token,
        };
        let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        self.sources.lock().insert(
            token,
            Arc::new(Mutex::new(Source {
                fd,
                ..Source::default()
            })),
        );
        Ok(Registration {
            token,
            reactor: self,
        })
    }

    /// Schedules `waker` to fire at `deadline`.
    pub fn add_timer(&'static self, deadline: Instant, waker: &Waker) -> TimerHandle {
        let seq = self.next_token.fetch_add(1, Ordering::Relaxed);
        let key = (deadline, seq);
        let fired = Arc::new(AtomicBool::new(false));
        let timer = Timer {
            waker: waker.clone(),
            fired: fired.clone(),
        };
        let earliest = {
            let mut timers = self.timers.lock();
            timers.insert(key, timer);
            *timers.keys().next().unwrap() == key
        };
        if earliest {
            self.poke();
        }
        TimerHandle {
            key,
            fired,
            reactor: self,
        }
    }

    /// Timers registered and not yet fired or cancelled.
    pub fn pending_timers(&self) -> usize {
        self.timers.lock().len()
    }

    /// Interrupts the dispatch thread's current `epoll_wait`.
    fn poke(&self) {
        use std::io::Write;
        let _ = (&self.wake_tx).write(&[1u8]);
    }

    /// Re-arms the fd's one-shot mask to the source's current interests.
    /// Callers hold the source's lock; a dead source is never re-armed
    /// (its fd number may already belong to a newer registration).
    fn rearm(&self, token: u64, src: &Source) {
        if src.dead {
            return;
        }
        let mask = src.armed_mask();
        let mut ev = EpollEvent {
            events: mask | EPOLLONESHOT,
            data: token,
        };
        unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, src.fd, &mut ev) };
    }
}

/// The dispatch thread: wait, wake the covered halves, fire timers.
fn dispatch_loop(reactor: &'static Reactor, wake_rx: std::os::unix::net::UnixStream) {
    use std::io::Read;
    let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
    let mut drain = [0u8; 64];
    loop {
        let timeout_ms = {
            let timers = reactor.timers.lock();
            match timers.keys().next() {
                Some(&(deadline, _)) => {
                    let now = Instant::now();
                    if deadline <= now {
                        0
                    } else {
                        // Round up so we never wake a hair early and spin.
                        deadline
                            .saturating_duration_since(now)
                            .as_millis()
                            .min(60_000) as i32
                            + 1
                    }
                }
                None => 10_000,
            }
        };
        let n = unsafe {
            epoll_wait(
                reactor.epfd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        for ev in events.iter().take(n.max(0) as usize) {
            let token = ev.data;
            let bits = ev.events;
            if token == u64::MAX {
                let mut rx = &wake_rx;
                while rx
                    .read(&mut drain)
                    .map(|k| k == drain.len())
                    .unwrap_or(false)
                {}
                continue;
            }
            let src = reactor.sources.lock().get(&token).cloned();
            let Some(src) = src else { continue };
            let mut s = src.lock();
            let err = bits & (EPOLLERR | EPOLLHUP) != 0;
            if err || bits & (EPOLLIN | EPOLLRDHUP) != 0 {
                if let Some(w) = s.read_waker.take() {
                    w.wake();
                }
            }
            if err || bits & EPOLLOUT != 0 {
                if let Some(w) = s.write_waker.take() {
                    w.wake();
                }
            }
            reactor.rearm(token, &s);
        }
        // Fire due timers.
        let now = Instant::now();
        loop {
            let due = {
                let mut timers = reactor.timers.lock();
                match timers.keys().next().copied() {
                    Some(key) if key.0 <= now => timers.remove(&key),
                    _ => None,
                }
            };
            match due {
                Some(timer) => {
                    timer.fired.store(true, Ordering::Release);
                    timer.waker.wake();
                }
                None => break,
            }
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}

/// Sleeps until `deadline` (async).
pub struct Sleep {
    deadline: Instant,
    /// The registered timer and the waker it holds.
    timer: Option<(TimerHandle, Waker)>,
}

impl Sleep {
    /// A future completing at `deadline`.
    pub fn until(deadline: Instant) -> Self {
        Self {
            deadline,
            timer: None,
        }
    }

    /// A future completing after `dur`.
    pub fn after(dur: Duration) -> Self {
        Self::until(Instant::now() + dur)
    }
}

impl std::future::Future for Sleep {
    type Output = ();

    fn poll(
        mut self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<()> {
        use std::task::Poll;
        // Armed: a re-poll (the usual case under `timeout`, whose inner
        // future is what got woken) is one atomic load and a waker
        // comparison — no lock, no clock read.
        if let Some((timer, waker)) = &mut self.timer {
            if timer.fired() {
                return Poll::Ready(());
            }
            if !waker.will_wake(cx.waker()) {
                timer.reset_waker(cx.waker());
                waker.clone_from(cx.waker());
                // The timer may have fired the old waker meanwhile.
                if timer.fired() {
                    return Poll::Ready(());
                }
            }
            return Poll::Pending;
        }
        if Instant::now() >= self.deadline {
            return Poll::Ready(());
        }
        // If the deadline passes between the check and the arm, the
        // dispatch thread fires the timer on its next pass.
        let timer = Reactor::global().add_timer(self.deadline, cx.waker());
        self.timer = Some((timer, cx.waker().clone()));
        Poll::Pending
    }
}

/// Runs `fut` with a hard wall-clock deadline; `None` when the timer
/// wins the race.
pub async fn timeout<F: std::future::Future>(dur: Duration, fut: F) -> Option<F::Output> {
    let mut fut = std::pin::pin!(fut);
    let mut sleep = std::pin::pin!(Sleep::after(dur));
    std::future::poll_fn(|cx| {
        if let std::task::Poll::Ready(v) = fut.as_mut().poll(cx) {
            return std::task::Poll::Ready(Some(v));
        }
        if sleep.as_mut().poll(cx).is_ready() {
            return std::task::Poll::Ready(None);
        }
        std::task::Poll::Pending
    })
    .await
}

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
//! * **Timers ride the same thread.** Arming a timer takes the timer
//!   lock once and pushes onto a deadline-ordered min-heap;
//!   `epoll_wait`'s timeout is the first pending deadline, and a
//!   self-wake socketpair interrupts the wait when an earlier one
//!   arrives. Cancelling (dropping the [`TimerHandle`], which every
//!   finished [`timeout`] does) is one atomic state change on the
//!   timer, with no lock: the cancelled entry stays queued until it
//!   surfaces at the top, or until an arm compacts the heap, which
//!   keeps it within `2·live + 64` entries. A fired timer's state is
//!   what its [`Sleep`] reads, again without the lock.

use megate_obs::StripedU64;
use parking_lot::Mutex;
use std::collections::{BinaryHeap, HashMap};
use std::future::Future;
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// A timer's life: armed, then fired by the dispatch thread or
/// cancelled by its handle — whichever moves it out of `PENDING` first.
/// A slot's state word is `seq << 2 | state`, so a handle can tell its
/// own timer from a later one that reuses the slot.
const PENDING: u64 = 0;
const FIRED: u64 = 1;
const CANCELLED: u64 = 2;

/// Slots allocated at a time, once the free list runs dry.
const SLOT_CHUNK: usize = 256;

/// What a timer's handle and its queued entry share. Slots are
/// allocated in chunks that live as long as the process (the timer set
/// is the reactor's, and the reactor is a static) and are reused, so
/// arming allocates nothing once enough slots exist, and no timer's
/// memory is handed from the thread that armed it to the dispatch
/// thread to free. A cache line each, because the timers of different
/// workers sit side by side.
#[derive(Default)]
#[repr(align(64))]
struct Slot {
    state: AtomicU64,
    /// Whom to wake: set by the arm, replaced by
    /// [`TimerHandle::reset_waker`], taken by the firing or when the
    /// slot is recycled. Only the owner and the timer-lock holder touch
    /// it.
    waker: Mutex<Option<Waker>>,
}

impl Slot {
    fn word(seq: u64, state: u64) -> u64 {
        seq << 2 | state
    }
}

/// A queued timer. The heap is a max-heap, so the order is reversed:
/// the earliest deadline (then the lowest sequence number) is on top.
struct Entry {
    deadline: Instant,
    seq: u64,
    slot: &'static Slot,
}

impl Entry {
    fn key(&self) -> (Instant, u64) {
        (self.deadline, self.seq)
    }

    fn is(&self, state: u64) -> bool {
        self.slot.state.load(Ordering::Acquire) == Slot::word(self.seq, state)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}

/// The timers behind one lock that only arming and the dispatch thread
/// take. A cancel flips the timer's state and leaves its entry queued;
/// a cancelled entry leaves the heap when it reaches the top or when an
/// arm compacts the heap, which it does before the heap would exceed
/// `2·live + 64` entries, so after every arm `queued ≤ 2·live + 64`.
#[derive(Default)]
pub(crate) struct Timers {
    queue: Mutex<TimerQueue>,
    /// Timers cancelled while pending, striped per thread so a cancel
    /// writes only its own thread's cache line.
    cancelled: StripedU64,
}

#[derive(Default)]
struct TimerQueue {
    heap: BinaryHeap<Entry>,
    /// Slots no queued entry holds.
    free: Vec<&'static Slot>,
    next_seq: u64,
    /// Timers ever armed, and ever fired.
    armed: u64,
    fired: u64,
    /// Acquisitions of this lock.
    #[cfg(test)]
    locks: u64,
}

impl TimerQueue {
    /// Returns an entry's slot to the free list, with the waker a
    /// cancelled timer left in it, for the caller to drop once it has
    /// released the lock.
    fn recycle(&mut self, slot: &'static Slot) -> Option<Waker> {
        self.free.push(slot);
        slot.waker.lock().take()
    }
}

impl Timers {
    fn lock(&self) -> std::sync::MutexGuard<'_, TimerQueue> {
        let q = self.queue.lock();
        #[cfg(test)]
        let q = {
            let mut q = q;
            q.locks += 1;
            q
        };
        q
    }

    /// Timers armed and neither fired nor cancelled, counted by a
    /// caller that holds the lock.
    fn live(&self, q: &TimerQueue) -> u64 {
        (q.armed - q.fired).saturating_sub(self.cancelled.get())
    }

    /// Queues a timer firing `waker` at `deadline`: one lock
    /// acquisition and an O(log n) push, plus an O(n) compaction once
    /// per O(live + 64) cancellations. Returns the timer's slot and
    /// sequence number, and whether it is now the earliest queued (the
    /// dispatch thread's wait must then be cut short).
    fn arm(&self, deadline: Instant, waker: &Waker) -> (&'static Slot, u64, bool) {
        let mut stale = Vec::new();
        let mut guard = self.lock();
        let q = &mut *guard;
        let live = self.live(q);
        if q.heap.len() as u64 + 1 > 2 * (live + 1) + 64 {
            let mut dropped = Vec::new();
            q.heap.retain(|e| {
                let keep = e.is(PENDING);
                if !keep {
                    dropped.push(e.slot);
                }
                keep
            });
            stale.extend(dropped.into_iter().filter_map(|slot| q.recycle(slot)));
        }
        let slot = match q.free.pop() {
            Some(slot) => slot,
            None => {
                let chunk: &'static [Slot] =
                    Box::leak((0..SLOT_CHUNK).map(|_| Slot::default()).collect());
                q.free.extend(chunk[1..].iter());
                &chunk[0]
            }
        };
        let seq = q.next_seq;
        q.next_seq += 1;
        q.armed += 1;
        *slot.waker.lock() = Some(waker.clone());
        slot.state
            .store(Slot::word(seq, PENDING), Ordering::Release);
        q.heap.push(Entry {
            deadline,
            seq,
            slot,
        });
        let earliest = q.heap.peek().is_some_and(|top| top.seq == seq);
        drop(guard);
        drop(stale);
        (slot, seq, earliest)
    }

    /// Cancels a pending timer: one atomic state change, no lock.
    fn cancel(&self, slot: &Slot, seq: u64) {
        if slot
            .state
            .compare_exchange(
                Slot::word(seq, PENDING),
                Slot::word(seq, CANCELLED),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            self.cancelled.add(1);
        }
    }

    /// Fires every timer due by `now`, earliest first, pushing their
    /// wakers onto `due` for the caller to wake outside the lock, and
    /// removes the cancelled entries it meets on top, pushing the
    /// wakers they held onto `stale` for the caller to drop. Returns
    /// the first pending deadline left.
    fn fire_due(
        &self,
        now: Instant,
        due: &mut Vec<Waker>,
        stale: &mut Vec<Waker>,
    ) -> Option<Instant> {
        let mut guard = self.lock();
        let q = &mut *guard;
        while let Some(top) = q.heap.peek() {
            let pending = top.is(PENDING);
            if pending && top.deadline > now {
                return Some(top.deadline);
            }
            let entry = q.heap.pop().expect("peeked");
            if pending
                && entry
                    .slot
                    .state
                    .compare_exchange(
                        Slot::word(entry.seq, PENDING),
                        Slot::word(entry.seq, FIRED),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
            {
                q.fired += 1;
                due.extend(entry.slot.waker.lock().take());
            }
            stale.extend(q.recycle(entry.slot));
        }
        None
    }

    /// Exactly the timers armed and neither fired nor cancelled.
    fn pending(&self) -> usize {
        let q = self.lock();
        self.live(&q) as usize
    }

    /// Entries in the heap, live or cancelled.
    #[cfg(test)]
    fn queued(&self) -> usize {
        self.queue.lock().heap.len()
    }

    /// Lock acquisitions so far (this call's not counted).
    #[cfg(test)]
    fn lock_count(&self) -> u64 {
        self.queue.lock().locks
    }
}

/// A pending timer's handle; dropping it cancels the timer.
pub struct TimerHandle {
    slot: &'static Slot,
    seq: u64,
    timers: &'static Timers,
}

impl TimerHandle {
    /// Whether the deadline has passed and the waker been taken to be
    /// woken; lets the owner re-poll without a lock or a clock read.
    /// Only a firing ends a live handle's `PENDING` state: a cancel
    /// needs the handle dropped, and a slot is reused only after its
    /// entry fired or was cancelled.
    fn fired(&self) -> bool {
        self.slot.state.load(Ordering::Acquire) != Slot::word(self.seq, PENDING)
    }

    /// Replaces the waker the timer will fire.
    pub fn reset_waker(&self, waker: &Waker) {
        let mut slot = self.slot.waker.lock();
        if !self.fired() {
            *slot = Some(waker.clone());
        }
    }
}

impl Drop for TimerHandle {
    fn drop(&mut self) {
        self.timers.cancel(self.slot, self.seq);
    }
}

/// The process-wide reactor (lazily started on first use).
pub struct Reactor {
    epfd: RawFd,
    sources: Mutex<HashMap<u64, Arc<Mutex<Source>>>>,
    /// Pending timers; the dispatch thread sleeps until the first one.
    timers: Timers,
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
                timers: Timers::default(),
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
        let (slot, seq, earliest) = self.timers.arm(deadline, waker);
        if earliest {
            self.poke();
        }
        TimerHandle {
            slot,
            seq,
            timers: &self.timers,
        }
    }

    /// Timers registered and not yet fired or cancelled.
    pub fn pending_timers(&self) -> usize {
        self.timers.pending()
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
    let (mut due, mut stale) = (Vec::new(), Vec::new());
    // The first pending deadline, as of the last firing pass. A timer
    // armed since then that is earlier pokes the wait awake.
    let mut next_deadline: Option<Instant> = None;
    loop {
        let timeout_ms = match next_deadline {
            Some(deadline) => {
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
        // Fire due timers, waking them outside the timer lock.
        next_deadline = reactor
            .timers
            .fire_due(Instant::now(), &mut due, &mut stale);
        for waker in due.drain(..) {
            waker.wake();
        }
        stale.clear();
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::task::Wake;

    /// A waker that logs `(timer id, waker generation)` when woken.
    struct Probe {
        id: usize,
        generation: u32,
        log: Arc<Mutex<Vec<(usize, u32)>>>,
    }

    impl Wake for Probe {
        fn wake(self: Arc<Self>) {
            self.log.lock().push((self.id, self.generation));
        }
    }

    fn probe(id: usize, generation: u32, log: &Arc<Mutex<Vec<(usize, u32)>>>) -> Waker {
        Waker::from(Arc::new(Probe {
            id,
            generation,
            log: log.clone(),
        }))
    }

    /// A timer set of its own, with no dispatch thread: only the test
    /// arms, cancels and fires.
    fn standalone() -> &'static Timers {
        Box::leak(Box::default())
    }

    fn arm(timers: &'static Timers, deadline: Instant, waker: &Waker) -> TimerHandle {
        let (slot, seq, _) = timers.arm(deadline, waker);
        TimerHandle { slot, seq, timers }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Arm a timer this many ms from now.
        Arm(u64),
        /// Drop the handle of the timer picked by this index.
        Cancel(usize),
        /// Give the picked timer a fresh waker.
        ResetWaker(usize),
        /// Move the clock this many ms and fire what is due.
        Advance(u64),
    }

    /// An op from a drawn `(kind, x)` pair: arms, cancels, waker
    /// resets and clock advances at 4 : 2 : 1 : 2.
    fn op((kind, x): (u8, u64)) -> Op {
        match kind {
            0..=3 => Op::Arm(x % 40),
            4 | 5 => Op::Cancel(x as usize),
            6 => Op::ResetWaker(x as usize),
            _ => Op::Advance(x % 25),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a `BTreeMap` of pending timers keyed by deadline and
        /// arming order: the same timers fire in the same order, each
        /// at most once, none after its cancel, each with its latest
        /// waker, and `pending()` is exact after every step.
        #[test]
        fn timers_match_an_ordered_map_model(
            draws in proptest::collection::vec((0u8..9, any::<u64>()), 1..300)
        ) {
            let timers = standalone();
            let log = Arc::new(Mutex::new(Vec::new()));
            let t0 = Instant::now();
            let mut now = t0;
            let mut handles: Vec<Option<TimerHandle>> = Vec::new();
            let mut generation: Vec<u32> = Vec::new();
            let mut model: BTreeMap<(Instant, usize), usize> = BTreeMap::new();
            let mut fired_once = vec![];
            let mut due = Vec::new();
            for op in draws.into_iter().map(op) {
                match op {
                    Op::Arm(ms) => {
                        let id = handles.len();
                        let deadline = now + Duration::from_millis(ms);
                        handles.push(Some(arm(timers, deadline, &probe(id, 0, &log))));
                        generation.push(0);
                        fired_once.push(false);
                        model.insert((deadline, id), id);
                        let live = model.len();
                        prop_assert!(timers.queued() <= 2 * live + 64);
                    }
                    Op::Cancel(pick) if !handles.is_empty() => {
                        let id = pick % handles.len();
                        handles[id] = None;
                        model.retain(|_, v| *v != id);
                    }
                    Op::ResetWaker(pick) if !handles.is_empty() => {
                        let id = pick % handles.len();
                        if let Some(h) = &handles[id] {
                            generation[id] += 1;
                            h.reset_waker(&probe(id, generation[id], &log));
                        }
                    }
                    Op::Advance(ms) => {
                        now += Duration::from_millis(ms);
                        timers.fire_due(now, &mut due, &mut Vec::new());
                        for w in due.drain(..) {
                            w.wake();
                        }
                        let expect: Vec<(usize, u32)> = model
                            .range(..=(now, usize::MAX))
                            .map(|(_, &id)| (id, generation[id]))
                            .collect();
                        model.retain(|&(deadline, _), _| deadline > now);
                        let got = std::mem::take(&mut *log.lock());
                        prop_assert_eq!(&got, &expect);
                        for (id, _) in got {
                            prop_assert!(!fired_once[id], "timer {} fired twice", id);
                            fired_once[id] = true;
                            prop_assert!(handles[id].as_ref().is_some_and(TimerHandle::fired));
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(timers.pending(), model.len());
            }
        }
    }

    /// An arm takes the timer lock once and a cancel not at all.
    #[test]
    fn arm_and_cancel_take_the_lock_once_per_cycle() {
        const CYCLES: u64 = 10_000;
        let timers = standalone();
        let waker = Waker::noop();
        let deadline = Instant::now() + Duration::from_secs(3600);
        let before = timers.lock_count();
        for _ in 0..CYCLES {
            drop(arm(timers, deadline, waker));
        }
        assert_eq!(timers.lock_count() - before, CYCLES);
        assert_eq!(timers.pending(), 0);
    }

    /// Cancelled entries cannot pile up: over 100k arm/cancel cycles
    /// with up to 2 048 live timers, none of which comes due, the heap
    /// stays within `2·live + 64` after every arm.
    #[test]
    fn compaction_bounds_the_queue_by_the_live_timers() {
        let timers = standalone();
        let waker = Waker::noop();
        let t0 = Instant::now() + Duration::from_secs(3600);
        let mut live: Vec<TimerHandle> = Vec::new();
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut most_queued = 0;
        for i in 0..100_000u64 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            // Swing the live count between empty and full so both the
            // drain and the fill phases are covered.
            let target = if (i / 8_192) % 2 == 0 { 2_048 } else { 16 };
            live.push(arm(
                timers,
                t0 + Duration::from_micros(rng % 1_000_000),
                waker,
            ));
            let queued = timers.queued();
            most_queued = most_queued.max(queued);
            assert!(
                queued <= 2 * live.len() + 64,
                "cycle {i}: {queued} queued for {} live",
                live.len()
            );
            while live.len() > target || (live.len() > 1 && rng.is_multiple_of(3)) {
                let at = (rng as usize / 3) % live.len();
                live.swap_remove(at);
                if live.len() <= target {
                    break;
                }
            }
            assert_eq!(timers.pending(), live.len());
        }
        assert!(most_queued > 2_048, "the live set reached its cap");
    }
}

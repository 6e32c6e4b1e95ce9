//! A small multi-worker task executor.
//!
//! Futures are spawned as reference-counted tasks on a shared run
//! queue; worker threads pop and poll them. Wakers re-enqueue their
//! task, with a three-state flag (`IDLE`/`QUEUED`/`RUNNING`) so a task
//! is never on the queue twice and a wake that lands mid-poll re-queues
//! the task exactly once (the standard executor handshake).
//!
//! The executor is deliberately tiny — FIFO only, no work stealing, no
//! task-local storage — because the service workload is thousands of
//! small I/O-bound tasks whose scheduling cost must stay negligible
//! next to the syscalls they drive.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
/// Woken while running: the worker re-queues after the poll.
const NOTIFIED: u8 = 3;

struct Task {
    future: Mutex<Option<BoxFuture>>,
    state: AtomicU8,
    exec: Weak<Inner>,
}

struct Inner {
    queue: Mutex<RunQueue>,
    cv: Condvar,
    live: AtomicUsize,
    /// [`Executor`] handles alive. Workers hold `Inner` too, so this,
    /// not the `Arc`'s count, says when the pool is unreachable.
    handles: AtomicUsize,
}

#[derive(Default)]
struct RunQueue {
    tasks: VecDeque<Arc<Task>>,
    /// Workers waiting on the condvar. Changed only under the queue
    /// lock, so a push either sees the worker it must wake or happens
    /// before that worker's emptiness check.
    parked: usize,
    /// Set under the lock when the last handle drops; workers exit.
    shutdown: bool,
}

/// Handle to the executor; clones share the worker pool. When the last
/// handle drops, the workers finish the poll they are in and exit.
pub struct Executor {
    inner: Arc<Inner>,
}

impl Clone for Executor {
    fn clone(&self) -> Self {
        self.inner.handles.fetch_add(1, Ordering::Relaxed);
        Self {
            inner: self.inner.clone(),
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        if self.inner.handles.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Setting one flag leaves the queue valid even if a panic
            // poisoned its lock.
            let mut q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.shutdown = true;
            drop(q);
            self.inner.cv.notify_all();
        }
    }
}

impl Task {
    fn schedule(self: &Arc<Self>) {
        let Some(exec) = self.exec.upgrade() else {
            return;
        };
        let wake = {
            let mut q = exec.queue.lock().unwrap();
            q.tasks.push_back(self.clone());
            q.parked > 0
        };
        // With every worker busy there is nobody to notify: whichever
        // finishes its poll first pops this task without a futex call.
        if wake {
            exec.cv.notify_one();
        }
    }

    fn wake_task(self: &Arc<Self>) {
        // IDLE -> QUEUED: enqueue. RUNNING -> NOTIFIED: the worker
        // re-queues. QUEUED/NOTIFIED: nothing to do.
        loop {
            let cur = self.state.load(Ordering::Acquire);
            let (next, enqueue) = match cur {
                IDLE => (QUEUED, true),
                RUNNING => (NOTIFIED, false),
                _ => return,
            };
            if self
                .state
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if enqueue {
                    self.schedule();
                }
                return;
            }
        }
    }
}

// ---- manual RawWaker plumbing over Arc<Task> ----

fn raw_waker(task: Arc<Task>) -> RawWaker {
    fn clone(p: *const ()) -> RawWaker {
        let task = unsafe { Arc::from_raw(p as *const Task) };
        let out = raw_waker(task.clone());
        std::mem::forget(task);
        out
    }
    fn wake(p: *const ()) {
        let task = unsafe { Arc::from_raw(p as *const Task) };
        task.wake_task();
    }
    fn wake_by_ref(p: *const ()) {
        let task = unsafe { Arc::from_raw(p as *const Task) };
        task.wake_task();
        std::mem::forget(task);
    }
    fn drop_raw(p: *const ()) {
        drop(unsafe { Arc::from_raw(p as *const Task) });
    }
    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, wake, wake_by_ref, drop_raw);
    RawWaker::new(Arc::into_raw(task) as *const (), &VTABLE)
}

fn waker_for(task: &Arc<Task>) -> Waker {
    unsafe { Waker::from_raw(raw_waker(task.clone())) }
}

impl Executor {
    /// Starts an executor with `workers` polling threads (min 1).
    pub fn new(workers: usize) -> Self {
        let inner = Arc::new(Inner {
            queue: Mutex::new(RunQueue::default()),
            cv: Condvar::new(),
            live: AtomicUsize::new(0),
            handles: AtomicUsize::new(1),
        });
        for i in 0..workers.max(1) {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name(format!("megate-net-worker-{i}"))
                .spawn(move || worker_loop(&inner))
                .expect("spawn executor worker");
        }
        Self { inner }
    }

    /// Spawns a task; it runs until completion (or executor drop).
    pub fn spawn<F>(&self, fut: F)
    where
        F: Future<Output = ()> + Send + 'static,
    {
        self.inner.live.fetch_add(1, Ordering::Relaxed);
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(fut))),
            state: AtomicU8::new(QUEUED),
            exec: Arc::downgrade(&self.inner),
        });
        task.schedule();
    }

    /// Tasks spawned and not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.inner.live.load(Ordering::Relaxed)
    }

    /// Runs `fut` to completion on the pool, blocking this thread.
    pub fn block_on<T, F>(&self, fut: F) -> T
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        struct Slot<T> {
            value: Mutex<Option<T>>,
            cv: Condvar,
        }
        let slot = Arc::new(Slot {
            value: Mutex::new(None),
            cv: Condvar::new(),
        });
        let s2 = slot.clone();
        self.spawn(async move {
            let v = fut.await;
            *s2.value.lock().unwrap() = Some(v);
            s2.cv.notify_all();
        });
        let mut guard = slot.value.lock().unwrap();
        while guard.is_none() {
            guard = slot.cv.wait(guard).unwrap();
        }
        guard.take().unwrap()
    }
}

/// Pops and polls tasks until the last [`Executor`] handle drops: that
/// drop sets the queue's `shutdown` flag and wakes every parked worker,
/// so the pool winds down at once, each worker after the poll it is in.
/// The last worker out drops `Inner` and the tasks still queued. (A
/// worker never keeps `Inner` alive for another: the handle count, not
/// the `Arc`, decides.)
fn worker_loop(inner: &Inner) {
    loop {
        let task = {
            let mut q = inner.queue.lock().unwrap();
            if q.shutdown {
                return;
            }
            if q.tasks.is_empty() {
                q.parked += 1;
                q = inner
                    .cv
                    .wait_timeout(q, std::time::Duration::from_millis(200))
                    .unwrap()
                    .0;
                q.parked -= 1;
            }
            match q.tasks.pop_front() {
                Some(t) => t,
                None => continue,
            }
        };
        task.state.store(RUNNING, Ordering::Release);
        let mut slot = task.future.lock().unwrap();
        let Some(mut fut) = slot.take() else {
            continue;
        };
        let waker = waker_for(&task);
        let mut cx = Context::from_waker(&waker);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                inner.live.fetch_sub(1, Ordering::Relaxed);
                task.state.store(IDLE, Ordering::Release);
            }
            Poll::Pending => {
                *slot = Some(fut);
                drop(slot);
                // RUNNING -> IDLE, unless a wake landed mid-poll
                // (NOTIFIED), in which case re-queue now.
                if task
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    task.state.store(QUEUED, Ordering::Release);
                    task.schedule();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::Sleep;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    #[test]
    fn block_on_returns_value() {
        let exec = Executor::new(2);
        assert_eq!(exec.block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn spawned_tasks_all_run() {
        let exec = Executor::new(2);
        let n = Arc::new(AtomicU32::new(0));
        for _ in 0..100 {
            let n = n.clone();
            exec.spawn(async move {
                n.fetch_add(1, Ordering::Relaxed);
            });
        }
        exec.block_on(async {
            Sleep::after(Duration::from_millis(50)).await;
        });
        assert_eq!(n.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn sleep_waits_roughly_the_requested_time() {
        let exec = Executor::new(1);
        let t0 = std::time::Instant::now();
        exec.block_on(async {
            Sleep::after(Duration::from_millis(30)).await;
        });
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    /// A task and a thread outside the pool hand a baton back and forth
    /// 100 000 times per pool size (200 000 wakes into the pool in
    /// all). While the thread holds it every worker parks (or
    /// is about to), so each handoff back is a wake racing a worker
    /// into its condvar wait — the reactor thread's position. A wake
    /// that missed a parking worker would sit out the 200 ms
    /// `wait_timeout` backstop; none may. (With a lone worker the race
    /// has nobody else to hide behind.)
    #[test]
    fn wakes_from_outside_the_pool_never_wait_for_the_backstop() {
        for workers in [1, 2] {
            handoffs_never_wait_for_the_backstop(workers);
        }
    }

    fn handoffs_never_wait_for_the_backstop(workers: usize) {
        const HANDOFFS: u64 = 100_000;
        struct Baton {
            /// Even: the task's turn. Odd: the thread's.
            turn: u64,
            task: Option<Waker>,
        }
        let exec = Executor::new(workers);
        let baton = Arc::new((
            Mutex::new(Baton {
                turn: 0,
                task: None,
            }),
            Condvar::new(),
        ));
        let b = baton.clone();
        exec.spawn(async move {
            let (baton, thread_turn) = &*b;
            loop {
                let mine = std::future::poll_fn(|cx| {
                    let mut b = baton.lock().unwrap();
                    if b.turn >= HANDOFFS {
                        Poll::Ready(false)
                    } else if b.turn % 2 == 0 {
                        Poll::Ready(true)
                    } else {
                        b.task = Some(cx.waker().clone());
                        Poll::Pending
                    }
                })
                .await;
                if !mine {
                    return;
                }
                baton.lock().unwrap().turn += 1;
                thread_turn.notify_one();
            }
        });

        let (baton, my_turn) = &*baton;
        let mut last = std::time::Instant::now();
        let mut longest_wait = Duration::ZERO;
        loop {
            let mut b = baton.lock().unwrap();
            while b.turn % 2 == 0 && b.turn < HANDOFFS {
                b = my_turn.wait(b).unwrap();
            }
            longest_wait = longest_wait.max(last.elapsed());
            last = std::time::Instant::now();
            // One lost wake is enough to fail; don't sit out the rest.
            if b.turn >= HANDOFFS || longest_wait >= Duration::from_millis(150) {
                b.turn = HANDOFFS;
            } else {
                b.turn += 1;
            }
            let done = b.turn >= HANDOFFS;
            let task = b.task.take();
            drop(b);
            if let Some(w) = task {
                w.wake();
            }
            if done {
                break;
            }
        }
        assert!(
            longest_wait < Duration::from_millis(150),
            "{workers} worker(s): a handoff waited {longest_wait:?}, so a wake was lost to the backstop"
        );
    }

    #[test]
    fn timeout_wins_over_slow_future() {
        let exec = Executor::new(1);
        let hit = exec.block_on(async {
            crate::reactor::timeout(
                Duration::from_millis(20),
                Sleep::after(Duration::from_secs(30)),
            )
            .await
        });
        assert!(hit.is_none(), "timeout must fire first");
    }
}

//! How a fleet's round work reaches OS threads.
//!
//! Both fleet layers step their servers on one persistent [`WorkerPool`]
//! at every barrier. The thread that calls [`WorkerPool::run`] steps jobs
//! too, a batch wakes the pool's helper threads once and the caller at most
//! once, and the longest step goes first.

use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// The fixed step a pool applies to every job.
type Step<T> = dyn Fn(&mut T) + Send + Sync;

/// One stepped job: its index, its step's host time in nanoseconds, and
/// the job or the payload of the panic that interrupted it.
struct Stepped<T> {
    index: usize,
    ns: u64,
    outcome: Result<T, Box<dyn Any + Send>>,
}

/// Steps one job on the calling thread, timing it.
fn step_one<T>(step: &Step<T>, (index, mut job): (usize, T)) -> Stepped<T> {
    let start = Instant::now();
    // A panicking step must reach the caller, not strand it waiting for a
    // job that never comes back.
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| step(&mut job))).map(|()| job);
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Stepped { index, ns, outcome }
}

/// A batch's jobs not yet taken, and the order to take them in.
struct Queue<T> {
    /// The caller's jobs, less those taken. A job leaves by `swap_remove`,
    /// which moves the last job into its slot, so dispatch never collects
    /// the jobs into a new buffer or sorts them (a fleet job is a 2 KiB
    /// server).
    jobs: Vec<(usize, T)>,
    /// The batch position of each entry of `jobs`.
    position: Vec<usize>,
    /// Where the job at each batch position waits in `jobs`.
    slot: Vec<usize>,
    /// Batch positions in dispatch order, the next one last.
    order: Vec<usize>,
}

impl<T> Queue<T> {
    /// Queues `jobs` to leave in `order` (batch positions, the next last).
    fn new(jobs: Vec<(usize, T)>, order: Vec<usize>) -> Queue<T> {
        Queue {
            position: (0..jobs.len()).collect(),
            slot: (0..jobs.len()).collect(),
            jobs,
            order,
        }
    }

    fn take(&mut self) -> Option<(usize, T)> {
        let p = self.order.pop()?;
        let at = self.slot[p];
        // The last job moves into the slot `p` leaves.
        let last = *self.position.last().expect("a position per queued job");
        self.slot[last] = at;
        self.position.swap_remove(at);
        Some(self.jobs.swap_remove(at))
    }
}

/// What the caller and the helpers share, under one lock.
struct Batch<T> {
    queue: Queue<T>,
    /// Jobs a helper has taken and not yet handed back.
    in_flight: usize,
    /// The helpers' stepped jobs, awaiting the caller.
    stepped: Vec<Stepped<T>>,
    /// Set when the pool drops: each helper returns once the queue is empty.
    closed: bool,
}

struct Shared<T> {
    batch: Mutex<Batch<T>>,
    /// Wakes the helpers: a batch was posted, or the pool is closing.
    posted: Condvar,
    /// Wakes the caller: the helpers handed back the batch's last job.
    drained: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, Batch<T>> {
        self.batch
            .lock()
            .expect("no step runs under the pool lock, so it is never poisoned")
    }
}

/// A helper thread's life: step jobs from the posted batch until it is
/// empty, hand each back, and sleep until the next batch or the close.
fn help<T>(shared: &Shared<T>, step: &Step<T>) {
    let mut batch = shared.lock();
    loop {
        if let Some(job) = batch.queue.take() {
            batch.in_flight += 1;
            drop(batch);
            let stepped = step_one(step, job);
            batch = shared.lock();
            batch.stepped.push(stepped);
            batch.in_flight -= 1;
            if batch.in_flight == 0 && batch.queue.jobs.is_empty() {
                shared.drained.notify_one();
            }
        } else if batch.closed {
            return;
        } else {
            batch = shared.posted.wait(batch).expect("pool lock poisoned");
        }
    }
}

/// A persistent pool of threads stepping simulation objects.
///
/// A `WorkerPool` of `threads` workers spawns `threads - 1` helper threads
/// once; the thread that calls [`WorkerPool::run`] is the last worker. Each
/// batch of `(index, T)` jobs moves, as the caller's `Vec`, into a queue
/// the workers share; the caller wakes the helpers once, then takes and
/// steps jobs itself with the fixed `step` closure, and it blocks only once
/// the queue is empty, until the helpers hand back their last jobs. Every
/// result is reinstalled by index.
///
/// Jobs leave the queue longest first, by the host time each index's last
/// step took: a batch lasts as long as its busiest worker, and a long step
/// taken last would run alone. An index never stepped counts as 0, and ties
/// keep batch order. Those times order dispatch and nothing else, so
/// results are bit-identical for every thread count: servers are stepped
/// independently and only re-joined at the barrier.
pub struct WorkerPool<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    step: Arc<Step<T>>,
    helpers: Vec<JoinHandle<()>>,
    /// Each index's last step time in host nanoseconds, 0 until stepped.
    step_ns: RefCell<Vec<u64>>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Makes a pool of `threads` workers, the caller of [`WorkerPool::run`]
    /// among them, each applying `step` to every job it takes for the
    /// pool's whole lifetime. With one thread, every step runs on the
    /// caller's thread.
    pub fn new<F>(threads: usize, step: F) -> WorkerPool<T>
    where
        F: Fn(&mut T) + Send + Sync + 'static,
    {
        assert!(threads > 0, "worker pool needs at least one thread");
        let shared = Arc::new(Shared {
            batch: Mutex::new(Batch {
                queue: Queue::new(Vec::new(), Vec::new()),
                in_flight: 0,
                stepped: Vec::new(),
                closed: false,
            }),
            posted: Condvar::new(),
            drained: Condvar::new(),
        });
        let step: Arc<Step<T>> = Arc::new(step);
        let helpers = (1..threads)
            .map(|_| {
                let (shared, step) = (Arc::clone(&shared), Arc::clone(&step));
                thread::spawn(move || help(&shared, &*step))
            })
            .collect();
        WorkerPool {
            shared,
            step,
            helpers,
            step_ns: RefCell::new(Vec::new()),
        }
    }

    /// Runs one barrier's batch: steps every `(index, item)` job, on the
    /// caller's thread and the helpers', and hands each result to
    /// `reinstall`, the caller's own as soon as it is stepped and the
    /// helpers' once the queue is empty. Returns when the whole batch is
    /// done.
    ///
    /// # Panics
    ///
    /// If any step panicked, re-raises the first such panic once the rest
    /// of the batch is back, so the pool stays usable.
    pub fn run(&self, jobs: Vec<(usize, T)>, mut reinstall: impl FnMut(usize, T)) {
        let mut step_ns = self.step_ns.borrow_mut();
        // Sort the positions, not the jobs: ascending, since the queue
        // takes the next job from the end.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_unstable_by_key(|&p| {
            let ns = step_ns.get(jobs[p].0).copied().unwrap_or(0);
            (ns, Reverse(p))
        });
        self.shared.lock().queue = Queue::new(jobs, order);
        self.shared.posted.notify_all();

        let mut panicked = None;
        let mut settle = |s: Stepped<T>| {
            if step_ns.len() <= s.index {
                step_ns.resize(s.index + 1, 0);
            }
            step_ns[s.index] = s.ns;
            match s.outcome {
                Ok(t) => reinstall(s.index, t),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        };
        loop {
            let job = self.shared.lock().queue.take();
            let Some(job) = job else { break };
            settle(step_one(&*self.step, job));
        }
        let stepped = {
            let mut batch = self.shared.lock();
            while batch.in_flight > 0 {
                batch = self.shared.drained.wait(batch).expect("pool lock poisoned");
            }
            // Free the emptied jobs buffer with its batch.
            batch.queue = Queue::new(Vec::new(), Vec::new());
            mem::take(&mut batch.stepped)
        };
        stepped.into_iter().for_each(&mut settle);
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        self.shared
            .batch
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.shared.posted.notify_all();
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Runs `f` on its own thread and returns its result, failing the test
    /// if it has not finished within 10 s, so a pool that strands its
    /// caller or its helpers fails instead of hanging.
    fn under_watchdog<R: Send + 'static>(what: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        let caller = thread::spawn(move || tx.send(f()).expect("watchdog listening"));
        let out = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{what} hung"));
        caller.join().expect("caller thread finished cleanly");
        out
    }

    #[test]
    fn worker_pool_returns_every_job_by_index() {
        let pool: WorkerPool<u64> = WorkerPool::new(3, |x| *x *= 2);
        for batch in [0usize, 1, 7, 64] {
            let jobs: Vec<(usize, u64)> = (0..batch).map(|i| (i, i as u64 + 1)).collect();
            let mut out = vec![0u64; batch];
            pool.run(jobs, |i, x| out[i] = x);
            for (i, &x) in out.iter().enumerate() {
                assert_eq!(x, 2 * (i as u64 + 1));
            }
        }
    }

    #[test]
    fn one_thread_steps_everything_on_the_caller() {
        let pool: WorkerPool<Option<ThreadId>> =
            WorkerPool::new(1, |t| *t = Some(thread::current().id()));
        let mut ran_on = vec![None; 5];
        pool.run((0..5).map(|i| (i, None)).collect(), |i, t| ran_on[i] = t);
        assert_eq!(ran_on, vec![Some(thread::current().id()); 5]);
    }

    #[test]
    fn the_next_batch_steps_the_longest_last_step_first() {
        // A job sleeps its value in milliseconds; the gaps are wide so that
        // host jitter cannot swap two measured times. With one thread each
        // result is reinstalled as soon as it is stepped, so the reinstall
        // order is the step order.
        let pool: WorkerPool<u64> =
            WorkerPool::new(1, |ms| thread::sleep(Duration::from_millis(*ms)));
        pool.run(vec![(0, 1), (1, 60), (2, 20), (3, 40)], |_, _| {});
        // Indices 6 and 5 were never stepped: they tie at 0 and keep batch
        // order, after every index with a measured step.
        let mut order = Vec::new();
        let second = [6, 0, 1, 5, 2, 3].map(|i| (i, 0));
        pool.run(second.to_vec(), |i, _| order.push(i));
        assert_eq!(order, vec![1, 3, 2, 0, 6, 5]);
    }

    #[test]
    fn worker_pool_reraises_a_panicking_step() {
        // Each step waits at a barrier of `threads`, so with two threads
        // the caller and the helper each take one of a batch's two jobs,
        // and the first batch panics on the chosen one.
        for (threads, on_caller) in [(1, true), (2, true), (2, false)] {
            let (message, out) = under_watchdog("WorkerPool::run after a panic", move || {
                let caller = thread::current().id();
                let barrier = Arc::new(Barrier::new(threads));
                let pool: WorkerPool<u64> = WorkerPool::new(threads, move |x| {
                    barrier.wait();
                    let here = thread::current().id() == caller;
                    assert!(*x >= 10 || here != on_caller, "step refused job {x}");
                    *x *= 2;
                });
                let jobs: Vec<(usize, u64)> = (0..threads).map(|i| (i, i as u64)).collect();
                let caught = panic::catch_unwind(AssertUnwindSafe(|| pool.run(jobs, |_, _| {})));
                let message = caught
                    .err()
                    .and_then(|p| p.downcast::<String>().ok())
                    .map(|m| *m);
                // The pool survives the panic and steps the next batch.
                let mut out = vec![0u64; threads];
                let jobs = (0..threads).map(|i| (i, 10 + i as u64)).collect();
                pool.run(jobs, |i, x| out[i] = x);
                (message, out)
            });
            let message = message.expect("the step's panic reached the caller");
            assert!(message.contains("step refused job"), "{message}");
            assert_eq!(
                out,
                (0..threads as u64).map(|i| 20 + 2 * i).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn more_threads_than_jobs_and_an_idle_pool_both_return() {
        let out = under_watchdog("a pool of 8 threads stepping 3 jobs", || {
            let pool: WorkerPool<u64> = WorkerPool::new(8, |x| *x += 1);
            let mut out = vec![0u64; 3];
            pool.run(vec![(0, 1), (1, 2), (2, 3)], |i, x| out[i] = x);
            out
        });
        assert_eq!(out, vec![2, 3, 4]);
        under_watchdog("dropping a pool that never ran", || {
            drop(WorkerPool::<u64>::new(4, |x| *x += 1));
        });
    }
}

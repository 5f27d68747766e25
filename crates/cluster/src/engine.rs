//! How a fleet's round work reaches OS threads.
//!
//! Both fleet layers step their servers on one persistent [`WorkerPool`]
//! at every barrier.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// What a worker sends back: the stepped job, or the payload of the panic
/// that interrupted it.
type Outcome<T> = (usize, Result<T, Box<dyn Any + Send>>);

/// A persistent pool of worker threads stepping simulation objects.
///
/// A `WorkerPool` spawns its threads once and then moves `(index, T)` jobs
/// through channels: the coordinator sends the servers due this barrier,
/// each idle worker takes the next job, steps it with the fixed `step`
/// closure, and [`WorkerPool::run`] reinstalls each result by index.
/// Because workers pull jobs one at a time, a few slow servers spread over
/// all threads instead of landing in one thread's contiguous chunk.
/// Determinism is untouched: servers are stepped independently and only
/// re-joined at the barrier.
pub struct WorkerPool<T: Send + 'static> {
    injector: Option<mpsc::Sender<(usize, T)>>,
    results: mpsc::Receiver<Outcome<T>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns `threads` workers, each applying `step` to every job it
    /// receives for the pool's whole lifetime.
    pub fn new<F>(threads: usize, step: F) -> WorkerPool<T>
    where
        F: Fn(&mut T) + Send + Sync + 'static,
    {
        assert!(threads > 0, "worker pool needs at least one thread");
        let (injector, job_rx) = mpsc::channel::<(usize, T)>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (done_tx, results) = mpsc::channel();
        let step = Arc::new(step);
        let workers = (0..threads)
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                let done_tx = done_tx.clone();
                let step = Arc::clone(&step);
                std::thread::spawn(move || loop {
                    // Hold the lock only to receive: the next idle worker
                    // takes it while this one steps its job.
                    let job = job_rx.lock().expect("pool lock poisoned").recv();
                    let Ok((i, mut t)) = job else { break };
                    // A panicking step must reach the caller, not strand it
                    // waiting for a result that never comes.
                    let outcome =
                        panic::catch_unwind(AssertUnwindSafe(|| step(&mut t))).map(|()| t);
                    if done_tx.send((i, outcome)).is_err() {
                        break;
                    }
                })
            })
            .collect();
        WorkerPool {
            injector: Some(injector),
            results,
            workers,
        }
    }

    /// Runs one barrier's batch: sends every `(index, item)` job, then
    /// receives exactly that many results (in completion order) and hands
    /// each to `reinstall`. Returns when the whole batch is done.
    ///
    /// # Panics
    ///
    /// If any step panicked, re-raises the first such panic once the rest
    /// of the batch is back, so the pool stays usable.
    pub fn run(&self, jobs: Vec<(usize, T)>, mut reinstall: impl FnMut(usize, T)) {
        let n = jobs.len();
        let injector = self.injector.as_ref().expect("pool already shut down");
        for job in jobs {
            injector.send(job).expect("worker pool hung up");
        }
        let mut panicked = None;
        for _ in 0..n {
            match self.results.recv().expect("worker thread died") {
                (i, Ok(t)) => reinstall(i, t),
                (_, Err(payload)) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        // Closing the injector ends every worker's recv loop.
        self.injector.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn worker_pool_reraises_a_panicking_step() {
        // Driven from a helper thread behind a watchdog, so a pool that
        // strands its caller fails this test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let caller = std::thread::spawn(move || {
            let pool: WorkerPool<u64> = WorkerPool::new(2, |x| {
                assert_ne!(*x, 3, "step refused job 3");
                *x *= 2;
            });
            let jobs: Vec<(usize, u64)> = (0..6).map(|i| (i, i as u64)).collect();
            let caught = panic::catch_unwind(AssertUnwindSafe(|| pool.run(jobs, |_, _| {})));
            let message = caught
                .err()
                .and_then(|p| p.downcast::<String>().ok())
                .map(|m| *m);
            // The pool survives the panic and steps the next batch.
            let mut out = vec![0u64; 2];
            pool.run(vec![(0, 4), (1, 5)], |i, x| out[i] = x);
            tx.send((message, out)).expect("watchdog listening");
        });
        let (message, out) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("WorkerPool::run hung after a step panicked");
        caller.join().expect("caller thread finished cleanly");
        let message = message.expect("the step's panic reached the caller");
        assert!(message.contains("step refused job 3"), "{message}");
        assert_eq!(out, vec![8, 10]);
    }
}

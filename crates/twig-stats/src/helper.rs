//! One persistent helper thread that runs a caller's job beside it.
//!
//! A [`Helper`] owns a second thread and one job slot. [`Helper::run`]
//! hands the slot to the helper, runs the caller's own share of the work
//! meanwhile, and returns once both are done. Split in two, it is
//! [`Helper::post`], after which the caller may return and do anything that
//! does not touch the job, and [`Helper::wait`] (or [`Helper::withdraw`],
//! which does not run a job the helper never took). The job never leaves the
//! helper's slot, so its buffers keep their capacity from run to run, and
//! whatever the caller moves into it comes back through
//! [`Helper::job`]. Results are the caller's to combine; a job whose
//! output does not depend on which thread ran it gives the same bits as
//! running both shares on one thread. DESIGN.md §18 has the handoff, the
//! wait policy, the park rule and the panic path.
//!
//! A helper exists only where this process may run two threads at once
//! ([`Helper::spawn`] returns `None` otherwise), so with one CPU the caller
//! runs everything itself and no thread is started.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::hint::spin_loop;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// Work a [`Helper`] runs on its thread. The job's fields are its inputs,
/// its working memory and its outputs.
pub trait Job: Send + 'static {
    /// Runs the job once. Called on the helper thread, or on the caller's
    /// when the helper has not taken it yet (see [`Helper::run`]).
    fn run(&mut self);
}

/// Whether this process may run two threads at once. Its CPU affinity
/// counts, so under `taskset -c 0` this is `false`.
pub fn two_cpus() -> bool {
    thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
}

thread_local! {
    // Const-initialised and without a destructor, so an allocator may read
    // it (see `on_helper_thread`).
    static ON_HELPER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a [`Helper`]'s. Reading it neither
/// allocates nor registers anything, so a counting allocator can attribute
/// allocations to helper threads with it.
pub fn on_helper_thread() -> bool {
    ON_HELPER.try_with(Cell::get).unwrap_or(false)
}

/// Busy polls before a waiting side starts to `yield_now`.
const SPINS: u32 = 1 << 10;
/// Idle polls before the helper parks until the next post.
const PARK_AFTER: u32 = 1 << 16;

/// The caller owns the slot: nothing is posted, or the last post is done.
const DONE: u8 = 0;
/// The caller has posted the slot; nobody runs it yet.
const POSTED: u8 = 1;
/// The helper has taken the posted slot and runs it.
const TAKEN: u8 = 2;
/// The helper returns.
const EXIT: u8 = 3;

type Payload = Box<dyn Any + Send>;

struct Shared<J> {
    /// Whose turn the slot is. Stores are `Release`, loads `Acquire`, though
    /// the slot's mutex already publishes its contents.
    phase: AtomicU8,
    job: Mutex<J>,
    /// The panic of the helper's last run, if it panicked.
    panic: Mutex<Option<Payload>>,
    /// Times the helper has parked.
    #[cfg(test)]
    parks: std::sync::atomic::AtomicU32,
    /// While set, the helper leaves posts alone.
    #[cfg(test)]
    hold: std::sync::atomic::AtomicBool,
}

/// Locks a mutex. Every run of a job is caught, so a poisoned lock only
/// means a panic that [`Finished::resume`] reports anyway.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<J: Job> Shared<J> {
    /// Runs the job on the calling thread, catching a panic.
    fn run_job(&self) -> thread::Result<()> {
        let mut job = lock(&self.job);
        panic::catch_unwind(AssertUnwindSafe(|| job.run()))
    }
}

/// A persistent thread with one job slot. Joined on drop.
pub struct Helper<J: Job> {
    shared: Arc<Shared<J>>,
    thread: Option<JoinHandle<()>>,
}

impl<J: Job> fmt::Debug for Helper<J> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Helper").finish_non_exhaustive()
    }
}

/// What [`Helper::run`] returns: the caller's result and whether either
/// side panicked.
#[must_use = "a panic of either side surfaces only through `resume`"]
pub struct Finished<R> {
    mine: thread::Result<R>,
    theirs: thread::Result<()>,
}

impl<R> Finished<R> {
    /// The caller's result, or the panic of either side resumed on this
    /// thread, the caller's first. Take back what was moved into the job
    /// before calling it, so a panic leaves it in place.
    pub fn resume(self) -> R {
        match (self.mine, self.theirs) {
            (Err(payload), _) | (_, Err(payload)) => panic::resume_unwind(payload),
            (Ok(mine), Ok(())) => mine,
        }
    }
}

impl<J: Job> Helper<J> {
    /// Starts a helper thread named `name` with `job` in its slot, or
    /// returns `None` when this process can run only one thread at a time
    /// or the spawn fails. The caller then does all the work itself.
    ///
    /// Build `job` on the calling thread with every buffer its runs need:
    /// a helper that never allocates never gets a malloc arena of its own.
    pub fn spawn(name: &str, job: J) -> Option<Self> {
        if !two_cpus() {
            return None;
        }
        let shared = Arc::new(Shared {
            phase: AtomicU8::new(DONE),
            job: Mutex::new(job),
            panic: Mutex::new(None),
            #[cfg(test)]
            parks: Default::default(),
            #[cfg(test)]
            hold: Default::default(),
        });
        let theirs = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name(name.into())
            .spawn(move || serve(&theirs))
            .ok()?;
        Some(Helper {
            shared,
            thread: Some(thread),
        })
    }

    /// The job, to fill before a run and to read after one. Between runs
    /// the caller owns it, so the lock is uncontended.
    pub fn job(&self) -> MutexGuard<'_, J> {
        lock(&self.shared.job)
    }

    /// Runs the job on the helper while `mine` runs here, and returns once
    /// both are done. If the helper has not taken the job by the time
    /// `mine` returns (it was parked, or another process has its CPU), the
    /// job runs here instead, after `mine`. A job's results must therefore
    /// not depend on the thread that runs it.
    pub fn run<R>(&mut self, mine: impl FnOnce() -> R) -> Finished<R> {
        self.post();
        let mine = panic::catch_unwind(AssertUnwindSafe(mine));
        let theirs = self.wait();
        Finished { mine, theirs }
    }

    /// The first half of [`run`](Self::run): hands the job to the helper
    /// and returns at once, so that the caller can go on with anything that
    /// does not touch the job. [`wait`](Self::wait) or
    /// [`withdraw`](Self::withdraw) ends the post; until then the job is the
    /// helper's, and [`job`](Self::job) blocks while the helper runs it.
    /// Dropping the helper withdraws the post.
    pub fn post(&mut self) {
        self.shared.phase.store(POSTED, Ordering::Release);
        if let Some(thread) = &self.thread {
            thread.thread().unpark();
        }
    }

    /// The second half of [`run`](Self::run): returns once the posted job is
    /// done, running it here if the helper has not taken it, with the job's
    /// panic if it panicked. The job is the caller's again either way, so
    /// take back what was moved into it before resuming the panic. Returns
    /// at once when nothing is posted.
    pub fn wait(&mut self) -> thread::Result<()> {
        self.end_post(true)
    }

    /// Ends a post without asking for its result: a job the helper has not
    /// taken does not run at all, one it has taken is waited for. The job's
    /// panic, if it ran and panicked, is returned as by
    /// [`wait`](Self::wait).
    pub fn withdraw(&mut self) -> thread::Result<()> {
        self.end_post(false)
    }

    /// Takes the slot back from the post, running an untaken job here if
    /// `run_untaken`, else waiting until the helper is done with it.
    fn end_post(&mut self, run_untaken: bool) -> thread::Result<()> {
        let phase = &self.shared.phase;
        if phase
            .compare_exchange(POSTED, DONE, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return if run_untaken {
                self.shared.run_job()
            } else {
                Ok(())
            };
        }
        let mut polls = 0u32;
        while phase.load(Ordering::Acquire) != DONE {
            if polls < SPINS {
                polls += 1;
                spin_loop();
            } else {
                thread::yield_now();
            }
        }
        lock(&self.shared.panic).take().map_or(Ok(()), Err)
    }

    /// [`run`](Self::run) with both shares on this thread: the job first,
    /// then `mine`. For a job whose buffers are not sized yet, so that the
    /// calling thread sizes them.
    pub fn run_here<R>(&mut self, mine: impl FnOnce() -> R) -> Finished<R> {
        let theirs = self.shared.run_job();
        let mine = panic::catch_unwind(AssertUnwindSafe(mine));
        Finished { mine, theirs }
    }

    /// Heap bytes the helper holds besides what its job owns: the block
    /// that holds the job and the handoff.
    pub fn heap_bytes(&self) -> usize {
        // An `Arc`'s block is its two counts and the value.
        2 * std::mem::size_of::<usize>() + std::mem::size_of::<Shared<J>>()
    }

    /// A handle that upgrades while the helper thread is running.
    #[cfg(test)]
    fn liveness(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.shared)
    }

    /// Times the helper has parked so far.
    #[cfg(test)]
    fn parks(&self) -> u32 {
        self.shared.parks.load(Ordering::Relaxed)
    }

    /// Keeps the helper from taking posts, or lets it again.
    #[cfg(test)]
    fn hold(&self, on: bool) {
        self.shared.hold.store(on, Ordering::Release);
    }
}

impl<J: Job> Drop for Helper<J> {
    fn drop(&mut self) {
        // Once the post (if any) is over, the helper is idle and polls for
        // the next one. Its panic, if it had one, is nobody's to resume now.
        let _ = self.withdraw();
        self.shared.phase.store(EXIT, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            // The helper's panics were caught and handed to `run`.
            let _ = thread.join();
        }
    }
}

/// The helper's loop: wait for a post, take it, run it, mark it done.
fn serve<J: Job>(shared: &Shared<J>) {
    ON_HELPER.with(|on| on.set(true));
    loop {
        let mut polls = 0u32;
        loop {
            match shared.phase.load(Ordering::Acquire) {
                #[cfg(test)]
                POSTED if shared.hold.load(Ordering::Acquire) => {}
                POSTED => {
                    let taken = shared.phase.compare_exchange(
                        POSTED,
                        TAKEN,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                    // Otherwise the caller took it back to run it itself.
                    if taken.is_ok() {
                        break;
                    }
                }
                EXIT => return,
                _ => {}
            }
            polls = polls.saturating_add(1);
            if polls < SPINS {
                spin_loop();
            } else if polls < PARK_AFTER {
                thread::yield_now();
            } else {
                #[cfg(test)]
                shared.parks.fetch_add(1, Ordering::Relaxed);
                thread::park();
            }
        }
        if let Err(payload) = shared.run_job() {
            *lock(&shared.panic) = Some(payload);
        }
        shared.phase.store(DONE, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sums `values` into `sum`; panics on a value of 13.
    #[derive(Default)]
    struct Sum {
        values: Vec<u64>,
        sum: u64,
        /// Whether the last run was on a helper thread.
        on_helper: bool,
    }

    impl Job for Sum {
        fn run(&mut self) {
            self.on_helper = on_helper_thread();
            assert!(!self.values.contains(&13), "injected panic on 13");
            self.sum = self.values.iter().sum();
        }
    }

    #[test]
    fn a_run_returns_both_shares() {
        let Some(mut helper) = Helper::spawn("test-helper", Sum::default()) else {
            assert!(!two_cpus());
            return;
        };
        for n in 1..200u64 {
            helper.job().values = (0..n).map(|v| 2 * v).collect();
            let mine = helper.run(|| n * 2).resume();
            assert_eq!((mine, helper.job().sum), (2 * n, n * (n - 1)));
        }
        helper.job().values = vec![4, 5];
        assert_eq!(helper.run_here(|| 1).resume(), 1);
        let job = helper.job();
        assert_eq!(job.sum, 9);
        assert!(!job.on_helper, "run_here runs the job on the caller");
        assert!(!on_helper_thread());
    }

    #[test]
    fn a_panic_surfaces_on_the_caller_with_the_state_back() {
        let Some(mut helper) = Helper::spawn("test-helper", Sum::default()) else {
            return;
        };
        let liveness = helper.liveness();
        helper.job().values = vec![1, 13];
        let finished = helper.run(|| "mine");
        // The job is the caller's again before the panic is resumed.
        assert_eq!(std::mem::take(&mut helper.job().values), [1, 13]);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| finished.resume())).unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"injected panic on 13"));
        // The caller's panic wins over the job's, and the helper still runs.
        helper.job().values = vec![13];
        let finished = helper.run(|| panic!("caller panic"));
        let caught = panic::catch_unwind(AssertUnwindSafe(|| finished.resume())).unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"caller panic"));
        helper.job().values = vec![2, 3];
        helper.run(|| ()).resume();
        assert_eq!(helper.job().sum, 5);
        drop(helper);
        assert!(liveness.upgrade().is_none(), "drop joined the helper");
    }

    /// Signals when its run starts.
    struct Started(Arc<std::sync::atomic::AtomicBool>);

    impl Job for Started {
        fn run(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }

    #[test]
    fn a_post_wakes_a_parked_helper_and_drop_joins_it() {
        let started = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let Some(mut helper) = Helper::spawn("test-helper", Started(Arc::clone(&started))) else {
            return;
        };
        let liveness = helper.liveness();
        while helper.parks() == 0 {
            thread::yield_now();
        }
        // The caller's share waits until the job has started, which only
        // the parked helper can do while the caller is still in `mine`.
        let begin = std::time::Instant::now();
        helper
            .run(|| {
                while !started.load(Ordering::Acquire) {
                    assert!(
                        begin.elapsed().as_secs() < 60,
                        "the post never woke the helper"
                    );
                    thread::yield_now();
                }
            })
            .resume();
        assert!(liveness.upgrade().is_some());
        // Parked again, the helper takes a while to wake, so only a join can
        // have let its handle go by the time `drop` returns.
        let parks = helper.parks();
        while helper.parks() == parks {
            thread::yield_now();
        }
        drop(helper);
        assert!(liveness.upgrade().is_none(), "drop joined the helper");
    }

    #[test]
    fn a_post_the_helper_never_took_runs_at_wait() {
        let Some(mut helper) = Helper::spawn("test-helper", Sum::default()) else {
            return;
        };
        helper.hold(true);
        helper.job().values = vec![1, 2, 3];
        helper.post();
        // Nothing the caller does in between reaches the job.
        std::thread::sleep(std::time::Duration::from_millis(5));
        helper.wait().unwrap();
        let job = helper.job();
        assert_eq!(job.sum, 6);
        assert!(!job.on_helper, "the caller ran the untaken post");
        drop(job);
        // Withdrawn untaken, a post does not run at all.
        helper.job().values = vec![13];
        helper.post();
        helper.withdraw().unwrap();
        assert_eq!(helper.job().sum, 6);
        // Taken, it runs on the helper and `wait` returns its result.
        helper.hold(false);
        helper.job().values = vec![4, 5];
        helper.post();
        helper.wait().unwrap();
        assert_eq!(helper.job().sum, 9);
        // Nothing posted: `wait` and `withdraw` return at once.
        helper.wait().unwrap();
        helper.withdraw().unwrap();
    }

    #[test]
    fn a_panic_in_a_posted_job_resumes_at_wait_with_the_state_back() {
        let Some(mut helper) = Helper::spawn("test-helper", Sum::default()) else {
            return;
        };
        for hold in [false, true] {
            helper.hold(hold);
            helper.job().values = vec![7, 13];
            helper.post();
            let theirs = helper.wait();
            // The job is the caller's again before the panic is resumed.
            assert_eq!(std::mem::take(&mut helper.job().values), [7, 13]);
            let payload = theirs.unwrap_err();
            let caught = panic::catch_unwind(AssertUnwindSafe(|| panic::resume_unwind(payload)));
            let caught = caught.unwrap_err();
            assert_eq!(caught.downcast_ref::<&str>(), Some(&"injected panic on 13"));
        }
        // The helper goes on serving posts.
        helper.hold(false);
        helper.job().values = vec![2, 3];
        helper.post();
        helper.wait().unwrap();
        assert_eq!(helper.job().sum, 5);
    }

    /// Runs until told to stop; says when it started and when it ended.
    struct Blocking {
        started: Arc<std::sync::atomic::AtomicBool>,
        release: Arc<std::sync::atomic::AtomicBool>,
        ended: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Job for Blocking {
        fn run(&mut self) {
            self.started.store(true, Ordering::Release);
            while !self.release.load(Ordering::Acquire) {
                thread::yield_now();
            }
            self.ended.store(true, Ordering::Release);
        }
    }

    #[test]
    fn dropping_a_helper_with_a_posted_job_joins_it() {
        let flag = || Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (started, release, ended) = (flag(), flag(), flag());
        let job = Blocking {
            started: Arc::clone(&started),
            release: Arc::clone(&release),
            ended: Arc::clone(&ended),
        };
        let Some(mut helper) = Helper::spawn("test-helper", job) else {
            return;
        };
        let liveness = helper.liveness();
        helper.post();
        let begin = std::time::Instant::now();
        while !started.load(Ordering::Acquire) {
            assert!(
                begin.elapsed().as_secs() < 60,
                "the helper never took the post"
            );
            thread::yield_now();
        }
        let releaser = thread::spawn(move || {
            thread::sleep(std::time::Duration::from_millis(20));
            release.store(true, Ordering::Release);
        });
        drop(helper);
        assert!(ended.load(Ordering::Acquire), "drop waited for the job");
        assert!(liveness.upgrade().is_none(), "drop joined the helper");
        releaser.join().unwrap();
    }

    #[test]
    fn one_cpu_gets_no_helper() {
        // Only the affinity decides: with two CPUs there is a helper.
        assert_eq!(
            Helper::spawn("test-helper", Sum::default()).is_some(),
            two_cpus()
        );
    }
}

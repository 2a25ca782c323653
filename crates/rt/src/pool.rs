//! A persistent, process-global worker pool with scoped parallel iteration.
//!
//! One pool exists per process, lazily initialized by the first parallel
//! section that runs on more than one thread (or by [`pool_workers`]) and
//! sized from [`set_threads`], the `EM_THREADS` environment variable, or
//! `std::thread::available_parallelism()`, in that order of precedence.
//! Worker threads are spawned once and block on a condvar between jobs, so
//! repeated small parallel sections (the hundreds of forest fits of a SMAC
//! search) pay the thread-spawn cost exactly once per process instead of
//! once per call.
//!
//! Work distribution is dynamic: each [`parallel_for`] job shares a single
//! atomic counter from which workers claim chunks of indices, so uneven
//! per-index cost (deep vs. shallow trees, long vs. short strings) balances
//! automatically. The output of a parallel section must not depend on which
//! thread computes which index — every index is processed exactly once, so
//! deterministic per-index closures yield bit-identical results for any
//! thread count.
//!
//! Nesting is safe and cheap: a `parallel_for` issued while the pool is
//! already running a job (e.g. a forest fit inside a parallel candidate
//! batch) simply runs inline on the calling thread, which is already one of
//! the saturating workers.

use crate::stats;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Explicit thread-count override (0 = unset). Highest precedence.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Set the pool's thread count programmatically. Takes full effect when
/// called before the pool is built (see the module docs); afterwards it
/// still caps the number of participating workers per job (never grows the
/// pool). `set_threads(1)` runs every later section inline.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The thread count the pool resolves to: [`set_threads`] override, then the
/// `EM_THREADS` environment variable, then `available_parallelism()`.
pub fn threads() -> usize {
    let explicit = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(s) = std::env::var("EM_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A job handed to the workers: a type-erased reference to a closure that
/// lives on the submitter's stack. The submitter blocks until every worker
/// is done with it, so the erased lifetime never actually dangles.
#[derive(Clone, Copy)]
struct RawJob {
    f: *const (dyn Fn() + Sync),
}

// The pointee is Sync and outlives the job (enforced by the completion
// barrier in `Pool::run`), so shipping the pointer across threads is sound.
unsafe impl Send for RawJob {}

struct PoolState {
    job: Option<RawJob>,
    /// Increments per job so sleeping workers can tell "new job" from
    /// spurious wakeups.
    epoch: usize,
    /// Workers that have not yet finished the current job.
    remaining: usize,
    /// Set when any participant panicked; the submitter re-panics.
    panicked: bool,
    /// When the current job was published (stats timebase ns; 0 when stats
    /// are off). Observed by workers to report queue-wait; never read by
    /// scheduling logic.
    publish_ns: u64,
}

struct Shared {
    state: Mutex<PoolState>,
    work: Condvar,
    done: Condvar,
}

struct Pool {
    shared: &'static Shared,
    n_workers: usize,
    /// One job at a time; contenders (including nested sections) run inline.
    busy: AtomicBool,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let n_workers = threads().saturating_sub(1);
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                remaining: 0,
                panicked: false,
                publish_ns: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }));
        for i in 0..n_workers {
            std::thread::Builder::new()
                .name(format!("em-rt-{i}"))
                .spawn(move || worker_loop(shared, i))
                .expect("spawn em-rt worker");
        }
        Pool {
            shared,
            n_workers,
            busy: AtomicBool::new(false),
        }
    })
}

fn worker_loop(shared: &'static Shared, index: usize) {
    let mut seen_epoch = 0usize;
    loop {
        let (job, publish_ns) = {
            let mut st = shared.state.lock().unwrap();
            while st.epoch == seen_epoch || st.job.is_none() {
                st = shared.work.wait(st).unwrap();
            }
            seen_epoch = st.epoch;
            (st.job.expect("job present at fresh epoch"), st.publish_ns)
        };
        let start_ns = if stats::enabled() {
            let now = stats::now_ns();
            stats::QUEUE_WAIT_NS.record(now.saturating_sub(publish_ns));
            now
        } else {
            0
        };
        // Run the (lifetime-erased) job body; the submitter is blocked on
        // `done` until we decrement `remaining`, keeping the closure alive.
        let body = unsafe { &*job.f };
        let outcome = catch_unwind(AssertUnwindSafe(body));
        if start_ns != 0 {
            stats::add_busy_ns(Some(index), stats::now_ns().saturating_sub(start_ns));
        }
        let mut st = shared.state.lock().unwrap();
        if outcome.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

impl Pool {
    /// Broadcast `body` to every worker, run it on the caller too, and wait
    /// for all of them. Panics from any participant are re-raised here after
    /// the barrier (so no closure reference outlives the call).
    fn run(&self, body: &(dyn Fn() + Sync)) {
        let raw = RawJob {
            // Erase the borrow's lifetime; the completion barrier below
            // guarantees no worker touches it after `run` returns.
            f: unsafe {
                std::mem::transmute::<*const (dyn Fn() + Sync), *const (dyn Fn() + Sync)>(body)
            },
        };
        let stats_on = stats::enabled();
        {
            let mut st = self.shared.state.lock().unwrap();
            st.job = Some(raw);
            st.epoch = st.epoch.wrapping_add(1);
            st.remaining = self.n_workers;
            st.publish_ns = if stats_on { stats::now_ns() } else { 0 };
            self.shared.work.notify_all();
        }
        let own_start = if stats_on { stats::now_ns() } else { 0 };
        let own = catch_unwind(AssertUnwindSafe(body));
        if stats_on {
            stats::add_busy_ns(None, stats::now_ns().saturating_sub(own_start));
        }
        let mut st = self.shared.state.lock().unwrap();
        while st.remaining > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = None;
        let worker_panicked = std::mem::replace(&mut st.panicked, false);
        drop(st);
        self.busy.store(false, Ordering::Release);
        match own {
            Err(payload) => resume_unwind(payload),
            Ok(()) if worker_panicked => panic!("em-rt pool worker panicked"),
            Ok(()) => {}
        }
    }
}

/// Number of background worker threads the shared pool owns (initializing
/// the pool if needed). The calling thread always participates in parallel
/// sections too, so total concurrency is `pool_workers() + 1`. Returns 0
/// when the pool resolved to a single thread — callers that need *real*
/// concurrency (e.g. a blocking coordinator/worker protocol) must fall back
/// to a sequential path in that case.
pub fn pool_workers() -> usize {
    pool().n_workers
}

/// Run `f(i)` for every `i in 0..n`, distributing indices over the shared
/// pool with chunked work stealing. `jobs` caps the number of participating
/// threads (0 = the pool's full [`threads`] count). Results are independent
/// of `jobs`: every index runs exactly once, in chunks claimed off a single
/// atomic counter.
pub fn parallel_for<F: Fn(usize) + Sync>(n: usize, jobs: usize, f: F) {
    // Aim for ~8 steal operations per participant: cheap enough to balance,
    // coarse enough that counter contention is negligible.
    let workers = effective_jobs(jobs);
    let chunk = (n / (workers * 8).max(1)).max(1);
    parallel_for_chunked(n, jobs, chunk, f);
}

/// [`parallel_for`] with an explicit steal-chunk size.
pub fn parallel_for_chunked<F: Fn(usize) + Sync>(n: usize, jobs: usize, chunk: usize, f: F) {
    if n == 0 {
        return;
    }
    let jobs = effective_jobs(jobs).min(n);
    let stats_on = stats::enabled();
    // Run inline on one thread, on a pool without workers, or when the pool
    // is occupied (a nested section, or a concurrent top-level one: the
    // machine is already saturated). The one-thread case is decided before
    // touching the pool, so a serial section never sizes it.
    let claimed = (jobs > 1).then(pool).filter(|p| {
        p.n_workers > 0
            && p.busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    });
    let Some(p) = claimed else {
        if stats_on {
            stats::POOL_INLINE.fetch_add(1, Ordering::Relaxed);
        }
        for i in 0..n {
            f(i);
        }
        return;
    };
    if stats_on {
        stats::POOL_JOBS.fetch_add(1, Ordering::Relaxed);
    }
    let chunk = chunk.max(1);
    let next = AtomicUsize::new(0);
    // The submitter always participates; workers beyond `jobs` bow out.
    let tickets = AtomicIsize::new(jobs as isize - 1);
    let body = move || {
        if tickets.fetch_sub(1, Ordering::Relaxed) < 0 {
            return;
        }
        loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            if stats_on {
                stats::POOL_CHUNKS.fetch_add(1, Ordering::Relaxed);
            }
            let end = (start + chunk).min(n);
            for i in start..end {
                f(i);
            }
        }
    };
    // `run` resets `busy` before returning (including on panic paths is not
    // needed: a panic propagates out of the process's test anyway, and the
    // barrier has completed by the time it re-raises).
    p.run(&body);
}

/// Run a fixed set of heterogeneous tasks on the pool (a minimal "scoped
/// spawn": each closure runs exactly once, and `scope` returns after all of
/// them finish).
pub fn scope(jobs: usize, tasks: &[&(dyn Fn() + Sync)]) {
    parallel_for_chunked(tasks.len(), jobs, 1, |i| (tasks[i])());
}

fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        threads()
    } else {
        jobs
    }
}

/// Shared mutable access to disjoint elements of a slice from a parallel
/// section, without a lock: the caller promises every index is written by at
/// most one thread (which `parallel_for`'s exactly-once index distribution
/// gives for free).
pub struct SliceWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    _borrow: std::marker::PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for SliceWriter<'_, T> {}
unsafe impl<T: Send> Sync for SliceWriter<'_, T> {}

impl<'a, T> SliceWriter<'a, T> {
    /// Wrap a uniquely-borrowed slice for disjoint parallel writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        SliceWriter {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _borrow: std::marker::PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write one element.
    ///
    /// # Safety
    /// No other thread may read or write index `i` for the duration of the
    /// parallel section.
    pub unsafe fn write(&self, i: usize, value: T) {
        assert!(i < self.len, "SliceWriter index out of bounds");
        unsafe { self.ptr.add(i).write(value) };
    }

    /// Borrow a mutable sub-slice `[start, start + len)`.
    ///
    /// # Safety
    /// Ranges handed out to concurrent threads must be disjoint.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        assert!(
            start <= self.len && len <= self.len - start,
            "SliceWriter range out of bounds"
        );
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_index_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(1000, 0, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn respects_explicit_job_caps() {
        for jobs in [1, 2, 7] {
            let sum = AtomicU64::new(0);
            parallel_for(100, jobs, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
        }
    }

    #[test]
    fn disjoint_writes_assemble_results() {
        let mut out = vec![0usize; 513];
        let w = SliceWriter::new(&mut out);
        parallel_for(513, 0, |i| unsafe { w.write(i, i * i) });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
    }

    #[test]
    fn nested_sections_run_inline() {
        let total = AtomicUsize::new(0);
        parallel_for(8, 0, |_| {
            parallel_for(10, 0, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 80);
    }

    #[test]
    fn scope_runs_every_task() {
        let a = AtomicUsize::new(0);
        let b = AtomicUsize::new(0);
        let ta = || {
            a.fetch_add(1, Ordering::Relaxed);
        };
        let tb = || {
            b.fetch_add(10, Ordering::Relaxed);
        };
        scope(0, &[&ta, &tb]);
        assert_eq!(a.load(Ordering::Relaxed), 1);
        assert_eq!(b.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let caught = std::panic::catch_unwind(|| {
            parallel_for(16, 0, |i| {
                if i == 7 {
                    panic!("boom");
                }
            });
        });
        assert!(caught.is_err());
        // The pool must still work afterwards.
        let sum = AtomicUsize::new(0);
        parallel_for(50, 0, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 49 * 50 / 2);
    }

    #[test]
    fn zero_items_is_a_no_op() {
        parallel_for(0, 0, |_| panic!("must not run"));
    }
}

//! A persistent, process-global worker pool with index-ordered parallel
//! sections.
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
//! A parallel section is one of two safe calls. [`parallel_map`] returns
//! `f(i)` for every index in index order; [`parallel_rows`] hands each
//! disjoint row of a caller's buffer to its own call. Work distribution is
//! dynamic: participants take claims of indices one at a time off a shared
//! iterator, so uneven per-index cost (deep vs. shallow trees, long vs.
//! short strings) balances automatically. Every index runs exactly once
//! and results are assembled by index, never by thread, so deterministic
//! per-index closures give bit-identical results at any thread count. The
//! one `grain` argument sets the claim size (see [`parallel_map`]); the
//! pool width is the only width.
//!
//! Nesting is safe and cheap: a section issued while the pool is already
//! running one (e.g. a forest fit inside a parallel fold) simply runs
//! inline on the calling thread, which is already one of the saturating
//! workers.

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

/// A section the pool runs: how many indices one claim takes and how many
/// threads take part.
struct Section {
    pool: &'static Pool,
    claim: usize,
    participants: usize,
}

impl Section {
    /// Plan a section of `n` indices claimed `grain` at a time (see
    /// [`parallel_map`]), or `None` to run it inline: on one thread, on a
    /// pool without workers, when it fits in one claim, or when the pool
    /// is occupied (a nested section, or a concurrent top-level one: the
    /// machine is already saturated). The one-participant cases are decided
    /// before touching the pool, so they never size it.
    fn plan(n: usize, grain: usize) -> Option<Section> {
        let width = threads();
        // About eight claims per participant: cheap enough to balance,
        // coarse enough that claiming is noise.
        let claim = if grain == 0 {
            (n / (width * 8)).max(1)
        } else {
            grain
        };
        let participants = width.min(n.div_ceil(claim));
        let section = (participants > 1)
            .then(pool)
            .filter(|p| {
                p.n_workers > 0
                    && p.busy
                        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
            })
            .map(|pool| Section {
                pool,
                claim,
                participants,
            });
        if stats::enabled() {
            let counter = match section {
                Some(_) => &stats::POOL_JOBS,
                None => &stats::POOL_INLINE,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        section
    }

    /// Hand `claims` out one at a time to the participants and run `body`
    /// on each. Returns once every claim has run; a panic in `body`
    /// re-raises here after every participant has stopped (`Pool::run`,
    /// which also frees the pool for the next section).
    fn run<I: Iterator + Send>(self, claims: I, body: impl Fn(I::Item) + Sync) {
        let claims = Mutex::new(claims);
        let stats_on = stats::enabled();
        // The submitter always participates; workers beyond the section's
        // participants bow out.
        let tickets = AtomicIsize::new(self.participants as isize - 1);
        self.pool.run(&|| {
            if tickets.fetch_sub(1, Ordering::Relaxed) < 0 {
                return;
            }
            loop {
                // The guard drops at the end of this statement: claims are
                // taken under the lock, run outside it.
                let Some(item) = claims.lock().expect("claim iterators do not panic").next() else {
                    break;
                };
                if stats_on {
                    stats::POOL_CHUNKS.fetch_add(1, Ordering::Relaxed);
                }
                body(item);
            }
        });
    }
}

/// `f(i)` for every `i in 0..n`, in index order, computed on the shared
/// pool. Every index runs exactly once, so a deterministic `f` gives the
/// same vector at any pool width.
///
/// Participants claim `grain` indices at a time; `grain = 0` splits the
/// section evenly into about eight claims per participant. A section of at
/// most `grain` indices runs inline on the calling thread, as does every
/// section on a one-thread pool or nested in another section.
pub fn parallel_map<T, F>(n: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let Some(section) = Section::plan(n, grain) else {
        return (0..n).map(f).collect();
    };
    // One part per claim, filled by whichever participant takes the claim
    // and joined in claim order.
    let claim = section.claim;
    let mut parts: Vec<Vec<T>> = Vec::new();
    parts.resize_with(n.div_ceil(claim), Vec::new);
    section.run(parts.iter_mut().enumerate(), |(c, part)| {
        *part = (c * claim..n.min((c + 1) * claim)).map(&f).collect();
    });
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part);
    }
    out
}

/// Run `f(r, row)` for each row `r` of `out`, a row-major buffer of rows
/// `width` long, on the shared pool. Rows are disjoint, so each call owns
/// its row; scheduling is [`parallel_map`]'s, with `grain` counted in rows.
///
/// # Panics
/// When `width` is 0 or `out.len()` is not a multiple of it.
pub fn parallel_rows<T, F>(out: &mut [T], width: usize, grain: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(
        width > 0 && out.len().is_multiple_of(width),
        "a buffer of {} is not whole rows of width {width}",
        out.len()
    );
    let Some(section) = Section::plan(out.len() / width, grain) else {
        for (r, row) in out.chunks_mut(width).enumerate() {
            f(r, row);
        }
        return;
    };
    let claim = section.claim;
    section.run(out.chunks_mut(width * claim).enumerate(), |(c, rows)| {
        for (j, row) in rows.chunks_mut(width).enumerate() {
            f(c * claim + j, row);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_runs_once_and_lands_in_order() {
        let n = 1000;
        for grain in [0, 1, 7, n + 1] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = parallel_map(n, grain, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                i * i
            });
            assert!(
                out.iter().enumerate().all(|(i, &v)| v == i * i),
                "grain {grain}"
            );
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "grain {grain}"
            );
        }
    }

    #[test]
    fn rows_tile_the_buffer() {
        for grain in [0, 1, 7, 400] {
            let mut out = vec![usize::MAX; 3 * 301];
            parallel_rows(&mut out, 3, grain, |r, row| {
                assert_eq!(row.len(), 3);
                for (c, v) in row.iter_mut().enumerate() {
                    assert_eq!(*v, usize::MAX, "row {r} handed out twice");
                    *v = r * 3 + c;
                }
            });
            assert!(
                out.iter().enumerate().all(|(i, &v)| v == i),
                "grain {grain}"
            );
        }
    }

    #[test]
    fn nested_sections_run_inline() {
        let rows = parallel_map(64, 1, |_| {
            let outer = std::thread::current();
            let on_worker = outer.name().is_some_and(|n| n.starts_with("em-rt-"));
            let inner = parallel_map(10, 0, |j| (j, std::thread::current().id()));
            let inline = inner.iter().all(|&(_, id)| id == outer.id());
            assert!(inner.iter().enumerate().all(|(i, &(j, _))| i == j));
            (on_worker, inline)
        });
        // An index that ran on a worker shows the outer section held the
        // pool throughout, so every inner section had to run inline.
        if rows.iter().any(|&(on_worker, _)| on_worker) {
            assert!(rows.iter().all(|&(_, inline)| inline));
        }
    }

    static MADE: AtomicUsize = AtomicUsize::new(0);
    static DROPPED: AtomicUsize = AtomicUsize::new(0);

    /// Counts its constructions and drops.
    struct Counted;

    impl Counted {
        fn new() -> Self {
            MADE.fetch_add(1, Ordering::Relaxed);
            Counted
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn a_panic_propagates_drops_only_what_was_made_and_spares_the_pool() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(64, 1, |i| {
                assert_ne!(i, 7, "boom");
                Counted::new()
            })
        });
        assert!(caught.is_err());
        // Every value made was dropped once, and nothing that was never
        // made was dropped.
        assert_eq!(
            DROPPED.load(Ordering::Relaxed),
            MADE.load(Ordering::Relaxed)
        );
        // The pool must still work afterwards.
        let out = parallel_map(50, 0, |i| i);
        assert_eq!(out.iter().sum::<usize>(), 49 * 50 / 2);
    }

    #[test]
    fn zero_items_is_a_no_op() {
        assert!(parallel_map(0, 0, |_| -> usize { panic!("must not run") }).is_empty());
        parallel_rows(&mut [0u8; 0], 4, 0, |_, _| panic!("must not run"));
    }
}

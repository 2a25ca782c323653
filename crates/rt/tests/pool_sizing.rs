//! The shared pool is built by the first section that runs on more than one
//! thread, never by a serial one. This needs a process whose pool does not
//! exist yet, so it is a test binary of its own with a single test.

use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn a_serial_section_does_not_size_the_pool() {
    em_rt::set_threads(1);
    let hits = AtomicUsize::new(0);
    em_rt::parallel_for(10, 0, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 10);
    // A later wide width still gets its workers: the serial section above
    // ran inline without building a zero-worker pool.
    em_rt::set_threads(4);
    assert_eq!(em_rt::pool_workers(), 3);
}

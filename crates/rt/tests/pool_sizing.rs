//! The shared pool is built by the first section that runs on more than one
//! thread, never by one that runs inline. This needs a process whose pool
//! does not exist yet, so it is a test binary of its own with a single test.

#[test]
fn an_inline_section_does_not_size_the_pool() {
    let here = std::thread::current().id();
    let on_caller = |ids: &[std::thread::ThreadId]| ids.iter().all(|&id| id == here);
    // A section of at most `grain` indices runs inline at any width.
    em_rt::set_threads(4);
    assert!(on_caller(&em_rt::parallel_map(10, 10, |_| {
        std::thread::current().id()
    })));
    let mut rows = vec![None; 2 * 5];
    em_rt::parallel_rows(&mut rows, 2, 5, |_, row| {
        row.fill(Some(std::thread::current().id()));
    });
    assert!(on_caller(&rows.into_iter().flatten().collect::<Vec<_>>()));
    // So does every section at width 1.
    em_rt::set_threads(1);
    assert!(on_caller(&em_rt::parallel_map(10, 0, |_| {
        std::thread::current().id()
    })));
    // A later width still gets its workers: neither inline run above built
    // the pool (at 4 or 1 thread).
    em_rt::set_threads(3);
    assert_eq!(em_rt::pool_workers(), 2);
}

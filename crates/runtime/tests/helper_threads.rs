//! The helper threads are persistent: the process has as many threads after
//! ten thousand regions as after the first. Alone in its test binary, so no
//! other test's threads come and go while it counts.
#![cfg(target_os = "linux")]

use graceful_runtime::Pool;

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

#[test]
fn regions_reuse_the_helpers_instead_of_spawning() {
    let pool = Pool::new(4);
    let region = |i: usize| pool.map_init(16, || (), move |_, m| m + i);
    assert_eq!(region(0), (0..16).collect::<Vec<_>>());
    let after_first = process_threads();
    assert!(after_first >= 4, "three helpers and the caller, got {after_first}");
    for i in 1..10_000 {
        assert_eq!(region(i)[15], 15 + i);
    }
    assert_eq!(process_threads(), after_first);
}

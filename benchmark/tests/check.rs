//! `check` as a test. One `#[test]` only: the allocator counters are
//! process-wide, and a second test thread allocating beside it would break
//! the "counts are identical across two repetitions" assertion.

#[global_allocator]
static GLOBAL: tango_benchmark::alloc::Counting = tango_benchmark::alloc::Counting;

#[test]
fn check_passes_on_the_working_seed_and_the_held_back_one() {
    for seed in [1, 2] {
        let failures = tango_benchmark::check::check(seed);
        assert!(failures.is_empty(), "seed {seed}: {failures:#?}");
    }
    let reading = tango_benchmark::alloc::read();
    assert!(
        reading.calls > 0 && reading.peak >= reading.live,
        "the allocator counts"
    );
}

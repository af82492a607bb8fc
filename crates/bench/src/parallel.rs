//! Multi-seed fan-out: run independent experiment instances across
//! `std::thread` workers with deterministic result ordering.
//!
//! Related path-stitching evaluations scale by brute force over many
//! topologies and seeds (Kotronis et al., Li et al.); each seed is an
//! independent simulation, so the outer loop is embarrassingly parallel.
//! Results are returned **in input order** regardless of which worker
//! finished first, so a parallel sweep is a drop-in replacement for the
//! serial loop — `experiments` output and CSV rows stay byte-identical.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count for a sweep of `jobs` independent jobs: the smaller of
/// the machine's available parallelism and the job count.
pub fn worker_count(jobs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.min(jobs).max(1)
}

/// Run `f(seed)` for every seed, fanned out over `workers` threads, and
/// return the results **in seed order** (deterministic aggregation: the
/// output is independent of thread scheduling).
///
/// `workers == 1` degenerates to the plain serial loop on the calling
/// thread — no threads are spawned, so a serial reference run is exactly
/// the pre-existing code path.
pub fn run_seeds<T, F>(seeds: &[u64], workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    if workers <= 1 || seeds.len() <= 1 {
        return seeds.iter().map(|&s| f(s)).collect();
    }
    let workers = workers.min(seeds.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = seeds.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else {
                    break;
                };
                let value = f(seed);
                *slots[i].lock().expect("result slot") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_seed_order() {
        let seeds: Vec<u64> = (0..64).collect();
        let out = run_seeds(&seeds, 8, |s| s * 10);
        assert_eq!(out, seeds.iter().map(|s| s * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_serial() {
        let seeds = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let f = |s: u64| s.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
        assert_eq!(run_seeds(&seeds, 4, f), run_seeds(&seeds, 1, f));
    }

    #[test]
    fn single_seed_runs_inline() {
        assert_eq!(run_seeds(&[7], 8, |s| s + 1), vec![8]);
    }

    #[test]
    fn worker_count_respects_job_bound() {
        assert!(worker_count(1) == 1);
        assert!(worker_count(1000) >= 1);
    }
}

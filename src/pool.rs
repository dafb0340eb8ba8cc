//! The work-stealing pool shared by design-space sweeps, `xflow oracle`
//! and `validate --all`.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count for `items` units of work: `jobs = 0` means the host's
/// available parallelism, and there is never more than one worker per item
/// (at least one, so an empty run still has a caller-thread "worker").
pub(crate) fn workers(jobs: usize, items: usize) -> usize {
    let wanted = match jobs {
        0 => std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
        t => t,
    };
    wanted.clamp(1, items.max(1))
}

/// Run `f` over every item on a work-stealing pool and return the results
/// in item order.
///
/// Each item is one claim: workers take the next unclaimed item from a
/// shared atomic cursor, so callers batch cheap work into coarser items (a
/// sweep passes contiguous point ranges). Every worker builds its state
/// once with `init` and hands it to each item it runs — a sweep worker
/// counts the chunks it claims. `jobs = 0` uses the host's
/// available parallelism, no more workers run than there are items, and a
/// single worker runs on the calling thread. Results merge back by
/// index, so the output never depends on scheduling, and a worker's panic
/// is re-raised with its payload intact.
pub fn run_chunked<T, S, R>(
    items: &[T],
    jobs: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let threads = workers(jobs, items.len());
    if threads == 1 {
        let mut state = init();
        return items.iter().enumerate().map(|(i, item)| f(&mut state, i, item)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let scope_result = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|_| {
                    let mut state = init();
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(&mut state, i, item)));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload))).collect::<Vec<_>>()
    });
    let per_worker = scope_result.unwrap_or_else(|payload| resume_unwind(payload));
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("pool item not executed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_worker_runs_on_the_caller_with_one_state() {
        let caller = std::thread::current().id();
        let out = run_chunked(
            &[(); 5],
            1,
            || 0usize,
            |seen, _, _| {
                *seen += 1;
                (*seen, std::thread::current().id() == caller)
            },
        );
        assert_eq!(out, (1..=5).map(|k| (k, true)).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panics_keep_their_payload() {
        let items: Vec<usize> = (0..37).collect();
        let payload = std::panic::catch_unwind(|| {
            run_chunked(&items, 3, || (), |_, i, _| if i == 20 { panic!("item {i} failed") } else { i })
        })
        .expect_err("a worker panic must propagate");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("item 20 failed"));
    }

    #[test]
    fn never_more_workers_than_items() {
        assert_eq!(workers(8, 3), 3);
        assert_eq!(workers(2, 100), 2);
        assert_eq!(workers(4, 0), 1);
        assert!(workers(0, 1000) >= 1);
    }
}

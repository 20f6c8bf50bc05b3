//! Deterministic parallel fan-out for sweeps.
//!
//! [`parallel_map`] runs one closure per sweep point across a pool of
//! scoped worker threads ([`std::thread::scope`], no external runtime).
//! Each worker owns private per-thread state built by an `init` closure —
//! typically an [`crate::engine::EngineWorkspace`] or a freshly built
//! simulator — so no locking happens on the hot path. Results are tagged
//! with their input index and re-sorted before returning, so the output
//! order (and therefore every downstream reduction) is identical to the
//! serial path regardless of scheduling.
//!
//! Determinism contract: the closure must derive all randomness from the
//! point itself (e.g. a per-point seed), never from worker identity or
//! execution order. Under that contract `parallel_map(items, …)` is
//! byte-identical to the equivalent serial loop.
//!
//! The fan-out never shares work between points; a sweep that wants one
//! symbolic factorization or a warm-start chain across its points runs
//! them on one workspace through [`crate::engine::BatchRun`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// Picks a worker count: the available parallelism, capped by the number
/// of items (no point spinning up idle threads).
fn worker_count(items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(items).max(1)
}

/// Maps `f` over `items` in parallel with deterministic output ordering.
///
/// `init` runs once per worker thread to build its private state (a
/// workspace, a simulator instance, scratch buffers); `f` receives that
/// state, the item, and the item's index. Items are dispatched dynamically
/// (an atomic cursor), so uneven point costs still balance, but results
/// are returned in input order.
///
/// # Errors
///
/// If any invocation of `f` fails, the error for the smallest failing
/// index is returned — exactly the error a serial loop would have hit
/// first.
pub fn parallel_map<T, S, R, E, I, F>(items: &[T], init: I, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T, usize) -> Result<R, E> + Sync,
{
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let workers = worker_count(items.len());
    if workers == 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, item, i))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(items.len());
    let mut first_err: Option<(usize, E)> = None;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut ok: Vec<(usize, R)> = Vec::new();
                    let mut err: Option<(usize, E)> = None;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        match f(&mut state, &items[i], i) {
                            Ok(r) => ok.push((i, r)),
                            Err(e) => {
                                err = Some((i, e));
                                break;
                            }
                        }
                    }
                    (ok, err)
                })
            })
            .collect();
        for handle in handles {
            // A panicking worker propagates its panic here, as in serial code.
            let (ok, err) = handle.join().expect("sweep worker panicked");
            tagged.extend(ok);
            if let Some((i, e)) = err {
                match &first_err {
                    Some((fi, _)) if *fi <= i => {}
                    _ => first_err = Some((i, e)),
                }
            }
        }
    });

    if let Some((_, e)) = first_err {
        return Err(e);
    }
    tagged.sort_by_key(|&(i, _)| i);
    Ok(tagged.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalogError;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(
            &items,
            || 0u64,
            |_, &v, i| {
                assert_eq!(v, i);
                Ok::<usize, AnalogError>(v * v)
            },
        )
        .unwrap();
        assert_eq!(out, items.iter().map(|v| v * v).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_loop_bitwise() {
        let items: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.37).collect();
        let work = |x: f64| (x.sin() * 1e3).exp().ln_1p();
        let serial: Vec<f64> = items.iter().map(|&x| work(x)).collect();
        let par = parallel_map(&items, || (), |(), &x, _| Ok::<f64, AnalogError>(work(x))).unwrap();
        assert_eq!(serial, par);
    }

    #[test]
    fn first_error_by_index_wins() {
        let items: Vec<usize> = (0..64).collect();
        let err = parallel_map(
            &items,
            || (),
            |(), &v, _| {
                if v >= 7 {
                    Err(AnalogError::NoConvergence {
                        iterations: v,
                        residual: 1.0,
                        gmin: 1e-12,
                        residual_history: vec![1.0],
                    })
                } else {
                    Ok(v)
                }
            },
        )
        .unwrap_err();
        match err {
            AnalogError::NoConvergence { iterations, .. } => assert_eq!(iterations, 7),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> =
            parallel_map(&[] as &[u8], || (), |(), &v, _| Ok::<u8, AnalogError>(v)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn init_runs_per_worker_state_is_private() {
        let items: Vec<usize> = (0..32).collect();
        // Each worker counts its own items; totals must cover all items.
        let out = parallel_map(
            &items,
            || 0usize,
            |count, &v, _| {
                *count += 1;
                Ok::<_, AnalogError>((v, *count))
            },
        )
        .unwrap();
        assert_eq!(out.len(), items.len());
        for (i, (v, count)) in out.iter().enumerate() {
            assert_eq!(*v, i);
            assert!(*count >= 1 && *count <= items.len());
        }
    }
}

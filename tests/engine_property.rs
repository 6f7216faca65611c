//! Property tests for the serving engine: **N requests coalesced through
//! [`Engine`] produce results identical to N independent
//! [`PreparedMxv::run`] calls** — across semirings (`PlusTimes`,
//! `Select2ndMin`), mask modes (unmasked / keep / complement, mixed within
//! one flush), width budgets that force multi-chunk flushes, and mid-flight
//! lane retirement (cancelled tickets and closed sessions) — and, on one
//! seeded large-operand case, through the lane runner's split bucket,
//! Adaptive bucket and pull lanes.
//!
//! Entry values are small integers, and results compare bit-for-bit.

use proptest::prelude::*;
use sparse_substrate::{CooMatrix, CscMatrix, MaskBits, PlusTimes, Select2ndMin, SparseVec};
use spmspv::engine::{Engine, EngineConfig, EngineError, MxvRequest};
use spmspv::ops::Mxv;
use spmspv::{obs, AlgorithmKind, BatchAlgorithmKind, MaskMode, SpMSpVOptions};

mod large_case;

/// Strategy: a random sparse matrix with small-integer entries.
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = CscMatrix<f64>> {
    (3usize..max_dim, 3usize..max_dim).prop_flat_map(|(m, n)| {
        let entry = (0..m, 0..n, 1i32..16);
        proptest::collection::vec(entry, 0..(m * n).min(250)).prop_map(move |entries| {
            let mut coo = CooMatrix::new(m, n);
            for (i, j, v) in entries {
                coo.push(i, j, v as f64);
            }
            CscMatrix::from_coo(coo, |a, b| a + b)
        })
    })
}

/// One generated client request: frontier, mask choice, and whether the
/// client retires it before the flush.
#[derive(Debug, Clone)]
struct GenRequest {
    frontier: SparseVec<f64>,
    mask: Option<(MaskBits, MaskMode)>,
    cancel: bool,
}

fn request_strategy(m: usize, n: usize) -> impl Strategy<Value = GenRequest> {
    let frontier =
        proptest::collection::btree_map(0..n, 1i32..16, 0..n.min(30)).prop_map(move |map| {
            let pairs = map.into_iter().map(|(i, v)| (i, v as f64)).collect();
            SparseVec::from_pairs(n, pairs).expect("unique in-range indices")
        });
    let mask = prop_oneof![
        Just(None),
        (proptest::collection::btree_map(0..m, 1i32..2, 0..m), any::<bool>()).prop_map(
            move |(rows, keep)| {
                let bits = MaskBits::from_indices(m, rows.into_keys());
                let mode = if keep { MaskMode::Keep } else { MaskMode::Complement };
                Some((bits, mode))
            }
        ),
    ];
    (frontier, mask, any::<bool>()).prop_map(|(frontier, mask, cancel)| GenRequest {
        frontier,
        mask,
        cancel,
    })
}

fn operands(max_dim: usize) -> impl Strategy<Value = (CscMatrix<f64>, Vec<GenRequest>)> {
    matrix_strategy(max_dim).prop_flat_map(|a| {
        let (m, n) = (a.nrows(), a.ncols());
        (Just(a), proptest::collection::vec(request_strategy(m, n), 1..14))
    })
}

/// The oracle: the request run alone through a single-vector prepared
/// descriptor with the same options.
fn independent_run(
    a: &CscMatrix<f64>,
    request: &GenRequest,
    options: &SpMSpVOptions,
) -> SparseVec<f64> {
    let op = Mxv::over(a).semiring(&PlusTimes).options(options.clone());
    let mut op = match &request.mask {
        Some((bits, mode)) => op.mask(bits, *mode).prepare(),
        None => op.prepare(),
    };
    op.run(&request.frontier)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The headline property: submit everything, cancel the retiring
    /// subset mid-flight, flush once, and every surviving ticket must equal
    /// its independent single-vector run, bit for bit.
    #[test]
    fn engine_equals_independent_runs(
        (a, requests) in operands(40),
        threads in 1usize..5,
        max_lanes in 0usize..5,
    ) {
        let options = SpMSpVOptions::with_threads(threads);
        let engine = Engine::over_with(
            &a,
            PlusTimes,
            EngineConfig::default().max_lanes(max_lanes).options(options.clone()),
        );
        let tickets: Vec<_> = requests
            .iter()
            .map(|r| {
                let mut req = MxvRequest::new(r.frontier.clone());
                if let Some((bits, mode)) = &r.mask {
                    req = req.mask(bits.clone(), *mode);
                }
                engine.submit(req)
            })
            .collect();
        // Mid-flight retirement: cancel the flagged subset before a flush
        // ever sees it.
        let cancelled: usize = requests
            .iter()
            .zip(&tickets)
            .filter(|(r, t)| r.cancel && t.cancel())
            .count();
        let outcome = engine.flush();
        prop_assert_eq!(outcome.retired, cancelled);
        prop_assert_eq!(outcome.lanes, requests.len() - cancelled);

        for (r, ticket) in requests.iter().zip(tickets) {
            let served = ticket.try_take();
            if r.cancel {
                prop_assert!(
                    matches!(served, Some(Err(EngineError::Cancelled))),
                    "cancelled ticket must resolve as Cancelled, not be served"
                );
                continue;
            }
            let y = served
                .expect("surviving request must be served by the flush")
                .expect("surviving request must succeed");
            let oracle = independent_run(&a, r, &options);
            prop_assert_eq!(y, oracle, "engine lane must be bit-identical to its independent run");
        }
        let stats = engine.stats();
        prop_assert_eq!(stats.requests, requests.len());
        prop_assert_eq!(stats.retired, cancelled);
        prop_assert_eq!(stats.lanes_executed, requests.len() - cancelled);
    }

    /// Same property through every batched algorithm family the engine can
    /// pool.
    #[test]
    fn every_batch_family_serves_identically(
        (a, requests) in operands(30),
        threads in 1usize..4,
    ) {
        let options = SpMSpVOptions::with_threads(threads);
        for kind in [BatchAlgorithmKind::Bucket, BatchAlgorithmKind::Adaptive] {
            let engine = Engine::over_with(
                &a,
                PlusTimes,
                EngineConfig::default().batch_algorithm(kind).options(options.clone()),
            );
            let tickets: Vec<_> = requests
                .iter()
                .map(|r| {
                    let mut req = MxvRequest::new(r.frontier.clone());
                    if let Some((bits, mode)) = &r.mask {
                        req = req.mask(bits.clone(), *mode);
                    }
                    engine.submit(req)
                })
                .collect();
            engine.flush();
            for (r, ticket) in requests.iter().zip(tickets) {
                let y = ticket.try_take().expect("served").expect("succeeded");
                prop_assert_eq!(
                    y,
                    independent_run(&a, r, &options),
                    "family {} diverged from the independent run", kind
                );
            }
        }
    }

    /// Closing one of two sessions retires exactly its queued requests; the
    /// other session's results are untouched.
    #[test]
    fn session_close_is_precise_lane_retirement(
        (a, requests) in operands(30),
        threads in 1usize..4,
    ) {
        let options = SpMSpVOptions::with_threads(threads);
        let engine = Engine::over_with(
            &a,
            PlusTimes,
            EngineConfig::default().options(options.clone()),
        );
        let doomed = engine.session();
        let survivor = engine.session();
        // `cancel` doubles as the session assignment here: flagged requests
        // go to the session that closes mid-flight.
        let tickets: Vec<_> = requests
            .iter()
            .map(|r| {
                let mut req = MxvRequest::new(r.frontier.clone());
                if let Some((bits, mode)) = &r.mask {
                    req = req.mask(bits.clone(), *mode);
                }
                if r.cancel { doomed.submit(req) } else { survivor.submit(req) }
            })
            .collect();
        let doomed_count = requests.iter().filter(|r| r.cancel).count();
        prop_assert_eq!(doomed.close(), doomed_count);
        let outcome = engine.flush();
        prop_assert_eq!(outcome.lanes, requests.len() - doomed_count);
        for (r, ticket) in requests.iter().zip(tickets) {
            if r.cancel {
                prop_assert!(
                    matches!(ticket.try_take(), Some(Err(EngineError::Cancelled))),
                    "closed session's request must resolve as Cancelled"
                );
            } else {
                prop_assert_eq!(
                    ticket.try_take().expect("survivor served").expect("survivor succeeded"),
                    independent_run(&a, r, &options)
                );
            }
        }
    }

    /// BFS-shaped serving: the `(min, select2nd)` semiring with per-request
    /// ¬visited masks, checked against independent runs.
    #[test]
    fn select2nd_requests_coalesce_exactly(
        (a, requests) in operands(30),
        threads in 1usize..4,
    ) {
        let options = SpMSpVOptions::with_threads(threads);
        let engine: Engine<'_, f64, usize, Select2ndMin> = Engine::over_with(
            &a,
            Select2ndMin,
            EngineConfig::default().options(options.clone()),
        );
        let frontiers: Vec<SparseVec<usize>> = requests
            .iter()
            .map(|r| {
                let idx = r.frontier.indices().to_vec();
                SparseVec::from_pairs(a.ncols(), idx.into_iter().map(|i| (i, i)).collect())
                    .expect("indices already validated")
            })
            .collect();
        let tickets: Vec<_> = requests
            .iter()
            .zip(&frontiers)
            .map(|(r, frontier)| {
                let mut req = MxvRequest::new(frontier.clone());
                if let Some((bits, _)) = &r.mask {
                    req = req.mask(bits.clone(), MaskMode::Complement);
                }
                engine.submit(req)
            })
            .collect();
        engine.flush();
        for ((r, frontier), ticket) in requests.iter().zip(&frontiers).zip(tickets) {
            let y = ticket.try_take().expect("served").expect("succeeded");
            let op = Mxv::over(&a).semiring(&Select2ndMin).options(options.clone());
            let mut op = match &r.mask {
                Some((bits, _)) => op.mask(bits, MaskMode::Complement).prepare(),
                None => op.prepare(),
            };
            prop_assert_eq!(y, op.run(frontier), "Select2ndMin lane diverged");
        }
    }
}

/// Deterministic end-to-end check on a realistic graph: many masked BFS-ish
/// requests served through one engine under a tight width budget, each
/// compared bit-for-bit with its independent run.
#[test]
fn chunked_flush_on_rmat_is_bit_identical() {
    use sparse_substrate::gen::{random_sparse_vec, rmat, RmatParams};

    let a = rmat(9, 8, RmatParams::graph500(), 77);
    let n = a.ncols();
    let options = SpMSpVOptions::with_threads(4);
    let engine = Engine::over_with(
        &a,
        PlusTimes,
        EngineConfig::default().max_lanes(3).options(options.clone()),
    );
    let requests: Vec<GenRequest> = (0..10)
        .map(|i| {
            let frontier = random_sparse_vec(n, 40, 500 + i as u64);
            let mask = (i % 3 != 0).then(|| {
                let bits = MaskBits::from_indices(n, (i..n).step_by(2 + i % 4));
                (bits, if i % 2 == 0 { MaskMode::Keep } else { MaskMode::Complement })
            });
            GenRequest { frontier, mask, cancel: false }
        })
        .collect();
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| {
            let mut req = MxvRequest::new(r.frontier.clone());
            if let Some((bits, mode)) = &r.mask {
                req = req.mask(bits.clone(), *mode);
            }
            engine.submit(req)
        })
        .collect();
    let outcome = engine.flush();
    assert!(outcome.batches > 3, "width budget 3 over 10 mixed requests must chunk");
    for (r, ticket) in requests.iter().zip(tickets) {
        let y = ticket.try_take().expect("served").expect("succeeded");
        assert_eq!(y, independent_run(&a, r, &options));
    }
}

/// The drawn operands above never earn a second participant. This seeded
/// case does: through an engine of either family, its lanes reach a bucket
/// lane split four ways, Adaptive's bucket delegate and Adaptive's pull —
/// shown by replaying each lane, and by the global `adaptive.single.*`
/// counters, which no other test of this file can move past zero for
/// bucket — and every lane equals its independent sequential-SPA run bit
/// for bit.
#[test]
fn large_operands_reach_split_bucket_and_pull_lanes_exactly() {
    let a = large_case::matrix();
    let requests = large_case::requests();
    let oracle: Vec<SparseVec<usize>> =
        requests.iter().map(|r| large_case::sequential(&a, r)).collect();
    assert!(oracle[..2].iter().all(|y| y.nnz() > 100), "the pushed and pulled lanes find rows");
    let options = SpMSpVOptions::with_threads(large_case::THREADS);
    for kind in [BatchAlgorithmKind::Bucket, BatchAlgorithmKind::Adaptive] {
        let engine: Engine<'_, f64, usize, Select2ndMin> = Engine::over_with(
            &a,
            Select2ndMin,
            EngineConfig::default().batch_algorithm(kind).options(options.clone()),
        );
        let tickets: Vec<_> = requests.iter().map(|r| engine.submit(r.mxv())).collect();
        let before = large_case::adaptive_picks();
        let outcome = engine.flush();
        let after = large_case::adaptive_picks();
        assert_eq!((outcome.batches, outcome.lanes), (2, 3), "{kind}");
        for (i, (ticket, want)) in tickets.iter().zip(&oracle).enumerate() {
            let y = ticket.try_take().expect("served").expect("succeeded");
            assert_eq!(&y, want, "{kind}: request {i} diverged from its sequential run");
        }

        let paths = large_case::replay(&a, &requests, kind);
        let expected = match kind {
            BatchAlgorithmKind::Bucket => {
                [(AlgorithmKind::Bucket, 4), (AlgorithmKind::Bucket, 1), (AlgorithmKind::Bucket, 1)]
            }
            BatchAlgorithmKind::Adaptive => [
                (AlgorithmKind::Bucket, 4),
                (AlgorithmKind::Pull, 1),
                (AlgorithmKind::Sequential, 1),
            ],
        };
        assert_eq!(paths, expected, "{kind}: (family, participants) per lane");
        if kind == BatchAlgorithmKind::Adaptive && obs::global().enabled() {
            let counted = after.iter().zip(before).all(|(after, before)| *after > before);
            assert!(counted, "bucket and pull picks {before:?} → {after:?}");
        }
    }
}

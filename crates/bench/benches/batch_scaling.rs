//! Batch-scaling bench: how does per-lane SpMSpV cost change with batch
//! width `k`?
//!
//! Criterion groups plus the per-lane amortization / masked /
//! engine-coalescing tables:
//!
//! * per-lane time (total / k): the fused kernel's per-lane time should
//!   *fall* with `k` while the naive baseline's stays flat;
//! * masked batch (the BFS shape `frontier ∧ ¬visited`): in-kernel mask vs
//!   the pre-`Mxv` post-filter strategy, plus step timings proving the mask
//!   adds no extra pass;
//! * serving-engine coalescing: one `Engine` flush of `k` seed requests vs
//!   `k` independent single-vector `Mxv::run` calls.
//!
//! Whether the adaptive dispatch picks the winning family is the repo
//! benchmark's job: see `adaptive.regret`, `batch.amortization` and
//! `adaptive.choice.*` in `benchmark/results/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

use sparse_substrate::gen::{random_sparse_vec, rmat, RmatParams};
use sparse_substrate::{MaskBits, PlusTimes, SparseVec, SparseVecBatch};
use spmspv::batch::mask_filter_batch;
use spmspv::engine::{Engine, EngineConfig, MxvRequest};
use spmspv::ops::Mxv;
use spmspv::{
    BatchAlgorithmKind, BatchMaskView, MaskMode, MaskView, SpMSpVBucketBatch, SpMSpVOptions,
};

const KS: [usize; 4] = [1, 4, 16, 64];
const FRONTIER_NNZ: usize = 512;

fn make_batch(n: usize, k: usize) -> SparseVecBatch<f64> {
    let lanes: Vec<SparseVec<f64>> =
        (0..k).map(|l| random_sparse_vec(n, FRONTIER_NNZ, 1000 + l as u64)).collect();
    SparseVecBatch::from_lanes(&lanes).expect("lanes share n")
}

/// A "visited" set covering roughly half the vertices (multiplicative-hash
/// spread, so it is not correlated with vertex ids).
fn make_visited(n: usize) -> MaskBits {
    MaskBits::from_indices(n, (0..n).filter(|v| (v.wrapping_mul(2654435761) >> 4) % 2 == 0))
}

fn bench_batch_scaling(c: &mut Criterion) {
    let a = rmat(13, 12, RmatParams::graph500(), 7);
    let n = a.ncols();
    let threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);

    let mut group = c.benchmark_group("batch_scaling");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    for &k in &KS {
        let x = make_batch(n, k);
        for kind in BatchAlgorithmKind::all() {
            let mut op = Mxv::over(&a)
                .semiring(&PlusTimes)
                .batch_algorithm(kind)
                .options(SpMSpVOptions::with_threads(threads))
                .prepare::<f64>();
            group.bench_with_input(BenchmarkId::new(kind.label(), k), &x, |b, x| {
                b.iter(|| op.run_batch(x))
            });
        }
    }
    group.finish();

    let visited = make_visited(n);
    let mut masked_group = c.benchmark_group("batch_scaling_masked");
    masked_group.sample_size(10);
    masked_group.measurement_time(Duration::from_secs(2));
    for &k in &KS {
        let x = make_batch(n, k);
        let mut op = Mxv::over(&a)
            .semiring(&PlusTimes)
            .batch_algorithm(BatchAlgorithmKind::Bucket)
            .mask(&visited, MaskMode::Complement)
            .options(SpMSpVOptions::with_threads(threads))
            .prepare::<f64>();
        masked_group.bench_with_input(BenchmarkId::new("in-kernel-mask", k), &x, |b, x| {
            b.iter(|| op.run_batch(x))
        });
        let mut unmasked = Mxv::over(&a)
            .semiring(&PlusTimes)
            .batch_algorithm(BatchAlgorithmKind::Bucket)
            .options(SpMSpVOptions::with_threads(threads))
            .prepare::<f64>();
        let view = BatchMaskView::Shared(MaskView::new(&visited, MaskMode::Complement));
        masked_group.bench_with_input(BenchmarkId::new("post-filter", k), &x, |b, x| {
            b.iter(|| mask_filter_batch(&unmasked.run_batch(x), &view))
        });
    }
    masked_group.finish();

    // Per-lane amortization table (fused bucket vs naive, both pinned so
    // the adaptive default does not blur the comparison).
    eprintln!("\nper-lane time (total / k), frontier nnz = {FRONTIER_NNZ}, {threads} threads:");
    eprintln!("{:>4}  {:>18}  {:>18}  {:>8}", "k", "bucket-batch/lane", "naive/lane", "speedup");
    for &k in &KS {
        let x = make_batch(n, k);
        let mut fused = Mxv::over(&a)
            .semiring(&PlusTimes)
            .batch_algorithm(BatchAlgorithmKind::Bucket)
            .options(SpMSpVOptions::with_threads(threads))
            .prepare::<f64>();
        let mut naive = Mxv::over(&a)
            .semiring(&PlusTimes)
            .batch_algorithm(BatchAlgorithmKind::Naive)
            .options(SpMSpVOptions::with_threads(threads))
            .prepare::<f64>();
        let fused_lane = time_per_lane(k, || {
            fused.run_batch(&x);
        });
        let naive_lane = time_per_lane(k, || {
            naive.run_batch(&x);
        });
        eprintln!(
            "{:>4}  {:>16.1}us  {:>16.1}us  {:>7.2}x",
            k,
            fused_lane.as_secs_f64() * 1e6,
            naive_lane.as_secs_f64() * 1e6,
            naive_lane.as_secs_f64() / fused_lane.as_secs_f64().max(f64::EPSILON),
        );
    }

    // Masked per-lane table: the BFS shape frontier ∧ ¬visited, in-kernel
    // mask vs the pre-`Mxv` post-filter strategy.
    let view = BatchMaskView::Shared(MaskView::new(&visited, MaskMode::Complement));
    eprintln!("\nmasked per-lane time (¬visited over {} of {} vertices):", visited.count(), n);
    eprintln!("{:>4}  {:>18}  {:>18}  {:>8}", "k", "in-kernel/lane", "post-filter/lane", "saved");
    for &k in &KS {
        let x = make_batch(n, k);
        let mut masked = Mxv::over(&a)
            .semiring(&PlusTimes)
            .batch_algorithm(BatchAlgorithmKind::Bucket)
            .mask(&visited, MaskMode::Complement)
            .options(SpMSpVOptions::with_threads(threads))
            .prepare::<f64>();
        let mut unmasked = Mxv::over(&a)
            .semiring(&PlusTimes)
            .batch_algorithm(BatchAlgorithmKind::Bucket)
            .options(SpMSpVOptions::with_threads(threads))
            .prepare::<f64>();
        let in_kernel_lane = time_per_lane(k, || {
            masked.run_batch(&x);
        });
        let post_filter_lane = time_per_lane(k, || {
            mask_filter_batch(&unmasked.run_batch(&x), &view);
        });
        eprintln!(
            "{:>4}  {:>16.1}us  {:>16.1}us  {:>7.2}x",
            k,
            in_kernel_lane.as_secs_f64() * 1e6,
            post_filter_lane.as_secs_f64() * 1e6,
            post_filter_lane.as_secs_f64() / in_kernel_lane.as_secs_f64().max(f64::EPSILON),
        );
    }

    // Step-timing evidence that the in-kernel mask adds no extra pass: the
    // four phases of the bucket pipeline account for the whole masked call
    // (the mask probe is part of `merge`).
    let k = *KS.last().expect("KS non-empty");
    let x = make_batch(n, k);
    let mut kernel = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(threads));
    let (_, timings) = kernel.multiply_batch_masked_with_timings(&x, &PlusTimes, Some(&view));
    eprintln!("\nmasked step breakdown at k = {k} (mask cost lives inside `merge`):");
    eprintln!("  {timings}");
    eprintln!(
        "  phases sum to {:.3} ms — there is no post-filter step to account for.",
        timings.total().as_secs_f64() * 1e3
    );

    // Serving-engine coalescing table — the front-door workload the engine
    // exists for: k concurrent clients each ask for one small frontier
    // expansion (personalized-PageRank seeds / BFS probes over a hot vertex
    // set, SEED_NNZ nonzeros each). One Engine flush (queue drain, grouping,
    // fused batch, ticket demux — everything the serving layer pays) versus
    // what those clients would do without the engine: each prepares its own
    // single-vector `Mxv` descriptor over the shared matrix (a `PreparedMxv`
    // is `&mut self` — independent clients cannot share one) and calls
    // `run`. The engine must win in TOTAL time for k ≥ 4: coalescing plus
    // workspace pooling has to beat not-batching even after the
    // queue/ticket bookkeeping.
    eprintln!(
        "\nengine coalescing (one flush of k seed requests, {SEED_NNZ} nnz each, vs k \
         independent Mxv::run calls):"
    );
    eprintln!("{:>4}  {:>16}  {:>18}  {:>8}", "k", "engine flush", "k independent runs", "speedup");
    for &k in &KS {
        let lanes = make_seed_requests(n, k);
        let engine = Engine::over_with(
            &a,
            PlusTimes,
            EngineConfig::default().max_lanes(0).options(SpMSpVOptions::with_threads(threads)),
        );
        let engine_total = median_time(|| {
            let tickets: Vec<_> =
                lanes.iter().map(|x| engine.submit(MxvRequest::new(x.clone()))).collect();
            engine.flush();
            for t in tickets {
                let _ = t.try_take().expect("flush serves every request").expect("served");
            }
        });
        let single_total = median_time(|| {
            for x in &lanes {
                let mut single = Mxv::over(&a)
                    .semiring(&PlusTimes)
                    .options(SpMSpVOptions::with_threads(threads))
                    .prepare::<f64>();
                let _ = single.run(x);
            }
        });
        eprintln!(
            "{:>4}  {:>14.1}us  {:>16.1}us  {:>7.2}x",
            k,
            engine_total.as_secs_f64() * 1e6,
            single_total.as_secs_f64() * 1e6,
            single_total.as_secs_f64() / engine_total.as_secs_f64().max(f64::EPSILON),
        );
    }
    let stats_engine = Engine::over(&a, PlusTimes);
    let tickets: Vec<_> = make_seed_requests(n, 16)
        .iter()
        .map(|x| stats_engine.submit(MxvRequest::new(x.clone())))
        .collect();
    stats_engine.flush();
    drop(tickets);
    eprintln!("  telemetry of a 16-request flush: {}", stats_engine.stats());
}

/// Frontier size of one serving request — the personalized-PageRank /
/// BFS-probe shape: a handful of seed vertices, not a bulk frontier.
const SEED_NNZ: usize = 8;

/// `k` client frontiers of [`SEED_NNZ`] vertices drawn from a 256-vertex hot
/// set (zipfian-serving assumption: popular vertices recur across clients),
/// spread over the id space by a multiplicative hash.
fn make_seed_requests(n: usize, k: usize) -> Vec<SparseVec<f64>> {
    (0..k)
        .map(|l| {
            let mut idx: Vec<usize> = (0..SEED_NNZ)
                .map(|e| ((e * 2654435761 + l * 40503 + 977) % 256) * (n / 256) + 3)
                .collect();
            idx.sort_unstable();
            idx.dedup();
            SparseVec::from_pairs(n, idx.into_iter().map(|i| (i, 1.0)).collect())
                .expect("hot-set indices are in range")
        })
        .collect()
}

/// Median wall time of `f`: 7 samples for slow cells, 21 for sub-millisecond
/// ones (where scheduler jitter would otherwise dominate the medians). The
/// cell is classified by the first *post-warm-up* sample — the warm-up call
/// alone would overstate cells whose first call pays a large one-time
/// allocation.
fn median_time(mut f: impl FnMut()) -> Duration {
    f(); // warm-up (pays first-call allocation)
    let t = Instant::now();
    f();
    let first = t.elapsed();
    let reps = if first < Duration::from_millis(1) { 21 } else { 7 };
    let mut samples: Vec<Duration> = std::iter::once(first)
        .chain((1..reps).map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        }))
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median-of-7 wall time of `f`, divided by the lane count.
fn time_per_lane(k: usize, f: impl FnMut()) -> Duration {
    median_time(f) / k as u32
}

criterion_group!(benches, bench_batch_scaling);
criterion_main!(benches);

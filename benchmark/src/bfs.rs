//! `bfs_rmat` and `bfs_mesh`: single-source BFS through the `Mxv`
//! descriptor (`AlgorithmKind::Adaptive`, shared ¬visited mask,
//! `bfs_prepared`), the paper's headline experiment.

use std::time::{Duration, Instant};

use sparse_substrate::{CscMatrix, MaskBits, Select2ndMin, SparseVec, SparseVecBatch};
use spmspv::baselines::SequentialSpa;
use spmspv::ops::{Mxv, PreparedMxv};
use spmspv::{
    obs, AdaptiveSpMSpV, AlgorithmKind, BatchMaskView, MaskMode, MaskView, SpMSpV, SpMSpVBucket,
    SpMSpVBucketBatch, SpMSpVOptions, StepTimings, WorkStats,
};
use spmspv_graphs::{bfs, bfs_prepared};

use crate::check;
use crate::inputs::{matrix_info, pick_sources, ReferenceBfs, Rng, UNREACHED};
use crate::layers::counter_delta;
use crate::report::{measure_with_setups, repeat_for, Report, RunConfig};
use crate::spec::WorkloadKind;
use crate::stats::{mean, median, percentile, ratio, secs};
use crate::trace::{self, Tracer};

pub type Op<'a> = PreparedMxv<'a, f64, usize, Select2ndMin>;

pub fn prepare(a: &CscMatrix<f64>, options: SpMSpVOptions) -> Op<'_> {
    Mxv::over(a)
        .semiring(&Select2ndMin)
        .algorithm(AlgorithmKind::Adaptive)
        .masked(MaskMode::Complement)
        .options(options)
        .prepare()
}

/// What `measure` timed: every traversal, the SpMSpV time `bfs_prepared`
/// returned for it, and per sweep of the source set the mean traversal time.
#[derive(Default)]
struct Timed {
    traversals: Vec<Duration>,
    run_times: Vec<Duration>,
    sweep_means: Vec<Duration>,
}

impl Timed {
    fn extend(&mut self, more: Timed) {
        self.traversals.extend(more.traversals);
        self.run_times.extend(more.run_times);
        self.sweep_means.extend(more.sweep_means);
    }
}

/// Turns each of the traced run's alternating measurements takes.
const TURNS: usize = 6;

/// Times one checked sweep over the source set. A sweep's mean is the
/// sample behind `op_p50_ms`: sources differ in cost, and a sweep weighs
/// them all equally whatever the seed drew. Spans are recorded when the
/// tracer is on: `graphs.traversal`, with the SpMSpV time `bfs_prepared`
/// returns attached as its `ops.run` child.
fn sweep(
    a: &CscMatrix<f64>,
    op: &mut Op<'_>,
    refs: &[ReferenceBfs],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Timed {
    let mut timed = Timed::default();
    let mut total = Duration::ZERO;
    for reference in refs {
        // Two spans per traversal, so the span count is a fresh id.
        let span = tracer.root("graphs.traversal", tracer.spans().len() as u64);
        let t = Instant::now();
        let out = bfs_prepared(op, reference.source);
        let elapsed = t.elapsed();
        tracer.end(span);
        tracer.attach(span, "ops.run", out.spmspv_time);
        total += elapsed;
        timed.traversals.push(elapsed);
        timed.run_times.push(out.spmspv_time);
        report.checked(check::bfs_output(a, reference, &out.parents, &out.levels));
    }
    timed.sweep_means.push(total / refs.len() as u32);
    timed
}

/// Sweeps for `window` (at least once).
fn sweeps(
    a: &CscMatrix<f64>,
    op: &mut Op<'_>,
    refs: &[ReferenceBfs],
    window: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Timed {
    let mut timed = Timed::default();
    repeat_for(window, 1, |_| timed.extend(sweep(a, op, refs, tracer, report)));
    timed
}

pub fn run(kind: WorkloadKind, cfg: &RunConfig) -> Report {
    let sizes = kind.sizes(cfg.smoke);
    let a = sizes.graph.generate(cfg.seed);
    let refs = pick_sources(&a, &mut Rng::new(cfg.seed), sizes.sources, sizes.depth_band);
    let mut report = Report { info: matrix_info(&a), ..Report::default() };

    // Set-up: descriptor, workspaces, first-call allocation and (once per
    // process) the adaptive calibration probe, up to one warm-up traversal.
    let set_up = |report: &mut Report| {
        let t = Instant::now();
        let mut fresh = prepare(&a, SpMSpVOptions::default());
        let warm = bfs_prepared(&mut fresh, refs[0].source);
        let elapsed = t.elapsed();
        report.checked(check::bfs_output(&a, &refs[0], &warm.parents, &warm.levels));
        (fresh, elapsed)
    };

    if !cfg.traced {
        let mut timed = Timed::default();
        let mut off = Tracer::disabled();
        let setups = measure_with_setups(
            cfg.slice(1.0),
            2,
            sizes.setup_reps,
            &mut report,
            set_up,
            |op, report| timed.extend(sweep(&a, op, &refs, &mut off, report)),
        );
        let seconds: f64 = timed.traversals.iter().map(Duration::as_secs_f64).sum();
        report.set_end_to_end(&secs(&timed.sweep_means), timed.traversals.len(), seconds, &setups);
        return report;
    }
    let (mut op, _) = set_up(&mut report);

    // Traced run: the same loop with spans off, with spans on (the
    // difference is the tracing overhead) and on a single-thread descriptor
    // (the plain baseline), taking turns so that a slow spell of the host
    // falls on all three.
    let mut single = prepare(&a, SpMSpVOptions::with_threads(1));
    let warm = bfs_prepared(&mut single, refs[0].source);
    report.checked(check::bfs_output(&a, &refs[0], &warm.parents, &warm.levels));
    let mut tracer = Tracer::new(Instant::now(), true);
    let (mut plain, mut traced, mut one_thread) =
        (Timed::default(), Timed::default(), Timed::default());
    let (mut sequential, mut bucket) = (0.0, 0.0);
    let turn = cfg.slice(0.75 / (3 * TURNS) as f64);
    for _ in 0..TURNS {
        plain.extend(sweeps(&a, &mut op, &refs, turn, &mut Tracer::disabled(), &mut report));
        let before = obs::global().snapshot();
        traced.extend(sweeps(&a, &mut op, &refs, turn, &mut tracer, &mut report));
        let after = obs::global().snapshot();
        sequential += counter_delta(&after, &before, "adaptive.single.sequential");
        bucket += counter_delta(&after, &before, "adaptive.single.bucket");
        one_thread.extend(sweeps(
            &a,
            &mut single,
            &refs,
            turn,
            &mut Tracer::disabled(),
            &mut report,
        ));
    }
    drop(single);
    let plain = secs(&plain.sweep_means);
    let run_times = secs(&traced.run_times);
    let traversals = secs(&traced.traversals);

    let totals = trace::totals(tracer.spans());
    let traversal = totals["graphs.traversal"];
    report.set("graphs.bookkeeping_share", ratio(traversal.self_s(), traversal.total_s()));
    report.set("graphs.traversal_p90_s", percentile(&traversals, 90.0));
    report.samples.insert("graphs.traversal_p90_s", traversals.len() as u64);
    report.set("ops.run_s", mean(&run_times));
    report.set("obs.trace_overhead", ratio(median(&secs(&traced.sweep_means)), median(&plain)));
    report.set("adaptive.sequential_share", ratio(sequential, sequential + bucket));
    report.set("executor.threads", cfg.threads as f64);
    report.set("executor.speedup", ratio(median(&secs(&one_thread.sweep_means)), median(&plain)));

    replay_kernels(&a, &refs, mean(&run_times), &mut report);
    baselines(&a, &refs[0], &mut report);

    report.spans = tracer.into_spans();
    report
}

/// Rebuilds each level's `(frontier, ¬visited mask)` pair of the traversal
/// from `reference` out of its levels, exactly as `bfs_prepared` presents
/// them to `PreparedMxv::run`, and hands each to `visit`.
fn for_each_level(
    reference: &ReferenceBfs,
    mut visit: impl FnMut(&SparseVec<usize>, MaskView<'_>),
) {
    let n = reference.levels.len();
    let mut by_level: Vec<Vec<(usize, usize)>> = vec![Vec::new(); reference.depth as usize + 1];
    for (v, &level) in reference.levels.iter().enumerate() {
        if level != UNREACHED {
            by_level[level as usize].push((v, v));
        }
    }
    let mut visited = MaskBits::new(n);
    for members in by_level {
        visited.extend(members.iter().map(|&(v, _)| v));
        let frontier = SparseVec::from_pairs(n, members).expect("vertices are in range");
        visit(&frontier, MaskView::new(&visited, MaskMode::Complement));
    }
}

/// Replays one sweep's recorded level inputs through the kernels below the
/// descriptor, one kernel per pass so none runs in another's cache shadow.
/// The bucket kernel's `*_with_timings` entry point gives the paper's Fig. 6
/// step shares; the kernel `Adaptive` picks for a level, timed alone, is
/// what `ops.run` is compared against to get the dispatch overhead; the
/// batched bucket kernel at k = 1 against the single-vector one is the
/// number the "one kernel hierarchy" roadmap item is gated on. Times are
/// means per traversal.
fn replay_kernels(a: &CscMatrix<f64>, refs: &[ReferenceBfs], run_s: f64, report: &mut Report) {
    let options = SpMSpVOptions::default;
    let semiring = &Select2ndMin;

    // Every kernel replays the sweep twice and only the second is kept: the
    // first grows and pages in its buckets and accumulators, as the
    // descriptor's are by the time `ops.run` is measured.
    let mut bucket = SpMSpVBucket::<f64, usize, Select2ndMin>::new(a, options());
    let mut steps = StepTimings::default();
    let mut bucket_totals = Vec::new();
    let (mut flops, mut moved_bytes, mut bucket_wall) = (0u64, 0u64, Duration::ZERO);
    for _ in 0..2 {
        steps = StepTimings::default();
        bucket_totals.clear();
        (flops, moved_bytes, bucket_wall) = (0, 0, Duration::ZERO);
        for reference in refs {
            for_each_level(reference, |frontier, mask| {
                let t = Instant::now();
                let (y, timings) =
                    bucket.multiply_masked_with_timings(frontier, semiring, Some(mask));
                bucket_wall += t.elapsed();
                steps += timings;
                bucket_totals.push(timings.total());
                let work = WorkStats::lower_bound(a, frontier) as u64;
                flops += work;
                // Computed, not measured: the selected columns' row ids and
                // values, the frontier and the output, each read or written
                // once.
                moved_bytes += 16 * (work + frontier.nnz() as u64 + y.nnz() as u64);
            });
        }
    }
    drop(bucket);

    let mut adaptive = AdaptiveSpMSpV::<f64, usize, Select2ndMin>::new(a, options());
    let mut picked_sequential = Vec::with_capacity(bucket_totals.len());
    for reference in refs {
        for_each_level(reference, |frontier, mask| {
            adaptive.multiply_masked(frontier, semiring, Some(mask));
            picked_sequential.push(adaptive.last_choice() == Some(AlgorithmKind::Sequential));
        });
    }
    drop(adaptive);

    let mut sequential = SequentialSpa::<f64, usize>::new(a, options());
    let mut chosen_kernel = Duration::ZERO;
    for _ in 0..2 {
        let mut level = 0usize;
        chosen_kernel = Duration::ZERO;
        for reference in refs {
            for_each_level(reference, |frontier, mask| {
                chosen_kernel += if picked_sequential[level] {
                    let t = Instant::now();
                    std::hint::black_box(SpMSpV::<f64, usize, Select2ndMin>::multiply_masked(
                        &mut sequential,
                        frontier,
                        semiring,
                        Some(mask),
                    ));
                    t.elapsed()
                } else {
                    bucket_totals[level]
                };
                level += 1;
            });
        }
    }
    drop(sequential);

    let mut batched = SpMSpVBucketBatch::<f64, usize, Select2ndMin>::new(a, options());
    let mut batched_wall = Duration::ZERO;
    for _ in 0..2 {
        batched_wall = Duration::ZERO;
        for reference in refs {
            for_each_level(reference, |frontier, mask| {
                let lane = SparseVecBatch::from_single(frontier);
                let t = Instant::now();
                std::hint::black_box(batched.multiply_batch_masked_with_timings(
                    &lane,
                    semiring,
                    Some(&BatchMaskView::Shared(mask)),
                ));
                batched_wall += t.elapsed();
            });
        }
    }

    let sweeps = refs.len() as f64;
    let levels = bucket_totals.len() as f64;
    let [estimate, bucketing, merge, output] = steps.fractions();
    report.set("graphs.levels", levels);
    report.set("bucket.estimate_share", estimate);
    report.set("bucket.bucketing_share", bucketing);
    report.set("bucket.merge_share", merge);
    report.set("bucket.output_share", output);
    report.set("bucket.call_s", bucket_wall.as_secs_f64() / sweeps);
    report.set("bucket.flops", flops as f64);
    report.set("bucket.mflops_per_s", ratio(flops as f64 * 1e-6, bucket_wall.as_secs_f64()));
    report.set("bucket.computed_bytes", moved_bytes as f64);
    report.set(
        "ops.dispatch_us_per_call",
        (run_s - chosen_kernel.as_secs_f64() / sweeps) * 1e6 / (levels / sweeps),
    );
    report
        .set("batch.k1_over_single", ratio(batched_wall.as_secs_f64(), bucket_wall.as_secs_f64()));
}

/// The paper's Fig. 4 comparison from one source: each baseline's BFS
/// SpMSpV time over the bucket algorithm's (> 1 means bucket wins).
fn baselines(a: &CscMatrix<f64>, reference: &ReferenceBfs, report: &mut Report) {
    let mut bucket = 0.0;
    for (name, kind) in [
        ("", AlgorithmKind::Bucket),
        ("baselines.combblas_spa_ratio", AlgorithmKind::CombBlasSpa),
        ("baselines.combblas_heap_ratio", AlgorithmKind::CombBlasHeap),
        ("baselines.graphmat_ratio", AlgorithmKind::GraphMat),
        ("baselines.sort_ratio", AlgorithmKind::SortBased),
    ] {
        let out = bfs(a, reference.source, kind, SpMSpVOptions::default());
        report.checked(check::bfs_output(a, reference, &out.parents, &out.levels));
        if kind == AlgorithmKind::Bucket {
            bucket = out.spmspv_time.as_secs_f64();
        } else {
            report.set(name, ratio(out.spmspv_time.as_secs_f64(), bucket));
        }
    }
}

//! Observability demo: one engine under mixed traffic, one merged report.
//!
//! Drives a serving [`Engine`] (with a few masked requests, a second engine
//! pinned to the bucket kernel, and a multi-source BFS on the side, so both
//! the per-engine and the process-global registries have something to
//! say), then:
//!
//! 1. prints the human dashboard — counters, gauges, latency histograms,
//!    and the flush trace ring — from the **merged** snapshot of both
//!    engines' `obs()` and [`spmspv::obs::global()`];
//! 2. writes the machine-readable JSON snapshot to `OBS_EXAMPLE_OUT`
//!    (default `obs_snapshot.json`).
//!
//! Env knobs:
//!
//! * `OBS_DISABLED=1` — build the engine with [`ObsConfig::disabled`]:
//!   counters keep running (the stats stay exact) but histograms and traces
//!   stay empty, demonstrating the off switch;
//! * `OBS_EXAMPLE_OUT` — where the JSON snapshot goes.
//!
//! Run with: `cargo run --release --example observability`
//!
//! [`Engine`]: spmspv::engine::Engine

use std::time::Duration;

use sparse_substrate::gen::{random_sparse_vec, rmat, RmatParams};
use sparse_substrate::{MaskBits, PlusTimes, SparseVec};
use spmspv::engine::{Engine, EngineConfig, MxvRequest};
use spmspv::{obs, BatchAlgorithmKind, MaskMode, ObsConfig, SpMSpVOptions};
use spmspv_graphs::multi_bfs;

fn main() {
    let disabled = std::env::var_os("OBS_DISABLED").is_some();
    let obs_config = if disabled { ObsConfig::disabled() } else { ObsConfig::default() };
    if disabled {
        // The engine gets its config below; the process-global registry
        // (kernel/adaptive/executor metrics) has its own runtime switch.
        obs::global().set_enabled(false);
    }
    println!(
        "observability demo: collection {}",
        if disabled { "DISABLED (counters only)" } else { "enabled" }
    );

    let a = rmat(10, 12, RmatParams::graph500(), 3);
    let n = a.ncols();
    let nrows = a.nrows();
    println!("graph: {n} vertices, {} stored entries\n", a.nnz());

    let threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    let config = EngineConfig::default()
        .max_lanes(16)
        .options(SpMSpVOptions::with_threads(threads))
        .obs(obs_config);
    let engine = Engine::load_with(a.clone(), PlusTimes, config.clone());
    // An engine runs one kernel family; pinning one takes an engine of its own.
    let bucket =
        Engine::load_with(a.clone(), PlusTimes, config.batch_algorithm(BatchAlgorithmKind::Bucket));

    // Three rounds of mixed traffic: unmasked adaptive requests, a few
    // masked ones, and a couple for the bucket engine — enough variety that
    // the choice counters, queue-wait histogram, and trace ring all light
    // up.
    for round in 0..3usize {
        let mut tickets = Vec::new();
        for i in 0..10usize {
            let x: SparseVec<f64> =
                random_sparse_vec(n, 8 + (round * 10 + i) % 40, (round * 1009 + i) as u64);
            let mut req = MxvRequest::new(x);
            if i % 3 == 0 {
                let bits = MaskBits::from_indices(nrows, (i..nrows).step_by(2 + i % 3));
                req = req.mask(bits, MaskMode::Complement);
            }
            let target = if i % 4 == 0 { &bucket } else { &engine };
            tickets.push(target.submit(req));
        }
        let (outcome, pinned) = (engine.flush(), bucket.flush());
        println!(
            "flush {round}: {} lanes in {} fused batches",
            outcome.lanes + pinned.lanes,
            outcome.batches + pinned.batches
        );
        for t in tickets {
            t.wait_timeout(Duration::from_secs(10)).expect("demo request served");
        }
    }

    // A multi-source BFS on the same graph exercises the layers below the
    // engine (adaptive dispatch, batched kernels, executor), which report
    // into the process-global registry.
    let bfs = multi_bfs(&a, &[0, 1, 2, 3], SpMSpVOptions::with_threads(threads));
    println!("multi-BFS: {} levels, visited {:?}\n", bfs.iterations, bfs.num_visited);

    // One merged report: both engines' registries plus the process-global
    // one.
    let mut snapshot = engine.obs().snapshot();
    snapshot.merge(&bucket.obs().snapshot());
    snapshot.merge(&obs::global().snapshot());
    println!("=== merged dashboard ===\n{snapshot}");

    let requests = engine.stats().requests + bucket.stats().requests;
    assert_eq!(requests, 30, "EngineStats counters are exact with obs on or off");
    let queue_wait = snapshot.histogram("engine.queue.wait").expect("engine histogram registered");
    if disabled {
        assert_eq!(queue_wait.count, 0, "disabled: no histogram samples");
        assert!(snapshot.events.is_empty(), "disabled: no trace events");
        if let Some(merge) = snapshot.histogram("batch.merge") {
            assert_eq!(merge.count, 0, "disabled: the global registry is quiet too");
        }
    } else {
        assert_eq!(queue_wait.count, 30, "one queue-wait sample per request");
        assert!(!snapshot.events.is_empty(), "enabled: the trace ring narrates the flushes");
    }

    let out = std::env::var("OBS_EXAMPLE_OUT").unwrap_or_else(|_| "obs_snapshot.json".to_string());
    std::fs::write(&out, snapshot.to_json().render() + "\n").expect("write JSON snapshot");
    println!("wrote {out}");
}

//! The benchmark's fixed vocabulary: workloads, end-to-end metrics and
//! per-layer metrics, each defined once here. `../BENCHMARK.json` repeats
//! the names, units, directions and bounds in the shape the driver reads; a
//! unit test keeps the two in step. What `BENCHMARK.json` has no key for —
//! generator parameters, and which end-to-end metric each per-layer metric
//! is expected to move — lives only here and is copied into every results
//! file.

use crate::inputs::GraphSpec;
use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median wall time of one operation: a complete traversal (bfs_*, mbfs_*) or one \
               request from submit to Ticket::wait returning (serve_mixed)",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "operations completed per second of measured time: traversals over the sum of \
               their timed regions, or requests over the serving window's wall time",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "inputs in memory to the front door having served its warm-up (one traversal, or \
               200 requests); median over the run's build-and-tear-down repetitions",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count must repeat exactly for a seed.
    pub count: bool,
    /// The end-to-end metric and workload this metric is expected to move.
    pub moves: &'static str,
}

const fn time(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, count: false, moves }
}

const fn gain(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher, count: false, moves }
}

const fn count(name: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit: "count", better: Better::Lower, count: true, moves }
}

const GRAPHS: &str = "op_p50_ms on bfs_mesh; little elsewhere";
const OPS: &str =
    "op_p50_ms on bfs_mesh (dispatch) and mbfs_engine (regret); op_p50_ms on serve_mixed";
const BUCKET: &str = "op_p50_ms on bfs_rmat; no change predicted on bfs_mesh";
const BASELINES: &str = "moves nothing: the paper's Fig. 4 claim, the reproduction check";
const BATCH: &str =
    "op_p50_ms on mbfs_engine (and through it mbfs_shard, mbfs_tcp); op_p50_ms on serve_mixed";
const EXECUTOR: &str = "op_p50_ms on bfs_rmat (should exceed 1) and bfs_mesh (currently below 1)";
const ENGINE: &str =
    "op_p50_ms and ops_per_s on serve_mixed; predicted < 5 % of op_p50_ms on mbfs_engine";
const SHARD: &str = "op_p50_ms on mbfs_shard and mbfs_tcp; none on mbfs_engine";
const NET: &str = "op_p50_ms and setup_s on mbfs_tcp only";
const SPARSE: &str = "setup_s on mbfs_shard and mbfs_tcp";
const OBS: &str = "op_p50_ms everywhere (the ROADMAP's <= 1 % budget)";

/// Layers are this repo's modules. A metric a workload's traced run does not
/// exercise is reported as 0.
pub const PER_LAYER: [PerLayer; 78] = [
    count("graphs.levels", GRAPHS),
    time("graphs.bookkeeping_share", "share", GRAPHS),
    time("graphs.traversal_p90_s", "s", GRAPHS),
    time("ops.run_s", "s", OPS),
    time("ops.dispatch_us_per_call", "us", OPS),
    time("adaptive.sequential_share", "share", OPS),
    time("adaptive.choice.bucket.dense", "lanes", OPS),
    time("adaptive.choice.bucket.lanemajor", "lanes", OPS),
    time("adaptive.choice.bucket.hashed", "lanes", OPS),
    time("adaptive.choice.naive.dense", "lanes", OPS),
    time("adaptive.choice.naive.lanemajor", "lanes", OPS),
    time("adaptive.choice.naive.hashed", "lanes", OPS),
    time("adaptive.choice.rowsplit.dense", "lanes", OPS),
    time("adaptive.choice.rowsplit.lanemajor", "lanes", OPS),
    time("adaptive.choice.rowsplit.hashed", "lanes", OPS),
    time("adaptive.regret", "ratio", OPS),
    time("bucket.estimate_share", "share", BUCKET),
    time("bucket.bucketing_share", "share", BUCKET),
    time("bucket.merge_share", "share", BUCKET),
    time("bucket.output_share", "share", BUCKET),
    time("bucket.call_s", "s", BUCKET),
    count("bucket.flops", BUCKET),
    gain("bucket.mflops_per_s", "Mflop/s", BUCKET),
    count("bucket.computed_bytes", BUCKET),
    gain("baselines.combblas_spa_ratio", "ratio", BASELINES),
    gain("baselines.combblas_heap_ratio", "ratio", BASELINES),
    gain("baselines.graphmat_ratio", "ratio", BASELINES),
    gain("baselines.sort_ratio", "ratio", BASELINES),
    time("batch.estimate_share", "share", BATCH),
    time("batch.bucketing_share", "share", BATCH),
    time("batch.merge_share", "share", BATCH),
    time("batch.output_share", "share", BATCH),
    time("batch.backend.dense", "merges", BATCH),
    time("batch.backend.lanemajor", "merges", BATCH),
    time("batch.backend.hashed", "merges", BATCH),
    gain("batch.lanes_per_flush", "lanes", BATCH),
    gain("batch.amortization", "ratio", BATCH),
    time("batch.k1_over_single", "ratio", BATCH),
    gain("executor.threads", "threads", EXECUTOR),
    gain("executor.speedup", "ratio", EXECUTOR),
    time("engine.submit_us_per_req", "us", ENGINE),
    time("engine.flush.assemble_share", "share", ENGINE),
    gain("engine.flush.execute_share", "share", ENGINE),
    time("engine.flush.demux_share", "share", ENGINE),
    time("engine.flush.recover_s", "s", ENGINE),
    time("engine.flush.unattributed_share", "share", ENGINE),
    time("engine.wait_us_per_req", "us", ENGINE),
    time("engine.queue_wait_p50_us", "us", ENGINE),
    count("engine.fused_batches", ENGINE),
    gain("engine.lanes_per_batch", "lanes", ENGINE),
    time("engine.request_p95_ms", "ms", ENGINE),
    time("engine.request_p99_ms", "ms", ENGINE),
    time("shard.setup_s", "s", SHARD),
    time("shard.scatter_us_per_req", "us", SHARD),
    gain("shard.execute_share", "share", SHARD),
    time("shard.merge_share", "share", SHARD),
    time("shard.fanout_mean", "shards", SHARD),
    time("shard.imbalance", "ratio", SHARD),
    time("shard.over_engine", "ratio", SHARD),
    time("net.connect_s", "s", NET),
    count("net.bytes_out_per_traversal", NET),
    count("net.bytes_in_per_traversal", NET),
    time("net.reply_amplification", "ratio", NET),
    count("net.exchanges", NET),
    time("net.encode_s", "s", NET),
    time("net.decode_s", "s", NET),
    time("net.rpc_s", "s", NET),
    time("net.rpc_floor_us", "us", NET),
    time("net.host_execute_s", "s", NET),
    time("net.over_shard_s", "s", NET),
    gain("net.codec_encode_mb_per_s", "MB/s", NET),
    gain("net.codec_decode_mb_per_s", "MB/s", NET),
    count("net.reconnects", NET),
    time("sparse.column_split_s", "s", SPARSE),
    time("sparse.fingerprint_s", "s", SPARSE),
    time("obs.overhead_ratio", "ratio", OBS),
    time("obs.trace_overhead", "ratio", OBS),
    time("obs.sum_check_gap", "share", OBS),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    BfsRmat,
    BfsMesh,
    MbfsEngine,
    MbfsShard,
    MbfsTcp,
    ServeMixed,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: WorkloadKind,
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        kind: WorkloadKind::BfsRmat,
        name: "bfs_rmat",
        why: "low-diameter BFS: a few dense frontiers, so the single-vector kernel's bucketing \
              and merge do almost all the work and per-call overhead almost none",
    },
    Workload {
        kind: WorkloadKind::BfsMesh,
        name: "bfs_mesh",
        why: "high-diameter BFS: ~500 tiny frontiers, so descriptor dispatch, adaptive, the \
              pool hand-off and graphs bookkeeping do most of the work, the kernel little",
    },
    Workload {
        kind: WorkloadKind::MbfsEngine,
        name: "mbfs_engine",
        why: "32-source lock-step BFS through one local Engine: batched kernels, SPA backends \
              and batched adaptive dispatch do the work; shard and net none",
    },
    Workload {
        kind: WorkloadKind::MbfsShard,
        name: "mbfs_shard",
        why: "the same traversal through in-process shards: adds scatter and the merge of \
              full-height partials and nothing else",
    },
    Workload {
        kind: WorkloadKind::MbfsTcp,
        name: "mbfs_tcp",
        why: "the same again through ShardHosts over localhost TCP: adds codec, sockets and \
              host-side re-anchoring and nothing else",
    },
    Workload {
        kind: WorkloadKind::ServeMixed,
        name: "serve_mixed",
        why: "closed-loop clients on Engine::serve with numeric requests: linger-driven narrow \
              batches, the opposite use of engine and batch from mbfs_engine",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Generator parameters of one workload at full or smoke size.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub graph: GraphSpec,
    /// BFS sources per sweep (bfs_*) or per traversal (mbfs_*).
    pub sources: usize,
    /// Admissible reference-BFS depth of a source, when the graph's depth
    /// varies enough with the source to change the work.
    pub depth_band: Option<(u32, u32)>,
    /// serve_mixed: request pool size and frontier nnz range.
    pub pool: usize,
    pub nnz: (usize, usize),
    pub warmup_requests: usize,
    /// Build-and-tear-down repetitions behind `setup_s`.
    pub setup_reps: usize,
}

impl WorkloadKind {
    pub fn sizes(self, smoke: bool) -> Sizes {
        let rmat = |scale, edge_factor| GraphSpec::Rmat { scale, edge_factor };
        let base = Sizes {
            graph: rmat(16, 16),
            sources: 32,
            depth_band: None,
            pool: 0,
            nnz: (0, 0),
            warmup_requests: 0,
            setup_reps: 3,
        };
        // On the triangular mesh a source's depth is rows - 1 + |r - c|; the
        // band keeps sources within 5 % of the shallowest.
        let mesh = |side: usize| Sizes {
            graph: GraphSpec::Mesh { rows: side, cols: side },
            sources: 8,
            depth_band: Some((side as u32 - 1, (side as u32 - 1) * 21 / 20)),
            setup_reps: 25,
            ..base
        };
        match (self, smoke) {
            (WorkloadKind::BfsRmat, false) => {
                Sizes { graph: rmat(17, 16), sources: 8, setup_reps: 25, ..base }
            }
            (WorkloadKind::BfsRmat, true) => {
                Sizes { graph: rmat(12, 16), sources: 8, setup_reps: 25, ..base }
            }
            (WorkloadKind::BfsMesh, false) => mesh(500),
            (WorkloadKind::BfsMesh, true) => mesh(60),
            (WorkloadKind::ServeMixed, false) => {
                Sizes { pool: 2000, nnz: (16, 8192), warmup_requests: 200, setup_reps: 11, ..base }
            }
            (WorkloadKind::ServeMixed, true) => Sizes {
                graph: rmat(11, 8),
                pool: 200,
                nnz: (16, 512),
                warmup_requests: 50,
                setup_reps: 11,
                ..base
            },
            (_, false) => base,
            (_, true) => Sizes { graph: rmat(11, 16), sources: 8, ..base },
        }
    }
}

impl Sizes {
    pub fn to_json(self) -> Json {
        let int = |v: usize| Json::Int(v as i64);
        let mut pairs =
            vec![("graph", Json::str(self.graph.describe())), ("setup_reps", int(self.setup_reps))];
        if self.pool == 0 {
            pairs.push(("sources", int(self.sources)));
            pairs.push(("source_rule", Json::str("reference BFS reaches >= n/4 vertices")));
            if let Some((lo, hi)) = self.depth_band {
                pairs.push((
                    "source_depth_band",
                    Json::Arr(vec![int(lo as usize), int(hi as usize)]),
                ));
            }
        } else {
            pairs.push(("request_pool", int(self.pool)));
            pairs.push((
                "frontier_nnz_log_uniform",
                Json::Arr(vec![int(self.nnz.0), int(self.nnz.1)]),
            ));
            pairs.push(("masked_share", Json::str("1 in 3, shared half-density Complement mask")));
            pairs.push(("burst", Json::str("1-4 requests per round, closed loop")));
            pairs.push(("warmup_requests", int(self.warmup_requests)));
        }
        Json::obj(pairs)
    }
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{as_arr, as_f64, as_str, get, parse};

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().all(ok)
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "bad name in {names:?}");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }

    /// `BENCHMARK.json` is what the driver reads; it must say what this
    /// table says.
    #[test]
    fn benchmark_json_matches_this_table() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse(text).expect("BENCHMARK.json parses");
        let field = |v: &Json, k: &str| get(v, k).and_then(as_str).map(str::to_string);

        let workloads = as_arr(get(&doc, "workloads").expect("workloads")).expect("array");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS.iter()) {
            assert_eq!(field(j, "name").as_deref(), Some(w.name));
            assert_eq!(field(j, "why").as_deref(), Some(w.why), "why of {}", w.name);
        }

        let e2e = as_arr(get(&doc, "end_to_end").expect("end_to_end")).expect("array");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(field(j, "name").as_deref(), Some(m.name));
            assert_eq!(field(j, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(j, "better").as_deref(), Some(m.better.label()));
            assert_eq!(get(j, "bound").and_then(as_f64), Some(m.bound), "bound of {}", m.name);
        }

        let layers = as_arr(get(&doc, "per_layer").expect("per_layer")).expect("array");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER.iter()) {
            assert_eq!(field(j, "name").as_deref(), Some(m.name));
            assert_eq!(field(j, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(j, "better").as_deref(), Some(m.better.label()));
        }
    }

    #[test]
    fn smoke_sizes_are_smaller_than_full_sizes() {
        for w in WORKLOADS {
            let (full, smoke) = (w.kind.sizes(false), w.kind.sizes(true));
            assert_ne!(full.graph, smoke.graph, "{}", w.name);
        }
    }
}

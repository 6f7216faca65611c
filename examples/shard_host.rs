//! `shard_host`: a standalone shard daemon for the remote serving fleet.
//!
//! Loads one shard's column slice of a deterministic R-MAT graph into a
//! [`ShardHost`] and serves the wire protocol until killed. Start one per
//! shard (same `--scale`/`--seed`/`--shards` on every host so the fleet
//! agrees on the graph and the plan), then point a router at the printed
//! addresses with [`ShardedEngine::connect`] — or run
//! `cargo run --example remote_shards`, which does all of this in one go.
//!
//! ```text
//! cargo run --release --example shard_host -- \
//!     --shard 0 --shards 3 [--listen 127.0.0.1:7070] [--scale 12] \
//!     [--edge-factor 12] [--seed 7] [--semiring plus-times|min-plus] \
//!     [--max-lanes 16]
//! ```
//!
//! Flags:
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--shard <s>` | required | this host's shard index in `0..shards` |
//! | `--shards <k>` | required | fleet size; fixes the balanced column plan |
//! | `--listen <addr>` | `127.0.0.1:0` | bind address (port 0 = ephemeral) |
//! | `--scale <p>` | `12` | R-MAT scale (`2^p` vertices) |
//! | `--edge-factor <f>` | `12` | R-MAT edges per vertex |
//! | `--seed <s>` | `7` | R-MAT seed |
//! | `--semiring <name>` | `plus-times` | `plus-times` or `min-plus` |
//! | `--max-lanes <l>` | `16` | engine lane budget (`0` = unbounded) |
//!
//! The bound address is printed as `LISTENING <addr>` once the engine is
//! loaded, so wrappers can harvest ephemeral ports. The daemon answers the
//! discovery handshake with its shard id, column range, and the slice's
//! structural fingerprint, so a router dialing a host started with the
//! wrong `--shard`/`--scale`/`--seed` rejects it at dial time instead of
//! merging wrong partials. It serves until the process is killed; routers
//! that lose it mid-flush fail over to a replica if one exists, otherwise
//! fail exactly the tickets routed here and re-dial once a replacement
//! binds the same port. Start several hosts with the same `--shard` and
//! hand [`ShardedEngine::connect_replicated`] one address group per shard
//! to get failover.
//!
//! [`ShardedEngine::connect_replicated`]: spmspv::shard::ShardedEngine::connect_replicated
//!
//! [`ShardHost`]: spmspv::net::ShardHost
//! [`ShardedEngine::connect`]: spmspv::shard::ShardedEngine::connect

use std::io::Write;

use sparse_substrate::gen::{rmat, RmatParams};
use sparse_substrate::{MinPlus, PlusTimes, Scalar, Semiring};
use spmspv::engine::EngineConfig;
use spmspv::net::{ShardHost, WireScalar};
use spmspv::shard::ShardPlan;

struct Args {
    listen: String,
    shard: usize,
    shards: usize,
    scale: u32,
    edge_factor: usize,
    seed: u64,
    semiring: String,
    max_lanes: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: shard_host --shard <s> --shards <k> [--listen ADDR] [--scale P] \
         [--edge-factor F] [--seed S] [--semiring plus-times|min-plus] [--max-lanes L]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: "127.0.0.1:0".into(),
        shard: usize::MAX,
        shards: 0,
        scale: 12,
        edge_factor: 12,
        seed: 7,
        semiring: "plus-times".into(),
        max_lanes: 16,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--listen" => args.listen = value(),
            "--shard" => args.shard = value().parse().unwrap_or_else(|_| usage()),
            "--shards" => args.shards = value().parse().unwrap_or_else(|_| usage()),
            "--scale" => args.scale = value().parse().unwrap_or_else(|_| usage()),
            "--edge-factor" => args.edge_factor = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--semiring" => args.semiring = value(),
            "--max-lanes" => args.max_lanes = value().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if args.shard == usize::MAX || args.shards == 0 || args.shard >= args.shards {
        usage()
    }
    args
}

fn serve<S>(args: &Args, semiring: S)
where
    S: Semiring<f64, f64> + Clone + 'static,
    S::Output: WireScalar + Scalar,
{
    let a = rmat(args.scale, args.edge_factor, RmatParams::graph500(), args.seed);
    let plan = ShardPlan::balanced(&a, args.shards);
    if args.shard >= plan.num_shards() {
        eprintln!(
            "shard {} collapsed out of the plan ({} effective shards on this graph)",
            args.shard,
            plan.num_shards()
        );
        std::process::exit(1);
    }
    let part = a.column_split(plan.bounds()).swap_remove(args.shard);
    println!(
        "shard {}/{}: columns {:?} of {} ({} nnz), semiring {}",
        args.shard,
        plan.num_shards(),
        plan.range(args.shard),
        a.ncols(),
        part.nnz(),
        args.semiring,
    );
    let host = ShardHost::bind(
        &args.listen as &str,
        args.shard,
        plan.range(args.shard),
        part,
        semiring,
        EngineConfig::default().max_lanes(args.max_lanes),
    )
    .expect("bind the listen address");
    println!("LISTENING {}", host.local_addr().expect("bound listener has an address"));
    std::io::stdout().flush().expect("announce the address");
    host.run();
}

fn main() {
    let args = parse_args();
    match args.semiring.as_str() {
        "plus-times" => serve(&args, PlusTimes),
        "min-plus" => serve(&args, MinPlus),
        other => {
            eprintln!("unknown semiring {other:?} (expected plus-times or min-plus)");
            usage()
        }
    }
}

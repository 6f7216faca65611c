//! One scripted ticket lifecycle, run against every front door: a local
//! [`Engine`], an in-process [`ShardedEngine`] and a [`ShardedEngine`] over
//! TCP to [`ShardHost`] daemons. The script cancels a ticket before the
//! flush, closes one session and drops another, submits with an already
//! expired deadline, lets a bounded wait time out on a live ticket, flushes,
//! and then drops the front with one request still queued. Every front must
//! give the same terminal states and count the same `requests`, `retired`
//! and `timeouts`, in its flush outcome and in its `<prefix>.*` counters.

use std::time::{Duration, Instant};

use sparse_substrate::{CooMatrix, CscMatrix, PlusTimes, SparseVec};
use spmspv::engine::{Engine, EngineConfig, EngineError, MxvRequest};
use spmspv::net::{ShardHost, TcpConfig};
use spmspv::obs::ObsConfig;
use spmspv::shard::{ShardPlan, ShardedEngine};

/// What one front did with the script.
#[derive(Debug, PartialEq)]
struct Lifecycle {
    /// Terminal state of each scripted ticket, in script order.
    states: Vec<Result<SparseVec<f64>, EngineError>>,
    /// `(requests, retired, timeouts)` of the one flush.
    outcome: (usize, usize, usize),
    /// `<prefix>.requests` and `<prefix>.retired` just before the drop.
    counters: (Option<u64>, Option<u64>),
}

/// Runs the script against `$front` (consumed: the script ends by dropping
/// it), whose metrics live under `$prefix`.
macro_rules! script {
    ($front:expr, $prefix:literal) => {{
        let front = $front;
        let x = frontier();
        let closing = front.session();
        let dropping = front.session();
        let client = front.session();

        let cancelled = client.submit(MxvRequest::new(x.clone()));
        assert!(cancelled.cancel(), "a queued ticket cancels");
        let closed = closing.submit(MxvRequest::new(x.clone()));
        assert_eq!(closing.close(), 1, "close retires the session's one request");
        let dropped = dropping.submit(MxvRequest::new(x.clone()));
        drop(dropping);
        let past = Instant::now() - Duration::from_millis(1);
        let expired = client.submit(MxvRequest::new(x.clone()).deadline(past));
        let live = client.submit(MxvRequest::new(x.clone()));
        assert_eq!(live.wait_timeout(Duration::from_millis(5)), Err(EngineError::WaitTimeout));
        assert!(live.is_pending(), "a timed-out wait leaves the ticket live");
        assert_eq!(front.pending(), 3, "close and drop took their requests off the queue");

        let o = front.flush();
        let outcome = (o.requests, o.retired, o.timeouts);
        drop(client);
        let orphan = front.submit(MxvRequest::new(x));
        assert_eq!(front.pending(), 1);
        let snap = front.obs().snapshot();
        let counters = (
            snap.counter(concat!($prefix, ".requests")),
            snap.counter(concat!($prefix, ".retired")),
        );
        drop(front);
        let states = [cancelled, closed, dropped, expired, live, orphan]
            .iter()
            .map(|t| t.try_take().expect("every ticket resolves"))
            .collect();
        Lifecycle { states, outcome, counters }
    }};
}

/// Twelve columns of small-integer entries, so every front's answer is
/// bitwise the same.
fn matrix() -> CscMatrix<f64> {
    let n = 12;
    let mut coo = CooMatrix::new(n, n);
    for j in 0..n {
        coo.push(j, j, (j + 1) as f64);
        coo.push((j + 3) % n, j, 2.0);
    }
    CscMatrix::from_coo(coo, |x, y| x + y)
}

/// Straddles every shard of a three-way plan.
fn frontier() -> SparseVec<f64> {
    SparseVec::from_pairs(12, vec![(0, 1.0), (6, 2.0), (11, 3.0)]).unwrap()
}

#[test]
fn every_front_runs_one_lifecycle() {
    let a = matrix();
    let plan = ShardPlan::uniform(a.ncols(), 3);
    let config = EngineConfig::default();

    let local = script!(Engine::over(&a, PlusTimes), "engine");
    let in_process = script!(
        ShardedEngine::partition_with(&a, PlusTimes, plan.clone(), config.clone()),
        "shard"
    );
    let hosts: Vec<_> = a
        .column_split(plan.bounds())
        .into_iter()
        .enumerate()
        .map(|(s, part)| {
            ShardHost::bind("127.0.0.1:0", s, plan.range(s), part, PlusTimes, config.clone())
                .expect("bind an ephemeral localhost port")
                .spawn()
        })
        .collect();
    let addrs: Vec<_> = hosts.iter().map(|h| h.addr()).collect();
    let remote = ShardedEngine::<f64, f64, PlusTimes>::connect(
        plan,
        a.nrows(),
        PlusTimes,
        &addrs,
        TcpConfig::default(),
        ObsConfig::default(),
    )
    .expect("dial every host");
    let over_tcp = script!(remote, "shard");
    for host in hosts {
        host.shutdown();
    }

    let engine = Engine::over(&a, PlusTimes);
    let served = engine.submit(MxvRequest::new(frontier()));
    engine.flush();
    let expected = Lifecycle {
        states: vec![
            Err(EngineError::Cancelled),
            Err(EngineError::Cancelled),
            Err(EngineError::Cancelled),
            Err(EngineError::DeadlineExceeded),
            served.try_take().expect("served"),
            Err(EngineError::Disconnected),
        ],
        // Drained: the cancelled, the expired and the live request.
        outcome: (3, 1, 1),
        // Retired unserved: closed, dropped, then the cancel at the flush.
        counters: (Some(6), Some(3)),
    };
    assert_eq!(local, expected, "engine");
    assert_eq!(in_process, expected, "in-process router");
    assert_eq!(over_tcp, expected, "router over TCP");
}

//! A semiring wrapper that shows a parallel call really ran on two threads,
//! shared by the executor and pull suites.

use std::collections::HashSet;
use std::sync::{Condvar, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

use sparse_substrate::Semiring;

/// The semiring `S` (its pull hook included) whose `multiply` waits until
/// two threads have multiplied, for at most a second in all. Work that two
/// participants share meets at once; work that runs on one thread spends
/// the second waiting and then shows one thread only.
#[derive(Default)]
pub struct Rendezvous<S> {
    inner: S,
    state: Mutex<(HashSet<ThreadId>, bool)>,
    met: Condvar,
}

impl<S> Rendezvous<S> {
    /// The threads that multiplied, and whether a wait timed out.
    pub fn outcome(self) -> (usize, bool) {
        let (seen, timed_out) = self.state.into_inner().unwrap();
        (seen.len(), timed_out)
    }
}

impl<A, X, S: Semiring<A, X>> Semiring<A, X> for Rendezvous<S> {
    type Output = S::Output;

    fn zero(&self) -> S::Output {
        self.inner.zero()
    }

    fn multiply(&self, a: &A, x: &X) -> S::Output {
        let mut state = self.state.lock().unwrap();
        if state.0.insert(thread::current().id()) {
            self.met.notify_all();
        }
        // The flag records that a wait timed out, so no later call waits.
        if state.0.len() < 2 && !state.1 {
            let (mut state, timeout) = self
                .met
                .wait_timeout_while(state, Duration::from_secs(1), |(seen, _)| seen.len() < 2)
                .unwrap();
            state.1 |= timeout.timed_out();
        }
        self.inner.multiply(a, x)
    }

    fn add(&self, lhs: S::Output, rhs: S::Output) -> S::Output {
        self.inner.add(lhs, rhs)
    }

    fn first_hit_decides(&self, x: &[X]) -> bool {
        self.inner.first_hit_decides(x)
    }
}

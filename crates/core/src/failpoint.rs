//! Deterministic fault-injection sites for chaos testing the serving layer.
//!
//! A *failpoint* is a named site in production code — the flush path, the
//! batched kernels — where a test can inject a fault: a panic, a delay, or
//! an error. Sites are consulted with [`act`]; tests arm them through a
//! scoped `FailGuard` returned by `arm` (both compiled only with the
//! `failpoints` cargo feature), so a fault plan cannot outlive its test.
//! Without the feature, [`act`] compiles to an inlined `Ok(())` and the
//! registry does not exist, so release binaries carry zero overhead and
//! zero injectable surface.
//!
//! The sites threaded through this crate:
//!
//! | site | where | sensible actions |
//! |---|---|---|
//! | `engine.flush.assemble` | [`crate::engine::Engine::flush`], after the queue drain | panic (serve-loop crash recovery), delay |
//! | `engine.flush.execute`  | per fused group, before the kernel runs | error / panic (group failure + degrade), delay |
//! | `engine.flush.demux`    | per fused group, before results are scattered | delay (deadline races) |
//! | `batch.merge`           | [`crate::LaneBatch`] (every batch, the degraded retry's too), after the lanes ran, before they merge into one batch | panic ("panic in merge") |
//! | `shard.flush.<s>`       | [`crate::shard::ShardedEngine`], before shard `s`'s engine flushes | error (single-shard outage: only tickets routed through shard `s` fail) |
//! | `net.host.byzantine.wrong_id.<s>` | [`crate::net::ShardHost`] for shard `s`, before a reply is encoded | error (reply carries a corrupted correlation id → router quarantines) |
//! | `net.host.byzantine.bad_index.<s>` | [`crate::net::ShardHost`] for shard `s`, after a non-empty `Partial` is encoded | error (first partial index overwritten with `u64::MAX` → decode rejects) |
//! | `net.host.byzantine.truncate.<s>` | [`crate::net::ShardHost`] for shard `s`, after the flush reply batch is encoded | error (frame cut mid-header and the connection dropped → `Truncated`) |
//!
//! Arming is process-global (the sites are static program points), so tests
//! that arm failpoints must serialize themselves — take a shared
//! `static Mutex<()>` — and rely on `FailGuard` to disarm on every exit
//! path, panicking assertions included.
//!
//! ```
//! # #[cfg(feature = "failpoints")] {
//! use std::time::Duration;
//! use spmspv::failpoint::{self, FailAction};
//!
//! let _guard = failpoint::arm("doc.example", FailAction::Delay(Duration::ZERO), Some(1));
//! assert!(failpoint::act("doc.example").is_ok()); // first hit: the delay fires
//! assert_eq!(failpoint::hits("doc.example"), 1);
//! # }
//! ```

use std::time::Duration;

/// What an armed failpoint does when its site is hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailAction {
    /// Panic at the site with this message (exercises `catch_unwind`
    /// isolation and unwind-safety of the surrounding code).
    Panic(String),
    /// Sleep this long at the site (exercises deadlines and linger/timeout
    /// interplay).
    Delay(Duration),
    /// Report an error from the site: [`act`] returns `Err` with this
    /// message (exercises non-panic error propagation).
    Error(String),
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::FailAction;
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    struct Armed {
        action: FailAction,
        /// `Some(n)`: fire on the next `n` hits, then fall dormant.
        /// `None`: fire on every hit while armed.
        remaining: Option<usize>,
    }

    #[derive(Default)]
    struct Registry {
        armed: HashMap<String, Armed>,
        /// Total times each site *fired* (dormant hits don't count), kept
        /// after disarm so tests can assert their fault plan ran.
        hits: HashMap<String, usize>,
    }

    fn registry() -> MutexGuard<'static, Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        // A panic *injected by a failpoint* unwinds through this lock's
        // scope only after the guard is dropped (see `act`), but a test that
        // panics while holding an unrelated assertion poisons nothing here;
        // tolerate poisoning anyway so one broken test cannot wedge the rest.
        REGISTRY
            .get_or_init(|| Mutex::new(Registry::default()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Scoped arming handle: dropping it disarms its site (on every exit
    /// path out of a test, panicking assertions included).
    #[must_use = "dropping the guard disarms the failpoint immediately"]
    pub struct FailGuard {
        site: String,
    }

    impl Drop for FailGuard {
        fn drop(&mut self) {
            registry().armed.remove(&self.site);
        }
    }

    /// Arms `site` with `action`, firing on the next `times` hits
    /// (`None` = every hit while armed). Re-arming a site replaces its
    /// previous plan. Returns the scoped guard that disarms on drop.
    pub fn arm(site: &str, action: FailAction, times: Option<usize>) -> FailGuard {
        registry().armed.insert(site.to_string(), Armed { action, remaining: times });
        FailGuard { site: site.to_string() }
    }

    /// Consults `site`: sleeps, panics, or returns `Err` per the armed
    /// action; `Ok(())` when the site is unarmed or its shots are spent.
    pub fn act(site: &str) -> Result<(), String> {
        let fired: Option<FailAction> = {
            let mut reg = registry();
            let fire = match reg.armed.get_mut(site) {
                None => None,
                Some(armed) => match &mut armed.remaining {
                    Some(0) => None,
                    Some(n) => {
                        *n -= 1;
                        Some(armed.action.clone())
                    }
                    None => Some(armed.action.clone()),
                },
            };
            if fire.is_some() {
                *reg.hits.entry(site.to_string()).or_insert(0) += 1;
            }
            fire
            // The registry lock drops HERE, before any panic/sleep below —
            // an injected fault must never hold the registry hostage.
        };
        if fired.is_some() {
            crate::obs::record_failpoint_hit(site);
        }
        match fired {
            None => Ok(()),
            Some(FailAction::Delay(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(FailAction::Error(msg)) => Err(msg),
            Some(FailAction::Panic(msg)) => panic!("failpoint {site}: {msg}"),
        }
    }

    /// How many times `site` has fired since process start (survives
    /// disarm, so tests can assert their fault plan actually ran).
    pub fn hits(site: &str) -> usize {
        registry().hits.get(site).copied().unwrap_or(0)
    }

    /// Disarms every site (test hygiene for suites that cannot rely on
    /// guard scoping alone).
    pub fn disarm_all() {
        registry().armed.clear();
    }
}

#[cfg(feature = "failpoints")]
pub use imp::{act, arm, disarm_all, hits, FailGuard};

/// Consults a failpoint site. Compiled without the `failpoints` feature this
/// is an inlined no-op: sites cost nothing and cannot be armed.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn act(_site: &str) -> Result<(), String> {
    Ok(())
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global; these tests serialize on it.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn unarmed_site_is_ok() {
        let _s = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        assert_eq!(act("fp.never-armed"), Ok(()));
    }

    #[test]
    fn error_action_fires_exactly_times_then_falls_dormant() {
        let _s = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let before = hits("fp.err");
        let guard = arm("fp.err", FailAction::Error("boom".into()), Some(2));
        assert_eq!(act("fp.err"), Err("boom".into()));
        assert_eq!(act("fp.err"), Err("boom".into()));
        assert_eq!(act("fp.err"), Ok(()), "shots spent: site falls dormant");
        assert_eq!(hits("fp.err"), before + 2);
        drop(guard);
        assert_eq!(act("fp.err"), Ok(()));
    }

    #[test]
    fn guard_drop_disarms_and_rearming_replaces() {
        let _s = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        {
            let _g = arm("fp.scoped", FailAction::Error("a".into()), None);
            assert_eq!(act("fp.scoped"), Err("a".into()));
            // Re-arm replaces the plan while the old guard is still live.
            let _g2 = arm("fp.scoped", FailAction::Error("b".into()), None);
            assert_eq!(act("fp.scoped"), Err("b".into()));
        }
        assert_eq!(act("fp.scoped"), Ok(()), "all guards gone: disarmed");
    }

    #[test]
    fn panic_action_panics_with_site_and_message() {
        let _s = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _g = arm("fp.panic", FailAction::Panic("kaboom".into()), Some(1));
        let err = std::panic::catch_unwind(|| {
            let _ = act("fp.panic");
        })
        .expect_err("armed panic site must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("fp.panic") && msg.contains("kaboom"), "payload: {msg}");
        assert_eq!(act("fp.panic"), Ok(()), "single shot spent by the panic");
    }

    #[test]
    fn delay_action_sleeps_inline() {
        let _s = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _g = arm("fp.delay", FailAction::Delay(std::time::Duration::from_millis(15)), Some(1));
        let t0 = std::time::Instant::now();
        assert_eq!(act("fp.delay"), Ok(()));
        assert!(t0.elapsed() >= std::time::Duration::from_millis(15));
    }
}

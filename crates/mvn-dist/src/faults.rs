//! Deterministic fault injection for the distributed runtime.
//!
//! Every recovery path in `mvn-dist` is exercised by *planned* faults rather
//! than by luck: a [`FaultPlan`] names exact points in a worker's
//! deterministic execution — "kill rank 1 after it has submitted 3 factor
//! tasks", "sever rank 0's peer connection at its 2nd tile fetch" — so a
//! test (or the CI chaos smoke) replays the identical failure every run.
//! Because a worker's task-submission order, panel order and fetch order are
//! all pure functions of the problem and the plan, a `(rank, counter)` pair
//! pins a fault to one reproducible instant.
//!
//! The plan travels to the worker processes through the
//! [`FAULTS_ENV`] environment variable in a compact text encoding
//! (`kill:1@task3;sever:0@fetch2;delay:2@fetch1=50`).
//! [`FaultPlan::from_seed`] derives a pseudo-random single-kill plan from a
//! seed (a splitmix64 walk, no external RNG), which is what
//! `mvn_dist --smoke --chaos <seed>` uses.
//!
//! Inside a worker, a [`FaultInjector`] holds the rank-filtered actions plus
//! monotone counters; the pipeline calls its hooks at the three injection
//! points (task submission, panel completion, tile fetch). Kill actions
//! terminate the process with [`crate::worker::CRASH_EXIT_CODE`] — abrupt,
//! no cleanup, exactly like a lost node.

use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable carrying the encoded [`FaultPlan`] to workers.
pub const FAULTS_ENV: &str = "MVN_DIST_FAULTS";

/// One planned fault, pinned to a rank and a deterministic counter value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Kill the process right before submitting the `after`-th owned factor
    /// task (0 = before any task; dies mid-factor).
    KillAtTask {
        /// Target rank.
        rank: usize,
        /// Owned-task counter value at which to die.
        after: usize,
    },
    /// Kill the process right after completing the `after`-th owned sweep
    /// panel (dies mid-sweep, with the factor fully served to peers).
    KillAtPanel {
        /// Target rank.
        rank: usize,
        /// Completed-panel counter value at which to die.
        after: usize,
    },
    /// Sever the peer connection used by the `at`-th tile fetch: the
    /// connection is dropped mid-request, forcing the re-route/retry path.
    SeverFetch {
        /// Target rank (the fetching side).
        rank: usize,
        /// Fetch counter value at which to sever.
        at: u64,
    },
    /// Delay the `at`-th tile fetch by `millis` before sending the request
    /// (exercises slow-peer timing without changing any result).
    DelayFetch {
        /// Target rank (the fetching side).
        rank: usize,
        /// Fetch counter value at which to delay.
        at: u64,
        /// Delay in milliseconds.
        millis: u64,
    },
}

/// A reproducible set of [`FaultAction`]s, shipped to workers via env.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The planned actions (empty = healthy run).
    pub actions: Vec<FaultAction>,
}

/// splitmix64: the standard 64-bit mixer — deterministic, dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects anything.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Derive a single-kill chaos plan from a seed: a pseudo-random victim
    /// rank and a pseudo-random injection point (mid-factor kill, mid-sweep
    /// kill, or a severed fetch), identical for identical seeds.
    ///
    /// `plan_tasks` bounds the task index (pass the victim's rough owned
    /// task count or the full plan length; the kill point is taken modulo
    /// it) and `n_panels` bounds the panel index.
    pub fn from_seed(seed: u64, nodes: usize, plan_tasks: usize, n_panels: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        let mut s = seed ^ 0xD1F7_5C3A_9E42_0B17;
        let rank = (splitmix64(&mut s) % nodes as u64) as usize;
        let action = match splitmix64(&mut s) % 3 {
            0 => FaultAction::KillAtTask {
                rank,
                after: (splitmix64(&mut s) % plan_tasks.max(1) as u64) as usize,
            },
            1 => FaultAction::KillAtPanel {
                rank,
                after: (splitmix64(&mut s) % n_panels.max(1) as u64) as usize,
            },
            _ => FaultAction::SeverFetch {
                rank,
                at: splitmix64(&mut s) % 4,
            },
        };
        Self {
            actions: vec![action],
        }
    }

    /// Encode for the [`FAULTS_ENV`] variable.
    pub fn to_env(&self) -> String {
        self.actions
            .iter()
            .map(|a| match *a {
                FaultAction::KillAtTask { rank, after } => format!("kill:{rank}@task{after}"),
                FaultAction::KillAtPanel { rank, after } => format!("kill:{rank}@panel{after}"),
                FaultAction::SeverFetch { rank, at } => format!("sever:{rank}@fetch{at}"),
                FaultAction::DelayFetch { rank, at, millis } => {
                    format!("delay:{rank}@fetch{at}={millis}")
                }
            })
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Decode a [`FAULTS_ENV`] value.
    pub fn from_env_str(s: &str) -> Result<Self, String> {
        let mut actions = Vec::new();
        for part in s.split(';').filter(|p| !p.is_empty()) {
            let (kind, rest) = part
                .split_once(':')
                .ok_or_else(|| format!("fault {part:?}: missing ':'"))?;
            let (rank, point) = rest
                .split_once('@')
                .ok_or_else(|| format!("fault {part:?}: missing '@'"))?;
            let rank: usize = rank
                .parse()
                .map_err(|e| format!("fault {part:?}: bad rank: {e}"))?;
            let num = |s: &str, prefix: &str| -> Result<u64, String> {
                s.strip_prefix(prefix)
                    .ok_or_else(|| format!("fault {part:?}: expected {prefix}<N>"))?
                    .parse()
                    .map_err(|e| format!("fault {part:?}: bad counter: {e}"))
            };
            actions.push(match kind {
                "kill" if point.starts_with("task") => FaultAction::KillAtTask {
                    rank,
                    after: num(point, "task")? as usize,
                },
                "kill" if point.starts_with("panel") => FaultAction::KillAtPanel {
                    rank,
                    after: num(point, "panel")? as usize,
                },
                "kill" => return Err(format!("fault {part:?}: kill point must be task/panel")),
                "sever" => FaultAction::SeverFetch {
                    rank,
                    at: num(point, "fetch")?,
                },
                "delay" => {
                    let (at, ms) = point
                        .split_once('=')
                        .ok_or_else(|| format!("fault {part:?}: delay needs =millis"))?;
                    FaultAction::DelayFetch {
                        rank,
                        at: num(at, "fetch")?,
                        millis: ms
                            .parse()
                            .map_err(|e| format!("fault {part:?}: bad millis: {e}"))?,
                    }
                }
                other => return Err(format!("unknown fault kind {other:?}")),
            });
        }
        Ok(Self { actions })
    }
}

/// What the fetch hook tells the transport to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchFault {
    /// Proceed normally.
    None,
    /// Drop the peer connection instead of completing this fetch.
    Sever,
    /// Sleep this many milliseconds, then proceed.
    Delay(u64),
}

/// The per-process injection state: this rank's actions plus monotone
/// counters advanced by the pipeline's hook calls.
///
/// Kill hooks terminate the process; fetch hooks return a [`FetchFault`] for
/// the transport to act on. Each action fires at most once (the counters are
/// strictly monotone), so a severed fetch is retried against a healthy path.
pub struct FaultInjector {
    rank: usize,
    actions: Vec<FaultAction>,
    tasks: AtomicU64,
    panels: AtomicU64,
    fetches: AtomicU64,
    exit_code: i32,
}

impl FaultInjector {
    /// An injector for `rank` executing `plan`.
    pub fn new(rank: usize, plan: &FaultPlan, exit_code: i32) -> Self {
        Self {
            rank,
            actions: plan.actions.clone(),
            tasks: AtomicU64::new(0),
            panels: AtomicU64::new(0),
            fetches: AtomicU64::new(0),
            exit_code,
        }
    }

    /// Build from the [`FAULTS_ENV`] variable of the process environment. A
    /// malformed plan is an error — a chaos test with a typo must fail
    /// loudly, not run healthy.
    pub fn from_env(rank: usize, exit_code: i32) -> Result<Self, String> {
        let plan = match std::env::var(FAULTS_ENV) {
            Ok(s) => FaultPlan::from_env_str(&s)?,
            Err(_) => FaultPlan::none(),
        };
        Ok(Self::new(rank, &plan, exit_code))
    }

    fn die(&self) -> ! {
        // Abrupt, like a lost node: no report, no cleanup, no flush.
        std::process::exit(self.exit_code)
    }

    /// Hook: called once per owned factor task, *before* submission.
    pub fn on_task_submit(&self) {
        let k = self.tasks.fetch_add(1, Ordering::Relaxed);
        for a in &self.actions {
            if let FaultAction::KillAtTask { rank, after } = *a {
                if rank == self.rank && after as u64 == k {
                    self.die();
                }
            }
        }
    }

    /// Hook: called once per completed sweep panel.
    pub fn on_panel_done(&self) {
        let k = self.panels.fetch_add(1, Ordering::Relaxed);
        for a in &self.actions {
            if let FaultAction::KillAtPanel { rank, after } = *a {
                if rank == self.rank && after as u64 == k {
                    self.die();
                }
            }
        }
    }

    /// Hook: called once per tile fetch, before the request is written.
    pub fn on_fetch(&self) -> FetchFault {
        let k = self.fetches.fetch_add(1, Ordering::Relaxed);
        for a in &self.actions {
            match *a {
                FaultAction::SeverFetch { rank, at } if rank == self.rank && at == k => {
                    return FetchFault::Sever;
                }
                FaultAction::DelayFetch { rank, at, millis } if rank == self.rank && at == k => {
                    return FetchFault::Delay(millis);
                }
                _ => {}
            }
        }
        FetchFault::None
    }
}

/// Bounded exponential backoff with deterministic jitter: attempt `k` waits
/// `base·2^k` plus a salt-derived jitter of up to half that, capped at
/// `cap`. The jitter decorrelates retry storms across workers (each salts
/// with its pid) while staying reproducible for a fixed salt.
pub fn backoff_delay(
    base: std::time::Duration,
    attempt: u32,
    salt: u64,
    cap: std::time::Duration,
) -> std::time::Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(10));
    let exp = exp.min(cap);
    let mut s = salt
        .wrapping_add(attempt as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let jitter_ns = if exp.as_nanos() == 0 {
        0
    } else {
        splitmix64(&mut s) % (exp.as_nanos() as u64 / 2).max(1)
    };
    (exp + std::time::Duration::from_nanos(jitter_ns)).min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn plan_roundtrips_through_the_env_encoding() {
        let plan = FaultPlan {
            actions: vec![
                FaultAction::KillAtTask { rank: 1, after: 3 },
                FaultAction::KillAtPanel { rank: 2, after: 0 },
                FaultAction::SeverFetch { rank: 0, at: 2 },
                FaultAction::DelayFetch {
                    rank: 3,
                    at: 1,
                    millis: 50,
                },
            ],
        };
        let enc = plan.to_env();
        assert_eq!(
            enc,
            "kill:1@task3;kill:2@panel0;sever:0@fetch2;delay:3@fetch1=50"
        );
        assert_eq!(FaultPlan::from_env_str(&enc).unwrap(), plan);
        assert!(FaultPlan::from_env_str("").unwrap().is_empty());
        assert!(FaultPlan::from_env_str("kill:1@nowhere7").is_err());
        assert!(FaultPlan::from_env_str("explode:1@task1").is_err());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = FaultPlan::from_seed(seed, 4, 20, 8);
            let b = FaultPlan::from_seed(seed, 4, 20, 8);
            assert_eq!(a, b, "seed {seed} must be reproducible");
            assert_eq!(a.actions.len(), 1);
            match a.actions[0] {
                FaultAction::KillAtTask { rank, after } => {
                    assert!(rank < 4 && after < 20);
                }
                FaultAction::KillAtPanel { rank, after } => {
                    assert!(rank < 4 && after < 8);
                }
                FaultAction::SeverFetch { rank, .. } => assert!(rank < 4),
                FaultAction::DelayFetch { rank, .. } => assert!(rank < 4),
            }
        }
        // Different seeds eventually pick different victims/points.
        let distinct: std::collections::HashSet<String> = (0..16)
            .map(|s| FaultPlan::from_seed(s, 4, 20, 8).to_env())
            .collect();
        assert!(distinct.len() > 4, "seeds must spread over the fault space");
    }

    #[test]
    fn fetch_hooks_fire_exactly_once_at_their_counter() {
        let plan = FaultPlan {
            actions: vec![
                FaultAction::SeverFetch { rank: 0, at: 1 },
                FaultAction::DelayFetch {
                    rank: 0,
                    at: 3,
                    millis: 5,
                },
                FaultAction::SeverFetch { rank: 1, at: 0 }, // other rank: never fires
            ],
        };
        let inj = FaultInjector::new(0, &plan, 42);
        assert_eq!(inj.on_fetch(), FetchFault::None);
        assert_eq!(inj.on_fetch(), FetchFault::Sever);
        assert_eq!(inj.on_fetch(), FetchFault::None);
        assert_eq!(inj.on_fetch(), FetchFault::Delay(5));
        assert_eq!(inj.on_fetch(), FetchFault::None);
    }

    #[test]
    fn backoff_grows_is_capped_and_jitter_is_deterministic() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(500);
        let d0 = backoff_delay(base, 0, 7, cap);
        let d3 = backoff_delay(base, 3, 7, cap);
        assert!(d0 >= base && d0 <= cap);
        assert!(d3 > d0, "backoff must grow");
        assert!(backoff_delay(base, 20, 7, cap) <= cap, "cap must hold");
        assert_eq!(
            backoff_delay(base, 2, 99, cap),
            backoff_delay(base, 2, 99, cap),
            "same salt+attempt => same delay"
        );
    }
}

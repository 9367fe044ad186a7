//! Per-vendor-profile circuit breakers.
//!
//! A campaign whose compiler profile keeps yielding `Infra` verdicts is
//! burning worker time on an environment that is down (license server
//! unreachable, toolchain half-installed). After `threshold` *consecutive*
//! `Infra` verdicts the breaker for that profile opens: new submissions
//! against it are not run at all — every case degrades to
//! `Skipped("circuit open …")` so the submitter gets an immediate, honest
//! answer instead of a slow pile of infrastructure noise. After a cooldown
//! the breaker goes half-open and admits one trial campaign; a clean trial
//! closes it, another `Infra` re-opens it.
//!
//! All time-dependent transitions take an explicit [`Instant`] so tests can
//! drive the state machine deterministically.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use acc_validation::TestStatus;

/// Breaker state for one compiler profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: campaigns run normally. Tracks the current run of
    /// consecutive `Infra` verdicts.
    Closed {
        /// Consecutive `Infra` verdicts observed so far.
        consecutive_infra: u32,
    },
    /// Tripped: campaigns degrade to skipped until the cooldown elapses.
    Open {
        /// When the breaker tripped.
        since: Instant,
    },
    /// Cooldown elapsed: one trial campaign is admitted to probe recovery.
    HalfOpen,
}

impl BreakerState {
    /// Short label for health endpoints.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed { .. } => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Outcome of asking a breaker whether a campaign may run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Run the campaign. `trial` is true when this is the half-open probe.
    Admit {
        /// True when the breaker is half-open and this run decides recovery.
        trial: bool,
    },
    /// Do not run; degrade every case to `Skipped` with this reason.
    Degraded {
        /// Human-readable reason recorded on every skipped case.
        reason: String,
    },
}

/// The set of breakers, keyed by compiler profile label.
#[derive(Debug)]
pub struct BreakerSet {
    threshold: u32,
    cooldown: Duration,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    states: BTreeMap<String, BreakerState>,
    trips: BTreeMap<String, u64>,
    trips_total: u64,
}

impl Inner {
    fn trip(&mut self, profile: &str) {
        self.trips_total += 1;
        *self.trips.entry(profile.to_string()).or_default() += 1;
    }
}

impl BreakerSet {
    /// A breaker set tripping after `threshold` consecutive `Infra`
    /// verdicts, probing recovery after `cooldown`.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        BreakerSet {
            threshold: threshold.max(1),
            cooldown,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Decide admission for a campaign against `profile`, as of `now`.
    pub fn admit_at(&self, profile: &str, now: Instant) -> BreakerDecision {
        let mut inner = self.inner.lock().unwrap();
        let state = inner
            .states
            .entry(profile.to_string())
            .or_insert(BreakerState::Closed {
                consecutive_infra: 0,
            });
        match *state {
            BreakerState::Closed { .. } => BreakerDecision::Admit { trial: false },
            BreakerState::HalfOpen => BreakerDecision::Admit { trial: true },
            BreakerState::Open { since } => {
                if now.duration_since(since) >= self.cooldown {
                    *state = BreakerState::HalfOpen;
                    BreakerDecision::Admit { trial: true }
                } else {
                    BreakerDecision::Degraded {
                        reason: format!(
                            "circuit open for {profile} after {} consecutive infra failures",
                            self.threshold
                        ),
                    }
                }
            }
        }
    }

    /// Decide admission as of now.
    pub fn admit(&self, profile: &str) -> BreakerDecision {
        self.admit_at(profile, Instant::now())
    }

    /// Feed the verdicts of a finished campaign back into the breaker,
    /// as of `now`. Uncounted verdicts (skips) are ignored.
    pub fn observe_at<'a>(
        &self,
        profile: &str,
        statuses: impl IntoIterator<Item = &'a TestStatus>,
        now: Instant,
    ) {
        let mut inner = self.inner.lock().unwrap();
        let threshold = self.threshold;
        let mut tripped = false;
        let state = inner
            .states
            .entry(profile.to_string())
            .or_insert(BreakerState::Closed {
                consecutive_infra: 0,
            });
        if matches!(state, BreakerState::HalfOpen) {
            // A half-open trial is judged as a unit: ANY infra verdict in
            // the trial campaign re-opens the circuit, however many healthy
            // verdicts surround it. Only a fully clean trial closes it.
            let mut saw_counted = false;
            let mut saw_infra = false;
            for status in statuses {
                if !status.counted() {
                    continue;
                }
                saw_counted = true;
                if matches!(status, TestStatus::Infra(_)) {
                    saw_infra = true;
                    break;
                }
            }
            if saw_infra {
                *state = BreakerState::Open { since: now };
                inner.trip(profile);
            } else if saw_counted {
                *state = BreakerState::Closed {
                    consecutive_infra: 0,
                };
            }
            return;
        }
        for status in statuses {
            if !status.counted() {
                continue;
            }
            let infra = matches!(status, TestStatus::Infra(_));
            match state {
                BreakerState::Closed { consecutive_infra } => {
                    if infra {
                        *consecutive_infra += 1;
                        if *consecutive_infra >= threshold {
                            *state = BreakerState::Open { since: now };
                            tripped = true;
                            break; // the rest of this campaign is history
                        }
                    } else {
                        *consecutive_infra = 0;
                    }
                }
                // Unreachable here: half-open was handled above, and a trip
                // earlier in this loop broke out. Kept defensively for a
                // racing campaign that tripped between lock acquisitions.
                BreakerState::HalfOpen | BreakerState::Open { .. } => break,
            }
        }
        if tripped {
            inner.trip(profile);
        }
    }

    /// Feed verdicts as of now.
    pub fn observe<'a>(&self, profile: &str, statuses: impl IntoIterator<Item = &'a TestStatus>) {
        self.observe_at(profile, statuses, Instant::now());
    }

    /// Current state and lifetime trip count of every profile seen so far.
    pub fn snapshot(&self) -> Vec<(String, BreakerState, u64)> {
        let inner = self.inner.lock().unwrap();
        inner
            .states
            .iter()
            .map(|(k, v)| (k.clone(), *v, inner.trips.get(k).copied().unwrap_or(0)))
            .collect()
    }

    /// Number of profiles whose breaker is currently open.
    pub fn open_count(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner
            .states
            .values()
            .filter(|s| matches!(s, BreakerState::Open { .. }))
            .count()
    }

    /// Total number of trips since startup.
    pub fn trips_total(&self) -> u64 {
        self.inner.lock().unwrap().trips_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn infra() -> TestStatus {
        TestStatus::Infra("node down".into())
    }

    #[test]
    fn trips_after_threshold_consecutive_infra() {
        let set = BreakerSet::new(3, Duration::from_secs(60));
        let t0 = Instant::now();
        set.observe_at("caps 3.3.4", &[infra(), infra()], t0);
        assert_eq!(
            set.admit_at("caps 3.3.4", t0),
            BreakerDecision::Admit { trial: false }
        );
        set.observe_at("caps 3.3.4", &[infra()], t0);
        match set.admit_at("caps 3.3.4", t0) {
            BreakerDecision::Degraded { reason } => {
                assert!(reason.contains("caps 3.3.4"), "{reason}");
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(set.trips_total(), 1);
        assert_eq!(set.open_count(), 1);
    }

    #[test]
    fn counted_success_resets_the_streak() {
        let set = BreakerSet::new(3, Duration::from_secs(60));
        let t0 = Instant::now();
        set.observe_at(
            "pgi 13.8",
            &[infra(), infra(), TestStatus::Pass, infra()],
            t0,
        );
        assert_eq!(
            set.admit_at("pgi 13.8", t0),
            BreakerDecision::Admit { trial: false }
        );
    }

    #[test]
    fn skips_do_not_break_the_streak() {
        let set = BreakerSet::new(2, Duration::from_secs(60));
        let t0 = Instant::now();
        set.observe_at("cray 8.2.0", &[infra(), TestStatus::skipped(), infra()], t0);
        assert!(matches!(
            set.admit_at("cray 8.2.0", t0),
            BreakerDecision::Degraded { .. }
        ));
    }

    #[test]
    fn half_open_trial_closes_on_success_and_reopens_on_infra() {
        let set = BreakerSet::new(1, Duration::from_millis(100));
        let t0 = Instant::now();
        set.observe_at("caps 3.0.7", &[infra()], t0);
        // Still cooling down.
        assert!(matches!(
            set.admit_at("caps 3.0.7", t0 + Duration::from_millis(50)),
            BreakerDecision::Degraded { .. }
        ));
        // Cooldown elapsed → half-open trial.
        let t1 = t0 + Duration::from_millis(150);
        assert_eq!(
            set.admit_at("caps 3.0.7", t1),
            BreakerDecision::Admit { trial: true }
        );
        // Trial fails → open again, second trip counted.
        set.observe_at("caps 3.0.7", &[infra()], t1);
        assert!(matches!(
            set.admit_at("caps 3.0.7", t1),
            BreakerDecision::Degraded { .. }
        ));
        assert_eq!(set.trips_total(), 2);
        // Another cooldown, another trial, this one clean → closed.
        let t2 = t1 + Duration::from_millis(150);
        assert_eq!(
            set.admit_at("caps 3.0.7", t2),
            BreakerDecision::Admit { trial: true }
        );
        set.observe_at("caps 3.0.7", &[TestStatus::Pass], t2);
        assert_eq!(
            set.admit_at("caps 3.0.7", t2),
            BreakerDecision::Admit { trial: false }
        );
        assert_eq!(set.open_count(), 0);
    }

    #[test]
    fn trial_is_admitted_exactly_at_cooldown_expiry() {
        // The boundary is inclusive: `elapsed >= cooldown` admits. One
        // nanosecond earlier must still degrade — an off-by-one here either
        // hammers a broken profile early or strands a healthy one forever.
        let cooldown = Duration::from_millis(100);
        let set = BreakerSet::new(1, cooldown);
        let t0 = Instant::now();
        set.observe_at("caps 3.3.4", &[infra()], t0);
        assert!(matches!(
            set.admit_at("caps 3.3.4", t0 + cooldown - Duration::from_nanos(1)),
            BreakerDecision::Degraded { .. }
        ));
        assert_eq!(
            set.admit_at("caps 3.3.4", t0 + cooldown),
            BreakerDecision::Admit { trial: true }
        );
    }

    #[test]
    fn infra_racing_an_open_breaker_does_not_double_trip() {
        // A campaign admitted before the trip can finish (during a drain,
        // say) and report Infra verdicts while the circuit is already open.
        // Those verdicts are history: the breaker must neither count a
        // second trip nor restart the cooldown clock.
        let cooldown = Duration::from_millis(100);
        let set = BreakerSet::new(1, cooldown);
        let t0 = Instant::now();
        set.observe_at("pgi 13.8", &[infra()], t0);
        assert_eq!(set.trips_total(), 1);
        // The straggler lands halfway through the cooldown.
        set.observe_at("pgi 13.8", &[infra(), infra()], t0 + cooldown / 2);
        assert_eq!(
            set.trips_total(),
            1,
            "already-open breaker must not re-trip"
        );
        // The original cooldown clock still governs: the trial is admitted
        // at t0 + cooldown, not pushed out by the straggler.
        assert_eq!(
            set.admit_at("pgi 13.8", t0 + cooldown),
            BreakerDecision::Admit { trial: true }
        );
    }

    #[test]
    fn half_open_trial_ignores_uncounted_stragglers() {
        // A drain can flush a campaign of nothing but skips into a
        // half-open breaker. With no counted verdict the trial is still
        // outstanding: the breaker must stay half-open, not close.
        let set = BreakerSet::new(1, Duration::from_millis(100));
        let t0 = Instant::now();
        set.observe_at("cray 8.2.0", &[infra()], t0);
        let t1 = t0 + Duration::from_millis(150);
        assert_eq!(
            set.admit_at("cray 8.2.0", t1),
            BreakerDecision::Admit { trial: true }
        );
        set.observe_at("cray 8.2.0", &[TestStatus::skipped()], t1);
        assert_eq!(
            set.admit_at("cray 8.2.0", t1),
            BreakerDecision::Admit { trial: true },
            "skip-only campaign must leave the trial outstanding"
        );
        assert_eq!(set.open_count(), 0);
        assert_eq!(set.trips_total(), 1);
    }

    #[test]
    fn profiles_are_independent() {
        let set = BreakerSet::new(1, Duration::from_secs(60));
        let t0 = Instant::now();
        set.observe_at("caps 3.3.4", &[infra()], t0);
        assert!(matches!(
            set.admit_at("caps 3.3.4", t0),
            BreakerDecision::Degraded { .. }
        ));
        assert_eq!(
            set.admit_at("pgi 13.8", t0),
            BreakerDecision::Admit { trial: false }
        );
    }

    #[test]
    fn snapshot_reports_per_profile_trip_counts() {
        let set = BreakerSet::new(1, Duration::from_millis(100));
        let t0 = Instant::now();
        set.observe_at("caps 3.3.4", &[infra()], t0);
        set.observe_at("pgi 13.8", &[TestStatus::Pass], t0);
        // Re-trip caps via a failed half-open trial: per-profile count 2.
        let t1 = t0 + Duration::from_millis(150);
        assert_eq!(
            set.admit_at("caps 3.3.4", t1),
            BreakerDecision::Admit { trial: true }
        );
        set.observe_at("caps 3.3.4", &[infra()], t1);
        let snap = set.snapshot();
        assert_eq!(snap.len(), 2);
        let caps = snap.iter().find(|(p, _, _)| p == "caps 3.3.4").unwrap();
        assert_eq!(caps.1.label(), "open");
        assert_eq!(caps.2, 2, "both trips attributed to caps");
        let pgi = snap.iter().find(|(p, _, _)| p == "pgi 13.8").unwrap();
        assert_eq!((pgi.1.label(), pgi.2), ("closed", 0));
        assert_eq!(set.trips_total(), 2);
    }
}

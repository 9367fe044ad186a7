//! Cluster-wide validation sweeps with graceful node-loss degradation.
//!
//! A sweep schedules every (case, language) unit of a suite round-robin
//! across the cluster's live nodes and runs them in unit order, so the row
//! list is deterministic regardless of which nodes survive. The sweep
//! journals every unit (with node attribution) through the same durable
//! journal the single-compiler executor uses, and reacts to mid-run node
//! loss: the dead node's queued units are drained onto the survivors, the
//! event is journaled, and nodes that keep dying across a journal's
//! lifetime are quarantined — excluded from scheduling — on the next
//! resume.

use crate::cluster::{LossPlan, SimulatedCluster};
use acc_obs as obs;
use acc_validation::executor::ATTEMPT_STRIDE;
use acc_validation::journal::JournalRecord;
use acc_validation::{
    run_case_with, Campaign, CasePolicy, CaseResult, Executor, ExecutorPolicy, JobMeta,
    SuiteConfig, TestCase,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// A sweep configuration: the suite, the executor policy (whose journal /
/// resume / halt knobs the sweep drives itself), the scheduled losses, and
/// the quarantine threshold.
#[derive(Debug)]
pub struct ClusterSweep {
    /// Test cases to run on every unit's node.
    pub suite: Vec<TestCase>,
    /// Suite configuration (language and feature selection).
    pub config: SuiteConfig,
    /// Executor policy. `journal`, `resume` and `halt_after` are interpreted
    /// by the sweep itself (per-unit execution runs serial with the
    /// remaining knobs: retries, backoff, deadlines, step limit).
    pub policy: ExecutorPolicy,
    /// Scheduled node losses.
    pub losses: Vec<LossPlan>,
    /// Total journal-lifetime deaths at which a node is quarantined on
    /// resume.
    pub quarantine_after: u32,
}

impl ClusterSweep {
    /// A sweep over `suite` with default config, policy, and a quarantine
    /// threshold of 2 deaths.
    pub fn new(suite: Vec<TestCase>) -> Self {
        ClusterSweep {
            suite,
            config: SuiteConfig::default(),
            policy: ExecutorPolicy::default(),
            losses: Vec::new(),
            quarantine_after: 2,
        }
    }

    /// Replace the executor policy.
    pub fn with_policy(mut self, policy: ExecutorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Schedule node losses.
    pub fn with_losses(mut self, losses: Vec<LossPlan>) -> Self {
        self.losses = losses;
        self
    }

    /// Set the quarantine threshold (journal-lifetime deaths).
    pub fn with_quarantine_after(mut self, deaths: u32) -> Self {
        self.quarantine_after = deaths.max(1);
        self
    }

    /// The sweep's scope label — written to the journal meta record and
    /// checked on resume so a journal can't resume against a different
    /// cluster shape.
    pub fn scope(cluster: &SimulatedCluster) -> String {
        format!("{} sweep ({} nodes)", cluster.name, cluster.nodes.len())
    }

    /// Recover the node count recorded in a sweep journal's meta scope, so
    /// `--resume` can rebuild the same cluster shape without the operator
    /// re-passing `--nodes` (a mismatch would be rejected by the scope
    /// check anyway — this just removes the footgun).
    pub fn nodes_in_scope(scope: &str) -> Option<u32> {
        scope
            .rsplit_once('(')?
            .1
            .strip_suffix(" nodes)")?
            .parse()
            .ok()
    }

    /// Run the sweep. Fails when quarantine leaves no schedulable node or a
    /// resumed journal belongs to a different scope.
    pub fn run(&self, cluster: &SimulatedCluster) -> Result<SweepOutcome, String> {
        let scope = Self::scope(cluster);
        let journal = self.policy.journal.clone();
        let resume = self.policy.resume.clone();
        if let Some(r) = &resume {
            if let Some((recorded, _, _)) = &r.meta {
                if *recorded != scope {
                    return Err(format!(
                        "journal was recorded for `{recorded}`, not `{scope}`"
                    ));
                }
            }
        }

        // Quarantine: nodes whose journal-lifetime death count crossed the
        // threshold are excluded before scheduling; newly crossed nodes get
        // a quarantine record so the exclusion itself is durable.
        let mut quarantined_prior: Vec<u32> = Vec::new();
        let mut newly_quarantined: Vec<u32> = Vec::new();
        if let Some(r) = &resume {
            quarantined_prior = r.quarantined.iter().copied().collect();
            for (&node, &deaths) in &r.node_deaths {
                if deaths >= self.quarantine_after && !r.quarantined.contains(&node) {
                    newly_quarantined.push(node);
                    if let Some(j) = &journal {
                        j.append(&JournalRecord::NodeQuarantined { node, deaths });
                    }
                }
            }
        }
        let excluded: Vec<u32> = {
            let mut v = quarantined_prior.clone();
            v.extend(&newly_quarantined);
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut alive: Vec<u32> = cluster
            .nodes
            .iter()
            .map(|n| n.id)
            .filter(|id| !excluded.contains(id))
            .collect();
        alive.sort_unstable();
        if alive.is_empty() {
            return Err("every node is quarantined; nothing can be scheduled".to_string());
        }

        // Build the unit list (case-major, language-minor — same order as
        // the single-compiler executor) and assign units round-robin over
        // the alive nodes in id order.
        let cases: Vec<TestCase> = Campaign::new(self.suite.clone())
            .with_config(self.config.clone())
            .materialized_cases();
        let metas = JobMeta::for_cases(&cases, &self.config.languages);
        let n = metas.len();
        let mut owner: Vec<u32> = (0..n).map(|i| alive[i % alive.len()]).collect();
        // Sweep-level telemetry run. The sweep's own marks live in its pre
        // and post scopes; per-unit execution is delegated to the inner
        // executor, which allocates its own run ordinals sequentially (the
        // sweep is serial, so ordinals stay deterministic).
        let trun = self.policy.recorder.begin_run();
        {
            let _g = obs::scope(&self.policy.recorder, trun, obs::PART_PRE, 0, 0);
            obs::mark(
                obs::Phase::Begin,
                "sweep",
                &scope,
                vec![
                    obs::i("total_units", n as i64),
                    obs::i("alive_nodes", alive.len() as i64),
                ],
            );
            for &node in &newly_quarantined {
                obs::instant("node", "quarantined", vec![obs::i("node", node as i64)]);
            }
        }
        if let Some(j) = &journal {
            let languages: Vec<String> =
                self.config.languages.iter().map(|l| l.to_string()).collect();
            j.append(&JournalRecord::Meta {
                scope: scope.clone(),
                total_jobs: n,
                languages: languages.join("+"),
            });
        }

        // Per-unit inner executor: the sweep owns journaling, resume and
        // halting, so those knobs are stripped; retries/deadlines/step
        // budget still apply to every attempt.
        let inner = {
            let mut p = self.policy.clone();
            p.journal = None;
            p.resume = None;
            p.halt_after = None;
            p.jobs = 1;
            Executor::new(p)
        };

        let mut rows: Vec<SweepRow> = Vec::new();
        let mut losses_hit: Vec<NodeLoss> = Vec::new();
        let mut completed_by: BTreeMap<u32, usize> = BTreeMap::new();
        let mut done = 0usize;
        let mut executed = 0usize;
        let mut cached = 0usize;
        let mut halted = false;
        let mut lost: Vec<u32> = Vec::new();
        for i in 0..n {
            // Sweep-level events for this unit (loss handling, resume
            // replay, node assignment) collect under the unit's job scope;
            // the guard is dropped before the inner executor runs so its
            // own scopes can own the thread.
            let tguard = obs::scope(&self.policy.recorder, trun, obs::PART_JOB, i as u32, 0);
            // Fire any loss plan whose threshold the completed-unit count
            // has reached (cached units count, so a resumed sweep replays
            // the loss at the same point — deaths accumulate in the journal
            // until quarantine).
            for plan in &self.losses {
                if done >= plan.after_units
                    && alive.contains(&plan.node)
                    && !lost.contains(&plan.node)
                {
                    alive.retain(|&id| id != plan.node);
                    lost.push(plan.node);
                    if alive.is_empty() {
                        break;
                    }
                    // Drain the dead node's queue round-robin onto survivors.
                    let pending: Vec<usize> =
                        (i..n).filter(|&u| owner[u] == plan.node).collect();
                    for (k, &u) in pending.iter().enumerate() {
                        owner[u] = alive[k % alive.len()];
                    }
                    let loss = NodeLoss {
                        node: plan.node,
                        completed: completed_by.get(&plan.node).copied().unwrap_or(0),
                        reassigned: pending.len(),
                    };
                    if let Some(j) = &journal {
                        j.append(&JournalRecord::NodeLost {
                            node: loss.node,
                            completed: loss.completed,
                            reassigned: loss.reassigned,
                        });
                    }
                    obs::instant(
                        "node",
                        "lost",
                        vec![
                            obs::i("node", loss.node as i64),
                            obs::i("completed", loss.completed as i64),
                            obs::i("reassigned", loss.reassigned as i64),
                        ],
                    );
                    losses_hit.push(loss);
                }
            }
            if alive.is_empty() {
                halted = true;
                break;
            }
            let meta = &metas[i];
            // Resume: a unit already completed in the journal keeps its
            // recorded row and node attribution without re-running.
            if let Some(c) = resume
                .as_ref()
                .and_then(|r| r.completed.get(&(meta.name.clone(), meta.language)))
            {
                let node = c.node.unwrap_or(owner[i]);
                if obs::active() {
                    obs::instant(
                        "case",
                        &meta.name,
                        vec![
                            obs::s("lang", meta.language.to_string()),
                            obs::s("source", "cached_resume"),
                            obs::s("status", c.result.status.label()),
                            obs::i("node", node as i64),
                        ],
                    );
                }
                rows.push(SweepRow {
                    unit: i,
                    node,
                    result: c.result.clone(),
                });
                *completed_by.entry(node).or_insert(0) += 1;
                cached += 1;
                done += 1;
                continue;
            }
            if self.policy.halt_after.is_some_and(|h| executed >= h) {
                halted = true;
                break;
            }
            let node_id = owner[i];
            let node = cluster
                .nodes
                .iter()
                .find(|nd| nd.id == node_id)
                .expect("owner is a cluster node");
            let compiler = node.stacks[0].compiler(node.fault);
            obs::instant("unit", "assign", vec![obs::i("node", node_id as i64)]);
            // The inner executor installs its own per-job scopes on this
            // thread; release the sweep's unit scope first.
            drop(tguard);
            if let Some(j) = &journal {
                j.append(&JournalRecord::AttemptStart {
                    name: meta.name.clone(),
                    language: meta.language,
                    attempt: 0,
                });
            }
            let started = Instant::now();
            let (ci, lang) = (i / self.config.languages.len(), meta.language);
            let unit_meta = [meta.clone()];
            let result = inner
                .run_jobs_with(&unit_meta, |_, attempt| {
                    let cp = CasePolicy {
                        step_limit: self.policy.step_limit,
                        run_index_base: attempt as u64 * ATTEMPT_STRIDE,
                        exec_mode: self.policy.exec_mode,
                        memo: true,
                    };
                    run_case_with(&cases[ci], &compiler, lang, &cp)
                })
                .remove(0);
            if let Some(j) = &journal {
                j.append(&JournalRecord::CaseDone {
                    result: result.clone(),
                    node: Some(node_id),
                    duration_ms: started.elapsed().as_millis() as u64,
                });
            }
            rows.push(SweepRow {
                unit: i,
                node: node_id,
                result,
            });
            *completed_by.entry(node_id).or_insert(0) += 1;
            executed += 1;
            done += 1;
        }
        rows.sort_by_key(|r| r.unit);
        {
            let _g = obs::scope(&self.policy.recorder, trun, obs::PART_POST, 0, 0);
            obs::mark(
                obs::Phase::End,
                "sweep",
                &scope,
                vec![
                    obs::i("executed", executed as i64),
                    obs::i("cached", cached as i64),
                    obs::i("halted", halted as i64),
                ],
            );
        }
        Ok(SweepOutcome {
            scope,
            total_units: n,
            rows,
            losses: losses_hit,
            quarantined_prior,
            newly_quarantined,
            executed,
            cached,
            halted,
        })
    }
}

/// One unit's outcome: which node ran it and what the harness concluded.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Unit index in schedule order.
    pub unit: usize,
    /// Executing node.
    pub node: u32,
    /// The harness verdict.
    pub result: CaseResult,
}

/// A node loss the sweep absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLoss {
    /// The node that died.
    pub node: u32,
    /// Units it had completed.
    pub completed: usize,
    /// Queued units drained onto survivors.
    pub reassigned: usize,
}

/// The full outcome of a (possibly resumed, possibly halted) sweep.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Scope label (also the journal meta scope).
    pub scope: String,
    /// Total units scheduled.
    pub total_units: usize,
    /// Completed unit rows, in unit order.
    pub rows: Vec<SweepRow>,
    /// Node losses absorbed this run.
    pub losses: Vec<NodeLoss>,
    /// Nodes quarantined by earlier runs of this journal.
    pub quarantined_prior: Vec<u32>,
    /// Nodes newly quarantined at the start of this run.
    pub newly_quarantined: Vec<u32>,
    /// Units executed this run.
    pub executed: usize,
    /// Units replayed from the journal.
    pub cached: usize,
    /// Whether the sweep stopped early (halt drill, or every node died).
    pub halted: bool,
}

impl SweepOutcome {
    /// Pass rate over completed, counted units, percent.
    pub fn pass_rate(&self) -> f64 {
        let counted: Vec<_> = self
            .rows
            .iter()
            .filter(|r| r.result.status.counted())
            .collect();
        if counted.is_empty() {
            return 100.0;
        }
        counted.iter().filter(|r| r.result.passed()).count() as f64 / counted.len() as f64 * 100.0
    }

    /// Render the operator-facing sweep report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Cluster sweep — {}", self.scope);
        let _ = writeln!(
            s,
            "{} of {} unit(s) complete ({} executed, {} resumed from journal), pass rate {:.1}%",
            self.rows.len(),
            self.total_units,
            self.executed,
            self.cached,
            self.pass_rate()
        );
        for q in &self.quarantined_prior {
            let _ = writeln!(s, "quarantined (prior run): nid{q:05}");
        }
        for q in &self.newly_quarantined {
            let _ = writeln!(s, "QUARANTINED: nid{q:05} (repeat offender — excluded)");
        }
        for l in &self.losses {
            let _ = writeln!(
                s,
                "NODE LOST: nid{:05} after {} unit(s); {} queued unit(s) drained to survivors",
                l.node, l.completed, l.reassigned
            );
        }
        if self.halted {
            let _ = writeln!(s, "SWEEP HALTED EARLY — journal holds the partial state");
        }
        for r in &self.rows {
            let _ = writeln!(
                s,
                "nid{:05} {:<36} ({}) {}",
                r.node,
                r.result.feature.as_str(),
                r.result.language,
                r.result.status
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_validation::{MemoryJournal, Replay};
    use std::sync::Arc;

    fn mini_suite() -> Vec<TestCase> {
        acc_testsuite::full_suite()
            .into_iter()
            .filter(|c| {
                matches!(
                    c.feature.as_str(),
                    "loop" | "parallel.async" | "update.host"
                )
            })
            .collect()
    }

    #[test]
    fn node_count_round_trips_through_the_scope_label() {
        let cluster = SimulatedCluster::titan(7, &[]);
        let scope = ClusterSweep::scope(&cluster);
        assert_eq!(ClusterSweep::nodes_in_scope(&scope), Some(7));
        assert_eq!(ClusterSweep::nodes_in_scope("not a sweep scope"), None);
        assert_eq!(ClusterSweep::nodes_in_scope("x sweep (many nodes)"), None);
    }

    #[test]
    fn healthy_sweep_distributes_round_robin() {
        let cluster = SimulatedCluster::titan(3, &[]);
        let out = ClusterSweep::new(mini_suite())
            .run(&cluster)
            .expect("sweep runs");
        assert_eq!(out.rows.len(), out.total_units);
        assert!(!out.halted);
        assert_eq!(out.pass_rate(), 100.0);
        // Units go to nodes 0,1,2,0,1,2,…
        for r in &out.rows {
            assert_eq!(r.node as usize, r.unit % 3, "unit {}", r.unit);
        }
    }

    #[test]
    fn node_loss_drains_queue_onto_survivors() {
        let cluster = SimulatedCluster::titan(3, &[]);
        let journal = Arc::new(MemoryJournal::default());
        let sweep = ClusterSweep::new(mini_suite())
            .with_policy(ExecutorPolicy::new().with_journal(journal.clone()))
            .with_losses(vec![LossPlan {
                node: 1,
                after_units: 2,
            }]);
        let out = sweep.run(&cluster).expect("sweep runs");
        assert_eq!(out.rows.len(), out.total_units, "no unit was dropped");
        assert_eq!(out.losses.len(), 1);
        assert_eq!(out.losses[0].node, 1);
        assert!(out.losses[0].reassigned > 0);
        // Node 1 ran nothing after the loss point.
        for r in out.rows.iter().filter(|r| r.unit >= 2) {
            assert_ne!(r.node, 1, "unit {} ran on the dead node", r.unit);
        }
        // The loss is durable: the journal replays with one death recorded.
        let replay = Replay::from_text(&journal.text());
        assert_eq!(replay.node_deaths.get(&1), Some(&1));
        // Row content matches a loss-free sweep (scheduling degrades, the
        // verdicts don't).
        let clean = ClusterSweep::new(mini_suite())
            .run(&cluster)
            .expect("clean sweep");
        for (a, b) in out.rows.iter().zip(&clean.rows) {
            assert_eq!(a.result.status, b.result.status, "unit {}", a.unit);
        }
    }

    #[test]
    fn halted_sweep_resumes_to_same_rows() {
        let cluster = SimulatedCluster::titan(2, &[]);
        let journal = Arc::new(MemoryJournal::default());
        let halted = ClusterSweep::new(mini_suite())
            .with_policy(
                ExecutorPolicy::new()
                    .with_journal(journal.clone())
                    .with_halt_after(3),
            )
            .run(&cluster)
            .expect("halted sweep");
        assert!(halted.halted);
        assert_eq!(halted.executed, 3);
        let replay = Replay::from_text(&journal.text());
        assert_eq!(replay.completed_count(), 3);
        let resumed = ClusterSweep::new(mini_suite())
            .with_policy(ExecutorPolicy::new().with_resume(Arc::new(replay)))
            .run(&cluster)
            .expect("resumed sweep");
        assert!(!resumed.halted);
        assert_eq!(resumed.cached, 3);
        let clean = ClusterSweep::new(mini_suite()).run(&cluster).expect("clean");
        assert_eq!(resumed.rows.len(), clean.rows.len());
        for (a, b) in resumed.rows.iter().zip(&clean.rows) {
            assert_eq!(a.node, b.node, "unit {}", a.unit);
            assert_eq!(a.result, b.result, "unit {}", a.unit);
        }
    }

    #[test]
    fn repeat_deaths_quarantine_the_node() {
        let cluster = SimulatedCluster::titan(3, &[]);
        let journal = Arc::new(MemoryJournal::default());
        let lose_1 = vec![LossPlan {
            node: 1,
            after_units: 1,
        }];
        // Run 1: node 1 dies, sweep halts partway (so a resume has work).
        ClusterSweep::new(mini_suite())
            .with_policy(
                ExecutorPolicy::new()
                    .with_journal(journal.clone())
                    .with_halt_after(2),
            )
            .with_losses(lose_1.clone())
            .run(&cluster)
            .expect("run 1");
        // Run 2 (resume): node 1 dies again → 2 journal-lifetime deaths.
        let replay = Replay::from_text(&journal.text());
        assert_eq!(replay.node_deaths.get(&1), Some(&1));
        ClusterSweep::new(mini_suite())
            .with_policy(
                ExecutorPolicy::new()
                    .with_journal(journal.clone())
                    .with_resume(Arc::new(replay))
                    .with_halt_after(2),
            )
            .with_losses(lose_1.clone())
            .run(&cluster)
            .expect("run 2");
        // Run 3 (resume): two deaths on record → quarantined at startup.
        let replay = Replay::from_text(&journal.text());
        assert_eq!(replay.node_deaths.get(&1), Some(&2));
        let out = ClusterSweep::new(mini_suite())
            .with_policy(
                ExecutorPolicy::new()
                    .with_journal(journal.clone())
                    .with_resume(Arc::new(replay)),
            )
            .with_losses(lose_1)
            .run(&cluster)
            .expect("run 3");
        assert_eq!(out.newly_quarantined, vec![1]);
        assert!(out.losses.is_empty(), "a quarantined node cannot die again");
        assert!(!out.halted);
        assert_eq!(out.rows.len(), out.total_units);
        for r in &out.rows {
            assert_ne!(r.node, 1, "unit {} scheduled on quarantined node", r.unit);
        }
        // And the quarantine itself is durable.
        let replay = Replay::from_text(&journal.text());
        assert!(replay.quarantined.contains(&1));
        let render = out.render();
        assert!(render.contains("QUARANTINED: nid00001"), "{render}");
    }

    #[test]
    fn resume_scope_mismatch_is_rejected() {
        let journal = Arc::new(MemoryJournal::default());
        let two = SimulatedCluster::titan(2, &[]);
        ClusterSweep::new(mini_suite())
            .with_policy(
                ExecutorPolicy::new()
                    .with_journal(journal.clone())
                    .with_halt_after(1),
            )
            .run(&two)
            .expect("run");
        let replay = Replay::from_text(&journal.text());
        let three = SimulatedCluster::titan(3, &[]);
        let err = ClusterSweep::new(mini_suite())
            .with_policy(ExecutorPolicy::new().with_resume(Arc::new(replay)))
            .run(&three)
            .expect_err("scope mismatch must be rejected");
        assert!(err.contains("recorded for"), "{err}");
    }

    #[test]
    fn losing_every_node_halts_instead_of_panicking() {
        let cluster = SimulatedCluster::titan(2, &[]);
        let out = ClusterSweep::new(mini_suite())
            .with_losses(vec![
                LossPlan {
                    node: 0,
                    after_units: 1,
                },
                LossPlan {
                    node: 1,
                    after_units: 1,
                },
            ])
            .run(&cluster)
            .expect("sweep runs");
        assert!(out.halted);
        assert!(out.rows.len() < out.total_units);
    }
}

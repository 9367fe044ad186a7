//! Harness runs: sample random nodes, validate every stack.

use crate::cluster::{Node, SimulatedCluster, SoftwareStack};
use acc_spec::Language;
use acc_validation::{Campaign, Executor, ExecutorPolicy, SuiteConfig, TestCase};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::fmt::Write as _;

/// Result of validating one stack on one node.
#[derive(Debug)]
pub struct StackResult {
    /// The node id.
    pub node: u32,
    /// Stack label.
    pub stack: String,
    /// Whether the node carries a fault (known to the simulation, *not* to
    /// the harness — the harness's job is to discover it).
    pub node_faulty: bool,
    /// Pass rate over both languages, percent.
    pub pass_rate: f64,
    /// Failing feature ids.
    pub failures: Vec<String>,
    /// Features whose verdict flipped across retry attempts — the signature
    /// of a transient node fault rather than a compiler bug.
    pub flaky: Vec<String>,
}

/// One scheduled harness run over the cluster.
#[derive(Debug)]
pub struct HarnessRun {
    /// The suite used for node validation (often a fast subset).
    pub suite: Vec<TestCase>,
    /// Suite configuration.
    pub config: SuiteConfig,
    /// How many random nodes each run samples.
    pub nodes_per_run: usize,
    /// Executor policy for each stack validation (retries turn transient
    /// node faults into `Flaky` classifications instead of hard failures).
    pub policy: ExecutorPolicy,
}

/// The full report of a harness run.
#[derive(Debug)]
pub struct HarnessReport {
    /// Sampled node ids, in draw order.
    pub sampled: Vec<u32>,
    /// Per-stack results.
    pub results: Vec<StackResult>,
}

impl HarnessRun {
    /// A run configuration over the given suite.
    pub fn new(suite: Vec<TestCase>, nodes_per_run: usize) -> Self {
        HarnessRun {
            suite,
            config: SuiteConfig::default(),
            nodes_per_run,
            policy: ExecutorPolicy::default(),
        }
    }

    /// Replace the executor policy.
    pub fn with_policy(mut self, policy: ExecutorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Execute: draw `nodes_per_run` distinct random nodes (seeded — harness
    /// runs are reproducible) and validate every stack on each.
    pub fn execute(&self, cluster: &SimulatedCluster, seed: u64) -> HarnessReport {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<usize> = (0..cluster.nodes.len()).collect();
        ids.shuffle(&mut rng);
        ids.truncate(self.nodes_per_run.min(cluster.nodes.len()));
        let mut results = Vec::new();
        let mut sampled = Vec::new();
        for idx in ids {
            let node = &cluster.nodes[idx];
            sampled.push(node.id);
            for stack in &node.stacks {
                results.push(self.validate_stack(node, stack));
            }
        }
        HarnessReport { sampled, results }
    }

    fn validate_stack(&self, node: &Node, stack: &SoftwareStack) -> StackResult {
        let compiler = stack.compiler(node.fault);
        let campaign = Campaign::new(self.suite.clone()).with_config(self.config.clone());
        let run = Executor::new(self.policy.clone()).run_suite(&campaign, &compiler);
        let mut counted = 0usize;
        let mut passed = 0usize;
        let mut failures = Vec::new();
        let mut flaky = Vec::new();
        for lang in [Language::C, Language::Fortran] {
            for r in run.counted(lang) {
                counted += 1;
                if matches!(r.status, acc_validation::TestStatus::Flaky) {
                    flaky.push(format!("{} ({lang})", r.feature));
                }
                if r.passed() {
                    passed += 1;
                } else {
                    failures.push(format!("{} ({lang})", r.feature));
                }
            }
        }
        let pass_rate = if counted == 0 {
            100.0
        } else {
            passed as f64 / counted as f64 * 100.0
        };
        StackResult {
            node: node.id,
            stack: stack.label(),
            node_faulty: node.fault.is_some(),
            pass_rate,
            failures,
            flaky,
        }
    }
}

impl HarnessReport {
    /// Nodes whose pass rate fell below `threshold` on any stack — the list
    /// an operator would drain.
    pub fn suspect_nodes(&self, threshold: f64) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .results
            .iter()
            .filter(|r| r.pass_rate < threshold)
            .map(|r| r.node)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Nodes with any flaky result — hard failures point at the compiler,
    /// flakes point at the node's hardware/interconnect, so operators triage
    /// them separately.
    pub fn flaky_nodes(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .results
            .iter()
            .filter(|r| !r.flaky.is_empty())
            .map(|r| r.node)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Render the Fig. 13-style node × stack matrix.
    pub fn matrix(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{:<8} {:<28} {:>9}  failures", "node", "stack", "pass%");
        for r in &self.results {
            let mut notes = if r.failures.is_empty() {
                "-".to_string()
            } else {
                r.failures.join(", ")
            };
            if !r.flaky.is_empty() {
                notes.push_str(&format!("  [flaky: {}]", r.flaky.join(", ")));
            }
            let _ = writeln!(
                s,
                "nid{:05} {:<28} {:>8.1}%  {}",
                r.node, r.stack, r.pass_rate, notes
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NodeFault;

    /// A fast three-test subset for harness unit tests.
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
    fn sampling_is_seeded_and_distinct() {
        let cluster = SimulatedCluster::titan(32, &[]);
        let run = HarnessRun::new(mini_suite(), 4);
        let a = run.execute(&cluster, 42);
        let b = run.execute(&cluster, 42);
        assert_eq!(a.sampled, b.sampled, "same seed, same draw");
        let c = run.execute(&cluster, 43);
        assert_ne!(a.sampled, c.sampled, "different seed, different draw");
        let mut uniq = a.sampled.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4);
    }

    #[test]
    fn healthy_titan_passes_everywhere() {
        let cluster = SimulatedCluster::titan(4, &[]);
        let run = HarnessRun::new(mini_suite(), 4);
        let report = run.execute(&cluster, 7);
        assert_eq!(report.results.len(), 8); // 4 nodes × 2 stacks
                                             // Cray's latest release passes these three features.
        for r in &report.results {
            assert_eq!(r.pass_rate, 100.0, "{}: {:?}", r.stack, r.failures);
        }
        assert!(report.suspect_nodes(99.0).is_empty());
    }

    #[test]
    fn faulty_node_is_discovered() {
        let faults = [(2u32, NodeFault::StaleRuntime)];
        let cluster = SimulatedCluster::titan(4, &faults);
        let run = HarnessRun::new(mini_suite(), 4);
        let report = run.execute(&cluster, 7);
        let suspects = report.suspect_nodes(99.0);
        assert_eq!(suspects, vec![2]);
        // The matrix names the failing features on the bad node.
        let matrix = report.matrix();
        assert!(matrix.contains("nid00002"), "{matrix}");
        assert!(matrix.contains("parallel.async"), "{matrix}");
    }

    /// Find a fault seed whose transient memcpy failures actually flip a
    /// verdict under retry (the draws are deterministic per seed, so this
    /// scan is itself deterministic — it just saves hard-coding a magic
    /// seed that would silently rot if the draw function ever changed).
    fn flaky_seed(cluster_of: impl Fn(NodeFault) -> SimulatedCluster) -> Option<(u64, Vec<u32>)> {
        for seed in 0..32u64 {
            let cluster = cluster_of(NodeFault::FlakyMemcpy { rate_pct: 35, seed });
            let run =
                HarnessRun::new(mini_suite(), 2).with_policy(ExecutorPolicy::new().with_retries(4));
            let report = run.execute(&cluster, 7);
            let flaky = report.flaky_nodes();
            if !flaky.is_empty() {
                return Some((seed, flaky));
            }
        }
        None
    }

    #[test]
    fn transient_memcpy_fault_classifies_flaky_and_is_deterministic() {
        let mk = |fault| SimulatedCluster::titan(2, &[(1u32, fault)]);
        let (seed, flaky) = flaky_seed(mk).expect("some seed in 0..32 produces a flake");
        assert_eq!(flaky, vec![1], "only the faulty node flakes");
        // Same seed → byte-identical matrix, including under a parallel pool.
        let fault = NodeFault::FlakyMemcpy { rate_pct: 35, seed };
        let run1 =
            HarnessRun::new(mini_suite(), 2).with_policy(ExecutorPolicy::new().with_retries(4));
        let run2 = HarnessRun::new(mini_suite(), 2)
            .with_policy(ExecutorPolicy::new().with_retries(4).with_jobs(4));
        let a = run1.execute(&mk(fault), 7);
        let b = run2.execute(&mk(fault), 7);
        assert_eq!(
            a.matrix(),
            b.matrix(),
            "fault draws are schedule-independent"
        );
        assert!(a.matrix().contains("[flaky:"), "{}", a.matrix());
        // The healthy node never flakes.
        for r in a.results.iter().filter(|r| r.node == 0) {
            assert!(r.flaky.is_empty(), "{}: {:?}", r.stack, r.flaky);
        }
    }

    #[test]
    fn persistent_transient_fault_without_retries_is_a_hard_failure() {
        // With retries disabled the executor cannot observe a verdict flip,
        // so whatever the fault hits stays a hard failure — flake
        // classification is strictly a retry-policy feature.
        let mk = |fault| SimulatedCluster::titan(2, &[(1u32, fault)]);
        let (seed, _) = flaky_seed(mk).expect("some seed in 0..32 produces a flake");
        let fault = NodeFault::FlakyMemcpy { rate_pct: 35, seed };
        let cluster = SimulatedCluster::titan(2, &[(1u32, fault)]);
        let run = HarnessRun::new(mini_suite(), 2); // default policy: no retries
        let report = run.execute(&cluster, 7);
        assert!(report.flaky_nodes().is_empty());
    }

    #[test]
    fn cuda_and_opencl_stacks_both_validated() {
        let cluster = SimulatedCluster::titan(1, &[]);
        let run = HarnessRun::new(mini_suite(), 1);
        let report = run.execute(&cluster, 1);
        let stacks: Vec<&str> = report.results.iter().map(|r| r.stack.as_str()).collect();
        assert!(stacks.iter().any(|s| s.contains("CUDA")));
        assert!(stacks.iter().any(|s| s.contains("OpenCL")));
    }
}

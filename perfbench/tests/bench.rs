//! The benchmark's own checks: each must fire on a wrong answer, the replay
//! must repeat per seed and follow the seed, and the printed metric names
//! must be those of `BENCHMARK.json`.

use bonsai_net::fault::{FaultKind, FaultPlan};
use bonsai_par::pool::ThreadPool;
use bonsai_perfbench::checks::{fingerprint, sampled_forces, ForceErrors};
use bonsai_perfbench::replay::{fidelity, replay, wire_faults};
use bonsai_perfbench::report::{Outcome, RunEnv, END_TO_END, PER_LAYER};
use bonsai_perfbench::spans::Recorder;
use bonsai_perfbench::workload::{cluster_config, ScratchDir};
use bonsai_sim::Cluster;
use bonsai_tree::InteractionCounts;
use std::collections::BTreeMap;
use std::path::Path;

const N: usize = 3000;
const RANKS: usize = 4;

fn cluster(seed: u64, plan: FaultPlan) -> Cluster {
    let ic = bonsai_ic::MilkyWayModel::paper().generate(N, seed);
    Cluster::with_faults(ic, RANKS, cluster_config(N, 2), plan, None)
}

/// Step, replay, and return the replay's per-rank counts after checking
/// them against the step.
fn replayed_counts(c: &mut Cluster) -> (Vec<InteractionCounts>, Vec<InteractionCounts>, usize) {
    c.step();
    let pool = ThreadPool::new(2);
    let faults = wire_faults(c);
    let mut rec = Recorder::new();
    let r = pool
        .install(|| replay(c, &faults, &mut rec, "replay"))
        .expect("replay runs");
    fidelity(c, &r).expect("replay does the step's work");
    assert!(!rec.is_empty());
    (r.local, r.lets, r.lets_built)
}

#[test]
fn force_check_fires_on_a_scaled_acceleration() {
    let mut c = cluster(3, FaultPlan::new(0));
    let pool = ThreadPool::new(2);
    let mut good = ForceErrors::default();
    let mut one_wrong = ForceErrors::default();
    for state in 0..3u64 {
        if state > 0 {
            c.step();
        }
        let (test, reference) = pool.install(|| sampled_forces(&c, 1000, state));
        good.add(&test, &reference);
        let mut wrong = test.clone();
        if state == 1 {
            for a in &mut wrong.acc {
                *a *= 1.01;
            }
        }
        one_wrong.add(&wrong, &reference);
    }
    let ok = good.check();
    assert!(ok.violation.is_none(), "{:?}", ok.violation);
    assert!(ok.p99 > 0.0);
    assert_eq!((good.states(), ok.sample), (3, 3000));
    assert!(
        one_wrong.check().violation.is_some(),
        "one scaled state of three fails the pooled check"
    );
}

#[test]
fn replay_counts_repeat_per_seed_and_differ_across_seeds() {
    let a = replayed_counts(&mut cluster(7, FaultPlan::new(0)));
    let b = replayed_counts(&mut cluster(7, FaultPlan::new(0)));
    let c = replayed_counts(&mut cluster(8, FaultPlan::new(0)));
    assert_eq!(a, b);
    assert_ne!(a.0, c.0);
    assert!(a.2 > 0, "a four-rank Milky Way builds dedicated LETs");
}

#[test]
fn replay_follows_lost_lets_and_retransmissions() {
    let plan = FaultPlan::new(11)
        .with_rate(FaultKind::Drop, 0.2)
        .with_rate(FaultKind::Corrupt, 0.05);
    let mut c = cluster(5, plan);
    let mut degraded = 0;
    for _ in 0..4 {
        replayed_counts(&mut c);
        degraded += c.last_measurements.degraded_lets;
    }
    assert!(degraded > 0, "the plan loses some dedicated LETs");
}

#[test]
fn fidelity_gate_fires_on_different_work() {
    let mut c = cluster(9, FaultPlan::new(0));
    c.step();
    let pool = ThreadPool::new(2);
    let faults = wire_faults(&c);
    let mut rec = Recorder::new();
    let mut r = pool
        .install(|| replay(&c, &faults, &mut rec, "replay"))
        .unwrap();
    r.lets[1].pc += 1;
    assert!(fidelity(&c, &r).is_err());
    r.lets[1].pc -= 1;
    r.lets_built += 1;
    assert!(fidelity(&c, &r).is_err());
}

#[test]
fn conservation_fingerprint_sees_a_swapped_id() {
    let c = cluster(2, FaultPlan::new(0));
    let before = fingerprint(&c);
    let mut ic = bonsai_ic::MilkyWayModel::paper().generate(N, 2);
    ic.id[0] = ic.id[1];
    let dup = Cluster::new(ic, RANKS, cluster_config(N, 2));
    assert_ne!(fingerprint(&dup), before);
    assert_eq!(fingerprint(&cluster(2, FaultPlan::new(0))), before);
}

#[test]
fn checkpoint_dirs_are_unique_and_removed() {
    let parent = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
    let (a, b) = (
        ScratchDir::new(&parent).unwrap(),
        ScratchDir::new(&parent).unwrap(),
    );
    assert_ne!(a.path(), b.path());
    let kept = a.path().to_path_buf();
    drop(a);
    assert!(!kept.exists());
    drop(b);
    let _ = std::fs::remove_dir_all(&parent);
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`, read with a
/// plain scan (the file's layout is one metric object per line).
fn benchmark_json_section(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn names(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    assert_eq!(benchmark_json_section("end_to_end"), names(END_TO_END));
    assert_eq!(benchmark_json_section("per_layer"), names(PER_LAYER));
}

#[test]
fn result_line_prints_every_metric_of_the_mode() {
    for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
        let outcome = Outcome {
            workload: "mw16k_r16",
            trace,
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: table
                .iter()
                .map(|(n, _)| (*n, 0.5))
                .collect::<BTreeMap<_, _>>(),
            failures: Vec::new(),
            notes: Vec::new(),
            env: RunEnv {
                available_parallelism: 2,
                lanes: 2,
                cpu_model: "test".into(),
                rustc: "rustc",
                calib_gflops: 1.0,
            },
        };
        let text = outcome.render();
        let last = text.lines().last().unwrap();
        assert!(last
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        let printed = last.matches("\"value\"").count();
        assert_eq!(printed, table.len());
        for (name, unit) in table {
            assert!(last.contains(&format!(
                "\"{name}\": {{\"value\": 0.5, \"unit\": \"{unit}\"}}"
            )));
        }
    }
}

//! The three seeded Milky Way workloads and everything they share: the
//! physics setup, the fault plan, the observers, and one operation of the
//! closed loop.

use bonsai_ic::MilkyWayModel;
use bonsai_net::fault::{FaultKind, FaultPlan};
use bonsai_obs::stream::SubscriberConfig;
use bonsai_sim::checkpoint::{read_checkpoint_full, write_checkpoint};
use bonsai_sim::{Cluster, ClusterConfig, LongRunConfig, StepBreakdown, StreamConfig};
use bonsai_tree::Particles;
use bonsai_util::units;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Opening angle of every workload (the paper's production value).
pub const THETA: f64 = 0.4;
/// Drop rate of the chaos workload's fault plan.
pub const CHAOS_DROP_RATE: f64 = 0.02;
/// Corrupt rate of the chaos workload's fault plan.
pub const CHAOS_CORRUPT_RATE: f64 = 0.01;
/// The chaos workload writes and reads back a checkpoint every this many
/// completed steps.
pub const CHECKPOINT_EVERY: u64 = 8;
/// Ring capacity of the chaos workload's one stream subscriber; it is
/// drained every step, so nothing droppable should be lost.
const SUBSCRIBER_CAPACITY: usize = 64;

/// One seeded input set of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 65,536 particles on one rank: the local walk is almost the whole
    /// step and no fabric, LET or envelope work runs.
    Mw64kR1,
    /// 16,384 particles on 16 ranks: the LET walk and the serial wire path
    /// dominate.
    Mw16kR16,
    /// `Mw16kR16` with message faults, observers and periodic checkpoints.
    Mw16kR16Chaos,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::Mw64kR1,
        Workload::Mw16kR16,
        Workload::Mw16kR16Chaos,
    ];

    /// Command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mw64kR1 => "mw64k_r1",
            Workload::Mw16kR16 => "mw16k_r16",
            Workload::Mw16kR16Chaos => "mw16k_r16_chaos",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Total particles.
    pub fn particles(self) -> usize {
        match self {
            Workload::Mw64kR1 => 65_536,
            Workload::Mw16kR16 | Workload::Mw16kR16Chaos => 16_384,
        }
    }

    /// Logical ranks.
    pub fn ranks(self) -> usize {
        match self {
            Workload::Mw64kR1 => 1,
            Workload::Mw16kR16 | Workload::Mw16kR16Chaos => 16,
        }
    }

    /// Message faults, observers and checkpoints are on.
    pub fn chaos(self) -> bool {
        self == Workload::Mw16kR16Chaos
    }

    /// Untimed steps before measuring (first-touch allocation, pool
    /// start-up, the first rebalance).
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::Mw64kR1 => 1,
            Workload::Mw16kR16 | Workload::Mw16kR16Chaos => 2,
        }
    }

    /// Paired observers-on/off steps of the traced run's overhead probe;
    /// fewer on the workload whose step is slowest.
    pub fn observer_pairs(self) -> usize {
        match self {
            Workload::Mw64kR1 => 3,
            Workload::Mw16kR16 | Workload::Mw16kR16Chaos => 5,
        }
    }
}

/// The physics setup of the streaming bench: G in galactic units, ε scaled
/// by N^(-1/3), dt = 3 Myr, θ = 0.4 (the walk always uses quadrupoles).
pub fn cluster_config(n: usize, lanes: usize) -> ClusterConfig {
    ClusterConfig {
        theta: THETA,
        g: units::G,
        eps: 0.1 * (2.0e5_f64 / n as f64).powf(1.0 / 3.0),
        dt: units::myr_to_internal(3.0),
        threads: Some(lanes),
        ..ClusterConfig::default()
    }
}

/// The seeded initial conditions: the program receives only these.
pub fn initial_conditions(w: Workload, seed: u64) -> Particles {
    MilkyWayModel::paper().generate(w.particles(), seed)
}

/// The chaos workload's message-fault plan. Its seed is derived from the
/// workload seed so that the faults and the particles are independent
/// draws. Crash faults are left out: a rollback would make step times
/// bimodal.
pub fn fault_plan(w: Workload, seed: u64) -> FaultPlan {
    if !w.chaos() {
        return FaultPlan::new(0);
    }
    FaultPlan::new(seed ^ 0x9e37_79b9_7f4a_7c15)
        .with_rate(FaultKind::Drop, CHAOS_DROP_RATE)
        .with_rate(FaultKind::Corrupt, CHAOS_CORRUPT_RATE)
}

/// Attach the long-run monitor and a stream tap with one subscriber.
pub fn enable_observers(cluster: &mut Cluster) {
    cluster.enable_longrun(LongRunConfig::default());
    cluster.enable_streaming(StreamConfig {
        subscribers: vec![SubscriberConfig::new("bench", SUBSCRIBER_CAPACITY)],
        ..StreamConfig::default()
    });
}

/// Distribute `ic` and evaluate the initial forces (`Cluster::new` /
/// `with_faults`); observers are attached when `observers` is set.
pub fn build_cluster(
    w: Workload,
    ic: Particles,
    seed: u64,
    lanes: usize,
    observers: bool,
) -> Cluster {
    let cfg = cluster_config(w.particles(), lanes);
    let mut cluster = Cluster::with_faults(ic, w.ranks(), cfg, fault_plan(w, seed), None);
    if observers {
        enable_observers(&mut cluster);
    }
    cluster
}

/// A set-up cluster and the time its initial conditions took.
pub struct Setup {
    /// The cluster, initial forces evaluated.
    pub cluster: Cluster,
    /// Seconds generating the initial conditions.
    pub ic_s: f64,
}

/// One timed set-up of `w`.
pub fn setup(w: Workload, seed: u64, lanes: usize) -> Setup {
    let t0 = Instant::now();
    let ic = initial_conditions(w, seed);
    let t1 = Instant::now();
    Setup {
        cluster: build_cluster(w, ic, seed, lanes, w.chaos()),
        ic_s: (t1 - t0).as_secs_f64(),
    }
}

/// Seconds each part of one operation took.
#[derive(Clone, Debug, Default)]
pub struct OpTimes {
    /// `Cluster::step`.
    pub step_s: f64,
    /// Draining the stream subscriber (chaos only).
    pub poll_s: f64,
    /// Checkpoint write and verified read-back, when this step wrote one.
    pub checkpoint: Option<CheckpointTimes>,
    /// The step's modelled breakdown (model time, never a speed).
    pub breakdown: Option<StepBreakdown>,
}

impl OpTimes {
    /// Wall-clock of the whole operation.
    pub fn total_s(&self) -> f64 {
        self.step_s
            + self.poll_s
            + self
                .checkpoint
                .as_ref()
                .map_or(0.0, |c| c.write_s + c.read_s)
    }
}

/// One checkpoint write and read-back.
#[derive(Clone, Debug)]
pub struct CheckpointTimes {
    /// Seconds in `write_checkpoint`.
    pub write_s: f64,
    /// Seconds in `read_checkpoint_full`.
    pub read_s: f64,
    /// Bytes on disk after the write.
    pub bytes: u64,
}

/// One operation of the closed loop: a step, plus on the chaos workload the
/// subscriber drain and, every [`CHECKPOINT_EVERY`] steps, a checkpoint
/// write and verified read-back into `ckpt_dir`.
pub fn run_op(w: Workload, cluster: &mut Cluster, ckpt_dir: &Path) -> Result<OpTimes, String> {
    let t0 = Instant::now();
    let breakdown = cluster.step();
    let mut op = OpTimes {
        step_s: t0.elapsed().as_secs_f64(),
        breakdown: Some(breakdown),
        ..OpTimes::default()
    };
    if !w.chaos() {
        return Ok(op);
    }
    let t1 = Instant::now();
    let tap = cluster.stream_mut().ok_or("stream tap missing")?;
    tap.bus_mut().poll(0, usize::MAX);
    op.poll_s = t1.elapsed().as_secs_f64();
    if cluster.step_count().is_multiple_of(CHECKPOINT_EVERY) {
        op.checkpoint = Some(checkpoint_round_trip(cluster, ckpt_dir)?);
    }
    Ok(op)
}

/// Write a checkpoint of `cluster` into `dir` and read it back, checking
/// that the read-back holds the cluster's particle count, time and step.
pub fn checkpoint_round_trip(cluster: &Cluster, dir: &Path) -> Result<CheckpointTimes, String> {
    let t0 = Instant::now();
    write_checkpoint(cluster, dir).map_err(|e| format!("checkpoint write: {e}"))?;
    let t1 = Instant::now();
    let ck = read_checkpoint_full(dir).map_err(|e| format!("checkpoint read: {e}"))?;
    let t2 = Instant::now();
    if ck.particles.len() != cluster.total_particles()
        || ck.time != cluster.time()
        || ck.steps != cluster.step_count()
    {
        return Err(format!(
            "checkpoint read-back mismatch: {} particles, t = {}, step {} against {}, {}, {}",
            ck.particles.len(),
            ck.time,
            ck.steps,
            cluster.total_particles(),
            cluster.time(),
            cluster.step_count()
        ));
    }
    let bytes = std::fs::read_dir(dir)
        .map_err(|e| format!("checkpoint dir: {e}"))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    Ok(CheckpointTimes {
        write_s: (t1 - t0).as_secs_f64(),
        read_s: (t2 - t1).as_secs_f64(),
        bytes,
    })
}

/// A checkpoint directory unique to this process (pid plus a counter),
/// removed when dropped. Unlike a shared `temp_dir()/…_{seed}` path, two
/// concurrent runs with one seed cannot race on it.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// A fresh directory under `parent`.
    pub fn new(parent: &Path) -> std::io::Result<ScratchDir> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!("ckpt-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

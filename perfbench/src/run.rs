//! The two kinds of run: the end-to-end closed loop (`--trace 0`) and the
//! traced run with its per-layer replay (`--trace 1`).

use crate::checks::{self, ForceErrors, IdFingerprint, ProgramPeak, FORCE_EVERY, FORCE_SAMPLE};
use crate::probe;
use crate::replay::{self, wire_faults};
use crate::report::{Outcome, RunEnv};
use crate::spans::Recorder;
use crate::stats::{median, tail, TAIL_BEYOND};
use crate::workload::{self, run_op, CheckpointTimes, OpTimes, ScratchDir, Workload};
use bonsai_obs::chrome::chrome_trace_json;
use bonsai_par::pool::ThreadPool;
use bonsai_sim::Cluster;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Fewest timed operations of a run, so that `step_s_tail` exists.
pub const MIN_OPS: usize = TAIL_BEYOND + 1;
/// Fewest traced steps of a traced run.
pub const MIN_TRACED: usize = 3;
/// Untraced steps timed in a traced run, the base of `trace.overhead_frac`.
pub const UNTRACED_OPS: usize = 3;
/// A run stops stepping after this many seconds whatever `--seconds` says,
/// so that it ends well inside the 180 s a run may take.
const HARD_CAP_S: f64 = 100.0;
/// Replay fidelity slack: the replay's median may exceed the median step by
/// this share (on one rank the replay times a key pass the step folds into
/// its tree build), and the replay's own time outside its stage spans may
/// be this share of it.
pub const REPLAY_SLACK: f64 = 0.25;

/// One run's settings, from the command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the initial conditions and the fault plan.
    pub seed: u64,
    /// Seconds of stepping to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Directory for checkpoints and the span file.
    pub out_dir: PathBuf,
}

/// Operation bookkeeping and the per-operation checks shared by both runs.
struct Ops {
    w: Workload,
    ids: IdFingerprint,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ops {
    fn new(w: Workload, cluster: &Cluster) -> Ops {
        Ops {
            w,
            ids: checks::fingerprint(cluster),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Run and check one operation. `None` when it panicked or failed a
    /// check; the run then stops stepping, since the state is suspect.
    fn op(&mut self, cluster: &mut Cluster, dir: &Path) -> Option<OpTimes> {
        self.attempted += 1;
        let step = cluster.step_count() + 1;
        let res = catch_unwind(AssertUnwindSafe(|| run_op(self.w, cluster, dir)))
            .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(&*p))))
            .and_then(|op| self.check(cluster).map(|()| op));
        match res {
            Ok(op) => Some(op),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("step {step}: {e}"));
                None
            }
        }
    }

    /// Particle count and ids conserved; on the chaos workload every sealed
    /// flow also has exactly one outcome.
    fn check(&self, cluster: &Cluster) -> Result<(), String> {
        let ids = checks::fingerprint(cluster);
        if ids != self.ids {
            return Err(format!(
                "particles not conserved: {ids:?} against {:?}",
                self.ids
            ));
        }
        if self.w.chaos() {
            let c = cluster.flow_conservation();
            if !c.holds() {
                return Err(format!("flow conservation broken: {c:?}"));
            }
        }
        Ok(())
    }

    /// A failed check outside an operation fails the last operation.
    fn fail(&mut self, why: String) {
        if self.failures.is_empty() {
            self.failed = (self.failed + 1).min(self.attempted.max(1));
        }
        self.failures.push(why);
    }

    fn healthy(&self) -> bool {
        self.failures.is_empty()
    }

    /// Run-end checks: the force errors pooled over the run's sampled states
    /// (the run-end state among them) against the tolerance band, and the
    /// energy drift. Returns `force_err_p99`.
    fn end_checks(
        &mut self,
        cluster: &Cluster,
        forces: &ForceErrors,
        e0: f64,
        notes: &mut Vec<String>,
    ) -> f64 {
        let fc = forces.check();
        notes.push(format!(
            "force_err states={} sample={} median={:e} p95={:e} p99={:e} max={:e} (tolerance_band(0.4, quadrupole))",
            forces.states(), fc.sample, fc.percentiles.median, fc.percentiles.p95, fc.p99, fc.percentiles.max
        ));
        if let Some(v) = fc.violation {
            self.fail(format!("force error outside the tolerance band: {v}"));
        }
        let drift = checks::energy_drift(e0, cluster.energy_report().total());
        let bound = checks::energy_drift_bound(cluster.step_count());
        notes.push(format!(
            "metric energy_drift = {drift} ratio (after {} steps; bound {bound}; checked, not in the result line)",
            cluster.step_count()
        ));
        if drift.is_nan() || drift > bound {
            self.fail(format!("energy drift {drift:e} above {bound:e}"));
        }
        fc.p99
    }

    fn outcome(
        self,
        args: &Args,
        env: RunEnv,
        metrics: BTreeMap<&'static str, f64>,
        notes: Vec<String>,
    ) -> Outcome {
        Outcome {
            workload: args.workload.name(),
            trace: args.trace,
            correct: self.failures.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            failures: self.failures,
            notes,
            env,
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string())
}

/// Flops of the last step at the paper's rates: 23 per p-p and 65 per p-c
/// interaction, local and remote, over every rank.
fn step_flops(cluster: &Cluster) -> u64 {
    let m = &cluster.last_measurements;
    m.counts_local
        .iter()
        .chain(&m.counts_lets)
        .map(|c| c.flops())
        .sum()
}

fn elapsed(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Pool the force errors of `cluster`'s current state, at a sample seeded
/// by the run's seed and the state's number, keeping the sample's memory out
/// of `rss`.
fn sample_forces(
    forces: &mut ForceErrors,
    rss: &mut ProgramPeak,
    cluster: &Cluster,
    seed: u64,
    pool: &ThreadPool,
) {
    let state_seed = seed ^ ((forces.states() as u64) << 40);
    rss.before_sample();
    let (test, reference) =
        pool.install(|| checks::sampled_forces(cluster, FORCE_SAMPLE, state_seed));
    forces.add(&test, &reference);
    rss.after_sample();
}

/// The end-to-end run: set up [`SETUP_REPEATS`] times, warm up, then step
/// in a closed loop for `seconds` of stepping wall-clock and at least
/// [`MIN_OPS`] operations, checking every operation and the run's end, and
/// sampling the force error every [`FORCE_EVERY`] operations (untimed).
pub fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let env = RunEnv::probe();
    let mut notes = Vec::new();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut cluster = None;
    for _ in 0..SETUP_REPEATS {
        drop(cluster.take());
        let t = Instant::now();
        let s = workload::setup(w, args.seed, env.lanes);
        setups.push(elapsed(t));
        cluster = Some(s.cluster);
    }
    let mut cluster = cluster.expect("at least one set-up");
    let dir = ScratchDir::new(&args.out_dir).map_err(|e| format!("checkpoint dir: {e}"))?;
    let e0 = cluster.energy_report().total();
    let mut ops = Ops::new(w, &cluster);
    for _ in 0..w.warmup_ops() {
        if ops.op(&mut cluster, dir.path()).is_none() {
            break;
        }
    }
    let pool = ThreadPool::new(env.lanes);
    let mut forces = ForceErrors::default();
    let mut rss = ProgramPeak::default();
    let mut times = Vec::new();
    let mut flops = 0u64;
    let mut checkpoints = 0;
    let start = Instant::now();
    while ops.healthy() {
        let Some(op) = ops.op(&mut cluster, dir.path()) else {
            break;
        };
        times.push(op.total_s());
        checkpoints += usize::from(op.checkpoint.is_some());
        flops += step_flops(&cluster);
        if times.len() % FORCE_EVERY == 0 {
            sample_forces(&mut forces, &mut rss, &cluster, args.seed, &pool);
        }
        let stepping: f64 = times.iter().sum();
        if (stepping >= args.seconds && times.len() >= MIN_OPS) || elapsed(start) > HARD_CAP_S {
            break;
        }
    }
    if times.len() % FORCE_EVERY != 0 || !ops.healthy() {
        sample_forces(&mut forces, &mut rss, &cluster, args.seed, &pool);
    }
    rss.before_sample();
    let peak_rss_mb = rss.mb();
    let force_err = ops.end_checks(&cluster, &forces, e0, &mut notes);

    let stepping: f64 = times.iter().sum();
    let tail = tail(&times);
    let mut m = BTreeMap::new();
    m.insert("setup_s", median(&setups));
    m.insert("step_s_p50", median(&times));
    m.insert("step_s_tail", tail.map_or(0.0, |t| t.value));
    m.insert(
        "particle_steps_per_s",
        (w.particles() * times.len()) as f64 / stepping,
    );
    m.insert("app_gflops", flops as f64 / stepping / 1e9);
    m.insert("force_err_p99", force_err);
    m.insert("peak_rss_mb", peak_rss_mb);
    notes.push(format!("setup_s samples={setups:?}"));
    match tail {
        Some(t) => notes.push(format!(
            "step_s_tail percentile=p{:.1} samples={} beyond={TAIL_BEYOND}",
            t.percentile, t.samples
        )),
        None => notes.push(format!("step_s_tail undefined: {} samples", times.len())),
    }
    notes.push(format!(
        "ops timed={} warmup={} checkpoints={checkpoints} stepping_s={stepping} particles={} ranks={}",
        times.len(),
        w.warmup_ops(),
        w.particles(),
        w.ranks()
    ));
    Ok(ops.outcome(args, env, m, notes))
}

/// The traced run: time a few untraced steps, then after every traced step
/// replay it twice (at the pool's lanes with spans, and at one lane), gate
/// the replay's fidelity, and finish with the checkpoint, export, kernel
/// and observer probes. Writes the spans to a Perfetto-loadable file.
pub fn traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let env = RunEnv::probe();
    let pool = ThreadPool::new(env.lanes);
    let one_lane = ThreadPool::new(1);
    let mut notes = Vec::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    let s = workload::setup(w, args.seed, env.lanes);
    m.insert("ic.generate_s", s.ic_s);
    let mut cluster = s.cluster;
    let dir = ScratchDir::new(&args.out_dir).map_err(|e| format!("checkpoint dir: {e}"))?;
    let e0 = cluster.energy_report().total();
    let mut ops = Ops::new(w, &cluster);
    for _ in 0..w.warmup_ops() {
        if ops.op(&mut cluster, dir.path()).is_none() {
            break;
        }
    }
    let mut untraced = Vec::new();
    while ops.healthy() && untraced.len() < UNTRACED_OPS {
        let Some(op) = ops.op(&mut cluster, dir.path()) else {
            break;
        };
        untraced.push(op.step_s);
    }

    let mut rec = Recorder::new();
    let mut steps: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut ckpt: Vec<CheckpointTimes> = Vec::new();
    let start = Instant::now();
    while ops.healthy() {
        let op_span = rec.open(cluster.step_count() + 1, "op", None);
        let Some(op) = ops.op(&mut cluster, dir.path()) else {
            break;
        };
        rec.close(op_span);
        let t = rec.start_of(op_span);
        let t = rec.child(op_span, "sim.step", t, op.step_s);
        let mut t = rec.child(op_span, "obs.poll", t, op.poll_s);
        if let Some(c) = &op.checkpoint {
            t = rec.child(op_span, "ckpt.write", t, c.write_s);
            rec.child(op_span, "ckpt.read", t, c.read_s);
            ckpt.push(c.clone());
        }

        let faults = wire_faults(&cluster);
        let lanes_replay = pool.install(|| replay::replay(&cluster, &faults, &mut rec, "replay"));
        let single =
            one_lane.install(|| replay::replay(&cluster, &faults, &mut rec, "replay@1-lane"));
        let (r, r1) = match (lanes_replay, single) {
            (Ok(r), Ok(r1)) => (r, r1),
            (Err(e), _) | (_, Err(e)) => {
                ops.fail(format!("replay of step {}: {e}", cluster.step_count()));
                break;
            }
        };
        if let Err(e) =
            replay::fidelity(&cluster, &r).and_then(|()| replay::fidelity(&cluster, &r1))
        {
            ops.fail(format!(
                "replay fidelity, step {}: {e}",
                cluster.step_count()
            ));
        }
        let replay_s = r.values["sim.replay_s"];
        let self_s = rec.self_time(r.root);
        if self_s > REPLAY_SLACK * replay_s {
            ops.fail(format!(
                "replay of step {} does not telescope: {self_s} s of {replay_s} s outside its stages",
                cluster.step_count()
            ));
        }
        let meas = &cluster.last_measurements;
        let mut v = r.values;
        v.insert("sim.step_s", op.step_s);
        v.insert("sim.unattributed_s", op.step_s - replay_s);
        v.insert(
            "sim.modelled_step_s",
            op.breakdown.as_ref().map_or(0.0, |b| b.total()),
        );
        v.insert("domain.imbalance", meas.imbalance);
        v.insert("net.retransmit_bytes", meas.retransmit_bytes as f64);
        v.insert(
            "net.retransmit_ratio",
            if faults.first_send_bytes > 0 {
                meas.retransmit_bytes as f64 / faults.first_send_bytes as f64
            } else {
                0.0
            },
        );
        v.insert("net.degraded_lets", meas.degraded_lets as f64);
        let walk = |v: &BTreeMap<&str, f64>| v["walk.local_s"] + v["walk.let_s"];
        v.insert("par.walk_speedup", walk(&r1.values) / walk(&v));
        v.insert("par.step_speedup", r1.values["sim.replay_s"] / replay_s);
        steps.push(v);
        if (elapsed(start) >= args.seconds && steps.len() >= MIN_TRACED)
            || elapsed(start) > HARD_CAP_S
        {
            break;
        }
    }
    for key in steps
        .first()
        .map(|s| s.keys().copied().collect::<Vec<_>>())
        .unwrap_or_default()
    {
        let vals: Vec<f64> = steps.iter().map(|s| s[key]).collect();
        m.insert(key, median(&vals));
    }
    let step_med = m.get("sim.step_s").copied().unwrap_or(0.0);
    let replay_med = m.get("sim.replay_s").copied().unwrap_or(0.0);
    if replay_med > (1.0 + REPLAY_SLACK) * step_med {
        ops.fail(format!(
            "replay median {replay_med} s exceeds the step median {step_med} s by more than {REPLAY_SLACK}"
        ));
    }
    m.insert("trace.overhead_frac", step_med / median(&untraced) - 1.0);
    notes.push(format!(
        "traced steps={} untraced={} replay_slack={REPLAY_SLACK} modelled_step_s is model time, never a speed",
        steps.len(),
        untraced.len()
    ));

    // Checkpoint layer: the chaos loop's checkpoints plus one of the final
    // state, on every workload.
    match workload::checkpoint_round_trip(&cluster, dir.path()) {
        Ok(c) => ckpt.push(c),
        Err(e) => ops.fail(e),
    }
    let ckpt_median =
        |f: fn(&CheckpointTimes) -> f64| median(&ckpt.iter().map(f).collect::<Vec<_>>());
    m.insert("ckpt.write_s", ckpt_median(|c| c.write_s));
    m.insert("ckpt.read_s", ckpt_median(|c| c.read_s));
    m.insert("ckpt.bytes", ckpt_median(|c| c.bytes as f64));

    let t = Instant::now();
    black_box(chrome_trace_json(cluster.trace()).len());
    m.insert("obs.trace_export_s", elapsed(t));

    let mut forces = ForceErrors::default();
    sample_forces(
        &mut forces,
        &mut ProgramPeak::default(),
        &cluster,
        args.seed,
        &pool,
    );
    let _ = ops.end_checks(&cluster, &forces, e0, &mut notes);
    drop(cluster);

    let k = probe::kernel_rates();
    m.insert("kernel.pp_batch_per_s", k.pp_per_s);
    m.insert("kernel.pc_per_s", k.pc_per_s);
    m.insert("kernel.pp_ops", k.pp_ops as f64);
    m.insert("kernel.pc_ops", k.pc_ops as f64);
    m.insert("kernel.pp_bytes_computed", k.pp_bytes_computed as f64);
    m.insert("kernel.pc_bytes_computed", k.pc_bytes_computed as f64);

    m.extend(observer_overhead(w, args.seed, env.lanes));
    m.insert("par.lanes", env.lanes as f64);
    m.insert("host.calib_gflops", env.calib_gflops);

    let path = args
        .out_dir
        .join(format!("trace-{}-seed{}.json", w.name(), args.seed));
    std::fs::write(&path, chrome_trace_json(&rec.into_store()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!("spans written to {}", path.display()));
    Ok(ops.outcome(args, env, m, notes))
}

/// Observer overhead, measured: two clusters from the same seed, one with
/// the long-run monitor and a stream tap, one without, stepped in
/// alternating order; the metric is the median of the paired step-time
/// ratios minus one. The tap's own priced estimate is reported beside it.
fn observer_overhead(w: Workload, seed: u64, lanes: usize) -> BTreeMap<&'static str, f64> {
    let ic = workload::initial_conditions(w, seed);
    let mut on = workload::build_cluster(w, ic.clone(), seed, lanes, true);
    let mut off = workload::build_cluster(w, ic, seed, lanes, false);
    let timed = |c: &mut Cluster| {
        let t = Instant::now();
        c.step();
        elapsed(t)
    };
    on.step();
    off.step();
    let mut ratios = Vec::new();
    let mut polls = Vec::new();
    for k in 0..w.observer_pairs() {
        let (t_on, t_off) = if k % 2 == 0 {
            let a = timed(&mut on);
            (a, timed(&mut off))
        } else {
            let b = timed(&mut off);
            (timed(&mut on), b)
        };
        ratios.push(t_on / t_off - 1.0);
        let t = Instant::now();
        let tap = on.stream_mut().expect("observers attached");
        black_box(tap.bus_mut().poll(0, usize::MAX).len());
        polls.push(elapsed(t));
    }
    let tap = on.stream().expect("observers attached");
    let bus = tap.bus();
    BTreeMap::from([
        ("obs.overhead_frac", median(&ratios)),
        ("obs.priced_overhead_frac", tap.meter().mean_fraction()),
        ("obs.poll_s", median(&polls)),
        ("obs.frames_published", bus.published_total() as f64),
        (
            "obs.frames_dropped",
            bus.reports().iter().map(|r| r.lost_total()).sum::<u64>() as f64,
        ),
    ])
}

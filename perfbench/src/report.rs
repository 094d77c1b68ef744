//! Metric names and units, the run environment, and the printed result.
//!
//! The two tables below are the benchmark's metric contract; they must
//! list exactly the `end_to_end` and `per_layer` metrics of
//! `BENCHMARK.json`, which the package's tests check.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("step_s_p50", "s"),
    ("step_s_tail", "s"),
    ("particle_steps_per_s", "1/s"),
    ("app_gflops", "Gflop/s"),
    ("force_err_p99", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ic.generate_s", "s"),
    ("sfc.keys_s", "s"),
    ("sfc.keys_per_s", "1/s"),
    ("tree.build_s", "s"),
    ("tree.particles_per_s", "1/s"),
    ("tree.nodes", "count"),
    ("walk.local_s", "s"),
    ("walk.local_pp", "count"),
    ("walk.local_pc", "count"),
    ("walk.local_gflops", "Gflop/s"),
    ("walk.local_nodes_visited", "count"),
    ("walk.let_s", "s"),
    ("walk.let_pp", "count"),
    ("walk.let_pc", "count"),
    ("walk.let_gflops", "Gflop/s"),
    ("walk.forced_cuts", "count"),
    ("kernel.pp_batch_per_s", "1/s"),
    ("kernel.pc_per_s", "1/s"),
    ("kernel.pp_ops", "count"),
    ("kernel.pc_ops", "count"),
    ("kernel.pp_bytes_computed", "B"),
    ("kernel.pc_bytes_computed", "B"),
    ("domain.sample_sort_s", "s"),
    ("domain.exchange_s", "s"),
    ("domain.boundary_s", "s"),
    ("domain.let_build_s", "s"),
    ("domain.lets_built", "count"),
    ("domain.let_build_ratio", "ratio"),
    ("domain.codec_s", "s"),
    ("domain.imbalance", "ratio"),
    ("net.seal_s", "s"),
    ("net.open_s", "s"),
    ("net.frames", "count"),
    ("net.bytes", "B"),
    ("net.crc_bytes_per_s", "B/s"),
    ("net.retransmit_bytes", "B"),
    ("net.retransmit_ratio", "ratio"),
    ("net.degraded_lets", "count"),
    ("sim.step_s", "s"),
    ("sim.replay_s", "s"),
    ("sim.unattributed_s", "s"),
    ("sim.modelled_step_s", "s"),
    ("ckpt.write_s", "s"),
    ("ckpt.read_s", "s"),
    ("ckpt.bytes", "B"),
    ("obs.overhead_frac", "ratio"),
    ("obs.priced_overhead_frac", "ratio"),
    ("obs.poll_s", "s"),
    ("obs.frames_published", "count"),
    ("obs.frames_dropped", "count"),
    ("obs.trace_export_s", "s"),
    ("par.lanes", "count"),
    ("par.walk_speedup", "ratio"),
    ("par.step_speedup", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("host.calib_gflops", "Gflop/s"),
];

/// The machine and toolchain a result was measured on.
#[derive(Clone, Debug)]
pub struct RunEnv {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Lanes of the cluster's thread pool.
    pub lanes: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Gflop/s of the calibration loop at the start of the run.
    pub calib_gflops: f64,
}

impl RunEnv {
    /// Probe the environment (runs the calibration loop).
    pub fn probe() -> RunEnv {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let available_parallelism = lanes();
        RunEnv {
            available_parallelism,
            lanes: available_parallelism,
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            calib_gflops: crate::probe::calib_gflops(),
        }
    }
}

/// Pool lanes: the machine's available parallelism.
pub fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One run's result.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether the run traced.
    pub trace: bool,
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (panicked, failed a check, or failed a checkpoint
    /// write or read-back).
    pub failed: u64,
    /// Metric values by name; must hold every metric of the mode's table.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Why checks failed.
    pub failures: Vec<String>,
    /// Extra report lines (tail percentile, sample counts, …).
    pub notes: Vec<String>,
    /// The environment measured in.
    pub env: RunEnv,
}

impl Outcome {
    /// The metric table this outcome reports.
    pub fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Human-readable report, then the result line: one JSON object with
    /// exactly the keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let e = &self.env;
        let _ = writeln!(
            out,
            "env available_parallelism={} lanes={} cpu=\"{}\" rustc=\"{}\" host.calib_gflops={}",
            e.available_parallelism, e.lanes, e.cpu_model, e.rustc, e.calib_gflops
        );
        let _ = writeln!(
            out,
            "workload {} trace={} correct={} attempted={} failed={}",
            self.workload,
            u8::from(self.trace),
            self.correct,
            self.attempted,
            self.failed
        );
        let _ = writeln!(
            out,
            "metric steps_failed_frac = {} ratio (failed / attempted; in the result line as both counts)",
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for f in &self.failures {
            let _ = writeln!(out, "FAILED {f}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "note {n}");
        }
        let mut fields = Vec::new();
        for &(name, unit) in self.table() {
            let value = self.metrics[name];
            let _ = writeln!(out, "metric {name} = {value} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        out
    }
}

/// A finite value with all its digits; a non-finite one becomes `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

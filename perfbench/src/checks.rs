//! Correctness checks: particle conservation after every operation, the
//! force error against direct summation at states through the run, and at
//! run end the energy drift.

use crate::workload::THETA;
use bonsai_sim::Cluster;
use bonsai_tree::direct::direct_forces;
use bonsai_tree::Forces;
use bonsai_util::hash::mix64;
use bonsai_util::rng::Xoshiro256;
use bonsai_util::stats::percentile_sorted;
use bonsai_verify::oracle::{rel_errors, tolerance_band, ErrorPercentiles};

/// Energy drift bound: |E_end − E_0| / |E_0| may be at most
/// `ENERGY_DRIFT_FLOOR + ENERGY_DRIFT_PER_STEP × steps`. At θ = 0.4 with
/// quadrupoles and dt = 3 Myr the workloads drift by at most about 1e-3
/// over their first five steps and then by about 3e-5 to 6e-5 per step
/// (16,384 particles, five seeds, 60 steps); the bound leaves twice that
/// headroom. A walk that loses or double-counts sources drifts far faster.
pub const ENERGY_DRIFT_FLOOR: f64 = 1.0e-3;
/// Per-step part of the energy drift bound.
pub const ENERGY_DRIFT_PER_STEP: f64 = 1.0e-4;

/// The energy drift bound after `steps` steps.
pub fn energy_drift_bound(steps: u64) -> f64 {
    ENERGY_DRIFT_FLOOR + ENERGY_DRIFT_PER_STEP * steps as f64
}

/// Particles whose force error is sampled at one state (every particle
/// when the run has fewer).
pub const FORCE_SAMPLE: usize = 4096;

/// The end-to-end run samples the force error after every this many timed
/// operations and at run end, and pools the samples. The 99th percentile of
/// one state moves by up to about 15% from state to state and seed to seed,
/// as particles cross cell boundaries, and neighbouring steps move together;
/// pooled over states four operations apart it is far steadier.
pub const FORCE_EVERY: usize = 4;

/// Order-independent digest of the particle ids a cluster holds: a second
/// copy of one id, a lost id or an id swapped for another changes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdFingerprint {
    /// Particles held across ranks.
    pub count: usize,
    /// Wrapping sum of the mixed ids.
    pub sum: u64,
    /// Xor of the mixed ids.
    pub xor: u64,
}

/// The id digest of `cluster`.
pub fn fingerprint(cluster: &Cluster) -> IdFingerprint {
    let mut fp = IdFingerprint {
        count: 0,
        sum: 0,
        xor: 0,
    };
    for r in 0..cluster.rank_count() {
        let p = cluster.rank_particles(r);
        fp.count += p.len();
        for &id in &p.id {
            let h = mix64(id);
            fp.sum = fp.sum.wrapping_add(h);
            fp.xor ^= h;
        }
    }
    fp
}

/// The force-error distribution of a run and its verdict.
#[derive(Clone, Debug)]
pub struct ForceCheck {
    /// Median, 95th percentile and maximum relative error.
    pub percentiles: ErrorPercentiles,
    /// 99th percentile relative error (the reported metric).
    pub p99: f64,
    /// Particles sampled.
    pub sample: usize,
    /// Why the distribution falls outside `tolerance_band(θ, true)`, if it
    /// does.
    pub violation: Option<String>,
}

/// Relative force errors (the conformance oracle's) pooled over several
/// states of one run.
#[derive(Clone, Debug, Default)]
pub struct ForceErrors {
    errors: Vec<f64>,
    states: usize,
}

impl ForceErrors {
    /// Pool the errors of one state's `test` accelerations.
    pub fn add(&mut self, test: &Forces, reference: &Forces) {
        self.errors.extend(rel_errors(test, reference));
        self.states += 1;
    }

    /// States pooled so far.
    pub fn states(&self) -> usize {
        self.states
    }

    /// The pooled distribution against the tolerance band for θ = 0.4 with
    /// quadrupoles.
    pub fn check(&self) -> ForceCheck {
        let errors = self.errors.clone();
        let sample = errors.len();
        if sample == 0 || errors.iter().any(|e| !e.is_finite()) {
            return ForceCheck {
                percentiles: ErrorPercentiles::default(),
                p99: f64::NAN,
                sample,
                violation: Some("no finite force errors".to_string()),
            };
        }
        let percentiles = ErrorPercentiles::from_errors(errors.clone());
        let mut sorted = errors;
        sorted.sort_by(f64::total_cmp);
        ForceCheck {
            percentiles,
            p99: percentile_sorted(&sorted, 0.99),
            sample,
            violation: tolerance_band(THETA, true).violation(&percentiles),
        }
    }
}

/// The cluster's accelerations at a seeded sample of particles, and the
/// direct-summation accelerations at the same positions from every
/// particle. Reads the ranks in place rather than gathering them, so that
/// the check adds less to the process's peak memory. Run inside a thread
/// pool: the reference sum is parallel.
pub fn sampled_forces(cluster: &Cluster, sample: usize, seed: u64) -> (Forces, Forces) {
    let ranks: Vec<_> = (0..cluster.rank_count())
        .map(|r| cluster.rank_particles(r))
        .collect();
    let n: usize = ranks.iter().map(|p| p.len()).sum();
    let mut idx: Vec<usize> = (0..n).collect();
    if sample < n {
        let mut rng = Xoshiro256::seed_from(seed ^ 0x5eed_f04c_e000_0001);
        for i in 0..sample {
            let j = i + rng.uniform_usize(n - i);
            idx.swap(i, j);
        }
        idx.truncate(sample);
        idx.sort_unstable();
    }
    // Global index i is particle i - start of the rank whose range holds it.
    let mut targets = Vec::with_capacity(idx.len());
    let mut ids = Vec::with_capacity(idx.len());
    let (mut r, mut start) = (0, 0);
    for &i in &idx {
        while i >= start + ranks[r].len() {
            start += ranks[r].len();
            r += 1;
        }
        targets.push(ranks[r].pos[i - start]);
        ids.push(ranks[r].id[i - start]);
    }
    let acc = cluster.accelerations_by_id();
    let test = Forces {
        acc: ids.iter().map(|id| acc[id]).collect(),
        pot: vec![0.0; idx.len()],
    };
    drop(acc);
    let mut reference = Forces::zeros(targets.len());
    for p in &ranks {
        let (f, _) = direct_forces(
            &targets,
            &p.pos,
            &p.mass,
            cluster.cfg.eps,
            cluster.cfg.g,
            false,
        );
        for (sum, a) in reference.acc.iter_mut().zip(&f.acc) {
            *sum += *a;
        }
    }
    (test, reference)
}

/// |E_end − E_0| / |E_0|.
pub fn energy_drift(e0: f64, e_end: f64) -> f64 {
    ((e_end - e0) / e0).abs()
}

/// The program's peak resident set size, leaving out the force sampling's
/// own memory, which would otherwise raise `VmHWM` by 0 to 5 MB depending on
/// how the allocator placed it. `VmHWM` is read before and after each
/// sample; the reading before the first sample, and any rise between two
/// samples, is the program's.
#[derive(Clone, Debug, Default)]
pub struct ProgramPeak {
    peak: f64,
    after_sample: f64,
}

impl ProgramPeak {
    /// Call before each force sample, and once at run end.
    pub fn before_sample(&mut self) {
        let now = peak_rss_mb().unwrap_or(0.0);
        if now > self.after_sample {
            self.peak = self.peak.max(now);
        }
    }

    /// Call after each force sample.
    pub fn after_sample(&mut self) {
        self.after_sample = peak_rss_mb().unwrap_or(0.0);
    }

    /// The program's peak in MB (0 when the kernel reports none).
    pub fn mb(&self) -> f64 {
        self.peak
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if the kernel
/// reports one.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

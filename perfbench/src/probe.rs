//! Fixed single-lane probes: the host calibration loop, and the two force
//! kernels over a seeded tile.

use bonsai_tree::kernels::{p_c, p_p_batch};
use bonsai_util::rng::Xoshiro256;
use bonsai_util::{Sym3, Vec3};
use std::hint::black_box;
use std::time::Instant;

/// Multiply-add steps per chain of the calibration loop.
const CALIB_STEPS: usize = 25_000_000;
/// Independent chains, so the loop is bound by throughput, not latency.
const CALIB_CHAINS: usize = 8;

/// Gflop/s of a fixed multiply-add loop on one lane: a yardstick for the
/// machine's speed during the run, so a drift in machine speed can be told
/// apart from a code change.
pub fn calib_gflops() -> f64 {
    let mut acc = [1.0f64; CALIB_CHAINS];
    let a = black_box(0.999_999_9);
    let b = black_box(1.0e-7);
    let t0 = Instant::now();
    for _ in 0..CALIB_STEPS {
        for x in acc.iter_mut() {
            *x = *x * a + b;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(acc);
    (2 * CALIB_STEPS * CALIB_CHAINS) as f64 / secs / 1e9
}

/// Targets of the kernel tile.
const TILE_TARGETS: usize = 512;
/// Sources (particle-particle) or cells (particle-cell) of the tile.
const TILE_SOURCES: usize = 1024;
/// Passes over the tile.
const PP_PASSES: usize = 48;
const PC_PASSES: usize = 12;
/// Operand bytes one interaction reads: a source's x, y, z and mass; a
/// cell's centre of mass, mass and six quadrupole terms.
const PP_OPERAND_BYTES: u64 = 4 * 8;
const PC_OPERAND_BYTES: u64 = (3 + 1 + 6) * 8;

/// Rates and computed operand volumes of the two kernels.
#[derive(Clone, Copy, Debug)]
pub struct KernelRates {
    /// Particle-particle interactions per second through `p_p_batch`.
    pub pp_per_s: f64,
    /// Particle-cell interactions per second through `p_c`.
    pub pc_per_s: f64,
    /// Particle-particle interactions evaluated.
    pub pp_ops: u64,
    /// Particle-cell interactions evaluated.
    pub pc_ops: u64,
    /// Operand bytes the p-p interactions read, computed from operand
    /// sizes (not measured traffic).
    pub pp_bytes_computed: u64,
    /// Operand bytes the p-c interactions read, computed likewise.
    pub pc_bytes_computed: u64,
}

/// Time both kernels over a fixed seeded tile on the calling thread.
pub fn kernel_rates() -> KernelRates {
    let mut rng = Xoshiro256::seed_from(0x711e);
    let point = |rng: &mut Xoshiro256| {
        Vec3::new(
            rng.uniform_in(-1.0, 1.0),
            rng.uniform_in(-1.0, 1.0),
            rng.uniform_in(-1.0, 1.0),
        )
    };
    let targets: Vec<Vec3> = (0..TILE_TARGETS).map(|_| point(&mut rng)).collect();
    let sx: Vec<f64> = (0..TILE_SOURCES)
        .map(|_| rng.uniform_in(-1.0, 1.0))
        .collect();
    let sy: Vec<f64> = (0..TILE_SOURCES)
        .map(|_| rng.uniform_in(-1.0, 1.0))
        .collect();
    let sz: Vec<f64> = (0..TILE_SOURCES)
        .map(|_| rng.uniform_in(-1.0, 1.0))
        .collect();
    let sm: Vec<f64> = (0..TILE_SOURCES)
        .map(|_| rng.uniform_in(0.5, 1.5))
        .collect();
    let cells: Vec<(Vec3, f64, Sym3)> = (0..TILE_SOURCES)
        .map(|_| {
            let com = point(&mut rng) * 4.0;
            let q = Sym3 {
                m: [0.0; 6].map(|_| rng.uniform_in(-0.01, 0.01)),
            };
            (com, rng.uniform_in(0.5, 1.5), q)
        })
        .collect();
    let eps2 = 1.0e-4;

    let t0 = Instant::now();
    let mut pp_sink = 0.0;
    for _ in 0..PP_PASSES {
        for &t in &targets {
            let (phi, a) = p_p_batch(black_box(t), &sx, &sy, &sz, &sm, eps2);
            pp_sink += phi + a.x;
        }
    }
    let pp_s = t0.elapsed().as_secs_f64();
    black_box(pp_sink);

    let t0 = Instant::now();
    let mut pc_sink = 0.0;
    for _ in 0..PC_PASSES {
        for &t in &targets {
            for (com, m, q) in &cells {
                let (phi, a) = p_c(black_box(t), *com, *m, q, eps2);
                pc_sink += phi + a.x;
            }
        }
    }
    let pc_s = t0.elapsed().as_secs_f64();
    black_box(pc_sink);

    let pp_ops = (PP_PASSES * TILE_TARGETS * TILE_SOURCES) as u64;
    let pc_ops = (PC_PASSES * TILE_TARGETS * TILE_SOURCES) as u64;
    KernelRates {
        pp_per_s: pp_ops as f64 / pp_s,
        pc_per_s: pc_ops as f64 / pc_s,
        pp_ops,
        pc_ops,
        pp_bytes_computed: pp_ops * PP_OPERAND_BYTES,
        pc_bytes_computed: pc_ops * PC_OPERAND_BYTES,
    }
}

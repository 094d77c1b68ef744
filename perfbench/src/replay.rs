//! The traced replay: after a timed step, rebuild that step's gravity phase
//! from the post-step state (`rank_particles`, `domains`) by calling each
//! layer's public functions in the step's order, with a span around every
//! call.
//!
//! Positions do not change after a step's gravity phase (only the closing
//! kick runs), and each rank holds exactly the particles it walked, sorted
//! along the curve. Rebuilding from that state therefore repeats the step's
//! trees, boundaries, LET decisions and walks, which the fidelity gate
//! checks through the interaction and LET counts.
//!
//! Two stages differ from the step on purpose: the sample sort uses
//! uniform sampling weights (the cluster's flop weights are private), and
//! the exchange classification runs on already-partitioned particles, so it
//! measures the classification pass and moves nothing.

use crate::spans::Recorder;
use bonsai_domain::exchange::ExchangePlan;
use bonsai_domain::letbuild::{boundary_sufficient_for, build_let};
use bonsai_domain::load::enforce_particle_cap;
use bonsai_domain::sampling::{parallel_cuts, systematic_sample};
use bonsai_domain::{boundary_tree, LetTree};
use bonsai_net::envelope;
use bonsai_net::fault::RecoveryAction;
use bonsai_net::MsgKind;
use bonsai_obs::SpanId;
use bonsai_par::prelude::*;
use bonsai_sfc::KeyMap;
use bonsai_sim::cluster::factor_ranks;
use bonsai_sim::Cluster;
use bonsai_tree::walk::{self, WalkParams, WalkStats};
use bonsai_tree::{InteractionCounts, Particles, Tree};
use bonsai_util::Aabb;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::hint::black_box;

/// What the fabric did to the step's boundary and LET frames, read from the
/// cluster's fault log and flow ledger so the replay can repeat it.
#[derive(Clone, Debug, Default)]
pub struct WireFaults {
    /// `(receiver, sender)` pairs whose dedicated LET never arrived; the
    /// receiver walked the sender's boundary tree instead.
    pub degraded: Vec<(usize, usize)>,
    /// Boundary and LET flows sent more than once, as `(from, to, kind,
    /// extra attempts)`.
    pub resent: Vec<(usize, usize, MsgKind, u32)>,
    /// Payload bytes of the step's first sends, every message kind.
    pub first_send_bytes: usize,
}

/// Read the last step's wire faults from `cluster`.
pub fn wire_faults(cluster: &Cluster) -> WireFaults {
    let epoch = cluster.current_epoch();
    let degraded = cluster
        .last_measurements
        .faults
        .recoveries
        .iter()
        .filter(|e| e.action == RecoveryAction::BoundaryFallback)
        .filter_map(|e| Some((e.rank, e.peer?)))
        .collect();
    let mut out = WireFaults {
        degraded,
        ..WireFaults::default()
    };
    for r in cluster
        .flow_ledger()
        .records()
        .iter()
        .filter(|r| r.epoch == epoch)
    {
        out.first_send_bytes += r.bytes;
        if r.attempts > 1 && matches!(r.kind, MsgKind::Boundary | MsgKind::Let) {
            out.resent.push((r.from, r.to, r.kind, r.attempts - 1));
        }
    }
    out
}

/// One replay's per-layer values and the counts the fidelity gate compares.
pub struct Replay {
    /// Per-layer metric values of this replay, by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Local-tree interaction counts per rank.
    pub local: Vec<InteractionCounts>,
    /// Remote-source interaction counts per rank.
    pub lets: Vec<InteractionCounts>,
    /// Dedicated LETs built.
    pub lets_built: usize,
    /// The replay's root span.
    pub root: SpanId,
}

/// A received boundary or LET, decoded.
type Held = Vec<Vec<Option<LetTree>>>;

fn parse_let_tree(b: &[u8]) -> Result<LetTree, String> {
    let lt = LetTree::from_bytes(b).ok_or("LET wire decode failed")?;
    lt.check_invariants()
        .map_err(|e| format!("LET invariants: {e}"))?;
    Ok(lt)
}

/// Replay the last step of `cluster` under the current thread pool,
/// recording a root span `name` with one child span per stage.
pub fn replay(
    cluster: &Cluster,
    faults: &WireFaults,
    rec: &mut Recorder,
    name: &str,
) -> Result<Replay, String> {
    let cfg = &cluster.cfg;
    let p = cluster.rank_count();
    let n = cluster.total_particles();
    let step = cluster.step_count();
    let epoch = cluster.current_epoch();
    let domains = cluster.domains();
    // `Cluster` is not `Sync`; the parallel stages borrow the shards.
    let parts: Vec<&Particles> = (0..p).map(|r| cluster.rank_particles(r)).collect();
    let params = WalkParams {
        theta: cfg.theta,
        eps: cfg.eps,
        g: cfg.g,
        use_quadrupole: true,
    };
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let root = rec.open(step, name, None);
    let stage = |rec: &mut Recorder, name: &str| rec.open(step, name, Some(root));

    // 1. Keys and sort (bonsai-sfc), over the global bounding box.
    let s = stage(rec, "sfc.keys");
    let mut bounds = Aabb::empty();
    for part in &parts {
        if !part.is_empty() {
            bounds.merge(&part.bounds());
        }
    }
    let keymap = KeyMap::new(&bounds, cfg.tree.curve);
    let sorted_keys: Vec<Vec<u64>> = (0..p)
        .into_par_iter()
        .map(|r| {
            let mut ks = keymap.keys_of(&parts[r].pos);
            ks.sort_unstable();
            ks
        })
        .collect();
    let keys_s = rec.close(s);
    v.insert("sfc.keys_s", keys_s);
    v.insert("sfc.keys_per_s", n as f64 / keys_s);

    // Domain update (bonsai-domain): two-level sample sort plus cap, then
    // the exchange classification against the step's domains.
    let s = stage(rec, "domain.sample_sort");
    if p > 1 {
        let samples: Vec<Vec<u64>> = sorted_keys
            .iter()
            .map(|ks| systematic_sample(ks, cfg.sample_s2.max(4)))
            .collect();
        let (px, py) = factor_ranks(p);
        let (cuts, _) = parallel_cuts(&samples, px, py, cfg.sample_s1, cfg.sample_s2);
        let mut all_keys: Vec<u64> = sorted_keys.concat();
        all_keys.sort_unstable();
        black_box(enforce_particle_cap(&cuts, &all_keys, cfg.cap));
    }
    v.insert("domain.sample_sort_s", rec.close(s));
    let s = stage(rec, "domain.exchange");
    let mut emigrants = 0;
    if p > 1 {
        for (me, part) in parts.iter().enumerate() {
            let ks = keymap.keys_of(&part.pos);
            emigrants += ExchangePlan::plan(me, &ks, domains).emigrant_count();
        }
    }
    rec.arg_u64(s, "emigrants", emigrants as u64);
    v.insert("domain.exchange_s", rec.close(s));

    // 2. Trees (bonsai-tree), one per rank over the shared key map.
    let s = stage(rec, "tree.build");
    let trees: Vec<Tree> = (0..p)
        .into_par_iter()
        .map(|r| Tree::build_with_keymap(parts[r].clone(), keymap.clone(), cfg.tree))
        .collect();
    let build_s = rec.close(s);
    v.insert("tree.build_s", build_s);
    v.insert("tree.particles_per_s", n as f64 / build_s);
    v.insert(
        "tree.nodes",
        trees.iter().map(|t| t.nodes.len()).sum::<usize>() as f64,
    );

    // 3. Boundary trees (bonsai-domain).
    let s = stage(rec, "domain.boundary");
    let boundaries: Vec<LetTree> = trees
        .par_iter()
        .zip(domains.par_iter())
        .map(|(t, d)| boundary_tree(t, d))
        .collect();
    v.insert("domain.boundary_s", rec.close(s));

    // 4. Sufficiency checks and dedicated LETs, sender side.
    let s = stage(rec, "domain.let_build");
    let geoms: Vec<Vec<Aabb>> = if p > 1 {
        boundaries.iter().map(LetTree::frontier_boxes).collect()
    } else {
        Vec::new()
    };
    let builds: Vec<(usize, Vec<(usize, LetTree)>)> = (0..p)
        .into_par_iter()
        .map(|i| {
            let mut checked = 0;
            let mut out = Vec::new();
            if p == 1 || boundaries[i].is_empty() {
                return (checked, out);
            }
            for (j, geom_j) in geoms.iter().enumerate() {
                if j == i || geom_j.is_empty() {
                    continue;
                }
                checked += 1;
                if !boundary_sufficient_for(&boundaries[i], geom_j, cfg.theta) {
                    out.push((j, build_let(&trees[i], geom_j, cfg.theta)));
                }
            }
            (checked, out)
        })
        .collect();
    let let_build_s = rec.close(s);
    let pairs_checked: usize = builds.iter().map(|b| b.0).sum();
    let lets_built: usize = builds.iter().map(|b| b.1.len()).sum();
    v.insert("domain.let_build_s", let_build_s);
    v.insert("domain.lets_built", lets_built as f64);
    v.insert(
        "domain.let_build_ratio",
        if pairs_checked > 0 {
            lets_built as f64 / pairs_checked as f64
        } else {
            0.0
        },
    );

    // 5. Wire path: encode (bonsai-domain), seal and open (bonsai-net),
    // decode. Every boundary goes to every other rank, every LET to its
    // target, and every re-sent frame is sealed and opened again.
    let s = stage(rec, "domain.encode");
    let (boundary_bytes, let_bytes): (Vec<Bytes>, BTreeMap<(usize, usize), Bytes>) = if p > 1 {
        (
            boundaries.iter().map(LetTree::to_bytes).collect(),
            builds
                .iter()
                .enumerate()
                .flat_map(|(i, b)| b.1.iter().map(move |(j, lt)| ((i, *j), lt.to_bytes())))
                .collect(),
        )
    } else {
        (Vec::new(), BTreeMap::new())
    };
    let encode_s = rec.close(s);

    let s = stage(rec, "net.seal");
    // (kind, from, to, first send, frame)
    let mut frames: Vec<(MsgKind, usize, usize, bool, Bytes)> = Vec::new();
    if p > 1 {
        for (from, enc) in boundary_bytes.iter().enumerate() {
            for to in (0..p).filter(|&to| to != from) {
                frames.push((
                    MsgKind::Boundary,
                    from,
                    to,
                    true,
                    envelope::seal(MsgKind::Boundary, from, epoch, enc),
                ));
            }
        }
        for (&(from, to), enc) in &let_bytes {
            frames.push((
                MsgKind::Let,
                from,
                to,
                true,
                envelope::seal(MsgKind::Let, from, epoch, enc),
            ));
        }
        for &(from, to, kind, extra) in &faults.resent {
            let payload = match kind {
                MsgKind::Boundary => boundary_bytes.get(from),
                _ => let_bytes.get(&(from, to)),
            };
            let Some(payload) = payload else { continue };
            for attempt in 1..=extra {
                let frame =
                    envelope::seal_flow(kind, from, epoch, envelope::NO_FLOW, attempt, payload);
                frames.push((kind, from, to, false, frame));
            }
        }
    }
    let wire_bytes: usize = frames.iter().map(|f| f.4.len()).sum();
    rec.arg_u64(s, "frames", frames.len() as u64);
    let seal_s = rec.close(s);

    let s = stage(rec, "net.open");
    let mut opened = Vec::with_capacity(frames.len());
    for (kind, from, to, first, frame) in &frames {
        let env = envelope::open(frame).map_err(|e| format!("replayed frame {from}->{to}: {e}"))?;
        if env.kind != *kind || env.from != *from || env.epoch != epoch {
            return Err(format!(
                "replayed frame {from}->{to} opened with the wrong header"
            ));
        }
        opened.push((*kind, *from, *to, *first, env.payload));
    }
    let open_s = rec.close(s);

    let s = stage(rec, "domain.decode");
    let mut held: Held = (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    let mut got: Held = (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    for (kind, from, to, first, payload) in opened {
        let lt = parse_let_tree(payload)?;
        if !first {
            continue;
        }
        match kind {
            MsgKind::Boundary => held[to][from] = Some(lt),
            _ => got[to][from] = Some(lt),
        }
    }
    let decode_s = rec.close(s);
    v.insert("domain.codec_s", encode_s + decode_s);
    v.insert("net.seal_s", seal_s);
    v.insert("net.open_s", open_s);
    v.insert("net.frames", frames.len() as f64);
    v.insert("net.bytes", wire_bytes as f64);
    v.insert(
        "net.crc_bytes_per_s",
        if wire_bytes > 0 {
            2.0 * wire_bytes as f64 / (seal_s + open_s)
        } else {
            0.0
        },
    );
    drop(frames);

    // 6. Local walks.
    let s = stage(rec, "walk.local");
    let local: Vec<WalkStats> = trees
        .par_iter()
        .map(|t| walk::self_gravity(t, &params).1)
        .collect();
    let local_s = rec.close(s);

    // 7. Remote walks: the dedicated LET where one arrived, else the held
    // boundary tree.
    let s = stage(rec, "walk.let");
    let remote: Vec<WalkStats> = (0..p)
        .into_par_iter()
        .map(|j| {
            let mut st = WalkStats::default();
            for i in (0..p).filter(|&i| i != j) {
                let Some(bi) = &held[j][i] else { continue };
                if bi.is_empty() {
                    continue;
                }
                let view = match &got[j][i] {
                    Some(lt) if !faults.degraded.contains(&(j, i)) => lt.view(),
                    _ => bi.view(),
                };
                let tree = &trees[j];
                st.merge(&walk::walk_tree(&view, &tree.particles.pos, &tree.groups, &params).1);
            }
            st
        })
        .collect();
    let let_s = rec.close(s);

    let sum = |st: &[WalkStats]| {
        st.iter().fold(WalkStats::default(), |mut a, b| {
            a.merge(b);
            a
        })
    };
    let (l, r) = (sum(&local), sum(&remote));
    v.insert("walk.local_s", local_s);
    v.insert("walk.local_pp", l.counts.pp as f64);
    v.insert("walk.local_pc", l.counts.pc as f64);
    v.insert("walk.local_gflops", l.counts.flops() as f64 / local_s / 1e9);
    v.insert("walk.local_nodes_visited", l.nodes_visited as f64);
    v.insert("walk.let_s", let_s);
    v.insert("walk.let_pp", r.counts.pp as f64);
    v.insert("walk.let_pc", r.counts.pc as f64);
    v.insert("walk.let_gflops", r.counts.flops() as f64 / let_s / 1e9);
    v.insert("walk.forced_cuts", (l.forced_cuts + r.forced_cuts) as f64);
    v.insert("sim.replay_s", rec.close(root));

    Ok(Replay {
        values: v,
        local: local.iter().map(|s| s.counts).collect(),
        lets: remote.iter().map(|s| s.counts).collect(),
        lets_built,
        root,
    })
}

/// The fidelity gate: the replay did the step's work exactly, rank by rank.
pub fn fidelity(cluster: &Cluster, r: &Replay) -> Result<(), String> {
    let m = &cluster.last_measurements;
    if r.local != m.counts_local {
        return Err(format!(
            "local counts differ: replay {:?}, step {:?}",
            r.local, m.counts_local
        ));
    }
    if r.lets != m.counts_lets {
        return Err(format!(
            "LET counts differ: replay {:?}, step {:?}",
            r.lets, m.counts_lets
        ));
    }
    let built: usize = m.let_neighbors.iter().sum();
    if r.lets_built != built {
        return Err(format!(
            "LETs built differ: replay {}, step {built}",
            r.lets_built
        ));
    }
    Ok(())
}

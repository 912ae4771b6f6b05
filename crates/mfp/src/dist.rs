//! Distributed Mosaic Flow predictor — Algorithm 2 of the paper.
//!
//! The global domain is partitioned over a 2-D processor grid (row-scan or
//! Morton rank placement). Each rank owns a half-open block of grid points
//! and the overlapping subdomains whose centers fall inside it. One
//! iteration is: sweep the four local groups with immediate local updates
//! (batched inference), then exchange the owned lattice values in a band
//! of half-a-subdomain width with up to eight neighbors — **once** per
//! iteration (the relaxed synchronization of §4.2). A final dense pass
//! fills the owned atomic subdomains and an allgather assembles the global
//! solution. Sweeps and the dense pass run the sequential engine's
//! subdomain kernel ([`Mfp`]) on the rank's local grid.

use crate::domain::{DomainSpec, Region, Subdomain};
use crate::seq::{assert_positive_periods, MaeTarget, Mfp, Shift, Targets};
use crate::solver::SubdomainSolver;
use mf_dist::thread_cpu_time;
use mf_dist::{
    CartesianGrid, Cluster, ClusterError, CommError, CommStats, Communicator, Direction, FaultPlan,
    OverlapSample, OverlapTracker, PerfModel, RankOrder, RecvHandle,
};
use mf_numerics::boundary::apply_boundary;
use mf_observe::{RecKind, StallDetector};
use mf_telemetry::{counter, histogram, span, Buckets, Counter, Histogram};
use mf_tensor::Tensor;
use std::time::Duration;

/// Controls for [`run_distributed`].
#[derive(Clone, Debug)]
pub struct DistMfpConfig {
    /// Maximum Schwarz iterations.
    pub max_iters: usize,
    /// Relative-change threshold (0 disables the check and its allreduce).
    pub tol: f64,
    /// Evaluate the convergence check every this many iterations.
    pub check_every: usize,
    /// Exchange halos every this many iterations (1 = Algorithm 2;
    /// larger values are the communication-avoiding variant discussed in
    /// §5.3 "Open problems").
    pub comm_every: usize,
    /// Rank placement on the processor grid.
    pub order: RankOrder,
    /// Optional reference-based stop (MAE on lattice points).
    pub target: Option<MaeTarget>,
    /// Coarse-grid lattice initialization before iterating (each rank
    /// computes the same cheap coarse solve locally).
    pub coarse_init: bool,
    /// Fault injection for the cluster's links ([`FaultPlan::none`] keeps
    /// the lossless PR-1 semantics).
    pub plan: FaultPlan,
    /// Degraded mode: bound each neighbor's halo receive by
    /// [`Self::halo_timeout`] and *reuse the stale halo* from the previous
    /// exchange when that neighbor misses the deadline, instead of
    /// blocking the iteration.
    /// The Schwarz fixed point is unchanged — stale interface data only
    /// slows convergence (the same trade as `comm_every > 1`).
    pub degraded_halos: bool,
    /// Per-neighbor receive deadline in degraded mode.
    pub halo_timeout: Duration,
    /// Overlapped schedule (default): post the halo exchange
    /// non-blocking, sweep the interior subdomains while it is in
    /// flight, then complete it and sweep the boundary subdomains; the
    /// convergence allreduce is pipelined one iteration deep. Produces
    /// bitwise-identical iterates and iteration counts to the
    /// alternating schedule (`false`, the `--no-overlap` path).
    pub overlap: bool,
    /// Force flat (recursive-doubling/ring) collectives even at world
    /// sizes where the hierarchical tree allreduce would be selected —
    /// the baseline arm of the overlap benchmarks.
    pub flat_collectives: bool,
    /// Alpha–beta model used by the per-rank overlap accounting
    /// (`dist.overlap_ratio` and friends).
    pub perf_model: PerfModel,
    /// The operator (Laplace by default; see [`Shift`]). Every rank
    /// reads the shared forcing field; only lattice values are
    /// communicated, exactly as in the Laplace case.
    pub shift: Shift,
}

impl Default for DistMfpConfig {
    fn default() -> Self {
        Self {
            max_iters: 1000,
            tol: 1e-4,
            check_every: 1,
            comm_every: 1,
            order: RankOrder::RowMajor,
            target: None,
            coarse_init: false,
            plan: FaultPlan::none(),
            degraded_halos: false,
            halo_timeout: Duration::from_millis(50),
            overlap: true,
            flat_collectives: false,
            perf_model: PerfModel::a30_cluster(),
            shift: Shift::default(),
        }
    }
}

/// Per-rank measurements of a distributed run.
#[derive(Clone, Copy, Debug)]
pub struct RankReport {
    /// Rank id.
    pub rank: usize,
    /// Wall-clock seconds in subdomain solves (compute).
    pub compute_seconds: f64,
    /// Wall-clock seconds packing/unpacking halo buffers ("Boundaries IO"
    /// in Fig. 9).
    pub pack_seconds: f64,
    /// Communication counters for the whole run (iteration loop + final
    /// gather).
    pub comm: CommStats,
    /// Communication counters of the iteration loop only (halo exchanges
    /// and convergence allreduces) — the per-iteration cost of §4.3.
    pub halo: CommStats,
    /// Overlapping subdomains owned by this rank.
    pub owned_subdomains: usize,
    /// Subdomains swept in the interior pass — while the halo exchange
    /// is in flight — under the overlapped schedule (0 when overlap is
    /// disabled).
    pub interior_subdomains: usize,
    /// Halo slots served from stale data because a neighbor missed the
    /// degraded-mode deadline (always 0 outside degraded mode).
    pub stale_halos: usize,
    /// Cumulative comm/compute overlap accounting of the iteration
    /// loop (compute, measured wait, modeled wire time, hideable
    /// fraction) under [`DistMfpConfig::perf_model`].
    pub overlap: OverlapSample,
}

/// Result of [`run_distributed`].
#[derive(Clone, Debug)]
pub struct DistMfpResult {
    /// Assembled dense global solution.
    pub grid: Tensor,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether a stop criterion fired.
    pub converged: bool,
    /// Relative lattice change at each performed check.
    pub deltas: Vec<f64>,
    /// `(iteration, lattice MAE)` history when a target was given.
    pub mae_history: Vec<(usize, f64)>,
    /// One report per rank.
    pub reports: Vec<RankReport>,
}

/// Block partition of the global grid over a processor grid.
struct Partition<'a> {
    domain: &'a DomainSpec,
    grid: CartesianGrid,
}

/// Watch-mode side channel: gather every rank's per-atomic-subdomain
/// residual (mean |u − prev| over the window) and render the lattice
/// heatmap report on rank 0. Only called when watch mode is enabled, so
/// its allgather never runs under the pinned-message-count fixtures.
#[allow(clippy::too_many_arguments)]
fn watch_residual_report(
    comm: &mut Communicator,
    domain: &DomainSpec,
    owned: &Region,
    u: &Tensor,
    prev: &Tensor,
    deltas: &[f64],
    iteration: usize,
    stalled: bool,
    stale_in_window: u64,
) {
    // Encode owned atoms as (lattice index, residual) pairs: the gather
    // is ragged, each rank contributes only what it owns.
    let mut local = Vec::new();
    for (idx, sd) in domain.atomic_subdomains().into_iter().enumerate() {
        if owned.0.contains(&sd.oy) && owned.1.contains(&sd.ox) {
            let a = domain.read_window_field(u, sd);
            let b = domain.read_window_field(prev, sd);
            let n = a.numel().max(1) as f64;
            let resid = a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(x, y)| (x - y).abs())
                .sum::<f64>()
                / n;
            local.push(idx as f64);
            local.push(resid);
        }
    }
    let gathered = comm.allgather(&local);
    if comm.rank() == 0 {
        let mut grid = vec![0.0; domain.sx * domain.sy];
        for pair in gathered.iter().flat_map(|v| v.chunks_exact(2)) {
            grid[pair[0] as usize] = pair[1];
        }
        eprint!(
            "{}",
            mf_observe::mfp_watch_report(
                iteration,
                deltas,
                &grid,
                domain.sy,
                domain.sx,
                stalled,
                stale_in_window,
            )
        );
        // Live throughput from the published time-series ring: every rank
        // publishes its `dist.iterations` windows after each MFP iteration,
        // so the merged ring shows cluster-wide iteration rate.
        if let Some(s) = mf_telemetry::published_series("dist.iterations") {
            eprint!(
                "{}",
                mf_observe::series_rate_line(
                    "dist.iterations",
                    s.rate_per_sec(10),
                    &s.recent_counts(30)
                )
            );
        }
    }
}

impl<'a> Partition<'a> {
    fn new(domain: &'a DomainSpec, ranks: usize, order: RankOrder) -> Self {
        Self {
            domain,
            grid: CartesianGrid::square_for(ranks, order),
        }
    }

    /// Owned grid points of a rank: half-open `(rows, cols)`.
    ///
    /// Atomic subdomains are split near-evenly over the processor grid
    /// (boundaries at `⌊c·s/p⌋` subdomains, i.e. always on atom edges, so
    /// atoms never straddle ranks). When there are fewer atom rows or
    /// columns than processor rows or columns, the surplus ranks simply
    /// own an empty region — they exchange zero-length halos and
    /// contribute nothing to the gather. Edge ranks absorb the final
    /// global row/column.
    fn owned(&self, rank: usize) -> Region {
        let (prow, pcol) = self.grid.coords_of(rank);
        let step = self.domain.sub.m - 1;
        let (px, py) = (self.grid.px(), self.grid.py());
        let c0 = pcol * self.domain.sx / px * step;
        let c1 = if pcol + 1 == px {
            self.domain.nx()
        } else {
            (pcol + 1) * self.domain.sx / px * step
        };
        let r0 = prow * self.domain.sy / py * step;
        let r1 = if prow + 1 == py {
            self.domain.ny()
        } else {
            (prow + 1) * self.domain.sy / py * step
        };
        (r0..r1, c0..c1)
    }

    /// The band of `rank`'s owned points adjacent to its border in
    /// direction `dir`, of half-subdomain width — the halo data its
    /// neighbor in that direction needs. Clamped to the owned region, so
    /// narrow or empty blocks produce correspondingly narrow (or empty)
    /// bands; sender and receiver both evaluate this for the *owning*
    /// rank, so the two sides always agree on the size.
    fn band(&self, rank: usize, dir: Direction) -> Region {
        let s = self.domain.shift();
        let (rows, cols) = self.owned(rank);
        let rows = match dir.offset().0 {
            1 => rows.end.saturating_sub(s).max(rows.start)..rows.end,
            -1 => rows.start..(rows.start + s).min(rows.end),
            _ => rows,
        };
        let cols = match dir.offset().1 {
            1 => cols.end.saturating_sub(s).max(cols.start)..cols.end,
            -1 => cols.start..(cols.start + s).min(cols.end),
            _ => cols,
        };
        (rows, cols)
    }

    /// Lattice values of a region, row-major, written into a reused
    /// buffer. The buffer is cleared but never shrunk, so after the
    /// first exchange sized a direction's buffer, warm iterations pack
    /// with zero heap allocations (gated as `overlap.warm_allocs`).
    fn pack_into(&self, grid: &Tensor, region: &Region, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.domain
                .lattice_points(region)
                .map(|(j, i)| grid.get(j, i)),
        );
    }

    /// Inverse of [`Partition::pack_into`].
    fn unpack(&self, grid: &mut Tensor, region: &Region, data: &[f64]) {
        let mut k = 0;
        for (j, i) in self.domain.lattice_points(region) {
            grid.set(j, i, data[k]);
            k += 1;
        }
        assert_eq!(k, data.len(), "halo unpack: size mismatch");
    }

    /// All grid values of a region, row-major (final gather).
    fn pack_dense(&self, grid: &Tensor, region: &Region) -> Vec<f64> {
        let cols = &region.1;
        region
            .0
            .clone()
            .flat_map(|j| cols.clone().map(move |i| grid.get(j, i)))
            .collect()
    }

    fn unpack_dense(&self, grid: &mut Tensor, region: &Region, data: &[f64]) {
        let mut k = 0;
        for j in region.0.clone() {
            for i in region.1.clone() {
                grid.set(j, i, data[k]);
                k += 1;
            }
        }
    }
}

fn regions_overlap(a: &Region, b: &Region) -> bool {
    a.0.start < b.0.end && b.0.start < a.0.end && a.1.start < b.1.end && b.1.start < a.1.end
}

/// Geometric interior/boundary split of the sweep groups for the
/// overlapped schedule (computed once per run — it depends only on the
/// partition, not on iteration state).
///
/// A subdomain is **boundary** when its window rectangle touches a
/// region the halo unpack writes, or — transitively — when hoisting it
/// into the pre-unpack interior phase would reorder one of its window
/// reads or cross writes against a boundary subdomain of another
/// group. Everything else is **interior**: running all four groups'
/// interior parts (in group order) before the unpack and all boundary
/// parts (in group order) after it is a dependency-preserving
/// reordering of the alternating schedule, so the iterates are bitwise
/// identical (see DESIGN.md "Overlapped halo exchange").
fn split_sweep_groups(
    domain: &DomainSpec,
    groups: &[Vec<Subdomain>; 4],
    halo_regions: &[Region],
) -> ([Vec<Subdomain>; 4], [Vec<Subdomain>; 4]) {
    let m = domain.sub.m;
    let s = domain.shift();
    let window = |sd: &Subdomain| -> Region { (sd.oy..sd.oy + m, sd.ox..sd.ox + m) };
    // The cells a sweep writes: the center cross, which stays strictly
    // inside the open window (it never touches the perimeter ring that
    // other subdomains read — that is what makes same-group batching,
    // and this split, well defined).
    let crosses = |sd: &Subdomain| -> [Region; 2] {
        [
            (sd.oy + s..sd.oy + s + 1, sd.ox + 1..sd.ox + m - 1),
            (sd.oy + 1..sd.oy + m - 1, sd.ox + s..sd.ox + s + 1),
        ]
    };
    let conflicts = |a: &Subdomain, b: &Subdomain| -> bool {
        let (wa, wb) = (window(a), window(b));
        crosses(a).iter().any(|c| regions_overlap(c, &wb))
            || crosses(b).iter().any(|c| regions_overlap(c, &wa))
    };
    // Seed: any window rectangle that intersects an incoming halo
    // region. That covers both its perimeter reads and (since crosses
    // live inside the window) its writes racing the unpack.
    let mut tainted: [Vec<bool>; 4] = std::array::from_fn(|g| {
        groups[g]
            .iter()
            .map(|sd| halo_regions.iter().any(|h| regions_overlap(h, &window(sd))))
            .collect()
    });
    // Propagate to a fixed point: a boundary subdomain in one group
    // conflicts-taints subdomains of *later* groups (their interior
    // copies would otherwise run before its post-unpack sweep, i.e.
    // before it in the reordered schedule while after it in the
    // alternating one). Earlier groups need no taint: the interior
    // phase preserves group order, so an earlier-group interior sweep
    // still runs before a later-group boundary sweep. Interaction
    // range is one shift per hop, so this settles in ≤ 3 rounds.
    loop {
        let mut changed = false;
        for gi in 0..3 {
            for gj in gi + 1..4 {
                for (ai, a) in groups[gi].iter().enumerate() {
                    if !tainted[gi][ai] {
                        continue;
                    }
                    for (ci, c) in groups[gj].iter().enumerate() {
                        if !tainted[gj][ci] && conflicts(a, c) {
                            tainted[gj][ci] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut interior: [Vec<Subdomain>; 4] = Default::default();
    let mut boundary: [Vec<Subdomain>; 4] = Default::default();
    for g in 0..4 {
        for (i, &sd) in groups[g].iter().enumerate() {
            if tainted[g][i] {
                boundary[g].push(sd);
            } else {
                interior[g].push(sd);
            }
        }
    }
    (interior, boundary)
}

/// A rank's stop checks (Algorithm 2, line 5): local sums stashed after
/// each sweep and reduced by [`Checks::complete`] — at once on the
/// alternating schedule, one iteration later (riding alongside the next
/// sweep) on the overlapped one.
struct Checks<'c> {
    cfg: &'c DistMfpConfig,
    domain: &'c DomainSpec,
    owned: &'c Region,
    conv: Option<(usize, [f64; 2])>,
    mae: Option<(usize, [f64; 2])>,
    deltas: Vec<f64>,
    mae_history: Vec<(usize, f64)>,
    h_residual: Histogram,
    // Convergence watchdog: trips after 5 residual checks without a
    // ≥ 1% improvement; in degraded mode the stale-halo delta over the
    // same window attributes the stall to a late neighbor.
    stall: StallDetector,
    stalls: Counter,
    stall_stale: Counter,
    stale_at_window: usize,
}

impl<'c> Checks<'c> {
    fn new(cfg: &'c DistMfpConfig, domain: &'c DomainSpec, owned: &'c Region) -> Self {
        Self {
            cfg,
            domain,
            owned,
            conv: None,
            mae: None,
            deltas: Vec::new(),
            mae_history: Vec::new(),
            h_residual: histogram("mfp.residual", Buckets::exponential(1e-9, 10.0, 12)),
            stall: StallDetector::new(5),
            stalls: counter("mfp.stalls"),
            stall_stale: counter("mfp.stall_stale_halos"),
            stale_at_window: 0,
        }
    }

    /// Stash the local sums of the checks due after `iterations`. They
    /// read only owned lattice cells, which no halo unpack ever writes,
    /// so stashing before an in-flight exchange completes loses nothing.
    fn stash(&mut self, iterations: usize, u: &Tensor, prev: &Tensor) {
        let (d, owned) = (self.domain, self.owned);
        if self.cfg.tol > 0.0 && iterations.is_multiple_of(self.cfg.check_every) {
            let sums = [
                d.lattice_diff_sumsq(u, prev, owned),
                d.lattice_sumsq(prev, owned),
            ];
            self.conv = Some((iterations, sums));
        }
        if let Some(t) = &self.cfg.target {
            if iterations.is_multiple_of(t.every) {
                let (abs, n) = d.lattice_absdiff(u, &t.reference, owned);
                self.mae = Some((iterations, [abs, n as f64]));
            }
        }
    }

    /// Reduce and act on the stashed sums. Returns `true` when a stop
    /// criterion fired. The convergence delta is evaluated before the
    /// MAE target; when the delta converges, a stashed MAE check is
    /// dropped un-reduced. `u` and `prev` are the iterate and its
    /// predecessor the sums were taken from (read by watch mode).
    fn complete(
        &mut self,
        comm: &mut Communicator,
        u: &Tensor,
        prev: &Tensor,
        stale_halos: usize,
    ) -> bool {
        if let Some((at_iter, mut nums)) = self.conv.take() {
            comm.allreduce_sum(&mut nums);
            let delta = (nums[0] / nums[1].max(f64::MIN_POSITIVE)).sqrt();
            self.h_residual.record(delta);
            self.deltas.push(delta);
            let stalled = self.stall.observe(delta);
            let stale_in_window = (stale_halos - self.stale_at_window) as u64;
            if stalled {
                self.stalls.incr();
                self.stall_stale.add(stale_in_window);
                mf_observe::record(RecKind::Health, "mfp.stall", stale_in_window, delta);
            }
            if mf_observe::watch_enabled() {
                // Watch is opt-in, so the extra allgather never runs
                // under the pinned-message-count regression fixtures.
                watch_residual_report(
                    comm,
                    self.domain,
                    self.owned,
                    u,
                    prev,
                    &self.deltas,
                    at_iter,
                    stalled,
                    stale_in_window,
                );
            }
            if stalled {
                self.stale_at_window = stale_halos;
            }
            if delta < self.cfg.tol {
                return true;
            }
        }
        if let Some((at_iter, mut buf)) = self.mae.take() {
            comm.allreduce_sum(&mut buf);
            let mae = buf[0] / buf[1].max(1.0);
            self.mae_history.push((at_iter, mae));
            if let Some(t) = &self.cfg.target {
                if mae <= t.mae {
                    return true;
                }
            }
        }
        false
    }
}

/// A rank's halo exchange: the bands it sends, the neighbor-owned bands
/// its unpack writes (both fixed for the whole run, in neighbor order),
/// pooled pack buffers, and the receives in flight.
struct Halo<'p> {
    part: &'p Partition<'p>,
    send_bands: Vec<Region>,
    regions: Vec<Region>,
    outgoing: Vec<(usize, Vec<f64>)>,
    inflight: Vec<RecvHandle>,
    deadline: Option<Duration>,
    wait_is_busy: bool,
    /// Halo slots served from stale data (degraded mode).
    stale: usize,
    /// CPU seconds packing and unpacking ("Boundaries IO" in Fig. 9),
    /// plus the overlapped schedule's waits.
    seconds: f64,
    stale_counter: Counter,
    pool_miss: Counter,
    h_bytes: Histogram,
}

impl<'p> Halo<'p> {
    fn new(part: &'p Partition<'p>, rank: usize, cfg: &DistMfpConfig) -> Self {
        let neighbors = part.grid.neighbors(rank);
        Self {
            part,
            send_bands: neighbors
                .iter()
                .map(|&(dir, _)| part.band(rank, dir))
                .collect(),
            regions: neighbors
                .iter()
                .map(|&(dir, nbr)| part.band(nbr, dir.opposite()))
                .collect(),
            // Pooled per-direction pack buffers: sized by the first
            // exchange, then reused — warm iterations pack at 0 heap
            // allocations (`overlap.warm_allocs` counts the misses).
            outgoing: neighbors
                .iter()
                .map(|&(_, nbr)| (nbr, Vec::new()))
                .collect(),
            inflight: Vec::new(),
            deadline: cfg.degraded_halos.then_some(cfg.halo_timeout),
            wait_is_busy: cfg.overlap,
            stale: 0,
            seconds: 0.0,
            stale_counter: counter("mfp.stale_halos"),
            pool_miss: counter("overlap.warm_allocs"),
            h_bytes: histogram("mfp.halo_bytes", Buckets::bytes()),
        }
    }

    /// Pack the send bands and post the exchange without blocking. The
    /// per-iteration `tag` keeps late round-N data out of round N+1.
    fn start(&mut self, comm: &mut Communicator, u: &Tensor, tag: u64) {
        let t = thread_cpu_time();
        {
            mf_profile::zone!("halo_pack");
            for ((_, buf), band) in self.outgoing.iter_mut().zip(&self.send_bands) {
                let cap = buf.capacity();
                self.part.pack_into(u, band, buf);
                if buf.capacity() != cap {
                    self.pool_miss.incr();
                }
            }
        }
        self.seconds += thread_cpu_time() - t;
        let bytes = self
            .outgoing
            .iter()
            .map(|(_, p)| p.len() * 8)
            .sum::<usize>();
        self.h_bytes.record(bytes as f64);
        self.inflight = comm.exchange_start(&self.outgoing, tag);
    }

    /// Complete the in-flight exchange, if any: block on each receive
    /// and unpack it into `u`. In degraded mode each neighbor's receive
    /// gets its own deadline; a neighbor that misses it leaves its slot
    /// stale and the iteration proceeds instead of blocking.
    fn complete(&mut self, comm: &mut Communicator, u: &mut Tensor) {
        if self.inflight.is_empty() {
            return;
        }
        let t = thread_cpu_time();
        let mut waited = 0.0;
        {
            mf_profile::zone!("halo_wait");
            for (h, region) in self.inflight.drain(..).zip(&self.regions) {
                let w = thread_cpu_time();
                let received = match self.deadline {
                    None => Some(comm.wait(&h)),
                    Some(timeout) => match comm.wait_deadline(&h, timeout) {
                        Ok(data) => Some(data),
                        Err(CommError::Timeout { .. }) => {
                            self.stale += 1;
                            self.stale_counter.incr();
                            None
                        }
                        Err(e @ CommError::RankFailed { .. }) => panic!("halo exchange: {e}"),
                    },
                };
                waited += thread_cpu_time() - w;
                if let Some(data) = received {
                    self.part.unpack(u, region, &data);
                }
            }
        }
        // The overlapped schedule's wait sits inside the iteration's
        // busy window and counts as busy; the alternating schedule counts
        // only its unpacks. This is the accounting the overlap gates
        // (`overlap.modeled_ratio_gain_*`) were baselined with.
        let spent = thread_cpu_time() - t;
        self.seconds += if self.wait_is_busy {
            spent
        } else {
            spent - waited
        };
    }
}

/// Run the distributed MF predictor on `ranks` simulated devices.
///
/// `bc` is the global boundary walk and `cfg.shift` the operator. The
/// solver is shared by all ranks (read-only), mirroring each GPU holding
/// a replica of the pre-trained SDNet.
pub fn run_distributed<S: SubdomainSolver>(
    solver: &S,
    domain: &DomainSpec,
    bc: &Tensor,
    ranks: usize,
    cfg: &DistMfpConfig,
) -> DistMfpResult {
    try_run_distributed(solver, domain, bc, ranks, cfg)
        .unwrap_or_else(|e| panic!("cluster failed: {e}"))
}

/// [`run_distributed`] that surfaces rank failures (panics, injected
/// crashes) as a typed [`ClusterError`] instead of panicking.
pub fn try_run_distributed<S: SubdomainSolver>(
    solver: &S,
    domain: &DomainSpec,
    bc: &Tensor,
    ranks: usize,
    cfg: &DistMfpConfig,
) -> Result<DistMfpResult, ClusterError> {
    assert_positive_periods(&[
        ("DistMfpConfig::check_every", cfg.check_every),
        ("DistMfpConfig::comm_every", cfg.comm_every),
        (
            "MaeTarget::every",
            cfg.target.as_ref().map_or(1, |t| t.every),
        ),
    ]);
    assert_eq!(
        bc.numel(),
        domain.boundary_len(),
        "run_distributed: bad boundary length"
    );
    let mfp = &Mfp::new(solver, *domain).with_shift(cfg.shift.clone());
    let part = &Partition::new(domain, ranks, cfg.order);
    let (cross, interior) = (&Targets::cross(domain), &Targets::interior(domain));
    let s = domain.shift();

    let per_rank = Cluster::try_run(ranks, cfg.plan.clone(), |comm| {
        let rank = comm.rank();
        // Align per-rank clocks before iterating so the merged trace rows
        // share a time base (barrier-only: no link messages, so the
        // fault RNG streams and pinned message counts are untouched).
        comm.align_clocks();
        comm.set_flat_collectives(cfg.flat_collectives);
        let owned = part.owned(rank);
        let mut halo = Halo::new(part, rank, cfg);

        // Local copy of the global grid; only owned ∪ halo is maintained.
        // `prev` holds the previous iterate, refilled in place.
        let mut u = Tensor::zeros(domain.ny(), domain.nx());
        apply_boundary(&mut u, bc);
        if cfg.coarse_init {
            domain.coarse_initialize(&mut u);
        }
        let mut prev = u.clone();

        // Owned overlapping subdomains, split into the four sweep groups.
        let mut groups: [Vec<Subdomain>; 4] = Default::default();
        for sd in domain.subdomains() {
            let (ccol, crow) = (sd.ox + s, sd.oy + s);
            if owned.0.contains(&crow) && owned.1.contains(&ccol) {
                groups[domain.group_of(sd)].push(sd);
            }
        }
        let owned_subdomains: usize = groups.iter().map(|g| g.len()).sum();

        // Interior/boundary split for the overlapped schedule (purely
        // geometric — computed once).
        let (interior_groups, boundary_groups): ([Vec<Subdomain>; 4], [Vec<Subdomain>; 4]) =
            if cfg.overlap {
                split_sweep_groups(domain, &groups, &halo.regions)
            } else {
                Default::default()
            };
        let interior_subdomains: usize = interior_groups.iter().map(|g| g.len()).sum();
        // Local sweeps with immediate updates (within-rank semantics of
        // the baseline are preserved).
        let sweep = |u: &mut Tensor, groups: &[Vec<Subdomain>; 4]| {
            for group in groups {
                mfp.solve_into(std::slice::from_mut(u), group, cross, true);
            }
        };

        let mut checks = Checks::new(cfg, domain, &owned);
        let mut compute_seconds = 0.0;
        let mut converged = false;
        let mut iterations = 0;

        // Comm/compute overlap accounting (§4.3): measured busy/wait
        // intervals folded through the alpha-beta model into the
        // dist.overlap_ratio / dist.comm_wait_us / dist.compute_us
        // metrics, once per iteration. Reads counters only — never sends.
        let mut overlap = OverlapTracker::new(cfg.perf_model, comm);
        let mut busy_mark = 0.0;

        for it in 0..cfg.max_iters {
            // Overlapped: complete the stop checks stashed by the
            // previous iteration before sweeping this one. The allreduce
            // for iteration k rides alongside iteration k+1, so a
            // convergence break lands here — with the iteration count
            // unchanged versus the alternating schedule, which breaks at
            // the end of iteration k. `prev` still holds iteration k's
            // predecessor.
            if cfg.overlap && checks.complete(comm, &u, &prev, halo.stale) {
                converged = true;
                break;
            }
            mf_observe::set_step_context(0, it as u64);
            span!(
                "mfp.iteration",
                it = it as f64,
                owned = owned_subdomains as f64
            );
            mf_observe::record(
                RecKind::Iteration,
                "mfp.iteration",
                owned_subdomains as u64,
                checks.deltas.last().copied().unwrap_or(f64::NAN),
            );
            prev.as_mut_slice().copy_from_slice(u.as_slice());

            let t0 = thread_cpu_time();
            if !halo.inflight.is_empty() {
                // Overlapped: sweep the interior (whose stencils never
                // touch a halo band) while last iteration's exchange is
                // still in flight, then complete it and sweep the
                // boundary.
                {
                    mf_profile::zone!("sweep_interior");
                    sweep(&mut u, &interior_groups);
                }
                compute_seconds += thread_cpu_time() - t0;
                halo.complete(comm, &mut u);
                let t2 = thread_cpu_time();
                {
                    mf_profile::zone!("sweep_boundary");
                    sweep(&mut u, &boundary_groups);
                }
                compute_seconds += thread_cpu_time() - t2;
            } else {
                // Alternating mode, the first iteration, or a
                // communication-avoiding gap: nothing in flight, sweep
                // everything in group order.
                {
                    mf_profile::zone!("sweep");
                    sweep(&mut u, &groups);
                }
                compute_seconds += thread_cpu_time() - t0;
            }
            iterations = it + 1;

            // Relaxed synchronization: one halo exchange per iteration
            // (or every `comm_every` iterations). The overlapped schedule
            // only posts it here — the next iteration's interior pass
            // runs while it is in flight; the alternating one completes
            // it at once.
            if iterations.is_multiple_of(cfg.comm_every) {
                halo.start(comm, &u, it as u64);
                if !cfg.overlap {
                    halo.complete(comm, &mut u);
                }
            }

            checks.stash(iterations, &u, &prev);
            if !cfg.overlap && checks.complete(comm, &u, &prev, halo.stale) {
                converged = true;
                break;
            }

            // Close this iteration's busy/wait interval and make the
            // rank's metrics visible to live scrapes.
            let busy = compute_seconds + halo.seconds;
            overlap.observe_iteration(comm, busy - busy_mark);
            busy_mark = busy;
            mf_telemetry::publish_thread();
        }

        // Flush the pipeline: stop checks stashed by the final iteration
        // (the alternating schedule would have reduced them inside that
        // iteration) and the exchange it left in flight — the final
        // dense pass below reads halo cells, so the iterates must be
        // fully caught up before it runs.
        if cfg.overlap {
            converged = converged || checks.complete(comm, &u, &prev, halo.stale);
            halo.complete(comm, &mut u);
        }

        // A convergence break skips the in-loop accounting; flush the
        // final iteration's interval so its comm wait is not dropped.
        let busy = compute_seconds + halo.seconds;
        if busy > busy_mark {
            overlap.observe_iteration(comm, busy - busy_mark);
            mf_telemetry::publish_thread();
        }

        let halo_stats = comm.stats();

        // Final phase: dense prediction of owned atomic subdomains. An
        // atomic subdomain belongs to the rank owning its lower-left
        // corner (blocks align with rank boundaries).
        let t0 = thread_cpu_time();
        let atoms: Vec<Subdomain> = domain
            .atomic_subdomains()
            .into_iter()
            .filter(|sd| owned.0.contains(&sd.oy) && owned.1.contains(&sd.ox))
            .collect();
        mfp.solve_into(std::slice::from_mut(&mut u), &atoms, interior, true);
        compute_seconds += thread_cpu_time() - t0;

        // Allgather the owned dense blocks and assemble the global grid.
        let t1 = thread_cpu_time();
        let local = part.pack_dense(&u, &owned);
        let mut pack_seconds = halo.seconds + thread_cpu_time() - t1;
        let gathered = comm.allgather(&local);
        let t2 = thread_cpu_time();
        let mut global = Tensor::zeros(domain.ny(), domain.nx());
        apply_boundary(&mut global, bc);
        for (r, data) in gathered.iter().enumerate() {
            let region = part.owned(r);
            part.unpack_dense(&mut global, &region, data);
        }
        pack_seconds += thread_cpu_time() - t2;

        let report = RankReport {
            rank,
            compute_seconds,
            pack_seconds,
            comm: comm.stats(),
            halo: halo_stats,
            owned_subdomains,
            interior_subdomains,
            stale_halos: halo.stale,
            overlap: overlap.final_sample(),
        };
        if mf_telemetry::metrics_report_enabled() {
            mf_dist::print_merged_report(comm);
        }
        let Checks {
            deltas,
            mae_history,
            ..
        } = checks;
        (global, iterations, converged, deltas, mae_history, report)
    })?;

    let reports: Vec<RankReport> = per_rank.iter().map(|r| r.5).collect();
    let (grid, iterations, converged, deltas, mae_history, _) =
        per_rank.into_iter().next().unwrap();
    Ok(DistMfpResult {
        grid,
        iterations,
        converged,
        deltas,
        mae_history,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::MfpConfig;
    use crate::solver::OracleSolver;
    use mf_data::SubdomainSpec;
    use mf_numerics::boundary::boundary_coords;

    fn spec() -> SubdomainSpec {
        SubdomainSpec { m: 9, spatial: 0.5 }
    }

    fn harmonic_bc(d: &DomainSpec) -> Tensor {
        let h = d.h();
        let f = |x: f64, y: f64| x * x - y * y + 0.5 * x;
        let coords = boundary_coords(d.ny(), d.nx());
        Tensor::from_vec(
            1,
            coords.len(),
            coords
                .iter()
                .map(|&(j, i)| f(i as f64 * h, j as f64 * h))
                .collect(),
        )
    }

    #[test]
    fn one_rank_matches_sequential_mfp() {
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let seq = Mfp::new(&oracle, d).run(
            &bc,
            &MfpConfig {
                max_iters: 20,
                tol: 0.0,
                batched: true,
                target: None,
                coarse_init: false,
            },
        );
        let dist = run_distributed(
            &oracle,
            &d,
            &bc,
            1,
            &DistMfpConfig {
                max_iters: 20,
                tol: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(dist.iterations, 20);
        assert!(
            dist.grid.max_abs_diff(&seq.grid) < 1e-12,
            "P=1 distributed deviates from sequential: {}",
            dist.grid.max_abs_diff(&seq.grid)
        );
    }

    #[test]
    fn compiled_plan_solver_matches_graph_solver_across_ranks() {
        // The distributed MFP must be oblivious to which SDNet execution
        // path backs the subdomain solver: the compiled-plan and graph
        // paths produce bitwise-identical lattices on every rank count.
        use rand::SeedableRng;
        let d = DomainSpec::new(spec(), 2, 2);
        let mut cfg = mf_nn::SdNetConfig::small(spec().boundary_len());
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![10, 10];
        cfg.coord_fourier = 2;
        let net = mf_nn::SdNet::new(cfg, &mut rand_chacha::ChaCha8Rng::seed_from_u64(7));
        let plan = crate::PlanSolver::new(net.clone(), spec());
        let graph = crate::NeuralSolver::new(net, spec());
        let bc = harmonic_bc(&d);
        let cfg = DistMfpConfig {
            max_iters: 3,
            tol: 0.0,
            ..Default::default()
        };
        for ranks in [1, 4] {
            let a = run_distributed(&plan, &d, &bc, ranks, &cfg);
            let e = run_distributed(&graph, &d, &bc, ranks, &cfg);
            assert_eq!(a.grid.shape(), e.grid.shape());
            for (x, y) in e.grid.as_slice().iter().zip(a.grid.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "P={ranks}");
            }
        }
        assert!(plan.cache_hits() > 0);
    }

    #[test]
    fn four_ranks_converge_to_the_sequential_solution() {
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let seq = Mfp::new(&oracle, d).run(
            &bc,
            &MfpConfig {
                max_iters: 400,
                tol: 1e-9,
                batched: true,
                target: None,
                coarse_init: false,
            },
        );
        assert!(seq.converged);
        let dist = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 400,
                tol: 1e-9,
                ..Default::default()
            },
        );
        assert!(dist.converged, "distributed run did not converge");
        let diff = dist.grid.mean_abs_diff(&seq.grid);
        assert!(diff < 1e-5, "distributed vs sequential MAE {diff}");
    }

    #[test]
    fn relaxation_costs_iterations_but_not_correctness() {
        // More ranks ⇒ staler interfaces ⇒ same or more iterations to the
        // same tolerance (Table 4's trend), with the same fixed point.
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let run = |p: usize| {
            run_distributed(
                &oracle,
                &d,
                &bc,
                p,
                &DistMfpConfig {
                    max_iters: 500,
                    tol: 1e-8,
                    ..Default::default()
                },
            )
        };
        let r1 = run(1);
        let r4 = run(4);
        assert!(r1.converged && r4.converged);
        assert!(
            r4.iterations >= r1.iterations,
            "P=4 ({}) should need at least as many iterations as P=1 ({})",
            r4.iterations,
            r1.iterations
        );
        assert!(r1.grid.mean_abs_diff(&r4.grid) < 1e-5);
    }

    #[test]
    fn communication_avoiding_variant_still_converges() {
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let every1 = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 600,
                tol: 1e-8,
                comm_every: 1,
                ..Default::default()
            },
        );
        let every4 = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 600,
                tol: 1e-8,
                comm_every: 4,
                ..Default::default()
            },
        );
        assert!(every1.converged && every4.converged);
        // Same solution; fewer halo messages, possibly more iterations.
        assert!(every1.grid.mean_abs_diff(&every4.grid) < 1e-4);
        let bytes = |r: &DistMfpResult| {
            r.reports
                .iter()
                .map(|rep| rep.comm.bytes_sent)
                .sum::<usize>()
        };
        // Halo payloads dominate byte volume; skipping 3 of 4 exchanges
        // must cut it even if convergence takes more iterations.
        assert!(
            bytes(&every4) < bytes(&every1),
            "comm-avoiding variant did not reduce byte volume: {} vs {}",
            bytes(&every4),
            bytes(&every1)
        );
    }

    #[test]
    fn morton_and_row_major_orders_agree() {
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let a = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 300,
                tol: 1e-8,
                order: RankOrder::RowMajor,
                ..Default::default()
            },
        );
        let b = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 300,
                tol: 1e-8,
                order: RankOrder::Morton,
                ..Default::default()
            },
        );
        assert!(a.converged && b.converged);
        assert!(a.grid.mean_abs_diff(&b.grid) < 1e-6);
    }

    #[test]
    fn distributed_shifted_matches_sequential_shifted() {
        // The heat-step operator, distributed over 4 ranks, must agree
        // with the sequential shifted MFP.
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let sigma = 60.0;
        let forcing = Tensor::from_fn(d.ny(), d.nx(), |j, i| {
            ((j as f64) * 0.3).sin() * ((i as f64) * 0.2).cos()
        });
        let bc = Tensor::zeros(1, d.boundary_len());
        let shift = Shift {
            sigma,
            forcing: Some(forcing),
        };
        let seq = Mfp::new(&oracle, d).with_shift(shift.clone()).run(
            &bc,
            &MfpConfig {
                max_iters: 300,
                tol: 1e-9,
                ..Default::default()
            },
        );
        assert!(seq.converged);
        let dist = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 300,
                tol: 1e-9,
                shift,
                ..Default::default()
            },
        );
        assert!(dist.converged);
        let mae = dist.grid.mean_abs_diff(&seq.grid);
        assert!(mae < 1e-6, "distributed vs sequential shifted MAE {mae}");
    }

    #[test]
    fn domain_smaller_than_processor_grid_still_works() {
        // 2x1 atoms over a 2x2 processor grid: one processor row owns an
        // empty region and exchanges zero-length halos.
        let d = DomainSpec::new(spec(), 2, 1);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let seq = Mfp::new(&oracle, d).run(
            &bc,
            &MfpConfig {
                max_iters: 400,
                tol: 1e-9,
                batched: true,
                target: None,
                coarse_init: false,
            },
        );
        assert!(seq.converged);
        let dist = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 400,
                tol: 1e-9,
                ..Default::default()
            },
        );
        assert!(dist.converged, "2x1 over 4 ranks did not converge");
        let diff = dist.grid.mean_abs_diff(&seq.grid);
        assert!(diff < 1e-5, "distributed vs sequential MAE {diff}");
        let total: usize = dist.reports.iter().map(|r| r.owned_subdomains).sum();
        assert_eq!(total, d.subdomains().len());
    }

    #[test]
    fn uneven_atom_split_converges() {
        // 3x3 atoms over a 2x2 processor grid: near-even 1/2 splits.
        let d = DomainSpec::new(spec(), 3, 3);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let seq = Mfp::new(&oracle, d).run(
            &bc,
            &MfpConfig {
                max_iters: 600,
                tol: 1e-8,
                batched: true,
                target: None,
                coarse_init: false,
            },
        );
        assert!(seq.converged);
        let dist = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 600,
                tol: 1e-8,
                ..Default::default()
            },
        );
        assert!(dist.converged, "3x3 over 4 ranks did not converge");
        let diff = dist.grid.mean_abs_diff(&seq.grid);
        assert!(diff < 1e-5, "distributed vs sequential MAE {diff}");
        let total: usize = dist.reports.iter().map(|r| r.owned_subdomains).sum();
        assert_eq!(total, d.subdomains().len());
    }

    #[test]
    fn dropped_halos_recover_to_the_fault_free_result() {
        // 10% drop with bounded retries: retransmission delivers the
        // identical payloads, so the run matches the fault-free residual
        // trajectory bitwise (well inside the 1e-6 acceptance bound).
        use mf_dist::RetryPolicy;
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let base = DistMfpConfig {
            max_iters: 60,
            tol: 1e-8,
            ..Default::default()
        };
        let clean = run_distributed(&oracle, &d, &bc, 4, &base);
        let faulty_cfg = DistMfpConfig {
            plan: FaultPlan {
                retry: RetryPolicy {
                    timeout: Duration::from_millis(20),
                    max_retries: 100,
                },
                ..FaultPlan::lossy(9, 0.10)
            },
            ..base
        };
        let faulty = try_run_distributed(&oracle, &d, &bc, 4, &faulty_cfg).unwrap();
        assert_eq!(clean.iterations, faulty.iterations);
        assert_eq!(clean.deltas, faulty.deltas, "residual trajectories differ");
        assert!(clean.grid.max_abs_diff(&faulty.grid) < 1e-6);
    }

    #[test]
    fn degraded_mode_reuses_stale_halos_and_still_converges() {
        // Sender-side delays larger than the halo deadline force timeouts;
        // degraded mode substitutes the stale halo and keeps iterating.
        // Stale interfaces only slow Schwarz convergence (same fixed
        // point), so the solution still lands on the sequential one.
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let clean = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 500,
                tol: 1e-8,
                ..Default::default()
            },
        );
        let degraded_cfg = DistMfpConfig {
            max_iters: 500,
            tol: 1e-8,
            plan: FaultPlan {
                seed: 3,
                delay_rate: 0.4,
                delay_max_us: 30_000,
                ..FaultPlan::none()
            },
            degraded_halos: true,
            halo_timeout: Duration::from_millis(8),
            ..Default::default()
        };
        let degraded = try_run_distributed(&oracle, &d, &bc, 4, &degraded_cfg).unwrap();
        assert!(degraded.converged, "degraded run did not converge");
        let stale: usize = degraded.reports.iter().map(|r| r.stale_halos).sum();
        assert!(stale > 0, "delays never exceeded the halo deadline");
        assert!(
            clean.grid.mean_abs_diff(&degraded.grid) < 1e-5,
            "degraded solution diverged: {}",
            clean.grid.mean_abs_diff(&degraded.grid)
        );
    }

    #[test]
    fn injected_crash_in_mfp_names_the_rank() {
        use mf_dist::CrashAt;
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let bc = harmonic_bc(&d);
        let cfg = DistMfpConfig {
            max_iters: 50,
            tol: 1e-8,
            plan: FaultPlan {
                crash: Some(CrashAt {
                    rank: 3,
                    after_sends: 10,
                }),
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let err = try_run_distributed(&oracle, &d, &bc, 4, &cfg).unwrap_err();
        assert_eq!(err.origin(), 3, "{err}");
    }

    #[test]
    fn reports_account_for_every_subdomain() {
        let d = DomainSpec::new(spec(), 4, 2);
        let oracle = OracleSolver::new(spec(), 1e-9);
        let bc = harmonic_bc(&d);
        let r = run_distributed(
            &oracle,
            &d,
            &bc,
            4,
            &DistMfpConfig {
                max_iters: 3,
                tol: 0.0,
                ..Default::default()
            },
        );
        let total: usize = r.reports.iter().map(|rep| rep.owned_subdomains).sum();
        assert_eq!(total, d.subdomains().len());
        // Compute time is recorded on every rank.
        for rep in &r.reports {
            assert!(rep.compute_seconds > 0.0);
        }
    }

    #[test]
    fn overlapped_and_alternating_schedules_are_bitwise_identical() {
        let d = DomainSpec::new(spec(), 4, 4);
        let oracle = OracleSolver::new(spec(), 1e-9);
        let bc = harmonic_bc(&d);
        let run = |overlap: bool| {
            run_distributed(
                &oracle,
                &d,
                &bc,
                4,
                &DistMfpConfig {
                    max_iters: 60,
                    tol: 1e-6,
                    overlap,
                    ..Default::default()
                },
            )
        };
        let ovl = run(true);
        let alt = run(false);
        // The overlapped schedule is a dependency-preserving reorder of
        // the alternating one: identical iterates, identical
        // convergence trajectory, identical iteration count — not just
        // "close".
        assert_eq!(ovl.iterations, alt.iterations);
        assert_eq!(ovl.converged, alt.converged);
        assert_eq!(ovl.deltas, alt.deltas, "delta trajectories diverged");
        assert_eq!(
            ovl.grid.as_slice(),
            alt.grid.as_slice(),
            "assembled grids diverged"
        );
        // The split actually found interior work to hide behind the
        // exchange, and it partitions the owned subdomains exactly.
        for rep in &ovl.reports {
            assert!(rep.interior_subdomains <= rep.owned_subdomains);
        }
        assert!(
            ovl.reports
                .iter()
                .map(|r| r.interior_subdomains)
                .sum::<usize>()
                > 0,
            "no interior subdomains found on a 4x4-atom domain"
        );
        for rep in &alt.reports {
            assert_eq!(
                rep.interior_subdomains, 0,
                "alternating mode must not split"
            );
        }
    }

    #[test]
    fn overlapped_schedule_survives_delay_injection() {
        // Receiver-side delays reorder message arrival against the
        // interior pass; the blocking wait still delivers every halo,
        // so the result must stay bitwise equal to the fault-free run.
        let d = DomainSpec::new(spec(), 3, 3);
        let oracle = OracleSolver::new(spec(), 1e-9);
        let bc = harmonic_bc(&d);
        let run = |plan: FaultPlan| {
            run_distributed(
                &oracle,
                &d,
                &bc,
                4,
                &DistMfpConfig {
                    max_iters: 40,
                    tol: 1e-6,
                    plan,
                    ..Default::default()
                },
            )
        };
        let clean = run(FaultPlan::none());
        let delayed = run(FaultPlan {
            seed: 7,
            delay_rate: 0.5,
            delay_max_us: 2_000,
            ..FaultPlan::none()
        });
        assert_eq!(clean.iterations, delayed.iterations);
        assert_eq!(clean.deltas, delayed.deltas);
        assert_eq!(clean.grid.as_slice(), delayed.grid.as_slice());
    }

    fn run_with_periods(check_every: usize, comm_every: usize) {
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let cfg = DistMfpConfig {
            check_every,
            comm_every,
            ..Default::default()
        };
        let _ = try_run_distributed(&oracle, &d, &harmonic_bc(&d), 4, &cfg);
    }

    #[test]
    #[should_panic(expected = "DistMfpConfig::check_every must be positive")]
    fn zero_check_period_is_rejected_before_ranks_start() {
        run_with_periods(0, 1);
    }

    #[test]
    #[should_panic(expected = "DistMfpConfig::comm_every must be positive")]
    fn zero_comm_period_is_rejected_before_ranks_start() {
        run_with_periods(1, 0);
    }

    #[test]
    fn pooled_pack_buffers_do_not_allocate_when_warm() {
        // Direct check of the pooling contract: the first pack sizes
        // the buffer, every later pack of the same band reuses it (the
        // end-to-end `overlap.warm_allocs = 0` gate lives in the
        // repro_overlap bench, where the process is quiet).
        let d = DomainSpec::new(spec(), 3, 3);
        let p = Partition::new(&d, 4, RankOrder::RowMajor);
        let g = Tensor::zeros(d.ny(), d.nx());
        for (dir, _) in p.grid.neighbors(0) {
            let band = p.band(0, dir);
            let mut buf = Vec::new();
            p.pack_into(&g, &band, &mut buf);
            let (cap, len) = (buf.capacity(), buf.len());
            for _ in 0..5 {
                p.pack_into(&g, &band, &mut buf);
                assert_eq!(buf.capacity(), cap, "warm pack grew the buffer");
                assert_eq!(buf.len(), len);
            }
        }
    }
}

#![warn(missing_docs)]

//! The Mosaic Flow predictor (MFP): solving boundary value problems on
//! large domains purely by inference over a pre-trained subdomain solver.
//!
//! The domain is covered by **overlapping subdomains** placed on a lattice
//! with spacing of half a subdomain (the paper's `½m` interval, Fig. 2).
//! The solution lives only on the lattice lines; each iteration feeds every
//! subdomain's boundary (read from the lattice) to the subdomain solver and
//! writes back the predicted **center cross**, which is a boundary line of
//! the neighboring subdomains — an alternating-Schwarz sweep that touches a
//! small fraction of the grid points. A final dense pass fills the atomic
//! (non-overlapping) subdomains.
//!
//! One Schwarz iteration engine runs under three execution strategies
//! that reproduce the paper's §4/§5:
//!
//! * [`Mfp`] *unbatched* — one subdomain inference at a time (the original
//!   Mosaic Flow baseline, `MfpConfig::batched = false`),
//! * [`Mfp`] *batched* — the non-overlapping subdomains of each sweep
//!   group are solved in one batched inference (§4.1), stacked across
//!   every request of an [`Mfp::run_many`] batch ([`Mfp::run`] is a batch
//!   of one),
//! * [`run_distributed`] — Algorithm 2: the domain is split over a 2-D
//!   processor grid; each rank sweeps its own subdomains with immediate
//!   local updates and exchanges halo lattice values with ≤8 neighbors
//!   **once per iteration** (relaxed synchronization).
//!
//! The operator is part of the problem: Laplace by default, or the
//! shifted `σu − Δu = f` of a [`Shift`] (implicit-Euler heat stepping),
//! set with [`Mfp::with_shift`] or [`DistMfpConfig::shift`].
//!
//! The [`SubdomainSolver`] trait abstracts the subdomain solver: a trained
//! [`NeuralSolver`] (SDNet) or the numerical [`OracleSolver`] (multigrid),
//! which isolates the convergence behaviour of the distributed algorithm
//! from neural-model error.

mod dist;
mod domain;
#[cfg(test)]
mod lattice_proptests;
mod plan;
mod seq;
mod solver;

pub use dist::{run_distributed, try_run_distributed, DistMfpConfig, DistMfpResult, RankReport};
pub use domain::{DomainSpec, Region, Subdomain};
pub use plan::PlanSolver;
pub use seq::{MaeTarget, Mfp, MfpConfig, MfpResult, Shift};
pub use solver::{NeuralSolver, OracleSolver, SubdomainSolver};

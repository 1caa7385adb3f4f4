//! Seeded workload inputs: Nyx-like and WarpX-like AMR hierarchies built
//! with the workspace's own scenario generators. The program under test
//! receives only these hierarchies.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;

/// Value-range-relative error bound of every write (the paper's Nyx bound).
pub const REL_EB: f64 = 1e-3;
/// Fine-level blocking factor = AMRIC unit edge.
pub const BF: i64 = 8;
/// Rank threads of the in-situ writes.
pub const WRITE_RANKS: usize = 2;
/// Ranks the analysis plotfiles were written with: one chunk per rank
/// per (level, field), so a small ROI touches a strict subset.
pub const PLOTFILE_RANKS: usize = 8;
/// Distinct timesteps the WarpX series cycles through; equal to its
/// keyframe interval, so every cycle repeats the same chain.
pub const WARPX_STEPS: usize = 8;
/// Distinct Nyx snapshots the in-situ write cycles through.
pub const NYX_STEPS: usize = 4;
/// Scenario seeds of the two analysis plotfiles. The read workloads query
/// one fixed dataset, as a query benchmark does; their seed draws the
/// request stream.
pub const PLOTFILE_SEEDS: [u64; 2] = [201, 202];

/// Input scale: `Full` for measurement, `Tiny` for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes recorded in `perfbench/WORKLOADS.md`.
    Full,
    /// Small grids that run in well under a second in a debug build.
    Tiny,
}

/// Which generator a hierarchy comes from.
#[derive(Clone, Copy, Debug)]
pub enum App {
    /// Cosmology-like, hard to compress.
    Nyx,
    /// Laser-pulse-like, smooth.
    WarpX,
}

/// Mesh parameters of one app at one size with `nranks` owners.
pub fn run_config(app: App, size: Size, nranks: usize) -> AmrRunConfig {
    let (coarse_dims, max_grid_size, fine_fraction) = match (app, size) {
        (App::Nyx, Size::Full) => ((64, 64, 32), 16, 0.014),
        (App::Nyx, Size::Tiny) => ((16, 16, 16), 8, 0.05),
        (App::WarpX, Size::Full) => ((32, 32, 112), 32, 0.02),
        (App::WarpX, Size::Tiny) => ((16, 16, 32), 16, 0.05),
    };
    AmrRunConfig {
        coarse_dims,
        max_grid_size,
        blocking_factor: BF,
        nranks,
        num_levels: 2,
        fine_fraction,
        grid_eff: 0.7,
    }
}

/// Build one hierarchy per `(scenario seed, time)`, spread over two
/// threads.
pub fn build(app: App, cfg: &AmrRunConfig, snapshots: &[(u64, f64)]) -> Vec<AmrHierarchy> {
    let one = |(seed, t): (u64, f64)| match app {
        App::Nyx => build_hierarchy(&NyxScenario::new(seed), cfg, t),
        App::WarpX => build_hierarchy(&WarpXScenario::new(seed), cfg, t),
    };
    let mut out: Vec<Option<AmrHierarchy>> = snapshots.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let (even, odd): (Vec<_>, Vec<_>) =
            out.iter_mut().enumerate().partition(|(i, _)| i % 2 == 0);
        let work = |slots: Vec<(usize, &mut Option<AmrHierarchy>)>| {
            for (i, slot) in slots {
                *slot = Some(one(snapshots[i]));
            }
        };
        let other = s.spawn(move || work(odd));
        work(even);
        other.join().expect("hierarchy generator thread panicked");
    });
    out.into_iter()
        .map(|h| h.expect("every slot filled"))
        .collect()
}

/// The Nyx in-situ snapshots: each from its own scenario seed drawn from
/// `seed`, so one run averages over several halo layouts (a single
/// layout moves the write cost by ±10% from seed to seed).
pub fn nyx_steps(seed: u64, size: Size) -> Vec<AmrHierarchy> {
    let snapshots: Vec<(u64, f64)> = (0..NYX_STEPS)
        .map(|i| {
            (
                seed.wrapping_mul(NYX_STEPS as u64).wrapping_add(i as u64),
                0.05 * i as f64,
            )
        })
        .collect();
    build(
        App::Nyx,
        &run_config(App::Nyx, size, WRITE_RANKS),
        &snapshots,
    )
}

/// The smooth WarpX series: the pulse advances a little per snapshot.
pub fn warpx_steps(seed: u64, size: Size) -> Vec<AmrHierarchy> {
    let snapshots: Vec<(u64, f64)> = (0..WARPX_STEPS).map(|i| (seed, 0.004 * i as f64)).collect();
    build(
        App::WarpX,
        &run_config(App::WarpX, size, WRITE_RANKS),
        &snapshots,
    )
}

/// The two analysis plotfiles' hierarchies.
pub fn plotfile_hierarchies(size: Size) -> Vec<AmrHierarchy> {
    let snapshots = PLOTFILE_SEEDS.map(|s| (s, 0.0));
    build(
        App::Nyx,
        &run_config(App::Nyx, size, PLOTFILE_RANKS),
        &snapshots,
    )
}

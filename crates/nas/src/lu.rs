//! LU: SSOR solver with the NPB wavefront pipeline.
//!
//! The 2D process grid sweeps diagonal wavefronts plane by plane: each rank
//! waits for its north and west neighbours' boundary strips for plane `k`,
//! relaxes the plane, then forwards its south and east strips — hundreds of
//! *small* blocking messages per iteration. This is the latency/overhead-
//! sensitive kernel of the set.

use crate::common::{charge_flops, field_init, grid2, pack, unpack, NasClass, NasResult};
use sp_mpi::Mpi;

const FLOPS_PER_CELL_SWEEP: u64 = 36;

const TAG_NS: i32 = 200;
const TAG_WE: i32 = 201;

/// Run LU on this rank.
pub fn run(mpi: &mut dyn Mpi, class: NasClass) -> NasResult {
    // (local cells per horizontal dimension, planes, iterations)
    let (n, nz, iters) = match class {
        NasClass::Reduced => (8, 16, 12),
        NasClass::S => (8, 24, 24),
        NasClass::W => (12, 32, 48),
    };
    let size = mpi.size();
    let me = mpi.rank();
    let (pr, pc) = grid2(size);
    let (my_r, my_c) = (me / pc, me % pc);
    let north = (my_r > 0).then(|| (my_r - 1) * pc + my_c);
    let south = (my_r + 1 < pr).then(|| (my_r + 1) * pc + my_c);
    let west = (my_c > 0).then(|| me - 1);
    let east = (my_c + 1 < pc).then(|| me + 1);

    let mut u: Vec<f64> = (0..n * n * nz)
        .map(|i| field_init(17, me * n * n * nz + i))
        .collect();
    let idx = |i: usize, j: usize, k: usize| (i * n + j) * nz + k;

    mpi.barrier();
    let t0 = mpi.now();
    let mut comp_ns = 0;

    for _it in 0..iters {
        // Lower-triangular sweep: wavefront from the north-west corner.
        for k in 0..nz {
            let from_north = north.map(|p| unpack(&mpi.recv(Some(p), Some(TAG_NS)).0));
            let from_west = west.map(|p| unpack(&mpi.recv(Some(p), Some(TAG_WE)).0));
            relax_plane(
                &mut u,
                &idx,
                n,
                k,
                from_north.as_deref(),
                from_west.as_deref(),
                0.2,
            );
            comp_ns += charge_flops(mpi, (n * n) as u64 * FLOPS_PER_CELL_SWEEP);
            if let Some(p) = south {
                let strip: Vec<f64> = (0..n).map(|j| u[idx(n - 1, j, k)]).collect();
                mpi.send(&pack(&strip), p, TAG_NS);
            }
            if let Some(p) = east {
                let strip: Vec<f64> = (0..n).map(|i| u[idx(i, n - 1, k)]).collect();
                mpi.send(&pack(&strip), p, TAG_WE);
            }
        }
        // Upper-triangular sweep: wavefront from the south-east corner.
        for k in (0..nz).rev() {
            let from_south = south.map(|p| unpack(&mpi.recv(Some(p), Some(TAG_NS)).0));
            let from_east = east.map(|p| unpack(&mpi.recv(Some(p), Some(TAG_WE)).0));
            relax_plane_rev(
                &mut u,
                &idx,
                (n, nz),
                k,
                from_south.as_deref(),
                from_east.as_deref(),
                0.15,
            );
            comp_ns += charge_flops(mpi, (n * n) as u64 * FLOPS_PER_CELL_SWEEP);
            if let Some(p) = north {
                let strip: Vec<f64> = (0..n).map(|j| u[idx(0, j, k)]).collect();
                mpi.send(&pack(&strip), p, TAG_NS);
            }
            if let Some(p) = west {
                let strip: Vec<f64> = (0..n).map(|i| u[idx(i, 0, k)]).collect();
                mpi.send(&pack(&strip), p, TAG_WE);
            }
        }
    }

    let local: f64 = u.iter().map(|v| v * v).sum();
    let global = mpi.allreduce_f64(&[local], |a, b| a + b)[0];
    NasResult {
        time: mpi.now() - t0,
        comp_ns,
        checksum: global,
    }
}

fn relax_plane(
    u: &mut [f64],
    idx: &impl Fn(usize, usize, usize) -> usize,
    n: usize,
    k: usize,
    north: Option<&[f64]>,
    west: Option<&[f64]>,
    w: f64,
) {
    for i in 0..n {
        for j in 0..n {
            let up = if i > 0 {
                u[idx(i - 1, j, k)]
            } else {
                north.map_or(0.0, |s| s[j])
            };
            let left = if j > 0 {
                u[idx(i, j - 1, k)]
            } else {
                west.map_or(0.0, |s| s[i])
            };
            let back = if k > 0 { u[idx(i, j, k - 1)] } else { 0.0 };
            let c = idx(i, j, k);
            u[c] = (1.0 - 3.0 * w) * u[c] + w * (up + left + back);
        }
    }
}

fn relax_plane_rev(
    u: &mut [f64],
    idx: &impl Fn(usize, usize, usize) -> usize,
    (n, nz): (usize, usize),
    k: usize,
    south: Option<&[f64]>,
    east: Option<&[f64]>,
    w: f64,
) {
    for i in (0..n).rev() {
        for j in (0..n).rev() {
            let down = if i + 1 < n {
                u[idx(i + 1, j, k)]
            } else {
                south.map_or(0.0, |s| s[j])
            };
            let right = if j + 1 < n {
                u[idx(i, j + 1, k)]
            } else {
                east.map_or(0.0, |s| s[i])
            };
            let front = if k + 1 < nz { u[idx(i, j, k + 1)] } else { 0.0 };
            let c = idx(i, j, k);
            u[c] = (1.0 - 3.0 * w) * u[c] + w * (down + right + front);
        }
    }
}

//! BT and SP: alternating-direction implicit solvers on a 2D process grid.
//!
//! Both NPB kernels sweep the three spatial dimensions each iteration,
//! exchanging subdomain faces with the four grid neighbours before the x
//! and y line solves. They differ in granularity: BT moves *block* faces
//! (5×5 systems — larger messages, heavier per-cell math, fewer
//! iterations), SP scalar faces (smaller messages, twice the iterations) —
//! which is why the paper's Table 6 shows SP more sensitive to per-message
//! overhead than BT.

use crate::common::{charge_flops, field_init, grid2, pack, unpack, NasClass, NasResult};
use sp_mpi::Mpi;

struct AdiParams {
    /// Local cells per dimension.
    n: usize,
    /// Variables per cell carried in face exchanges.
    face_vars: usize,
    /// Iterations.
    iters: usize,
    /// Charged flops per cell per directional sweep.
    flops_per_cell: u64,
    /// Init seed (distinguishes BT/SP workloads).
    seed: u64,
}

/// BT: block faces, fewer iterations, heavy per-cell work.
pub fn run_bt(mpi: &mut dyn Mpi, class: NasClass) -> NasResult {
    let (n, iters) = match class {
        NasClass::Reduced => (12, 8),
        NasClass::S => (12, 24),
        NasClass::W => (18, 48),
    };
    run_adi(
        mpi,
        &AdiParams {
            n,
            face_vars: 5,
            iters,
            flops_per_cell: 100,
            seed: 11,
        },
    )
}

/// SP: scalar faces, more iterations, lighter per-cell work.
pub fn run_sp(mpi: &mut dyn Mpi, class: NasClass) -> NasResult {
    let (n, iters) = match class {
        NasClass::Reduced => (12, 22),
        NasClass::S => (12, 66),
        NasClass::W => (18, 120),
    };
    run_adi(
        mpi,
        &AdiParams {
            n,
            face_vars: 1,
            iters,
            flops_per_cell: 40,
            seed: 13,
        },
    )
}

const TAG_X: i32 = 100;
const TAG_Y: i32 = 101;

fn run_adi(mpi: &mut dyn Mpi, p: &AdiParams) -> NasResult {
    let size = mpi.size();
    let me = mpi.rank();
    let (pr, pc) = grid2(size);
    let (my_r, my_c) = (me / pc, me % pc);
    let n = p.n;
    let fv = p.face_vars;

    // Local field: n³ cells (a single representative variable drives the
    // arithmetic; faces carry `face_vars` copies to model BT's block size).
    let mut u: Vec<f64> = (0..n * n * n)
        .map(|i| field_init(p.seed, me * n * n * n + i))
        .collect();
    let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;

    mpi.barrier();
    let t0 = mpi.now();
    let mut comp_ns = 0;

    for _it in 0..p.iters {
        // --- x sweep: exchange faces with west/east (column neighbours).
        let west = (my_c > 0).then(|| my_r * pc + (my_c - 1));
        let east = (my_c + 1 < pc).then(|| my_r * pc + (my_c + 1));
        let my_west_face: Vec<f64> = {
            let mut f = Vec::with_capacity(fv * n * n);
            for v in 0..fv {
                for j in 0..n {
                    for k in 0..n {
                        f.push(u[idx(0, j, k)] * (1.0 + v as f64 * 1e-3));
                    }
                }
            }
            f
        };
        let my_east_face: Vec<f64> = {
            let mut f = Vec::with_capacity(fv * n * n);
            for v in 0..fv {
                for j in 0..n {
                    for k in 0..n {
                        f.push(u[idx(n - 1, j, k)] * (1.0 + v as f64 * 1e-3));
                    }
                }
            }
            f
        };
        let (from_west, from_east) = exchange(mpi, west, east, TAG_X, &my_west_face, &my_east_face);
        // Line solve along x: forward/backward recurrence seeded by the
        // neighbour faces (zero at physical boundaries).
        for j in 0..n {
            for k in 0..n {
                let wb = from_west.as_ref().map_or(0.0, |f| f[j * n + k]);
                let eb = from_east.as_ref().map_or(0.0, |f| f[j * n + k]);
                let mut prev = wb;
                for i in 0..n {
                    let c = idx(i, j, k);
                    u[c] = 0.6 * u[c] + 0.2 * prev;
                    prev = u[c];
                }
                let mut next = eb;
                for i in (0..n).rev() {
                    let c = idx(i, j, k);
                    u[c] = 0.8 * u[c] + 0.2 * next;
                    next = u[c];
                }
            }
        }
        comp_ns += charge_flops(mpi, (n * n * n) as u64 * p.flops_per_cell);

        // --- y sweep: exchange with north/south (row neighbours).
        let north = (my_r > 0).then(|| (my_r - 1) * pc + my_c);
        let south = (my_r + 1 < pr).then(|| (my_r + 1) * pc + my_c);
        let my_north_face: Vec<f64> = {
            let mut f = Vec::with_capacity(fv * n * n);
            for v in 0..fv {
                for i in 0..n {
                    for k in 0..n {
                        f.push(u[idx(i, 0, k)] * (1.0 + v as f64 * 1e-3));
                    }
                }
            }
            f
        };
        let my_south_face: Vec<f64> = {
            let mut f = Vec::with_capacity(fv * n * n);
            for v in 0..fv {
                for i in 0..n {
                    for k in 0..n {
                        f.push(u[idx(i, n - 1, k)] * (1.0 + v as f64 * 1e-3));
                    }
                }
            }
            f
        };
        let (from_north, from_south) =
            exchange(mpi, north, south, TAG_Y, &my_north_face, &my_south_face);
        for i in 0..n {
            for k in 0..n {
                let nb = from_north.as_ref().map_or(0.0, |f| f[i * n + k]);
                let sb = from_south.as_ref().map_or(0.0, |f| f[i * n + k]);
                let mut prev = nb;
                for j in 0..n {
                    let c = idx(i, j, k);
                    u[c] = 0.6 * u[c] + 0.2 * prev;
                    prev = u[c];
                }
                let mut next = sb;
                for j in (0..n).rev() {
                    let c = idx(i, j, k);
                    u[c] = 0.8 * u[c] + 0.2 * next;
                    next = u[c];
                }
            }
        }
        comp_ns += charge_flops(mpi, (n * n * n) as u64 * p.flops_per_cell);

        // --- z sweep: undecomposed, purely local.
        for i in 0..n {
            for j in 0..n {
                let mut prev = 0.0;
                for k in 0..n {
                    let c = idx(i, j, k);
                    u[c] = 0.7 * u[c] + 0.2 * prev;
                    prev = u[c];
                }
            }
        }
        comp_ns += charge_flops(mpi, (n * n * n) as u64 * p.flops_per_cell);
    }

    let local: f64 = u.iter().map(|v| v * v).sum();
    let global = mpi.allreduce_f64(&[local], |a, b| a + b)[0];
    NasResult {
        time: mpi.now() - t0,
        comp_ns,
        checksum: global,
    }
}

/// Bidirectional neighbour exchange: send `lo_face` toward the lower
/// neighbour and `hi_face` toward the higher one; returns what they sent
/// us. Receives post first (deadlock-free with rendezvous).
fn exchange(
    mpi: &mut dyn Mpi,
    lo: Option<usize>,
    hi: Option<usize>,
    tag: i32,
    lo_face: &[f64],
    hi_face: &[f64],
) -> (Option<Vec<f64>>, Option<Vec<f64>>) {
    let r_lo = lo.map(|p| mpi.irecv(Some(p), Some(tag)));
    let r_hi = hi.map(|p| mpi.irecv(Some(p), Some(tag)));
    let s_lo = lo.map(|p| mpi.isend(&pack(lo_face), p, tag));
    let s_hi = hi.map(|p| mpi.isend(&pack(hi_face), p, tag));
    let from_lo = r_lo.map(|r| unpack(&mpi.wait(r).expect("face").0));
    let from_hi = r_hi.map(|r| unpack(&mpi.wait(r).expect("face").0));
    if let Some(s) = s_lo {
        mpi.wait(s);
    }
    if let Some(s) = s_hi {
        mpi.wait(s);
    }
    (from_lo, from_hi)
}

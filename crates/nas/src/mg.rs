//! MG: multigrid V-cycle with halo exchanges at every grid level.
//!
//! 3D domain decomposition; each V-cycle relaxes, restricts down to the
//! coarsest level and interpolates back up, exchanging six halo faces at
//! every level — message sizes shrink 4× per level, so MG mixes medium and
//! tiny messages.

use crate::common::{charge_flops, field_init, pack, unpack, NasClass, NasResult};
use sp_mpi::Mpi;

const FLOPS_PER_POINT: u64 = 7; // relax + residual + transfer operators

const TAG_DIM: [i32; 3] = [300, 301, 302];

/// Near-cubic 3D factorization of `p`.
fn grid3(p: usize) -> (usize, usize, usize) {
    let mut best = (1, 1, p);
    let mut best_score = usize::MAX;
    for a in 1..=p {
        if !p.is_multiple_of(a) {
            continue;
        }
        let q = p / a;
        for b in 1..=q {
            if !q.is_multiple_of(b) {
                continue;
            }
            let c = q / b;
            let score = a.max(b).max(c) - a.min(b).min(c);
            if score < best_score {
                best_score = score;
                best = (a, b, c);
            }
        }
    }
    best
}

/// Run MG on this rank.
pub fn run(mpi: &mut dyn Mpi, class: NasClass) -> NasResult {
    // (finest local grid per dimension, grid levels, V-cycles)
    let (n0, num_levels, iters) = match class {
        NasClass::Reduced => (16, 4, 4), // 16, 8, 4, 2
        NasClass::S => (16, 4, 12),
        NasClass::W => (32, 5, 16), // 32, 16, 8, 4, 2
    };
    let size = mpi.size();
    let me = mpi.rank();
    let (px, py, pz) = grid3(size);
    let (mx, rest) = (me % px, me / px);
    let (my, mz) = (rest % py, rest / py);
    let rank_of = |x: usize, y: usize, z: usize| (z * py + y) * px + x;

    // One field per level.
    let mut levels: Vec<Vec<f64>> = (0..num_levels)
        .map(|l| {
            let n = n0 >> l;
            (0..n * n * n)
                .map(|i| {
                    if l == 0 {
                        field_init(23, me * n0 * n0 * n0 + i)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();

    mpi.barrier();
    let t0 = mpi.now();
    let mut comp_ns = 0;

    for _it in 0..iters {
        // Down-cycle: relax + restrict.
        for l in 0..num_levels {
            let n = n0 >> l;
            halo_relax(mpi, &mut levels[l], n, (mx, my, mz), (px, py, pz), &rank_of);
            comp_ns += charge_flops(mpi, (n * n * n) as u64 * FLOPS_PER_POINT);
            if l + 1 < num_levels {
                let (fine, coarse) = {
                    let (a, b) = levels.split_at_mut(l + 1);
                    (&a[l], &mut b[0])
                };
                restrict(fine, coarse, n);
            }
        }
        // Up-cycle: interpolate + relax.
        for l in (0..num_levels - 1).rev() {
            let n = n0 >> l;
            let (fine, coarse) = {
                let (a, b) = levels.split_at_mut(l + 1);
                (&mut a[l], &b[0])
            };
            interpolate(coarse, fine, n);
            halo_relax(mpi, &mut levels[l], n, (mx, my, mz), (px, py, pz), &rank_of);
            comp_ns += charge_flops(mpi, (n * n * n) as u64 * FLOPS_PER_POINT);
        }
    }

    let local: f64 = levels[0].iter().map(|v| v * v).sum();
    let global = mpi.allreduce_f64(&[local], |a, b| a + b)[0];
    NasResult {
        time: mpi.now() - t0,
        comp_ns,
        checksum: global,
    }
}

/// Exchange the six halo faces of an n³ field, then one Jacobi relaxation
/// using the received boundaries.
fn halo_relax(
    mpi: &mut dyn Mpi,
    u: &mut Vec<f64>,
    n: usize,
    (mx, my, mz): (usize, usize, usize),
    (px, py, pz): (usize, usize, usize),
    rank_of: &impl Fn(usize, usize, usize) -> usize,
) {
    let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
    // Gather faces: dim 0 = x (i), 1 = y (j), 2 = z (k).
    let mut boundary: [[Option<Vec<f64>>; 2]; 3] = Default::default();
    for dim in 0..3 {
        let (coord, extent) = match dim {
            0 => (mx, px),
            1 => (my, py),
            _ => (mz, pz),
        };
        let lo_rank = (coord > 0).then(|| match dim {
            0 => rank_of(mx - 1, my, mz),
            1 => rank_of(mx, my - 1, mz),
            _ => rank_of(mx, my, mz - 1),
        });
        let hi_rank = (coord + 1 < extent).then(|| match dim {
            0 => rank_of(mx + 1, my, mz),
            1 => rank_of(mx, my + 1, mz),
            _ => rank_of(mx, my, mz + 1),
        });
        let face = |u: &Vec<f64>, fixed: usize| -> Vec<f64> {
            let mut f = Vec::with_capacity(n * n);
            for a in 0..n {
                for b in 0..n {
                    f.push(match dim {
                        0 => u[idx(fixed, a, b)],
                        1 => u[idx(a, fixed, b)],
                        _ => u[idx(a, b, fixed)],
                    });
                }
            }
            f
        };
        let lo_face = face(u, 0);
        let hi_face = face(u, n - 1);
        let r_lo = lo_rank.map(|p| mpi.irecv(Some(p), Some(TAG_DIM[dim])));
        let r_hi = hi_rank.map(|p| mpi.irecv(Some(p), Some(TAG_DIM[dim])));
        let s_lo = lo_rank.map(|p| mpi.isend(&pack(&lo_face), p, TAG_DIM[dim]));
        let s_hi = hi_rank.map(|p| mpi.isend(&pack(&hi_face), p, TAG_DIM[dim]));
        boundary[dim][0] = r_lo.map(|r| unpack(&mpi.wait(r).expect("halo").0));
        boundary[dim][1] = r_hi.map(|r| unpack(&mpi.wait(r).expect("halo").0));
        if let Some(s) = s_lo {
            mpi.wait(s);
        }
        if let Some(s) = s_hi {
            mpi.wait(s);
        }
    }
    // Jacobi relax with the halo boundaries (zero at physical edges).
    let old = u.clone();
    let get = |i: isize, j: isize, k: isize| -> f64 {
        let side = |v: isize| -> Option<usize> {
            if v < 0 {
                None
            } else if v as usize >= n {
                Some(1)
            } else {
                Some(2)
            }
        };
        match (side(i), side(j), side(k)) {
            (Some(2), Some(2), Some(2)) => old[idx(i as usize, j as usize, k as usize)],
            (None, Some(2), Some(2)) => boundary[0][0]
                .as_ref()
                .map_or(0.0, |f| f[j as usize * n + k as usize]),
            (Some(1), Some(2), Some(2)) => boundary[0][1]
                .as_ref()
                .map_or(0.0, |f| f[j as usize * n + k as usize]),
            (Some(2), None, Some(2)) => boundary[1][0]
                .as_ref()
                .map_or(0.0, |f| f[i as usize * n + k as usize]),
            (Some(2), Some(1), Some(2)) => boundary[1][1]
                .as_ref()
                .map_or(0.0, |f| f[i as usize * n + k as usize]),
            (Some(2), Some(2), None) => boundary[2][0]
                .as_ref()
                .map_or(0.0, |f| f[i as usize * n + j as usize]),
            (Some(2), Some(2), Some(1)) => boundary[2][1]
                .as_ref()
                .map_or(0.0, |f| f[i as usize * n + j as usize]),
            _ => 0.0, // corners/edges beyond one face: outside the stencil
        }
    };
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let (i_, j_, k_) = (i as isize, j as isize, k as isize);
                u[idx(i, j, k)] = 0.5 * old[idx(i, j, k)]
                    + (get(i_ - 1, j_, k_)
                        + get(i_ + 1, j_, k_)
                        + get(i_, j_ - 1, k_)
                        + get(i_, j_ + 1, k_)
                        + get(i_, j_, k_ - 1)
                        + get(i_, j_, k_ + 1))
                        / 12.0;
            }
        }
    }
}

/// Full-weighting restriction: coarse cell = average of its 8 fine cells.
fn restrict(fine: &[f64], coarse: &mut [f64], nf: usize) {
    let nc = nf / 2;
    let fi = |i: usize, j: usize, k: usize| (i * nf + j) * nf + k;
    for i in 0..nc {
        for j in 0..nc {
            for k in 0..nc {
                let mut s = 0.0;
                for (di, dj, dk) in
                    (0..2).flat_map(|a| (0..2).flat_map(move |b| (0..2).map(move |c| (a, b, c))))
                {
                    s += fine[fi(2 * i + di, 2 * j + dj, 2 * k + dk)];
                }
                coarse[(i * nc + j) * nc + k] = s / 8.0;
            }
        }
    }
}

/// Trilinear-ish interpolation: add the coarse correction to the fine grid.
fn interpolate(coarse: &[f64], fine: &mut [f64], nf: usize) {
    let nc = nf / 2;
    let fi = |i: usize, j: usize, k: usize| (i * nf + j) * nf + k;
    for i in 0..nf {
        for j in 0..nf {
            for k in 0..nf {
                let c = coarse[((i / 2) * nc + j / 2) * nc + k / 2];
                fine[fi(i, j, k)] += 0.5 * c;
            }
        }
    }
}

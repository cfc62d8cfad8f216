//! FT: 3D FFT whose transpose is an `MPI_Alltoall` — the kernel whose
//! performance the paper traces to the quality of the all-to-all schedule
//! (generic MPICH on MPI-AM vs. tuned on MPI-F, §4.4).

use crate::common::{charge_flops, field_init, NasClass, NasResult};
use sp_mpi::Mpi;

/// In-place radix-2 complex FFT over `(re, im)` pairs.
fn fft(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 0..n {
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
        let mut m = n >> 1;
        while m >= 1 && j & m != 0 {
            j ^= m;
            m >>= 1;
        }
        j |= m;
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (ar, ai) = (re[i + k], im[i + k]);
                let (br, bi) = (re[i + k + len / 2], im[i + k + len / 2]);
                let (tr, ti) = (br * cr - bi * ci, br * ci + bi * cr);
                re[i + k] = ar + tr;
                im[i + k] = ai + ti;
                re[i + k + len / 2] = ar - tr;
                im[i + k + len / 2] = ai - ti;
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Flops for one length-n complex FFT (standard 5 n log2 n accounting).
fn fft_flops(n: usize) -> u64 {
    (5.0 * n as f64 * (n as f64).log2()) as u64
}

/// Run FT on this rank.
pub fn run(mpi: &mut dyn Mpi, class: NasClass) -> NasResult {
    // Transform dimensions (all powers of two) and evolution steps. The
    // reduced grid is the test default; S is the true NPB Class S 64^3
    // grid, W the true Class W 128x128x32.
    let (nx, ny, nz, iters) = match class {
        NasClass::Reduced => (64, 64, 32, 3),
        NasClass::S => (64, 64, 64, 6),
        NasClass::W => (128, 128, 32, 6),
    };
    let p = mpi.size();
    let me = mpi.rank();
    assert_eq!(nz % p, 0, "NZ must divide over ranks");
    assert_eq!(ny % p, 0, "NY must divide over ranks");
    let local_nz = nz / p; // z-planes held before the transpose
    let local_ny = ny / p; // y-pencils held after the transpose

    // Layout A: u[z][y][x] for my z-planes.
    let cells = nx * ny * local_nz;
    let mut ure: Vec<f64> = (0..cells).map(|i| field_init(29, me * cells + i)).collect();
    let mut uim: Vec<f64> = (0..cells).map(|i| field_init(31, me * cells + i)).collect();

    mpi.barrier();
    let t0 = mpi.now();
    let mut comp_ns = 0;
    let mut checksum = 0.0f64;

    for _it in 0..iters {
        // FFT along x for every (z, y) line, then along y via strided
        // gather (local work).
        for z in 0..local_nz {
            for y in 0..ny {
                let base = (z * ny + y) * nx;
                fft(&mut ure[base..base + nx], &mut uim[base..base + nx]);
            }
        }
        comp_ns += charge_flops(mpi, (local_nz * ny) as u64 * fft_flops(nx));
        for z in 0..local_nz {
            for x in 0..nx {
                let mut lre: Vec<f64> = (0..ny).map(|y| ure[(z * ny + y) * nx + x]).collect();
                let mut lim: Vec<f64> = (0..ny).map(|y| uim[(z * ny + y) * nx + x]).collect();
                fft(&mut lre, &mut lim);
                for y in 0..ny {
                    ure[(z * ny + y) * nx + x] = lre[y];
                    uim[(z * ny + y) * nx + x] = lim[y];
                }
            }
        }
        comp_ns += charge_flops(mpi, (local_nz * nx) as u64 * fft_flops(ny));

        // Transpose z<->y via all-to-all: destination d gets my z-planes of
        // its y-slab (y in [d*local_ny, (d+1)*local_ny)).
        let bufs: Vec<Vec<u8>> = (0..p)
            .map(|d| {
                let mut b = Vec::with_capacity(local_nz * local_ny * nx * 16);
                for z in 0..local_nz {
                    for y in d * local_ny..(d + 1) * local_ny {
                        for x in 0..nx {
                            b.extend_from_slice(&ure[(z * ny + y) * nx + x].to_le_bytes());
                            b.extend_from_slice(&uim[(z * ny + y) * nx + x].to_le_bytes());
                        }
                    }
                }
                b
            })
            .collect();
        let got = mpi.alltoall(&bufs);
        // Layout B: v[y][z][x] for my y-slab, z now full depth.
        let mut vre = vec![0.0f64; local_ny * nz * nx];
        let mut vim = vec![0.0f64; local_ny * nz * nx];
        for (src, block) in got.iter().enumerate() {
            // Block holds src's local_nz z-planes of my y-slab.
            let mut off = 0usize;
            for zz in 0..local_nz {
                let z = src * local_nz + zz;
                for yy in 0..local_ny {
                    for x in 0..nx {
                        let re = f64::from_le_bytes(block[off..off + 8].try_into().expect("8"));
                        let im =
                            f64::from_le_bytes(block[off + 8..off + 16].try_into().expect("8"));
                        off += 16;
                        vre[(yy * nz + z) * nx + x] = re;
                        vim[(yy * nz + z) * nx + x] = im;
                    }
                }
            }
        }

        // FFT along z, evolve (phase damp), accumulate the checksum.
        for yy in 0..local_ny {
            for x in 0..nx {
                let mut lre: Vec<f64> = (0..nz).map(|z| vre[(yy * nz + z) * nx + x]).collect();
                let mut lim: Vec<f64> = (0..nz).map(|z| vim[(yy * nz + z) * nx + x]).collect();
                fft(&mut lre, &mut lim);
                for z in 0..nz {
                    vre[(yy * nz + z) * nx + x] = lre[z] * 0.9;
                    vim[(yy * nz + z) * nx + x] = lim[z] * 0.9;
                }
            }
        }
        comp_ns += charge_flops(mpi, (local_ny * nx) as u64 * fft_flops(nz));
        checksum += vre.iter().step_by(97).map(|v| v.abs()).sum::<f64>()
            + vim.iter().step_by(89).map(|v| v.abs()).sum::<f64>();

        // Transpose back so the next iteration starts from layout A.
        let back: Vec<Vec<u8>> = (0..p)
            .map(|d| {
                let mut b = Vec::with_capacity(local_ny * local_nz * nx * 16);
                for yy in 0..local_ny {
                    for z in d * local_nz..(d + 1) * local_nz {
                        for x in 0..nx {
                            b.extend_from_slice(&vre[(yy * nz + z) * nx + x].to_le_bytes());
                            b.extend_from_slice(&vim[(yy * nz + z) * nx + x].to_le_bytes());
                        }
                    }
                }
                b
            })
            .collect();
        let got = mpi.alltoall(&back);
        for (src, block) in got.iter().enumerate() {
            let mut off = 0usize;
            for yy in 0..local_ny {
                let y = src * local_ny + yy;
                for zz in 0..local_nz {
                    for x in 0..nx {
                        let re = f64::from_le_bytes(block[off..off + 8].try_into().expect("8"));
                        let im =
                            f64::from_le_bytes(block[off + 8..off + 16].try_into().expect("8"));
                        off += 16;
                        ure[(zz * ny + y) * nx + x] = re;
                        uim[(zz * ny + y) * nx + x] = im;
                    }
                }
            }
        }
    }

    // Scale the checksum to a common magnitude and agree globally.
    let global = mpi.allreduce_f64(&[checksum], |a, b| a + b)[0];
    NasResult {
        time: mpi.now() - t0,
        comp_ns,
        checksum: global,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_delta_is_flat() {
        let n = 16;
        let mut re = vec![0.0; n];
        let mut im = vec![0.0; n];
        re[0] = 1.0;
        fft(&mut re, &mut im);
        for i in 0..n {
            assert!((re[i] - 1.0).abs() < 1e-12, "re[{i}] = {}", re[i]);
            assert!(im[i].abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_is_delta() {
        let n = 8;
        let mut re = vec![1.0; n];
        let mut im = vec![0.0; n];
        fft(&mut re, &mut im);
        assert!((re[0] - n as f64).abs() < 1e-9);
        for i in 1..n {
            assert!(re[i].abs() < 1e-9 && im[i].abs() < 1e-9, "bin {i} not zero");
        }
    }

    #[test]
    fn fft_parseval_energy_conserved() {
        let n = 64;
        let mut re: Vec<f64> = (0..n).map(|i| ((i * 37 + 5) % 11) as f64 - 5.0).collect();
        let mut im: Vec<f64> = (0..n).map(|i| ((i * 13 + 2) % 7) as f64 - 3.0).collect();
        let time_energy: f64 = re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum();
        fft(&mut re, &mut im);
        let freq_energy: f64 = re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum();
        assert!(
            (freq_energy - n as f64 * time_energy).abs() < 1e-6 * freq_energy.abs(),
            "Parseval violated: {freq_energy} vs {}",
            n as f64 * time_energy
        );
    }

    #[test]
    fn fft_single_tone_lands_in_one_bin() {
        let n = 32;
        let k = 5;
        let mut re: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k as f64 * i as f64 / n as f64).cos())
            .collect();
        let mut im = vec![0.0; n];
        fft(&mut re, &mut im);
        // Energy concentrated in bins k and n-k.
        let mag = |i: usize| (re[i] * re[i] + im[i] * im[i]).sqrt();
        assert!(mag(k) > (n / 2) as f64 * 0.99);
        assert!(mag(n - k) > (n / 2) as f64 * 0.99);
        for i in 0..n {
            if i != k && i != n - k {
                assert!(mag(i) < 1e-9, "leakage in bin {i}: {}", mag(i));
            }
        }
    }

    #[test]
    fn fft_flops_accounting() {
        assert_eq!(fft_flops(2), 10);
        assert!(fft_flops(1024) > fft_flops(512) * 2);
    }
}

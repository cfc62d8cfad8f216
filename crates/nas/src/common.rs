//! Shared helpers: process-grid decomposition, field faces, flop charging.

use sp_mpi::Mpi;
use sp_sim::Dur;

/// The five benchmarks of Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Block-tridiagonal ADI solver.
    Bt,
    /// Scalar-pentadiagonal ADI solver.
    Sp,
    /// SSOR wavefront solver.
    Lu,
    /// Multigrid V-cycle.
    Mg,
    /// 3D FFT.
    Ft,
}

impl Kernel {
    /// NPB name.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Bt => "BT",
            Kernel::Sp => "SP",
            Kernel::Lu => "LU",
            Kernel::Mg => "MG",
            Kernel::Ft => "FT",
        }
    }

    /// All five, in the paper's Table 6 order.
    pub fn all() -> [Kernel; 5] {
        [Kernel::Bt, Kernel::Ft, Kernel::Lu, Kernel::Mg, Kernel::Sp]
    }
}

/// Problem class: per-rank grid sizes and iteration counts.
///
/// `Reduced` is the scaled-down simulation class every test runs by
/// default (small enough that the whole Table 6 sweep fits in a smoke
/// run). `S` keeps the reduced grids but runs NPB-representative
/// iteration counts; `W` also grows the per-rank grids (and, for FT and
/// MG, the global transform/V-cycle depth) toward the NPB 2.0 Class W
/// communication scale. EXPERIMENTS.md records the exact per-class
/// parameters next to the measured virtual times and engine rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NasClass {
    /// Scaled-down simulation class (the test-time default).
    #[default]
    Reduced,
    /// Class-S-sized: reduced grids, NPB-representative iteration counts.
    S,
    /// Class-W-sized: larger grids and deeper transforms.
    W,
}

impl NasClass {
    /// Class name as printed in reports.
    pub fn name(&self) -> &'static str {
        match self {
            NasClass::Reduced => "reduced",
            NasClass::S => "S",
            NasClass::W => "W",
        }
    }

    /// All classes, smallest first.
    pub fn all() -> [NasClass; 3] {
        [NasClass::Reduced, NasClass::S, NasClass::W]
    }
}

/// One kernel run's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NasResult {
    /// Timed-section duration (virtual).
    pub time: Dur,
    /// Deterministic residual checksum (must agree across MPI
    /// implementations).
    pub checksum: f64,
    /// Virtual nanoseconds of computation charged through `charge_flops`:
    /// one rank's own charge in a kernel's return value, the sum over all
    /// ranks in [`run_kernel_on`](crate::run_kernel_on)'s.
    pub comp_ns: u64,
}

/// Sustained Power2 rate used to charge kernel flops (MFLOP/s).
pub const NAS_MFLOPS: f64 = 48.0;

/// Charge `flops` floating-point operations of computation; returns the
/// virtual nanoseconds charged, which each kernel sums into
/// [`NasResult::comp_ns`].
pub fn charge_flops(mpi: &mut dyn Mpi, flops: u64) -> u64 {
    let ns = (flops as f64 * 1_000.0 / NAS_MFLOPS).round() as u64;
    mpi.work(Dur::ns(ns));
    ns
}

/// Near-square 2D factorization of `p` (rows × cols, rows ≤ cols).
pub fn grid2(p: usize) -> (usize, usize) {
    let mut r = (p as f64).sqrt() as usize;
    while !p.is_multiple_of(r) {
        r -= 1;
    }
    (r, p / r)
}

/// Pack f64s to little-endian bytes.
pub fn pack(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Unpack little-endian bytes to f64s.
pub fn unpack(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect()
}

/// Deterministic pseudo-random field value (NPB-style multiplicative
/// generator flavor, simplified but reproducible).
pub fn field_init(seed: u64, idx: usize) -> f64 {
    let mut x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(idx as u64);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51AFD7ED558CCD);
    x ^= x >> 33;
    ((x % 2_000_003) as f64) / 2_000_003.0 - 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2_factorizations() {
        assert_eq!(grid2(16), (4, 4));
        assert_eq!(grid2(8), (2, 4));
        assert_eq!(grid2(4), (2, 2));
        assert_eq!(grid2(2), (1, 2));
        assert_eq!(grid2(1), (1, 1));
        assert_eq!(grid2(6), (2, 3));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let v = vec![1.5, -2.25, 0.0, 1e300];
        assert_eq!(unpack(&pack(&v)), v);
    }

    #[test]
    fn field_init_deterministic_bounded() {
        for i in 0..1000 {
            let v = field_init(7, i);
            assert_eq!(v, field_init(7, i));
            assert!((-0.5..=0.5).contains(&v));
        }
        assert_ne!(field_init(7, 0), field_init(8, 0));
    }
}

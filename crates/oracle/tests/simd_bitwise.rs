//! Bit-identity of the column-lane matmul kernel against the naive
//! triple-loop product, across every tile shape the kernel dispatches on.
//! (The transcendental certificates live in netsyn-nn's own
//! `simd_bitwise.rs`.)

use netsyn_nn::Matrix;
use netsyn_oracle::MatrixOracle;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn lane_matmul_is_bit_identical_to_naive_across_tile_shapes() {
    // Shapes exercising every kernel path: the 4-tile stripe (n >= 32),
    // the single-tile loop (8 <= n < 32), the scalar column tail
    // (n % 8 != 0), sub-lane widths, and the parallel row split.
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    for &(m, k, n) in &[
        (1, 1, 1),
        (5, 3, 7),
        (4, 16, 8),
        (9, 31, 20),
        (7, 40, 37),
        (16, 64, 96),
        (33, 100, 41),
        (128, 48, 130),
        (130, 70, 190),
    ] {
        let a = Matrix::uniform(m, k, 1.0, &mut rng);
        let b = Matrix::uniform(k, n, 1.0, &mut rng);
        let lane = a.matmul(&b);
        let naive = a.matmul_naive(&b);
        for (x, y) in lane.data().iter().zip(naive.data().iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "shape {m}x{k}x{n}");
        }
    }
}

//! Bit-identity certification of the `netsyn_nn::simd` kernels against the
//! host libm and the scalar reference paths.
//!
//! These are the fast CI-grade checks: exhaustive boundary sets around
//! every branch threshold of the ported `expf`/`expm1f`/`tanhf`, denormals
//! and specials, dense gate-typical ranges, and more than a million seeded
//! random samples. The complete certificate — every one of the 2^32 `f32`
//! bit patterns through both the scalar ports and the lane kernels — is
//! `cargo run --release -p netsyn-bench --bin simd_validate`.

use netsyn_nn::simd::{self, scalar, F32x8, LANES};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Branch thresholds of the ported kernels, in bits: each is probed at the
/// threshold itself and one ulp to either side, positive and negative.
const THRESHOLD_BITS: [u32; 12] = [
    0x3300_0000, // 2^-25 (expm1 tiny cut)
    0x2400_0000, // 2^-55 (tanh tiny cut)
    0x3EB1_7218, // 0.5*ln2 (reduction cut)
    0x3F85_1592, // 1.5*ln2 (k=±1 vs general-k cut)
    0x3F80_0000, // 1.0 (tanh formula split)
    0x41B0_0000, // 22.0 (tanh saturation)
    0x4195_B844, // 27*ln2 (expm1 saturation)
    0x42B1_7180, // expm1 overflow threshold
    0x42B1_7217, // exp overflow threshold
    0x42B0_0000, // 88.0 (exp special-path entry)
    0xC2CF_F1B4, // exp underflow-to-zero threshold (sign-included)
    0xC2CE_8ECF, // exp smallest-subnormal shortcut threshold
];

fn boundary_values() -> Vec<f32> {
    let mut values = vec![
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::from_bits(1), // smallest subnormal
        f32::from_bits(0x8000_0001),
        f32::from_bits(0x007F_FFFF), // largest subnormal
        f32::from_bits(0x807F_FFFF),
    ];
    for base in THRESHOLD_BITS {
        for delta in [-1i32, 0, 1] {
            let bits = base.wrapping_add(delta as u32);
            values.push(f32::from_bits(bits));
            values.push(f32::from_bits(bits ^ 0x8000_0000));
        }
    }
    // Dense sweep of the gate-typical range (LSTM pre-activations and cell
    // states): every 1/1024 step in [-32, 32].
    for i in -32 * 1024..=32 * 1024 {
        values.push(i as f32 / 1024.0);
    }
    // Denormal sweep.
    for bits in (0..0x0080_0000u32).step_by(0x1_0000) {
        values.push(f32::from_bits(bits));
        values.push(f32::from_bits(bits | 0x8000_0000));
    }
    values
}

fn seeded_samples(n: usize) -> Vec<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x51AD_BEEF);
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        // Alternate between full-bit-space samples (hitting specials,
        // denormals and huge magnitudes) and gate-range samples.
        if i % 2 == 0 {
            values.push(f32::from_bits(rng.gen::<u32>()));
        } else {
            values.push(rng.gen_range(-30.0f32..30.0));
        }
    }
    values
}

fn assert_matches(
    name: &str,
    values: &[f32],
    lane_fn: impl Fn(F32x8) -> F32x8,
    scalar_fn: impl Fn(f32) -> f32,
    libm_fn: impl Fn(f32) -> f32,
) {
    for chunk in values.chunks(LANES) {
        let mut lanes = [0.0f32; LANES];
        lanes[..chunk.len()].copy_from_slice(chunk);
        let out = lane_fn(F32x8(lanes));
        for (l, &x) in chunk.iter().enumerate() {
            let expected = libm_fn(x);
            let via_scalar = scalar_fn(x);
            let via_lanes = out.0[l];
            if expected.is_nan() {
                assert!(via_scalar.is_nan() && via_lanes.is_nan(), "{name}({x:e})");
                continue;
            }
            assert_eq!(
                via_scalar.to_bits(),
                expected.to_bits(),
                "{name} scalar port mismatch at x={x:e} (0x{:08x})",
                x.to_bits()
            );
            assert_eq!(
                via_lanes.to_bits(),
                expected.to_bits(),
                "{name} lane kernel mismatch at x={x:e} (0x{:08x})",
                x.to_bits()
            );
        }
    }
}

#[test]
fn exp_matches_libm_on_boundaries_and_samples() {
    let mut values = boundary_values();
    values.extend(seeded_samples(400_000));
    assert_matches("exp", &values, simd::vexp, scalar::exp, f32::exp);
}

#[test]
fn expm1_matches_libm_on_boundaries_and_samples() {
    let mut values = boundary_values();
    values.extend(seeded_samples(400_000));
    assert_matches("expm1", &values, simd::vexpm1, scalar::expm1, f32::exp_m1);
}

#[test]
fn tanh_matches_libm_on_boundaries_and_samples() {
    let mut values = boundary_values();
    values.extend(seeded_samples(400_000));
    assert_matches("tanh", &values, simd::vtanh, scalar::tanh, f32::tanh);
}

#[test]
fn sigmoid_matches_reference_on_boundaries_and_samples() {
    let mut values = boundary_values();
    values.extend(seeded_samples(200_000));
    assert_matches("sigmoid", &values, simd::vsigmoid, scalar::sigmoid, |x| {
        1.0 / (1.0 + (-x).exp())
    });
}

#[test]
fn slice_kernels_match_scalar_libm_loops() {
    // The dispatching slice APIs (whichever mode this process resolved to)
    // must equal the plain libm loops bit for bit, including ragged tails.
    let values = seeded_samples(100_003);
    let mut exp_buf = values.clone();
    simd::vexp_slice(&mut exp_buf);
    let mut tanh_buf = values.clone();
    simd::vtanh_slice(&mut tanh_buf);
    let mut sig_buf = values.clone();
    simd::vsigmoid_slice(&mut sig_buf);
    for (i, &x) in values.iter().enumerate() {
        assert_eq!(exp_buf[i].to_bits(), x.exp().to_bits(), "exp at {i}");
        assert_eq!(tanh_buf[i].to_bits(), x.tanh().to_bits(), "tanh at {i}");
        let sig = 1.0 / (1.0 + (-x).exp());
        assert_eq!(sig_buf[i].to_bits(), sig.to_bits(), "sigmoid at {i}");
    }
}

#[test]
fn simd_mode_is_resolved_and_consistent() {
    // Whatever mode the environment picked, repeated queries agree and the
    // dispatch-level guarantees above already proved bit-identity.
    let mode = simd::simd_mode();
    assert_eq!(mode, simd::simd_mode());
    if std::env::var("NETSYN_SIMD")
        .map(|v| v == "0")
        .unwrap_or(false)
    {
        assert_eq!(mode, simd::SimdMode::DisabledByEnv);
        assert!(!simd::transcendental_lanes_active());
    }
}

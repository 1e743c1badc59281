//! Portable 8-lane SIMD kernels for the batched inference hot path.
//!
//! Two independent guarantees make this module safe to drop into the
//! bit-identical `score_batch == score` contract:
//!
//! 1. **Column-lane linear algebra.** [`F32x8`] is a plain `[f32; 8]`
//!    newtype whose arithmetic lowers to LLVM vector ops (SSE2 on the
//!    x86-64 baseline, AVX under `-C target-cpu` or the runtime-dispatched
//!    kernels). The matmul kernel broadcasts `a[i][k]` across a lane of
//!    **output columns**, so each output element still accumulates its
//!    `k`-products in strictly ascending order with separate mul/add
//!    roundings — the exact scalar op sequence, just eight columns at a
//!    time. No FMA is used anywhere in the linear-algebra kernels: a fused
//!    multiply-add would change roundings and break bit-identity.
//!
//! 2. **Bitwise libm-compatible transcendentals.** [`vexp`], [`vtanh`] and
//!    [`vsigmoid`] reproduce the host libm's `expf`/`tanhf` *bit for bit*:
//!    the [`scalar`] submodule is an instruction-level port of glibc's
//!    `__expf_fma` (the ifunc variant selected on AVX2+FMA hardware,
//!    including its compiler-contracted FMAs, verified against the
//!    disassembly of glibc 2.36) and of glibc's fdlibm-derived
//!    `expm1f`/`tanhf` (pure `f32` arithmetic, no contraction). The lane
//!    versions run the same per-element operations structure-of-arrays so
//!    the polynomial cores vectorize. A process-wide startup probe
//!    ([`simd_mode`]) additionally cross-checks the ports against the live
//!    libm on a boundary set and permanently falls back to scalar libm
//!    calls if the host libm disagrees (e.g. musl, or a pre-2.27 glibc),
//!    so the contract holds even on hosts the port was not written for.
//!
//! The SIMD paths can be disabled at runtime by setting `NETSYN_SIMD=0`
//! (any of `0`, `false`, `off`); CI runs the test-suite in both modes so
//! the scalar fallbacks cannot rot. Because both modes are bit-identical,
//! toggling the variable never changes a score, only throughput.

use std::ops::{Add, Div, Mul, Neg, Not, Sub};
use std::sync::OnceLock;

/// Lane width of the portable vector type.
pub const LANES: usize = 8;

/// A portable 8-lane `f32` vector: a thin `[f32; 8]` wrapper whose
/// element-wise arithmetic auto-vectorizes.
///
/// Operations are IEEE-754 per lane and carry no fast-math flags, so a lane
/// computation is bit-identical to the same scalar expression per element.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct F32x8(pub [f32; LANES]);

impl F32x8 {
    /// All lanes zero.
    #[inline(always)]
    #[must_use]
    pub fn zero() -> Self {
        F32x8([0.0; LANES])
    }

    /// Broadcasts one value to all lanes.
    #[inline(always)]
    #[must_use]
    pub fn splat(v: f32) -> Self {
        F32x8([v; LANES])
    }

    /// Loads eight consecutive values from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `src` has fewer than eight elements.
    #[inline(always)]
    #[must_use]
    pub fn load(src: &[f32]) -> Self {
        let mut lanes = [0.0; LANES];
        lanes.copy_from_slice(&src[..LANES]);
        F32x8(lanes)
    }

    /// Stores the lanes into eight consecutive slice elements.
    ///
    /// # Panics
    ///
    /// Panics if `dst` has fewer than eight elements.
    #[inline(always)]
    pub fn store(self, dst: &mut [f32]) {
        dst[..LANES].copy_from_slice(&self.0);
    }

    /// Lane-wise `self * a + b` as **separate** mul and add roundings (no
    /// fusion) — the scalar-compatible accumulation step of the matmul
    /// kernel.
    #[inline(always)]
    #[must_use]
    pub fn mul_add_unfused(self, a: Self, b: Self) -> Self {
        self * a + b
    }
}

impl Add for F32x8 {
    type Output = F32x8;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let mut out = [0.0; LANES];
        for ((o, &a), &b) in out.iter_mut().zip(self.0.iter()).zip(rhs.0.iter()) {
            *o = a + b;
        }
        F32x8(out)
    }
}

impl Sub for F32x8 {
    type Output = F32x8;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        let mut out = [0.0; LANES];
        for ((o, &a), &b) in out.iter_mut().zip(self.0.iter()).zip(rhs.0.iter()) {
            *o = a - b;
        }
        F32x8(out)
    }
}

impl Mul for F32x8 {
    type Output = F32x8;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let mut out = [0.0; LANES];
        for ((o, &a), &b) in out.iter_mut().zip(self.0.iter()).zip(rhs.0.iter()) {
            *o = a * b;
        }
        F32x8(out)
    }
}

impl Div for F32x8 {
    type Output = F32x8;
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        let mut out = [0.0; LANES];
        for ((o, &a), &b) in out.iter_mut().zip(self.0.iter()).zip(rhs.0.iter()) {
            *o = a / b;
        }
        F32x8(out)
    }
}

/// Exact lane-wise negation (sign-bit flip), bit-identical to scalar `-x`
/// even on signed zeros (`0.0 - x` would turn `-0.0` into `+0.0`).
impl Neg for F32x8 {
    type Output = F32x8;
    #[inline(always)]
    fn neg(self) -> Self {
        F32x8::from_bits(self.to_bits() ^ I32x8::splat(i32::MIN))
    }
}

impl F32x8 {
    /// Lane-wise bit reinterpretation to `i32`.
    #[inline(always)]
    #[must_use]
    pub fn to_bits(self) -> I32x8 {
        let mut out = [0i32; LANES];
        for (o, &v) in out.iter_mut().zip(self.0.iter()) {
            *o = v.to_bits() as i32;
        }
        I32x8(out)
    }

    /// Lane-wise bit reinterpretation from `i32`.
    #[inline(always)]
    #[must_use]
    pub fn from_bits(bits: I32x8) -> Self {
        let mut out = [0.0f32; LANES];
        for (o, &b) in out.iter_mut().zip(bits.0.iter()) {
            *o = f32::from_bits(b as u32);
        }
        F32x8(out)
    }

    /// Lane-wise `<` compare, producing an all-ones / all-zeros mask.
    #[inline(always)]
    #[must_use]
    pub fn lt(self, rhs: Self) -> M32x8 {
        let mut out = [0u32; LANES];
        for ((o, &a), &b) in out.iter_mut().zip(self.0.iter()).zip(rhs.0.iter()) {
            *o = if a < b { u32::MAX } else { 0 };
        }
        M32x8(out)
    }

    /// Lane-wise saturating cast to `i32` (Rust `as` semantics).
    #[inline(always)]
    #[must_use]
    pub fn to_int(self) -> I32x8 {
        let mut out = [0i32; LANES];
        for (o, &v) in out.iter_mut().zip(self.0.iter()) {
            *o = v as i32;
        }
        I32x8(out)
    }
}

/// A portable 8-lane `i32` vector for the bit-manipulation halves of the
/// transcendental kernels (exponent ladders, sign handling). Like
/// [`F32x8`], every op is a plain per-lane loop that LLVM lowers to vector
/// instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct I32x8(pub [i32; LANES]);

impl I32x8 {
    /// Broadcasts one value to all lanes.
    #[inline(always)]
    #[must_use]
    pub fn splat(v: i32) -> Self {
        I32x8([v; LANES])
    }

    /// Lane-wise wrapping add.
    #[inline(always)]
    #[must_use]
    pub fn wrapping_add(self, rhs: Self) -> Self {
        let mut out = [0i32; LANES];
        for ((o, &a), &b) in out.iter_mut().zip(self.0.iter()).zip(rhs.0.iter()) {
            *o = a.wrapping_add(b);
        }
        I32x8(out)
    }

    /// Lane-wise wrapping subtract.
    #[inline(always)]
    #[must_use]
    pub fn wrapping_sub(self, rhs: Self) -> Self {
        let mut out = [0i32; LANES];
        for ((o, &a), &b) in out.iter_mut().zip(self.0.iter()).zip(rhs.0.iter()) {
            *o = a.wrapping_sub(b);
        }
        I32x8(out)
    }

    /// Lane-wise bitwise AND.
    #[inline(always)]
    #[must_use]
    pub fn and(self, rhs: Self) -> Self {
        let mut out = [0i32; LANES];
        for ((o, &a), &b) in out.iter_mut().zip(self.0.iter()).zip(rhs.0.iter()) {
            *o = a & b;
        }
        I32x8(out)
    }

    /// Lane-wise wrapping left shift by a uniform amount.
    #[inline(always)]
    #[must_use]
    pub fn shl_uniform(self, amount: u32) -> Self {
        let mut out = [0i32; LANES];
        for (o, &a) in out.iter_mut().zip(self.0.iter()) {
            *o = a.wrapping_shl(amount);
        }
        I32x8(out)
    }

    /// Lane-wise *logical* right shift by per-lane counts (counts must be
    /// pre-clamped to `0..32` by the caller).
    #[inline(always)]
    #[must_use]
    pub fn shr_logical_var(self, counts: Self) -> Self {
        let mut out = [0i32; LANES];
        for ((o, &a), &n) in out.iter_mut().zip(self.0.iter()).zip(counts.0.iter()) {
            *o = ((a as u32) >> (n as u32 & 31)) as i32;
        }
        I32x8(out)
    }

    /// Lane-wise signed clamp.
    #[inline(always)]
    #[must_use]
    pub fn clamp(self, lo: i32, hi: i32) -> Self {
        let mut out = [0i32; LANES];
        for (o, &a) in out.iter_mut().zip(self.0.iter()) {
            *o = a.clamp(lo, hi);
        }
        I32x8(out)
    }

    /// Lane-wise signed `<` compare.
    #[inline(always)]
    #[must_use]
    pub fn lt(self, rhs: Self) -> M32x8 {
        let mut out = [0u32; LANES];
        for ((o, &a), &b) in out.iter_mut().zip(self.0.iter()).zip(rhs.0.iter()) {
            *o = if a < b { u32::MAX } else { 0 };
        }
        M32x8(out)
    }

    /// Lane-wise signed `>` compare.
    #[inline(always)]
    #[must_use]
    pub fn gt(self, rhs: Self) -> M32x8 {
        rhs.lt(self)
    }

    /// Lane-wise `==` compare.
    #[inline(always)]
    #[must_use]
    pub fn eq(self, rhs: Self) -> M32x8 {
        let mut out = [0u32; LANES];
        for ((o, &a), &b) in out.iter_mut().zip(self.0.iter()).zip(rhs.0.iter()) {
            *o = if a == b { u32::MAX } else { 0 };
        }
        M32x8(out)
    }

    /// Lane-wise exact cast to `f32` (values must be small integers, as in
    /// the `k as f32` step of the expm1 reduction).
    #[inline(always)]
    #[must_use]
    pub fn to_float(self) -> F32x8 {
        let mut out = [0.0f32; LANES];
        for (o, &a) in out.iter_mut().zip(self.0.iter()) {
            *o = a as f32;
        }
        F32x8(out)
    }
}

impl std::ops::BitXor for I32x8 {
    type Output = I32x8;
    #[inline(always)]
    fn bitxor(self, rhs: Self) -> Self {
        let mut out = [0i32; LANES];
        for ((o, &a), &b) in out.iter_mut().zip(self.0.iter()).zip(rhs.0.iter()) {
            *o = a ^ b;
        }
        I32x8(out)
    }
}

/// An 8-lane boolean mask (all-ones or all-zeros per 32-bit lane), produced
/// by the lane compares and consumed by the bitwise selects. This is the
/// genuine SIMD select form of the fdlibm branch ladders: every arm is
/// computed with total (clamped/wrapping) arithmetic and the arm the scalar
/// code would have branched to is blended in per lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct M32x8(pub [u32; LANES]);

/// Lane-wise mask complement.
impl std::ops::Not for M32x8 {
    type Output = M32x8;
    #[inline(always)]
    fn not(self) -> Self {
        let mut out = [0u32; LANES];
        for (o, &m) in out.iter_mut().zip(self.0.iter()) {
            *o = !m;
        }
        M32x8(out)
    }
}

impl M32x8 {
    /// Whether any lane is set — the scalar-fallback probes reduce to this.
    #[inline(always)]
    #[must_use]
    pub fn any(self) -> bool {
        let mut acc = 0u32;
        for &m in &self.0 {
            acc |= m;
        }
        acc != 0
    }

    /// Lane-wise mask intersection.
    #[inline(always)]
    #[must_use]
    pub fn and(self, rhs: Self) -> Self {
        let mut out = [0u32; LANES];
        for ((o, &a), &b) in out.iter_mut().zip(self.0.iter()).zip(rhs.0.iter()) {
            *o = a & b;
        }
        M32x8(out)
    }

    /// Lane-wise blend: `a` where the mask is set, `b` elsewhere. Bitwise,
    /// so NaN payloads and signed zeros pass through unchanged.
    #[inline(always)]
    #[must_use]
    pub fn select(self, a: F32x8, b: F32x8) -> F32x8 {
        F32x8::from_bits(self.select_bits(a.to_bits(), b.to_bits()))
    }

    /// Lane-wise blend on integer lanes.
    #[inline(always)]
    #[must_use]
    pub fn select_bits(self, a: I32x8, b: I32x8) -> I32x8 {
        let mut out = [0i32; LANES];
        for (((o, &m), &av), &bv) in out
            .iter_mut()
            .zip(self.0.iter())
            .zip(a.0.iter())
            .zip(b.0.iter())
        {
            *o = (av & m as i32) | (bv & !(m as i32));
        }
        I32x8(out)
    }
}

/// Scalar ports of the host libm's `f32` transcendentals.
///
/// These functions compute the **same bits** as glibc's `expf`, `expm1f`
/// and `tanhf` (see the module docs for how that is established and
/// guarded). They exist so the lane kernels have an inlinable, call-free
/// per-element reference; the test-suite compares them against
/// `f32::exp`/`f32::tanh` on exhaustive boundary sets and dense seeded
/// sampling, and `crates/bench/src/bin/simd_validate.rs` sweeps all 2^32
/// bit patterns.
pub mod scalar {
    /// `2^(i/32)` table of glibc's `__exp2f_data`, stored as
    /// `bits(2^(i/32)) - (i << 47)` so adding the scaled step index
    /// reconstructs the final exponent (extracted from glibc 2.36).
    const EXP2F_TAB: [u64; 32] = [
        0x3ff0000000000000,
        0x3fefd9b0d3158574,
        0x3fefb5586cf9890f,
        0x3fef9301d0125b51,
        0x3fef72b83c7d517b,
        0x3fef54873168b9aa,
        0x3fef387a6e756238,
        0x3fef1e9df51fdee1,
        0x3fef06fe0a31b715,
        0x3feef1a7373aa9cb,
        0x3feedea64c123422,
        0x3feece086061892d,
        0x3feebfdad5362a27,
        0x3feeb42b569d4f82,
        0x3feeab07dd485429,
        0x3feea47eb03a5585,
        0x3feea09e667f3bcd,
        0x3fee9f75e8ec5f74,
        0x3feea11473eb0187,
        0x3feea589994cce13,
        0x3feeace5422aa0db,
        0x3feeb737b0cdc5e5,
        0x3feec49182a3f090,
        0x3feed503b23e255d,
        0x3feee89f995ad3ad,
        0x3feeff76f2fb5e47,
        0x3fef199bdd85529c,
        0x3fef3720dcef9069,
        0x3fef5818dcfba487,
        0x3fef7c97337b9b5f,
        0x3fefa4afa2a490da,
        0x3fefd0765b6e4540,
    ];
    /// `0x1.8p52` — the double rounding-shift trick constant.
    const SHIFT: f64 = f64::from_bits(0x4338000000000000);
    /// `32 / ln(2)` (`0x1.71547652b82fep+5`).
    const INVLN2N: f64 = f64::from_bits(0x40471547652B82FE);
    /// Degree-3 `2^(r/32)` polynomial, coefficients pre-divided by `32^n`.
    const EXP_C0: f64 = f64::from_bits(0x3EBC6AF84B912394);
    const EXP_C1: f64 = f64::from_bits(0x3F2EBFCE50FAC4F3);
    const EXP_C2: f64 = f64::from_bits(0x3F962E42FF0C52D6);
    /// `log(0x1p128)` — overflow threshold (`0x1.62e42ep6`).
    const EXP_OFLOW: f32 = f32::from_bits(0x42B17217);
    /// `log(0x1p-150)` — underflow-to-zero threshold (`-0x1.9fe368p6`).
    const EXP_UFLOW: f32 = f32::from_bits(0xC2CFF1B4);
    /// `log(0x1p-149)` — below this the result is the smallest subnormal
    /// (`-0x1.9d1d9ep6`; glibc's `WANT_ERRNO_UFLOW` shortcut).
    const EXP_MAY_UFLOW: f32 = f32::from_bits(0xC2CE8ECF);

    /// The branch-free core of `expf` for `|x| < 88`: bit-for-bit the main
    /// path of glibc's `__expf_fma`, *including* the two FMA contractions
    /// its compiler applied to the argument reduction (`k` extraction and
    /// `r = InvLn2N*x - kd`) and the three explicit polynomial FMAs.
    ///
    /// `f64::mul_add` is a **correctly fused** multiply-add on every Rust
    /// target (lowered to hardware FMA when available, otherwise libm
    /// `fma`), so this port does not depend on the build's target features.
    #[inline(always)]
    #[must_use]
    pub fn exp_core(x: f32) -> f32 {
        let xd = f64::from(x);
        let z_shifted = INVLN2N.mul_add(xd, SHIFT);
        let ki = z_shifted.to_bits();
        let kd = z_shifted - SHIFT;
        let r = INVLN2N.mul_add(xd, -kd);
        let t = EXP2F_TAB[(ki & 31) as usize].wrapping_add(ki.wrapping_shl(47));
        let s = f64::from_bits(t);
        let p = EXP_C0.mul_add(r, EXP_C1);
        let r2 = r * r;
        let q = EXP_C2.mul_add(r, 1.0);
        let y = p.mul_add(r2, q);
        (y * s) as f32
    }

    /// `expf(x)`, bit-identical to the host libm (glibc `__expf_fma`).
    #[must_use]
    #[inline(always)]
    pub fn exp(x: f32) -> f32 {
        let bits = x.to_bits();
        let abstop = (bits >> 20) & 0x7ff;
        // |x| >= 88.0, or inf/NaN.
        if abstop > 0x42a {
            if bits == 0xff80_0000 {
                return 0.0; // exp(-inf)
            }
            if abstop > 0x7f7 {
                return x + x; // +inf and NaN
            }
            if x > EXP_OFLOW {
                return f32::INFINITY;
            }
            if x < EXP_UFLOW {
                return 0.0;
            }
            if x < EXP_MAY_UFLOW {
                // Result rounds to the smallest subnormal everywhere in
                // (log(2^-150), log(2^-149)); glibc returns it directly.
                return f32::from_bits(1);
            }
        }
        exp_core(x)
    }

    const LN2_HI: f32 = f32::from_bits(0x3F317180);
    const LN2_LO: f32 = f32::from_bits(0x3717F7D1);
    const INV_LN2: f32 = f32::from_bits(0x3FB8AA3B);
    /// `expm1f` rational-approximation coefficients Q1..Q5 (glibc flt-32).
    const Q1: f32 = f32::from_bits(0xBD08_8889);
    const Q2: f32 = f32::from_bits(0x3AD0_0D01);
    const Q3: f32 = f32::from_bits(0xB8A6_70CD);
    const Q4: f32 = f32::from_bits(0x3686_7E54);
    const Q5: f32 = f32::from_bits(0xB457_EDBB);
    /// `log(FLT_MAX)`-ish overflow threshold of `expm1f` (88.7216796875).
    const EXPM1_OFLOW: f32 = f32::from_bits(0x42B17180);

    /// Argument reduction of `expm1f`: `x = k*ln2 + (xr + c)` with the
    /// fdlibm branch structure (`k = ±1` uses the exact `ln2_hi/lo` split;
    /// larger magnitudes go through the rounded-multiply path).
    ///
    /// Only call for `0.5*ln2 < |x| < 88.72` (the caller dispatches).
    #[inline(always)]
    pub(super) fn expm1_reduce(x: f32, hx: u32, sign: bool) -> (f32, f32, i32) {
        let (hi, lo, k);
        if hx < 0x3F85_1592 {
            // 0.5*ln2 < |x| < 1.5*ln2
            if sign {
                hi = x + LN2_HI;
                lo = -LN2_LO;
                k = -1;
            } else {
                hi = x - LN2_HI;
                lo = LN2_LO;
                k = 1;
            }
        } else {
            let kf = INV_LN2 * x + if sign { -0.5 } else { 0.5 };
            k = kf as i32;
            let t = k as f32;
            hi = x - t * LN2_HI; // t*ln2_hi is exact here
            lo = t * LN2_LO;
        }
        let xr = hi - lo;
        let c = (hi - xr) - lo;
        (xr, c, k)
    }

    /// The branch-free rational core of `expm1f` on a reduced argument:
    /// returns `e = hxs*((r1-t)/(6 - xr*t))` together with `hxs`.
    #[inline(always)]
    pub(super) fn expm1_poly(xr: f32) -> (f32, f32) {
        let hfx = 0.5 * xr;
        let hxs = xr * hfx;
        let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
        let t = 3.0 - r1 * hfx;
        let e = hxs * ((r1 - t) / (6.0 - xr * t));
        (e, hxs)
    }

    /// Reconstruction of `expm1f` from the reduced argument, correction
    /// term, polynomial output and scale `k` — the fdlibm `2^k` re-scaling
    /// ladder, bit for bit.
    #[inline(always)]
    pub(super) fn expm1_finish(xr: f32, c: f32, e0: f32, hxs: f32, k: i32) -> f32 {
        if k == 0 {
            return xr - (xr * e0 - hxs);
        }
        let mut e = xr * (e0 - c) - c;
        e -= hxs;
        if k == -1 {
            return 0.5 * (xr - e) - 0.5;
        }
        if k == 1 {
            if xr < -0.25 {
                return -2.0 * (e - (xr + 0.5));
            }
            return 1.0 + 2.0 * (xr - e);
        }
        let scale = (k as u32) << 23;
        if !(-1..=56).contains(&k) {
            // 2^k dwarfs the 1 being subtracted (or the result is ~-1).
            let y = 1.0 - (e - xr);
            return f32::from_bits(y.to_bits().wrapping_add(scale)) - 1.0;
        }
        if k < 23 {
            let t = f32::from_bits(0x3F80_0000 - (0x0100_0000u32 >> k)); // 1 - 2^-k
            let y = t - (e - xr);
            f32::from_bits(y.to_bits().wrapping_add(scale))
        } else {
            let t = f32::from_bits(((0x7f - k) as u32) << 23); // 2^-k
            let mut y = xr - (e + t);
            y += 1.0;
            f32::from_bits(y.to_bits().wrapping_add(scale))
        }
    }

    /// `expm1f(x)`, bit-identical to the host libm (glibc flt-32 fdlibm).
    #[must_use]
    #[inline(always)]
    pub fn expm1(x: f32) -> f32 {
        let bits = x.to_bits();
        let sign = bits & 0x8000_0000 != 0;
        let hx = bits & 0x7fff_ffff;
        // |x| >= 27*ln2: overflow / saturate-to--1 / non-finite.
        if hx >= 0x4195_B844 {
            if hx >= 0x42B1_7218 {
                if hx > 0x7F80_0000 {
                    return x + x; // NaN
                }
                if hx == 0x7F80_0000 {
                    return if sign { -1.0 } else { x }; // ±inf
                }
                if x > EXPM1_OFLOW {
                    return f32::INFINITY;
                }
            }
            if sign {
                return -1.0; // rounds from tiny - 1
            }
        }
        if hx > 0x3EB1_7218 {
            // |x| > 0.5*ln2: reduce.
            let (xr, c, k) = expm1_reduce(x, hx, sign);
            let (e, hxs) = expm1_poly(xr);
            expm1_finish(xr, c, e, hxs, k)
        } else if hx < 0x3300_0000 {
            // |x| < 2^-25 (including ±0): expm1(x) rounds to x.
            x
        } else {
            let (e, hxs) = expm1_poly(x);
            expm1_finish(x, 0.0, e, hxs, 0)
        }
    }

    /// `tanhf(x)`, bit-identical to the host libm (glibc flt-32 fdlibm).
    #[must_use]
    #[inline(always)]
    pub fn tanh(x: f32) -> f32 {
        let bits = x.to_bits();
        let sign = bits & 0x8000_0000 != 0;
        let ix = bits & 0x7fff_ffff;
        if ix > 0x7F7F_FFFF {
            // inf or NaN: 1/x collapses inf to ±0, propagates NaN.
            let r = 1.0 / x;
            return if sign { r - 1.0 } else { r + 1.0 };
        }
        let z = if ix < 0x41B0_0000 {
            // |x| < 22
            if ix == 0 {
                return x; // preserves ±0
            }
            if ix < 0x2400_0000 {
                // |x| < 2^-55
                return x * (1.0 + x);
            }
            let ax = f32::from_bits(ix);
            if ix >= 0x3F80_0000 {
                let t = expm1(ax + ax);
                1.0 - 2.0 / (t + 2.0)
            } else {
                let t = expm1(-2.0 * ax);
                -t / (t + 2.0)
            }
        } else {
            1.0 // 1 - 1e-30 rounds to 1
        };
        if sign {
            -z
        } else {
            z
        }
    }

    /// `1 / (1 + expf(-x))` with the ported [`exp`] — bit-identical to
    /// [`crate::activation::sigmoid`].
    #[must_use]
    #[inline(always)]
    pub fn sigmoid(x: f32) -> f32 {
        1.0 / (1.0 + exp(-x))
    }
}

/// How the process resolved its SIMD dispatch, for logging/tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Lane kernels active (ports verified against the host libm).
    Active,
    /// `NETSYN_SIMD=0` (or `false`/`off`) in the environment.
    DisabledByEnv,
    /// The startup probe found a libm disagreement; scalar libm calls are
    /// used so the bit-identity contract holds on this host.
    LibmMismatch,
}

fn resolve_simd_mode() -> SimdMode {
    if let Ok(v) = std::env::var("NETSYN_SIMD") {
        let v = v.trim().to_ascii_lowercase();
        if v == "0" || v == "false" || v == "off" {
            return SimdMode::DisabledByEnv;
        }
    }
    // Cross-check the ports against the live libm on boundary values and a
    // coarse grid. Any mismatch (foreign libm flavor) disables the lane
    // transcendentals — scores must not depend on the dispatch mode.
    let probes = [
        0.0f32,
        -0.0,
        1.0,
        -1.0,
        0.25,
        -0.25,
        f32::from_bits(0x3EB17218), // 0.5*ln2 boundary
        f32::from_bits(0x3F851592), // 1.5*ln2 boundary
        21.999998,
        22.0,
        -22.0,
        87.3,
        -87.3,
        88.72283,
        -103.3,
        -103.9,
        f32::MIN_POSITIVE,
        f32::from_bits(1), // smallest subnormal
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    let grid = (-2000..=2000).map(|i| i as f32 * 0.05);
    for x in probes.into_iter().chain(grid) {
        if scalar::exp(x).to_bits() != x.exp().to_bits()
            || scalar::tanh(x).to_bits() != x.tanh().to_bits()
        {
            return SimdMode::LibmMismatch;
        }
    }
    SimdMode::Active
}

/// The process-wide SIMD dispatch mode (resolved once, on first use).
#[must_use]
pub fn simd_mode() -> SimdMode {
    static MODE: OnceLock<SimdMode> = OnceLock::new();
    *MODE.get_or_init(resolve_simd_mode)
}

/// Whether the lane kernels are active (see [`simd_mode`]).
#[must_use]
pub fn simd_enabled() -> bool {
    simd_mode() == SimdMode::Active
}

/// Whether the *linear-algebra* lane kernels (matmul, broadcasts) should
/// run. These have no libm dependency — they are bit-identical to the
/// scalar loops by construction — so a [`SimdMode::LibmMismatch`] host
/// keeps them; only the explicit `NETSYN_SIMD=0` opt-out disables them.
#[must_use]
pub fn linear_lanes_active() -> bool {
    simd_mode() != SimdMode::DisabledByEnv
}

/// Whether the lane *transcendental* kernels should run: the env/probe
/// gate of [`simd_enabled`] plus the CPU features that make the `f64`
/// FMA-based `exp` port fast (AVX2+FMA on x86-64). Without hardware FMA,
/// `f64::mul_add` lowers to a libm `fma` call per element and the lane
/// path would be slower than calling `expf` directly, so scalar libm is
/// used instead — the results are bit-identical either way.
#[must_use]
pub fn transcendental_lanes_active() -> bool {
    static ACTIVE: OnceLock<bool> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            simd_enabled()
                && std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Lane-wise `expf` on eight lanes, bit-identical per lane to `f32::exp`.
#[must_use]
#[inline(always)]
pub fn vexp(x: F32x8) -> F32x8 {
    let abstop = x
        .to_bits()
        .shr_logical_var(I32x8::splat(20))
        .and(I32x8::splat(0x7ff));
    if abstop.gt(I32x8::splat(0x42a)).any() {
        let mut out = [0.0; LANES];
        for (o, &v) in out.iter_mut().zip(x.0.iter()) {
            *o = scalar::exp(v);
        }
        return F32x8(out);
    }
    let mut out = [0.0; LANES];
    for (o, &v) in out.iter_mut().zip(x.0.iter()) {
        *o = scalar::exp_core(v);
    }
    F32x8(out)
}

/// Lane-wise `expm1f` on eight lanes, bit-identical per lane to the libm
/// `expm1f` the host's `tanhf` calls.
#[must_use]
#[inline(always)]
pub fn vexpm1(x: F32x8) -> F32x8 {
    // Lanes outside the polynomial fast path (saturation, overflow,
    // non-finite, sub-2^-25) are rare in gate pre-activations; handle any
    // of them with the scalar port.
    let bits = x.to_bits();
    let hx = bits.and(I32x8::splat(0x7fff_ffff));
    let in_range = hx
        .lt(I32x8::splat(0x3300_0000))
        .not()
        .and(hx.lt(I32x8::splat(0x4195_B844)));
    if in_range.not().any() {
        let mut out = [0.0; LANES];
        for (o, &v) in out.iter_mut().zip(x.0.iter()) {
            *o = scalar::expm1(v);
        }
        return F32x8(out);
    }
    // Full-width hot path. The fdlibm reduce/rescale branch ladders are
    // re-expressed as genuine mask/select vector ops: every arm is
    // evaluated across all eight lanes with total (clamped/wrapping)
    // arithmetic, and the arm the scalar code would have branched to is
    // blended in per lane — identical values, straight-line vector IR.
    const LN2_HI: f32 = f32::from_bits(0x3F317180);
    const LN2_LO: f32 = f32::from_bits(0x3717F7D1);
    const INV_LN2: f32 = f32::from_bits(0x3FB8AA3B);
    let sign = bits.lt(I32x8::splat(0));
    // k = ±1 arm (0.5*ln2 < |x| < 1.5*ln2): exact hi/lo split.
    let hi1 = x - sign.select(F32x8::splat(-LN2_HI), F32x8::splat(LN2_HI));
    let lo1 = sign.select(F32x8::splat(-LN2_LO), F32x8::splat(LN2_LO));
    // General arm: rounded multiple of ln2.
    let kf = F32x8::splat(INV_LN2) * x + sign.select(F32x8::splat(-0.5), F32x8::splat(0.5));
    let k2 = kf.to_int();
    let t = k2.to_float();
    let hi2 = x - t * F32x8::splat(LN2_HI);
    let lo2 = t * F32x8::splat(LN2_LO);
    let near_one = hx.lt(I32x8::splat(0x3F85_1592));
    let hi = near_one.select(hi1, hi2);
    let lo = near_one.select(lo1, lo2);
    let k = near_one.select_bits(sign.select_bits(I32x8::splat(-1), I32x8::splat(1)), k2);
    let xv = hi - lo;
    let cv = (hi - xv) - lo;
    // Below 0.5*ln2 no reduction happens at all.
    let reduce = hx.gt(I32x8::splat(0x3EB1_7218));
    let xr = reduce.select(xv, x);
    let cc = reduce.select(cv, F32x8::zero());
    let kk = reduce.select_bits(k, I32x8::splat(0));
    let (e, hxs) = vexpm1_poly(xr);
    vexpm1_finish(xr, cc, e, hxs, kk)
}

/// [`scalar::expm1_finish`] with every branch arm computed across all
/// lanes and mask-blended — identical values per lane, straight-line
/// vector control flow. Shift amounts are clamped/wrapped so discarded
/// arms cannot trap.
#[inline(always)]
fn vexpm1_finish(xr: F32x8, c: F32x8, e0: F32x8, hxs: F32x8, k: I32x8) -> F32x8 {
    let half = F32x8::splat(0.5);
    let one = F32x8::splat(1.0);
    let two = F32x8::splat(2.0);
    let r_k0 = xr - (xr * e0 - hxs);
    let e = (xr * (e0 - c) - c) - hxs;
    let r_km1 = half * (xr - e) - half;
    let r_k1 = xr
        .lt(F32x8::splat(-0.25))
        .select(-two * (e - (xr + half)), one + two * (xr - e));
    let scale = k.shl_uniform(23);
    // k <= -2 or k > 56: 2^k dwarfs the 1 being subtracted back out.
    let y_big = one - (e - xr);
    let r_big = F32x8::from_bits(y_big.to_bits().wrapping_add(scale)) - one;
    // 2 <= k < 23: y = (1 - 2^-k) - (e - x).
    let t_mid = F32x8::from_bits(
        I32x8::splat(0x3F80_0000)
            .wrapping_sub(I32x8::splat(0x0100_0000).shr_logical_var(k.clamp(0, 31))),
    );
    let y_mid = t_mid - (e - xr);
    let r_mid = F32x8::from_bits(y_mid.to_bits().wrapping_add(scale));
    // 23 <= k <= 56: y = (x - (e + 2^-k)) + 1.
    let t_hi = F32x8::from_bits(I32x8::splat(0x7f).wrapping_sub(k).shl_uniform(23));
    let y_hi = (xr - (e + t_hi)) + one;
    let r_hi = F32x8::from_bits(y_hi.to_bits().wrapping_add(scale));

    let in_window = k
        .lt(I32x8::splat(-1))
        .not()
        .and(k.gt(I32x8::splat(56)).not());
    let r_scaled = in_window
        .not()
        .select(r_big, k.lt(I32x8::splat(23)).select(r_mid, r_hi));
    k.eq(I32x8::splat(0)).select(
        r_k0,
        k.eq(I32x8::splat(-1))
            .select(r_km1, k.eq(I32x8::splat(1)).select(r_k1, r_scaled)),
    )
}

/// The `expm1f` rational core over all lanes at once — the exact scalar op
/// order of [`scalar::expm1_poly`], expressed in [`F32x8`] arithmetic so
/// the polynomial and (crucially) the divide lower to vector instructions.
#[inline(always)]
fn vexpm1_poly(xr: F32x8) -> (F32x8, F32x8) {
    const Q1: f32 = f32::from_bits(0xBD08_8889);
    const Q2: f32 = f32::from_bits(0x3AD0_0D01);
    const Q3: f32 = f32::from_bits(0xB8A6_70CD);
    const Q4: f32 = f32::from_bits(0x3686_7E54);
    const Q5: f32 = f32::from_bits(0xB457_EDBB);
    let one = F32x8::splat(1.0);
    let hfx = F32x8::splat(0.5) * xr;
    let hxs = xr * hfx;
    let r1 = one
        + hxs
            * (F32x8::splat(Q1)
                + hxs
                    * (F32x8::splat(Q2)
                        + hxs
                            * (F32x8::splat(Q3)
                                + hxs * (F32x8::splat(Q4) + hxs * F32x8::splat(Q5)))));
    let t = F32x8::splat(3.0) - r1 * hfx;
    let e = hxs * ((r1 - t) / (F32x8::splat(6.0) - xr * t));
    (e, hxs)
}

// ---------------------------------------------------------------------------
// Slice kernels: the dispatch layer the layers call.
//
// Each kernel has one AVX2+FMA clone (`#[target_feature]` specializes the
// `#[inline(always)]` lane bodies with 256-bit vectors and hardware FMA for
// the f64 exp core) and a scalar libm fallback. Both produce the same bits,
// so dispatch never affects scores.
// ---------------------------------------------------------------------------

macro_rules! avx2_clone {
    ($avx2:ident, $body:ident, ($($arg:ident : $ty:ty),*)) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn $avx2($($arg: $ty),*) {
            $body($($arg),*);
        }
    };
}

/// Dispatches to `$avx2` when the lane transcendentals are active, else
/// runs `$fallback`.
macro_rules! dispatch {
    ($avx2:ident, ($($arg:expr),*), $fallback:block) => {{
        #[cfg(target_arch = "x86_64")]
        {
            if transcendental_lanes_active() {
                // SAFETY: `transcendental_lanes_active` verified avx2+fma.
                unsafe { $avx2($($arg),*) };
                return;
            }
        }
        $fallback
    }};
}

#[inline(always)]
fn vexp_slice_lanes(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        vexp(F32x8::load(chunk)).store(chunk);
    }
    for x in chunks.into_remainder() {
        *x = scalar::exp(*x);
    }
}

#[inline(always)]
fn vtanh_slice_lanes(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        vtanh(F32x8::load(chunk)).store(chunk);
    }
    for x in chunks.into_remainder() {
        *x = scalar::tanh(*x);
    }
}

#[inline(always)]
fn vsigmoid_slice_lanes(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        vsigmoid(F32x8::load(chunk)).store(chunk);
    }
    for x in chunks.into_remainder() {
        *x = scalar::sigmoid(*x);
    }
}

avx2_clone!(vexp_slice_avx2, vexp_slice_lanes, (xs: &mut [f32]));
avx2_clone!(vtanh_slice_avx2, vtanh_slice_lanes, (xs: &mut [f32]));
avx2_clone!(vsigmoid_slice_avx2, vsigmoid_slice_lanes, (xs: &mut [f32]));

/// In-place `expf` over a slice, bit-identical to `x.exp()` per element.
pub fn vexp_slice(xs: &mut [f32]) {
    dispatch!(vexp_slice_avx2, (xs), {
        for x in xs {
            *x = x.exp();
        }
    });
}

/// In-place `tanhf` over a slice, bit-identical to `x.tanh()` per element.
pub fn vtanh_slice(xs: &mut [f32]) {
    dispatch!(vtanh_slice_avx2, (xs), {
        for x in xs {
            *x = x.tanh();
        }
    });
}

/// In-place logistic sigmoid over a slice, bit-identical to
/// `1/(1 + (-x).exp())` per element.
pub fn vsigmoid_slice(xs: &mut [f32]) {
    dispatch!(vsigmoid_slice_avx2, (xs), {
        for x in xs {
            *x = 1.0 / (1.0 + (-*x).exp());
        }
    });
}

// ---------------------------------------------------------------------------
// Fused LSTM gate kernels.
//
// `zx`/`zh`/`bias` hold the four gate pre-activation blocks in PyTorch
// order — `i` at `[0, h)`, `f` at `[h, 2h)`, `g` at `[2h, 3h)`, `o` at
// `[3h, 4h)` with `h = c.len()` — exactly as the per-sample LSTM step lays
// them out.
// ---------------------------------------------------------------------------

#[inline(always)]
fn lstm_gate_c_lanes(zx: &[f32], zh: &[f32], bias: &[f32], c: &mut [f32]) {
    let h = c.len();
    let main = h - h % LANES;
    let mut j = 0;
    while j < main {
        let iv = vsigmoid(F32x8::load(&zx[j..]) + F32x8::load(&zh[j..]) + F32x8::load(&bias[j..]));
        let fv = vsigmoid(
            F32x8::load(&zx[h + j..]) + F32x8::load(&zh[h + j..]) + F32x8::load(&bias[h + j..]),
        );
        let gv = vtanh(
            F32x8::load(&zx[2 * h + j..])
                + F32x8::load(&zh[2 * h + j..])
                + F32x8::load(&bias[2 * h + j..]),
        );
        let cv = F32x8::load(&c[j..]);
        (fv * cv + iv * gv).store(&mut c[j..]);
        j += LANES;
    }
    for j in main..h {
        let i = scalar::sigmoid((zx[j] + zh[j]) + bias[j]);
        let f = scalar::sigmoid((zx[h + j] + zh[h + j]) + bias[h + j]);
        let g = scalar::tanh((zx[2 * h + j] + zh[2 * h + j]) + bias[2 * h + j]);
        c[j] = f * c[j] + i * g;
    }
}

#[inline(always)]
fn lstm_gate_h_lanes(zx: &[f32], zh: &[f32], bias: &[f32], c: &[f32], h_out: &mut [f32]) {
    let h = c.len();
    let main = h - h % LANES;
    let mut j = 0;
    while j < main {
        let ov = vsigmoid(
            F32x8::load(&zx[3 * h + j..])
                + F32x8::load(&zh[3 * h + j..])
                + F32x8::load(&bias[3 * h + j..]),
        );
        let tc = vtanh(F32x8::load(&c[j..]));
        (ov * tc).store(&mut h_out[j..]);
        j += LANES;
    }
    for j in main..h {
        let o = scalar::sigmoid((zx[3 * h + j] + zh[3 * h + j]) + bias[3 * h + j]);
        h_out[j] = o * scalar::tanh(c[j]);
    }
}

avx2_clone!(
    lstm_gate_c_avx2,
    lstm_gate_c_lanes,
    (zx: &[f32], zh: &[f32], bias: &[f32], c: &mut [f32])
);
avx2_clone!(
    lstm_gate_h_avx2,
    lstm_gate_h_lanes,
    (zx: &[f32], zh: &[f32], bias: &[f32], c: &[f32], h_out: &mut [f32])
);

/// The cell-state half of the fused LSTM gate sweep for one batch row:
/// `c[j] = sigmoid(zi) * c[j]`-style update `c = f*c_prev + i*g` with
/// `z* = (zx + zh) + bias` — the exact op order of the scalar LSTM step.
///
/// # Panics
///
/// Panics if `zx`, `zh` or `bias` are shorter than `4 * c.len()`.
pub fn lstm_gate_c(zx: &[f32], zh: &[f32], bias: &[f32], c: &mut [f32]) {
    dispatch!(lstm_gate_c_avx2, (zx, zh, bias, c), {
        let h = c.len();
        for (j, cj) in c.iter_mut().enumerate() {
            let i = crate::activation::sigmoid((zx[j] + zh[j]) + bias[j]);
            let f = crate::activation::sigmoid((zx[h + j] + zh[h + j]) + bias[h + j]);
            let g = crate::activation::tanh((zx[2 * h + j] + zh[2 * h + j]) + bias[2 * h + j]);
            *cj = f * *cj + i * g;
        }
    });
}

/// The hidden-state half of the fused LSTM gate sweep for one batch row:
/// `h[j] = sigmoid((zx+zh)+bias at the o block) * tanh(c[j])`.
///
/// # Panics
///
/// Panics if `zx`, `zh` or `bias` are shorter than `4 * c.len()`, or if
/// `h_out` is shorter than `c`.
pub fn lstm_gate_h(zx: &[f32], zh: &[f32], bias: &[f32], c: &[f32], h_out: &mut [f32]) {
    dispatch!(lstm_gate_h_avx2, (zx, zh, bias, c, h_out), {
        let h = c.len();
        for (j, hj) in h_out.iter_mut().enumerate() {
            let o = crate::activation::sigmoid((zx[3 * h + j] + zh[3 * h + j]) + bias[3 * h + j]);
            *hj = o * crate::activation::tanh(c[j]);
        }
    });
}

/// Lane-wise `tanhf` on eight lanes, bit-identical per lane to `f32::tanh`.
#[must_use]
#[inline(always)]
pub fn vtanh(x: F32x8) -> F32x8 {
    // The two mid-range branches both funnel through expm1; lanes outside
    // them (|x| >= 22, |x| < 2^-55, zero, non-finite) take the scalar port.
    let bits = x.to_bits();
    let ix = bits.and(I32x8::splat(0x7fff_ffff));
    let in_range = ix
        .lt(I32x8::splat(0x2400_0000))
        .not()
        .and(ix.lt(I32x8::splat(0x41B0_0000)));
    if in_range.not().any() {
        let mut out = [0.0; LANES];
        for (o, &v) in out.iter_mut().zip(x.0.iter()) {
            *o = scalar::tanh(v);
        }
        return F32x8(out);
    }
    let ax = F32x8::from_bits(ix);
    let big = ix.lt(I32x8::splat(0x3F80_0000)).not(); // |x| >= 1
    let arg = big.select(ax + ax, F32x8::splat(-2.0) * ax);
    let t = vexpm1(arg);
    // Both branches divide by t + 2; selecting the numerator first leaves
    // one vector divide:  |x| >= 1: z = 1 - 2/(t+2),  else: z = -t/(t+2).
    let q = big.select(F32x8::splat(2.0), t) / (t + F32x8::splat(2.0));
    let z = big.select(F32x8::splat(1.0) - q, -q);
    // Reapply the input sign exactly as the scalar negation does (a
    // sign-bit XOR — `z` is never a NaN here, and copying the sign bit
    // from the input is the `if sign { -z }` of the fdlibm code).
    F32x8::from_bits(z.to_bits() ^ bits.and(I32x8::splat(i32::MIN)))
}

/// Lane-wise logistic sigmoid, bit-identical per lane to
/// [`crate::activation::sigmoid`] (`1/(1 + expf(-x))`).
#[must_use]
#[inline(always)]
pub fn vsigmoid(x: F32x8) -> F32x8 {
    let one = F32x8::splat(1.0);
    one / (one + vexp(-x))
}

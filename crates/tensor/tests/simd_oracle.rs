//! Property tests pinning every SIMD dispatch tier to the serial oracle.
//!
//! The tiled matmul (plain and `A × Bᵀ` layouts) and the vectorized
//! elementwise kernels must agree with their obviously-correct scalar
//! references across odd shapes with MR/NR tail remainders, on **every** ISA
//! tier the host can execute. When `RELSERVE_ISA` is set (as the CI scalar
//! job does) the run is restricted to the forced tier — which also verifies
//! the override is actually in force — otherwise all supported tiers run.

use proptest::prelude::*;
use relserve_tensor::matmul::{
    self, matmul_bt_parallel, matmul_bt_with_isa, matmul_naive, matmul_prepacked, matmul_with_isa,
    Epilogue, PackedB,
};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::quant::{self, QuantizedTensor};
use relserve_tensor::simd::{self, Isa, ISA_ENV};
use relserve_tensor::Tensor;

/// The tiers this process may exercise: the forced one when [`ISA_ENV`] is
/// set, every supported tier otherwise.
fn isas_under_test() -> Vec<Isa> {
    match std::env::var(ISA_ENV) {
        Ok(v) if !v.trim().is_empty() => {
            let forced = Isa::parse(&v).expect("RELSERVE_ISA must name a valid tier");
            assert!(
                forced.available(),
                "RELSERVE_ISA={v} forces a tier this host cannot execute"
            );
            // The process-wide selection must honor the override.
            assert_eq!(simd::active_isa(), forced);
            vec![forced]
        }
        _ => Isa::supported(),
    }
}

/// The supported tiers whose f32 micro-kernel is a fused multiply-add chain:
/// all but scalar, whose kernel rounds the product before the sum.
fn fma_isas() -> Vec<Isa> {
    Isa::supported()
        .into_iter()
        .filter(|isa| *isa != Isa::Scalar)
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Values whose products and sums round, so that two summation orders do
/// not agree by accident; `seed` shifts the phase.
fn inexact(rows: usize, cols: usize, step: f32, seed: u32) -> Tensor {
    Tensor::from_fn([rows, cols], |i| {
        ((i as f32 + seed as f32 * 0.37) * step).sin()
    })
}

/// `|got - want| <= rtol * max(1, |want|)` elementwise.
fn assert_close(got: &Tensor, want: &Tensor, rtol: f32, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        let tol = rtol * w.abs().max(1.0);
        assert!(
            (g - w).abs() <= tol,
            "{ctx}: element {i}: got {g}, want {w} (tol {tol})"
        );
    }
}

proptest! {
    /// Tiled matmul vs the naive serial oracle across odd shapes with MR/NR
    /// tail remainders, per ISA.
    #[test]
    fn tiled_matmul_matches_oracle_all_isas(
        m in 1usize..70,
        k in 1usize..70,
        n in 1usize..70,
        seed in 0u32..1000,
    ) {
        let a = Tensor::from_fn([m, k], |i| {
            (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 9) % 64) as f32 * 0.0625 - 2.0
        });
        let b = Tensor::from_fn([k, n], |i| {
            (((i as u32).wrapping_mul(40503).wrapping_add(seed * 7) >> 7) % 64) as f32 * 0.03125 - 1.0
        });
        let oracle = matmul_naive(&a, &b).unwrap();
        for isa in isas_under_test() {
            let got = matmul_with_isa(&a, &b, isa).unwrap();
            assert_close(&got, &oracle, 1e-4, &format!("matmul[{isa}] {m}x{k}x{n}"));
        }
    }

    /// The transposed-B packing path (`A × Bᵀ`, inference layout) against the
    /// same oracle, per ISA. `matmul_bt_with_isa` never takes the small-product
    /// shortcut, so tiny shapes still exercise packed tails.
    #[test]
    fn tiled_matmul_bt_matches_oracle_all_isas(
        m in 1usize..70,
        k in 1usize..70,
        n in 1usize..70,
    ) {
        let a = Tensor::from_fn([m, k], |i| ((i * 29) % 31) as f32 * 0.125 - 1.5);
        let bt = Tensor::from_fn([n, k], |i| ((i * 37) % 41) as f32 * 0.0625 - 1.0);
        let oracle = matmul_naive(&a, &bt.transpose().unwrap()).unwrap();
        for isa in isas_under_test() {
            let got = matmul_bt_with_isa(&a, &bt, isa).unwrap();
            assert_close(&got, &oracle, 1e-4, &format!("matmul_bt[{isa}] {m}x{k}x{n}"));
        }
    }

    /// The f32 FMA tiers agree **bit for bit**, whatever their tile
    /// geometry: every output element is one sequential fused multiply-add
    /// chain per k-block, started from zero and added into `C` block by
    /// block, on avx2 4×8 and on the avx512 12×32 of the avx512, avx512vnni
    /// and amx tables alike. Shapes cross the MR, NR and KC (256) edges; the
    /// prepacked path (the dispatched tier) equals the per-call pack, and
    /// on an FMA tier equals every other FMA tier too.
    #[test]
    fn f32_fma_tiers_are_bit_identical(
        m in 1usize..40,
        k in 1usize..600,
        n in 1usize..80,
        seed in 0u32..1000,
    ) {
        let a = inexact(m, k, 0.7311, seed);
        let b = inexact(k, n, 0.4177, seed);
        let bt = inexact(n, k, 0.5923, seed);
        let tiers = fma_isas();
        if let Some((first, rest)) = tiers.split_first() {
            let plain = bits(&matmul_with_isa(&a, &b, *first).unwrap());
            let trans = bits(&matmul_bt_with_isa(&a, &bt, *first).unwrap());
            for isa in rest {
                prop_assert!(
                    bits(&matmul_with_isa(&a, &b, *isa).unwrap()) == plain,
                    "matmul[{}] != matmul[{}] at {}x{}x{}", isa, first, m, k, n
                );
                prop_assert!(
                    bits(&matmul_bt_with_isa(&a, &bt, *isa).unwrap()) == trans,
                    "matmul_bt[{}] != matmul_bt[{}] at {}x{}x{}", isa, first, m, k, n
                );
            }
        }
        let nr = matmul::panel_width().unwrap();
        let mut panels = Vec::new();
        matmul::pack_bt(bt.data(), k, n, k, nr, &mut panels);
        let packed = PackedB::new(k, n, nr, &panels).unwrap();
        let serial = Parallelism::serial();
        let pre = bits(&matmul_prepacked(&a, &packed, Epilogue::None, &serial).unwrap());
        prop_assert!(pre == bits(&matmul_bt_parallel(&a, &bt, &serial).unwrap()));
        // Past the small-product shortcut the prepacked path is the packed
        // driver, so it equals the forced packed path of its own tier.
        if m * k * n >= 1 << 13 {
            let active = simd::active_isa();
            let forced = bits(&matmul_bt_with_isa(&a, &bt, active).unwrap());
            prop_assert!(pre == forced, "prepacked != matmul_bt[{}] at {}x{}x{}", active, m, k, n);
        }
    }

    /// The epilogue `matmul_prepacked` applies in its tile store is the
    /// product followed by `add_bias_inplace` and `relu_inplace`, bit for
    /// bit, and the same product followed by any supported tier's own
    /// bias-add and ReLU kernels.
    #[test]
    fn fused_epilogue_is_bias_add_then_relu(
        m in 1usize..40,
        k in 1usize..600,
        n in 1usize..80,
        seed in 0u32..1000,
    ) {
        let a = inexact(m, k, 0.7311, seed);
        let bt = inexact(n, k, 0.5923, seed);
        let bias = inexact(1, n, 0.913, seed);
        let nr = matmul::panel_width().unwrap();
        let mut panels = Vec::new();
        matmul::pack_bt(bt.data(), k, n, k, nr, &mut panels);
        let packed = PackedB::new(k, n, nr, &panels).unwrap();
        let serial = Parallelism::serial();
        let product = matmul_prepacked(&a, &packed, Epilogue::None, &serial).unwrap();
        let mut biased = product.clone();
        relserve_tensor::ops::add_bias_inplace(&mut biased, &bias).unwrap();
        let mut relu = biased.clone();
        relserve_tensor::ops::relu_inplace(&mut relu);
        let fused_bias = matmul_prepacked(&a, &packed, Epilogue::Bias(bias.data()), &serial).unwrap();
        let fused_relu =
            matmul_prepacked(&a, &packed, Epilogue::BiasRelu(bias.data()), &serial).unwrap();
        prop_assert!(bits(&fused_bias) == bits(&biased), "bias at {}x{}x{}", m, k, n);
        prop_assert!(bits(&fused_relu) == bits(&relu), "relu at {}x{}x{}", m, k, n);
        for isa in Isa::supported() {
            let kern = simd::kernels_for(isa).unwrap();
            let mut unfused = product.data().to_vec();
            for row in unfused.chunks_exact_mut(n) {
                kern.add_assign(row, bias.data());
                kern.relu(row);
            }
            let want: Vec<u32> = unfused.iter().map(|v| v.to_bits()).collect();
            prop_assert!(bits(&fused_relu) == want, "relu[{}] at {}x{}x{}", isa, m, k, n);
        }
    }

    /// Vectorized elementwise kernels vs scalar loops, across lengths that
    /// leave every possible vector-width tail remainder.
    #[test]
    fn elementwise_kernels_match_oracle_all_isas(
        xs in proptest::collection::vec(-8.0f32..8.0, 1..200),
        ys in proptest::collection::vec(-8.0f32..8.0, 1..200),
        k in -3.0f32..3.0,
    ) {
        let len = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..len], &ys[..len]);
        for isa in isas_under_test() {
            let kern = simd::kernels_for(isa).unwrap();

            let mut relu = xs.to_vec();
            kern.relu(&mut relu);
            for (g, x) in relu.iter().zip(xs) {
                prop_assert!(*g == x.max(0.0), "relu[{}]", isa);
            }

            let mut added = xs.to_vec();
            kern.add_assign(&mut added, ys);
            for ((g, x), y) in added.iter().zip(xs).zip(ys) {
                prop_assert!((g - (x + y)).abs() <= 1e-6, "add_assign[{}]", isa);
            }

            let mut axpyed = xs.to_vec();
            kern.axpy(&mut axpyed, ys, k);
            for ((g, x), y) in axpyed.iter().zip(xs).zip(ys) {
                // FMA contracts the multiply-add, so allow one rounding step.
                prop_assert!((g - (x + y * k)).abs() <= 1e-4, "axpy[{}]", isa);
            }

            let mut scaled = xs.to_vec();
            kern.scale(&mut scaled, k);
            for (g, x) in scaled.iter().zip(xs) {
                prop_assert!((g - x * k).abs() <= 1e-6, "scale[{}]", isa);
            }

            let want_max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(kern.max(xs) == want_max, "max[{}]", isa);

            // Sum against an f64 accumulator: vector lanes reassociate the
            // additions, so compare both to the higher-precision reference.
            let want_sum: f64 = xs.iter().map(|v| *v as f64) .sum();
            let got_sum = kern.sum(xs) as f64;
            prop_assert!(
                (got_sum - want_sum).abs() <= 1e-3 * want_sum.abs().max(1.0),
                "sum[{}]: got {}, want {}", isa, got_sum, want_sum
            );
        }
    }

    /// The int8 kernel tier vs a dequantized-f32 oracle: quantize the inputs,
    /// run the u8×i8 micro-kernels, and bound the result against the f32
    /// matmul of the *dequantized* operands. The only admissible error is the
    /// epilogue's f32 rounding — quantization error itself cancels because
    /// the oracle uses the same dequantized values.
    #[test]
    fn int8_matmul_matches_dequantized_oracle_all_isas(
        m in 1usize..40,
        k in 1usize..70,
        n in 1usize..40,
        seed in 0u32..1000,
    ) {
        let a = Tensor::from_fn([m, k], |i| {
            (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 9) % 64) as f32 * 0.0625 - 2.0
        });
        let w = Tensor::from_fn([n, k], |i| {
            (((i as u32).wrapping_mul(40503).wrapping_add(seed * 7) >> 7) % 64) as f32 * 0.03125 - 1.0
        });
        let q = QuantizedTensor::quantize(&w).unwrap();
        let aq = quant::quantize_activations(&a).unwrap();
        // Oracle: f32 matmul over the values the kernels actually see.
        let oracle = matmul_naive(&aq.dequantize(), &q.dequantize().transpose().unwrap()).unwrap();
        for isa in isas_under_test() {
            let got = quant::qmatmul_bt_with_isa(&a, &q, None, isa).unwrap();
            // k f32 epilogue ops over i32-exact accumulators: tight bound.
            assert_close(&got, &oracle, 1e-4, &format!("qmatmul[{isa}] {m}x{k}x{n}"));
        }
    }

    /// Every int8 tier produces **bit-identical i32 accumulators**: 7-bit
    /// activation levels make `maddubs` saturation impossible, so scalar,
    /// AVX2 and VNNI differ only in lane geometry, not arithmetic.
    #[test]
    fn int8_accumulators_identical_across_isas(
        m in 1usize..24,
        k in 1usize..70,
        n in 1usize..24,
    ) {
        let a = Tensor::from_fn([m, k], |i| ((i * 29) % 31) as f32 * 0.125 - 1.5);
        let w = Tensor::from_fn([n, k], |i| ((i * 37) % 41) as f32 * 0.0625 - 1.0);
        let q = QuantizedTensor::quantize(&w).unwrap();
        let aq = quant::quantize_activations(&a).unwrap();
        let reference = quant::qgemm_i32(&aq, &q, Isa::Scalar).unwrap();
        for isa in isas_under_test() {
            let got = quant::qgemm_i32(&aq, &q, isa).unwrap();
            prop_assert!(
                got == reference,
                "qgemm_i32[{}] diverged from the scalar i32 accumulators", isa
            );
        }
    }

    /// The same exactness over the shapes that cut the tile unit's tiles:
    /// rows past a 16-row tile, columns past a 16-wide panel, and `k` with
    /// partial quads, a single short window (`k ≤ 64`), whole windows, and
    /// a last window moved back to the panel's end.
    #[test]
    fn int8_accumulators_identical_across_isas_on_ragged_tiles(
        m in 1usize..80,
        k in 1usize..200,
        n in 1usize..70,
        seed in 0u32..1000,
    ) {
        let a = Tensor::from_fn([m, k], |i| {
            (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 9) % 251) as f32 * 0.03 - 3.7
        });
        let w = Tensor::from_fn([n, k], |i| {
            (((i as u32).wrapping_mul(40503).wrapping_add(seed * 7) >> 7) % 253) as f32 * 0.011 - 1.4
        });
        let q = QuantizedTensor::quantize(&w).unwrap();
        let aq = quant::quantize_activations(&a).unwrap();
        let reference = quant::qgemm_i32(&aq, &q, Isa::Scalar).unwrap();
        for isa in isas_under_test() {
            let got = quant::qgemm_i32(&aq, &q, isa).unwrap();
            prop_assert!(
                got == reference,
                "qgemm_i32[{}] {}x{}x{} diverged from the scalar i32 accumulators", isa, m, k, n
            );
        }
    }
}

/// Forcing a tier the CPU lacks must fail with a clear [`Error::Isa`], never
/// execute illegal instructions; unknown tokens must fail at parse.
#[test]
fn unavailable_or_unknown_isa_fails_cleanly() {
    assert!(Isa::parse("sse9").is_err());
    assert!(Isa::parse("").is_err());
    for isa in [
        Isa::Scalar,
        Isa::Avx2Fma,
        Isa::Avx512,
        Isa::Avx512Vnni,
        Isa::Amx,
    ] {
        let got = simd::kernels_for(isa);
        if isa.available() {
            assert_eq!(got.unwrap().isa, isa);
        } else {
            let err = got.expect_err("unavailable tier must error");
            assert!(
                matches!(err, relserve_tensor::Error::Isa(_)),
                "expected Error::Isa, got {err:?}"
            );
        }
    }
    // The quantized entry points surface the same typed error for an
    // unavailable VNNI or AMX tier instead of executing illegal
    // instructions: the dispatch check runs before any kernel byte does. (On
    // hosts with the tier this branch is vacuous and the proptests above
    // exercise the real kernels.)
    for isa in [Isa::Avx512Vnni, Isa::Amx] {
        if isa.available() {
            continue;
        }
        let a = Tensor::from_fn([3, 9], |i| i as f32 * 0.25 - 1.0);
        let w = QuantizedTensor::quantize(&Tensor::from_fn([5, 9], |i| i as f32 * 0.125 - 2.0))
            .unwrap();
        let err = quant::qmatmul_bt_with_isa(&a, &w, None, isa)
            .expect_err("an int8 tier the host lacks must be a typed error");
        assert!(
            matches!(err, relserve_tensor::Error::Isa(_)),
            "expected Error::Isa, got {err:?}"
        );
    }
    // The tile tier sits above the register tile it needs.
    assert!(!Isa::Amx.available() || Isa::Avx512Vnni.available());
    assert_eq!(Isa::parse("amx").unwrap(), Isa::Amx);
}

/// The softmax entry point — whose row-max/row-sum reductions ride the
/// dispatch table — stays stable and normalized on every tier.
#[test]
fn softmax_rows_normalized_on_selected_tier() {
    let t = Tensor::from_fn([13, 37], |i| ((i * 17) % 23) as f32 * 0.5 - 5.0);
    let s = relserve_tensor::ops::softmax(&t).unwrap();
    for r in 0..13 {
        let row = s.row(r).unwrap();
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        assert!(row.iter().all(|v| v.is_finite() && *v >= 0.0));
    }
}

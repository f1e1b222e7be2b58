//! Matmul kernel comparison: seed `ikj` stripe kernel vs the register-tiled
//! micro-kernel on **every ISA dispatch path the host supports** (scalar,
//! AVX2+FMA 4×8, AVX-512 12×32), single-threaded and on the persistent kernel
//! pool, pack-per-call against prepacked weights (`tiled_bt` / `f32_pre`,
//! `int8` / `int8_prepacked`), the f32 prepacked multiply at the shapes the
//! in-database workloads serve (`f32_served`: Encoder-FC's two layers, the
//! `large_spill` block-join pair, Fraud-FC's first layer, each with the
//! layer's fused epilogue), the AMX tile unit at the shapes it serves
//! (`int8_tiles`: 512³ and Encoder-FC's two layers, prepacked, with and
//! without the activation quantize sweep), plus vectorized elementwise
//! kernel bandwidth, the relational block-join speedup, and the f32 ceilings
//! the served rows are read against (the micro-kernel alone on a hot panel,
//! and the FMA peak on 1 and 2 threads). Every row names
//! the micro-kernel that actually ran, so a reader can tell the FMA path
//! from the scalar fallback. Emits `BENCH_matmul.json` (selected ISA, one
//! kernel row per dispatch path, elementwise bandwidth) so regressions are
//! diffable.
//!
//! Run with `cargo run --release --bin repro_matmul_kernels`. Hosts without
//! AVX-512 (or AVX2, or AMX) simply skip those rows and say so.

use relserve_bench::report::{Cell, ResultTable};
use relserve_relational::TensorTable;
use relserve_runtime::KernelPool;
use relserve_storage::{BufferPool, DiskManager};
use relserve_tensor::matmul::{self as mm, Epilogue};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::quant::{self, QuantizedTensor};
use relserve_tensor::simd::{self, Isa};
use relserve_tensor::{BlockingSpec, Tensor};
use std::sync::Arc;
use std::time::Instant;

/// The seed repo's kernel, kept verbatim as the comparison baseline:
/// cache-blocked `ikj` with a zero-skip branch in the inner loop.
fn seed_stripe_kernel(ad: &[f32], bd: &[f32], cd: &mut [f32], m: usize, k: usize, n: usize) {
    const KB: usize = 256;
    for p0 in (0..k).step_by(KB) {
        let p1 = (p0 + KB).min(k);
        for i in 0..m {
            let a_row = &ad[i * k..(i + 1) * k];
            let c_row = &mut cd[i * n..(i + 1) * n];
            for p in p0..p1 {
                let av = a_row[p];
                if av == 0.0 {
                    continue;
                }
                let b_row = &bd[p * n..(p + 1) * n];
                for (cv, bv) in c_row.iter_mut().zip(b_row) {
                    *cv += av * *bv;
                }
            }
        }
    }
}

/// Best-of-`reps` wall-clock seconds for `f`.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn pattern(rows: usize, cols: usize, salt: usize) -> Tensor {
    Tensor::from_fn([rows, cols], |i| {
        (((i * 29 + salt * 13) % 37) as f32 - 18.0) * 0.1
    })
}

/// Best-of-`reps` GFLOP/s of `threads` threads each running 24 independent
/// AVX-512 FMA chains, summed; `None` without AVX-512F.
fn fma_peak_gflops(threads: usize, reps: usize) -> Option<f64> {
    #[cfg(target_arch = "x86_64")]
    {
        if !std::arch::is_x86_feature_detected!("avx512f") {
            return None;
        }
        const STEPS: usize = 2_000_000;
        let secs = best_secs(reps, || {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    // SAFETY: AVX-512F was detected above.
                    scope.spawn(|| std::hint::black_box(unsafe { fma_chains(STEPS) }));
                }
            });
        });
        Some((threads * STEPS * 24 * 16 * 2) as f64 / secs / 1e9)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (threads, reps);
        None
    }
}

/// `steps` rounds of 24 independent `zmm` fused multiply-adds.
///
/// # Safety
/// The CPU has AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fma_chains(steps: usize) -> f32 {
    use std::arch::x86_64::*;
    // Two rows of 12, as the 12×32 tile holds them: one array of 24 gets
    // part of it spilled to the stack.
    let mut lo = [_mm512_set1_ps(0.5); 12];
    let mut hi = [_mm512_set1_ps(0.25); 12];
    let (a, b) = (_mm512_set1_ps(0.999_9), _mm512_set1_ps(1e-4));
    for _ in 0..steps {
        for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
            *l = _mm512_fmadd_ps(*l, a, b);
            *h = _mm512_fmadd_ps(*h, a, b);
        }
    }
    let mut sum = _mm512_setzero_ps();
    for (l, h) in lo.iter().zip(&hi) {
        sum = _mm512_add_ps(sum, _mm512_add_ps(*l, *h));
    }
    _mm512_reduce_add_ps(sum)
}

/// One benched matmul kernel row.
struct KernelRow {
    name: String,
    isa: &'static str,
    threads: usize,
    secs: f64,
}

/// One benched elementwise kernel row: `bytes` is the traffic (reads +
/// writes) a single invocation touches.
struct ElemRow {
    kernel: &'static str,
    isa: &'static str,
    secs: f64,
    bytes: f64,
}

fn main() {
    let pool = Arc::new(KernelPool::for_cores(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    ));
    let pool_threads = pool.workers() + 1;
    let pooled = pool.parallelism(pool_threads);

    let supported = Isa::supported();
    let best_isa = Isa::best();
    let selected = simd::kernels();
    for isa in [Isa::Avx2Fma, Isa::Avx512, Isa::Amx] {
        if !isa.available() {
            println!("{isa} unavailable on this host; degrading to best tier \"{best_isa}\"");
        }
    }
    println!(
        "dispatch: selected \"{}\" (micro-kernel {}); supported tiers: {}",
        selected.isa,
        selected.matmul.name,
        supported
            .iter()
            .map(|i| i.token())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // --- Dense kernels at 512^3 -------------------------------------------
    let n = 512usize;
    let flops = 2.0 * (n * n * n) as f64;
    let a = pattern(n, n, 1);
    let b = pattern(n, n, 2);
    let reps = 5;

    let mut c_seed = vec![0.0f32; n * n];
    let seed_secs = best_secs(reps, || {
        c_seed.iter_mut().for_each(|v| *v = 0.0);
        seed_stripe_kernel(a.data(), b.data(), &mut c_seed, n, n, n);
    });
    let mut rows: Vec<KernelRow> = vec![KernelRow {
        name: "seed_stripe_ikj".into(),
        isa: Isa::Scalar.token(),
        threads: 1,
        secs: seed_secs,
    }];

    // One row per dispatch path the host can execute, forced explicitly so
    // the comparison is apples-to-apples on the same machine.
    let mut out = None;
    for &isa in &supported {
        let kern_name = simd::kernels_for(isa).unwrap().matmul.name;
        let secs = best_secs(reps, || {
            out = Some(mm::matmul_with_isa(&a, &b, isa).unwrap());
        });
        rows.push(KernelRow {
            name: format!("tiled[{kern_name}]"),
            isa: isa.token(),
            threads: 1,
            secs,
        });
    }

    // The auto-dispatched paths: what `matmul_parallel` actually runs,
    // labeled with the micro-kernel the seam selected.
    let tiled_secs = best_secs(reps, || {
        out = Some(mm::matmul_parallel(&a, &b, &Parallelism::serial()).unwrap());
    });
    rows.push(KernelRow {
        name: format!("tiled_auto[{}]", selected.matmul.name),
        isa: selected.isa.token(),
        threads: 1,
        secs: tiled_secs,
    });
    let pooled_secs = best_secs(reps, || {
        out = Some(mm::matmul_parallel(&a, &b, &pooled).unwrap());
    });
    rows.push(KernelRow {
        name: format!("tiled_pooled[{}]", selected.matmul.name),
        isa: selected.isa.token(),
        threads: pool_threads,
        secs: pooled_secs,
    });

    // Sanity: the tiled kernel agrees with the seed baseline.
    let seed_c = Tensor::from_vec([n, n], c_seed).unwrap();
    let max_diff = seed_c.max_abs_diff(out.as_ref().unwrap()).unwrap();
    assert!(max_diff < 1e-2, "kernels disagree: max diff {max_diff}");

    // A model's dense layer: `X × Wᵀ` with `W` a constant. `tiled_bt` packs
    // `W` inside every call, as every dense layer did before its weights
    // were prepared; `f32_pre` multiplies from panels packed once, which is
    // what `Model::forward_layer` runs. Same driver, same bits.
    let serial = Parallelism::serial();
    let nr = mm::panel_width().unwrap();
    let mut panels = Vec::new();
    mm::pack_bt(b.data(), n, n, n, nr, &mut panels);
    let packed = mm::PackedB::new(n, n, nr, &panels).unwrap();
    let mut per_call = None;
    let bt_secs = best_secs(reps, || {
        per_call = Some(mm::matmul_bt_parallel(&a, &b, &serial).unwrap());
    });
    let mut prepacked = None;
    let pre_secs = best_secs(reps, || {
        prepacked = Some(mm::matmul_prepacked(&a, &packed, Epilogue::None, &serial).unwrap());
    });
    assert!(
        per_call.unwrap().data() == prepacked.unwrap().data(),
        "prepacked and pack-per-call differ"
    );
    let pre_pooled_secs = best_secs(reps, || {
        mm::matmul_prepacked(&a, &packed, Epilogue::None, &pooled).unwrap();
    });
    for (name, threads, secs) in [
        ("tiled_bt", 1, bt_secs),
        ("f32_pre", 1, pre_secs),
        ("f32_pre_pooled", pool_threads, pre_pooled_secs),
    ] {
        rows.push(KernelRow {
            name: format!("{name}[{}]", selected.matmul.name),
            isa: selected.isa.token(),
            threads,
            secs,
        });
    }

    let gflops = |secs: f64| flops / secs / 1e9;
    let mut table = ResultTable::new(&["kernel", "isa", "threads", "secs", "GFLOP/s"]);
    for row in &rows {
        table.row(
            &row.name,
            &[
                Cell::Text(row.isa.to_string()),
                Cell::Text(row.threads.to_string()),
                Cell::Text(format!("{:.4}", row.secs)),
                Cell::Text(format!("{:.2}", gflops(row.secs))),
            ],
        );
    }
    println!("matmul {n}x{n}x{n} (best of {reps}):");
    print!("{}", table.render());
    println!(
        "tiled vs seed (1 thread): {:.2}x; pooled vs tiled: {:.2}x; \
         prepacked vs pack-per-call (1 thread): {:.2}x",
        seed_secs / tiled_secs,
        tiled_secs / pooled_secs,
        bt_secs / pre_secs
    );
    let secs_for = |isa: Isa| {
        rows.iter()
            .find(|r| r.isa == isa.token() && r.name.starts_with("tiled["))
            .map(|r| r.secs)
    };
    let avx512_vs_avx2 = match (secs_for(Isa::Avx2Fma), secs_for(Isa::Avx512)) {
        (Some(avx2), Some(avx512)) => {
            println!(
                "{} vs {} (1 thread): {:.2}x ({:.2} vs {:.2} GFLOP/s)",
                simd::kernels_for(Isa::Avx512).unwrap().matmul.name,
                simd::kernels_for(Isa::Avx2Fma).unwrap().matmul.name,
                avx2 / avx512,
                gflops(avx512),
                gflops(avx2)
            );
            Some(avx2 / avx512)
        }
        _ => None,
    };

    // --- The f32 prepacked multiply at the shapes the workloads serve ----
    // What a dense layer runs (`DenseWeight::multiply`: panels packed once,
    // bias and ReLU fused into the last tile store) at Encoder-FC's two
    // layers over a 512-row batch, serial and on the pool as relbench's
    // `batch_compute` grants it; the `large_spill` relation-centric block
    // join's pair (a 64-row activation block by a 512×512 weight block, no
    // epilogue, serial as the join runs it); and Fraud-FC's first layer at
    // a 64-row serving batch.
    struct ServedRow {
        name: String,
        shape: [usize; 3],
        threads: usize,
        secs: f64,
    }
    let mut served_rows: Vec<ServedRow> = Vec::new();
    for ([sm, sk, sn], label, pools) in [
        ([512, 76, 3072], "bias+relu", true),
        ([512, 3072, 768], "bias", true),
        ([64, 512, 512], "none", false),
        ([64, 28, 256], "bias+relu", false),
    ] {
        let x = pattern(sm, sk, 7);
        let w = pattern(sn, sk, 8);
        let bias = pattern(1, sn, 9);
        let mut panels = Vec::new();
        mm::pack_bt(w.data(), sk, sn, sk, nr, &mut panels);
        let packed = mm::PackedB::new(sk, sn, nr, &panels).unwrap();
        let epilogue = match label {
            "bias+relu" => Epilogue::BiasRelu(bias.data()),
            "bias" => Epilogue::Bias(bias.data()),
            _ => Epilogue::None,
        };
        let grants: &[_] = if pools {
            &[(1, &serial), (pool_threads, &pooled)]
        } else {
            &[(1, &serial)]
        };
        for &(threads, grant) in grants {
            let secs = best_secs(reps, || {
                mm::matmul_prepacked(&x, &packed, epilogue, grant).unwrap();
            });
            served_rows.push(ServedRow {
                name: format!(
                    "f32_served[{}] {sm}x{sk}x{sn} {label}",
                    selected.matmul.name
                ),
                shape: [sm, sk, sn],
                threads,
                secs,
            });
        }
    }
    let mut stable = ResultTable::new(&["f32 served row", "threads", "secs", "GFLOP/s"]);
    for row in &served_rows {
        let ops = 2.0 * row.shape.iter().product::<usize>() as f64;
        stable.row(
            &row.name,
            &[
                Cell::Text(row.threads.to_string()),
                Cell::Text(format!("{:.6}", row.secs)),
                Cell::Text(format!("{:.1}", ops / row.secs / 1e9)),
            ],
        );
    }
    println!("f32 prepacked at the served shapes (best of {reps}):");
    print!("{}", stable.render());

    // --- What the f32 driver could reach -----------------------------------
    // The dispatched micro-kernel alone, on one hot A micro-panel and one B
    // panel of `kc` 256, storing into one C tile; and the FMA peak, 24
    // independent `zmm` FMA chains per thread, on 1 and 2 threads. The two
    // vCPUs of a hyperthreaded core share one FMA rate, so the 2-thread
    // peak, not twice the 1-thread one, bounds the pooled rows.
    let kern = &selected.matmul;
    let (mr, kr, kc) = (kern.mr, kern.nr, kern.kc);
    let apanel = pattern(1, mr * kc, 10);
    let bpanel = pattern(1, kr * kc, 11);
    let mut ctile = vec![0.0f32; mr * kr];
    let calls = 20_000usize;
    let micro_secs = best_secs(reps, || {
        for _ in 0..calls {
            let tile = simd::CTile {
                c: &mut ctile,
                ldc: kr,
                rows: mr,
                width: kr,
            };
            kern.run(apanel.data(), bpanel.data(), kc, tile, Epilogue::None);
        }
    });
    let micro_gflops = 2.0 * (mr * kr * kc * calls) as f64 / micro_secs / 1e9;
    let (peak1, peak2) = (fma_peak_gflops(1, reps), fma_peak_gflops(2, reps));
    let served_gflops = |shape: [usize; 3], threads: usize| {
        served_rows
            .iter()
            .find(|r| r.shape == shape && r.threads == threads)
            .map_or(0.0, |r| {
                2.0 * r.shape.iter().product::<usize>() as f64 / r.secs / 1e9
            })
    };
    let encoder_1 = served_gflops([512, 3072, 768], 1);
    let encoder_pooled = served_gflops([512, 3072, 768], pool_threads);
    let mut ctable = ResultTable::new(&["f32 ceiling", "threads", "GFLOP/s"]);
    let mut ceiling = |name: &str, threads: usize, gflops: f64| {
        ctable.row(
            name,
            &[
                Cell::Text(threads.to_string()),
                Cell::Text(format!("{gflops:.1}")),
            ],
        );
    };
    ceiling(
        &format!("micro-kernel alone [{}]", kern.name),
        1,
        micro_gflops,
    );
    if let (Some(p1), Some(p2)) = (peak1, peak2) {
        ceiling("FMA peak (24 zmm chains)", 1, p1);
        ceiling("FMA peak (24 zmm chains)", 2, p2);
    } else {
        println!("FMA peak: needs AVX-512F; skipped");
    }
    println!("f32 ceilings (best of {reps}):");
    print!("{}", ctable.render());
    println!(
        "driver efficiency: 512x3072x768 serial / micro-kernel alone {:.2}; pooled ({pool_threads} threads) / 2-thread FMA peak {}",
        encoder_1 / micro_gflops,
        peak2.map_or("n/a".into(), |p| format!("{:.2}", encoder_pooled / p)),
    );

    // --- Int8 quantized kernels at 512^3 ----------------------------------
    // Same GFLOP-equivalent count as the f32 rows (one u8×i8 MAC ≡ one FMA),
    // timed end-to-end: per-row activation quantization, u8×i8 i32-accumulate
    // micro-kernel, dequantizing f32 epilogue. `effective GB/s` is the
    // traffic a kernel actually moves — u8 activations + i8 weights (plus
    // scales) + the f32 store — which is ~4× less than the f32 path.
    struct I8Row {
        name: String,
        isa: &'static str,
        secs: f64,
        bytes: f64,
    }
    let wq = QuantizedTensor::quantize(&b).unwrap();
    let i8_bytes = (n * n) as f64 + wq.storage_bytes() as f64 + (n * n * 4) as f64;
    let mut i8_rows: Vec<I8Row> = Vec::new();
    let mut qout = None;
    for &isa in &supported {
        let kern_name = simd::kernels_for(isa).unwrap().matmul_i8.name;
        let secs = best_secs(reps, || {
            qout = Some(quant::qmatmul_bt_with_isa(&a, &wq, None, isa).unwrap());
        });
        i8_rows.push(I8Row {
            name: format!("int8[{kern_name}]"),
            isa: isa.token(),
            secs,
            bytes: i8_bytes,
        });
    }
    // The serve hot path: the relational block join quantizes each
    // activation block **once per block-row sweep** and reuses it across
    // every matching weight block, so its steady-state cost is this
    // prequantized multiply, not the end-to-end rows above.
    let aq = quant::quantize_activations(&a).unwrap();
    for &isa in &supported {
        let kern_name = simd::kernels_for(isa).unwrap().matmul_i8.name;
        if isa != simd::active_isa() {
            // qmatmul_prequantized rides the process-selected tier; forcing
            // others would re-measure the rows above.
            continue;
        }
        let secs = best_secs(reps, || {
            qout = Some(quant::qmatmul_prequantized(&aq, &wq, None, &serial).unwrap());
        });
        i8_rows.push(I8Row {
            name: format!("int8_pre[{kern_name}]"),
            isa: isa.token(),
            secs,
            bytes: i8_bytes,
        });
        // The dense hot path: `W`'s quads packed once per model, the
        // activations quantized inside the call (a `QuantDense` layer).
        let qnr = quant::quad_panel_width().unwrap();
        let mut quads = Vec::new();
        quant::pack_quads(wq.data(), wq.rows(), wq.cols(), qnr, &mut quads);
        let secs = best_secs(reps, || {
            qout = Some(
                quant::qmatmul_prepacked(&a, wq.epilogue(), qnr, &quads, None, &serial).unwrap(),
            );
        });
        i8_rows.push(I8Row {
            name: format!("int8_prepacked[{kern_name}]"),
            isa: isa.token(),
            secs,
            bytes: i8_bytes,
        });
    }
    // Sanity: the quantized result tracks the f32 product of the same
    // operands to quantization accuracy.
    let f32_ref = mm::matmul_bt_with_isa(&a, &b, best_isa).unwrap();
    let qdiff = f32_ref.max_abs_diff(qout.as_ref().unwrap()).unwrap();
    let ref_scale = f32_ref.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    assert!(
        qdiff <= ref_scale * 0.02,
        "int8 kernel diverged: max diff {qdiff} vs scale {ref_scale}"
    );

    let mut qtable = ResultTable::new(&["int8 kernel", "isa", "secs", "GFLOP-equiv/s", "eff GB/s"]);
    for row in &i8_rows {
        qtable.row(
            &row.name,
            &[
                Cell::Text(row.isa.to_string()),
                Cell::Text(format!("{:.4}", row.secs)),
                Cell::Text(format!("{:.2}", gflops(row.secs))),
                Cell::Text(format!("{:.2}", row.bytes / row.secs / 1e9)),
            ],
        );
    }
    println!("int8 matmul {n}x{n}x{n} (best of {reps}, u8×i8 → i32 → f32 epilogue):");
    print!("{}", qtable.render());
    let i8_secs_for = |isa: Isa| {
        i8_rows
            .iter()
            .find(|r| r.isa == isa.token())
            .map(|r| r.secs)
    };
    let i8_best = i8_rows.iter().map(|r| r.secs).fold(f64::INFINITY, f64::min);
    let f32_best = supported
        .iter()
        .filter_map(|&isa| secs_for(isa))
        .fold(f64::INFINITY, f64::min);
    let int8_vs_f32_best = f32_best / i8_best;
    println!(
        "int8 best vs f32 best (1 thread): {:.2}x ({:.2} vs {:.2} GFLOP-equiv/s)",
        int8_vs_f32_best,
        gflops(i8_best),
        gflops(f32_best)
    );
    let int8_vs_f32_avx2 = match (i8_secs_for(Isa::Avx2Fma), secs_for(Isa::Avx2Fma)) {
        (Some(i8s), Some(f32s)) => {
            println!("int8 avx2 vs f32 avx2 (1 thread): {:.2}x", f32s / i8s);
            Some(f32s / i8s)
        }
        _ => None,
    };
    let i8_pre_secs = i8_rows
        .iter()
        .find(|r| r.name.starts_with("int8_pre["))
        .map(|r| r.secs);
    let int8_pre_vs_f32_avx512 = match (i8_pre_secs, secs_for(Isa::Avx512)) {
        (Some(pre), Some(f32s)) => {
            println!(
                "int8 prequantized (serve steady state) vs f32 avx512 (1 thread): {:.2}x",
                f32s / pre
            );
            Some(f32s / pre)
        }
        _ => None,
    };

    // --- The AMX tile unit at the shapes it serves ------------------------
    // The dense hot path (`qmatmul_prepacked`: quads packed once, the
    // activations quantized inside the call) at 512³ and at Encoder-FC's
    // two layers, on one thread. `prepacked_no_quantize` subtracts the same
    // input's `quantize_activations` sweep, the part that is not the tiles.
    struct TileRow {
        name: String,
        shape: [usize; 3],
        secs: f64,
    }
    let mut tile_rows: Vec<TileRow> = Vec::new();
    if simd::active_isa() == Isa::Amx {
        let kern_name = selected.matmul_i8.name;
        let qnr = quant::quad_panel_width().unwrap();
        for [tm, tk, tn] in [[n, n, n], [512, 76, 3072], [512, 3072, 768]] {
            let x = pattern(tm, tk, 5);
            let wt = QuantizedTensor::quantize(&pattern(tn, tk, 6)).unwrap();
            let mut quads = Vec::new();
            quant::pack_quads(wt.data(), tn, tk, qnr, &mut quads);
            let pre = best_secs(reps, || {
                quant::qmatmul_prepacked(&x, wt.epilogue(), qnr, &quads, None, &serial).unwrap();
            });
            let sweep = best_secs(reps, || {
                quant::quantize_activations(&x).unwrap();
            });
            for (variant, secs) in [("prepacked", pre), ("prepacked_no_quantize", pre - sweep)] {
                tile_rows.push(TileRow {
                    name: format!("int8_tiles[{kern_name}] {tm}x{tk}x{tn} {variant}"),
                    shape: [tm, tk, tn],
                    secs,
                });
            }
        }
        let mut ttable = ResultTable::new(&["int8 tile row", "secs", "GOP-equiv/s"]);
        for row in &tile_rows {
            let ops = 2.0 * row.shape.iter().product::<usize>() as f64;
            ttable.row(
                &row.name,
                &[
                    Cell::Text(format!("{:.6}", row.secs)),
                    Cell::Text(format!("{:.1}", ops / row.secs / 1e9)),
                ],
            );
        }
        println!("int8 on the AMX tile unit (best of {reps}, 1 thread):");
        print!("{}", ttable.render());
    } else {
        println!(
            "no int8_tiles rows: the dispatched tier is \"{}\", not amx",
            simd::active_isa()
        );
    }

    // --- Elementwise kernel bandwidth -------------------------------------
    // L2-resident working set so the wider tiers are not flattened against
    // the memory wall; traffic counts reads + writes per invocation.
    let elems = 1usize << 16;
    let src = pattern(1, elems, 5);
    let elem_reps = 2000;
    let mut elem_rows: Vec<ElemRow> = Vec::new();
    for &isa in &supported {
        let kern = simd::kernels_for(isa).unwrap();
        let mut buf = src.data().to_vec();
        let secs = best_secs(3, || {
            for _ in 0..elem_reps {
                kern.relu(&mut buf);
            }
        }) / elem_reps as f64;
        elem_rows.push(ElemRow {
            kernel: "relu",
            isa: isa.token(),
            secs,
            bytes: (elems * 8) as f64,
        });
        let mut buf = src.data().to_vec();
        let secs = best_secs(3, || {
            for _ in 0..elem_reps {
                kern.axpy(&mut buf, src.data(), 0.5);
            }
        }) / elem_reps as f64;
        elem_rows.push(ElemRow {
            kernel: "axpy",
            isa: isa.token(),
            secs,
            bytes: (elems * 12) as f64,
        });
        let mut sink = 0.0f32;
        let secs = best_secs(3, || {
            for _ in 0..elem_reps {
                sink += kern.sum(src.data());
            }
        }) / elem_reps as f64;
        assert!(sink.is_finite());
        elem_rows.push(ElemRow {
            kernel: "sum",
            isa: isa.token(),
            secs,
            bytes: (elems * 4) as f64,
        });
    }
    let mut etable = ResultTable::new(&["elementwise", "isa", "ns/call", "GB/s"]);
    for row in &elem_rows {
        etable.row(
            row.kernel,
            &[
                Cell::Text(row.isa.to_string()),
                Cell::Text(format!("{:.0}", row.secs * 1e9)),
                Cell::Text(format!("{:.2}", row.bytes / row.secs / 1e9)),
            ],
        );
    }
    println!("elementwise kernels over {elems} floats (L2-resident):");
    print!("{}", etable.render());

    // --- Relational block join at 1024x1024 -------------------------------
    let rel_rows = 1024usize;
    let block = 128usize;
    let bufpool = Arc::new(BufferPool::new(Arc::new(DiskManager::temp().unwrap()), 512));
    let x = pattern(rel_rows, rel_rows, 3);
    let w = pattern(rel_rows, rel_rows, 4);
    let xt =
        TensorTable::from_dense(bufpool.clone(), "X", &x, BlockingSpec::square(block)).unwrap();
    let wt = TensorTable::from_dense(bufpool, "W", &w, BlockingSpec::square(block)).unwrap();
    let rel_threads = pool_threads.clamp(2, 4);
    let rel_par = pool.parallelism(rel_threads);
    let rel_serial = best_secs(3, || {
        xt.matmul_bt_parallel(&wt, "C", &pool.parallelism(1))
            .unwrap();
    });
    let rel_pooled = best_secs(3, || {
        xt.matmul_bt_parallel(&wt, "C", &rel_par).unwrap();
    });
    println!(
        "relational matmul_bt {rel_rows}x{rel_rows} (block {block}): serial {rel_serial:.4}s, \
         {rel_threads} kernel threads {rel_pooled:.4}s ({:.2}x)",
        rel_serial / rel_pooled
    );

    let counters = pool.counters();
    let host_cores = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let kernel_json = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"isa\": \"{}\", \"threads\": {}, \"secs\": {:.6}, \"gflops\": {:.3}}}",
                r.name,
                r.isa,
                r.threads,
                r.secs,
                gflops(r.secs)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let elem_json = elem_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"kernel\": \"{}\", \"isa\": \"{}\", \"ns_per_call\": {:.1}, \"gbps\": {:.3}}}",
                r.kernel,
                r.isa,
                r.secs * 1e9,
                r.bytes / r.secs / 1e9
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let avx512_json = avx512_vs_avx2
        .map(|s| format!("  \"speedup_avx512_vs_avx2\": {s:.3},\n"))
        .unwrap_or_default();
    let i8_json = i8_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"isa\": \"{}\", \"secs\": {:.6}, \"gflops_equiv\": {:.3}, \"effective_gbps\": {:.3}}}",
                r.name,
                r.isa,
                r.secs,
                gflops(r.secs),
                r.bytes / r.secs / 1e9
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let i8_avx2_json = int8_vs_f32_avx2
        .map(|s| format!("  \"speedup_int8_avx2_vs_f32_avx2\": {s:.3},\n"))
        .unwrap_or_default();
    let i8_pre_json = int8_pre_vs_f32_avx512
        .map(|s| format!("  \"speedup_int8_prequantized_vs_f32_avx512\": {s:.3},\n"))
        .unwrap_or_default();
    let served_json = served_rows
        .iter()
        .map(|r| {
            let ops = 2.0 * r.shape.iter().product::<usize>() as f64;
            format!(
                "    {{\"name\": \"{}\", \"isa\": \"{}\", \"shape\": [{}, {}, {}], \"threads\": {}, \"secs\": {:.6}, \"gflops\": {:.3}}}",
                r.name,
                selected.isa.token(),
                r.shape[0],
                r.shape[1],
                r.shape[2],
                r.threads,
                r.secs,
                ops / r.secs / 1e9
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let tile_json = tile_rows
        .iter()
        .map(|r| {
            let ops = 2.0 * r.shape.iter().product::<usize>() as f64;
            format!(
                "    {{\"name\": \"{}\", \"isa\": \"amx\", \"shape\": [{}, {}, {}], \"secs\": {:.6}, \"gops_equiv\": {:.3}}}",
                r.name,
                r.shape[0],
                r.shape[1],
                r.shape[2],
                r.secs,
                ops / r.secs / 1e9
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"host_cores\": {host_cores},\n  \"isa\": \"{}\",\n  \"shape\": [{n}, {n}, {n}],\n  \"flops\": {flops},\n  \"kernels\": [\n{kernel_json}\n  ],\n  \
         \"speedup_tiled_vs_seed\": {:.3},\n  \"speedup_f32_prepacked_vs_per_call\": {:.3},\n{avx512_json}  \
         \"f32_served\": [\n{served_json}\n  ],\n  \
         \"f32_ceiling\": {{\"micro_kernel_gflops\": {micro_gflops:.3}, \"fma_peak_gflops_1t\": {}, \"fma_peak_gflops_2t\": {}, \
         \"served_512x3072x768_vs_micro_kernel\": {:.3}}},\n  \
         \"int8_kernels\": [\n{i8_json}\n  ],\n  \
         \"int8_tiles\": [\n{tile_json}\n  ],\n  \
         \"speedup_int8_vs_f32_best\": {int8_vs_f32_best:.3},\n{i8_avx2_json}{i8_pre_json}  \
         \"elementwise\": [\n{elem_json}\n  ],\n  \
         \"relational_matmul_bt\": {{\"rows\": {rel_rows}, \"block\": {block}, \"kernel_threads\": {rel_threads}, \
         \"serial_secs\": {rel_serial:.6}, \"pooled_secs\": {rel_pooled:.6}, \"speedup\": {:.3}}},\n  \
         \"pool_counters\": {{\"tasks_run\": {}, \"steals\": {}, \"parks\": {}}}\n}}\n",
        selected.isa.token(),
        seed_secs / tiled_secs,
        bt_secs / pre_secs,
        peak1.map_or("null".into(), |p| format!("{p:.3}")),
        peak2.map_or("null".into(), |p| format!("{p:.3}")),
        encoder_1 / micro_gflops,
        rel_serial / rel_pooled,
        counters.tasks_run,
        counters.steals,
        counters.parks,
    );
    std::fs::write("BENCH_matmul.json", &json).expect("write BENCH_matmul.json");
    println!("wrote BENCH_matmul.json");
}

//! Exhaustive edge-size coverage for the register-tiled microkernel.
//!
//! Every (m, k, n) combination around the tile boundaries — sizes from 1
//! through MR+1, NR±1, NR_WIDE±1, and odd sizes straddling the panel
//! widths — must be *bitwise* identical to a reference triple loop with
//! the same k-ascending summation order. Any padding leak, mis-sized edge
//! tile or reassociated accumulation shows up here as a bit mismatch.

use ln_tensor::microkernel::{self, Epilogue, MR, NR, NR_WIDE};
use ln_tensor::Tensor2;

/// Deterministic non-trivial fill (values with uneven mantissas so
/// reassociation cannot hide behind exact arithmetic).
fn fill(rows: usize, cols: usize, seed: usize) -> Tensor2 {
    Tensor2::from_fn(rows, cols, |i, j| {
        let h = i * 31 + j * 17 + seed * 101;
        ((h % 97) as f32) * 0.173 - 8.1 + ((h % 13) as f32) * 1e-3
    })
}

fn edge_sizes() -> Vec<usize> {
    let mut sizes: Vec<usize> = (1..=MR + 1).collect();
    sizes.extend([NR - 1, NR, NR + 1, 2 * NR + 3, 3 * MR + 1, 33, 37]);
    // The host may run either tile width; straddle the wide one too.
    sizes.extend([NR_WIDE - 1, NR_WIDE, NR_WIDE + 1]);
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

#[test]
fn tiled_matmul_is_bitwise_identical_to_reference_at_every_edge_size() {
    for &m in &edge_sizes() {
        for &k in &edge_sizes() {
            for &n in &edge_sizes() {
                let a = fill(m, k, 1);
                let b = fill(k, n, 2);
                let want = microkernel::reference_matmul(a.as_slice(), b.as_slice(), m, k, n);
                let got = a.matmul(&b).unwrap();
                for (idx, (x, y)) in got.as_slice().iter().zip(&want).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "({m},{k},{n}) element {idx}: {x} vs {y}"
                    );
                }
            }
        }
    }
}

#[test]
fn tiled_matmul_transposed_is_bitwise_identical_at_every_edge_size() {
    for &m in &edge_sizes() {
        for &k in &edge_sizes() {
            for &n in &edge_sizes() {
                let a = fill(m, k, 3);
                let bt = fill(n, k, 4);
                let b = bt.transposed();
                let want = microkernel::reference_matmul(a.as_slice(), b.as_slice(), m, k, n);
                let got = a.matmul_transposed(&bt).unwrap();
                for (idx, (x, y)) in got.as_slice().iter().zip(&want).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "transposed ({m},{k},{n}) element {idx}"
                    );
                }
            }
        }
    }
}

#[test]
fn into_forms_overwrite_a_wrong_valued_out_with_the_allocating_bits_at_every_edge_size() {
    let bits = |t: &Tensor2| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for &m in &edge_sizes() {
        for &k in &edge_sizes() {
            for &n in &edge_sizes() {
                let a = fill(m, k, 11);
                let w = fill(k, n, 12);
                let bias = fill(1, n, 14);
                let bias = bias.as_slice();
                let epilogues = [
                    Epilogue::None,
                    Epilogue::Bias(bias),
                    Epilogue::BiasSigmoid(bias),
                    Epilogue::BiasRelu(bias),
                ];
                for (e, epilogue) in epilogues.iter().enumerate() {
                    let mut out = Tensor2::full(m, n, f32::NAN);
                    a.matmul_epilogue_into(&w, epilogue, &mut out).unwrap();
                    let want = a.matmul_epilogue(&w, epilogue).unwrap();
                    assert_eq!(bits(&out), bits(&want), "({m},{k},{n}) epilogue {e}");
                }
            }
        }
    }
}

#[test]
fn into_forms_reject_a_wrong_shaped_out() {
    use ln_tensor::TensorError;
    let (a, w) = (fill(3, 4, 16), fill(4, 5, 17));
    let bias = vec![0.5f32; 5];
    for (rows, cols) in [(3, 4), (2, 5), (5, 3), (0, 0)] {
        let mut out = Tensor2::zeros(rows, cols);
        assert!(matches!(
            a.matmul_epilogue_into(&w, &Epilogue::Bias(&bias), &mut out),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }
}

#[test]
fn chunked_gemm_matches_whole_matrix_gemm_at_odd_chunk_seams() {
    // The ln-par calling convention hands the kernel row chunks at
    // arbitrary seams; any seam must reproduce the unchunked result.
    let (m, k, n) = (23, 19, 13);
    let a = fill(m, k, 5);
    let b = fill(k, n, 6);
    let mut whole = vec![0.0f32; m * n];
    microkernel::gemm(
        a.as_slice(),
        b.as_slice(),
        k,
        n,
        0,
        &mut whole,
        &Epilogue::None,
    );
    for chunk_rows in [1usize, 2, 3, MR, MR + 1, 7, 11] {
        let mut out = vec![0.0f32; m * n];
        let mut row0 = 0;
        for chunk in out.chunks_mut(chunk_rows * n) {
            microkernel::gemm(
                a.as_slice(),
                b.as_slice(),
                k,
                n,
                row0,
                chunk,
                &Epilogue::None,
            );
            row0 += chunk.len() / n;
        }
        for (idx, (x, y)) in out.iter().zip(&whole).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "chunk_rows={chunk_rows} element {idx}"
            );
        }
    }
}

#[test]
fn degenerate_shapes_are_handled() {
    let a = Tensor2::zeros(0, 4);
    let b = Tensor2::zeros(4, 3);
    assert_eq!(a.matmul(&b).unwrap().shape(), (0, 3));
    let a = Tensor2::zeros(3, 0);
    let b = Tensor2::zeros(0, 2);
    let out = a.matmul(&b).unwrap();
    assert_eq!(out.shape(), (3, 2));
    assert!(out.as_slice().iter().all(|&v| v == 0.0));
    let a = fill(1, 1, 7);
    let b = fill(1, 1, 8);
    assert_eq!(a.matmul(&b).unwrap().at(0, 0), a.at(0, 0) * b.at(0, 0));
}

#[test]
fn epilogue_shape_mismatches_are_rejected() {
    let x = fill(2, 4, 9);
    let w = fill(4, 3, 10);
    let short_bias = vec![0.0f32; 2];
    assert!(x.matmul_epilogue(&w, &Epilogue::Bias(&short_bias)).is_err());
    let bias = vec![0.0f32; 3];
    assert!(x.matmul_epilogue(&w, &Epilogue::Bias(&bias)).is_ok());
}

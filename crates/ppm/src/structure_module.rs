//! The Structure Module: decodes the final Pair Representation into 3-D
//! Cα coordinates.
//!
//! The pipeline is (1) distogram decoding — recover a pairwise distance
//! estimate from the distogram channels the embedding planted and the trunk
//! refined — then (2) classical multidimensional scaling (MDS) to embed the
//! distance matrix into 3-D, with (3) chirality fixing (proteins are
//! right-handed; MDS is reflection-blind).
//!
//! Because the decoder reads the *same activations AAQ quantizes*, every
//! bit of quantization error propagates to coordinates and thus to the
//! TM-Score — the paper's accuracy pathway.

use crate::embed::{distogram_center, distogram_channels, DISTOGRAM_MAX, DISTOGRAM_MIN};
use crate::PpmError;
use ln_protein::geometry::Vec3;
use ln_protein::Structure;
use ln_tensor::{Tensor2, Tensor3};

/// Decodes the pair representation into a pairwise distance estimate (Å).
///
/// For each token the estimate is the response-weighted centroid of the
/// distogram channel centres (soft-argmax); the symmetric average of
/// `(i, j)` and `(j, i)` is returned.
pub fn decode_distances(pair: &Tensor3) -> Tensor2 {
    let (ns, _, hz) = pair.shape();
    let nd = distogram_channels(hz);
    let mut d = Tensor2::zeros(ns, ns);
    for i in 0..ns {
        for j in 0..ns {
            if i == j {
                continue;
            }
            let tok = pair.token(i, j);
            // Noise floor: the folding trunk's residual updates perturb all
            // channels; only the channels near the RBF peak carry distance
            // information, so channels below 20 % of the token's RBF peak
            // are rejected before the centroid.
            let peak = tok[..nd].iter().fold(0.0f32, |a, &v| a.max(v));
            let floor = 0.2 * peak;
            let mut num = 0.0f64;
            let mut den = 0.0f64;
            for (c, &v) in tok[..nd].iter().enumerate() {
                if v <= floor {
                    continue;
                }
                let center = distogram_center(c, nd);
                // Divide out the close-pair amplitude profile so the
                // centroid is unbiased (the raw responses weight small
                // distances more heavily).
                let w = ((v - floor) / crate::embed::distogram_amplitude(center)) as f64;
                num += w * center as f64;
                den += w;
            }
            let est = if den > 1e-9 {
                (num / den) as f32
            } else {
                DISTOGRAM_MAX
            };
            d.set(i, j, est.clamp(DISTOGRAM_MIN, DISTOGRAM_MAX));
        }
    }
    // Symmetrise.
    for i in 0..ns {
        for j in (i + 1)..ns {
            let avg = 0.5 * (d.at(i, j) + d.at(j, i));
            d.set(i, j, avg);
            d.set(j, i, avg);
        }
    }
    d
}

/// Completes a capped distance matrix by Isomap-style geodesic distances.
///
/// The distogram saturates at [`DISTOGRAM_MAX`]: pairs further apart than
/// the cap all decode to the cap, which collapses the global geometry under
/// MDS. (Real PPM distograms cap even earlier, ~21 Å; their structure
/// modules recover the global fold by iterative frame refinement.) The
/// classical-MDS substitute instead treats near-cap estimates as *unknown*
/// and replaces them with shortest-path distances through the graph of
/// confident (< 95 % of cap) estimates — the Isomap construction.
///
/// Consecutive residues are always connected (the backbone guarantees
/// ~3.8 Å bonds), so the graph is connected and Floyd–Warshall suffices.
pub fn complete_distances(decoded: &Tensor2, cap: f32) -> Tensor2 {
    let n = decoded.rows();
    let confident = cap * 0.95;
    let inf = f32::INFINITY;
    let mut g = Tensor2::full(n, n, inf);
    for i in 0..n {
        g.set(i, i, 0.0);
        for j in 0..n {
            if i == j {
                continue;
            }
            let d = decoded.at(i, j);
            if d < confident {
                g.set(i, j, d);
            }
        }
    }
    // Backbone bonds keep the graph connected even if the decode is noisy.
    for i in 1..n {
        let bond = decoded.at(i - 1, i).min(confident).max(1.0);
        g.set(i - 1, i, g.at(i - 1, i).min(bond));
        g.set(i, i - 1, g.at(i, i - 1).min(bond));
    }
    // Floyd–Warshall.
    for k in 0..n {
        for i in 0..n {
            let dik = g.at(i, k);
            if dik == inf {
                continue;
            }
            for j in 0..n {
                let via = dik + g.at(k, j);
                if via < g.at(i, j) {
                    g.set(i, j, via);
                }
            }
        }
    }
    g
}

/// Embeds a distance matrix into 3-D via classical MDS (Torgerson): double
/// centring of the squared distances, then the three dominant eigenpairs of
/// the Gram matrix by power iteration with deflation.
///
/// # Errors
///
/// Returns [`PpmError::InvalidConfig`] if the matrix is not square or has
/// fewer than 3 rows.
pub fn mds_embed(distances: &Tensor2) -> Result<Structure, PpmError> {
    let n = distances.rows();
    if distances.cols() != n {
        return Err(PpmError::InvalidConfig {
            what: "distance matrix must be square".into(),
        });
    }
    if n < 3 {
        return Err(PpmError::InvalidConfig {
            what: "need at least 3 residues for MDS".into(),
        });
    }

    // Gram matrix: G = -1/2 J D² J with J = I - 11ᵀ/n (double centring).
    let mut sq = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            let d = distances.at(i, j) as f64;
            sq[i * n + j] = d * d;
        }
    }
    let row_means: Vec<f64> = (0..n)
        .map(|i| sq[i * n..(i + 1) * n].iter().sum::<f64>() / n as f64)
        .collect();
    let grand = row_means.iter().sum::<f64>() / n as f64;
    let mut g = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            g[i * n + j] = -0.5 * (sq[i * n + j] - row_means[i] - row_means[j] + grand);
        }
    }

    // Three dominant eigenpairs by power iteration + deflation.
    let mut coords = vec![Vec3::zero(); n];
    let mut work = g;
    for axis in 0..3 {
        let (lambda, v) = dominant_eigenpair(&work, n, axis);
        if lambda <= 0.0 {
            break; // Remaining structure is numerically flat.
        }
        let scale = lambda.sqrt();
        for (c, &vi) in coords.iter_mut().zip(v.iter()) {
            match axis {
                0 => c.x = vi * scale,
                1 => c.y = vi * scale,
                _ => c.z = vi * scale,
            }
        }
        // Deflate: W -= λ v vᵀ.
        for i in 0..n {
            for j in 0..n {
                work[i * n + j] -= lambda * v[i] * v[j];
            }
        }
    }
    Ok(Structure::new(coords))
}

/// Power iteration for the dominant eigenpair of a symmetric matrix.
fn dominant_eigenpair(m: &[f64], n: usize, seed: usize) -> (f64, Vec<f64>) {
    // Deterministic start vector, varied per axis to avoid orthogonal starts.
    let mut v: Vec<f64> = (0..n)
        .map(|i| ((i * 2654435761 + seed * 40503 + 1) % 1000) as f64 / 1000.0 - 0.5)
        .collect();
    normalize(&mut v);
    let mut lambda = 0.0f64;
    for _ in 0..300 {
        let mut w = vec![0.0f64; n];
        for i in 0..n {
            let row = &m[i * n..(i + 1) * n];
            w[i] = row.iter().zip(v.iter()).map(|(&a, &b)| a * b).sum();
        }
        let new_lambda: f64 = v.iter().zip(w.iter()).map(|(&a, &b)| a * b).sum();
        let norm = normalize(&mut w);
        if norm < 1e-12 {
            return (0.0, v);
        }
        let converged = (new_lambda - lambda).abs() <= 1e-10 * new_lambda.abs().max(1.0);
        lambda = new_lambda;
        v = w;
        if converged {
            break;
        }
    }
    (lambda, v)
}

fn normalize(v: &mut [f64]) -> f64 {
    let n = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if n > 1e-12 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
    n
}

/// The signed chirality statistic: the mean triple product of consecutive
/// backbone steps. Right-handed protein folds give a positive value.
pub fn chirality(s: &Structure) -> f64 {
    let c = s.coords();
    if c.len() < 4 {
        return 0.0;
    }
    let mut sum = 0.0;
    for w in c.windows(4) {
        let v1 = w[1] - w[0];
        let v2 = w[2] - w[1];
        let v3 = w[3] - w[2];
        sum += v1.cross(v2).dot(v3);
    }
    sum / (c.len() - 3) as f64
}

/// Mirrors the structure if its chirality statistic is negative, restoring
/// protein handedness lost by reflection-blind MDS.
pub fn fix_chirality(mut s: Structure) -> Structure {
    if chirality(&s) < 0.0 {
        for p in s.coords_mut() {
            p.x = -p.x;
        }
    }
    s
}

/// Refines coordinates by gradient descent on the weighted stress
/// `Σ w_ij (‖x_i − x_j‖ − d_ij)²`, trusting only confident (below-cap)
/// distance estimates.
///
/// This plays the role of the real structure module's iterative refinement:
/// classical MDS on geodesically-completed distances provides the global
/// fold, and the stress descent polishes it against the accurate short- and
/// mid-range estimates.
pub fn refine_against_distances(
    mut s: Structure,
    distances: &Tensor2,
    cap: f32,
    iterations: usize,
) -> Structure {
    let n = s.len();
    if n < 2 {
        return s;
    }
    let confident = cap * 0.95;
    let step = 0.2;
    for _ in 0..iterations {
        let coords = s.coords().to_vec();
        let out = s.coords_mut();
        for i in 0..n {
            let mut grad = Vec3::zero();
            let mut weight_sum = 0.0f64;
            for (j, &cj) in coords.iter().enumerate() {
                if i == j {
                    continue;
                }
                let target = distances.at(i, j);
                let w = if target < confident { 1.0 } else { 0.05 };
                let delta = coords[i] - cj;
                let dist = delta.norm().max(1e-6);
                // d(stress)/d(x_i) = 2 w (dist - target) * delta / dist.
                grad = grad + delta * (w * (dist - target as f64) / dist);
                weight_sum += w;
            }
            if weight_sum > 0.0 {
                out[i] = coords[i] - grad * (step / weight_sum);
            }
        }
    }
    s
}

/// Full structure-module decode: distances → geodesic completion → MDS →
/// stress refinement → chirality fix.
///
/// # Errors
///
/// Propagates [`mds_embed`] errors.
pub fn decode_structure(pair: &Tensor3) -> Result<Structure, PpmError> {
    let d = decode_distances(pair);
    let completed = complete_distances(&d, DISTOGRAM_MAX);
    let coarse = mds_embed(&completed)?;
    let refined = refine_against_distances(coarse, &d, DISTOGRAM_MAX, 200);
    Ok(fix_chirality(refined))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::Embedding;
    use crate::PpmConfig;
    use ln_protein::generator::StructureGenerator;
    use ln_protein::{distance_matrix, metrics, Sequence};

    #[test]
    fn mds_recovers_exact_distances() {
        let native = StructureGenerator::new("mds").generate(40);
        let d = distance_matrix(&native);
        let rec = mds_embed(&d).unwrap();
        // Internal distances must match (MDS is exact for Euclidean input).
        for i in 0..40 {
            for j in 0..40 {
                assert!(
                    (rec.distance(i, j) - native.distance(i, j)).abs() < 0.1,
                    "({i},{j}): {} vs {}",
                    rec.distance(i, j),
                    native.distance(i, j)
                );
            }
        }
    }

    #[test]
    fn mds_plus_chirality_matches_native_tm() {
        let native = StructureGenerator::new("mds2").generate(64);
        let d = distance_matrix(&native);
        let rec = fix_chirality(mds_embed(&d).unwrap());
        let tm = metrics::tm_score(&rec, &native).unwrap().score;
        assert!(tm > 0.95, "tm {tm}");
    }

    #[test]
    fn mds_rejects_bad_input() {
        assert!(mds_embed(&Tensor2::zeros(3, 4)).is_err());
        assert!(mds_embed(&Tensor2::zeros(2, 2)).is_err());
    }

    #[test]
    fn chirality_flips_sign_under_mirror() {
        let s = StructureGenerator::new("chir").generate(64);
        let c = chirality(&s);
        assert!(c.abs() > 1e-6);
        let mut mirrored = s.clone();
        for p in mirrored.coords_mut() {
            p.z = -p.z;
        }
        let cm = chirality(&mirrored);
        assert!((c + cm).abs() < 1e-6 * c.abs().max(1.0), "{c} vs {cm}");
    }

    #[test]
    fn native_structures_are_right_handed() {
        // The generator builds right-handed helices; the statistic must be
        // positive so fix_chirality aligns predictions with natives.
        for seed in ["h1", "h2", "h3", "h4"] {
            let s = StructureGenerator::new(seed).generate(120);
            assert!(chirality(&s) > 0.0, "seed {seed}");
        }
    }

    #[test]
    fn decode_distances_from_fresh_embedding_is_accurate() {
        let cfg = PpmConfig::standard();
        let ns = 48;
        let seq = Sequence::random("dec", ns);
        let native = StructureGenerator::new("dec").generate(ns);
        let z = Embedding::new(cfg).embed_pair(&seq, &native);
        let d = decode_distances(&z);
        let dm = distance_matrix(&native);
        let mut err = 0.0f64;
        let mut cnt = 0usize;
        for i in 0..ns {
            for j in 0..ns {
                if i == j {
                    continue;
                }
                let truth = dm.at(i, j).clamp(3.0, 40.0);
                err += (d.at(i, j) - truth).abs() as f64;
                cnt += 1;
            }
        }
        let mae = err / cnt as f64;
        assert!(mae < 1.5, "mean decode error {mae} Å");
    }

    #[test]
    fn full_decode_from_embedding_matches_native() {
        let cfg = PpmConfig::standard();
        let ns = 48;
        let seq = Sequence::random("full", ns);
        let native = StructureGenerator::new("full").generate(ns);
        let z = Embedding::new(cfg).embed_pair(&seq, &native);
        let pred = decode_structure(&z).unwrap();
        let tm = metrics::tm_score(&pred, &native).unwrap().score;
        assert!(tm > 0.8, "tm {tm}");
    }
}

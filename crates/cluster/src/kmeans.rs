//! KMeans clustering with kmeans++ initialization.
//!
//! This is the pseudo-label generator of Calibre's prototype machinery
//! (paper §IV-B, "Prototype generation"): batch encodings are clustered,
//! cluster means become prototypes, and assignments become pseudo-labels for
//! the `L_n` / `L_p` regularizers.

use calibre_tensor::backend::{Backend, Scalar};
use calibre_tensor::{rng, Matrix};
use rand::Rng;

/// Configuration for [`kmeans`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence tolerance on total centroid movement.
    pub tol: f32,
    /// Seed for the kmeans++ initialization.
    pub seed: u64,
    /// Number of independent kmeans++ restarts; the run with the lowest
    /// inertia wins. Restarts guard against an unlucky initialization
    /// splitting a true cluster. Latency-sensitive callers (per-batch
    /// clustering inside a training step) set this to 1.
    pub n_init: usize,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 8,
            max_iters: 50,
            tol: 1e-4,
            seed: 0,
            n_init: 4,
        }
    }
}

impl KMeansConfig {
    /// Convenience constructor fixing the cluster count.
    pub fn with_k(k: usize) -> Self {
        KMeansConfig {
            k,
            ..KMeansConfig::default()
        }
    }
}

/// Output of a [`kmeans`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster centroids, `(k, dim)`.
    pub centroids: Matrix,
    /// Cluster index per input row.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their assigned centroid.
    pub inertia: f32,
    /// Number of Lloyd iterations executed.
    pub iterations: usize,
}

/// Runs Lloyd's algorithm with kmeans++ seeding and [`KMeansConfig::n_init`]
/// restarts, returning the restart with the lowest inertia.
///
/// If the data has fewer rows than `config.k`, the effective `k` is reduced
/// to the row count (every point its own cluster) — this matters for small
/// final batches in the Calibre local update.
///
/// Empty clusters are repaired each iteration by re-seeding them at the
/// point farthest from its assigned centroid.
///
/// # Panics
///
/// Panics if `config.k == 0` or the data is empty.
pub fn kmeans(data: &Matrix, config: &KMeansConfig) -> KMeansResult {
    let span = calibre_telemetry::span("kmeans");
    span.add_items(data.rows() as u64);
    assert!(config.k > 0, "k must be positive");
    assert!(data.rows() > 0, "cannot cluster an empty matrix");
    let restarts = config.n_init.max(1);
    let mut best: Option<KMeansResult> = None;
    for restart in 0..restarts as u64 {
        // Each restart draws a distinct deterministic seed; restart 0
        // reproduces the single-init behaviour for the same config seed.
        let result = kmeans_single(data, config, config.seed.wrapping_add(restart));
        let better = best
            .as_ref()
            .map(|b| result.inertia < b.inertia)
            .unwrap_or(true);
        if better {
            best = Some(result);
        }
    }
    // analyze:allow(no-expect) -- restarts >= 1 is asserted on entry, so
    // the loop body runs and `best` is always populated.
    best.expect("at least one restart ran")
}

/// One Lloyd run from a single kmeans++ initialization.
fn kmeans_single(data: &Matrix, config: &KMeansConfig, seed: u64) -> KMeansResult {
    let restart_span = calibre_telemetry::span("kmeans_restart");
    let k = config.k.min(data.rows());
    let mut rng_ = rng::seeded(seed);
    let mut centroids = kmeanspp_init(data, k, &mut rng_);
    let mut assignments = vec![0usize; data.rows()];
    let mut iterations = 0;

    for _ in 0..config.max_iters {
        iterations += 1;
        assignments = assign_to_centroids(data, &centroids);
        let update_span = calibre_telemetry::span("kmeans_update");
        let mut new_centroids = Matrix::zeros(k, data.cols());
        let mut counts = vec![0usize; k];
        for (r, &a) in assignments.iter().enumerate() {
            counts[a] += 1;
            Scalar.axpy(new_centroids.row_mut(a), data.row(r), 1.0);
        }
        for (c, &count) in counts.iter().enumerate() {
            if count > 0 {
                let inv = 1.0 / count as f32;
                for o in new_centroids.row_mut(c) {
                    *o *= inv;
                }
            } else {
                // Re-seed an empty cluster at the worst-fit point.
                let far = farthest_point(data, &centroids, &assignments);
                new_centroids.row_mut(c).copy_from_slice(data.row(far));
            }
        }
        let movement: f32 = (0..k)
            .map(|c| {
                Scalar
                    .squared_distance(new_centroids.row(c), centroids.row(c))
                    .sqrt()
            })
            .sum();
        centroids = new_centroids;
        drop(update_span);
        if movement < config.tol {
            break;
        }
    }
    restart_span.add_items(iterations as u64);
    assignments = assign_to_centroids(data, &centroids);
    let inertia = inertia_of(data, &centroids, &assignments);
    KMeansResult {
        centroids,
        assignments,
        inertia,
        iterations,
    }
}

/// Assigns every row of `data` to its nearest centroid (squared Euclidean).
pub fn assign_to_centroids(data: &Matrix, centroids: &Matrix) -> Vec<usize> {
    let span = calibre_telemetry::span("kmeans_assign");
    span.add_items(data.rows() as u64);
    assert_eq!(data.cols(), centroids.cols(), "assignment dim mismatch");
    (0..data.rows())
        .map(|r| {
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for c in 0..centroids.rows() {
                let d = Scalar.squared_distance(data.row(r), centroids.row(c));
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            best
        })
        .collect()
}

/// Mean Euclidean distance of each point to its assigned centroid.
///
/// This is Calibre's *client divergence rate*: the server uses it to weight
/// encoder aggregation (paper §IV-B, aggregation guided by prototypes).
pub fn mean_distance_to_assigned(data: &Matrix, centroids: &Matrix, assignments: &[usize]) -> f32 {
    if data.rows() == 0 {
        return 0.0;
    }
    let total: f32 = assignments
        .iter()
        .enumerate()
        .map(|(r, &a)| {
            Scalar
                .squared_distance(data.row(r), centroids.row(a))
                .sqrt()
        })
        .sum();
    total / data.rows() as f32
}

fn inertia_of(data: &Matrix, centroids: &Matrix, assignments: &[usize]) -> f32 {
    assignments
        .iter()
        .enumerate()
        .map(|(r, &a)| Scalar.squared_distance(data.row(r), centroids.row(a)))
        .sum()
}

fn farthest_point(data: &Matrix, centroids: &Matrix, assignments: &[usize]) -> usize {
    let mut best = 0;
    let mut best_d = -1.0;
    for (r, &a) in assignments.iter().enumerate() {
        let d = data.row_distance_sq(r, centroids, a);
        if d > best_d {
            best_d = d;
            best = r;
        }
    }
    best
}

fn kmeanspp_init<R: Rng + ?Sized>(data: &Matrix, k: usize, rng_: &mut R) -> Matrix {
    let n = data.rows();
    let mut centroids = Matrix::zeros(k, data.cols());
    let first = rng_.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(data.row(first));
    let mut min_d: Vec<f32> = (0..n)
        .map(|r| data.row_distance_sq(r, &centroids, 0))
        .collect();
    for c in 1..k {
        let total: f32 = min_d.iter().sum();
        let chosen = if total <= 0.0 {
            rng_.gen_range(0..n)
        } else {
            let mut u = rng_.gen::<f32>() * total;
            let mut pick = n - 1;
            for (r, &d) in min_d.iter().enumerate() {
                u -= d;
                if u <= 0.0 {
                    pick = r;
                    break;
                }
            }
            pick
        };
        centroids.row_mut(c).copy_from_slice(data.row(chosen));
        for (r, d) in min_d.iter_mut().enumerate() {
            let nd = data.row_distance_sq(r, &centroids, c);
            if nd < *d {
                *d = nd;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_tensor::rng::{normal_matrix, seeded};

    /// Three well-separated Gaussian blobs.
    fn blobs(n_per: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut r = seeded(seed);
        let centers = [[0.0f32, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (k, c) in centers.iter().enumerate() {
            let noise = normal_matrix(&mut r, n_per, 2, 0.5);
            for i in 0..n_per {
                rows.push(vec![c[0] + noise.get(i, 0), c[1] + noise.get(i, 1)]);
                labels.push(k);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let (data, labels) = blobs(30, 1);
        let result = kmeans(
            &data,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
        );
        // Every true cluster should map to exactly one kmeans cluster.
        for true_k in 0..3 {
            let assigned: Vec<usize> = labels
                .iter()
                .enumerate()
                .filter(|(_, &l)| l == true_k)
                .map(|(i, _)| result.assignments[i])
                .collect();
            let first = assigned[0];
            assert!(
                assigned.iter().all(|&a| a == first),
                "true cluster {true_k} split across kmeans clusters"
            );
        }
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let (data, _) = blobs(20, 2);
        let i1 = kmeans(&data, &KMeansConfig::with_k(1)).inertia;
        let i3 = kmeans(&data, &KMeansConfig::with_k(3)).inertia;
        assert!(i3 < i1 * 0.2, "k=3 inertia {i3} vs k=1 {i1}");
    }

    #[test]
    fn k_capped_at_row_count() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
        let result = kmeans(&data, &KMeansConfig::with_k(10));
        assert_eq!(result.centroids.rows(), 2);
        assert!(result.inertia < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, _) = blobs(15, 3);
        let a = kmeans(
            &data,
            &KMeansConfig {
                k: 3,
                seed: 9,
                ..Default::default()
            },
        );
        let b = kmeans(
            &data,
            &KMeansConfig {
                k: 3,
                seed: 9,
                ..Default::default()
            },
        );
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn assignments_are_nearest_centroid() {
        let (data, _) = blobs(10, 4);
        let result = kmeans(&data, &KMeansConfig::with_k(3));
        for (r, &a) in result.assignments.iter().enumerate() {
            let d_assigned = data.row_distance_sq(r, &result.centroids, a);
            for c in 0..result.centroids.rows() {
                assert!(d_assigned <= data.row_distance_sq(r, &result.centroids, c) + 1e-5);
            }
        }
    }

    #[test]
    fn mean_distance_is_zero_for_points_on_centroids() {
        let data = Matrix::from_rows(&[vec![1.0, 1.0], vec![5.0, 5.0]]);
        let result = kmeans(&data, &KMeansConfig::with_k(2));
        let d = mean_distance_to_assigned(&data, &result.centroids, &result.assignments);
        assert!(d < 1e-6);
    }

    #[test]
    fn mean_distance_grows_with_spread() {
        let mut r = seeded(6);
        let tight = normal_matrix(&mut r, 50, 4, 0.1);
        let loose = normal_matrix(&mut r, 50, 4, 2.0);
        let kt = kmeans(&tight, &KMeansConfig::with_k(2));
        let kl = kmeans(&loose, &KMeansConfig::with_k(2));
        let dt = mean_distance_to_assigned(&tight, &kt.centroids, &kt.assignments);
        let dl = mean_distance_to_assigned(&loose, &kl.centroids, &kl.assignments);
        assert!(dl > dt * 2.0, "loose {dl} vs tight {dt}");
    }

    #[test]
    #[should_panic(expected = "cannot cluster an empty matrix")]
    fn empty_data_panics() {
        kmeans(&Matrix::zeros(0, 2), &KMeansConfig::default());
    }

    #[test]
    fn duplicate_points_do_not_crash() {
        // All-identical data forces empty clusters; repair must handle it.
        let data = Matrix::from_rows(&vec![vec![1.0, 2.0]; 12]);
        let result = kmeans(&data, &KMeansConfig::with_k(3));
        assert_eq!(result.assignments.len(), 12);
        assert!(result.inertia < 1e-9);
    }
}

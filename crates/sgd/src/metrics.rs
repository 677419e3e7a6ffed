//! Evaluation metrics: classification accuracy, error counts, and empirical
//! risk `L_S(w) = (1/m)·Σ ℓ(w; (x_i, y_i))`.

use crate::dataset::{SparseTrainSet, TrainSet};
use crate::loss::Loss;
use bolton_linalg::vector;

/// The linear score `⟨w, x⟩`.
#[inline]
pub fn score(w: &[f64], x: &[f64]) -> f64 {
    vector::dot(w, x)
}

/// Binary prediction in `{−1, +1}` by the sign of the score (ties → +1).
#[inline]
pub fn predict(w: &[f64], x: &[f64]) -> f64 {
    if score(w, x) >= 0.0 {
        1.0
    } else {
        -1.0
    }
}

/// Number of misclassified examples (`χ` in Algorithm 3, line 4).
pub fn zero_one_errors<D: TrainSet + ?Sized>(w: &[f64], data: &D) -> usize {
    let mut errors = 0usize;
    data.scan(&mut |_, x, y| {
        if predict(w, x) != y {
            errors += 1;
        }
    });
    errors
}

/// Classification accuracy in `[0, 1]`.
pub fn accuracy<D: TrainSet + ?Sized>(w: &[f64], data: &D) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    1.0 - zero_one_errors(w, data) as f64 / data.len() as f64
}

/// Mean training loss `L_S(w)`.
pub fn empirical_risk<D: TrainSet + ?Sized>(loss: &dyn Loss, w: &[f64], data: &D) -> f64 {
    assert!(!data.is_empty(), "empirical risk of empty dataset");
    let mut total = 0.0;
    data.scan(&mut |_, x, y| total += loss.value(w, x, y));
    total / data.len() as f64
}

/// [`zero_one_errors`] over a sparse scan: scores are O(nnz) sparse-dense
/// dot products and no row is densified. The sparse dot reassociates the
/// summation relative to the dense kernel, so a score sitting *exactly* on
/// the decision boundary could in principle flip; real-valued data never
/// does.
pub fn zero_one_errors_sparse<D: SparseTrainSet + ?Sized>(w: &[f64], data: &D) -> usize {
    let mut errors = 0usize;
    data.scan_sparse(&mut |_, x, y| {
        let p = if x.dot_dense(w) >= 0.0 { 1.0 } else { -1.0 };
        if p != y {
            errors += 1;
        }
    });
    errors
}

/// Classification accuracy via the sparse scan.
pub fn accuracy_sparse<D: SparseTrainSet + ?Sized>(w: &[f64], data: &D) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    1.0 - zero_one_errors_sparse(w, data) as f64 / data.len() as f64
}

/// Mean training loss `L_S(w)` via the sparse scan (GLM-form losses only).
///
/// # Panics
/// Panics if the dataset is empty or the loss lacks the GLM form.
pub fn empirical_risk_sparse<D: SparseTrainSet + ?Sized>(
    loss: &dyn Loss,
    w: &[f64],
    data: &D,
) -> f64 {
    assert!(!data.is_empty(), "empirical risk of empty dataset");
    let reg = 0.5 * loss.lambda() * vector::norm_sq(w);
    let mut total = 0.0;
    data.scan_sparse(&mut |_, x, y| {
        let z = x.dot_dense(w);
        total += loss.glm_value(z, y).expect("sparse risk requires a GLM-form loss") + reg;
    });
    total / data.len() as f64
}

/// Confusion counts for a binary problem.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Confusion {
    /// True positives (label +1 predicted +1).
    pub tp: usize,
    /// True negatives.
    pub tn: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
}

impl Confusion {
    /// Computes the confusion matrix of `w` over `data`.
    pub fn compute<D: TrainSet + ?Sized>(w: &[f64], data: &D) -> Self {
        let mut c = Confusion::default();
        data.scan(&mut |_, x, y| {
            let p = predict(w, x);
            match (y > 0.0, p > 0.0) {
                (true, true) => c.tp += 1,
                (false, false) => c.tn += 1,
                (false, true) => c.fp += 1,
                (true, false) => c.fn_ += 1,
            }
        });
        c
    }

    /// Accuracy derived from the counts.
    pub fn accuracy(&self) -> f64 {
        let total = self.tp + self.tn + self.fp + self.fn_;
        if total == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::InMemoryDataset;
    use crate::loss::Logistic;

    fn data() -> InMemoryDataset {
        // Four points on the x-axis labeled by sign.
        InMemoryDataset::from_flat(
            vec![1.0, 0.0, 0.5, 0.0, -1.0, 0.0, -0.5, 0.0],
            vec![1.0, 1.0, -1.0, -1.0],
            2,
        )
    }

    #[test]
    fn perfect_model_has_full_accuracy() {
        let w = [1.0, 0.0];
        assert_eq!(zero_one_errors(&w, &data()), 0);
        assert_eq!(accuracy(&w, &data()), 1.0);
    }

    #[test]
    fn inverted_model_has_zero_accuracy() {
        let w = [-1.0, 0.0];
        // Note: the point at score exactly 0 would tie-break to +1, but all
        // four scores here are nonzero.
        assert_eq!(accuracy(&w, &data()), 0.0);
    }

    #[test]
    fn zero_model_predicts_positive() {
        let w = [0.0, 0.0];
        // Ties go to +1: the two positive examples are right.
        assert_eq!(accuracy(&w, &data()), 0.5);
    }

    #[test]
    fn confusion_counts() {
        let c = Confusion::compute(&[1.0, 0.0], &data());
        assert_eq!(c, Confusion { tp: 2, tn: 2, fp: 0, fn_: 0 });
        assert_eq!(c.accuracy(), 1.0);
    }

    #[test]
    fn empirical_risk_at_zero_is_ln2() {
        let loss = Logistic::plain();
        let risk = empirical_risk(&loss, &[0.0, 0.0], &data());
        assert!((risk - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn risk_decreases_for_better_model() {
        let loss = Logistic::plain();
        let bad = empirical_risk(&loss, &[0.0, 0.0], &data());
        let good = empirical_risk(&loss, &[2.0, 0.0], &data());
        assert!(good < bad);
    }

    #[test]
    fn sparse_metrics_match_dense_metrics() {
        let d = data();
        let s = crate::dataset::SparseDataset::from_dense(&d);
        let loss = Logistic::regularized(0.01, 10.0);
        for w in [[1.0, 0.0], [-0.5, 0.2], [0.0, 0.0]] {
            assert_eq!(zero_one_errors(&w, &d), zero_one_errors_sparse(&w, &s), "{w:?}");
            assert_eq!(accuracy(&w, &d), accuracy_sparse(&w, &s), "{w:?}");
            let dense_risk = empirical_risk(&loss, &w, &d);
            let sparse_risk = empirical_risk_sparse(&loss, &w, &s);
            assert!((dense_risk - sparse_risk).abs() < 1e-12, "{w:?}");
        }
    }
}

/// Area under the ROC curve of the linear score, by the rank statistic
/// (equivalent to the Mann–Whitney U normalization). Ties in score
/// contribute half. Returns 0.5 for degenerate single-class data.
pub fn auc<D: TrainSet + ?Sized>(w: &[f64], data: &D) -> f64 {
    let mut scored: Vec<(f64, bool)> = Vec::with_capacity(data.len());
    data.scan(&mut |_, x, y| scored.push((score(w, x), y > 0.0)));
    auc_from_scored(scored)
}

/// Accuracy from precomputed scores and labels (the batch-scoring path:
/// score once in parallel, derive every metric from the score vector).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn accuracy_from_scores(scores: &[f64], labels: &[f64]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "scores and labels must align");
    if scores.is_empty() {
        return 0.0;
    }
    let errors = scores
        .iter()
        .zip(labels.iter())
        .filter(|(&s, &y)| (if s >= 0.0 { 1.0 } else { -1.0 }) != y)
        .count();
    1.0 - errors as f64 / scores.len() as f64
}

/// [`auc`] from precomputed scores and labels (labels positive iff > 0).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn auc_from_scores(scores: &[f64], labels: &[f64]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "scores and labels must align");
    let scored: Vec<(f64, bool)> =
        scores.iter().zip(labels.iter()).map(|(&s, &y)| (s, y > 0.0)).collect();
    auc_from_scored(scored)
}

fn auc_from_scored(mut scored: Vec<(f64, bool)>) -> f64 {
    let positives = scored.iter().filter(|(_, p)| *p).count();
    let negatives = scored.len() - positives;
    if positives == 0 || negatives == 0 {
        return 0.5;
    }
    assert!(!scored.iter().any(|(s, _)| s.is_nan()), "scores are never NaN");
    // Only the order *between* tie groups matters, so an unstable sort on
    // the IEEE total order suffices; −0.0 and +0.0 get distinct keys but
    // land adjacent, and the `==` walk below keeps them one tie group.
    scored.sort_unstable_by_key(|&(s, _)| total_order_key(s));
    // Sum of positive ranks with midranks for ties.
    let mut rank_sum = 0.0f64;
    let mut i = 0usize;
    while i < scored.len() {
        let mut j = i;
        while j + 1 < scored.len() && scored[j + 1].0 == scored[i].0 {
            j += 1;
        }
        // 1-based midrank of the tie group [i, j].
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for entry in &scored[i..=j] {
            if entry.1 {
                rank_sum += midrank;
            }
        }
        i = j + 1;
    }
    let p = positives as f64;
    let n = negatives as f64;
    (rank_sum - p * (p + 1.0) / 2.0) / (p * n)
}

/// [`f64::total_cmp`] as an unsigned key: flipping every bit of a negative
/// and only the sign bit of a positive makes integer order the IEEE total
/// order (−∞ < … < −0.0 < +0.0 < … < +∞).
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

#[cfg(test)]
mod auc_tests {
    use super::*;
    use crate::dataset::InMemoryDataset;

    fn labeled(points: &[(f64, f64)]) -> InMemoryDataset {
        let features: Vec<f64> = points.iter().map(|(x, _)| *x).collect();
        let labels: Vec<f64> = points.iter().map(|(_, y)| *y).collect();
        InMemoryDataset::from_flat(features, labels, 1)
    }

    #[test]
    fn perfect_separation_is_one() {
        let data = labeled(&[(0.9, 1.0), (0.8, 1.0), (0.1, -1.0), (0.2, -1.0)]);
        assert_eq!(auc(&[1.0], &data), 1.0);
        // Inverted scores: AUC 0.
        assert_eq!(auc(&[-1.0], &data), 0.0);
    }

    #[test]
    fn random_scores_are_half() {
        // All scores identical ⇒ full tie group ⇒ 0.5 exactly.
        let data = labeled(&[(0.5, 1.0), (0.5, -1.0), (0.5, 1.0), (0.5, -1.0)]);
        assert_eq!(auc(&[1.0], &data), 0.5);
    }

    #[test]
    fn hand_computed_case() {
        // Scores: +1 examples at 0.9, 0.4; −1 examples at 0.6, 0.1.
        // Pairs won: (0.9>0.6), (0.9>0.1), (0.4>0.1) = 3 of 4 ⇒ 0.75.
        let data = labeled(&[(0.9, 1.0), (0.4, 1.0), (0.6, -1.0), (0.1, -1.0)]);
        assert_eq!(auc(&[1.0], &data), 0.75);
    }

    #[test]
    fn single_class_degenerates_to_half() {
        let data = labeled(&[(0.9, 1.0), (0.8, 1.0)]);
        assert_eq!(auc(&[1.0], &data), 0.5);
    }

    /// The score-based entry points agree exactly with the scan-based
    /// metrics on the same data (batch scoring must not change results).
    #[test]
    fn from_scores_agrees_with_scans() {
        let points = [(0.9, 1.0), (-0.4, -1.0), (0.2, 1.0), (-0.1, -1.0), (0.2, -1.0)];
        let data = labeled(&points);
        for w in [[1.0], [-0.5], [0.0]] {
            let scores: Vec<f64> = points.iter().map(|(x, _)| w[0] * x).collect();
            let labels: Vec<f64> = points.iter().map(|(_, y)| *y).collect();
            assert_eq!(accuracy_from_scores(&scores, &labels), accuracy(&w, &data), "{w:?}");
            assert_eq!(auc_from_scores(&scores, &labels), auc(&w, &data), "{w:?}");
        }
        assert_eq!(accuracy_from_scores(&[], &[]), 0.0);
        assert_eq!(auc_from_scores(&[], &[]), 0.5);
    }

    /// The stable `partial_cmp` ranking `auc_from_scored` used before it
    /// sorted on total-order keys, kept as the oracle.
    fn stable_sort_auc(scores: &[f64], labels: &[f64]) -> f64 {
        let mut scored: Vec<(f64, bool)> =
            scores.iter().zip(labels.iter()).map(|(&s, &y)| (s, y > 0.0)).collect();
        let positives = scored.iter().filter(|(_, p)| *p).count();
        let negatives = scored.len() - positives;
        if positives == 0 || negatives == 0 {
            return 0.5;
        }
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("scores are never NaN"));
        let mut rank_sum = 0.0f64;
        let mut i = 0usize;
        while i < scored.len() {
            let mut j = i;
            while j + 1 < scored.len() && scored[j + 1].0 == scored[i].0 {
                j += 1;
            }
            let midrank = (i + j) as f64 / 2.0 + 1.0;
            for entry in &scored[i..=j] {
                if entry.1 {
                    rank_sum += midrank;
                }
            }
            i = j + 1;
        }
        let p = positives as f64;
        let n = negatives as f64;
        (rank_sum - p * (p + 1.0) / 2.0) / (p * n)
    }

    fn assert_matches_oracle(scores: &[f64], labels: &[f64]) {
        assert_eq!(
            auc_from_scores(scores, labels).to_bits(),
            stable_sort_auc(scores, labels).to_bits(),
            "scores {scores:?} labels {labels:?}"
        );
    }

    /// Total-order ranking gives the stable `partial_cmp` ranking's AUC bit
    /// for bit: on ties, signed zeros (one tie group), infinities,
    /// single-class input, and random scores with and without heavy ties.
    #[test]
    fn total_order_ranking_matches_stable_sort_oracle() {
        use bolton_rng::Rng;
        let inf = f64::INFINITY;
        assert_matches_oracle(&[0.5, 0.5, 0.5, 0.1], &[1.0, -1.0, 1.0, -1.0]);
        assert_matches_oracle(&[-0.0, 0.0, -0.0, 0.0, 1.0], &[1.0, -1.0, -1.0, 1.0, -1.0]);
        assert_matches_oracle(&[0.0, -0.0, 0.0, -0.0], &[1.0, 1.0, -1.0, 1.0]);
        assert_matches_oracle(&[-inf, inf, 0.0, -inf, inf], &[1.0, -1.0, 1.0, -1.0, 1.0]);
        assert_matches_oracle(&[3.0, -1.0, 2.0], &[1.0, 1.0, 1.0]);
        assert_matches_oracle(&[3.0, -1.0, 2.0], &[-1.0, -1.0, -1.0]);
        // Signed zeros really do tie: all four scores equal ⇒ 0.5.
        assert_eq!(auc_from_scores(&[-0.0, 0.0, 0.0, -0.0], &[1.0, 1.0, -1.0, -1.0]), 0.5);
        let mut rng = bolton_rng::seeded(0xA0C);
        let pool = [-inf, -2.5, -1.0, -0.0, 0.0, 1e-310, 0.75, 2.5, inf];
        for round in 0..200 {
            let len = 1 + round % 97;
            let scores: Vec<f64> = (0..len)
                .map(|_| {
                    if round % 2 == 0 {
                        pool[(rng.next_u64() % pool.len() as u64) as usize]
                    } else {
                        rng.next_f64() * 4.0 - 2.0
                    }
                })
                .collect();
            let labels: Vec<f64> = (0..len)
                .map(|_| if rng.next_u64().is_multiple_of(3) { 1.0 } else { -1.0 })
                .collect();
            assert_matches_oracle(&scores, &labels);
        }
    }

    #[test]
    #[should_panic(expected = "scores are never NaN")]
    fn nan_scores_still_panic() {
        auc_from_scores(&[0.5, f64::NAN, 0.1], &[1.0, -1.0, -1.0]);
    }

    #[test]
    fn auc_is_scale_invariant_accuracy_is_not() {
        let data = labeled(&[(0.9, 1.0), (-0.4, -1.0), (0.2, 1.0), (-0.1, -1.0)]);
        let a1 = auc(&[1.0], &data);
        let a2 = auc(&[100.0], &data);
        assert_eq!(a1, a2);
        assert_eq!(a1, 1.0);
    }
}

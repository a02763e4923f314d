//! Pairwise user similarity over sparse rating vectors.
//!
//! The paper (§4) uses cosine similarity
//! `cos(u, u') = (u · u') / (‖u‖₂ · ‖u'‖₂)` over each user's rating
//! vector. Pearson correlation and Jaccard overlap are provided as
//! alternatives (common in the CF literature and useful for ablations).
//!
//! Each measure is split into the co-rating state it needs (a dot
//! product, a co-rated count, or the co-rated pairs, all in ascending
//! item order) and one finishing function that turns that state into a
//! score. [`user_similarity`] gathers the state with a merge-join over
//! the two item-sorted rows, in `O(nnz_u + nnz_u')`; the user-CF fit
//! gathers the same state for all of a user's co-raters in one pass over
//! the item postings and finishes through the same functions, so both
//! paths produce the same bits.

use greca_dataset::{ItemId, RatingMatrix, UserId};

/// Supported similarity measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Similarity {
    /// Cosine over raw rating vectors — the paper's measure.
    #[default]
    Cosine,
    /// Pearson correlation over co-rated items.
    Pearson,
    /// Jaccard overlap of rated-item sets (ignores values).
    Jaccard,
}

/// Compute the similarity between two users' rating vectors.
///
/// Returns 0.0 when either vector is empty or a denominator vanishes,
/// so the result is always finite and in `[-1, 1]`.
pub fn user_similarity(matrix: &RatingMatrix, a: UserId, b: UserId, measure: Similarity) -> f64 {
    let ra = matrix.user_ratings(a);
    let rb = matrix.user_ratings(b);
    if ra.is_empty() || rb.is_empty() {
        return 0.0;
    }
    match measure {
        Similarity::Cosine => {
            let mut dot = 0.0f64;
            co_rated(ra, rb, |x, y| dot += x as f64 * y as f64);
            cosine(dot, row_norm(ra), row_norm(rb))
        }
        Similarity::Pearson => {
            let (mut xs, mut ys) = (Vec::new(), Vec::new());
            co_rated(ra, rb, |x, y| {
                xs.push(x as f64);
                ys.push(y as f64);
            });
            pearson(&xs, &ys)
        }
        Similarity::Jaccard => {
            let mut inter = 0usize;
            co_rated(ra, rb, |_, _| inter += 1);
            jaccard(inter, ra.len(), rb.len())
        }
    }
}

type Row = [(ItemId, f32)];

/// Merge-join two item-sorted rows, calling `f(a_value, b_value)` for
/// every co-rated item in ascending item order.
fn co_rated(a: &Row, b: &Row, mut f: impl FnMut(f32, f32)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(a[i].1, b[j].1);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Euclidean norm `‖u‖₂` of a rating row.
pub(crate) fn row_norm(row: &Row) -> f64 {
    row.iter()
        .map(|&(_, v)| (v as f64).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Cosine from the co-rated dot product (summed in ascending item order)
/// and the two row norms.
pub(crate) fn cosine(dot: f64, norm_a: f64, norm_b: f64) -> f64 {
    if dot == 0.0 {
        return 0.0;
    }
    let denom = norm_a * norm_b;
    if denom <= 0.0 {
        0.0
    } else {
        (dot / denom).clamp(-1.0, 1.0)
    }
}

/// Pearson correlation over the co-rated values `xs[k]`, `ys[k]` (in
/// ascending item order).
pub(crate) fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    let denom = (vx * vy).sqrt();
    if denom <= 1e-12 {
        0.0
    } else {
        (cov / denom).clamp(-1.0, 1.0)
    }
}

/// Jaccard overlap from the co-rated count and the two row lengths.
pub(crate) fn jaccard(inter: usize, len_a: usize, len_b: usize) -> f64 {
    let union = len_a + len_b - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greca_dataset::{ItemId, RatingMatrixBuilder};

    fn matrix(rows: &[&[(u32, f32)]]) -> RatingMatrix {
        let max_item = rows
            .iter()
            .flat_map(|r| r.iter().map(|&(i, _)| i))
            .max()
            .unwrap_or(0) as usize
            + 1;
        let mut b = RatingMatrixBuilder::new(rows.len(), max_item);
        for (u, row) in rows.iter().enumerate() {
            for &(i, v) in row.iter() {
                b.rate(UserId(u as u32), ItemId(i), v, 0);
            }
        }
        b.build()
    }

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let m = matrix(&[&[(0, 3.0), (1, 4.0)], &[(0, 3.0), (1, 4.0)]]);
        let s = user_similarity(&m, UserId(0), UserId(1), Similarity::Cosine);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_disjoint_vectors_is_zero() {
        let m = matrix(&[&[(0, 5.0)], &[(1, 5.0)]]);
        assert_eq!(
            user_similarity(&m, UserId(0), UserId(1), Similarity::Cosine),
            0.0
        );
    }

    #[test]
    fn cosine_scales_invariant() {
        // Cosine ignores magnitude: (1,2) vs (2,4) → 1.
        let m = matrix(&[&[(0, 1.0), (1, 2.0)], &[(0, 2.0), (1, 4.0)]]);
        let s = user_similarity(&m, UserId(0), UserId(1), Similarity::Cosine);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_known_value() {
        // u = (4,0,3) over items {0,2}; v = (0,5,3) over items {1,2}.
        // dot = 9, |u| = 5, |v| = sqrt(34).
        let m = matrix(&[&[(0, 4.0), (2, 3.0)], &[(1, 5.0), (2, 3.0)]]);
        let s = user_similarity(&m, UserId(0), UserId(1), Similarity::Cosine);
        assert!((s - 9.0 / (5.0 * 34.0f64.sqrt())).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_positive_and_negative() {
        let m = matrix(&[
            &[(0, 1.0), (1, 2.0), (2, 3.0)],
            &[(0, 2.0), (1, 4.0), (2, 6.0)],
            &[(0, 3.0), (1, 2.0), (2, 1.0)],
        ]);
        let pos = user_similarity(&m, UserId(0), UserId(1), Similarity::Pearson);
        let neg = user_similarity(&m, UserId(0), UserId(2), Similarity::Pearson);
        assert!((pos - 1.0).abs() < 1e-9);
        assert!((neg + 1.0).abs() < 1e-9);
    }

    #[test]
    fn pearson_needs_two_corated() {
        let m = matrix(&[&[(0, 5.0)], &[(0, 5.0)]]);
        assert_eq!(
            user_similarity(&m, UserId(0), UserId(1), Similarity::Pearson),
            0.0
        );
    }

    #[test]
    fn pearson_constant_vector_is_zero() {
        let m = matrix(&[&[(0, 3.0), (1, 3.0)], &[(0, 1.0), (1, 5.0)]]);
        assert_eq!(
            user_similarity(&m, UserId(0), UserId(1), Similarity::Pearson),
            0.0
        );
    }

    #[test]
    fn jaccard_counts_overlap() {
        let m = matrix(&[
            &[(0, 1.0), (1, 1.0), (2, 1.0)],
            &[(1, 5.0), (2, 5.0), (3, 5.0)],
        ]);
        let s = user_similarity(&m, UserId(0), UserId(1), Similarity::Jaccard);
        assert!((s - 2.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_user_has_zero_similarity() {
        let mut b = RatingMatrixBuilder::new(2, 2);
        b.rate(UserId(0), ItemId(0), 5.0, 0);
        let m = b.build();
        for meas in [Similarity::Cosine, Similarity::Pearson, Similarity::Jaccard] {
            assert_eq!(user_similarity(&m, UserId(0), UserId(1), meas), 0.0);
        }
    }

    #[test]
    fn symmetry_for_all_measures() {
        let m = matrix(&[
            &[(0, 4.0), (1, 1.0), (3, 5.0)],
            &[(0, 2.0), (2, 3.0), (3, 4.0)],
        ]);
        for meas in [Similarity::Cosine, Similarity::Pearson, Similarity::Jaccard] {
            let ab = user_similarity(&m, UserId(0), UserId(1), meas);
            let ba = user_similarity(&m, UserId(1), UserId(0), meas);
            assert!((ab - ba).abs() < 1e-15, "{meas:?}");
        }
    }
}

//! Property-based tests of the uniqueness model.

use proptest::prelude::*;
use uniqueness::fit::{censor_at_floor, fit_np};
use uniqueness::{AudienceVectors, SelectionStrategy};

/// Strictly decreasing synthetic audience vectors from the paper's model.
fn model_vector(a: f64, b: f64, floor: f64) -> Vec<f64> {
    (1..=25).map(|n| 10f64.powf(b - a * ((n + 1) as f64).log10()).max(floor)).collect()
}

proptest! {
    #[test]
    fn np_recovered_within_conservative_band(a in 3.0f64..15.0, b in 4.0f64..9.0) {
        let truth = 10f64.powf(b / a) - 1.0;
        prop_assume!(truth > 1.0 && truth < 60.0);
        let v = model_vector(a, b, 20.0);
        // The paper's fits always have several uncensored points; with only
        // two, the kept floor point dominates and the (still conservative)
        // bias is unbounded. Require three uncensored points, as the data
        // regimes of Figures 4 and 5 do.
        prop_assume!(v[0] > 20.0 && v[2] > 20.0);
        if let Ok(fit) = fit_np(&v, 20.0) {
            // Conservative: never below the truth, and within a couple of
            // interests of it.
            prop_assert!(fit.np >= truth - 1e-6, "np {} below truth {}", fit.np, truth);
            prop_assert!(fit.np <= truth + 0.5 * truth + 2.0, "np {} vs truth {}", fit.np, truth);
        }
    }

    #[test]
    fn censoring_never_lengthens(v in prop::collection::vec(1.0f64..1e9, 1..25), floor in 1.0f64..1e6) {
        let censored = censor_at_floor(&v, floor);
        prop_assert!(censored.len() <= v.len());
        // Everything before the last element is above the floor.
        for &x in &censored[..censored.len().saturating_sub(1)] {
            prop_assert!(x > floor);
        }
    }

    #[test]
    fn v_as_columns_monotone_in_q(
        rows in prop::collection::vec(prop::collection::vec(20.0f64..1e9, 6), 2..20),
        q1 in 1.0f64..99.0,
        q2 in 1.0f64..99.0,
    ) {
        // Force rows non-increasing so they are valid audience vectors.
        // Rows share one length: with ragged rows the deeper columns lose
        // members and column quantiles need not decrease (the paper's N=25
        // column has fewer samples too) — per-N monotonicity is a property
        // of complete panels only.
        let rows: Vec<Vec<f64>> = rows
            .into_iter()
            .map(|mut r| {
                r.sort_by(|a, b| b.partial_cmp(a).unwrap());
                r
            })
            .collect();
        let v = AudienceVectors::from_rows(SelectionStrategy::Random, 20, rows);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        for (a, b) in v.v_as(lo).iter().zip(v.v_as(hi).iter()) {
            prop_assert!(b + 1e-9 >= *a);
        }
        // And each V_AS is non-increasing in N.
        for w in v.v_as(lo).windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn censored_v_as_equals_censoring_the_full_v_as(
        rows in prop::collection::vec(prop::collection::vec(0u32..6, 1..26), 1..30),
        picks in prop::collection::vec(0usize..1_000, 0..40),
        q in 1.0f64..99.0,
        floor_code in 0u32..6,
    ) {
        // Ragged, non-increasing rows drawn from a handful of sizes, so
        // columns tie and reach the floor at varying depths.
        let sizes = [20.0, 20.0, 45.0, 300.0, 5_000.0, 80_000.0];
        let rows: Vec<Vec<f64>> = rows
            .into_iter()
            .map(|codes| {
                let mut row: Vec<f64> = codes.iter().map(|&c| sizes[c as usize]).collect();
                row.sort_by(|a, b| b.total_cmp(a));
                row
            })
            .collect();
        let indices: Vec<usize> = picks.iter().map(|&i| i % rows.len()).collect();
        let floor = sizes[floor_code as usize];
        let v = AudienceVectors::from_rows(SelectionStrategy::Random, 20, rows);
        for idx in [None, Some(indices.as_slice())] {
            let full = v.v_as_indices(q, idx);
            let censored = v.v_as_censored(q, idx, floor);
            let expected: Vec<u64> = censor_at_floor(&full, floor).iter().map(|x| x.to_bits()).collect();
            let got: Vec<u64> = censored.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(got, expected);
        }
    }
}

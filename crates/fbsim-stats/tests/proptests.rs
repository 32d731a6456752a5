//! Property-based tests of the statistics substrate.

use fbsim_stats::dist::{normal_quantile, AliasTable, Log10Normal};
use fbsim_stats::quantile::{quantile, select_quantile, SortedSample};
use fbsim_stats::regression::LinearFit;
use fbsim_stats::{bootstrap_ci, Ecdf, Summary};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
}

proptest! {
    #[test]
    fn quantile_within_sample_bounds(xs in finite_vec(200), p in 0.0f64..=1.0) {
        let q = quantile(&xs, p).unwrap();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(q >= min - 1e-9 && q <= max + 1e-9);
    }

    #[test]
    fn select_quantile_is_bit_identical_to_sorting(xs in finite_vec(200), p in 0.0f64..=1.0) {
        let sorted = quantile(&xs, p).unwrap();
        let selected = select_quantile(&mut xs.clone(), p).unwrap();
        prop_assert_eq!(selected.to_bits(), sorted.to_bits());
    }

    #[test]
    fn select_quantile_is_bit_identical_on_ties(
        codes in prop::collection::vec(0u8..6, 1..40),
        p in 0.0f64..=1.0,
    ) {
        // Few distinct values, signed zeros among them: every order
        // statistic is tied, and -0.0 and 0.0 must land where the sort
        // puts them.
        let xs: Vec<f64> = codes
            .iter()
            .map(|&c| match c {
                0 => -0.0,
                1 => 0.0,
                c => f64::from(c) * 10.0,
            })
            .collect();
        for p in [p, 0.0, 0.5, 1.0] {
            let sorted = quantile(&xs, p).unwrap();
            let selected = select_quantile(&mut xs.clone(), p).unwrap();
            prop_assert_eq!(selected.to_bits(), sorted.to_bits());
        }
    }

    #[test]
    fn select_quantile_of_one_value_is_that_value(x in -1e6f64..1e6, p in 0.0f64..=1.0) {
        prop_assert_eq!(select_quantile(&mut [x], p).unwrap().to_bits(), x.to_bits());
        prop_assert_eq!(quantile(&[x], p).unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn quantile_monotone_in_p(xs in finite_vec(100), p1 in 0.0f64..=1.0, p2 in 0.0f64..=1.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let sorted = SortedSample::new(&xs).unwrap();
        prop_assert!(sorted.quantile(lo).unwrap() <= sorted.quantile(hi).unwrap() + 1e-9);
    }

    #[test]
    fn ecdf_monotone_and_bounded(xs in finite_vec(100), a in -1e6f64..1e6, b in -1e6f64..1e6) {
        let e = Ecdf::new(&xs).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(e.eval(lo) <= e.eval(hi));
        prop_assert!((0.0..=1.0).contains(&e.eval(a)));
        prop_assert_eq!(e.eval(e.max()), 1.0);
    }

    #[test]
    fn ecdf_inverse_round_trip(xs in finite_vec(100), p in 0.01f64..=1.0) {
        let e = Ecdf::new(&xs).unwrap();
        let x = e.inverse(p).unwrap();
        prop_assert!(e.eval(x) + 1e-12 >= p);
    }

    #[test]
    fn regression_recovers_noiseless_lines(
        slope in -100.0f64..100.0,
        intercept in -100.0f64..100.0,
        n in 3usize..40,
    ) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((fit.intercept - intercept).abs() < 1e-5 * (1.0 + intercept.abs()));
        prop_assert!(fit.r_squared > 1.0 - 1e-9);
    }

    #[test]
    fn r_squared_in_unit_interval(xs in finite_vec(50), ys in finite_vec(50)) {
        let n = xs.len().min(ys.len()).max(2);
        if let Ok(fit) = LinearFit::fit(&xs[..n.min(xs.len())], &ys[..n.min(ys.len())]) {
            prop_assert!((0.0..=1.0).contains(&fit.r_squared));
        }
    }

    #[test]
    fn bootstrap_ci_contains_plugin_estimate_for_mean(
        xs in prop::collection::vec(-100.0f64..100.0, 10..60),
        seed in 0u64..1000,
    ) {
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let (ci, _) = bootstrap_ci(xs.len(), 400, 0.99, seed, |idx| {
            Some(idx.iter().map(|&i| xs[i]).sum::<f64>() / idx.len() as f64)
        }).unwrap();
        // 99% percentile CI of the mean almost always contains the sample
        // mean; allow numerical slack.
        prop_assert!(ci.lo <= mean + 1e-6 && mean - 1e-6 <= ci.hi,
            "mean {} outside ({}, {})", mean, ci.lo, ci.hi);
    }

    #[test]
    fn alias_table_samples_in_range(weights in prop::collection::vec(0.0f64..10.0, 1..50), seed in 0u64..100) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let table = AliasTable::new(&weights);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            let i = table.sample(&mut rng);
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "sampled zero-weight category {i}");
        }
    }

    #[test]
    fn normal_quantile_monotone(p1 in 0.001f64..0.999, p2 in 0.001f64..0.999) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(normal_quantile(lo) <= normal_quantile(hi) + 1e-12);
    }

    #[test]
    fn log10_normal_samples_positive(median in 1.0f64..1e8, sigma in 0.01f64..2.0, seed in 0u64..100) {
        let d = Log10Normal::from_median(median, sigma);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn summary_invariants(xs in finite_vec(100)) {
        let s = Summary::of(&xs).unwrap();
        prop_assert!(s.min <= s.q25 + 1e-9);
        prop_assert!(s.q25 <= s.median + 1e-9);
        prop_assert!(s.median <= s.q75 + 1e-9);
        prop_assert!(s.q75 <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.std_dev >= 0.0);
        prop_assert_eq!(s.count, xs.len());
    }
}

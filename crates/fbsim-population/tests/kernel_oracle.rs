//! The reach kernel against an independent row-at-a-time oracle.
//!
//! Every reach entry point shares one column kernel, so comparing the entry
//! points with each other cannot catch a wrong kernel. This suite
//! re-derives each answer from the documented model instead, one panel
//! user at a time:
//!
//! ```text
//! p_vi = 1 − exp(−s_i · f_v(t_i) · α_v)
//! f_v(t) = base + (w_v(t) · S_total / S_t  as f32)   (0 when S_t = 0)
//! α_v  = budget_factor · n_v / ((1 + base) · S_total)  as f32
//! ```
//!
//! with the freeze-and-drop cutoff (a product at or below `1e-300` stops
//! and drops out of every deeper prefix), per-chunk sums in user order and
//! a chunk-order fold — and requires the engine's answers to match it
//! `to_bits`.

use fbsim_population::reach::CountryFilter;
use fbsim_population::{InterestId, TopicId, World, WorldConfig, CHUNK_USERS};
use proptest::prelude::*;
use std::sync::OnceLock;

const N_INTERESTS: u32 = 80;

/// A small world whose panel spans a short tail chunk and whose sparse
/// catalog leaves some topics without interests (zero score mass).
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut cfg = WorldConfig::test_scale(404);
        cfg.n_interests = N_INTERESTS;
        cfg.panel_size = 9_000;
        World::generate(cfg).unwrap()
    })
}

/// The panel transposed back to rows: each user's taste as
/// `(topic, raw weight)` pairs, plus the recomputed `α` column.
struct Rows {
    tastes: Vec<Vec<(u16, f32)>>,
    alpha: Vec<f32>,
}

fn rows() -> &'static Rows {
    static ROWS: OnceLock<Rows> = OnceLock::new();
    ROWS.get_or_init(|| {
        let w = world();
        let panel = w.panel();
        let mut tastes = vec![Vec::new(); panel.len()];
        for t in 0..w.catalog().n_topics() {
            let fans = panel.fans(TopicId(t as u16));
            for (&v, &weight) in fans.users.iter().zip(fans.weights) {
                tastes[v as usize].push((t as u16, weight));
            }
        }
        let base = panel.base_affinity() as f64;
        let w_v = (base + 1.0) * w.catalog().total_score();
        let alpha = panel
            .interest_counts()
            .iter()
            .map(|&n| (panel.budget_factor() * n as f64 / w_v) as f32)
            .collect();
        Rows { tastes, alpha }
    })
}

/// `f_v(t)` from the user's raw taste weight and the catalog's score mass.
fn oracle_affinity(v: usize, topic: TopicId) -> f32 {
    let w = world();
    let base = w.panel().base_affinity();
    match rows().tastes[v].iter().find(|&&(t, _)| t == topic.0) {
        None => base,
        Some(&(_, weight)) => {
            let s_t = w.catalog().topic_score_total(topic);
            let total = w.catalog().total_score();
            base + if s_t > 0.0 { (weight as f64 * total / s_t) as f32 } else { 0.0 }
        }
    }
}

fn oracle_p(v: usize, id: InterestId) -> f64 {
    let i = world().catalog().interest(id);
    let w = oracle_affinity(v, i.topic) as f64;
    1.0 - (-(i.score * w * rows().alpha[v] as f64)).exp()
}

/// Unscaled per-prefix sums over one chunk; for an empty sequence, the
/// chunk's in-filter head count as the single element.
fn oracle_chunk(ids: &[InterestId], filter: CountryFilter, chunk: usize) -> Vec<f64> {
    let panel = world().panel();
    let lo = chunk * CHUNK_USERS;
    let hi = ((chunk + 1) * CHUNK_USERS).min(panel.len());
    let mut acc = vec![0.0f64; ids.len().max(1)];
    for v in lo..hi {
        if !filter.contains(panel.countries()[v]) {
            continue;
        }
        if ids.is_empty() {
            acc[0] += 1.0;
            continue;
        }
        let mut product = 1.0f64;
        for (k, &id) in ids.iter().enumerate() {
            if product <= 1e-300 {
                break;
            }
            product *= oracle_p(v, id);
            acc[k] += product;
        }
    }
    acc
}

fn chunks() -> Vec<usize> {
    (0..world().panel().len().div_ceil(CHUNK_USERS)).collect()
}

/// Scaled per-prefix reaches: chunk partials folded in chunk order from 0.
fn oracle_reaches(ids: &[InterestId], filter: CountryFilter) -> Vec<f64> {
    let mut sums = vec![0.0f64; ids.len().max(1)];
    for c in chunks() {
        for (s, p) in sums.iter_mut().zip(oracle_chunk(ids, filter, c)) {
            *s += p;
        }
    }
    sums.into_iter().map(|s| s * world().panel().scale()).collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Every public entry point against the oracle, at `threads`.
fn check_against_oracle(ids: &[InterestId], filter: CountryFilter, threads: usize) {
    let engine = world().reach_engine();
    let want = oracle_reaches(ids, filter);
    let scale = world().panel().scale();
    rayon::with_thread_count(threads, || {
        // Scalar: every prefix, including the empty conjunction.
        for k in 0..=ids.len() {
            let want_k = if k == 0 { oracle_reaches(&[], filter)[0] } else { want[k - 1] };
            let got = engine.conjunction_reach_in(&ids[..k], filter);
            assert_eq!(got.to_bits(), want_k.to_bits(), "scalar prefix {k}: {got} vs {want_k}");
        }
        if ids.is_empty() {
            return;
        }
        // Nested, one shot.
        assert_eq!(bits(&engine.nested_reaches_in(ids, filter)), bits(&want), "nested");
        // Resumable sweep, at every split.
        for split in 0..=ids.len() {
            let state = engine.sweep_begin(filter);
            let (head, state) = engine.sweep_extend(&state, &ids[..split]);
            let (tail, _) = engine.sweep_extend(&state, &ids[split..]);
            let swept: Vec<f64> = head.into_iter().chain(tail).collect();
            assert_eq!(bits(&swept), bits(&want), "sweep split {split}");
        }
        // Both chunk-partial functions, per chunk and folded.
        let all = chunks();
        let scalar = engine.conjunction_chunk_partials(ids, filter, &all);
        let nested = engine.nested_chunk_partials(ids, filter, &all);
        let (mut scalar_sum, mut nested_sum) = (0.0f64, vec![0.0f64; ids.len()]);
        for (c, (s, n)) in all.iter().zip(scalar.iter().zip(&nested)) {
            let chunk = oracle_chunk(ids, filter, *c);
            assert_eq!(s.to_bits(), chunk[ids.len() - 1].to_bits(), "scalar partial, chunk {c}");
            assert_eq!(bits(n), bits(&chunk), "nested partials, chunk {c}");
            scalar_sum += s;
            for (acc, p) in nested_sum.iter_mut().zip(n) {
                *acc += p;
            }
        }
        assert_eq!((scalar_sum * scale).to_bits(), want[ids.len() - 1].to_bits(), "scalar fold");
        let nested_fold: Vec<f64> = nested_sum.into_iter().map(|s| s * scale).collect();
        assert_eq!(bits(&nested_fold), bits(&want), "nested fold");
    });
}

/// Filter `pick % 3`: worldwide, empty, or the single country `country`.
fn filter_of(pick: u8, country: u16) -> CountryFilter {
    match pick % 3 {
        0 => CountryFilter::ALL,
        1 => CountryFilter::from_bits(0),
        _ => CountryFilter::of(&[country]),
    }
}

/// The thread counts the suite covers.
const THREADS: [usize; 3] = [1, 2, 5];

/// Interests from one panel user's taste topics, so the sequence crosses
/// that user's fan entries (high affinity, deep products).
fn fan_sequence(v: usize, len: usize) -> Vec<InterestId> {
    let taste: Vec<u16> = rows().tastes[v].iter().map(|&(t, _)| t).collect();
    world()
        .catalog()
        .interests()
        .iter()
        .filter(|i| taste.contains(&i.topic.0))
        .map(|i| i.id)
        .take(len)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_matches_row_oracle_on_random_sequences(
        ids in prop::collection::vec(0u32..N_INTERESTS, 0..9),
        pick in 0u8..3,
        country in 0u16..50,
        threads in 0usize..3,
    ) {
        let ids: Vec<InterestId> = ids.into_iter().map(InterestId).collect();
        check_against_oracle(&ids, filter_of(pick, country), THREADS[threads]);
    }

    #[test]
    fn kernel_matches_row_oracle_on_fan_sequences(
        user in 0usize..9_000,
        len in 1usize..9,
        pick in 0u8..3,
        country in 0u16..50,
        threads in 0usize..3,
    ) {
        let ids = fan_sequence(user, len);
        prop_assume!(!ids.is_empty());
        check_against_oracle(&ids, filter_of(pick, country), THREADS[threads]);
    }
}

#[test]
fn oracle_fixture_covers_fans_and_zero_mass_topics() {
    let w = world();
    let panel = w.panel();
    let zero_mass: Vec<u16> = (0..w.catalog().n_topics() as u16)
        .filter(|&t| w.catalog().topic_score_total(TopicId(t)) <= 0.0)
        .filter(|&t| !panel.fans(TopicId(t)).is_empty())
        .collect();
    assert!(!zero_mass.is_empty(), "fixture needs a zero-mass topic with fans");
    // A zero-mass topic's fans keep only the baseline affinity.
    for &t in &zero_mass {
        for &v in panel.fans(TopicId(t)).users {
            assert_eq!(panel.affinity(v as usize, TopicId(t)), panel.base_affinity());
            assert_eq!(oracle_affinity(v as usize, TopicId(t)), panel.base_affinity());
        }
    }
    // The α column matches the documented normaliser.
    assert_eq!(
        panel.alphas().iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
        rows().alpha.iter().map(|a| a.to_bits()).collect::<Vec<_>>()
    );
    // The fan sequences really do cross fan entries.
    let ids = fan_sequence(0, 6);
    let topics: Vec<TopicId> = ids.iter().map(|&id| w.catalog().interest(id).topic).collect();
    assert!(topics.iter().all(|&t| oracle_affinity(0, t) > panel.base_affinity()));
}

#[test]
fn kernel_matches_row_oracle_through_the_underflow_cutoff() {
    // Long enough that every panel user freezes: the cutoff's transition
    // region and the all-frozen tail both have to match the oracle.
    let ids: Vec<InterestId> = (0..300u32).map(|i| InterestId(i * 7 % N_INTERESTS)).collect();
    let want = oracle_reaches(&ids, CountryFilter::ALL);
    assert_eq!(want.last().map(|x| x.to_bits()), Some(0.0f64.to_bits()), "every user froze");
    let engine = world().reach_engine();
    assert_eq!(bits(&engine.nested_reaches_in(&ids, CountryFilter::ALL)), bits(&want));
    let state = engine.sweep_begin(CountryFilter::ALL);
    let (head, state) = engine.sweep_extend(&state, &ids[..137]);
    let (tail, _) = engine.sweep_extend(&state, &ids[137..]);
    let swept: Vec<f64> = head.into_iter().chain(tail).collect();
    assert_eq!(bits(&swept), bits(&want));
    for k in [1, 50, 100, 150, 200, 300] {
        let got = engine.conjunction_reach_in(&ids[..k], CountryFilter::ALL);
        assert_eq!(got.to_bits(), want[k - 1].to_bits(), "scalar prefix {k}");
    }
}

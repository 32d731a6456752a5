//! Interest-selection strategies (Section 4.2).
//!
//! * **Least Popular (LP)** — the user's interests sorted ascending by
//!   audience size; prefixes of this order give the theoretical privacy
//!   lower bound (an attacker with the user's *full* interest list).
//! * **Random (R)** — a random permutation prefix; the realistic attacker
//!   who has inferred *some* of the user's interests.
//!
//! Both produce *nested* sequences: the N-interest combination always
//! contains the (N−1)-interest one, matching the paper's incremental
//! querying. The module also builds the nanotargeting experiment's downward
//! nesting (22 → 20 → 18 → 12 → 9 → 7 → 5, each a subset of the previous).

use fbsim_population::{InterestCatalog, InterestId, MaterializedUser};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;

/// Maximum interests per audience — FB's cap, which also caps the model.
pub const MAX_SEQUENCE: usize = 25;

/// The two strategies of Section 4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionStrategy {
    /// `N(LP)_P`: the user's least popular interests first.
    LeastPopular,
    /// `N(R)_P`: a uniformly random subset.
    Random,
}

impl SelectionStrategy {
    /// Short label used in tables ("LP" / "R").
    pub fn label(self) -> &'static str {
        match self {
            SelectionStrategy::LeastPopular => "LP",
            SelectionStrategy::Random => "R",
        }
    }
}

/// Builds a user's nested interest sequence (at most [`MAX_SEQUENCE`] long;
/// shorter when the user has fewer interests, as in the paper where the
/// N=25 vector had 2,286 of 2,390 samples).
pub fn select_sequence<R: Rng + ?Sized>(
    user: &MaterializedUser,
    catalog: &InterestCatalog,
    strategy: SelectionStrategy,
    rng: &mut R,
) -> Vec<InterestId> {
    match strategy {
        SelectionStrategy::LeastPopular => {
            user.interests_by_audience(catalog).into_iter().take(MAX_SEQUENCE).collect()
        }
        SelectionStrategy::Random => {
            let mut ids = user.interests.clone();
            ids.shuffle(rng);
            ids.truncate(MAX_SEQUENCE);
            ids
        }
    }
}

/// The experiment's interest-set sizes (Section 5.1).
pub const EXPERIMENT_SIZES: [usize; 7] = [5, 7, 9, 12, 18, 20, 22];

/// Builds the nanotargeting experiment's nested sets for one target user:
/// a random 22-interest set, then 20 (drop 2), 18 (drop 2), 12 (drop 6),
/// 9 (drop 3), 7 (drop 2) and 5 (drop 2) — every smaller set a subset of
/// every larger one, exactly as Section 5.1 describes.
///
/// Returns `None` when the user has fewer than 22 interests (the paper's
/// targets were authors with ample interest lists).
pub fn experiment_nested_sets<R: Rng + ?Sized>(
    user: &MaterializedUser,
    rng: &mut R,
) -> Option<BTreeMap<usize, Vec<InterestId>>> {
    if user.interests.len() < 22 {
        return None;
    }
    let mut ids = user.interests.clone();
    ids.shuffle(rng);
    ids.truncate(22);
    let mut sets = BTreeMap::new();
    let mut current = ids;
    for &size in EXPERIMENT_SIZES.iter().rev() {
        current.truncate(size);
        sets.insert(size, current.clone());
    }
    Some(sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbsim_population::{World, WorldConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| World::generate(WorldConfig::test_scale(71)).unwrap())
    }

    fn user_with(n: usize) -> MaterializedUser {
        let mut rng = StdRng::seed_from_u64(n as u64);
        world().materializer().sample_user_with_count(&mut rng, n)
    }

    #[test]
    fn lp_sequence_sorted_by_audience() {
        let user = user_with(60);
        let seq = select_sequence(
            &user,
            world().catalog(),
            SelectionStrategy::LeastPopular,
            &mut StdRng::seed_from_u64(1),
        );
        assert_eq!(seq.len(), 25);
        for w in seq.windows(2) {
            assert!(
                world().catalog().interest(w[0]).target_audience
                    <= world().catalog().interest(w[1]).target_audience
            );
        }
    }

    #[test]
    fn random_sequence_is_subset_and_capped() {
        let user = user_with(60);
        let seq = select_sequence(
            &user,
            world().catalog(),
            SelectionStrategy::Random,
            &mut StdRng::seed_from_u64(2),
        );
        assert_eq!(seq.len(), 25);
        for id in &seq {
            assert!(user.interests.contains(id));
        }
        let mut dedup = seq.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 25);
    }

    #[test]
    fn short_users_give_short_sequences() {
        let user = user_with(7);
        for strategy in [SelectionStrategy::LeastPopular, SelectionStrategy::Random] {
            let seq =
                select_sequence(&user, world().catalog(), strategy, &mut StdRng::seed_from_u64(3));
            assert_eq!(seq.len(), 7);
        }
    }

    #[test]
    fn random_differs_across_rngs_lp_does_not() {
        let user = user_with(80);
        let catalog = world().catalog();
        let r1 = select_sequence(
            &user,
            catalog,
            SelectionStrategy::Random,
            &mut StdRng::seed_from_u64(1),
        );
        let r2 = select_sequence(
            &user,
            catalog,
            SelectionStrategy::Random,
            &mut StdRng::seed_from_u64(2),
        );
        assert_ne!(r1, r2);
        let l1 = select_sequence(
            &user,
            catalog,
            SelectionStrategy::LeastPopular,
            &mut StdRng::seed_from_u64(1),
        );
        let l2 = select_sequence(
            &user,
            catalog,
            SelectionStrategy::LeastPopular,
            &mut StdRng::seed_from_u64(2),
        );
        assert_eq!(l1, l2);
    }

    #[test]
    fn experiment_sets_are_nested() {
        let user = user_with(100);
        let sets = experiment_nested_sets(&user, &mut StdRng::seed_from_u64(4)).unwrap();
        assert_eq!(sets.len(), 7);
        for &size in &EXPERIMENT_SIZES {
            assert_eq!(sets[&size].len(), size);
        }
        // Every smaller set is a prefix-subset of every larger one.
        let sizes: Vec<usize> = EXPERIMENT_SIZES.to_vec();
        for pair in sizes.windows(2) {
            let small = &sets[&pair[0]];
            let large = &sets[&pair[1]];
            for id in small {
                assert!(large.contains(id), "set {} ⊄ set {}", pair[0], pair[1]);
            }
        }
    }

    #[test]
    fn experiment_sets_require_22_interests() {
        let user = user_with(21);
        assert!(experiment_nested_sets(&user, &mut StdRng::seed_from_u64(5)).is_none());
        let user = user_with(22);
        assert!(experiment_nested_sets(&user, &mut StdRng::seed_from_u64(5)).is_some());
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(SelectionStrategy::LeastPopular.label(), "LP");
        assert_eq!(SelectionStrategy::Random.label(), "R");
    }
}

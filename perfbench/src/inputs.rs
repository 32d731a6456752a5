//! World set-up and the seeded request mixes every workload replays.
//!
//! Inputs depend only on `(scale, seed)`: the same seed gives the same
//! world, cohort and request stream. The program receives only these
//! generated inputs.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use fbsim_adplatform::reach::{AdsManagerApi, ReportingEra};
use fbsim_adplatform::targeting::TargetingSpec;
use fbsim_fdvt::dataset::CohortConfig;
use fbsim_fdvt::FdvtDataset;
use fbsim_population::reach::CountryFilter;
use fbsim_population::{CountryCode, InterestId, MaterializedUser, World, WorldConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reach_api::ReachRequest;
use reach_cache::key::stable_hash;
use reach_cache::{CacheConfig, ConjunctionKey, PrefixKey};
use uniqueness::selection::select_sequence;
use uniqueness::SelectionStrategy;

/// The reporting era every workload queries (the paper's 2017 floor of 20).
pub const ERA: ReportingEra = ReportingEra::Early2017;

/// Problem size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The unit-test world: seconds, for the smoke test.
    Test,
    /// The paper's universe with a 50,000-user panel and a 600-user cohort.
    Medium,
}

impl Scale {
    pub fn parse(raw: &str) -> Option<Self> {
        match raw {
            "test" => Some(Scale::Test),
            "medium" => Some(Scale::Medium),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Medium => "medium",
        }
    }

    pub fn world_config(self, seed: u64) -> WorldConfig {
        match self {
            Scale::Test => WorldConfig::test_scale(seed),
            Scale::Medium => WorldConfig { panel_size: 50_000, ..WorldConfig::paper_scale(seed) },
        }
    }

    pub fn cohort_size(self) -> u32 {
        match self {
            Scale::Test => 239,
            Scale::Medium => 600,
        }
    }

    /// Bootstrap replicates of the Table 1 fit.
    pub fn replicates(self) -> usize {
        match self {
            Scale::Test => 200,
            Scale::Medium => 1_000,
        }
    }
}

/// The world and FDVT cohort, with how long each took to build.
pub struct Population {
    pub world: Arc<World>,
    pub cohort: FdvtDataset,
    pub world_s: f64,
    pub cohort_s: f64,
}

impl Population {
    pub fn generate(scale: Scale, seed: u64) -> Self {
        let start = Instant::now();
        let world = World::generate(scale.world_config(seed)).expect("scale presets are valid");
        let world_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let cohort = FdvtDataset::generate(
            &world,
            CohortConfig {
                size: scale.cohort_size(),
                seed: seed ^ 0xC0_0047,
                demographic_effects: true,
            },
        );
        let cohort_s = start.elapsed().as_secs_f64();
        Self { world: Arc::new(world), cohort, world_s, cohort_s }
    }

    pub fn api(&self) -> AdsManagerApi<'_> {
        AdsManagerApi::new(&self.world, ERA)
    }

    pub fn profiles(&self) -> Vec<&MaterializedUser> {
        self.cohort.users.iter().map(|u| &u.profile).collect()
    }
}

/// Request class of the FDVT-shaped mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Scalar,
    Nested,
    Sampled,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Scalar => "scalar",
            Kind::Nested => "nested",
            Kind::Sampled => "sampled",
        }
    }

    /// The 60/25/15 scalar/nested/sampled split of the collection mix.
    fn roll(rng: &mut StdRng) -> Self {
        match rng.gen_range(0..100u32) {
            0..=59 => Kind::Scalar,
            60..=84 => Kind::Nested,
            _ => Kind::Sampled,
        }
    }
}

/// One generated request with its class.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub request: ReachRequest,
}

/// Location sets the mix draws from (one, or a few of the largest markets).
const LOCATION_POOL: [&[&str]; 4] =
    [&["US"], &["ES"], &["US", "ES", "FR"], &["US", "ES", "FR", "BR"]];

fn locations(rng: &mut StdRng) -> Vec<String> {
    LOCATION_POOL[rng.gen_range(0..LOCATION_POOL.len())].iter().map(|s| s.to_string()).collect()
}

/// The 50-country targeting universe the uniqueness pipeline queries.
pub fn worldwide() -> Vec<String> {
    fbsim_population::TARGETING_UNIVERSE.iter().map(|c| c.code.as_str().to_string()).collect()
}

/// The country filter a request's locations select, as the server derives it.
pub fn filter_of(locations: &[String]) -> CountryFilter {
    CountryFilter::of(&spec(locations, &[]).location_indices())
}

/// The targeting spec of `locations` and `interests`, built as the server
/// builds it from a request.
pub fn spec(locations: &[String], interests: &[u32]) -> TargetingSpec {
    let mut builder = TargetingSpec::builder();
    for code in locations {
        let b = code.as_bytes();
        builder = builder.location(CountryCode([b[0], b[1]]));
    }
    builder.interests(ids(interests)).build().expect("generated requests are valid specs")
}

pub fn ids(raw: &[u32]) -> Vec<InterestId> {
    raw.iter().map(|&i| InterestId(i)).collect()
}

/// Samples interests proportionally to catalog audience size, so popular
/// interests are queried more, as in a real collection run.
struct PopularitySampler {
    cumulative: Vec<f64>,
    total: f64,
}

impl PopularitySampler {
    fn new(world: &World) -> Self {
        let mut cumulative = Vec::with_capacity(world.catalog().len());
        let mut total = 0.0f64;
        for interest in world.catalog().interests() {
            total += interest.target_audience.max(0.0);
            cumulative.push(total);
        }
        Self { cumulative, total }
    }

    fn sample(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen_range(0.0..self.total);
        self.cumulative.partition_point(|&c| c <= u).min(self.cumulative.len() - 1) as u32
    }

    /// `k` distinct interests, none of them in `exclude`.
    fn distinct(&self, rng: &mut StdRng, k: usize, exclude: &BTreeSet<u32>) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::with_capacity(k);
        while out.len() < k {
            let id = self.sample(rng);
            if !out.contains(&id) && !exclude.contains(&id) {
                out.push(id);
            }
        }
        out
    }
}

/// The interest sequence `AudienceVectors::collect` selects for the user at
/// index `i` of the slice it is given: the least popular interests (LP),
/// or a shuffle (R) seeded from `seed` and `i` exactly as `collect` seeds
/// it.
pub fn selected_sequence(
    world: &World,
    user: &MaterializedUser,
    strategy: SelectionStrategy,
    seed: u64,
    i: usize,
) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
    select_sequence(user, world.catalog(), strategy, &mut rng).iter().map(|id| id.0).collect()
}

pub const STRATEGIES: [SelectionStrategy; 2] =
    [SelectionStrategy::LeastPopular, SelectionStrategy::Random];

/// Every cohort user's LP and R sequences, in cohort order (LP then R per
/// user), as the uniqueness pipeline selects them.
fn cohort_sequences(pop: &Population, seed: u64) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for (i, user) in pop.cohort.users.iter().enumerate() {
        for strategy in STRATEGIES {
            out.push(selected_sequence(&pop.world, &user.profile, strategy, seed, i));
        }
    }
    out
}

fn shard_of<K: std::hash::Hash>(key: &K, shards: usize) -> usize {
    (stable_hash(key) % shards as u64) as usize
}

/// The `wire-hot` working set: every distinct request, each fitting its
/// cache shard, so that after one warm-up pass every op is a hit.
pub struct HotSet {
    pub scalar: Vec<ReachRequest>,
    pub nested: Vec<ReachRequest>,
    pub sampled: Vec<ReachRequest>,
}

const HOT_SCALAR: usize = 512;
const HOT_NESTED: usize = 48;
const HOT_SAMPLED: usize = 128;

impl HotSet {
    /// Builds the working set and asserts it fits `cache` shard by shard:
    /// a conjunction shard holds `capacity / shards` entries and a prefix
    /// shard `prefix_capacity / shards`.
    pub fn generate(pop: &Population, seed: u64, cache: &CacheConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x407_5E7);
        let sampler = PopularitySampler::new(&pop.world);
        let none = BTreeSet::new();
        let conj_per_shard = cache.capacity.div_ceil(cache.shards);
        let prefix_per_shard = cache.prefix_capacity.div_ceil(cache.shards);
        let mut conj_load = vec![0usize; cache.shards];
        let mut prefix_load = vec![0usize; cache.shards];

        let mut seen = BTreeSet::new();
        let mut scalar = Vec::new();
        while scalar.len() < HOT_SCALAR {
            let locs = locations(&mut rng);
            let k = rng.gen_range(1..=5usize);
            let interests = sampler.distinct(&mut rng, k, &none);
            let key = ConjunctionKey::new(&ids(&interests), filter_of(&locs), None);
            if seen.insert((key.country_bits(), key.interests().to_vec())) {
                conj_load[shard_of(&key, cache.shards)] += 1;
                scalar.push(ReachRequest::scalar(locs, interests));
            }
        }

        let mut nested = Vec::new();
        let mut seen = BTreeSet::new();
        for seq in cohort_sequences(pop, seed) {
            if nested.len() == HOT_NESTED {
                break;
            }
            let locs = locations(&mut rng);
            let filter = filter_of(&locs);
            let shard = shard_of(&PrefixKey::new(&ids(&seq), filter), cache.shards);
            if seq.is_empty()
                || prefix_load[shard] == prefix_per_shard
                || !seen.insert((filter.bits(), seq.clone()))
            {
                continue;
            }
            prefix_load[shard] += 1;
            nested.push(ReachRequest::nested(locs, seq));
        }

        let mut seen = BTreeSet::new();
        let mut sampled = Vec::new();
        while sampled.len() < HOT_SAMPLED {
            let locs = locations(&mut rng);
            let k = rng.gen_range(2..=3usize);
            let mut interests = sampler.distinct(&mut rng, k, &none);
            interests.sort_unstable();
            if seen.insert((locs.clone(), interests.clone())) {
                sampled.push(ReachRequest::sampled(locs, interests));
            }
        }

        assert_eq!(nested.len(), HOT_NESTED, "the cohort must supply {HOT_NESTED} sequences");
        assert!(
            conj_load.iter().all(|&n| n <= conj_per_shard),
            "wire-hot scalar working set overflows a cache shard: {conj_load:?} > {conj_per_shard}"
        );
        assert!(HOT_NESTED <= cache.prefix_capacity, "wire-hot nested set exceeds the prefix memo");
        assert!(HOT_SCALAR <= cache.capacity, "wire-hot scalar set exceeds the cache");
        Self { scalar, nested, sampled }
    }

    /// Every distinct request once, class by class (the warm-up pass).
    pub fn all(&self) -> Vec<Op> {
        let tag = |kind, list: &[ReachRequest]| {
            list.iter().map(move |r| Op { kind, request: r.clone() }).collect::<Vec<_>>()
        };
        let mut out = tag(Kind::Scalar, &self.scalar);
        out.extend(tag(Kind::Nested, &self.nested));
        out.extend(tag(Kind::Sampled, &self.sampled));
        out
    }

    /// A replay stream of `len` indices into [`HotSet::all`]: the 60/25/15
    /// mix, each op drawn uniformly from its class's working set.
    pub fn stream(&self, seed: u64, len: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5_7E4A);
        let (s, n) = (self.scalar.len(), self.nested.len());
        (0..len)
            .map(|_| match Kind::roll(&mut rng) {
                Kind::Scalar => rng.gen_range(0..s),
                Kind::Nested => s + rng.gen_range(0..n),
                Kind::Sampled => s + n + rng.gen_range(0..self.sampled.len()),
            })
            .collect()
    }
}

/// The `wire-cold` stream: the same mix shape, no request repeated.
///
/// * scalar conjunctions are distinct canonical keys;
/// * nested ops come in pairs per (user, strategy): the first 20 interests,
///   then — at the next nested op — the full sequence (up to 25), which
///   extends the resident 20-prefix;
/// * sampled conjunctions use only interests no earlier sampled op used,
///   so each one builds posting lists.
pub struct ColdStream {
    pub ops: Vec<Op>,
    pub distinct_scalar: usize,
    pub distinct_nested: usize,
    pub sampled_interests: usize,
}

/// Length of the first half of a cold nested pair.
pub const COLD_PREFIX: usize = 20;

impl ColdStream {
    /// Generates up to `max_ops` ops (fewer when the cohort's nested pairs
    /// run out).
    pub fn generate(pop: &Population, seed: u64, max_ops: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC01D);
        let sampler = PopularitySampler::new(&pop.world);
        let none = BTreeSet::new();
        let mut pairs: Vec<(Vec<String>, Vec<u32>)> = Vec::new();
        let mut seen_seq = BTreeSet::new();
        for seq in cohort_sequences(pop, seed) {
            if seq.len() > COLD_PREFIX && seen_seq.insert(seq.clone()) {
                pairs.push((locations(&mut rng), seq));
            }
        }
        let mut pairs = pairs.into_iter();
        let mut pending_full: Option<ReachRequest> = None;
        let mut scalar_keys = BTreeSet::new();
        let mut used_sampled = BTreeSet::new();
        let mut ops = Vec::with_capacity(max_ops);
        let (mut distinct_nested, mut exhausted) = (0, false);
        while ops.len() < max_ops && !exhausted {
            let kind = Kind::roll(&mut rng);
            let request = match kind {
                Kind::Scalar => loop {
                    let locs = locations(&mut rng);
                    let k = rng.gen_range(1..=5usize);
                    let interests = sampler.distinct(&mut rng, k, &none);
                    let key = ConjunctionKey::new(&ids(&interests), filter_of(&locs), None);
                    if scalar_keys.insert((key.country_bits(), key.interests().to_vec())) {
                        break ReachRequest::scalar(locs, interests);
                    }
                },
                Kind::Nested => {
                    if let Some(full) = pending_full.take() {
                        full
                    } else if let Some((locs, seq)) = pairs.next() {
                        pending_full = Some(ReachRequest::nested(locs.clone(), seq.clone()));
                        ReachRequest::nested(locs, seq[..COLD_PREFIX].to_vec())
                    } else {
                        exhausted = true;
                        continue;
                    }
                }
                Kind::Sampled => {
                    let locs = locations(&mut rng);
                    let k = rng.gen_range(2..=3usize);
                    let interests = sampler.distinct(&mut rng, k, &used_sampled);
                    used_sampled.extend(interests.iter().copied());
                    ReachRequest::sampled(locs, interests)
                }
            };
            if kind == Kind::Nested {
                distinct_nested += 1;
            }
            ops.push(Op { kind, request });
        }
        Self {
            ops,
            distinct_scalar: scalar_keys.len(),
            distinct_nested,
            sampled_interests: used_sampled.len(),
        }
    }
}

/// The `wire-routed` working set: distinct sampled conjunctions.
pub fn routed_set(pop: &Population, seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2_0073D);
    let sampler = PopularitySampler::new(&pop.world);
    let none = BTreeSet::new();
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let locs = locations(&mut rng);
        let k = rng.gen_range(2..=3usize);
        let mut interests = sampler.distinct(&mut rng, k, &none);
        interests.sort_unstable();
        if seen.insert((locs.clone(), interests.clone())) {
            out.push(Op { kind: Kind::Sampled, request: ReachRequest::sampled(locs, interests) });
        }
    }
    out
}

/// A replay stream of `len` uniform picks (indices) from a set of `size`.
pub fn uniform_stream(size: usize, seed: u64, len: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0_2D7E);
    (0..len).map(|_| rng.gen_range(0..size)).collect()
}

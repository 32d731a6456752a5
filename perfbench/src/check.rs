//! Answer checks, run outside every timed phase.
//!
//! A wrong, sub-floor, refused or errored answer counts as a failed op.

use fbsim_adplatform::reach::{AdsManagerApi, PotentialReach};
use fbsim_population::reach::CountryFilter;
use fbsim_population::{InterestId, ReachIndex, World};
use reach_api::{ReachPoint, ReachRequest, ReachResponse};
use reach_cache::key::canonical_interests;

use crate::inputs::{filter_of, ids, spec};

/// Whether every reported audience in `response` is a successful answer at
/// or above the era's floor.
pub fn above_floor(response: &ReachResponse, floor: u64) -> bool {
    match response {
        ReachResponse::Reach { reported, .. } | ReachResponse::SampledReach { reported, .. } => {
            *reported >= floor
        }
        ReachResponse::Nested { reaches } => {
            !reaches.is_empty() && reaches.iter().all(|p| p.reported >= floor)
        }
        _ => false,
    }
}

fn point(p: PotentialReach) -> ReachPoint {
    ReachPoint {
        reported: p.reported,
        floored: p.floored,
        too_narrow_warning: p.too_narrow_warning,
    }
}

/// The in-process answer to a scalar or nested request, computed through
/// `AdsManagerApi` and `ReachEngine` exactly as the server's uncached path
/// does (scalar interests canonicalised, nested order kept).
pub fn engine_answer(api: &AdsManagerApi<'_>, request: &ReachRequest) -> ReachResponse {
    if request.nested == Some(true) {
        let locations = spec(&request.locations, &[]);
        let reaches = api
            .try_nested_potential_reach(&locations, &ids(&request.interests))
            .expect("generated locations are in the universe");
        return ReachResponse::Nested { reaches: reaches.into_iter().map(point).collect() };
    }
    let p =
        api.potential_reach(&spec(&request.locations, &canonical_interests(&request.interests)));
    ReachResponse::Reach {
        reported: p.reported,
        floored: p.floored,
        too_narrow_warning: p.too_narrow_warning,
    }
}

/// In-process sampled answers: one `ReachIndex` built for every interest
/// the requests use, then the server's count → floor path.
pub struct IndexOracle {
    index: ReachIndex,
}

impl IndexOracle {
    pub fn new<'a>(world: &World, requests: impl IntoIterator<Item = &'a ReachRequest>) -> Self {
        let mut all: Vec<InterestId> = Vec::new();
        for r in requests {
            all.extend(ids(&r.interests));
        }
        all.sort_unstable_by_key(|i| i.0);
        all.dedup();
        Self { index: ReachIndex::build_for(world, &all) }
    }

    pub fn answer(&self, api: &AdsManagerApi<'_>, request: &ReachRequest) -> ReachResponse {
        let filter: CountryFilter = filter_of(&request.locations);
        let members = self
            .index
            .conjunction_count(&ids(&canonical_interests(&request.interests)), filter)
            .expect("oracle index covers every checked interest");
        let p = api.report_potential(members as f64 * api.world().panel().scale());
        ReachResponse::SampledReach {
            reported: p.reported,
            floored: p.floored,
            too_narrow_warning: p.too_narrow_warning,
        }
    }
}

//! The explicit-config equivalence matrix: every way the reach service can
//! be configured must give the same answers, byte for byte, and none of
//! them may report an audience below the era's floor.
//!
//! One test-scale world, 24 cells: deployment (one node, a router over 2
//! shard backends, a router over 3) × query cache on/off × posting-list
//! index on/off × telemetry off/tracing. Every cell answers the same fixed
//! request list (scalar, nested and sampled queries, repeats and
//! respellings that hit a warm cache, sub-floor audiences, and one invalid
//! request) in one pipelined batch. The reference cell is a node with the
//! cache and the index on and telemetry off; its sampled answers are
//! checked against the boolean reference scan.
//!
//! * Every answer's `proto::encode` bytes equal the reference cell's,
//!   except that a cell with the index off answers each sampled request
//!   with `ReachResponse::Error`.
//! * No reported count is below the floor.
//! * A tracing cell's spans rebuild into at least one complete trace.
//!
//! Every config is built in full here: nothing but these values decides
//! how a cell behaves.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use fbsim_adplatform::reach::{AdsManagerApi, ReportingEra};
use fbsim_population::countries::{country_index, CountryCode};
use fbsim_population::index::{boolean_reference_count, IndexConfig};
use fbsim_population::reach::CountryFilter;
use fbsim_population::{InterestId, ShardSpec, World, WorldConfig};
use reach_api::proto::{encode, ReachRequest, ReachResponse};
use reach_api::server::{RateLimitConfig, ServerConfig};
use reach_api::{ReachClient, ReachRouter, ReachServer, RouterConfig};
use reach_cache::CacheConfig;
use uof_telemetry::TelemetryConfig;
use xtask::trace_report::{analyze, parse_trace};

/// The strictest era: its 1,000-user floor masks part of every opcode's
/// answers in the request list.
const ERA: ReportingEra = ReportingEra::Post2018;

/// An `io::Write` trace sink the test reads back after detaching it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One matrix cell. `shards: None` is a single node.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    shards: Option<u32>,
    cache: bool,
    index: bool,
    tracing: bool,
}

impl Cell {
    const REFERENCE: Cell = Cell { shards: None, cache: true, index: true, tracing: false };

    fn all() -> Vec<Cell> {
        let mut cells = Vec::new();
        for shards in [None, Some(2), Some(3)] {
            for cache in [true, false] {
                for index in [true, false] {
                    for tracing in [false, true] {
                        cells.push(Cell { shards, cache, index, tracing });
                    }
                }
            }
        }
        cells
    }

    /// Tracing cells record into the process-global telemetry (with a
    /// sink attached), so the client's, router's and backends' spans share
    /// one stream; the others get a private disabled domain each.
    fn telemetry(self) -> Option<TelemetryConfig> {
        (!self.tracing).then(TelemetryConfig::disabled)
    }

    fn server_config(self, shard: Option<ShardSpec>) -> ServerConfig {
        ServerConfig {
            era: ERA,
            rate_limit: unthrottled(),
            cache: if self.cache { CacheConfig::default() } else { CacheConfig::disabled() },
            telemetry: self.telemetry(),
            index: if self.index { IndexConfig::enabled() } else { IndexConfig::disabled() },
            write_timeout: Duration::from_secs(5),
            shard,
        }
    }

    /// Starts the cell's deployment and answers `requests` through it in
    /// one pipelined batch.
    fn answer(self, world: &Arc<World>, requests: &[ReachRequest]) -> Vec<ReachResponse> {
        let Some(count) = self.shards else {
            let server = ReachServer::start(Arc::clone(world), self.server_config(None)).unwrap();
            return ReachClient::connect(server.addr()).unwrap().pipeline(requests).unwrap();
        };
        let backends: Vec<ReachServer> = (0..count)
            .map(|index| {
                let shard = Some(ShardSpec { index, count });
                ReachServer::start(Arc::clone(world), self.server_config(shard)).unwrap()
            })
            .collect();
        let router = ReachRouter::start(
            Arc::clone(world),
            backends.iter().map(ReachServer::addr).collect(),
            RouterConfig {
                era: ERA,
                rate_limit: unthrottled(),
                telemetry: self.telemetry(),
                write_timeout: Duration::from_secs(5),
            },
        )
        .unwrap();
        ReachClient::connect(router.addr()).unwrap().pipeline(requests).unwrap()
    }
}

fn unthrottled() -> RateLimitConfig {
    RateLimitConfig { capacity: 1e9, refill_per_second: 1e9 }
}

fn codes(list: &[&str]) -> Vec<String> {
    list.iter().map(|c| c.to_string()).collect()
}

/// The fixed request list: scalar, nested and sampled queries over one
/// cohort user's interests, with repeats and respellings (cache hits and a
/// prefix extension on a cached sweep), audiences above and below the
/// floor, and one request every deployment must refuse.
fn requests(world: &World) -> Vec<ReachRequest> {
    let user = world.sample_cohort(1, 8).pop().unwrap();
    let ids: Vec<u32> = user.interests.iter().take(16).map(|i| i.0).collect();
    let five = codes(&["US", "ES", "FR", "BR", "MX"]);
    let spain = codes(&["ES"]);
    vec![
        ReachRequest::scalar(five.clone(), ids[..1].to_vec()),
        ReachRequest::scalar(five.clone(), ids[..3].to_vec()),
        ReachRequest::scalar(spain.clone(), ids[..4].to_vec()),
        ReachRequest::scalar(five.clone(), ids[..1].to_vec()),
        ReachRequest::scalar(codes(&["MX", "FR", "BR", "ES", "US"]), vec![ids[2], ids[0], ids[1]]),
        ReachRequest::nested(five.clone(), ids[..12].to_vec()),
        ReachRequest::nested(five.clone(), ids.clone()),
        ReachRequest::nested(spain.clone(), ids[..8].to_vec()),
        ReachRequest::sampled(five.clone(), ids[..1].to_vec()),
        ReachRequest::sampled(spain.clone(), ids[..1].to_vec()),
        ReachRequest::sampled(spain.clone(), ids[..3].to_vec()),
        ReachRequest::sampled(five.clone(), ids[..6].to_vec()),
        ReachRequest::sampled(spain, ids[..6].to_vec()),
        ReachRequest::scalar(codes(&["US", "ZZ"]), ids[..2].to_vec()),
    ]
}

/// The audience a sampled request must report, from the boolean reference
/// scan rather than the index any cell serves it from.
fn sampled_oracle(world: &World, request: &ReachRequest) -> ReachResponse {
    let countries: Vec<u16> = request
        .locations
        .iter()
        .map(|c| country_index(CountryCode::new(c)).unwrap() as u16)
        .collect();
    let filter = CountryFilter::checked_of(&countries).unwrap();
    let ids: Vec<InterestId> = request.interests.iter().map(|&i| InterestId(i)).collect();
    let members = boolean_reference_count(world, &ids, filter);
    let point =
        AdsManagerApi::new(world, ERA).report_potential(members as f64 * world.panel().scale());
    ReachResponse::SampledReach {
        reported: point.reported,
        floored: point.floored,
        too_narrow_warning: point.too_narrow_warning,
    }
}

/// The answer's opcode and every count it reports, with whether the floor
/// masked it.
fn reported_counts(response: &ReachResponse) -> (&'static str, Vec<(u64, bool)>) {
    match response {
        ReachResponse::Reach { reported, floored, .. } => ("scalar", vec![(*reported, *floored)]),
        ReachResponse::SampledReach { reported, floored, .. } => {
            ("sampled", vec![(*reported, *floored)])
        }
        ReachResponse::Nested { reaches } => {
            ("nested", reaches.iter().map(|p| (p.reported, p.floored)).collect())
        }
        _ => ("none", Vec::new()),
    }
}

#[test]
fn every_config_cell_answers_like_the_reference_node() {
    let world = Arc::new(World::generate(WorldConfig::test_scale(2021)).unwrap());
    let requests = requests(&world);
    let telemetry = uof_telemetry::global();
    telemetry.set_enabled(false);

    let reference = Cell::REFERENCE.answer(&world, &requests);
    // The reference itself: sampled answers match the reference scan, the
    // invalid request is refused, and the list reaches below the floor on
    // every opcode.
    for (request, answer) in requests.iter().zip(&reference) {
        if request.sampled == Some(true) {
            assert_eq!(answer, &sampled_oracle(&world, request), "{request:?}");
        }
    }
    assert!(matches!(reference.last(), Some(ReachResponse::Error { .. })), "{reference:?}");
    for opcode in ["scalar", "nested", "sampled"] {
        let floored = reference
            .iter()
            .map(reported_counts)
            .any(|(kind, counts)| kind == opcode && counts.iter().any(|&(_, floored)| floored));
        assert!(floored, "the request list needs a sub-floor {opcode} audience: {reference:?}");
    }

    let cells = Cell::all();
    assert_eq!(cells.len(), 24);
    for cell in cells {
        let sink = SharedBuf::default();
        if cell.tracing {
            telemetry.attach_trace_writer(Box::new(sink.clone()));
        }
        let answers = cell.answer(&world, &requests);
        if cell.tracing {
            telemetry.flush_traces();
            telemetry.detach_trace_writer();
            telemetry.set_enabled(false);
        }

        assert_eq!(answers.len(), requests.len(), "{cell:?}");
        for ((request, answer), want) in requests.iter().zip(&answers).zip(&reference) {
            for (reported, _) in reported_counts(answer).1 {
                assert!(reported >= ERA.floor(), "{cell:?} reported {reported} for {request:?}");
            }
            if request.sampled == Some(true) && !cell.index {
                assert!(matches!(answer, ReachResponse::Error { .. }), "{cell:?}: {answer:?}");
                continue;
            }
            assert_eq!(
                String::from_utf8(encode(answer)).unwrap(),
                String::from_utf8(encode(want)).unwrap(),
                "{cell:?} diverged from the reference on {request:?}"
            );
        }

        if cell.tracing {
            let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
            let analysis = analyze(parse_trace(&text).expect("trace stream parses"));
            assert!(analysis.complete_traces() >= 1, "{cell:?} rebuilt no complete trace");
        }
    }
}

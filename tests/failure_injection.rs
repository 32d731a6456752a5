//! Failure injection: the pipeline's behaviour under degraded conditions —
//! exhausted rate limits, zero budgets, empty schedules/audiences, rejected
//! campaigns, and oversized network frames.

use std::io::Write;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use unique_on_facebook::adplatform::campaign::{
    CampaignManager, CampaignSpec, Creativity, Schedule,
};
use unique_on_facebook::adplatform::delivery::{simulate_delivery, DeliveryModel, MatchedAudience};
use unique_on_facebook::adplatform::policy::MinActiveAudiencePolicy;
use unique_on_facebook::adplatform::reach::{AdsManagerApi, ReportingEra};
use unique_on_facebook::adplatform::targeting::TargetingSpec;
use unique_on_facebook::population::{InterestId, World, WorldConfig};
use unique_on_facebook::reach_api::server::{RateLimitConfig, ServerConfig};
use unique_on_facebook::reach_api::{ClientError, ReachClient, ReachServer};

fn world() -> &'static World {
    use std::sync::OnceLock;
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::generate(WorldConfig::test_scale(77)).unwrap())
}

#[test]
fn zero_budget_delivers_nothing_billable() {
    let report = simulate_delivery(
        &DeliveryModel::default(),
        MatchedAudience { target_matches: true, others: 10_000 },
        &Schedule::paper_experiment(),
        0.0,
        3,
    );
    // No budget → no aggregate impressions and no spend; the pinned
    // target's own sessions can't be won either (fill ratio is 0).
    assert_eq!(report.cost_eur, 0.0);
    assert_eq!(report.impressions, report.target_impressions);
    assert!(!report.target_seen);
}

#[test]
fn rate_limit_exhaustion_surfaces_as_error() {
    let server = ReachServer::start(
        Arc::new(World::generate(WorldConfig::test_scale(5)).unwrap()),
        ServerConfig {
            era: ReportingEra::Early2017,
            // A bucket that effectively never refills.
            rate_limit: RateLimitConfig { capacity: 1.0, refill_per_second: 0.0001 },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = ReachClient::connect(server.addr()).unwrap();
    client.max_retries = 1;
    // Cap the retry wait: the server suggests the 60 s maximum, and at
    // 0.0001 tokens/s the bucket is still empty after 10 ms anyway.
    client.max_backoff = std::time::Duration::from_millis(10);
    // First request drains the bucket…
    assert!(client.potential_reach(&["US"], &[0]).is_ok());
    // …the second exhausts the retry budget.
    match client.potential_reach(&["US"], &[1]) {
        Err(ClientError::RateLimitExhausted) => {}
        other => panic!("expected RateLimitExhausted, got {other:?}"),
    }
}

#[test]
fn oversized_frame_gets_error_and_disconnect() {
    let server = ReachServer::start(
        Arc::new(World::generate(WorldConfig::test_scale(5)).unwrap()),
        ServerConfig::default(),
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    // A single line far beyond MAX_FRAME.
    let garbage = vec![b'x'; 70 * 1024];
    stream.write_all(&garbage).unwrap();
    stream.write_all(b"\n").unwrap();
    // The server answers with an error frame and closes; reading to EOF
    // must terminate (no hang) and contain the error marker.
    use std::io::Read;
    let mut response = String::new();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    let _ = stream.read_to_string(&mut response);
    assert!(response.contains("frame too large"), "got: {response:?}");
}

#[test]
fn rejected_campaign_is_inert() {
    let api = AdsManagerApi::new(world(), ReportingEra::Post2018);
    let mut manager = CampaignManager::new(
        api,
        MinActiveAudiencePolicy::paper_proposal(),
        DeliveryModel::default(),
    );
    let spec = CampaignSpec {
        name: "too narrow".into(),
        targeting: TargetingSpec::builder()
            .worldwide()
            .interests((0..20).map(|i| InterestId(i * 97)))
            .build()
            .unwrap(),
        creativity: Creativity { title: "t".into(), landing_url: "u".into() },
        daily_budget_eur: 10.0,
        schedule: Schedule::paper_experiment(),
    };
    let mut rng = StdRng::seed_from_u64(1);
    let (id, violation) = manager.launch(&mut rng, spec, true).unwrap_err();
    assert!(violation.to_string().contains("active users"));
    // No report, no spend, stop is a no-op.
    assert!(manager.dashboard(id).is_none());
    manager.stop(id);
    assert!(matches!(
        manager.state(id),
        Some(unique_on_facebook::adplatform::CampaignState::Rejected(_))
    ));
}

#[test]
fn malformed_then_valid_requests_on_same_connection() {
    let server = ReachServer::start(
        Arc::new(World::generate(WorldConfig::test_scale(5)).unwrap()),
        ServerConfig::default(),
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"this is not json\n").unwrap();
    stream.write_all(b"{\"v\":1,\"locations\":[\"US\"],\"interests\":[0]}\n").unwrap();
    use std::io::Read;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 8192];
    let mut collected = String::new();
    while !collected.contains("reach") {
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server closed before answering the valid request");
        collected.push_str(std::str::from_utf8(&buf[..n]).unwrap());
    }
    // First frame: an error; second: a reach answer — the connection
    // survives malformed input.
    assert!(collected.contains("malformed frame") || collected.contains("error"));
    assert!(collected.contains("reported"));
}

#[test]
fn unreachable_schedule_yields_empty_delivery() {
    // Audience present but the schedule has no hours the target browses in
    // (degenerate tiny window).
    let schedule = Schedule::new(vec![(0.0, 0.001)]).unwrap();
    let mut seen = 0;
    for seed in 0..20 {
        let report = simulate_delivery(
            &DeliveryModel::default(),
            MatchedAudience { target_matches: true, others: 0 },
            &schedule,
            10.0,
            seed,
        );
        if report.target_seen {
            seen += 1;
        }
        assert!(report.impressions <= 1);
    }
    // 0.001 active hours ≈ one session per 5,000 runs: effectively never.
    assert_eq!(seen, 0);
}

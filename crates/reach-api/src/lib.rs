//! # reach-api
//!
//! The networked Marketing-API substrate: a framed JSON-lines TCP service
//! exposing *Potential Reach* queries, with per-connection rate limiting,
//! plus the blocking client the data-collection pipeline uses.
//!
//! The paper's uniqueness dataset was collected by querying Facebook's
//! remote Marketing API for thousands of audience combinations — a
//! networked, rate-limited client/server interaction. This crate reproduces
//! that split so the pipeline exercises real sockets (loopback in tests):
//!
//! * [`proto`] — versioned request/response types, the [`Op`] each
//!   request's flags decode to, and the newline-delimited JSON framing
//!   codec (a hand-written encoder and decoder over `std` buffers).
//! * `serve` (private) — the serving core both tiers run on: one acceptor
//!   (thread per connection) and one generic `serve_connection` that owns
//!   the pipelined read/drain/write loop, the per-connection token bucket,
//!   per-opcode telemetry, the timing echo and request validation.
//! * [`server`] — the single-node tier over a shared
//!   [`fbsim_population::World`]: engine, query cache and posting-list
//!   index, with the reporting floor applied server-side.
//! * [`client`] — a blocking client with exponential backoff on
//!   rate-limit responses and a [`ReachClient::pipeline`] batch API that
//!   sends N id-tagged frames before reading N responses. Sent frames are
//!   queued per connection and written per batch: at 8 KiB, before a
//!   read, on [`ReachClient::flush`], and on drop.
//! * [`router`] — the sharded-deployment front-end: fans a query out to N
//!   shard backends and folds their per-chunk partials in ascending chunk
//!   order, so merged answers are bit-identical to a single node.
//!
//! The server is instrumented through `uof-telemetry`: per-opcode request
//! counters and latency histograms plus an in-flight gauge, recorded into
//! the process-global registry (or a private instance pinned via
//! [`ServerConfig::telemetry`]) and interrogable over the wire with the
//! `StatsSnapshot` opcode / [`ReachClient::telemetry_snapshot`].
//! Telemetry is observation-only: reported reaches are bit-identical with
//! it disabled, enabled, or tracing.
//!
//! Synchronous by design: the workload is a modest number of long-lived
//! connections doing CPU-bound reach computations, which the async
//! networking guides themselves classify as a case where an async runtime
//! buys nothing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod proto;
pub mod router;
mod serve;
pub mod server;

pub use client::{ClientError, ClientReach, ReachClient, DEFAULT_MAX_BACKOFF};
pub use proto::{Op, QueryKind, ReachPoint, ReachRequest, ReachResponse, ShardPartials};
pub use router::{ReachRouter, RouterConfig};
pub use server::{RateLimitConfig, ReachServer, ServerConfig, MAX_RETRY_BACKOFF};

//! # traclus-server
//!
//! Clustering-as-a-service: a line-delimited JSON ingest/query daemon
//! over a std [`std::net::TcpListener`], serving the streaming TRACLUS
//! engine behind snapshot-isolated reads.
//!
//! Architecture (one process, three kinds of thread):
//!
//! ```text
//!  clients ──TCP──▶ accept loop ──▶ handler thread per connection
//!                                     │            │
//!                          ingest ▼ (bounded queue) │ queries
//!                                  engine thread    ▼
//!                       IncrementalClustering ──▶ SnapshotCell ◀── load()
//!                                  (single writer)   (Arc swap)
//! ```
//!
//! * **Handlers never block the writer.** Queries run against the last
//!   published [`traclus_core::ClusterSnapshot`], pinned with one `Arc`
//!   clone; ingest enqueues onto a bounded channel and returns as soon as
//!   the trajectory is queued (back-pressure kicks in when the queue is
//!   full).
//! * **The writer never blocks on readers.** One engine thread owns the
//!   [`traclus_core::IncrementalClustering`], drains the queue in
//!   batches, and publishes a fresh snapshot per batch.
//! * **Reads are exact.** Every snapshot a query sees equals the batch
//!   TRACLUS pipeline run on the prefix of trajectories applied so far —
//!   the streaming engine's equivalence guarantee carried through to the
//!   wire (`tests/server_integration.rs` asserts it over live TCP).
//!
//! The wire protocol lives in [`protocol`]; [`client::Client`] is a
//! minimal blocking client; [`Server`] is the daemon. The `flush` op is
//! the read-your-writes barrier: it blocks until everything queued before
//! it is applied and published.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod engine;
pub mod protocol;
mod server;

pub use client::Client;
pub use protocol::{ProtocolError, Request};
pub use server::{Server, ServerConfig, IDLE_POLLS, WRITE_TIMEOUT};

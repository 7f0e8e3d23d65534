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

use std::io::Write;

pub mod client;
mod engine;
pub mod protocol;
mod server;

pub use client::Client;
pub use protocol::{ProtocolError, Request};
pub use server::{Server, ServerConfig, IDLE_POLLS, WRITE_TIMEOUT};

/// Writes one line and its newline with a single `write_all`, then
/// flushes: the client's requests and the daemon's replies both leave this
/// way. Written apart, the newline would leave in a second send that
/// stalls behind the peer's delayed ACK (≈40 ms). The line is taken by
/// value so that the newline is pushed onto it rather than onto a copy of
/// a reply that can run to tens of kilobytes.
pub(crate) fn write_line(writer: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Support shared by the unit tests of the client and the daemon.
#[cfg(test)]
mod testing {
    /// Counts the `write` calls that reach it.
    #[derive(Default)]
    pub(crate) struct CountingWriter {
        pub(crate) writes: usize,
        pub(crate) bytes: Vec<u8>,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}

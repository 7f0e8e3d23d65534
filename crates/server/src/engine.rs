//! The single-writer engine thread and its ingest queue.
//!
//! Connection handlers never touch [`IncrementalClustering`] directly:
//! they enqueue [`EngineCommand`]s on a bounded channel and answer reads
//! from the [`SnapshotCell`]. One engine thread drains the queue, applies
//! inserts, and publishes a fresh snapshot after each drained batch — so
//! accept/handler threads and the writer decouple completely, and the
//! queue bound provides back-pressure when ingest outruns clustering.
//!
//! Publishing per *batch* (not per insert) keeps the writer hot under
//! load while preserving the snapshot guarantee: a batch boundary is
//! always a trajectory-prefix boundary, so every published snapshot still
//! equals the batch pipeline on the exact sequence applied so far.

use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use traclus_core::{IncrementalClustering, RemoveReport, SnapshotCell, TraclusConfig};
use traclus_geom::{Point2, Trajectory, TrajectoryId};

/// Where a synchronous command's reply goes: the removal report (the
/// default report for a flush) and the epoch of the first snapshot that
/// reflects the command.
pub(crate) type Reply = SyncSender<(RemoveReport, u64)>;

/// Work for the engine thread.
#[derive(Debug)]
pub enum EngineCommand {
    /// Apply one trajectory. Ids are daemon-unique (handlers draw them
    /// from one shared counter, which saturates rather than wraps), but a
    /// draw and its enqueue are two steps — so with concurrent handlers
    /// queue order need not match id order, and a snapshot may contain
    /// id 7 before id 6. Requests on a single connection are serial, so
    /// ids there come back dense and in order.
    Ingest {
        /// The id the ingest response already reported to the client.
        id: TrajectoryId,
        /// Polyline vertices.
        points: Vec<[f64; 2]>,
        /// Optional trajectory weight.
        weight: Option<f64>,
    },
    /// Retire one trajectory from the live window. Synchronous: the
    /// reply carries the removal report plus the epoch of the snapshot
    /// that first reflects it, so a client observes its own removal.
    Remove {
        /// The trajectory to retire (all its live arrivals).
        id: TrajectoryId,
        /// Where to send the applied report + publication epoch.
        reply: Reply,
    },
    /// Expire oldest-first down to a live-trajectory capacity.
    /// Synchronous like [`Self::Remove`]: the reply carries the combined
    /// removal report for everything expired, plus the epoch.
    Expire {
        /// The capacity to shrink the live window to.
        keep: usize,
        /// Where to send the expiry report + publication epoch.
        reply: Reply,
    },
    /// Publish everything applied so far, then reply with a default report
    /// and the epoch — the read-your-writes barrier behind the `flush` op.
    Flush(Reply),
    /// Drain nothing further and exit the engine thread.
    Stop,
}

/// Maximum inserts applied between snapshot publications. Bounds how
/// stale a snapshot can get under sustained ingest while still letting
/// the writer amortise publication cost over a busy queue.
const MAX_BATCH: usize = 64;

/// The engine thread: owns the [`IncrementalClustering`], publishes to
/// the shared [`SnapshotCell`].
pub(crate) struct EngineThread {
    handle: JoinHandle<IncrementalClustering<2>>,
}

impl EngineThread {
    /// Spawns the writer, draining `commands` until [`EngineCommand::Stop`]
    /// or every sender is dropped.
    pub(crate) fn spawn(
        config: TraclusConfig,
        cell: Arc<SnapshotCell<2>>,
        commands: Receiver<EngineCommand>,
    ) -> Self {
        let handle = std::thread::spawn(move || {
            let mut engine = IncrementalClustering::<2>::new(config);
            // Synchronous replies, answered once the batch is published.
            let mut pending: Vec<(Reply, RemoveReport)> = Vec::new();
            'outer: loop {
                // Block for the first command, then opportunistically
                // drain whatever else arrived — one publication per batch.
                let Ok(first) = commands.recv() else {
                    break;
                };
                let mut applied = 0usize;
                let mut stop = false;
                let mut batch = Some(first);
                while let Some(cmd) = batch.take() {
                    match cmd {
                        EngineCommand::Ingest { id, points, weight } => {
                            insert(&mut engine, id, points, weight);
                            applied += 1;
                        }
                        EngineCommand::Remove { id, reply } => {
                            pending.push((reply, engine.remove_trajectory(id)));
                            applied += 1;
                        }
                        EngineCommand::Expire { keep, reply } => {
                            pending.push((reply, engine.expire_to_capacity(keep)));
                            applied += 1;
                        }
                        EngineCommand::Flush(reply) => {
                            pending.push((reply, RemoveReport::default()));
                        }
                        EngineCommand::Stop => {
                            stop = true;
                            break;
                        }
                    }
                    if applied < MAX_BATCH {
                        batch = commands.try_recv().ok();
                    }
                }
                let snapshot = cell.publish_from(&engine);
                for (reply, report) in pending.drain(..) {
                    // A client that hung up just forfeits its reply.
                    let _ = reply.try_send((report, snapshot.epoch()));
                }
                if stop {
                    break 'outer;
                }
            }
            engine
        });
        Self { handle }
    }

    /// Joins the writer, returning the final engine state (used by tests
    /// to compare against a batch run).
    pub(crate) fn join(self) -> IncrementalClustering<2> {
        match self.handle.join() {
            Ok(engine) => engine,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

fn insert(
    engine: &mut IncrementalClustering<2>,
    id: TrajectoryId,
    points: Vec<[f64; 2]>,
    weight: Option<f64>,
) {
    let points = points.into_iter().map(|[x, y]| Point2::xy(x, y)).collect();
    let trajectory = match weight {
        Some(w) => Trajectory::with_weight(id, points, w),
        None => Trajectory::new(id, points),
    };
    engine.insert(&trajectory);
}

/// Enqueues with back-pressure semantics the handlers rely on: block when
/// the queue is full (ingest), but never block the caller on a
/// disconnected engine.
pub(crate) fn send_command(
    tx: &SyncSender<EngineCommand>,
    cmd: EngineCommand,
) -> Result<(), &'static str> {
    match tx.try_send(cmd) {
        Ok(()) => Ok(()),
        Err(TrySendError::Full(cmd)) => tx.send(cmd).map_err(|_| "engine stopped"),
        Err(TrySendError::Disconnected(_)) => Err("engine stopped"),
    }
}

/// A synchronous round-trip: enqueue the command `command` builds around
/// a fresh reply channel, then wait for the report and the epoch of the
/// snapshot that first reflects it.
pub(crate) fn round_trip(
    tx: &SyncSender<EngineCommand>,
    command: impl FnOnce(Reply) -> EngineCommand,
) -> Result<(RemoveReport, u64), &'static str> {
    let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
    send_command(tx, command(reply_tx))?;
    reply_rx.recv().map_err(|_| "engine stopped")
}

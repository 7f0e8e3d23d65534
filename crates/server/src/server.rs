//! The TCP daemon: accept loop, connection handlers, graceful shutdown.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use traclus_core::{ClusterSnapshot, SnapshotCell, TraclusConfig};
use traclus_geom::{Aabb, Point2, TrajectoryId};
use traclus_json::JsonValue;

use crate::engine::{round_trip, send_command, EngineCommand, EngineThread};
use crate::protocol::{error_response, ProtocolError, Request, MAX_LINE_BYTES};
use crate::write_line;

/// How long one reply may wait for a client to read. A connection whose
/// reply cannot be sent within it is dropped, so a client that pipelines
/// requests and never reads the replies, or reads them a little at a time,
/// cannot hold its handler — or a `shutdown`, which joins every handler —
/// for longer than this.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How many poll intervals in a row a connection may send nothing. A
/// connection silent for that long is dropped, so idle clients cannot
/// hold every handler under the `max_connections` cap and lock the others
/// out. At the default 100 ms poll interval that is one minute.
pub const IDLE_POLLS: u32 = 600;

/// Configuration of one serving daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// The clustering pipeline configuration the engine runs under.
    pub traclus: TraclusConfig,
    /// Ingest-queue bound: how many trajectories may wait for the engine
    /// before `ingest` requests block (back-pressure).
    pub queue_depth: usize,
    /// How often idle connection handlers wake to check for shutdown;
    /// [`IDLE_POLLS`] of them without a byte from the client drop its
    /// connection. Floored at 1 ms: the socket read timeout it sets cannot
    /// be zero.
    pub poll_interval: Duration,
    /// Maximum concurrent connections (one handler thread each). At the
    /// cap the accept loop parks until a handler exits, so excess clients
    /// queue in the listener backlog instead of spawning threads.
    pub max_connections: usize,
    /// Optional server-side sliding window: at most this many live
    /// trajectories. When set, every applied ingest self-prunes the
    /// oldest arrivals past the cap before the batch publishes — clients
    /// never observe an over-capacity snapshot. Equivalent to setting
    /// `traclus.stream.capacity` (and overrides it when both are given).
    pub window: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            traclus: TraclusConfig::default(),
            queue_depth: 1024,
            poll_interval: Duration::from_millis(100),
            max_connections: 1024,
            window: None,
        }
    }
}

/// Shared state every connection handler closes over.
struct Shared {
    cell: Arc<SnapshotCell<2>>,
    commands: SyncSender<EngineCommand>,
    next_id: AtomicU32,
    shutdown: AtomicBool,
    poll_interval: Duration,
}

/// A bound, not-yet-running serving daemon.
///
/// [`Self::bind`] reserves the port (so callers can read
/// [`Self::local_addr`] before serving); [`Self::run`] blocks in the
/// accept loop until a client sends `shutdown`, then drains: handlers
/// finish their connections, the engine thread applies everything queued,
/// and `run` returns.
///
/// ```no_run
/// use traclus_server::{Server, ServerConfig};
///
/// let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
/// println!("listening on {}", server.local_addr());
/// server.run().unwrap();
/// ```
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    engine: EngineThread,
    max_connections: usize,
}

impl Server {
    /// Binds the listener and spawns the engine thread. `addr` may use
    /// port 0 to let the OS pick (read it back via [`Self::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let mut traclus = config.traclus;
        if config.window.is_some() {
            traclus.stream.capacity = config.window;
        }
        let cell = Arc::new(SnapshotCell::<2>::new(traclus));
        let (tx, rx) = std::sync::mpsc::sync_channel(config.queue_depth.max(1));
        let engine = EngineThread::spawn(traclus, Arc::clone(&cell), rx);
        Ok(Self {
            listener,
            shared: Arc::new(Shared {
                cell,
                commands: tx,
                next_id: AtomicU32::new(0),
                shutdown: AtomicBool::new(false),
                poll_interval: config.poll_interval.max(Duration::from_millis(1)),
            }),
            engine,
            max_connections: config.max_connections.max(1),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        match self.listener.local_addr() {
            Ok(addr) => addr,
            // A bound listener always has a local address; losing it means
            // the socket is gone and serving is impossible anyway.
            Err(e) => panic!("bound listener has no local address: {e}"),
        }
    }

    /// Serves until a client sends `shutdown`. Returns after every
    /// connection handler has exited and the engine thread has drained
    /// its queue — even when the accept loop dies on a fatal error or a
    /// handler panics, the drain still runs before the failure surfaces.
    pub fn run(self) -> std::io::Result<()> {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        let mut first_panic = None;
        let mut fatal = None;
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                // A client that gave up mid-handshake or a transient
                // resource squeeze must not kill the daemon; back off one
                // poll interval (fd exhaustion clears as handlers exit)
                // and keep accepting.
                Err(e) if is_transient_accept_error(&e) => {
                    std::thread::sleep(self.shared.poll_interval);
                    continue;
                }
                Err(e) => {
                    fatal = Some(e);
                    break;
                }
            };
            reap_finished(&mut handlers, &mut first_panic);
            // Thread-per-connection needs a cap: at the limit, park the
            // accept loop until a handler exits — excess clients wait in
            // the listener backlog rather than each getting a thread.
            while handlers.len() >= self.max_connections
                && !self.shared.shutdown.load(Ordering::SeqCst)
            {
                std::thread::sleep(self.shared.poll_interval);
                reap_finished(&mut handlers, &mut first_panic);
            }
            let shared = Arc::clone(&self.shared);
            handlers.push(std::thread::spawn(move || {
                handle_connection(stream, &shared)
            }));
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
        }
        drop(self.listener);
        for h in handlers {
            if let Err(panic) = h.join() {
                first_panic.get_or_insert(panic);
            }
        }
        // All handlers (and their queue senders' clones) are gone; tell
        // the engine to stop after whatever is still queued.
        let _ = send_command(&self.shared.commands, EngineCommand::Stop);
        self.engine.join();
        // The drain is complete; only now re-raise what went wrong.
        if let Some(panic) = first_panic {
            std::panic::resume_unwind(panic);
        }
        match fatal {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Accept errors that mean "this connection attempt failed", not "the
/// listener is broken": the loop should keep serving through them.
fn is_transient_accept_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::ConnectionAborted
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionRefused
            | ErrorKind::Interrupted
            | ErrorKind::WouldBlock
            | ErrorKind::TimedOut
    )
    // EMFILE (24) / ENFILE (23): fd exhaustion has no stable ErrorKind but
    // clears once connections close, so it is transient too.
    || matches!(e.raw_os_error(), Some(23 | 24))
}

/// Joins every handler thread that has already exited, so a long-lived
/// daemon does not accumulate unbounded `JoinHandle`s. The first panic
/// payload is kept for re-raising after graceful shutdown completes.
fn reap_finished(
    handlers: &mut Vec<JoinHandle<()>>,
    first_panic: &mut Option<Box<dyn std::any::Any + Send>>,
) {
    let mut i = 0;
    while i < handlers.len() {
        if handlers[i].is_finished() {
            if let Err(panic) = handlers.swap_remove(i).join() {
                first_panic.get_or_insert(panic);
            }
        } else {
            i += 1;
        }
    }
}

/// Wakes the accept loop after the shutdown flag is set: `incoming()`
/// blocks until one more connection arrives, so make one.
fn wake_accept_loop(shared: &Shared, stream: &TcpStream) {
    shared.shutdown.store(true, Ordering::SeqCst);
    if let Ok(addr) = stream.local_addr() {
        // The handler's stream's local address is the server's listening
        // socket address on loopback setups; a failed connect just means
        // the accept loop already observed the flag some other way.
        let _ = TcpStream::connect(addr);
    }
}

/// The serving layer's one clock read: the per-request latency (the
/// `micros` response field) and the reply deadlines.
#[allow(
    clippy::disallowed_methods,
    reason = "latency and write deadlines are wall-clock by nature, and no reading reaches \
              the engine or the snapshots, which stay clock-free"
)]
fn now() -> Instant {
    Instant::now()
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // A read timeout turns the blocking reader into a shutdown poll:
    // handlers notice the flag within one poll interval even when their
    // client sends nothing. Without it and the replies' write deadline an
    // idle or stalled client could hold the handler, and with it
    // `shutdown`, forever.
    if stream.set_read_timeout(Some(shared.poll_interval)).is_err() {
        return;
    }
    // Each reply is one complete write; Nagle would only hold it back.
    let _ = stream.set_nodelay(true);
    let Ok(stream_out) = stream.try_clone() else {
        return;
    };
    let mut writer = ReplyWriter {
        stream: stream_out,
        deadline: now(),
    };
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    let mut idle_polls = 0;
    loop {
        // Read at most one byte past the cap, so an oversized line shows
        // without any more of it being buffered.
        let budget = (MAX_LINE_BYTES + 1).saturating_sub(line.len()) as u64;
        let before = line.len();
        match reader.by_ref().take(budget).read_until(b'\n', &mut line) {
            Ok(0) => break, // client hung up (a stale partial line dies with it)
            Ok(_) if line.len() > MAX_LINE_BYTES => {
                let error = ProtocolError::LineTooLong {
                    limit: MAX_LINE_BYTES,
                };
                let _ = writer.reply(&error_response(&error));
                break;
            }
            Ok(_) => {
                idle_polls = 0;
                // A complete line (or the final unterminated line before
                // EOF) is in the buffer; clear it only after dispatch, so
                // nothing accumulated survives into the next request.
                let request = std::str::from_utf8(&line).map_err(|_| ProtocolError::NotUtf8);
                if !request.as_ref().is_ok_and(|r| r.trim().is_empty()) {
                    let started = now();
                    let (response, shutdown) = dispatch(request, shared);
                    let response = with_timing(response, started);
                    if writer.reply(&response).is_err() {
                        break; // a hung-up client, or WRITE_TIMEOUT passed
                    }
                    if shutdown {
                        wake_accept_loop(shared, reader.get_ref());
                        break;
                    }
                }
                line.clear();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // The read timeout is a shutdown and idleness poll, but
                // read_until may already have appended part of a request
                // before timing out — keep the buffer intact so a client
                // that pauses mid-line resumes exactly where it left off.
                idle_polls = if line.len() > before {
                    0
                } else {
                    idle_polls + 1
                };
                if shared.shutdown.load(Ordering::SeqCst) || idle_polls >= IDLE_POLLS {
                    break;
                }
            }
            Err(_) => break,
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// A connection's write half. Each reply gets `WRITE_TIMEOUT` in all: a
/// socket write timeout bounds one `send`, and a client that reads a little
/// at a time lets every `send` make some progress, so under a plain timeout
/// one `write_all` could block for many timeouts in a row.
struct ReplyWriter {
    stream: TcpStream,
    /// When the reply being written runs out of time.
    deadline: Instant,
}

impl ReplyWriter {
    fn reply(&mut self, response: &JsonValue) -> std::io::Result<()> {
        self.deadline = now() + WRITE_TIMEOUT;
        write_line(self, response.to_compact())
    }
}

impl Write for ReplyWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.set_write_timeout(Some(left))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Appends the per-request service time. Timing is observability only —
/// it annotates responses and is never fed back into clustering.
fn with_timing(response: JsonValue, started: Instant) -> JsonValue {
    let micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    match response {
        JsonValue::Object(mut pairs) => {
            pairs.push((
                "micros".to_string(),
                JsonValue::Int(i64::try_from(micros).unwrap_or(i64::MAX)),
            ));
            JsonValue::Object(pairs)
        }
        other => other,
    }
}

/// Parses and executes one request line, refused like a line that is not
/// JSON when it is not text. The bool asks the connection loop to initiate
/// daemon shutdown after responding.
fn dispatch(line: Result<&str, ProtocolError>, shared: &Shared) -> (JsonValue, bool) {
    match line.and_then(Request::parse_line) {
        Err(e) => (error_response(&e), false),
        Ok(Request::Ingest { points, weight }) => {
            // checked_add saturates the counter at u32::MAX instead of
            // wrapping, which would hand out ids still owned by live
            // trajectories; at exhaustion further ingests are refused.
            let id = shared
                .next_id
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_add(1));
            let Ok(id) = id.map(TrajectoryId) else {
                return (error_reply("trajectory id space exhausted"), false);
            };
            match send_command(
                &shared.commands,
                EngineCommand::Ingest { id, points, weight },
            ) {
                Ok(()) => (
                    JsonValue::object([
                        ("ok", JsonValue::from(true)),
                        ("trajectory", JsonValue::from(id.0)),
                        ("queued", JsonValue::from(true)),
                    ]),
                    false,
                ),
                Err(msg) => (error_reply(msg), false),
            }
        }
        Ok(Request::Remove { trajectory }) => {
            let id = TrajectoryId(trajectory);
            match round_trip(&shared.commands, |reply| EngineCommand::Remove {
                id,
                reply,
            }) {
                Ok((report, epoch)) => (
                    ok_at(
                        epoch,
                        [
                            (
                                "removed_trajectories",
                                JsonValue::from(report.removed_trajectories),
                            ),
                            ("removed_segments", JsonValue::from(report.removed_segments)),
                            ("demoted_cores", JsonValue::from(report.demoted_cores)),
                        ],
                    ),
                    false,
                ),
                Err(msg) => (error_reply(msg), false),
            }
        }
        Ok(Request::Expire { keep }) => {
            match round_trip(&shared.commands, |reply| EngineCommand::Expire {
                keep,
                reply,
            }) {
                Ok((report, epoch)) => (
                    ok_at(
                        epoch,
                        [
                            ("expired", JsonValue::from(report.removed_trajectories)),
                            ("removed_segments", JsonValue::from(report.removed_segments)),
                        ],
                    ),
                    false,
                ),
                Err(msg) => (error_reply(msg), false),
            }
        }
        Ok(Request::Membership { trajectory }) => {
            let snap = shared.cell.load();
            let clusters = snap.membership(TrajectoryId(trajectory));
            (
                ok_with_epoch(
                    &snap,
                    [(
                        "clusters",
                        JsonValue::array(clusters.iter().map(|c| JsonValue::from(c.0))),
                    )],
                ),
                false,
            )
        }
        Ok(Request::Nearest { point }) => {
            let snap = shared.cell.load();
            let found = snap.nearest_cluster(&Point2::xy(point[0], point[1]));
            (
                ok_with_epoch(
                    &snap,
                    [
                        (
                            "cluster",
                            found.map_or(JsonValue::Null, |(id, _)| JsonValue::from(id.0)),
                        ),
                        ("distance", JsonValue::opt_f64(found.map(|(_, d)| d))),
                    ],
                ),
                false,
            )
        }
        Ok(Request::Representatives) => {
            let snap = shared.cell.load();
            let clusters = snap.clusters().iter().map(|c| {
                JsonValue::object([
                    ("id", JsonValue::from(c.cluster.id.0)),
                    (
                        "trajectories",
                        JsonValue::from(c.cluster.trajectory_cardinality()),
                    ),
                    (
                        "representative",
                        JsonValue::array(c.representative.points.iter().map(|p| {
                            JsonValue::array([
                                JsonValue::from(p.coords[0]),
                                JsonValue::from(p.coords[1]),
                            ])
                        })),
                    ),
                ])
            });
            let clusters = JsonValue::array(clusters.collect::<Vec<_>>());
            (ok_with_epoch(&snap, [("clusters", clusters)]), false)
        }
        Ok(Request::Region { min, max }) => {
            let snap = shared.cell.load();
            let summary = snap.region_summary(&Aabb::new(min, max));
            (
                ok_with_epoch(
                    &snap,
                    [
                        (
                            "clusters",
                            JsonValue::array(summary.clusters.iter().map(|c| JsonValue::from(c.0))),
                        ),
                        (
                            "distinct_trajectories",
                            JsonValue::from(summary.distinct_trajectories),
                        ),
                    ],
                ),
                false,
            )
        }
        Ok(Request::Stats) => {
            let snap = shared.cell.load();
            let stats = snap.stats();
            (
                ok_with_epoch(
                    &snap,
                    [
                        ("trajectories", JsonValue::from(stats.trajectories)),
                        ("segments", JsonValue::from(snap.segments())),
                        ("clusters", JsonValue::from(snap.clusters().len())),
                        (
                            "enqueued",
                            JsonValue::from(shared.next_id.load(Ordering::SeqCst)),
                        ),
                        ("core_flips", JsonValue::from(stats.core_flips)),
                        ("local_repairs", JsonValue::from(stats.local_repairs)),
                        ("removals", JsonValue::from(stats.removals)),
                        ("expired", JsonValue::from(stats.expired)),
                        (
                            "decremental_repairs",
                            JsonValue::from(stats.decremental_repairs),
                        ),
                        ("prune_candidates", u64_json(stats.prune_candidates)),
                        ("pruned_midpoint", u64_json(stats.pruned_midpoint)),
                        ("prune_refined", u64_json(stats.prune_refined)),
                    ],
                ),
                false,
            )
        }
        Ok(Request::Flush) => match round_trip(&shared.commands, EngineCommand::Flush) {
            Ok((_, epoch)) => (ok_at(epoch, []), false),
            Err(msg) => (error_reply(msg), false),
        },
        Ok(Request::Shutdown) => (JsonValue::object([("ok", JsonValue::from(true))]), true),
    }
}

/// `u64` counters (epochs and the stream's prune tallies) saturate into
/// the JSON integer space.
fn u64_json(v: u64) -> JsonValue {
    JsonValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn error_reply(msg: &str) -> JsonValue {
    JsonValue::object([
        ("ok", JsonValue::from(false)),
        ("error", JsonValue::from(msg)),
    ])
}

fn ok_with_epoch<const N: usize>(
    snap: &ClusterSnapshot<2>,
    fields: [(&'static str, JsonValue); N],
) -> JsonValue {
    ok_at(snap.epoch(), fields)
}

/// A success reply: `ok`, then `epoch`, then `fields` in order.
fn ok_at<const N: usize>(epoch: u64, fields: [(&'static str, JsonValue); N]) -> JsonValue {
    let mut pairs = vec![
        ("ok".to_string(), JsonValue::from(true)),
        ("epoch".to_string(), u64_json(epoch)),
    ];
    for (k, v) in fields {
        pairs.push((k.to_string(), v));
    }
    JsonValue::Object(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::CountingWriter;

    /// A client that keeps reading a little cannot stretch one reply past
    /// its deadline: each partial `send` would restart a plain socket
    /// timeout, so without the deadline the write runs until the client
    /// hangs up, two seconds in.
    #[test]
    fn a_trickling_reader_cannot_stretch_a_reply_past_its_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (served, _) = listener.accept().expect("accept");
        let trickle = std::thread::spawn(move || {
            let mut client = client;
            let mut chunk = vec![0u8; 64 << 10];
            for _ in 0..200 {
                let _ = client.read(&mut chunk);
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let mut writer = ReplyWriter {
            stream: served,
            deadline: now() + Duration::from_millis(300),
        };
        let started = now();
        let outcome = writer.write_all(&vec![b'x'; 32 << 20]);
        let elapsed = started.elapsed();
        // Hang up, so the reader sees the end of the stream once it has
        // drained what was sent.
        drop(writer);
        trickle.join().expect("trickling reader");
        assert!(outcome.is_err(), "32 MiB drained before the client hung up");
        assert!(elapsed < Duration::from_millis(1500), "{elapsed:?}");
    }

    #[test]
    fn large_reply_reaches_the_socket_in_one_write() {
        let reply = JsonValue::Object(vec![(
            "payload".to_string(),
            JsonValue::String("x".repeat(20 * 1024)),
        )]);
        let mut writer = CountingWriter::default();
        write_line(&mut writer, reply.to_compact()).unwrap();
        assert_eq!(writer.writes, 1, "reply split across writes");
        let mut expected = reply.to_compact().into_bytes();
        expected.push(b'\n');
        assert_eq!(writer.bytes, expected);
    }
}

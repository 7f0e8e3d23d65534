//! End-to-end tests over live TCP: a daemon on an ephemeral port, real
//! clients, and the concurrent-equivalence guarantee — every clustering
//! state a client observes over the wire corresponds to the batch
//! pipeline run on some prefix of the ingested trajectories.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test helpers outside #[test] functions, where a failed expectation fails the test"
)]

use std::net::SocketAddr;

use traclus_core::{Traclus, TraclusConfig};
use traclus_data::{HurricaneConfig, HurricaneGenerator};
use traclus_geom::Trajectory;
use traclus_json::JsonValue;
use traclus_server::{Client, Request, Server, ServerConfig};

fn fixture() -> (TraclusConfig, Vec<Trajectory<2>>) {
    let config = TraclusConfig {
        eps: 6.0,
        min_lns: 4,
        ..TraclusConfig::default()
    };
    let trajectories = HurricaneGenerator::new(HurricaneConfig {
        tracks: 18,
        seed: 2007,
        ..HurricaneConfig::default()
    })
    .generate();
    (config, trajectories)
}

/// Starts a daemon on an ephemeral port; returns its address and the
/// serving thread (joined for a clean exit check).
fn start(config: TraclusConfig) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    start_with(ServerConfig {
        traclus: config,
        ..ServerConfig::default()
    })
}

/// Starts a daemon with full control over the serving knobs (poll
/// interval, server-side window, …).
fn start_with(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn ingest_request(t: &Trajectory<2>) -> Request {
    Request::Ingest {
        points: t
            .points
            .iter()
            .map(|p| [p.coords[0], p.coords[1]])
            .collect(),
        weight: None,
    }
}

fn epoch_of(response: &JsonValue) -> u64 {
    response
        .get("epoch")
        .and_then(JsonValue::as_i64)
        .and_then(|e| u64::try_from(e).ok())
        .expect("response carries an epoch")
}

fn assert_ok(response: &JsonValue) {
    assert_eq!(
        response.get("ok"),
        Some(&JsonValue::Bool(true)),
        "expected ok response: {}",
        response.to_compact()
    );
}

/// Representative polylines of a batch run, as the exact wire floats.
fn batch_representatives(config: TraclusConfig, prefix: &[Trajectory<2>]) -> Vec<Polyline> {
    Traclus::new(config)
        .run(prefix)
        .clusters
        .iter()
        .map(|c| {
            c.representative
                .points
                .iter()
                .map(|p| [p.coords[0], p.coords[1]])
                .collect()
        })
        .collect()
}

/// A cluster's representative as decoded from the wire.
type Polyline = Vec<[f64; 2]>;

/// Decodes a `representatives` response into polylines.
fn wire_representatives(response: &JsonValue) -> Vec<Polyline> {
    response
        .get("clusters")
        .and_then(JsonValue::as_array)
        .expect("clusters array")
        .iter()
        .map(|c| {
            c.get("representative")
                .and_then(JsonValue::as_array)
                .expect("representative polyline")
                .iter()
                .map(|p| {
                    let xy = p.as_array().expect("[x, y]");
                    [xy[0].as_f64().expect("x"), xy[1].as_f64().expect("y")]
                })
                .collect()
        })
        .collect()
}

#[test]
fn ingest_flush_query_shutdown_round_trip() {
    let (config, trajectories) = fixture();
    let (addr, server) = start(config);
    let mut client = Client::connect(addr).expect("connect");

    // Ingest everything on one connection: ids come back dense and ordered.
    for (k, t) in trajectories.iter().enumerate() {
        let resp = client.request(&ingest_request(t)).expect("ingest");
        assert_ok(&resp);
        assert_eq!(
            resp.get("trajectory").and_then(JsonValue::as_i64),
            Some(k as i64),
            "single-connection ingest assigns dense ordered ids"
        );
    }

    // Flush: read-your-writes barrier. After it, stats must cover all.
    let resp = client.request(&Request::Flush).expect("flush");
    assert_ok(&resp);
    let resp = client.request(&Request::Stats).expect("stats");
    assert_ok(&resp);
    assert_eq!(
        resp.get("trajectories").and_then(JsonValue::as_i64),
        Some(trajectories.len() as i64)
    );
    assert_eq!(
        resp.get("enqueued").and_then(JsonValue::as_i64),
        Some(trajectories.len() as i64)
    );

    // The served representatives equal the batch pipeline's, float for
    // float: values cross the wire via shortest-round-trip Display, so
    // exact equality is the right assertion.
    let resp = client.request(&Request::Representatives).expect("reps");
    assert_ok(&resp);
    let batch = batch_representatives(config, &trajectories);
    assert_eq!(wire_representatives(&resp), batch);
    assert!(!batch.is_empty(), "fixture produces clusters");

    // Membership and region agree with the batch clustering.
    let batch_run = Traclus::new(config).run(&trajectories);
    let member = batch_run.clusters[0].cluster.trajectories[0];
    let resp = client
        .request(&Request::Membership {
            trajectory: member.0,
        })
        .expect("membership");
    assert_ok(&resp);
    let clusters = resp
        .get("clusters")
        .and_then(JsonValue::as_array)
        .expect("clusters");
    assert!(
        clusters
            .iter()
            .any(|c| c.as_i64() == Some(i64::from(batch_run.clusters[0].cluster.id.0))),
        "ingested member found in its batch cluster"
    );

    // Per-request timing annotation is present on every response.
    assert!(resp.get("micros").and_then(JsonValue::as_i64).is_some());

    // Malformed input on a live connection: typed error, connection and
    // daemon survive.
    let resp = client.send_raw("{\"op\": \"ingest\"").expect("raw garbage");
    assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(false)));
    assert!(resp.get("error").and_then(JsonValue::as_str).is_some());
    let resp = client.request(&Request::Stats).expect("still alive");
    assert_ok(&resp);

    // An inverted region is rejected at parse — the handler never reaches
    // `Aabb::new`'s min <= max assert, so the connection stays up.
    let resp = client
        .send_raw("{\"op\": \"region\", \"min\": [1, 0], \"max\": [0, 0]}")
        .expect("inverted region");
    assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(false)));
    assert!(resp.get("error").and_then(JsonValue::as_str).is_some());
    let resp = client.request(&Request::Stats).expect("still alive");
    assert_ok(&resp);

    // Graceful shutdown: acknowledged, then the serving thread exits.
    let resp = client.request(&Request::Shutdown).expect("shutdown");
    assert_ok(&resp);
    server
        .join()
        .expect("serving thread exits")
        .expect("clean shutdown");
}

#[test]
fn concurrent_readers_observe_only_batch_prefixes() {
    let (config, trajectories) = fixture();
    let (addr, server) = start(config);

    // Reader threads hammer `representatives` while the writer ingests.
    // A response carries the snapshot epoch and the full cluster list but
    // not the prefix length, so readers record (epoch → polylines) and
    // the verdict compares each observation against every prefix's batch
    // output at the end.
    let done = std::sync::atomic::AtomicBool::new(false);
    const READERS: usize = 2;

    let observed: Vec<Vec<(u64, Vec<Polyline>)>> = std::thread::scope(|s| {
        let done = &done;
        let mut readers = Vec::new();
        for _ in 0..READERS {
            readers.push(s.spawn(move || {
                let mut client = Client::connect(addr).expect("reader connect");
                let mut seen: Vec<(u64, Vec<Polyline>)> = Vec::new();
                let mut last_round = false;
                loop {
                    // Check the flag *before* requesting: the final
                    // request is then issued after the writer's flush
                    // barrier, so every reader records the fully-applied
                    // state at least once (a post-request check could
                    // break with only pre-flush observations recorded).
                    if done.load(std::sync::atomic::Ordering::SeqCst) {
                        last_round = true;
                    }
                    let resp = client
                        .request(&Request::Representatives)
                        .expect("representatives");
                    assert_ok(&resp);
                    let epoch = epoch_of(&resp);
                    if seen.last().map(|(e, _)| *e) != Some(epoch) {
                        seen.push((epoch, wire_representatives(&resp)));
                    }
                    if last_round {
                        break;
                    }
                }
                seen
            }));
        }

        let mut writer = Client::connect(addr).expect("writer connect");
        for t in &trajectories {
            let resp = writer.request(&ingest_request(t)).expect("ingest");
            assert_ok(&resp);
        }
        let resp = writer.request(&Request::Flush).expect("flush");
        assert_ok(&resp);
        done.store(true, std::sync::atomic::Ordering::SeqCst);

        let collected = readers
            .into_iter()
            .map(|r| r.join().expect("reader"))
            .collect();
        let resp = writer.request(&Request::Shutdown).expect("shutdown");
        assert_ok(&resp);
        collected
    });

    server
        .join()
        .expect("serving thread exits")
        .expect("clean shutdown");

    // Batch representatives for every prefix (including the empty one).
    let prefixes: Vec<Vec<Polyline>> = (0..=trajectories.len())
        .map(|k| batch_representatives(config, &trajectories[..k]))
        .collect();

    let mut matched_nonempty = false;
    for seen in &observed {
        for (epoch, polylines) in seen {
            assert!(
                prefixes.iter().any(|p| p == polylines),
                "epoch {epoch}: observed representatives match no batch prefix"
            );
            if !polylines.is_empty() {
                matched_nonempty = true;
            }
        }
        for pair in seen.windows(2) {
            assert!(pair[0].0 < pair[1].0, "epochs observed in order");
        }
    }
    // The final flushed state is non-empty for this fixture, and the
    // writer flushed before stopping the readers — so at least one reader
    // saw a real clustering.
    assert!(
        matched_nonempty,
        "readers observed a non-empty prefix state"
    );
}

/// A client that pauses mid-request spans several handler read timeouts;
/// the partial line must survive the timeouts and parse as one request
/// once the tail arrives (regression: the handler used to clear its
/// buffer every iteration, discarding bytes read before a timeout).
///
/// The pause here is the *scenario under test*, not synchronization — the
/// handler must time out while the line is incomplete. A short poll
/// interval makes one pause span many timeouts without a long wall-clock
/// sleep (the old shape slept 350ms against the default 100ms poll).
#[test]
fn requests_paused_mid_line_survive_read_timeouts() {
    use std::io::{BufRead, BufReader, Write};

    let (config, _) = fixture();
    let (addr, server) = start_with(ServerConfig {
        traclus: config,
        poll_interval: std::time::Duration::from_millis(10),
        ..ServerConfig::default()
    });
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let line = "{\"op\": \"stats\"}\n";
    let (head, tail) = line.split_at(8);
    stream.write_all(head.as_bytes()).expect("head");
    stream.flush().expect("flush head");
    // Several handler poll intervals (10ms) elapse mid-line.
    std::thread::sleep(std::time::Duration::from_millis(60));
    stream.write_all(tail.as_bytes()).expect("tail");
    stream.flush().expect("flush tail");

    let mut response = String::new();
    reader.read_line(&mut response).expect("response");
    let value = JsonValue::parse(&response).expect("response is JSON");
    assert_eq!(
        value.get("ok"),
        Some(&JsonValue::Bool(true)),
        "split request must parse as one stats request: {response}"
    );
    assert!(value.get("trajectories").is_some());

    stream
        .write_all(b"{\"op\": \"shutdown\"}\n")
        .expect("shutdown");
    response.clear();
    reader.read_line(&mut response).expect("shutdown ack");
    server.join().expect("join").expect("clean shutdown");
}

/// A client that never sends a newline cannot grow the server's line
/// buffer without bound: one byte past the cap it gets a typed error and
/// then EOF, and a second client is still served.
///
/// The client sends exactly one byte more than the cap, so the server has
/// read everything it was sent when it closes (the close is then a clean
/// FIN, not a reset that could swallow the error reply).
#[test]
fn oversized_request_line_is_refused_and_closed() {
    use std::io::{BufRead, BufReader, Write};
    use traclus_server::protocol::MAX_LINE_BYTES;

    let (config, _) = fixture();
    let (addr, server) = start(config);
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    // Fail rather than hang should the server wait for the newline.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream
        .write_all(&vec![b' '; MAX_LINE_BYTES + 1])
        .expect("oversized line");
    stream.flush().expect("flush");

    let mut response = String::new();
    reader.read_line(&mut response).expect("error reply");
    let value = JsonValue::parse(response.trim_end()).expect("reply is JSON");
    assert_eq!(value.get("ok"), Some(&JsonValue::Bool(false)), "{response}");
    let error = value.get("error").and_then(JsonValue::as_str);
    assert_eq!(
        error,
        Some(format!("request line exceeds {MAX_LINE_BYTES} bytes").as_str())
    );
    response.clear();
    assert_eq!(
        reader.read_line(&mut response).expect("clean close"),
        0,
        "the connection closes after the error: {response:?}"
    );

    let mut client = Client::connect(addr).expect("second client");
    assert_ok(&client.request(&Request::Stats).expect("stats"));
    assert_ok(&client.request(&Request::Shutdown).expect("shutdown"));
    server.join().expect("join").expect("clean shutdown");
}

/// A request line that is not UTF-8 gets a typed error, like a line that
/// is not JSON, and the connection goes on serving.
#[test]
fn a_line_that_is_not_utf8_is_refused_and_the_connection_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};

    let (config, _) = fixture();
    let (addr, server) = start(config);
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    // Fail rather than hang should the server never answer.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream
        .write_all(b"\xff\xfe\n{\"op\": \"stats\"}\n")
        .expect("requests");
    stream.flush().expect("flush");

    let mut response = String::new();
    reader.read_line(&mut response).expect("error reply");
    let value = JsonValue::parse(response.trim_end()).expect("reply is JSON");
    assert_eq!(value.get("ok"), Some(&JsonValue::Bool(false)), "{response}");
    assert_eq!(
        value.get("error").and_then(JsonValue::as_str),
        Some("request line is not valid UTF-8")
    );
    response.clear();
    reader.read_line(&mut response).expect("stats reply");
    assert_ok(&JsonValue::parse(response.trim_end()).expect("reply is JSON"));

    stream
        .write_all(b"{\"op\": \"shutdown\"}\n")
        .expect("shutdown");
    response.clear();
    reader.read_line(&mut response).expect("shutdown ack");
    server.join().expect("join").expect("clean shutdown");
}

/// Ingests past the point cap or with coordinates beyond the magnitude
/// cap get typed errors at the wire, and the daemon keeps serving. The
/// huge coordinates would overflow the distance kernels: a debug build's
/// engine thread would panic on them, and a release build would compute
/// NaN geometry.
#[test]
fn oversized_ingests_are_refused_and_the_daemon_keeps_serving() {
    use traclus_server::protocol::{MAX_COORDINATE, MAX_INGEST_POINTS};

    let (config, trajectories) = fixture();
    let (addr, server) = start(config);
    let mut client = Client::connect(addr).expect("connect");
    let refused = |response: &JsonValue, error: String| {
        assert_eq!(response.get("ok"), Some(&JsonValue::Bool(false)));
        assert_eq!(
            response.get("error").and_then(JsonValue::as_str),
            Some(error.as_str())
        );
    };

    let huge =
        r#"{"op": "ingest", "points": [[1e300, 1e300], [1.5e300, 1e300], [1.5e300, 1.7e300]]}"#;
    let response = client.send_raw(huge).expect("huge-coordinate ingest");
    refused(
        &response,
        format!("ingest: a coordinate exceeds {MAX_COORDINATE:e} in magnitude"),
    );
    // A `nearest` probe this far out squared its distances to infinity;
    // it is refused under the same cap.
    let response = client
        .send_raw(r#"{"op": "nearest", "point": [1e200, 0]}"#)
        .expect("huge-coordinate nearest");
    refused(
        &response,
        format!("nearest: a coordinate exceeds {MAX_COORDINATE:e} in magnitude"),
    );
    let long = Request::Ingest {
        points: (0..=MAX_INGEST_POINTS)
            .map(|k| [k as f64, (k % 7) as f64])
            .collect(),
        weight: None,
    };
    let response = client.request(&long).expect("over-long ingest");
    refused(
        &response,
        format!("ingest: more than {MAX_INGEST_POINTS} points"),
    );

    // The same connection still ingests, applies and serves.
    let prefix = &trajectories[..6];
    for t in prefix {
        assert_ok(&client.request(&ingest_request(t)).expect("ingest"));
    }
    assert_ok(&client.request(&Request::Flush).expect("flush"));
    let response = client.request(&Request::Stats).expect("stats");
    assert_ok(&response);
    assert_eq!(
        response.get("trajectories").and_then(JsonValue::as_i64),
        Some(prefix.len() as i64),
        "only the valid ingests were queued"
    );
    let response = client
        .request(&Request::Representatives)
        .expect("representatives");
    assert_ok(&response);
    assert_eq!(
        wire_representatives(&response),
        batch_representatives(config, prefix)
    );
    assert_ok(&client.request(&Request::Shutdown).expect("shutdown"));
    server.join().expect("join").expect("clean shutdown");
}

#[test]
fn queries_on_an_empty_daemon_are_well_formed() {
    let (config, _) = fixture();
    let (addr, server) = start(config);
    let mut client = Client::connect(addr).expect("connect");

    let resp = client
        .request(&Request::Nearest { point: [0.0, 0.0] })
        .expect("nearest");
    assert_ok(&resp);
    assert_eq!(resp.get("cluster"), Some(&JsonValue::Null));
    assert_eq!(resp.get("distance"), Some(&JsonValue::Null));

    let resp = client
        .request(&Request::Membership { trajectory: 0 })
        .expect("membership");
    assert_ok(&resp);
    assert_eq!(
        resp.get("clusters")
            .and_then(JsonValue::as_array)
            .map(<[_]>::len),
        Some(0)
    );

    let resp = client
        .request(&Request::Region {
            min: [0.0, 0.0],
            max: [1.0, 1.0],
        })
        .expect("region");
    assert_ok(&resp);
    assert_eq!(epoch_of(&resp), 0);

    let resp = client.request(&Request::Shutdown).expect("shutdown");
    assert_ok(&resp);
    server.join().expect("join").expect("clean shutdown");
}

/// `remove` and `expire` over the wire are synchronous and exact: each
/// reply's epoch reflects the published post-removal snapshot, and the
/// served representatives equal the batch pipeline on the live window.
#[test]
fn remove_and_expire_round_trip_over_the_wire() {
    let (config, trajectories) = fixture();
    let (addr, server) = start(config);
    let mut client = Client::connect(addr).expect("connect");

    for t in &trajectories {
        assert_ok(&client.request(&ingest_request(t)).expect("ingest"));
    }
    assert_ok(&client.request(&Request::Flush).expect("flush"));

    // Remove the first trajectory: the reply is the applied report, and a
    // subsequent read observes the post-removal clustering (no sleep, no
    // extra flush — the remove reply *is* the barrier).
    let resp = client
        .request(&Request::Remove { trajectory: 0 })
        .expect("remove");
    assert_ok(&resp);
    assert_eq!(
        resp.get("removed_trajectories").and_then(JsonValue::as_i64),
        Some(1)
    );
    let removal_epoch = epoch_of(&resp);
    let resp = client.request(&Request::Representatives).expect("reps");
    assert_ok(&resp);
    assert!(epoch_of(&resp) >= removal_epoch, "read-your-removal");
    assert_eq!(
        wire_representatives(&resp),
        batch_representatives(config, &trajectories[1..])
    );

    // Removing it again is a no-op, not an error.
    let resp = client
        .request(&Request::Remove { trajectory: 0 })
        .expect("re-remove");
    assert_ok(&resp);
    assert_eq!(
        resp.get("removed_trajectories").and_then(JsonValue::as_i64),
        Some(0)
    );

    // Expire down to the 10 newest: 17 live - 10 = 7 expired, and the
    // served state equals the batch run on that suffix.
    let resp = client
        .request(&Request::Expire { keep: 10 })
        .expect("expire");
    assert_ok(&resp);
    assert_eq!(resp.get("expired").and_then(JsonValue::as_i64), Some(7));
    let resp = client.request(&Request::Representatives).expect("reps");
    assert_ok(&resp);
    assert_eq!(
        wire_representatives(&resp),
        batch_representatives(config, &trajectories[8..])
    );

    // The decremental counters surface through `stats`.
    let resp = client.request(&Request::Stats).expect("stats");
    assert_ok(&resp);
    assert_eq!(resp.get("removals").and_then(JsonValue::as_i64), Some(8));
    assert_eq!(resp.get("expired").and_then(JsonValue::as_i64), Some(7));

    assert_ok(&client.request(&Request::Shutdown).expect("shutdown"));
    server.join().expect("join").expect("clean shutdown");
}

/// A daemon bound with `window: Some(n)` self-prunes between publishes:
/// after ingesting past the cap, reads observe exactly the batch run on
/// the `n` newest trajectories, with no client-driven expiry.
#[test]
fn server_side_window_self_prunes() {
    let (config, trajectories) = fixture();
    let (addr, server) = start_with(ServerConfig {
        traclus: config,
        window: Some(8),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    for t in &trajectories {
        assert_ok(&client.request(&ingest_request(t)).expect("ingest"));
    }
    assert_ok(&client.request(&Request::Flush).expect("flush"));

    let resp = client.request(&Request::Stats).expect("stats");
    assert_ok(&resp);
    assert_eq!(
        resp.get("expired").and_then(JsonValue::as_i64),
        Some((trajectories.len() - 8) as i64),
        "everything past the window aged out automatically"
    );
    let resp = client.request(&Request::Representatives).expect("reps");
    assert_ok(&resp);
    assert_eq!(
        wire_representatives(&resp),
        batch_representatives(config, &trajectories[trajectories.len() - 8..])
    );

    assert_ok(&client.request(&Request::Shutdown).expect("shutdown"));
    server.join().expect("join").expect("clean shutdown");
}

/// Random interleavings of ingests (some weighted), removals, expiries,
/// malformed lines and flushes on one connection: after every flush the
/// served `stats`, representatives and memberships equal the batch run on
/// the live window, which a model tracks from the requests alone. Ids are
/// dense in request order on one connection, a removal drops its id, and
/// an expiry keeps the newest `keep` live trajectories.
#[test]
fn random_wire_interleavings_equal_batch_after_every_flush() {
    const MALFORMED: [&str; 5] = [
        "this is not json",
        r#"{"op": "teleport"}"#,
        r#"{"op": "remove"}"#,
        r#"{"op": "ingest", "points": [[0, 0], [1e51, 0]]}"#,
        "[1, 2, 3]",
    ];
    let (config, pool) = fixture();
    let mut most_clusters = 0;
    for seed in [1u64, 2, 3] {
        let (addr, server) = start(config);
        let mut client = Client::connect(addr).expect("connect");
        // The soak test's split-mix step, seeded per run.
        let mut rng = 0x9E37_79B9_7F4A_7C15 ^ seed;
        let mut draw = |bound: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };
        let mut live: Vec<Trajectory<2>> = Vec::new();
        let mut assigned = 0u32;
        for step in 0..80 {
            let op = draw(20);
            if op <= 9 || (op <= 12 && assigned == 0) {
                let t = &pool[draw(pool.len() as u64) as usize];
                let weight = (draw(3) == 0).then(|| 0.5 + 0.75 * draw(1001) as f64 / 1000.0);
                let request = Request::Ingest {
                    points: t
                        .points
                        .iter()
                        .map(|p| [p.coords[0], p.coords[1]])
                        .collect(),
                    weight,
                };
                let resp = client.request(&request).expect("ingest");
                assert_ok(&resp);
                let id = traclus_geom::TrajectoryId(assigned);
                assert_eq!(
                    resp.get("trajectory").and_then(JsonValue::as_i64),
                    Some(i64::from(assigned))
                );
                live.push(match weight {
                    Some(w) => Trajectory::with_weight(id, t.points.clone(), w),
                    None => Trajectory::new(id, t.points.clone()),
                });
                assigned += 1;
            } else if op <= 12 {
                let id = draw(u64::from(assigned)) as u32;
                let resp = client
                    .request(&Request::Remove { trajectory: id })
                    .expect("remove");
                assert_ok(&resp);
                let before = live.len();
                live.retain(|t| t.id.0 != id);
                assert_eq!(
                    resp.get("removed_trajectories").and_then(JsonValue::as_i64),
                    Some((before - live.len()) as i64),
                    "seed {seed} step {step}: remove {id}"
                );
            } else if op <= 14 {
                let keep = draw(12) as usize;
                let resp = client.request(&Request::Expire { keep }).expect("expire");
                assert_ok(&resp);
                let expired = live.len().saturating_sub(keep);
                live.drain(..expired);
                assert_eq!(
                    resp.get("expired").and_then(JsonValue::as_i64),
                    Some(expired as i64),
                    "seed {seed} step {step}: expire to {keep}"
                );
            } else if op <= 16 {
                let line = MALFORMED[draw(MALFORMED.len() as u64) as usize];
                let resp = client.send_raw(line).expect("malformed line");
                assert_eq!(
                    resp.get("ok"),
                    Some(&JsonValue::Bool(false)),
                    "seed {seed} step {step}: {line}"
                );
            } else {
                assert_ok(&client.request(&Request::Flush).expect("flush"));
                let batch = Traclus::new(config).run(&live);
                let context = format!("seed {seed} step {step}, {} live", live.len());
                let resp = client.request(&Request::Stats).expect("stats");
                assert_ok(&resp);
                assert_eq!(
                    resp.get("segments").and_then(JsonValue::as_i64),
                    Some(batch.database.len() as i64),
                    "{context}"
                );
                let resp = client.request(&Request::Representatives).expect("reps");
                assert_ok(&resp);
                assert_eq!(
                    wire_representatives(&resp),
                    batch_representatives(config, &live),
                    "{context}"
                );
                for t in &live {
                    let resp = client
                        .request(&Request::Membership { trajectory: t.id.0 })
                        .expect("membership");
                    assert_ok(&resp);
                    let served: Vec<i64> = resp
                        .get("clusters")
                        .and_then(JsonValue::as_array)
                        .expect("clusters")
                        .iter()
                        .map(|c| c.as_i64().expect("cluster id"))
                        .collect();
                    let expected: Vec<i64> = batch
                        .clusters
                        .iter()
                        .filter(|c| c.cluster.trajectories.contains(&t.id))
                        .map(|c| i64::from(c.cluster.id.0))
                        .collect();
                    assert_eq!(served, expected, "{context}: membership of {}", t.id);
                }
                most_clusters = most_clusters.max(batch.clusters.len());
            }
        }
        assert_ok(&client.request(&Request::Shutdown).expect("shutdown"));
        server.join().expect("join").expect("clean shutdown");
    }
    assert!(most_clusters > 0, "some flushed window must hold a cluster");
}

/// Soak: four connections drive a mixed ingest + removal + expiry + query
/// workload — 2000 requests total, every op of the protocol but shutdown —
/// against a windowed daemon. Every response is `ok`, every connection's
/// observed epochs are monotone non-decreasing, the served `trajectories`
/// counter equals the ingests sent once they are flushed, and the daemon
/// shuts down cleanly (a handler or engine panic would re-raise out of
/// `Server::run`).
#[test]
fn soak_mixed_workload_from_four_connections() {
    const CONNECTIONS: usize = 4;
    const REQUESTS_PER_CONNECTION: usize = 500;

    // Light synthetic corridors (not the hurricane fixture): the soak is
    // about protocol/engine liveness under churn, not clustering quality,
    // and 2000 requests must not cost minutes of clustering work.
    let (config, _) = fixture();
    let trajectories: Vec<Trajectory<2>> = (0..12u32)
        .map(|i| {
            Trajectory::new(
                traclus_geom::TrajectoryId(i),
                (0..6)
                    .map(|k| traclus_geom::Point2::xy(f64::from(k) * 8.0, f64::from(i) * 1.5))
                    .collect(),
            )
        })
        .collect();
    let (addr, server) = start_with(ServerConfig {
        traclus: config,
        poll_interval: std::time::Duration::from_millis(10),
        window: Some(48),
        ..ServerConfig::default()
    });

    let ingests: usize = std::thread::scope(|s| {
        let trajectories = &trajectories;
        let mut workers = Vec::new();
        for worker in 0..CONNECTIONS {
            workers.push(s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Deterministic per-connection mix (split-mix step).
                let mut rng: u64 = 0x9E37_79B9_7F4A_7C15 ^ (worker as u64);
                let mut draw = |bound: u64| {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (rng >> 33) % bound
                };
                let mut last_epoch = 0u64;
                let mut ingests = 0;
                for _ in 0..REQUESTS_PER_CONNECTION {
                    let request = match draw(12) {
                        0..=3 => {
                            ingests += 1;
                            ingest_request(&trajectories[draw(trajectories.len() as u64) as usize])
                        }
                        4 => Request::Remove {
                            trajectory: draw(96) as u32,
                        },
                        5 => Request::Expire {
                            keep: 16 + draw(32) as usize,
                        },
                        6 => Request::Representatives,
                        7 => Request::Stats,
                        8 => Request::Membership {
                            trajectory: draw(96) as u32,
                        },
                        9 => Request::Nearest {
                            point: [draw(48) as f64, draw(18) as f64],
                        },
                        10 => {
                            let min = [draw(40) as f64, draw(16) as f64];
                            Request::Region {
                                min,
                                max: [min[0] + 8.0, min[1] + 3.0],
                            }
                        }
                        _ => Request::Flush,
                    };
                    let resp = client.request(&request).expect("request");
                    assert_ok(&resp);
                    if let Some(epoch) = resp
                        .get("epoch")
                        .and_then(JsonValue::as_i64)
                        .and_then(|e| u64::try_from(e).ok())
                    {
                        assert!(
                            epoch >= last_epoch,
                            "connection {worker} observed epoch {epoch} after {last_epoch}"
                        );
                        last_epoch = epoch;
                    }
                }
                ingests
            }));
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("soak connection panicked"))
            .sum()
    });

    // The window bounds live state no matter what the workload did.
    let mut client = Client::connect(addr).expect("connect");
    assert_ok(&client.request(&Request::Flush).expect("flush"));
    let resp = client.request(&Request::Stats).expect("stats");
    assert_ok(&resp);
    let ingested = resp
        .get("trajectories")
        .and_then(JsonValue::as_i64)
        .expect("trajectories counter");
    // Every ingest reply was `ok`, so each was queued, and the flush above
    // applied them all; removals never lower the counter.
    assert_eq!(ingested, ingests as i64, "every acknowledged ingest served");
    let removed = resp
        .get("removals")
        .and_then(JsonValue::as_i64)
        .expect("removals counter");
    assert!(ingested - removed <= 48, "live window stays under the cap");

    assert_ok(&client.request(&Request::Shutdown).expect("shutdown"));
    server.join().expect("join").expect("clean shutdown");
}

/// A weighted daemon refuses a weight past `MAX_WEIGHT` with a typed
/// error, accepts one at the cap, and serves only finite representative
/// coordinates. Six tracks near 1e9 at weight 1e300 used to reach the
/// weighted sweep, which overflowed to `(NaN, inf)` representative points
/// — JSON `null` on the wire.
#[test]
fn weights_above_the_cap_are_refused_and_representatives_stay_finite() {
    use traclus_server::protocol::MAX_WEIGHT;

    let config = TraclusConfig {
        eps: 6.0,
        min_lns: 4,
        weighted: true,
        ..TraclusConfig::default()
    };
    let (addr, server) = start(config);
    let mut client = Client::connect(addr).expect("connect");
    let track = |i: usize, weight: f64| Request::Ingest {
        points: (0..12)
            .map(|k| [1e9 + k as f64 * 5.0, 1e9 + i as f64 * 0.5])
            .collect(),
        weight: Some(weight),
    };

    let response = client.request(&track(0, 1e300)).expect("heavy ingest");
    assert_eq!(response.get("ok"), Some(&JsonValue::Bool(false)));
    assert_eq!(
        response.get("error").and_then(JsonValue::as_str),
        Some(format!("ingest: the weight exceeds {MAX_WEIGHT:e}").as_str())
    );
    for i in 0..6 {
        assert_ok(&client.request(&track(i, MAX_WEIGHT)).expect("ingest"));
    }
    assert_ok(&client.request(&Request::Flush).expect("flush"));
    let response = client.request(&Request::Stats).expect("stats");
    assert_eq!(
        response.get("trajectories").and_then(JsonValue::as_i64),
        Some(6),
        "only the ingests within the cap were queued"
    );

    let response = client
        .request(&Request::Representatives)
        .expect("representatives");
    assert_ok(&response);
    let representatives = wire_representatives(&response);
    assert!(!representatives.is_empty(), "the tracks cluster");
    for point in representatives.iter().flatten() {
        assert!(
            point.iter().all(|c| c.is_finite()),
            "non-finite representative point {point:?}"
        );
    }
    assert_ok(&client.request(&Request::Shutdown).expect("shutdown"));
    server.join().expect("join").expect("clean shutdown");
}

/// A client that pipelines requests and never reads the replies fills
/// both socket buffers and blocks its handler in a write. A `shutdown`
/// from another client must still return from `run` once that write times
/// out, instead of joining the handler forever.
#[test]
fn a_client_that_never_reads_cannot_hang_shutdown() {
    use std::io::Write;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;
    use traclus_server::WRITE_TIMEOUT;

    let (config, trajectories) = fixture();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            traclus: config,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    // Joined through a channel, so a hung `run` fails the test instead of
    // hanging it.
    let (done_tx, done_rx) = mpsc::channel();
    let runner = std::thread::spawn(move || done_tx.send(server.run()));
    let mut client = Client::connect(addr).expect("connect");
    for t in &trajectories {
        assert_ok(&client.request(&ingest_request(t)).expect("ingest"));
    }
    assert_ok(&client.request(&Request::Flush).expect("flush"));

    // The stalled client's own writes block once its handler stops
    // reading, so a helper thread sends the requests; it stops when a
    // write fails, i.e. once the daemon drops the connection.
    let stalled = std::net::TcpStream::connect(addr).expect("connect");
    let sent = Arc::new(AtomicUsize::new(0));
    let sender = {
        let mut stream = stalled.try_clone().expect("clone");
        let sent = Arc::clone(&sent);
        std::thread::spawn(move || {
            let line = format!("{}\n", Request::Representatives.to_line());
            while stream.write_all(line.as_bytes()).is_ok() {
                sent.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    // Both buffers are full once the count stops moving for half a
    // second; give up after a minute.
    let (mut last, mut still) = (0, 0);
    for _ in 0..600 {
        std::thread::sleep(Duration::from_millis(100));
        let now = sent.load(Ordering::SeqCst);
        (last, still) = if now == last {
            (now, still + 1)
        } else {
            (now, 0)
        };
        if still == 5 {
            break;
        }
    }
    assert!(still == 5 && last > 0, "the stalled client never blocked");

    assert_ok(&client.request(&Request::Shutdown).expect("shutdown"));
    let outcome = done_rx
        .recv_timeout(WRITE_TIMEOUT + Duration::from_secs(5))
        .expect("run() must return within WRITE_TIMEOUT of the shutdown");
    outcome.expect("clean shutdown");
    runner.join().expect("join").expect("result received");
    sender.join().expect("the sender ends with the connection");
    drop(stalled);
}

/// Idle clients cannot lock the daemon out. With one handler slot, a
/// client that connects and sends nothing holds it only until
/// `IDLE_POLLS` poll intervals pass; then its connection is closed and a
/// second client, queued behind it, is answered. Every wait is bounded,
/// so a daemon that keeps the idle client fails the test instead of
/// hanging it.
#[test]
fn idle_clients_are_dropped_and_cannot_lock_the_daemon() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;
    use traclus_server::IDLE_POLLS;

    let (config, _) = fixture();
    let poll = Duration::from_millis(2);
    let (addr, server) = start_with(ServerConfig {
        traclus: config,
        poll_interval: poll,
        max_connections: 1,
        ..ServerConfig::default()
    });
    let idle_limit = poll * IDLE_POLLS;
    let bound = idle_limit + Duration::from_secs(10);

    let mut idle = TcpStream::connect(addr).expect("connect the idle client");
    idle.set_read_timeout(Some(bound)).expect("read timeout");
    // The second client's request waits in its socket until the idle
    // client's handler frees the only slot.
    let mut queued = TcpStream::connect(addr).expect("connect the queued client");
    queued.set_read_timeout(Some(bound)).expect("read timeout");
    let mut replies = BufReader::new(queued.try_clone().expect("clone"));
    queued
        .write_all(format!("{}\n", Request::Stats.to_line()).as_bytes())
        .expect("send stats");

    // The daemon closes the idle connection: EOF, not a read timeout.
    let mut byte = [0u8; 1];
    let read = idle.read(&mut byte);
    assert!(
        matches!(read, Ok(0)),
        "the idle connection must be closed within {bound:?}, got {read:?}"
    );

    let mut reply = String::new();
    replies
        .read_line(&mut reply)
        .expect("the queued client is answered once the idle one is dropped");
    assert_ok(&JsonValue::parse(reply.trim_end()).expect("stats reply is JSON"));

    queued
        .write_all(format!("{}\n", Request::Shutdown.to_line()).as_bytes())
        .expect("send shutdown");
    reply.clear();
    replies.read_line(&mut reply).expect("shutdown reply");
    assert_ok(&JsonValue::parse(reply.trim_end()).expect("shutdown reply is JSON"));
    server.join().expect("join").expect("clean shutdown");
}

/// A zero poll interval is floored, not handed to the socket: a zero read
/// timeout is refused, and a handler whose read has no timeout never sees
/// the shutdown flag while its client stays idle. With one idle client
/// connected, `run` must still return soon after another client's
/// `shutdown`.
#[test]
fn a_zero_poll_interval_cannot_hang_shutdown() {
    use std::net::TcpStream;
    use std::sync::mpsc;
    use std::time::Duration;

    let (config, _) = fixture();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            traclus: config,
            poll_interval: Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    // Joined through a channel, so a hung `run` fails the test instead of
    // hanging it.
    let (done_tx, done_rx) = mpsc::channel();
    let runner = std::thread::spawn(move || done_tx.send(server.run()));
    let idle = TcpStream::connect(addr).expect("connect the idle client");
    let mut client = Client::connect(addr).expect("connect");
    assert_ok(&client.request(&Request::Shutdown).expect("shutdown"));
    let outcome = done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("run() must return within 5 s of the shutdown");
    outcome.expect("clean shutdown");
    runner.join().expect("join").expect("result received");
    drop(idle);
}

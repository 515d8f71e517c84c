//! The TCP accept loop: `std::net`, one thread per connection, one
//! shared [`SpaApi`] behind them all.
//!
//! Connections speak the [`wire`] protocol: read one
//! framed, enveloped request, dispatch it, write one framed response,
//! repeat until the peer closes. Corruption handling mirrors the
//! write-ahead log's:
//!
//! * a frame with a CRC mismatch gets a loud [`ApiResponse::Error`]
//!   answer and the connection is closed (after a failed checksum the
//!   stream's framing cannot be trusted);
//! * a torn frame (peer died mid-request) is dropped whole — never
//!   half-dispatched — and the connection closed.
//!
//! On top of that sits the robustness contract ([`ServeOptions`]):
//!
//! * **admission control** — a connection cap refused at accept time
//!   and a bounded in-flight limit shed with a fast-fail
//!   [`ERR_SERVER_BUSY`] answer (the envelope is still decoded, so the
//!   rejection carries the request id the client is waiting on);
//! * **timeouts** — per-connection socket read/write timeouts; peers
//!   idle past [`ServeOptions::idle_timeout`] are reaped
//!   (`idle_reaped`), peers stalling **mid-frame** are cut immediately
//!   as slow-loris suspects (`slow_reaped`);
//! * **graceful drain** — [`ServerHandle::drain`] stops accepting,
//!   answers new frames [`ERR_DRAINING`], lets in-flight requests
//!   finish, checkpoints the platform and only then returns;
//! * **hard kill** — [`ServerHandle::hard_kill`] severs every
//!   connection with no goodbye and no checkpoint, modelling `SIGKILL`
//!   for the process-kill chaos soak.
//!
//! Everything is counted in [`ServerStats`], so a harness can assert
//! that every corruption, shed, reap and dedup replay it provoked was
//! seen and accounted.

use crate::netfault::{CallFault, NetFaultPlan};
use crate::wire::{self, FrameEvent};
use bytes::BytesMut;
use spa_core::{ApiRequest, ApiResponse, Dispatched, SpaApi, ERR_DRAINING, ERR_SERVER_BUSY};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Monotonic counters of what the server has seen, shared across all
/// connection threads.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections refused at accept time (connection cap).
    pub connections_refused: AtomicU64,
    /// Requests dispatched and answered (including `Error` answers to
    /// well-framed but malformed requests).
    pub frames_served: AtomicU64,
    /// Frames rejected for corruption: CRC mismatch, oversized length,
    /// or a torn request.
    pub corrupt_frames: AtomicU64,
    /// Requests fast-failed with [`ERR_SERVER_BUSY`] because the
    /// in-flight limit was reached (never dispatched).
    pub sheds: AtomicU64,
    /// Connections reaped for sitting idle past the idle timeout
    /// without sending a byte.
    pub idle_reaped: AtomicU64,
    /// Connections cut for stalling mid-frame (slow-loris defense).
    pub slow_reaped: AtomicU64,
    /// Requests refused with [`ERR_DEADLINE_EXCEEDED`]
    /// (arrived past their envelope deadline; never executed).
    ///
    /// [`ERR_DEADLINE_EXCEEDED`]: spa_core::ERR_DEADLINE_EXCEEDED
    pub deadline_rejects: AtomicU64,
    /// Requests answered byte-identically from the dedup window
    /// instead of re-executing (idempotent retries).
    pub dedup_hits: AtomicU64,
    /// Frames refused with [`ERR_DRAINING`] after a drain began.
    pub drain_rejects: AtomicU64,
    /// Response paths severed by the server-side [`NetFaultPlan`].
    pub injected_disconnects: AtomicU64,
}

/// A plain-value snapshot of [`ServerStats`], for accumulating across
/// server incarnations in a chaos harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)] // field-for-field mirror of ServerStats
pub struct ServerCounts {
    pub connections: u64,
    pub connections_refused: u64,
    pub frames_served: u64,
    pub corrupt_frames: u64,
    pub sheds: u64,
    pub idle_reaped: u64,
    pub slow_reaped: u64,
    pub deadline_rejects: u64,
    pub dedup_hits: u64,
    pub drain_rejects: u64,
    pub injected_disconnects: u64,
}

impl ServerCounts {
    /// Field-wise accumulation (counters die with an incarnation).
    pub fn accumulate(&mut self, other: ServerCounts) {
        self.connections += other.connections;
        self.connections_refused += other.connections_refused;
        self.frames_served += other.frames_served;
        self.corrupt_frames += other.corrupt_frames;
        self.sheds += other.sheds;
        self.idle_reaped += other.idle_reaped;
        self.slow_reaped += other.slow_reaped;
        self.deadline_rejects += other.deadline_rejects;
        self.dedup_hits += other.dedup_hits;
        self.drain_rejects += other.drain_rejects;
        self.injected_disconnects += other.injected_disconnects;
    }
}

impl ServerStats {
    /// Snapshot of every counter.
    pub fn counts(&self) -> ServerCounts {
        ServerCounts {
            connections: self.connections.load(Ordering::Relaxed),
            connections_refused: self.connections_refused.load(Ordering::Relaxed),
            frames_served: self.frames_served.load(Ordering::Relaxed),
            corrupt_frames: self.corrupt_frames.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            idle_reaped: self.idle_reaped.load(Ordering::Relaxed),
            slow_reaped: self.slow_reaped.load(Ordering::Relaxed),
            deadline_rejects: self.deadline_rejects.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            drain_rejects: self.drain_rejects.load(Ordering::Relaxed),
            injected_disconnects: self.injected_disconnects.load(Ordering::Relaxed),
        }
    }
}

/// Admission, timeout and fault-injection knobs for one server.
#[derive(Clone)]
pub struct ServeOptions {
    /// Most connections served at once; further accepts are answered
    /// with one [`ERR_SERVER_BUSY`] frame and closed. `0` = unlimited.
    pub max_connections: usize,
    /// Most requests dispatching at once across all connections;
    /// requests beyond it are shed fast with [`ERR_SERVER_BUSY`]
    /// instead of queueing. `0` = unlimited.
    pub max_in_flight: usize,
    /// Socket read timeout. Bounds how long a peer may stall
    /// **mid-frame** before being cut (slow-loris defense), and sets
    /// the granularity at which idle peers are checked. `None`
    /// disables both (a silent peer then pins its thread forever).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout (a peer that stops draining its receive
    /// window cannot pin a response write forever).
    pub write_timeout: Option<Duration>,
    /// Connections idle (on a frame boundary) past this are reaped.
    /// Requires `read_timeout` to be set; checked at its granularity.
    pub idle_timeout: Option<Duration>,
    /// Server-side response-path fault injection (chaos only).
    pub fault: Option<Arc<NetFaultPlan>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            max_connections: 256,
            max_in_flight: 64,
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            idle_timeout: Some(Duration::from_secs(60)),
            fault: None,
        }
    }
}

/// What a graceful drain accomplished.
#[derive(Debug)]
pub struct DrainReport {
    /// Connections still live when the drain began.
    pub connections_at_drain: usize,
    /// Whether every connection finished within the drain's bounded
    /// wait (a `false` means a peer was still attached when the
    /// checkpoint was cut — its in-flight request had already
    /// dispatched or been refused).
    pub quiesced: bool,
    /// The checkpoint answer (an `Error` response on platforms
    /// without a write-ahead log, where there is nothing to cut).
    pub checkpoint: ApiResponse,
}

/// State shared by the accept loop, every connection thread and the
/// handle.
struct Shared {
    api: Arc<SpaApi>,
    stats: Arc<ServerStats>,
    options: ServeOptions,
    in_flight: AtomicUsize,
    /// Counted apart from `Shared`, so a connection thread can drop its
    /// `Shared` (and with it the facade) first and leave the count last.
    live_connections: Arc<AtomicUsize>,
    draining: AtomicBool,
    shutdown: AtomicBool,
    /// `try_clone`d handles of every live connection, so drain can
    /// nudge idle peers and hard-kill can sever everyone.
    registry: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

/// A running server: its bound address, its counters, and its
/// lifecycle controls. Dropping the handle stops the accept loop;
/// already-accepted connections drain at their own pace.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (use port 0 to let the
    /// OS pick).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// A clone of the counter handle that outlives the server — a
    /// chaos harness snapshots final counts *after* a hard kill.
    pub fn stats_handle(&self) -> Arc<ServerStats> {
        self.shared.stats.clone()
    }

    /// The facade this server dispatches into.
    pub fn api(&self) -> &Arc<SpaApi> {
        &self.shared.api
    }

    /// Connections currently attached.
    pub fn live_connections(&self) -> usize {
        self.shared.live_connections.load(Ordering::SeqCst)
    }

    /// Stops accepting connections and joins the accept loop. Already
    /// accepted connections finish their current request and drain
    /// naturally when their peers close.
    pub fn shutdown(mut self) {
        self.stop_accept();
    }

    /// Begins a graceful drain: stops accepting, and every frame
    /// arriving from here on is refused with a loud [`ERR_DRAINING`]
    /// answer instead of dispatched. In-flight requests finish.
    pub fn begin_drain(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.stop_accept();
    }

    /// Completes a drain begun with [`ServerHandle::begin_drain`]:
    /// nudges idle connections closed, waits (bounded) for every
    /// connection thread to finish, then checkpoints the platform so
    /// the next process starts from a snapshot instead of a long tail
    /// replay.
    pub fn finish_drain(&mut self) -> DrainReport {
        let connections_at_drain = self.live_connections();
        // close the read half of every live connection: idle peers see
        // a clean close; a response still being written goes out whole
        for stream in self.shared.registry.lock().expect("registry lock").values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let quiesced = self.await_quiescence(Duration::from_secs(10));
        let checkpoint = self.shared.api.dispatch(&ApiRequest::Checkpoint);
        DrainReport { connections_at_drain, quiesced, checkpoint }
    }

    /// The full graceful exit: finish in-flight requests, refuse new
    /// frames loudly, checkpoint, and only then return.
    pub fn drain(mut self) -> DrainReport {
        self.begin_drain();
        self.finish_drain()
    }

    /// Kills the server the way `SIGKILL` would: stops accepting and
    /// severs every connection immediately — no goodbye frame, no
    /// checkpoint, responses torn mid-write if they were in flight.
    /// Waits (bounded) for connection threads to observe the severed
    /// sockets and exit, so the caller may safely recover the
    /// platform's WAL afterwards.
    pub fn hard_kill(mut self) {
        self.stop_accept();
        for stream in self.shared.registry.lock().expect("registry lock").values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.await_quiescence(Duration::from_secs(10));
    }

    fn await_quiescence(&self, limit: Duration) -> bool {
        let start = Instant::now();
        while self.live_connections() > 0 {
            if start.elapsed() > limit {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    fn stop_accept(&mut self) {
        let Some(thread) = self.accept_thread.take() else { return };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // wake the blocking accept with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_accept();
    }
}

/// Binds `addr` and serves `api` with default [`ServeOptions`] until
/// the returned handle is shut down or dropped.
pub fn serve<A: ToSocketAddrs>(api: Arc<SpaApi>, addr: A) -> io::Result<ServerHandle> {
    serve_with(api, addr, ServeOptions::default())
}

/// [`serve`] with explicit admission/timeout/fault options.
pub fn serve_with<A: ToSocketAddrs>(
    api: Arc<SpaApi>,
    addr: A,
    options: ServeOptions,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        api,
        stats: Arc::new(ServerStats::default()),
        options,
        in_flight: AtomicUsize::new(0),
        live_connections: Arc::new(AtomicUsize::new(0)),
        draining: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        registry: Mutex::new(HashMap::new()),
        next_conn_id: AtomicU64::new(0),
    });
    let accept_thread = {
        let shared = shared.clone();
        std::thread::Builder::new().name("spa-accept".into()).spawn(move || {
            for stream in listener.incoming() {
                if shared.shutdown.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst)
                {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
                let cap = shared.options.max_connections;
                if cap != 0 && shared.live_connections.load(Ordering::SeqCst) >= cap {
                    // refuse fast with one loud busy frame — cheaper
                    // than a thread, and the client learns why
                    shared.stats.connections_refused.fetch_add(1, Ordering::Relaxed);
                    let mut scratch = BytesMut::new();
                    wire::encode_enveloped_response(
                        0,
                        false,
                        &ApiResponse::Error {
                            message: format!("{ERR_SERVER_BUSY}: connection cap {cap} reached"),
                        },
                        &mut scratch,
                    );
                    let _ = wire::send_frame(&mut stream, &scratch);
                    continue;
                }
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                shared.live_connections.fetch_add(1, Ordering::SeqCst);
                let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    shared.registry.lock().expect("registry lock").insert(conn_id, clone);
                }
                let conn_shared = shared.clone();
                let spawned = std::thread::Builder::new()
                    .name("spa-conn".into())
                    .spawn(move || handle_connection(conn_shared, stream, conn_id));
                if spawned.is_err() {
                    shared.registry.lock().expect("registry lock").remove(&conn_id);
                    shared.live_connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
        })?
    };
    Ok(ServerHandle { addr, shared, accept_thread: Some(accept_thread) })
}

/// One connection's request/response loop.
fn handle_connection(shared: Arc<Shared>, mut stream: TcpStream, conn_id: u64) {
    // request/response turnaround must not sit in Nagle's buffer
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(shared.options.read_timeout);
    let _ = stream.set_write_timeout(shared.options.write_timeout);
    let mut scratch = BytesMut::new();
    let mut last_frame = Instant::now();
    loop {
        match wire::recv_frame_event(&mut stream) {
            Ok(FrameEvent::Frame(payload)) => {
                last_frame = Instant::now();
                if !serve_frame(&shared, &mut stream, &mut scratch, &payload) {
                    break;
                }
            }
            Ok(FrameEvent::CleanClose) => break,
            Ok(FrameEvent::IdleBoundary) => {
                // the stream is still frame-aligned; reap only peers
                // idle past the budget (or once the server is going away)
                if shared.shutdown.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst)
                {
                    break;
                }
                if let Some(idle) = shared.options.idle_timeout {
                    if last_frame.elapsed() >= idle {
                        shared.stats.idle_reaped.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
            Ok(FrameEvent::Stalled) => {
                // a peer feeding a frame by the byte is a slow-loris
                // suspect: cut it now, the stream cannot be re-aligned
                shared.stats.slow_reaped.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(error) if error.kind() == io::ErrorKind::InvalidData => {
                // flipped bits are answered loudly, then the stream is
                // abandoned — its framing can no longer be trusted
                shared.stats.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                let reply = ApiResponse::Error { message: format!("rejected frame: {error}") };
                let _ = send_reply(&shared, &mut stream, &mut scratch, 0, false, &reply);
                break;
            }
            Err(_) => {
                // torn frame or transport failure: nothing of the
                // request is dispatched
                shared.stats.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    shared.registry.lock().expect("registry lock").remove(&conn_id);
    // quiescence waits on this count: leave it only once this thread no
    // longer holds the facade, so a caller that reads zero holds the
    // platform alone, and dropping it flushes the log before a recovery
    let live_connections = Arc::clone(&shared.live_connections);
    drop(shared);
    live_connections.fetch_sub(1, Ordering::SeqCst);
}

/// Admits, dispatches and answers one well-framed request. Returns
/// whether the connection is still usable.
fn serve_frame(
    shared: &Shared,
    stream: &mut TcpStream,
    scratch: &mut BytesMut,
    payload: &[u8],
) -> bool {
    // the envelope split is cheap enough to run even while shedding,
    // so every rejection carries the request id the client waits on
    let (envelope, inner) = match wire::decode_request_envelope(payload) {
        Ok(parts) => parts,
        Err(error) => {
            // well-framed but malformed: answer loudly, the connection
            // stays usable (framing is still aligned)
            shared.stats.frames_served.fetch_add(1, Ordering::Relaxed);
            let reply = ApiResponse::Error { message: error.to_string() };
            return send_reply(shared, stream, scratch, 0, false, &reply);
        }
    };
    if shared.draining.load(Ordering::SeqCst) {
        shared.stats.drain_rejects.fetch_add(1, Ordering::Relaxed);
        let reply = ApiResponse::Error {
            message: format!("{ERR_DRAINING}: server is draining, retry elsewhere"),
        };
        let _ = send_reply(shared, stream, scratch, envelope.id, false, &reply);
        return false;
    }
    // fast-fail admission: never queue past the in-flight budget
    let limit = shared.options.max_in_flight;
    if limit != 0 && shared.in_flight.fetch_add(1, Ordering::SeqCst) >= limit {
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        shared.stats.sheds.fetch_add(1, Ordering::Relaxed);
        let reply = ApiResponse::Error {
            message: format!("{ERR_SERVER_BUSY}: {limit} requests already in flight"),
        };
        return send_reply(shared, stream, scratch, envelope.id, false, &reply);
    }
    let dispatched = match wire::decode_request(inner) {
        Ok(request) => shared.api.dispatch_enveloped(&envelope, &request),
        Err(error) => Dispatched {
            response: ApiResponse::Error { message: error.to_string() },
            replayed: false,
            deadline_rejected: false,
        },
    };
    if limit != 0 {
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
    shared.stats.frames_served.fetch_add(1, Ordering::Relaxed);
    if dispatched.replayed {
        shared.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
    }
    if dispatched.deadline_rejected {
        shared.stats.deadline_rejects.fetch_add(1, Ordering::Relaxed);
    }
    send_reply(shared, stream, scratch, envelope.id, dispatched.replayed, &dispatched.response)
}

/// Writes one enveloped response frame, routing it through the
/// server-side fault plan when one is armed. Returns whether the
/// connection is still usable.
fn send_reply(
    shared: &Shared,
    stream: &mut TcpStream,
    scratch: &mut BytesMut,
    id: u64,
    replayed: bool,
    response: &ApiResponse,
) -> bool {
    scratch.clear();
    wire::encode_enveloped_response(id, replayed, response, scratch);
    if let Some(plan) = &shared.options.fault {
        match plan.draw_call_fault() {
            Some(CallFault::DropTx) => {
                // tear the response frame at a drawn point, then sever:
                // the client sees a torn (never half-decoded) response
                let mut frame = Vec::with_capacity(scratch.len() + 8);
                wire::send_frame(&mut frame, scratch).expect("vec write");
                let keep = plan.draw_tear_point(frame.len());
                let _ = stream.write_all(&frame[..keep]);
                let _ = stream.flush();
                let _ = stream.shutdown(Shutdown::Both);
                shared.stats.injected_disconnects.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            Some(CallFault::DropRx) | Some(CallFault::Stall) => {
                // server-side, both collapse to "the response never
                // leaves": sever with nothing written
                let _ = stream.shutdown(Shutdown::Both);
                shared.stats.injected_disconnects.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            Some(CallFault::PartialWrite) => {
                // the frame lands in two writes — the byte stream must
                // absorb the split invisibly
                let mut frame = Vec::with_capacity(scratch.len() + 8);
                wire::send_frame(&mut frame, scratch).expect("vec write");
                let split = plan.draw_tear_point(frame.len()).max(1);
                let ok = stream.write_all(&frame[..split]).is_ok()
                    && stream.flush().is_ok()
                    && stream.write_all(&frame[split..]).is_ok()
                    && stream.flush().is_ok();
                return ok;
            }
            None => {}
        }
    }
    wire::send_frame(stream, scratch).is_ok()
}

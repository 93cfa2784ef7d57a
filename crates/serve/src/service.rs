//! The TCP front end: JSON-lines requests, versioned responses.
//!
//! One request per line, one-or-more responses per request, every
//! response carrying the unified envelope fields `"ok"` (bool) and
//! `"code"` (a stable machine string: `"ok"` on success, else a
//! [`ServeError::code`] such as `"rejected"` or `"protocol"`); error
//! envelopes add `"error"` (human text) and — for admission rejections
//! — `"retry_after_ms"`. Commands:
//!
//! | request | response |
//! |---|---|
//! | `{"cmd":"hello","proto":2,"frames":"binary"\|"json"}` | `{"ok":true,"code":"ok","proto":P,"max_proto":2,"frames":...}` — negotiates the connection's protocol and frame encoding |
//! | `{"cmd":"submit", ...}` | `{"ok":true,"code":"ok","job":N}` — or a rejection (below) |
//! | `{"cmd":"poll","job":N}` | `{"ok":true,"code":"ok","job":N,"state":"queued\|running\|done\|failed\|cancelled",...}` |
//! | `{"cmd":"wait","job":N}` | as `poll`, but blocks until resolved |
//! | `{"cmd":"cancel","job":N}` | `{"ok":true,"code":"ok","job":N,"state":...}` — queued jobs drop, running jobs stop at the next step |
//! | `{"cmd":"stream","job":N}` | a meta line, then `frames` waveform chunks in the negotiated encoding |
//! | `{"cmd":"stats"}` | engine counters (overload: `rejected`, `cancelled`, `deadline_misses`, `queue_depth`; store: `store_hits`, `store_writes`) and cache sizes — plus `job_p50_us`/`p90`/`p99` and `queue_wait_p50_us`/`p90`/`p99` histogram quantiles when the engine runs with observability enabled |
//! | `{"cmd":"metrics"}` | `{"ok":true,"code":"ok","lines":N}`, then `N` raw Prometheus text-exposition lines from the engine's [`matex_obs`] recorder (comment-only page when observability is disabled) |
//! | `{"cmd":"trace"}` | `{"ok":true,"code":"ok","events":[...]}` — the Chrome-trace event array (concatenable with a client's own events into one `chrome://tracing` timeline) |
//!
//! # Protocol versions and frame encodings
//!
//! Every connection starts in **protocol v1**: streamed waveform chunks
//! are JSON text lines, exactly as older clients expect (v1 clients
//! never send `hello` and notice nothing). A client that sends
//! `{"cmd":"hello","proto":2,"frames":"binary"}` switches the
//! connection to **binary frames**: each `stream` response is still a
//! JSON meta line (with `"encoding": "binary"`), followed by `frames`
//! length-prefixed [`matex_waveform::WaveFrame`] records carrying raw
//! little-endian `f64` bit patterns — the same values the JSON `{v:e}`
//! formatting round-trips, at a fraction of the bytes. The decoded
//! content of both encodings is identical (the canonical
//! [`matex_waveform::WaveFrame::content_hash`] is encoding-independent),
//! so mixed v1/v2 fleets can compare waveforms hash for hash.
//!
//! A `submit` names its circuit either inline (`"netlist"`: SPICE text,
//! newlines escaped) or synthetically (`"pdn_nx"`/`"pdn_ny"` plus
//! optional `pdn_loads`, `pdn_features`, `pdn_seed`, `pdn_window`), and
//! the window via `t_stop` + `dt_out` (+ optional `t_start`). Optional
//! scenario fields: `gamma`, `tol`, `scale`, `cap_row` + `cap_scale`
//! (a what-if edit: scale one node's ground capacitance — served by
//! low-rank correction of the cached base factorization when the base
//! job ran first), `mode` (`"mono"` / `"dist"`), `workers`, `rows`
//! (comma-separated state rows to record). Admission fields:
//! `priority` (`"high"` / `"normal"` / `"low"`, strict classes) and
//! `deadline_ms` (relative deadline; orders the job EDF within its
//! class). When admission refuses a job — queue full, or the deadline
//! unmeetable under the engine's learned cost model — the
//! submit answers `{"ok": false, "code": "rejected", "retry_after_ms":
//! N, "error": ...}` and the client should back off `retry_after_ms`
//! before resubmitting.
//! Parsed/built circuits are cached by content hash, so a fleet of
//! submissions of one circuit assembles it once — and hits the engine's
//! artifact cache underneath.
//!
//! The service defends itself against slow or stuck peers: accepted
//! sockets carry read/write timeouts ([`ServiceOptions::io_timeout`]),
//! so a connection that goes silent, or a client that stops draining
//! its receive window mid-stream, is dropped instead of pinning a
//! handler thread forever.
//!
//! Each response is written with one flush on a `TCP_NODELAY` socket.
//! The whole response is built before its first byte is written, so a
//! mid-response flush would bound nothing; with Nagle's algorithm on,
//! it would only hold the response's small last segment back until the
//! client's delayed ACK arrived (tens of milliseconds per reply). Once
//! a `stream` reply is flushed, its job counts as delivered and the
//! engine keeps its outcome only briefly (re-streams of recent jobs
//! still work; older ones answer `expired`).
//!
//! Responses to distinct requests never interleave on one connection;
//! `stream` waveform frames are chunked so a client can process arrival
//! by arrival. All numbers are emitted with full round-trip precision —
//! two clients streaming the same job sequence receive byte-identical
//! frame lines (the determinism check `run_load` performs).

use crate::job::{ExecutionMode, JobSpec, JobStatus};
use crate::json::{escape, parse_flat_json, JsonValue};
use crate::{JobId, ScenarioEngine, ServeError};
use matex_circuit::{parse_netlist, MnaSystem, PdnBuilder};
use matex_core::TransientSpec;
use matex_par::Priority;
use matex_waveform::{Fnv64, GroupingStrategy, WaveFrame};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Bind address; port 0 picks a free port (see
    /// [`ServiceHandle::addr`]).
    pub addr: String,
    /// Output samples per streamed waveform frame.
    pub stream_chunk: usize,
    /// Read/write timeout applied to every accepted socket. A peer that
    /// sends nothing for this long, or stalls mid-frame without
    /// draining its receive window, has its connection dropped — the
    /// handler thread is returned instead of pinned forever. `None`
    /// disables the guard (trusted local clients only).
    pub io_timeout: Option<Duration>,
}

impl ServiceOptions {
    /// A builder starting from the defaults — the preferred way to
    /// configure a service (field-struct literals are deprecated in
    /// favor of it: the builder stays source-compatible as options
    /// grow).
    pub fn builder() -> ServiceOptionsBuilder {
        ServiceOptionsBuilder {
            opts: ServiceOptions::default(),
        }
    }
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            addr: "127.0.0.1:0".into(),
            stream_chunk: 32,
            io_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Builder for [`ServiceOptions`] (see [`ServiceOptions::builder`]).
#[derive(Debug, Clone)]
pub struct ServiceOptionsBuilder {
    opts: ServiceOptions,
}

impl ServiceOptionsBuilder {
    /// Sets the bind address (port 0 picks a free port).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.opts.addr = addr.into();
        self
    }

    /// Sets the output samples per streamed waveform frame.
    pub fn stream_chunk(mut self, chunk: usize) -> Self {
        self.opts.stream_chunk = chunk;
        self
    }

    /// Sets (or disables, with `None`) the per-socket I/O timeout.
    pub fn io_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.opts.io_timeout = timeout;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ServiceOptions {
        self.opts
    }
}

/// A running service; stops (and joins the accept loop) on
/// [`ServiceHandle::stop`] or drop.
#[derive(Debug)]
pub struct ServiceHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServiceHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept thread.
    /// In-flight connection handlers finish with their clients.
    pub fn stop(mut self) {
        self.shutdown_now();
    }

    fn shutdown_now(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            // The accept loop blocks in `accept`: one connection of our
            // own wakes it to see the flag. If even that cannot connect,
            // the thread is left blocked rather than joined forever.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.shutdown_now();
    }
}

/// Starts the TCP service on `opts.addr`, serving `engine`.
///
/// # Errors
///
/// Returns [`ServeError::Io`] when the listener cannot bind.
pub fn serve(
    engine: Arc<ScenarioEngine>,
    opts: &ServiceOptions,
) -> Result<ServiceHandle, ServeError> {
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept = {
        let shutdown = shutdown.clone();
        let opts = opts.clone();
        let state = Arc::new(ServiceState {
            engine,
            circuits: Mutex::new(HashMap::new()),
            stream_chunk: opts.stream_chunk.max(1),
        });
        std::thread::Builder::new()
            .name("matex-serve-accept".into())
            .spawn(move || {
                // Connection handlers are detached: each exits when its
                // client disconnects (they hold the engine alive through
                // their shared state, so a stopped service drains
                // naturally as clients hang up). `accept` blocks, so a
                // client's first request is read the moment it connects.
                while !shutdown.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok(_) if shutdown.load(Ordering::Acquire) => break,
                        Ok((stream, _)) => {
                            let _ = configure_accepted(&stream, opts.io_timeout);
                            let state = state.clone();
                            let _ = std::thread::Builder::new()
                                .name("matex-serve-conn".into())
                                .spawn(move || handle_connection(stream, &state));
                        }
                        // The peer reset before we took it: not fatal.
                        Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => {}
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn accept loop")
    };
    Ok(ServiceHandle {
        addr,
        shutdown,
        accept: Some(accept),
    })
}

/// Configures an accepted socket. Slow-peer guard: a socket that stays
/// silent or stops draining for `io_timeout` errors out of its blocking
/// read/write, and the handler thread exits. `TCP_NODELAY`: a response
/// goes out as soon as it is flushed, instead of its last small segment
/// waiting for the client's delayed ACK.
fn configure_accepted(stream: &TcpStream, io_timeout: Option<Duration>) -> std::io::Result<()> {
    stream.set_read_timeout(io_timeout)?;
    stream.set_write_timeout(io_timeout)?;
    stream.set_nodelay(true)
}

/// Bound on the per-service circuit-assembly cache. It is a pure
/// content-hash cache (jobs hold their own `Arc`s), so wholesale
/// clearing at the cap is safe — just a re-parse for later submissions.
const MAX_ASSEMBLED_CIRCUITS: usize = 256;

struct ServiceState {
    engine: Arc<ScenarioEngine>,
    /// Assembled circuits by content hash (netlist text or PDN params):
    /// a fleet of submissions of one circuit assembles it once.
    circuits: Mutex<HashMap<u64, Arc<MnaSystem>>>,
    stream_chunk: usize,
}

impl ServiceState {
    /// Looks up an assembled circuit by content hash.
    fn cached_circuit(&self, key: u64) -> Option<Arc<MnaSystem>> {
        self.circuits
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .cloned()
    }

    /// Caches an assembled circuit, clearing the map at the cap.
    fn store_circuit(&self, key: u64, sys: Arc<MnaSystem>) {
        let mut map = self.circuits.lock().unwrap_or_else(|e| e.into_inner());
        if map.len() >= MAX_ASSEMBLED_CIRCUITS {
            map.clear();
        }
        map.insert(key, sys);
    }
}

/// The highest protocol version this server speaks.
const MAX_PROTO: u32 = 2;

/// One response unit: a JSON text line, or (protocol v2, binary frames
/// negotiated) a length-prefixed binary record written verbatim.
enum Payload {
    Line(String),
    Bytes(Vec<u8>),
}

/// Per-connection state: the negotiated encoding (the `hello`
/// handshake mutates it) and the job the response being written
/// delivers.
#[derive(Default)]
struct ConnState {
    /// Stream waveform chunks as binary [`WaveFrame`] records instead
    /// of JSON text lines.
    frames_binary: bool,
    /// Set by a `stream` reply; the job is marked delivered once the
    /// reply's flush succeeded.
    delivers: Option<JobId>,
}

/// Flushes the connection writer, timing the flush into the engine's
/// `service_flush_seconds` histogram when observability is enabled. A
/// slow flush here is the signature of a peer that stopped draining its
/// receive window — the histogram's tail is the early-warning signal
/// the `io_timeout` guard acts on.
fn flush_timed(writer: &mut BufWriter<TcpStream>, obs: &matex_obs::Obs) -> std::io::Result<()> {
    if !obs.is_enabled() {
        return writer.flush();
    }
    let t0 = Instant::now();
    let r = writer.flush();
    obs.observe_labeled(
        "service_flush_seconds",
        &[("ok", if r.is_ok() { "1" } else { "0" })],
        t0.elapsed(),
    );
    r
}

fn handle_connection(stream: TcpStream, state: &ServiceState) {
    let reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    let mut conn = ConnState::default();
    let obs = state.engine.obs().clone();
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let responses = match handle_request(&line, state, &mut conn) {
            Ok(payloads) => payloads,
            Err(e) => vec![Payload::Line(error_line(&e))],
        };
        for r in &responses {
            let wrote = match r {
                Payload::Line(l) => writeln!(writer, "{l}"),
                Payload::Bytes(b) => writer.write_all(b),
            };
            if wrote.is_err() {
                return;
            }
        }
        if flush_timed(&mut writer, &obs).is_err() {
            return;
        }
        if let Some(id) = conn.delivers.take() {
            state.engine.mark_delivered(id);
        }
    }
}

/// Serializes an error envelope: `ok`, the stable [`ServeError::code`],
/// the human-readable `error` text, and — for admission rejections —
/// the `retry_after_ms` back-off hint, so clients can distinguish
/// "resubmit later" from a hard failure by `code` alone.
fn error_line(e: &ServeError) -> String {
    match e {
        ServeError::Rejected {
            reason,
            retry_after,
        } => format!(
            "{{\"ok\": false, \"code\": \"rejected\", \"retry_after_ms\": {}, \"error\": \"{}\"}}",
            retry_after.as_millis().max(1),
            escape(reason)
        ),
        _ => format!(
            "{{\"ok\": false, \"code\": \"{}\", \"error\": \"{}\"}}",
            e.code(),
            escape(&e.to_string())
        ),
    }
}

fn handle_request(
    line: &str,
    state: &ServiceState,
    conn: &mut ConnState,
) -> Result<Vec<Payload>, ServeError> {
    let req = parse_flat_json(line).map_err(ServeError::Protocol)?;
    let cmd = req
        .get("cmd")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ServeError::Protocol("request has no \"cmd\"".into()))?;
    match cmd {
        "hello" => Ok(vec![Payload::Line(hello_line(&req, conn)?)]),
        "submit" => {
            let spec = build_job(&req, state)?;
            let id = state.engine.submit(spec)?;
            Ok(vec![Payload::Line(format!(
                "{{\"ok\": true, \"code\": \"ok\", \"job\": {id}}}"
            ))])
        }
        "poll" => {
            let id = job_id(&req)?;
            Ok(vec![Payload::Line(status_line(id, state)?)])
        }
        "wait" => {
            let id = job_id(&req)?;
            // Resolve (ignoring the job's own failure — reported by the
            // status line), then report.
            let _ = state.engine.wait(id);
            Ok(vec![Payload::Line(status_line(id, state)?)])
        }
        "cancel" => {
            let id = job_id(&req)?;
            // Queued jobs drop immediately; running jobs get their
            // token tripped and stop at the next transient-step
            // boundary. The response reports the state as of the
            // cancel — poll again to observe a running job wind down.
            state.engine.cancel(id).ok_or(ServeError::UnknownJob(id))?;
            Ok(vec![Payload::Line(status_line(id, state)?)])
        }
        "stream" => stream_payloads(&req, state, conn),
        "stats" => Ok(vec![Payload::Line(stats_line(state))]),
        "metrics" => Ok(metrics_payloads(state)),
        "trace" => Ok(vec![Payload::Line(format!(
            "{{\"ok\": true, \"code\": \"ok\", \"events\": {}}}",
            state.engine.obs().chrome_trace_events()
        ))]),
        other => Err(ServeError::Protocol(format!("unknown cmd {other:?}"))),
    }
}

/// The capability handshake: the client announces the protocol version
/// and frame encoding it wants; the server answers with what it
/// granted. Binary frames require protocol ≥ 2; unknown encodings are
/// protocol errors (the connection stays on its current negotiation).
fn hello_line(
    req: &HashMap<String, JsonValue>,
    conn: &mut ConnState,
) -> Result<String, ServeError> {
    let proto = num(req, "proto").unwrap_or(1.0) as u32;
    if proto == 0 {
        return Err(ServeError::Protocol("\"proto\" must be >= 1".into()));
    }
    let frames = req
        .get("frames")
        .and_then(JsonValue::as_str)
        .unwrap_or("json");
    let binary = match frames {
        "json" => false,
        "binary" if proto >= 2 => true,
        "binary" => {
            return Err(ServeError::Protocol(
                "binary frames require \"proto\": 2".into(),
            ))
        }
        other => {
            return Err(ServeError::Protocol(format!(
                "unknown frame encoding {other:?}"
            )))
        }
    };
    conn.frames_binary = binary;
    Ok(format!(
        "{{\"ok\": true, \"code\": \"ok\", \"proto\": {}, \"max_proto\": {MAX_PROTO}, \"frames\": \"{}\"}}",
        proto.min(MAX_PROTO),
        if binary { "binary" } else { "json" }
    ))
}

fn job_id(req: &HashMap<String, JsonValue>) -> Result<JobId, ServeError> {
    req.get("job")
        .and_then(JsonValue::as_num)
        .map(|v| v as JobId)
        .ok_or_else(|| ServeError::Protocol("request has no \"job\" id".into()))
}

fn num(req: &HashMap<String, JsonValue>, key: &str) -> Option<f64> {
    req.get(key).and_then(JsonValue::as_num)
}

fn status_line(id: JobId, state: &ServiceState) -> Result<String, ServeError> {
    let status = state.engine.status(id).ok_or(ServeError::UnknownJob(id))?;
    let mut line = format!(
        "{{\"ok\": true, \"code\": \"ok\", \"job\": {id}, \"state\": \"{}\"",
        status.label()
    );
    match &status {
        JobStatus::Failed(msg) => {
            line.push_str(&format!(", \"error\": \"{}\"", escape(msg)));
        }
        JobStatus::Done(out) => {
            line.push_str(&format!(
                ", \"warm\": {}, \"whatif\": {}, \"wall_us\": {}, \"points\": {}",
                out.cache.is_warm(),
                out.cache.is_whatif(),
                out.wall.as_micros(),
                out.result.times().len()
            ));
            if let Some(groups) = out.groups {
                line.push_str(&format!(", \"groups\": {groups}"));
            }
        }
        _ => {}
    }
    line.push('}');
    Ok(line)
}

/// The Prometheus page as a protocol response: one JSON meta line
/// announcing the raw text line count, then the page verbatim. The page
/// is text exposition format, not JSON — announcing the count first
/// keeps the JSON-lines framing unambiguous (same pattern as `stream`).
fn metrics_payloads(state: &ServiceState) -> Vec<Payload> {
    let page = state.engine.obs().prometheus_text();
    let lines: Vec<&str> = page.lines().collect();
    let mut payloads = Vec::with_capacity(lines.len() + 1);
    payloads.push(Payload::Line(format!(
        "{{\"ok\": true, \"code\": \"ok\", \"lines\": {}}}",
        lines.len()
    )));
    payloads.extend(lines.into_iter().map(|l| Payload::Line(l.to_string())));
    payloads
}

fn stats_line(state: &ServiceState) -> String {
    let s = state.engine.stats();
    let mut line = format!(
        "{{\"ok\": true, \"code\": \"ok\", \
         \"submitted\": {}, \"completed\": {}, \"failed\": {}, \
         \"rejected\": {}, \"cancelled\": {}, \"deadline_misses\": {}, \
         \"queue_depth\": {}, \
         \"warm_jobs\": {}, \"setup_hits\": {}, \"setup_misses\": {}, \
         \"symbolic_hits\": {}, \"dc_hits\": {}, \"plan_hits\": {}, \
         \"whatif_hits\": {}, \"whatif_rank\": {}, \"whatif_fallbacks\": {}, \
         \"anchor_plants\": {}, \"evictions\": {}, \
         \"store_hits\": {}, \"store_writes\": {}, \
         \"circuits_cached\": {}, \"setups_cached\": {}",
        s.submitted,
        s.completed,
        s.failed,
        s.rejected,
        s.cancelled,
        s.deadline_misses,
        s.queue_depth,
        s.warm_jobs,
        s.setup_hits,
        s.setup_misses,
        s.symbolic_hits,
        s.dc_hits,
        s.plan_hits,
        s.whatif_hits,
        s.whatif_rank,
        s.whatif_fallbacks,
        s.anchor_plants,
        s.evictions,
        s.store_hits,
        s.store_writes,
        s.cache.circuits,
        s.cache.setups,
    );
    // Histogram quantiles ride along when the engine observes itself —
    // absent otherwise, so disabled engines keep the legacy line shape.
    let obs = state.engine.obs();
    if obs.is_enabled() {
        let (jp50, jp90, jp99) = obs.quantiles("engine_job_seconds");
        let (qp50, qp90, qp99) = obs.quantiles("engine_queue_wait_seconds");
        line.push_str(&format!(
            ", \"job_p50_us\": {:.0}, \"job_p90_us\": {:.0}, \"job_p99_us\": {:.0}, \
             \"queue_wait_p50_us\": {:.0}, \"queue_wait_p90_us\": {:.0}, \"queue_wait_p99_us\": {:.0}",
            jp50 * 1e6,
            jp90 * 1e6,
            jp99 * 1e6,
            qp50 * 1e6,
            qp90 * 1e6,
            qp99 * 1e6,
        ));
    }
    line.push('}');
    line
}

/// Emits a stream response: one meta line, then chunked waveform frames
/// covering the whole sampled window — JSON text lines (protocol v1,
/// the default) or length-prefixed binary [`WaveFrame`] records when
/// the connection negotiated them. Records the job as the one this
/// response delivers.
fn stream_payloads(
    req: &HashMap<String, JsonValue>,
    state: &ServiceState,
    conn: &mut ConnState,
) -> Result<Vec<Payload>, ServeError> {
    let id = job_id(req)?;
    let out = state.engine.wait(id)?;
    let times = out.result.times();
    let chunk = num(req, "chunk")
        .map(|c| (c as usize).max(1))
        .unwrap_or(state.stream_chunk);
    let frames = times.len().div_ceil(chunk);
    let mut payloads = Vec::with_capacity(frames + 1);
    payloads.push(Payload::Line(format!(
        "{{\"ok\": true, \"code\": \"ok\", \"job\": {id}, \"frames\": {frames}, \
         \"rows\": {}, \"points\": {}, \"encoding\": \"{}\"}}",
        out.result.rows().len(),
        times.len(),
        if conn.frames_binary { "binary" } else { "json" },
    )));
    for f in 0..frames {
        let start = f * chunk;
        let end = (start + chunk).min(times.len());
        // Frames deliberately omit the job id: they follow their meta
        // line positionally on the connection, and leaving the id out
        // makes frame bytes comparable across clients (two clients
        // running the same job sequence receive identical frames even
        // though their engine-assigned ids differ).
        if conn.frames_binary {
            let wf = WaveFrame {
                frame: f as u64,
                start: start as u64,
                times: times[start..end].to_vec(),
                series: out
                    .result
                    .series()
                    .iter()
                    .map(|s| s[start..end].to_vec())
                    .collect(),
            };
            payloads.push(Payload::Bytes(wf.encode()));
            continue;
        }
        let mut line = format!(
            "{{\"ok\": true, \"frame\": {f}, \"start\": {start}, \"count\": {}, \"times\": [",
            end - start,
        );
        push_floats(&mut line, &times[start..end]);
        line.push_str("], \"series\": [");
        for (k, series) in out.result.series().iter().enumerate() {
            if k > 0 {
                line.push(',');
            }
            line.push('[');
            push_floats(&mut line, &series[start..end]);
            line.push(']');
        }
        line.push_str("]}");
        payloads.push(Payload::Line(line));
    }
    conn.delivers = Some(id);
    Ok(payloads)
}

/// Appends comma-separated floats with round-trip precision (the exact
/// bytes are part of the cross-client determinism contract).
fn push_floats(line: &mut String, values: &[f64]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!("{v:e}"));
    }
}

/// Builds a [`JobSpec`] from a flat `submit` request.
fn build_job(
    req: &HashMap<String, JsonValue>,
    state: &ServiceState,
) -> Result<JobSpec, ServeError> {
    let circuit = resolve_circuit(req, state)?;
    let t_start = num(req, "t_start").unwrap_or(0.0);
    let t_stop = num(req, "t_stop")
        .ok_or_else(|| ServeError::Protocol("submit requires \"t_stop\"".into()))?;
    let dt_out = num(req, "dt_out")
        .ok_or_else(|| ServeError::Protocol("submit requires \"dt_out\"".into()))?;
    let mut spec = TransientSpec::new(t_start, t_stop, dt_out).map_err(ServeError::Core)?;
    if let Some(rows) = req.get("rows").and_then(JsonValue::as_str) {
        let parsed: Result<Vec<usize>, _> = rows
            .split(',')
            .filter(|t| !t.trim().is_empty())
            .map(|t| t.trim().parse::<usize>())
            .collect();
        let parsed =
            parsed.map_err(|_| ServeError::Protocol(format!("bad \"rows\" list {rows:?}")))?;
        // Validate against the circuit here, at the protocol boundary —
        // the recorder indexes the state vector by these rows verbatim.
        if let Some(&bad) = parsed.iter().find(|&&r| r >= circuit.dim()) {
            return Err(ServeError::Protocol(format!(
                "row {bad} out of range for a {}-state circuit",
                circuit.dim()
            )));
        }
        spec = spec.observing(parsed);
    }
    let mut job = JobSpec::new(circuit, spec);
    if let Some(g) = num(req, "gamma") {
        job = job.gamma(g);
    }
    if let Some(t) = num(req, "tol") {
        job = job.tol(t);
    }
    if let Some(k) = num(req, "scale") {
        job = job.source_scale(k);
    }
    match (num(req, "cap_row"), num(req, "cap_scale")) {
        (Some(row), Some(factor)) => {
            // Validate the row at the protocol boundary, like "rows".
            let row = row as usize;
            if row >= job.circuit.num_nodes() {
                return Err(ServeError::Protocol(format!(
                    "cap_row {row} out of range for a {}-node circuit",
                    job.circuit.num_nodes()
                )));
            }
            job = job.cap_scale(row, factor);
        }
        (None, None) => {}
        _ => {
            return Err(ServeError::Protocol(
                "\"cap_row\" and \"cap_scale\" must be given together".into(),
            ));
        }
    }
    if let Some(p) = req.get("priority").and_then(JsonValue::as_str) {
        let p = Priority::parse(p)
            .ok_or_else(|| ServeError::Protocol(format!("unknown priority {p:?}")))?;
        job = job.priority(p);
    }
    if let Some(ms) = num(req, "deadline_ms") {
        if !ms.is_finite() || ms <= 0.0 {
            return Err(ServeError::Protocol(format!(
                "\"deadline_ms\" must be a positive number, got {ms}"
            )));
        }
        job = job.deadline(Duration::from_secs_f64(ms / 1e3));
    }
    match req.get("mode").and_then(JsonValue::as_str) {
        None | Some("mono") => {}
        Some("dist") => {
            job = job.mode(ExecutionMode::Distributed {
                strategy: GroupingStrategy::ByBumpFeature,
                workers: num(req, "workers").map(|w| (w as usize).max(1)),
            });
        }
        Some(other) => {
            return Err(ServeError::Protocol(format!("unknown mode {other:?}")));
        }
    }
    Ok(job)
}

/// Resolves the request's circuit — inline netlist or synthetic PDN —
/// through the per-service assembly cache.
fn resolve_circuit(
    req: &HashMap<String, JsonValue>,
    state: &ServiceState,
) -> Result<Arc<MnaSystem>, ServeError> {
    let mut h = Fnv64::new();
    if let Some(text) = req.get("netlist").and_then(JsonValue::as_str) {
        h.write_u8(0);
        h.write_bytes(text.as_bytes());
        let key = h.finish();
        if let Some(sys) = state.cached_circuit(key) {
            return Ok(sys);
        }
        let parsed = parse_netlist(text)?;
        let sys = Arc::new(MnaSystem::assemble(&parsed.netlist)?);
        state.store_circuit(key, sys.clone());
        Ok(sys)
    } else if let (Some(nx), Some(ny)) = (num(req, "pdn_nx"), num(req, "pdn_ny")) {
        let loads = num(req, "pdn_loads").unwrap_or(8.0) as usize;
        let features = num(req, "pdn_features").unwrap_or(3.0) as usize;
        let seed = num(req, "pdn_seed").unwrap_or(1.0) as u64;
        let window = num(req, "pdn_window").unwrap_or(1e-9);
        h.write_u8(1);
        for v in [nx, ny, loads as f64, features as f64, seed as f64, window] {
            h.write_f64(v);
        }
        let key = h.finish();
        if let Some(sys) = state.cached_circuit(key) {
            return Ok(sys);
        }
        let sys = Arc::new(
            PdnBuilder::new(nx as usize, ny as usize)
                .num_loads(loads)
                .num_features(features)
                .seed(seed)
                .window(window)
                .build()?,
        );
        state.store_circuit(key, sys.clone());
        Ok(sys)
    } else {
        Err(ServeError::Protocol(
            "submit requires \"netlist\" or \"pdn_nx\"/\"pdn_ny\"".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineOptions;
    use std::io::BufRead;

    fn start() -> (Arc<ScenarioEngine>, ServiceHandle) {
        let engine = Arc::new(ScenarioEngine::new(EngineOptions {
            executors: 2,
            ..EngineOptions::default()
        }));
        let handle = serve(engine.clone(), &ServiceOptions::default()).unwrap();
        (engine, handle)
    }

    fn roundtrip(stream: &mut TcpStream, req: &str) -> Vec<String> {
        let mut w = stream.try_clone().unwrap();
        writeln!(w, "{req}").unwrap();
        w.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        let mut lines = vec![first.trim_end().to_string()];
        // Stream responses announce their frame count up front. (A
        // hello ack also has a "frames" field, but a non-numeric one.)
        if let Some(at) = lines[0].find("\"frames\": ") {
            let rest = &lines[0][at + 10..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            let n: usize = rest[..end].parse().unwrap_or(0);
            for _ in 0..n {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                lines.push(line.trim_end().to_string());
            }
        }
        lines
    }

    #[test]
    fn submit_wait_stream_stats_over_tcp() {
        let (_engine, handle) = start();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        let sub = roundtrip(
            &mut conn,
            r#"{"cmd": "submit", "pdn_nx": 6, "pdn_ny": 6, "t_stop": 1e-9, "dt_out": 2e-11, "rows": "0,1"}"#,
        );
        assert!(sub[0].contains("\"ok\": true"), "{sub:?}");
        assert!(sub[0].contains("\"job\": 0"));
        let wait = roundtrip(&mut conn, r#"{"cmd": "wait", "job": 0}"#);
        assert!(wait[0].contains("\"state\": \"done\""), "{wait:?}");
        let stream = roundtrip(&mut conn, r#"{"cmd": "stream", "job": 0, "chunk": 20}"#);
        assert!(stream[0].contains("\"frames\": 3")); // 51 points / 20
        assert_eq!(stream.len(), 4);
        assert!(stream[1].contains("\"times\": [0e0,"));
        let stats = roundtrip(&mut conn, r#"{"cmd": "stats"}"#);
        assert!(stats[0].contains("\"completed\": 1"), "{stats:?}");
        handle.stop();
    }

    #[test]
    fn netlist_submissions_share_assembly_and_protocol_errors_report() {
        let (_engine, handle) = start();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        let netlist = "i1 0 a PULSE(0 1m 0.1n 50p 200p 50p)\\nr1 a 0 1k\\nc1 a 0 10f\\n.end";
        let req = format!(
            "{{\"cmd\": \"submit\", \"netlist\": \"{netlist}\", \"t_stop\": 1e-9, \"dt_out\": 1e-11}}"
        );
        let a = roundtrip(&mut conn, &req);
        assert!(a[0].contains("\"job\": 0"), "{a:?}");
        let b = roundtrip(&mut conn, &req);
        assert!(b[0].contains("\"job\": 1"));
        for id in [0, 1] {
            let w = roundtrip(&mut conn, &format!("{{\"cmd\": \"wait\", \"job\": {id}}}"));
            assert!(w[0].contains("done"), "{w:?}");
        }
        // Identical submissions: the second assembled nothing and ran warm.
        let stats = roundtrip(&mut conn, r#"{"cmd": "stats"}"#);
        assert!(stats[0].contains("\"warm_jobs\": 1"), "{stats:?}");
        // Errors come back as ok:false lines, connection stays usable.
        let err = roundtrip(&mut conn, r#"{"cmd": "submit", "t_stop": 1e-9}"#);
        assert!(err[0].contains("\"ok\": false"));
        // Out-of-range observed rows are rejected at the protocol
        // boundary, never reaching the solver.
        let err = roundtrip(
            &mut conn,
            r#"{"cmd": "submit", "pdn_nx": 5, "pdn_ny": 5, "t_stop": 1e-9, "dt_out": 1e-11, "rows": "99999"}"#,
        );
        assert!(err[0].contains("out of range"), "{err:?}");
        let err = roundtrip(&mut conn, r#"{"cmd": "nonsense"}"#);
        assert!(err[0].contains("unknown cmd"));
        assert!(err[0].contains("\"code\": \"protocol\""), "{err:?}");
        let err = roundtrip(&mut conn, "not json at all");
        assert!(err[0].contains("\"ok\": false"));
        // Unknown job ids carry their own stable code.
        let err = roundtrip(&mut conn, r#"{"cmd": "wait", "job": 999}"#);
        assert!(err[0].contains("\"code\": \"unknown_job\""), "{err:?}");
        handle.stop();
    }

    #[test]
    fn metrics_and_trace_verbs_export_observability() {
        let engine = Arc::new(ScenarioEngine::new(EngineOptions {
            executors: 2,
            obs: matex_obs::Obs::enabled(),
            ..EngineOptions::default()
        }));
        let handle = serve(engine.clone(), &ServiceOptions::default()).unwrap();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        // Two jobs of one circuit: a cold path and a cache-hit path, so
        // the job histogram splits by hit-path label.
        for _ in 0..2 {
            roundtrip(
                &mut conn,
                r#"{"cmd": "submit", "pdn_nx": 6, "pdn_ny": 6, "t_stop": 1e-9, "dt_out": 2e-11}"#,
            );
        }
        roundtrip(&mut conn, r#"{"cmd": "wait", "job": 0}"#);
        roundtrip(&mut conn, r#"{"cmd": "wait", "job": 1}"#);

        // metrics: meta line + raw Prometheus page, lint-clean, with
        // the job histogram split by hit path and solver timings.
        let mut w = conn.try_clone().unwrap();
        writeln!(w, r#"{{"cmd": "metrics"}}"#).unwrap();
        w.flush().unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut meta = String::new();
        reader.read_line(&mut meta).unwrap();
        assert!(meta.contains("\"lines\": "), "{meta}");
        let n: usize = {
            let at = meta.find("\"lines\": ").unwrap() + 9;
            let rest = &meta[at..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().unwrap()
        };
        let mut page = String::new();
        for _ in 0..n {
            let mut l = String::new();
            reader.read_line(&mut l).unwrap();
            page.push_str(&l);
        }
        matex_obs::lint_prometheus(&page).unwrap();
        assert!(
            page.contains("matex_engine_jobs_total{path=\"cold\"}"),
            "{page}"
        );
        assert!(
            page.contains("matex_engine_jobs_total{path=\"cache\"}"),
            "{page}"
        );
        assert!(page.contains("matex_engine_job_seconds"), "{page}");
        assert!(page.contains("matex_solver_expm_seconds"), "{page}");

        // stats gains histogram quantiles on an observing engine.
        let stats = roundtrip(&mut conn, r#"{"cmd": "stats"}"#);
        assert!(stats[0].contains("\"job_p99_us\": "), "{stats:?}");

        // trace: one envelope line whose events array reconstructs the
        // per-job solver phase split (factor / T_H expm / T_e combine).
        let trace = roundtrip(&mut conn, r#"{"cmd": "trace"}"#);
        assert!(trace[0].contains("\"events\": ["), "{}", &trace[0][..80]);
        for site in [
            "engine.run",
            "engine.queue_wait",
            "solver.factor",
            "solver.expm",
            "solver.combine",
        ] {
            assert!(trace[0].contains(site), "missing {site} in trace");
        }
        handle.stop();
    }

    #[test]
    fn accepted_sockets_get_nodelay_and_both_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap());
        // Whole seconds: the kernel rounds socket timeouts to its tick.
        for io_timeout in [ServiceOptions::default().io_timeout, None] {
            configure_accepted(&accepted, io_timeout).unwrap();
            assert!(accepted.nodelay().unwrap());
            assert_eq!(accepted.read_timeout().unwrap(), io_timeout);
            assert_eq!(accepted.write_timeout().unwrap(), io_timeout);
        }
    }

    #[test]
    fn stop_wakes_the_blocked_accept_loop_on_any_bind_address() {
        let engine = Arc::new(ScenarioEngine::new(EngineOptions::default()));
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let opts = ServiceOptions {
                addr: addr.into(),
                ..ServiceOptions::default()
            };
            let handle = serve(engine.clone(), &opts).unwrap();
            // A client served before the stop gets its answer.
            let mut conn = TcpStream::connect(("127.0.0.1", handle.addr().port())).unwrap();
            assert!(roundtrip(&mut conn, r#"{"cmd": "stats"}"#)[0].contains("\"ok\": true"));
            let t0 = Instant::now();
            handle.stop();
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "{addr}: {:?}",
                t0.elapsed()
            );
        }
    }

    #[test]
    fn streamed_outcomes_are_kept_only_briefly() {
        use crate::engine::MAX_DELIVERED;
        let (_engine, handle) = start();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        let submit = r#"{"cmd": "submit", "pdn_nx": 6, "pdn_ny": 6, "t_stop": 1e-9, "dt_out": 2e-11, "rows": "0,1"}"#;
        let state = |conn: &mut TcpStream, id: usize| {
            roundtrip(conn, &format!("{{\"cmd\": \"poll\", \"job\": {id}}}"))[0].clone()
        };
        // Job 0 is waited for but never streamed.
        assert!(roundtrip(&mut conn, submit)[0].contains("\"job\": 0"));
        roundtrip(&mut conn, r#"{"cmd": "wait", "job": 0}"#);
        let jobs = 100;
        let mut first = Vec::new();
        for id in 1..=jobs {
            let sub = roundtrip(&mut conn, submit);
            assert!(sub[0].contains(&format!("\"job\": {id}")), "{sub:?}");
            first.push(roundtrip(
                &mut conn,
                &format!("{{\"cmd\": \"stream\", \"job\": {id}}}"),
            ));
        }
        // Only the newest delivered outcomes remain.
        let oldest_kept = jobs - MAX_DELIVERED + 1;
        for id in 1..=jobs {
            let want = if id < oldest_kept { "expired" } else { "done" };
            let poll = state(&mut conn, id);
            assert!(poll.contains(&format!("\"state\": \"{want}\"")), "{poll}");
        }
        assert!(state(&mut conn, 0).contains("\"state\": \"done\""));
        // A re-stream inside the window is byte-identical to the first.
        let again = roundtrip(
            &mut conn,
            &format!("{{\"cmd\": \"stream\", \"job\": {oldest_kept}}}"),
        );
        assert_eq!(again, first[oldest_kept - 1]);
        let gone = roundtrip(&mut conn, r#"{"cmd": "stream", "job": 1}"#);
        assert!(gone[0].contains("expired"), "{gone:?}");
        handle.stop();
    }

    #[test]
    fn hello_negotiates_binary_frames_bitwise_equal_to_json() {
        use matex_waveform::Fnv64;
        use std::io::Read;
        let (_engine, handle) = start();

        // Protocol v1 client (no hello): JSON frames, as always.
        let mut v1 = TcpStream::connect(handle.addr()).unwrap();
        let sub = roundtrip(
            &mut v1,
            r#"{"cmd": "submit", "pdn_nx": 6, "pdn_ny": 6, "t_stop": 1e-9, "dt_out": 2e-11, "rows": "0,1,2"}"#,
        );
        assert!(sub[0].contains("\"code\": \"ok\""), "{sub:?}");
        roundtrip(&mut v1, r#"{"cmd": "wait", "job": 0}"#);
        let json_stream = roundtrip(&mut v1, r#"{"cmd": "stream", "job": 0, "chunk": 20}"#);
        assert!(
            json_stream[0].contains("\"encoding\": \"json\""),
            "{}",
            json_stream[0]
        );
        let json_bytes: usize = json_stream[1..].iter().map(|l| l.len() + 1).sum();
        // Decode the text frames back to canonical content: the floats
        // are printed with round-trip precision, so this is bit-exact.
        let mut json_hash = Fnv64::new();
        for line in &json_stream[1..] {
            crate::loadgen::parse_json_frame(line)
                .unwrap_or_else(|| panic!("unparseable frame {line}"))
                .feed(&mut json_hash);
        }

        // Protocol v2 client: hello upgrades the connection to binary.
        let mut v2 = TcpStream::connect(handle.addr()).unwrap();
        let ack = roundtrip(
            &mut v2,
            r#"{"cmd": "hello", "proto": 2, "frames": "binary"}"#,
        );
        assert!(
            ack[0].contains("\"frames\": \"binary\"") && ack[0].contains("\"max_proto\": 2"),
            "{ack:?}"
        );
        let mut w = v2.try_clone().unwrap();
        writeln!(w, r#"{{"cmd": "stream", "job": 0, "chunk": 20}}"#).unwrap();
        w.flush().unwrap();
        let mut reader = BufReader::new(v2.try_clone().unwrap());
        let mut meta = String::new();
        reader.read_line(&mut meta).unwrap();
        assert!(meta.contains("\"encoding\": \"binary\""), "{meta}");
        let frames: usize = {
            let at = meta.find("\"frames\": ").unwrap() + 10;
            meta[at..at + 1].parse().unwrap()
        };
        let mut bin_bytes = 0usize;
        let mut bin_hash = Fnv64::new();
        for _ in 0..frames {
            let mut prefix = [0u8; 8];
            reader.read_exact(&mut prefix).unwrap();
            let (len, _) = WaveFrame::decode_len(&prefix).unwrap();
            let mut payload = vec![0u8; len];
            reader.read_exact(&mut payload).unwrap();
            bin_bytes += 8 + len;
            WaveFrame::decode_payload(&payload)
                .unwrap()
                .feed(&mut bin_hash);
        }
        // Same floats bit for bit through either encoding, with binary
        // at least halving the wire.
        assert_eq!(json_hash.finish(), bin_hash.finish());
        assert!(
            bin_bytes * 2 <= json_bytes,
            "json {json_bytes} vs binary {bin_bytes}"
        );
        // The upgraded connection still speaks JSON for control verbs.
        let stats = roundtrip(&mut v2, r#"{"cmd": "stats"}"#);
        assert!(stats[0].contains("\"store_hits\": 0"), "{stats:?}");

        // Bad handshakes: binary needs proto >= 2; unknown encodings
        // and proto 0 are refused. The connection survives all three.
        let mut v3 = TcpStream::connect(handle.addr()).unwrap();
        let err = roundtrip(
            &mut v3,
            r#"{"cmd": "hello", "proto": 1, "frames": "binary"}"#,
        );
        assert!(err[0].contains("\"code\": \"protocol\""), "{err:?}");
        let err = roundtrip(
            &mut v3,
            r#"{"cmd": "hello", "proto": 2, "frames": "morse"}"#,
        );
        assert!(err[0].contains("\"code\": \"protocol\""), "{err:?}");
        let err = roundtrip(&mut v3, r#"{"cmd": "hello", "proto": 0}"#);
        assert!(err[0].contains("\"code\": \"protocol\""), "{err:?}");
        let ok = roundtrip(&mut v3, r#"{"cmd": "hello", "proto": 1}"#);
        assert!(
            ok[0].contains("\"frames\": \"json\"") && ok[0].contains("\"proto\": 1"),
            "{ok:?}"
        );
        handle.stop();
    }
}

//! The embedded metrics endpoint: a tiny `std::net` TCP server exposing
//! the live-telemetry registry of a running matcher, plus a periodic
//! self-stats poller.
//!
//! Off by default. [`MetricsServer::start_from_env`] honors `EM_METRICS`:
//! unset, empty, `off`, or `0` leaves serving untouched; anything else is
//! a bind address (`EM_METRICS=127.0.0.1:9184`; port `0` picks an
//! ephemeral port, readable back via [`MetricsServer::addr`]). Starting
//! the server flips the global live-telemetry switch on
//! ([`em_obs::live::set_enabled`]), which is what makes the windows of
//! every `em_obs::Counter` / `em_obs::Histogram` start moving.
//!
//! Routes (plain text, one connection per request):
//!
//! * `GET /metrics` — the full registry snapshot
//!   ([`em_obs::live::render_metrics`]): `key value` lines with cumulative
//!   totals and 10s/1m/5m windowed counts, rates, and min/max-clamped
//!   p50/p99 quantiles.
//! * `GET /healthz` — `200 ok` / `503 FAIL` plus one line per reporting
//!   component ([`em_obs::live::render_health`]); serving harnesses
//!   publish index invariants and WAL status here via
//!   [`PersistentIndex::verify_and_report`](crate::PersistentIndex::verify_and_report).
//! * `GET /slow` — the bounded slow-query log and the deterministic
//!   1-in-N request sample ([`em_obs::live::render_slow`]).
//!
//! Anything else is `404`; a request line that does not parse is `400`; a
//! non-GET method is `405`. The protocol is deliberately minimal — HTTP/1.1
//! with `Connection: close`, no keep-alive, no TLS — it exists so `curl`
//! and the soak/bench harnesses can watch a matcher, not to face the
//! internet.
//!
//! **Determinism contract**: the endpoint observes and never feeds back.
//! Matching output is bit-identical with the server on or off, at any
//! `EM_THREADS` — `verify.sh` and `serve_stream.rs` hold that line.
//!
//! Connections are handled serially on the accept thread (a scrape is a
//! few kilobytes of formatting); the poller thread samples process RSS
//! and pool utilization about once a second.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use em_obs::live::{self, Gauge};
use em_obs::Counter;

/// `/metrics` scrapes served.
static SCRAPES: Counter = Counter::new("em.scrapes");
/// Resident set size of this process, from `/proc/self/status`.
static G_RSS: Gauge = Gauge::new("em.rss_kb");
/// Peak resident set size of this process.
static G_HWM: Gauge = Gauge::new("em.vm_hwm_kb");
/// Pool utilization in basis points: busy thread-ns over wall-ns × pool
/// width since the previous poll, capped at 10000.
static G_POOL_BP: Gauge = Gauge::new("em.pool_utilization_bp");
/// Configured `em-rt` pool width.
static G_THREADS: Gauge = Gauge::new("em.threads");

const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Largest request head we will buffer before answering.
const MAX_REQUEST_BYTES: usize = 8192;

/// Handle to a running metrics endpoint. Dropping it stops the accept and
/// poller threads and turns live telemetry back off.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    poller: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` and start serving; flips live telemetry on.
    ///
    /// # Errors
    /// Fails when the address cannot be bound (already in use, not local,
    /// unparseable) — the caller decides whether that is fatal.
    pub fn start(addr: &str) -> Result<MetricsServer, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr {addr}: {e}"))?;
        live::set_enabled(true);
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    if let Ok(stream) = conn {
                        handle_conn(stream);
                    }
                }
            })
        };
        let poller = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_busy = em_rt::stats::busy_ns_total();
                let mut last_wall = em_rt::stats::now_ns();
                loop {
                    poll_self_stats(&mut last_busy, &mut last_wall);
                    // Sleep ~1s in short steps so Drop joins promptly.
                    for _ in 0..10 {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(100));
                    }
                }
            })
        };
        Ok(MetricsServer {
            addr: local,
            stop,
            accept: Some(accept),
            poller: Some(poller),
        })
    }

    /// Start a server if `EM_METRICS` names a bind address; `Ok(None)`
    /// when the variable is unset, empty, `off`, or `0`.
    ///
    /// # Errors
    /// Propagates [`MetricsServer::start`] failures for a set address —
    /// an explicitly requested endpoint that cannot bind should be loud.
    pub fn start_from_env() -> Result<Option<MetricsServer>, String> {
        match std::env::var("EM_METRICS") {
            Ok(v) if !v.is_empty() && v != "off" && v != "0" => Ok(Some(Self::start(&v)?)),
            _ => Ok(None),
        }
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the accept loop: it only rechecks the stop flag when a
        // connection arrives.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.poller.take() {
            let _ = h.join();
        }
        live::set_enabled(false);
    }
}

/// Read one request head, route it, write one response, close.
fn handle_conn(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                let head_done = buf.windows(4).any(|w| w == b"\r\n\r\n")
                    || buf.windows(2).any(|w| w == b"\n\n");
                if head_done || buf.len() > MAX_REQUEST_BYTES {
                    break;
                }
            }
            Err(_) => break, // timeout or reset: answer what we have
        }
    }
    let (code, reason, body) = respond(&buf);
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
}

/// Route a raw request head to `(status, reason, body)`.
fn respond(req: &[u8]) -> (u16, &'static str, String) {
    let text = String::from_utf8_lossy(req);
    let line = text.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return (400, "Bad Request", "malformed request line\n".to_string()),
    };
    if method != "GET" {
        return (
            405,
            "Method Not Allowed",
            format!("method {method} not allowed; this endpoint is GET-only\n"),
        );
    }
    let path = target.split('?').next().unwrap_or(target);
    match path {
        "/metrics" => {
            SCRAPES.incr();
            (200, "OK", live::render_metrics())
        }
        "/healthz" => {
            let (ok, body) = live::render_health();
            if ok {
                (200, "OK", body)
            } else {
                (503, "Service Unavailable", body)
            }
        }
        "/slow" => (200, "OK", live::render_slow()),
        other => (404, "Not Found", format!("no route {other}\n")),
    }
}

/// Minimal HTTP GET against a [`MetricsServer`] (or anything speaking the
/// same one-shot protocol): returns `(status code, body)`. Shared by the
/// endpoint tests, `verify.sh`'s smoke client, and the soak harness's
/// fail-fast health checks.
///
/// # Errors
/// Fails on connect/read errors or a response with no status line.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("write {addr}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read {addr}: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("response has no header/body split: {raw:?}"))?;
    let code = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| format!("response has no status line: {head:?}"))?;
    Ok((code, body.to_string()))
}

/// Publish process + pool gauges: RSS/HWM from `/proc/self/status`, pool
/// utilization from the runtime's busy-ns counters diffed against wall
/// time since the previous poll.
fn poll_self_stats(last_busy: &mut u64, last_wall: &mut u64) {
    if let Some(kb) = proc_status_kb("VmRSS:") {
        G_RSS.set(kb);
    }
    if let Some(kb) = proc_status_kb("VmHWM:") {
        G_HWM.set(kb);
    }
    let threads = em_rt::threads() as u64;
    G_THREADS.set(threads);
    let busy = em_rt::stats::busy_ns_total();
    let wall = em_rt::stats::now_ns();
    let capacity = wall.saturating_sub(*last_wall).saturating_mul(threads);
    let spent = busy.saturating_sub(*last_busy).saturating_mul(10_000);
    if let Some(bp) = spent.checked_div(capacity) {
        G_POOL_BP.set(bp.min(10_000));
    }
    *last_busy = busy;
    *last_wall = wall;
}

/// Read one `kB` field from `/proc/self/status` (absent off Linux).
fn proc_status_kb(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = text.lines().find_map(|l| l.strip_prefix(key))?;
    rest.trim().trim_end_matches("kB").trim().parse().ok()
}

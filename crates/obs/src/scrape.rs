//! A read-only Prometheus-style text exposition endpoint over std TCP.
//!
//! [`serve`] binds `127.0.0.1:<port>` (port 0 picks an ephemeral port)
//! and answers every connection with one [`Registry`] snapshot
//! rendered as Prometheus text exposition — `# TYPE` line plus
//! `name value` per metric, dots mapped to underscores. The server is
//! deliberately minimal: no routing, no keep-alive, no query parameters;
//! one scrape is one snapshot. That keeps it inside the workspace's
//! no-new-deps rule (std `TcpListener` only) while staying readable by
//! `curl`, Prometheus, and the `obstool scrape` helper.
//!
//! # Example
//!
//! ```
//! use obs::scrape;
//!
//! let reg = obs::Registry::new();
//! reg.counter("demo.events").add(3);
//! let server = scrape::serve(reg, 0).unwrap();
//! let body = scrape::scrape_once(&server.addr().to_string()).unwrap();
//! assert!(body.contains("demo_events 3"));
//! server.stop();
//! ```

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::{MetricKind, Registry};

/// Renders one registry snapshot as Prometheus text exposition
/// (`text/plain; version=0.0.4`).
///
/// Metric names are the registry names passed through [`metric_name`].
#[must_use]
pub fn exposition(reg: &Registry) -> String {
    let mut out = String::new();
    for (name, value, kind) in reg.entries() {
        let metric = metric_name(&name);
        let kind = match kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        };
        out.push_str(&format!("# TYPE {metric} {kind}\n{metric} {value}\n"));
    }
    out
}

/// The exposition name of registry key `name` (or of a key prefix):
/// every character outside `[a-zA-Z0-9_:]` mapped to `_`
/// (`splitjoin.worker.0.batches` → `splitjoin_worker_0_batches`).
#[must_use]
pub fn metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// A running scrape endpoint (see [`serve`]).
#[derive(Debug)]
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    scrapes: Arc<AtomicU64>,
    handle: Option<thread::JoinHandle<()>>,
}

impl ScrapeServer {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections answered so far.
    #[must_use]
    pub fn scrapes(&self) -> u64 {
        self.scrapes.load(Ordering::Relaxed)
    }

    /// Stops accepting and joins the server thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            // Unblock `accept` with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `127.0.0.1:port` (0 = ephemeral) and serves [`exposition`]
/// snapshots of `reg` until [`ScrapeServer::stop`].
///
/// # Errors
///
/// Propagates the bind failure (port already taken, no loopback).
pub fn serve(reg: Registry, port: u16) -> io::Result<ScrapeServer> {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, port))?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let scrapes = Arc::new(AtomicU64::new(0));
    let thread_stop = Arc::clone(&stop);
    let thread_scrapes = Arc::clone(&scrapes);
    let handle = thread::Builder::new()
        .name("obs-scrape".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if thread_stop.load(Ordering::Relaxed) {
                    return;
                }
                let Ok(mut conn) = conn else { continue };
                // One snapshot per scrape; ignore per-connection errors
                // (a half-closed scraper must not kill the endpoint).
                let _ = answer(&mut conn, &reg);
                thread_scrapes.fetch_add(1, Ordering::Relaxed);
            }
        })
        .expect("spawn obs-scrape thread");
    Ok(ScrapeServer {
        addr,
        stop,
        scrapes,
        handle: Some(handle),
    })
}

fn answer(conn: &mut TcpStream, reg: &Registry) -> io::Result<()> {
    conn.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Drain the request line + headers (best effort; we answer any verb
    // and any path the same way).
    let mut buf = [0u8; 1024];
    let mut seen = Vec::new();
    loop {
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                seen.extend_from_slice(&buf[..n]);
                if seen.windows(4).any(|w| w == b"\r\n\r\n") || seen.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = exposition(reg);
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    conn.write_all(response.as_bytes())?;
    conn.flush()
}

/// Performs one scrape as a client: connects, sends a minimal HTTP GET,
/// and returns the response body. This is what `obstool scrape` and the
/// CI smoke leg use.
///
/// # Errors
///
/// Propagates connection/read failures; a non-200 status or missing
/// header separator is reported as [`io::ErrorKind::InvalidData`].
pub fn scrape_once(addr: &str) -> io::Result<String> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")?;
    let mut response = String::new();
    conn.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header separator"))?;
    if !head.starts_with("HTTP/1.0 200") && !head.starts_with("HTTP/1.1 200") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("non-200 response: {}", head.lines().next().unwrap_or("")),
        ));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_snapshots_until_stopped() {
        let reg = Registry::new();
        let events = reg.counter("unit.events");
        let depth = reg.gauge("unit.depth");
        events.add(41);
        depth.set(7);
        let server = serve(reg, 0).unwrap();
        let addr = server.addr().to_string();

        let body = scrape_once(&addr).unwrap();
        assert!(body.contains("# TYPE unit_events counter"), "{body}");
        assert!(body.contains("unit_events 41"), "{body}");
        assert!(body.contains("# TYPE unit_depth gauge"), "{body}");
        assert!(body.contains("unit_depth 7"), "{body}");

        // Scrapes see live updates — one scrape, one fresh snapshot.
        events.incr();
        let body = scrape_once(&addr).unwrap();
        assert!(body.contains("unit_events 42"), "{body}");

        assert!(server.scrapes() >= 2);
        server.stop();
        // The port is released: connecting now fails or yields nothing.
        assert!(scrape_once(&addr).is_err());
    }

    #[test]
    fn sanitizes_metric_names() {
        assert_eq!(
            metric_name("splitjoin.worker.0.busy_ns"),
            "splitjoin_worker_0_busy_ns"
        );
        assert_eq!(metric_name("a-b c:d"), "a_b_c:d");
    }
}

//! The exposition endpoint: a tiny blocking HTTP/1.1 listener serving
//! Prometheus text at `/metrics`. Hand-rolled on `TcpListener` like the
//! rest of the transport layer — one short-lived handler thread per
//! connection, each request re-invokes the provider so every scrape
//! sees live state.

use crate::Exposition;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A scrape callback: builds the current [`Exposition`] on demand.
pub type Provider = Arc<dyn Fn() -> Exposition + Send + Sync>;

/// A running telemetry endpoint; stops (and unblocks its accept loop)
/// on [`TelemetryServer::stop`] or drop.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, port 0 for ephemeral) and
    /// starts serving `provider`.
    pub fn start(addr: &str, provider: Provider) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let provider = Arc::clone(&provider);
                // Scrapes are rare and short; a detached thread per
                // connection keeps the accept loop responsive without a
                // pool.
                std::thread::spawn(move || {
                    let _ = handle(stream, &provider);
                });
            }
        });
        Ok(TelemetryServer {
            addr: local,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it.
    pub fn stop(&mut self) {
        if let Some(handle) = self.accept.take() {
            self.stop.store(true, Ordering::Relaxed);
            // Unblock the accept call with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn handle(mut stream: TcpStream, provider: &Provider) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    // Read until the end of the request head; we only need the request
    // line and never a body, so cap at 8 KiB.
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            provider().prometheus_text(),
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JobStats, Telemetry};
    use imr_simcluster::MetricsSnapshot;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn test_server() -> TelemetryServer {
        let tel = Arc::new(Telemetry::default());
        tel.sample(1_000, 0, 0, 5, &MetricsSnapshot::default());
        let provider: Provider = Arc::new(move || Exposition {
            jobs: vec![JobStats::from_telemetry(1, &tel)],
        });
        TelemetryServer::start("127.0.0.1:0", provider).unwrap()
    }

    #[test]
    fn serves_prometheus_text() {
        let server = test_server();
        let metrics = get(server.addr(), "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("text/plain"));
        assert!(metrics.contains("imr_iteration{job=\"1\"} 5"));
        let missing = get(server.addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn stop_unblocks_and_frees_the_port() {
        let mut server = test_server();
        let addr = server.addr();
        server.stop();
        // A rebind on the same port succeeds once the listener is gone.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok());
    }
}

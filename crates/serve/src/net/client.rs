//! The matching blocking HTTP client. [`Client`] keeps its connection
//! open across requests (HTTP/1.1 keep-alive), so a poll loop pays one
//! TCP handshake total instead of one per poll; the free functions are
//! one-shot conveniences over it. Used by the CLI (`mudock submit`,
//! `mudock poll`), the cluster coordinator, and the integration tests.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mudock_core::CampaignSpec;

use crate::ingest::LigandSource;
use crate::job::{JobId, LigandSlice, Priority};
use crate::wire::{self, JobStatus, Json, ReceptorSource, WireError};

/// A client-side failure.
///
/// Connect-refused and timeout are split out of the generic I/O
/// arm because a coordinator's dead-node detection treats them
/// differently: refused means nothing is listening (node down or
/// restarting — act now), a timeout means *something* answered the
/// handshake but stalled (overloaded or wedged — back off first).
#[derive(Debug)]
pub enum ClientError {
    /// Nothing is listening at the address.
    ConnectRefused(std::io::Error),
    /// A connect/read/write deadline expired.
    Timeout(std::io::Error),
    /// Any other connect/read/write failure.
    Io(std::io::Error),
    /// The server answered with a non-2xx status.
    Http { status: u16, body: String },
    /// The response body did not decode.
    Wire(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::ConnectRefused(e) => write!(f, "connection failed (refused): {e}"),
            ClientError::Timeout(e) => write!(f, "connection failed (timed out): {e}"),
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Http { status, body } => {
                // Surface the server's JSON error message when present.
                let detail = wire::parse(body)
                    .ok()
                    .and_then(|v| match v.get("error") {
                        Some(Json::Str(s)) => Some(s.clone()),
                        _ => None,
                    })
                    .unwrap_or_else(|| body.clone());
                write!(f, "HTTP {status}: {detail}")
            }
            ClientError::Wire(e) => write!(f, "bad response body: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::ConnectionRefused => ClientError::ConnectRefused(e),
            // Blocking sockets with SO_RCVTIMEO/SO_SNDTIMEO report
            // an expired deadline as WouldBlock on Unix (TimedOut
            // on Windows) — both are "the peer stalled".
            ErrorKind::TimedOut | ErrorKind::WouldBlock => ClientError::Timeout(e),
            _ => ClientError::Io(e),
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A raw HTTP exchange.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub body: String,
}

impl HttpResponse {
    /// Error on non-2xx, pass through otherwise.
    pub fn ok(self) -> Result<HttpResponse, ClientError> {
        if (200..300).contains(&self.status) {
            Ok(self)
        } else {
            Err(ClientError::Http {
                status: self.status,
                body: self.body,
            })
        }
    }
}

/// A keep-alive HTTP client bound to one server address.
///
/// The connection is opened lazily, reused across requests, and
/// dropped when the server answers `Connection: close` (or on any
/// I/O error). A request that fails on a *reused* connection is
/// retried once on a fresh one: the usual cause is the server's
/// idle timeout racing the request, and the retry makes that race
/// invisible to callers.
pub struct Client {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            conn: None,
        }
    }

    fn connect(addr: &str) -> Result<BufReader<TcpStream>, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let _ = stream.set_nodelay(true);
        Ok(BufReader::new(stream))
    }

    /// One blocking request; reuses the held connection when
    /// possible.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, ClientError> {
        let reused = self.conn.is_some();
        if self.conn.is_none() {
            self.conn = Some(Self::connect(&self.addr)?);
        }
        let conn = self.conn.as_mut().expect("just ensured");
        match Self::exchange(conn, &self.addr, method, path, body) {
            Ok((resp, keep)) => {
                if !keep {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.conn = None;
                if reused {
                    // Stale keep-alive connection (server idle
                    // timeout won the race): retry once, fresh.
                    // Timeouts retry too — the old socket may have
                    // died under us; refused never does, a fresh
                    // connect would have failed identically.
                    if let ClientError::Io(_) | ClientError::Timeout(_) = e {
                        let mut fresh = Self::connect(&self.addr)?;
                        let (resp, keep) =
                            Self::exchange(&mut fresh, &self.addr, method, path, body)?;
                        if keep {
                            self.conn = Some(fresh);
                        }
                        return Ok(resp);
                    }
                }
                Err(e)
            }
        }
    }

    fn exchange(
        reader: &mut BufReader<TcpStream>,
        addr: &str,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(HttpResponse, bool), ClientError> {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len(),
        );
        let stream = reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;

        let mut status_line = String::new();
        if reader.read_line(&mut status_line)? == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before the status line",
            )));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad status line '{}'", status_line.trim_end()),
                ))
            })?;
        let mut content_length: Option<usize> = None;
        let mut close = false;
        loop {
            let mut header = String::new();
            let n = reader.read_line(&mut header)?;
            let header = header.trim_end();
            if n == 0 || header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let body = match content_length {
            Some(len) => {
                let mut buf = vec![0u8; len];
                reader.read_exact(&mut buf)?;
                String::from_utf8_lossy(&buf).into_owned()
            }
            None => {
                // No framing: the exchange only ends at EOF, so
                // the connection cannot be reused.
                close = true;
                let mut buf = String::new();
                reader.read_to_string(&mut buf)?;
                buf
            }
        };
        Ok((HttpResponse { status, body }, !close))
    }

    /// `POST /jobs`: submit a campaign; returns the assigned job id.
    pub fn submit(
        &mut self,
        campaign: &CampaignSpec,
        receptor: &ReceptorSource,
        ligands: &LigandSource,
        priority: Priority,
    ) -> Result<JobId, ClientError> {
        self.submit_sliced(campaign, receptor, ligands, None, priority)
    }

    /// [`Client::submit`] with an optional sub-job window — the
    /// coordinator's scatter path. The server docks only
    /// `slice.take` ligands starting at global index `slice.skip`,
    /// seeding each by its global index, so the window's results
    /// are bit-identical to the same ligands of an unsliced run.
    pub fn submit_sliced(
        &mut self,
        campaign: &CampaignSpec,
        receptor: &ReceptorSource,
        ligands: &LigandSource,
        slice: Option<LigandSlice>,
        priority: Priority,
    ) -> Result<JobId, ClientError> {
        let body =
            wire::sliced_submission_to_json(campaign, receptor, ligands, slice, priority)?.encode();
        let resp = self.request("POST", "/jobs", Some(&body))?.ok()?;
        let v = wire::parse(&resp.body)?;
        match v.get("id") {
            Some(Json::Num(n)) => n
                .as_u64()
                .ok_or_else(|| ClientError::Wire(WireError::invalid("id", "expected an integer"))),
            _ => Err(ClientError::Wire(WireError::Missing { field: "id" })),
        }
    }

    /// `GET /jobs/{id}`: one status snapshot.
    pub fn poll(&mut self, id: JobId) -> Result<JobStatus, ClientError> {
        let resp = self.request("GET", &format!("/jobs/{id}"), None)?.ok()?;
        Ok(wire::status_from_json(&wire::parse(&resp.body)?)?)
    }

    /// Poll until the job reaches a terminal state — over one
    /// connection, not one per poll.
    pub fn wait(&mut self, id: JobId, interval: Duration) -> Result<JobStatus, ClientError> {
        loop {
            let status = self.poll(id)?;
            if status.is_terminal() {
                return Ok(status);
            }
            std::thread::sleep(interval);
        }
    }

    /// `GET /jobs/{id}/results`: the JSONL produced so far.
    pub fn results(&mut self, id: JobId) -> Result<String, ClientError> {
        Ok(self
            .request("GET", &format!("/jobs/{id}/results"), None)?
            .ok()?
            .body)
    }

    /// `DELETE /jobs/{id}`: request cancellation.
    pub fn cancel(&mut self, id: JobId) -> Result<JobStatus, ClientError> {
        let resp = self.request("DELETE", &format!("/jobs/{id}"), None)?.ok()?;
        Ok(wire::status_from_json(&wire::parse(&resp.body)?)?)
    }

    /// `GET /healthz`, as a boolean.
    pub fn healthy(&mut self) -> bool {
        matches!(self.request("GET", "/healthz", None), Ok(r) if r.status == 200)
    }

    /// `GET /healthz`, decoded. Tolerates pre-node-id servers: a
    /// plain `200` with no recognizable body still reports healthy,
    /// just without an identity.
    pub fn health(&mut self) -> Result<NodeHealth, ClientError> {
        let resp = self.request("GET", "/healthz", None)?.ok()?;
        let v = wire::parse(&resp.body).unwrap_or(Json::Null);
        let node = match v.get("node") {
            Some(Json::Str(s)) => u64::from_str_radix(s, 16).ok(),
            _ => None,
        };
        let version = match v.get("version") {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => None,
        };
        Ok(NodeHealth { node, version })
    }
}

/// A decoded `/healthz` body: the node's boot-random identity and
/// crate version (both `None` when talking to an old server).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeHealth {
    pub node: Option<u64>,
    pub version: Option<String>,
}

/// One-shot request against `addr` (e.g. `"127.0.0.1:7979"`).
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<HttpResponse, ClientError> {
    Client::new(addr).request(method, path, body)
}

/// `POST /jobs`: submit a campaign; returns the assigned job id.
pub fn submit(
    addr: &str,
    campaign: &CampaignSpec,
    receptor: &ReceptorSource,
    ligands: &LigandSource,
    priority: Priority,
) -> Result<JobId, ClientError> {
    Client::new(addr).submit(campaign, receptor, ligands, priority)
}

/// `GET /jobs/{id}`: one status snapshot.
pub fn poll(addr: &str, id: JobId) -> Result<JobStatus, ClientError> {
    Client::new(addr).poll(id)
}

/// Poll until the job reaches a terminal state (one keep-alive
/// connection for the whole loop).
pub fn wait(addr: &str, id: JobId, interval: Duration) -> Result<JobStatus, ClientError> {
    Client::new(addr).wait(id, interval)
}

/// `GET /jobs/{id}/results`: the JSONL produced so far.
pub fn results(addr: &str, id: JobId) -> Result<String, ClientError> {
    Client::new(addr).results(id)
}

/// `DELETE /jobs/{id}`: request cancellation.
pub fn cancel(addr: &str, id: JobId) -> Result<JobStatus, ClientError> {
    Client::new(addr).cancel(id)
}

/// `GET /healthz`, as a boolean.
pub fn healthy(addr: &str) -> bool {
    Client::new(addr).healthy()
}

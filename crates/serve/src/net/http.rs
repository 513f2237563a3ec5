//! HTTP/1.1 framing: finding and parsing a request head, reading and
//! parsing a response head under the same limits, and the [`Response`]
//! a router hands back.

use std::io::{self, BufRead, ErrorKind, Read};

use crate::wire::{Json, WireError};

/// One request/header line. Long enough for any payload this API
/// carries; short enough that a line-free byte stream cannot grow a
/// connection's memory.
const MAX_LINE_BYTES: usize = 16 << 10;
/// The whole request head (request line + headers + terminator).
pub(super) const MAX_HEAD_BYTES: usize = 32 << 10;
/// Header-line count cap.
const MAX_HEADERS: usize = 128;

/// Parsed request head.
pub(super) struct RequestHead {
    pub(super) method: String,
    pub(super) path: String,
    pub(super) content_length: usize,
    pub(super) keep_alive: bool,
}

/// Index just past the blank line ending the request head, if present.
/// Lines are `\n`-separated, tolerating the `\r` HTTP requires.
pub(super) fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match (buf.get(i + 1), buf.get(i + 2)) {
                (Some(b'\n'), _) => return Some(i + 2),
                (Some(b'\r'), Some(b'\n')) => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// The lines of a head, `\r` stripped, each at most `MAX_LINE_BYTES`
/// of UTF-8.
fn head_lines(head: &[u8]) -> impl Iterator<Item = Result<&str, (u16, String)>> {
    head.split(|&b| b == b'\n').map(|l| {
        let l = l.strip_suffix(b"\r").unwrap_or(l);
        if l.len() > MAX_LINE_BYTES {
            return Err((400, format!("line exceeds {MAX_LINE_BYTES} bytes")));
        }
        std::str::from_utf8(l).map_err(|_| (400, "non-UTF-8 line".to_string()))
    })
}

/// Read the header lines (after the start line) up to the blank one:
/// the `Content-Length`, if any, and the lowercased `Connection`. The
/// same rules bind both ends of the wire.
fn framing<'a>(
    lines: impl Iterator<Item = Result<&'a str, (u16, String)>>,
) -> Result<(Option<usize>, String), (u16, String)> {
    let mut content_length = None;
    let mut connection = String::new();
    let mut headers_seen = 0usize;
    for header in lines {
        let header = header?;
        if header.is_empty() {
            break; // the terminator line
        }
        headers_seen += 1;
        if headers_seen > MAX_HEADERS {
            return Err((400, format!("more than {MAX_HEADERS} header lines")));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                // RFC 9112 §6.3: `1*DIGIT` only (`usize::from_str` would
                // take a `+`), and copies that disagree are invalid
                // framing — the request-smuggling shape behind a proxy.
                let value = value.trim_matches([' ', '\t']);
                let len = Some(value)
                    .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or_else(|| (400, format!("bad content-length '{value}'")))?;
                if content_length.is_some_and(|seen| seen != len) {
                    return Err((400, "conflicting content-length headers".to_string()));
                }
                content_length = Some(len);
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && !value.trim().eq_ignore_ascii_case("identity")
            {
                return Err((501, "chunked bodies are not supported".to_string()));
            } else if name.eq_ignore_ascii_case("connection") {
                connection = value.trim().to_ascii_lowercase();
            }
        }
    }
    Ok((content_length, connection))
}

/// Parse the request line + headers. `Err(status, message)` is
/// answered as-is (and closes the connection).
pub(super) fn parse_head(head: &[u8]) -> Result<RequestHead, (u16, String)> {
    let mut lines = head_lines(head);
    let line = lines.next().unwrap_or(Ok(""))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or((400, "empty request line".to_string()))?
        .to_string();
    let path = parts
        .next()
        .ok_or((400, "request line without a path".to_string()))?
        .to_string();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err((505, format!("unsupported protocol '{version}'")));
    }
    let (content_length, connection) = framing(lines)?;
    // HTTP/1.1 defaults to keep-alive, 1.0 to close.
    let keep_alive = if version == "HTTP/1.0" {
        connection == "keep-alive"
    } else {
        connection != "close"
    };
    Ok(RequestHead {
        method,
        path,
        content_length: content_length.unwrap_or(0),
        keep_alive,
    })
}

/// Read a response head off `r`, through its blank line and no further,
/// under the limits a request head is read with. Returns the status,
/// the `Content-Length` (`None`: the body runs to the connection's end)
/// and whether the server closes the connection after it.
pub(super) fn read_response_head(r: &mut impl BufRead) -> io::Result<(u16, Option<usize>, bool)> {
    let mut head = Vec::new();
    loop {
        let start = head.len();
        let room = (MAX_HEAD_BYTES - start) as u64;
        let n = r.by_ref().take(room).read_until(b'\n', &mut head)?;
        if head.len() == MAX_HEAD_BYTES && (n == 0 || !head.ends_with(b"\n")) {
            let why = format!("response head exceeds {MAX_HEAD_BYTES} bytes");
            return Err(io::Error::new(ErrorKind::InvalidData, why));
        } else if n == 0 || !head.ends_with(b"\n") {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "closed before the response head ended",
            ));
        } else if matches!(&head[start..], b"\n" | b"\r\n") {
            break;
        }
    }
    let bad = |(_, why): (u16, String)| io::Error::new(ErrorKind::InvalidData, why);
    let mut lines = head_lines(&head);
    let line = lines.next().unwrap_or(Ok("")).map_err(bad)?;
    let code = line.split_whitespace().nth(1).and_then(|c| c.parse().ok());
    let status = code.ok_or_else(|| bad((0, format!("bad status line '{line}'"))))?;
    let (content_length, connection) = framing(lines).map_err(bad)?;
    Ok((status, content_length, connection == "close"))
}

pub(super) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Internal Server Error",
    }
}

/// A response body: in-memory text, or a file streamed straight from
/// disk (results can be large — they must not be buffered whole).
pub enum Body {
    Text(String),
    /// The file plus the length to advertise; the copy is capped at
    /// that length so a sink appending mid-response cannot overrun the
    /// declared `Content-Length`.
    File(std::fs::File, u64),
}

/// One HTTP response as the job API produces it.
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Body,
}

impl Response {
    /// A JSON body with the given status.
    pub fn json(status: u16, v: &Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: Body::Text(v.encode()),
        }
    }

    /// The standard `{"error": …}` envelope.
    pub fn error(status: u16, message: impl Into<String>) -> Response {
        Response::json(
            status,
            &Json::Obj(vec![("error".into(), Json::str(message.into()))]),
        )
    }

    /// A [`WireError`] mapped to its HTTP status.
    pub fn wire_error(e: &WireError) -> Response {
        Response::error(e.http_status(), e.to_string())
    }

    /// An arbitrary body under an explicit content type.
    pub fn text(status: u16, content_type: &'static str, body: String) -> Response {
        Response {
            status,
            content_type,
            body: Body::Text(body),
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use super::*;

    fn head_with(headers: &str) -> Result<RequestHead, (u16, String)> {
        parse_head(format!("POST /jobs HTTP/1.1\r\nHost: t\r\n{headers}\r\n").as_bytes())
    }

    #[test]
    fn content_length_accepts_only_digits_and_one_value() {
        for bad in [
            "Content-Length: +5\r\n",
            "Content-Length: 5, 6\r\n",
            "Content-Length: 5\r\nContent-Length: 6\r\n",
            "Content-Length: \r\n",
            "Content-Length: 5\x0b\r\n",
        ] {
            let (status, msg) = head_with(bad).err().unwrap_or_else(|| panic!("{bad:?}"));
            assert_eq!(status, 400, "{bad:?}: {msg}");
        }
        for (good, len) in [
            ("Content-Length: 5\r\n", 5),
            ("content-length:\t 17 \r\n", 17),
            ("Content-Length: 5\r\nContent-Length: 5\r\n", 5),
            ("", 0),
        ] {
            assert_eq!(
                head_with(good).map(|h| h.content_length),
                Ok(len),
                "{good:?}"
            );
        }
    }

    const HEADS: [&str; 4] = [
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 17\r\nConnection: keep-alive\r\n\r\n",
        "GET /stats HTTP/1.0\nConnection: close\n\n",
        "DELETE /jobs/3 HTTP/1.1\r\nTransfer-Encoding: identity\r\nContent-Length: 0\r\n\r\n",
    ];

    /// Flip, insert a CR/LF/NUL/0xff, or truncate at a random byte.
    fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        let at = rng.random_range(0usize..bytes.len());
        match rng.random_range(0u32..3) {
            0 => bytes[at] = rng.random_range(0u32..=255) as u8,
            1 => bytes.insert(at, [b'\r', b'\n', 0, 0xff][rng.random_range(0usize..4)]),
            _ => bytes.truncate(at),
        }
    }

    /// The `Content-Length` a successfully parsed head must report:
    /// every such header before the blank line holds exactly it.
    fn content_length_holds(head: &[u8], got: usize) -> bool {
        let mut seen = false;
        for line in head.split(|&b| b == b'\n').skip(1) {
            let line = String::from_utf8_lossy(line.strip_suffix(b"\r").unwrap_or(line));
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    let value = value.trim_matches([' ', '\t']);
                    if !value.bytes().all(|b| b.is_ascii_digit()) || value.parse() != Ok(got) {
                        return false;
                    }
                    seen = true;
                }
            }
        }
        seen || got == 0
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        #[test]
        fn hostile_heads_are_answered_never_panic(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bytes = HEADS[rng.random_range(0usize..HEADS.len())].as_bytes().to_vec();
            for _ in 0..rng.random_range(1usize..5) {
                mutate(&mut rng, &mut bytes);
            }
            // What the connection does (parse up to the terminator), and
            // the whole buffer for good measure.
            let framed = find_head_end(&bytes).map(|end| &bytes[..end]);
            for head in framed.into_iter().chain([bytes.as_slice()]) {
                match parse_head(head) {
                    Ok(h) => prop_assert!(
                        content_length_holds(head, h.content_length),
                        "content-length {} from {:?}", h.content_length, String::from_utf8_lossy(head)
                    ),
                    Err((status, msg)) => prop_assert!(
                        [400, 501, 505].contains(&status) && !msg.is_empty(),
                        "{} {:?} for {:?}", status, msg, String::from_utf8_lossy(head)
                    ),
                }
            }
        }
    }
}

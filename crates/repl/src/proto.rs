//! Client-side helpers for the replication verbs of the `machid` wire
//! protocol: a one-request-one-response line client plus parsers for
//! the `SHIP`/`SIDS` response grammar (documented in
//! `machiavelli_server::wire`).

use machiavelli_server::wire::from_hex;
use machiavelli_wal::{Ship, SnapshotTransfer};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A blocking line client over a TCP stream: write one request line,
/// read one response line.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineClient {
    /// Connect with an I/O timeout on reads and writes, so a partition
    /// surfaces as an error instead of a hang.
    pub fn connect(addr: &str, io_timeout: Duration) -> io::Result<LineClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(LineClient {
            reader,
            writer: stream,
        })
    }

    /// Send one request line — line and newline in one write, so the
    /// request is one segment — and read its response line (newline
    /// stripped). EOF mid-protocol is an error.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        let mut req = String::with_capacity(line.len() + 1);
        req.push_str(line);
        req.push('\n');
        self.writer.write_all(req.as_bytes())?;
        self.writer.flush()?;
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-protocol",
            ));
        }
        Ok(resp.trim_end_matches(['\n', '\r']).to_string())
    }
}

/// An error from parsing a wire response: either the server declined
/// (`ERR <kind> …`, kind preserved) or the line did not fit the
/// grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A typed `ERR` response.
    Declined { kind: String, message: String },
    /// The response did not parse as the expected `OK` form.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Declined { kind, message } => {
                write!(f, "server declined ({kind}): {message}")
            }
            WireError::Malformed(line) => write!(f, "malformed response: {line}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Split off a typed `ERR kind message` response.
fn not_err(resp: &str) -> Result<&str, WireError> {
    if let Some(rest) = resp.strip_prefix("ERR ") {
        let (kind, message) = rest.split_once(' ').unwrap_or((rest, ""));
        return Err(WireError::Declined {
            kind: kind.to_string(),
            message: message.to_string(),
        });
    }
    Ok(resp)
}

fn malformed(resp: &str) -> WireError {
    WireError::Malformed(resp.to_string())
}

fn hex_field(tok: &str, resp: &str) -> Result<Vec<u8>, WireError> {
    if tok == "-" {
        return Ok(Vec::new());
    }
    from_hex(tok).ok_or_else(|| malformed(resp))
}

/// Parse an `OK sids <n> [<sid>]…` response.
pub fn parse_sids(resp: &str) -> Result<Vec<u64>, WireError> {
    let resp_ok = not_err(resp)?;
    let rest = resp_ok
        .strip_prefix("OK sids ")
        .ok_or_else(|| malformed(resp))?;
    let mut toks = rest.split_whitespace();
    let n: usize = toks
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| malformed(resp))?;
    let sids: Vec<u64> = toks
        .map(|t| t.parse())
        .collect::<Result<_, _>>()
        .map_err(|_| malformed(resp))?;
    if sids.len() != n {
        return Err(malformed(resp));
    }
    Ok(sids)
}

/// Parse an `OK ship …` response into the [`Ship`] it encodes.
pub fn parse_ship(resp: &str) -> Result<Ship, WireError> {
    let resp_ok = not_err(resp)?;
    let rest = resp_ok
        .strip_prefix("OK ship ")
        .ok_or_else(|| malformed(resp))?;
    let mut toks = rest.split_whitespace();
    match toks.next() {
        Some("groups") => {
            let gen = toks.next().and_then(|t| t.parse().ok());
            let from = toks.next().and_then(|t| t.parse().ok());
            let groups = toks.next().and_then(|t| t.parse().ok());
            let bytes = toks.next();
            match (gen, from, groups, bytes, toks.next()) {
                (Some(gen), Some(from), Some(groups), Some(bytes), None) => Ok(Ship::Groups {
                    gen,
                    from,
                    groups,
                    bytes: hex_field(bytes, resp)?,
                }),
                _ => Err(malformed(resp)),
            }
        }
        Some("snapshot") => {
            let gen = toks.next().and_then(|t| t.parse().ok());
            let snap = toks.next();
            let log = toks.next();
            match (gen, snap, log, toks.next()) {
                (Some(gen), Some(snap), Some(log), None) => Ok(Ship::Snapshot(SnapshotTransfer {
                    gen,
                    snap: if snap == "-" {
                        None
                    } else {
                        Some(hex_field(snap, resp)?)
                    },
                    log: hex_field(log, resp)?,
                })),
                _ => Err(malformed(resp)),
            }
        }
        _ => Err(malformed(resp)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sids_round_trip() {
        assert_eq!(parse_sids("OK sids 0").unwrap(), vec![]);
        assert_eq!(parse_sids("OK sids 2 1 7").unwrap(), vec![1, 7]);
        assert!(parse_sids("OK sids 2 1").is_err(), "count mismatch");
        assert!(matches!(
            parse_sids("ERR shutdown server is shut down"),
            Err(WireError::Declined { kind, .. }) if kind == "shutdown"
        ));
    }

    #[test]
    fn ship_round_trip() {
        assert_eq!(
            parse_ship("OK ship groups 3 128 0 -").unwrap(),
            Ship::Groups {
                gen: 3,
                from: 128,
                groups: 0,
                bytes: vec![]
            }
        );
        assert_eq!(
            parse_ship("OK ship groups 1 20 2 00ff10").unwrap(),
            Ship::Groups {
                gen: 1,
                from: 20,
                groups: 2,
                bytes: vec![0x00, 0xff, 0x10]
            }
        );
        assert_eq!(
            parse_ship("OK ship snapshot 2 - 414243").unwrap(),
            Ship::Snapshot(SnapshotTransfer {
                gen: 2,
                snap: None,
                log: b"ABC".to_vec()
            })
        );
        assert!(parse_ship("OK ship groups 1 20 2 zz").is_err());
        assert!(parse_ship("OK saved 1 gen 2").is_err());
    }
}

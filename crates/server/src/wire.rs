//! A line-oriented wire protocol over any `BufRead`/`Write` pair.
//!
//! One request per line, one response line per request (newlines in
//! values are escaped as `\n`), so the protocol is testable on byte
//! buffers and usable over TCP (`machid`) or a pipe:
//!
//! ```text
//! OPEN                -> OK <sid>
//! EVAL <sid> <src>    -> VAL <outcomes; "; "-joined>  |  ERR <kind> <message>
//! CLOSE <sid>         -> OK closed <sid>              |  ERR <kind> <message>
//! SAVE <sid>          -> OK saved <sid> gen <g>       |  ERR <kind> <message>
//! RESTORE <sid>       -> OK restored <sid> <n>        |  ERR <kind> <message>
//! STATS               -> OK <stats line>
//! METRICS             -> OK <Prometheus text exposition, newline-escaped>
//! HEALTH              -> OK role <role> slots <n> [<sid>:<status>:gen=<g>:groups=<n>:lag=<l|->]…
//! SIDS                -> OK sids <n> [<sid>]…
//! SHIP <sid> <gen> <off> <crc> -> OK ship groups <gen> <from> <n> <hex|->
//!                              |  OK ship snapshot <gen> <snaphex|-> <loghex>
//! ACK <sid> <gen> <groups>     -> OK ack <sid>
//! PROMOTE [<floor>]   -> OK promoted <role> fenced <n>
//! QUIT                -> OK bye   (ends the connection)
//! ```
//!
//! `SAVE` forces a checkpoint of a durable session; `RESTORE` discards
//! its in-memory state and recovers from disk (including a poisoned
//! session). Both require the server to run with a durable root.
//!
//! `SHIP`/`ACK`/`SIDS` are the replication channel a follower's
//! replicator drives against the primary (chunk payloads hex-encoded —
//! WAL frames are binary and the protocol is line-oriented); `PROMOTE`
//! fences a follower up to primary, above the deposed primary's last
//! known generation when `<floor>` is given; `HEALTH` is for load
//! balancers.
//!
//! `ERR` responses carry the stable [`ServerError::kind`] tag first, so
//! clients can branch on `deadline` / `busy` / `session-panicked`
//! without parsing prose.
//!
//! Request lines are capped (`MACHID_MAX_LINE_BYTES`, default 1 MiB):
//! an oversized or newline-free stream gets a typed
//! `ERR protocol line-too-long …`, the offending line is discarded,
//! and the connection stays usable — one client cannot grow a buffer
//! without bound.
//!
//! One write per reply: every response line goes out with its newline
//! in a single `write_all`, then a flush. A reply split across two
//! writes on a socket leaves its tail to Nagle's algorithm, which holds
//! it until the client's delayed ACK fires (≈ 40 ms on Linux) — a floor
//! under every request. [`serve_tcp`] also sets `TCP_NODELAY`, so a
//! reply longer than one segment is not held back either.

use crate::error::ServerError;
use crate::server::Server;
use machiavelli_wal::{LogCursor, Ship};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::OnceLock;

/// Default request-line cap (bytes, newline included).
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

fn env_max_line_bytes() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("MACHID_MAX_LINE_BYTES")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 64)
            .unwrap_or(DEFAULT_MAX_LINE_BYTES)
    })
}

/// Escape a response payload onto a single line.
fn one_line(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Undo the server's response escaping: `\n` back to a newline, `\\`
/// back to a backslash. Clients apply this to `VAL`/`OK` payloads.
pub fn unescape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Lowercase hex encoding for binary replication payloads.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write as _;
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Decode [`to_hex`] output. `None` on odd length or a non-hex digit.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

fn hex_or_dash(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        "-".to_string()
    } else {
        to_hex(bytes)
    }
}

fn err_line(e: &ServerError) -> String {
    format!("ERR {} {}", e.kind(), one_line(&e.to_string()))
}

/// Discard input up to and including the next newline (or EOF) — the
/// tail of an oversized request line.
fn drain_line<R: BufRead>(reader: &mut R) -> io::Result<()> {
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(i) => {
                reader.consume(i + 1);
                return Ok(());
            }
            None => {
                let n = available.len();
                reader.consume(n);
            }
        }
    }
}

/// Send one response line: the line and its newline in a single
/// `write_all`, then a flush.
fn send<W: Write>(out: &mut W, mut line: String) -> io::Result<()> {
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}

/// Serve one accepted TCP connection until `QUIT` or EOF: make the
/// stream blocking, set `TCP_NODELAY`, buffer the read half, and hand
/// both halves to [`serve_connection`]. The one entry point `machid`
/// and the TCP tests share.
pub fn serve_tcp(server: &Server, stream: TcpStream) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    serve_connection(server, reader, stream)
}

/// Serve one client connection until `QUIT` or EOF, with the line cap
/// from `MACHID_MAX_LINE_BYTES` (default 1 MiB). Every request gets
/// exactly one response line; protocol mistakes get `ERR protocol …`
/// and the connection stays usable.
pub fn serve_connection<R: BufRead, W: Write>(
    server: &Server,
    reader: R,
    out: W,
) -> io::Result<()> {
    serve_connection_with_limit(server, reader, out, env_max_line_bytes())
}

/// [`serve_connection`] with an explicit request-line cap in bytes.
pub fn serve_connection_with_limit<R: BufRead, W: Write>(
    server: &Server,
    mut reader: R,
    mut out: W,
    max_line: usize,
) -> io::Result<()> {
    let max_line = max_line.max(8);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        // Bounded read: at most cap+1 bytes land in memory however
        // newline-free the stream is. Reading exactly cap+1 without a
        // trailing newline is the oversize signature.
        let n = io::Read::take(&mut reader, max_line as u64 + 1).read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(());
        }
        if buf.len() > max_line && buf.last() != Some(&b'\n') {
            drain_line(&mut reader)?;
            send(&mut out, err_line(&ServerError::LineTooLong(max_line)))?;
            continue;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            send(&mut out, "ERR protocol request is not valid utf-8".into())?;
            continue;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        let response = match cmd {
            "OPEN" => match server.open_session() {
                Ok(sid) => format!("OK {sid}"),
                Err(e) => err_line(&e),
            },
            "EVAL" => match rest.split_once(char::is_whitespace) {
                Some((sid, src)) => match sid.parse::<u64>() {
                    Ok(sid) => match server.eval(sid, src) {
                        Ok(outcomes) => format!("VAL {}", one_line(&outcomes.join("; "))),
                        Err(e) => err_line(&e),
                    },
                    Err(_) => format!("ERR protocol bad session id: {}", one_line(sid)),
                },
                None => "ERR protocol usage: EVAL <sid> <src>".to_string(),
            },
            "CLOSE" => match rest.parse::<u64>() {
                Ok(sid) => match server.close_session(sid) {
                    Ok(()) => format!("OK closed {sid}"),
                    Err(e) => err_line(&e),
                },
                Err(_) => format!("ERR protocol bad session id: {}", one_line(rest)),
            },
            "SAVE" => match rest.parse::<u64>() {
                Ok(sid) => match server.save_session(sid) {
                    Ok(gen) => format!("OK saved {sid} gen {gen}"),
                    Err(e) => err_line(&e),
                },
                Err(_) => format!("ERR protocol bad session id: {}", one_line(rest)),
            },
            "RESTORE" => match rest.parse::<u64>() {
                Ok(sid) => match server.restore_session(sid) {
                    Ok(n) => format!("OK restored {sid} {n}"),
                    Err(e) => err_line(&e),
                },
                Err(_) => format!("ERR protocol bad session id: {}", one_line(rest)),
            },
            "STATS" => format!("OK {}", server.stats()),
            "METRICS" => format!("OK {}", one_line(&server.metrics_text())),
            "HEALTH" => {
                let report = server.health();
                let mut line = format!("OK role {} slots {}", report.role, report.slots.len());
                for slot in &report.slots {
                    let status = if slot.poisoned {
                        "poisoned"
                    } else if slot.doomed_log {
                        "doomed-log"
                    } else {
                        "ok"
                    };
                    let opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
                    line.push_str(&format!(
                        " {}:{}:gen={}:groups={}:lag={}",
                        slot.sid,
                        status,
                        opt(slot.gen),
                        opt(slot.groups),
                        opt(slot.lag),
                    ));
                }
                line
            }
            "SIDS" => {
                let sids = server.session_ids();
                let mut line = format!("OK sids {}", sids.len());
                for sid in sids {
                    line.push_str(&format!(" {sid}"));
                }
                line
            }
            "SHIP" => {
                let mut parts = rest.split_whitespace();
                let parsed = (|| {
                    let sid = parts.next()?.parse::<u64>().ok()?;
                    let gen = parts.next()?.parse::<u64>().ok()?;
                    let offset = parts.next()?.parse::<u64>().ok()?;
                    let crc = parts.next()?.parse::<u32>().ok()?;
                    Some((sid, LogCursor { gen, offset, crc }))
                })();
                match parsed {
                    Some((sid, cursor)) => match server.ship(sid, cursor) {
                        Ok(Ship::Groups {
                            gen,
                            from,
                            groups,
                            bytes,
                        }) => format!(
                            "OK ship groups {gen} {from} {groups} {}",
                            hex_or_dash(&bytes)
                        ),
                        Ok(Ship::Snapshot(t)) => format!(
                            "OK ship snapshot {} {} {}",
                            t.gen,
                            t.snap.as_deref().map_or("-".to_string(), to_hex),
                            hex_or_dash(&t.log),
                        ),
                        Err(e) => err_line(&e),
                    },
                    None => "ERR protocol usage: SHIP <sid> <gen> <offset> <crc>".to_string(),
                }
            }
            "ACK" => {
                let mut parts = rest.split_whitespace();
                let parsed = (|| {
                    let sid = parts.next()?.parse::<u64>().ok()?;
                    let gen = parts.next()?.parse::<u64>().ok()?;
                    let groups = parts.next()?.parse::<u64>().ok()?;
                    Some((sid, gen, groups))
                })();
                match parsed {
                    Some((sid, gen, groups)) => {
                        // A "lost" ack models the network eating it: the
                        // primary still answers, it just never saw it.
                        let _ = server.record_ack(sid, gen, groups);
                        format!("OK ack {sid}")
                    }
                    None => "ERR protocol usage: ACK <sid> <gen> <groups>".to_string(),
                }
            }
            "PROMOTE" => {
                let floor = if rest.is_empty() {
                    Ok(0)
                } else {
                    rest.parse::<u64>()
                };
                match floor.map(|floor| server.promote(floor)) {
                    Ok(Ok(fenced)) => format!("OK promoted {} fenced {fenced}", server.role()),
                    Ok(Err(e)) => err_line(&e),
                    Err(_) => "ERR protocol usage: PROMOTE [<floor>]".to_string(),
                }
            }
            "QUIT" => return send(&mut out, "OK bye".into()),
            other => format!("ERR protocol unknown command: {}", one_line(other)),
        };
        send(&mut out, response)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;
    use crate::server::{AckState, ServerConfig};

    fn quiet_server() -> Server {
        Server::start(ServerConfig {
            queue_cap: 8,
            row_budget: None,
            faults: Some(FaultConfig::off()),
            ..ServerConfig::default()
        })
    }

    fn drive(server: &Server, script: &str) -> Vec<String> {
        let mut out = Vec::new();
        serve_connection(server, script.as_bytes(), &mut out).expect("serve");
        String::from_utf8(out)
            .expect("utf8")
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn roundtrip_over_byte_buffers() {
        let server = quiet_server();
        let lines = drive(&server, "OPEN\nEVAL 1 1 + 2;\nCLOSE 1\nQUIT\n");
        assert_eq!(lines[0], "OK 1");
        assert_eq!(lines[1], "VAL val it = 3 : int");
        assert_eq!(lines[2], "OK closed 1");
        assert_eq!(lines[3], "OK bye");
    }

    #[test]
    fn errors_carry_machine_readable_kinds() {
        let server = quiet_server();
        let lines = drive(
            &server,
            "EVAL 99 1;\nOPEN\nEVAL 1 nonsense ;;;\nCLOSE 99\nNOPE\nEVAL x 1;\n",
        );
        assert!(lines[0].starts_with("ERR no-such-session "), "{}", lines[0]);
        assert_eq!(lines[1], "OK 1");
        assert!(lines[2].starts_with("ERR query "), "{}", lines[2]);
        assert!(lines[3].starts_with("ERR no-such-session "), "{}", lines[3]);
        assert!(
            lines[4].starts_with("ERR protocol unknown command"),
            "{}",
            lines[4]
        );
        assert!(
            lines[5].starts_with("ERR protocol bad session id"),
            "{}",
            lines[5]
        );
    }

    #[test]
    fn stats_and_blank_lines() {
        let server = quiet_server();
        let lines = drive(&server, "\n  \nSTATS\nQUIT\n");
        assert!(lines[0].starts_with("OK sessions "), "{}", lines[0]);
        assert_eq!(lines[1], "OK bye");
    }

    #[test]
    fn every_reply_is_one_write_ending_in_a_newline() {
        /// Records the bytes of each `write` call separately.
        #[derive(Default)]
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let server = quiet_server();
        let mut script = format!(
            "OPEN\nEVAL 1 1 + 2;\nEVAL 1 nonsense ;;;\n{}\n",
            "X".repeat(200)
        )
        .into_bytes();
        script.extend_from_slice(&[0xff, 0xfe, b'\n']);
        script.extend_from_slice(b"QUIT\n");
        let mut out = Writes::default();
        serve_connection_with_limit(&server, &script[..], &mut out, 128).expect("serve");
        let replies: Vec<String> = out
            .0
            .iter()
            .map(|w| String::from_utf8(w.clone()).expect("utf8"))
            .collect();
        let expected_prefixes = [
            "OK 1",
            "VAL val it = 3 : int",
            "ERR query ",
            "ERR protocol line-too-long",
            "ERR protocol request is not valid utf-8",
            "OK bye",
        ];
        assert_eq!(replies.len(), expected_prefixes.len(), "{replies:?}");
        for (reply, prefix) in replies.iter().zip(expected_prefixes) {
            assert!(reply.starts_with(prefix), "{reply:?} vs {prefix:?}");
            assert!(reply.ends_with('\n'), "{reply:?}");
            assert_eq!(reply.matches('\n').count(), 1, "{reply:?}");
        }
    }

    #[test]
    fn multiline_values_are_escaped() {
        assert_eq!(one_line("a\nb\\c"), "a\\nb\\\\c");
    }

    #[test]
    fn escape_round_trips() {
        for s in ["a\nb\\c", "\\n", "\n\n\\", "plain", "", "tail\\"] {
            assert_eq!(unescape_line(&one_line(s)), s, "{s:?}");
        }
        // Unknown escapes and a trailing backslash pass through.
        assert_eq!(unescape_line("a\\qb\\"), "a\\qb\\");
    }

    #[test]
    fn hex_round_trips() {
        for bytes in [&b""[..], &b"\x00\xff\x10"[..], &b"machiavelli"[..]] {
            assert_eq!(from_hex(&to_hex(bytes)).as_deref(), Some(bytes));
        }
        assert_eq!(from_hex("abc"), None, "odd length");
        assert_eq!(from_hex("zz"), None, "non-hex digit");
    }

    #[test]
    fn oversized_line_gets_typed_error_and_connection_survives() {
        let server = quiet_server();
        let long = "X".repeat(4096);
        let script = format!("OPEN\n{long}\nEVAL 1 1 + 2;\nQUIT\n");
        let mut out = Vec::new();
        serve_connection_with_limit(&server, script.as_bytes(), &mut out, 128).expect("serve");
        let lines: Vec<String> = String::from_utf8(out)
            .expect("utf8")
            .lines()
            .map(str::to_string)
            .collect();
        assert_eq!(lines[0], "OK 1");
        assert!(
            lines[1].starts_with("ERR protocol line-too-long"),
            "{}",
            lines[1]
        );
        assert_eq!(lines[2], "VAL val it = 3 : int", "connection still usable");
        assert_eq!(lines[3], "OK bye");
    }

    #[test]
    fn newline_free_stream_is_bounded_and_eof_safe() {
        // No newline at all: the server must not buffer the stream
        // whole, and EOF after the oversized junk must end cleanly.
        let server = quiet_server();
        let mut out = Vec::new();
        let junk = "Y".repeat(1000);
        serve_connection_with_limit(&server, junk.as_bytes(), &mut out, 64).expect("serve");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("ERR protocol line-too-long"), "{text}");
        assert_eq!(text.lines().count(), 1, "one error for the whole blob");
    }

    #[test]
    fn exact_cap_line_is_accepted() {
        let server = quiet_server();
        // "EVAL 1 1 + 2;" padded with trailing spaces to exactly the
        // cap (newline included) still parses.
        let cap = 64;
        let body = "EVAL 1 1 + 2;";
        let line = format!("{body}{}", " ".repeat(cap - 1 - body.len()));
        assert_eq!(line.len() + 1, cap, "line plus newline fills the cap");
        let script = format!("OPEN\n{line}\nQUIT\n");
        let mut out = Vec::new();
        serve_connection_with_limit(&server, script.as_bytes(), &mut out, cap).expect("serve");
        let lines: Vec<String> = String::from_utf8(out)
            .expect("utf8")
            .lines()
            .map(str::to_string)
            .collect();
        assert_eq!(lines[1], "VAL val it = 3 : int");
    }

    #[test]
    fn non_utf8_request_gets_typed_error() {
        let server = quiet_server();
        let mut script: Vec<u8> = b"OPEN\n".to_vec();
        script.extend_from_slice(&[0xff, 0xfe, b'\n']);
        script.extend_from_slice(b"QUIT\n");
        let mut out = Vec::new();
        serve_connection(&server, &script[..], &mut out).expect("serve");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "OK 1");
        assert!(lines[1].starts_with("ERR protocol"), "{}", lines[1]);
        assert_eq!(lines[2], "OK bye");
    }

    #[test]
    fn health_and_sids_respond_in_memory() {
        let server = quiet_server();
        let lines = drive(&server, "OPEN\nHEALTH\nSIDS\nQUIT\n");
        assert_eq!(lines[0], "OK 1");
        assert!(
            lines[1].starts_with("OK role primary slots 1 1:ok:"),
            "{}",
            lines[1]
        );
        assert_eq!(lines[2], "OK sids 1 1");
    }

    #[test]
    fn acks_are_kept_only_for_live_sessions() {
        let server = quiet_server();
        // Any connection can send any sid: the reply stays `OK ack`,
        // but nothing is remembered for sessions never opened.
        let script: String = (1..=10_000u64)
            .map(|sid| format!("ACK {sid} 0 0\n"))
            .collect();
        let lines = drive(&server, &script);
        assert_eq!(lines.len(), 10_000);
        assert_eq!(lines[41], "OK ack 42");
        assert!((1..=10_000).all(|sid| server.acked(sid).is_none()));

        // ack → close → the entry goes with the session.
        let lines = drive(&server, "OPEN\nACK 1 3 7\n");
        assert_eq!(lines, ["OK 1", "OK ack 1"]);
        assert_eq!(server.acked(1), Some(AckState { gen: 3, groups: 7 }));
        assert_eq!(drive(&server, "CLOSE 1\n"), ["OK closed 1"]);
        assert_eq!(server.acked(1), None);
    }
}

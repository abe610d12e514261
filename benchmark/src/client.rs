//! The client side of the wire: spawned `machid` processes, blocking
//! connections, and the counters scraped through the program's own verbs.

use machiavelli_server::wire::unescape_line;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A reply that takes this long means the server is stuck; fail the run
/// well inside the 180 s a run may take.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `machid`. Killed (SIGKILL) and reaped on drop, and by the
/// kernel if this process dies first, so no exit path leaves one behind.
pub struct Machid {
    child: Child,
    pub addr: String,
}

impl Machid {
    /// Spawn `bin` on a free loopback port with `env` added to an
    /// environment stripped of every other `MACHI*` knob, and wait until it
    /// accepts connections. Its stderr goes to `log`.
    pub fn spawn(bin: &Path, env: &[(String, String)], log: &Path) -> io::Result<Machid> {
        // Bind port 0 to learn a free port, then hand it to machid.
        let port = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
        let addr = format!("127.0.0.1:{port}");
        let mut cmd = Command::new(bin);
        cmd.arg(&addr)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(log)?);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("MACHI") {
                cmd.env_remove(key);
            }
        }
        cmd.envs(env.iter().map(|(k, v)| (k, v)));
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        const PR_SET_PDEATHSIG: i32 = 1;
        const SIGKILL: std::ffi::c_ulong = 9;
        // SAFETY: the closure runs in the forked child before exec and only
        // makes one async-signal-safe system call with constant arguments.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut machid = Machid {
            child: cmd.spawn()?,
            addr,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if TcpStream::connect(&machid.addr).is_ok() {
                return Ok(machid);
            }
            if let Some(status) = machid.child.try_wait()? {
                return Err(io::Error::other(format!("machid exited early: {status}")));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("machid did not start listening"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Machid {
    fn drop(&mut self) {
        // SIGKILL, never SIGTERM: the durable workloads rely on an abrupt
        // stop, and nothing here wants a final checkpoint.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection: an ordinary blocking `TcpStream`, one request in
/// flight.
///
/// `set_nodelay(true)` on this side only. Against the parent commit every
/// reply still takes ≈ 44 ms: `serve_connection` writes the response and its
/// newline as two small writes on a socket without `TCP_NODELAY`, so Nagle
/// holds the newline until this side's delayed ACK fires. That floor is a
/// finding, not an obstacle: no `TCP_QUICKACK`, no pipelining, and no edit
/// under `crates/` may be used here to get round it.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            reply: String::new(),
        })
    }

    /// Send one request line (newline included, one write) and block for
    /// the full reply line, returned without its newline.
    pub fn round_trip(&mut self, line: &str) -> io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.reply.clear();
        self.reader.read_line(&mut self.reply)?;
        match self.reply.strip_suffix('\n') {
            Some(reply) => Ok(reply),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "short read: the connection closed mid-reply",
            )),
        }
    }

    /// `OPEN` a session and return its id.
    pub fn open_session(&mut self) -> io::Result<u64> {
        let reply = self.round_trip("OPEN\n")?;
        reply
            .strip_prefix("OK ")
            .and_then(|sid| sid.parse().ok())
            .ok_or_else(|| io::Error::other(format!("OPEN answered {reply:?}")))
    }
}

/// Counters read through `METRICS` and `HEALTH` at one instant.
pub struct Scrape {
    /// Prometheus samples by name (labels kept as part of the name), plus
    /// `machiavelli_declines_total` summed over its reasons.
    samples: BTreeMap<String, f64>,
    /// [`lag_groups`] at the same instant.
    pub lag_groups: u64,
}

impl Scrape {
    pub fn take(conn: &mut Conn) -> io::Result<Scrape> {
        let metrics = conn.round_trip("METRICS\n")?;
        let text = metrics
            .strip_prefix("OK ")
            .map(unescape_line)
            .ok_or_else(|| io::Error::other("METRICS did not answer OK"))?;
        let mut samples = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(value) = value.parse::<f64>() {
                    samples.insert(name.to_string(), value);
                    if name.starts_with("machiavelli_declines_total{") {
                        *samples
                            .entry("machiavelli_declines_total".to_string())
                            .or_insert(0.0) += value;
                    }
                }
            }
        }
        Ok(Scrape {
            samples,
            lag_groups: lag_groups(conn)?,
        })
    }

    fn get(&self, name: &str) -> f64 {
        self.samples.get(name).copied().unwrap_or(0.0)
    }
}

/// Σ `lag` over the `HEALTH` slots: commit groups the primary holds that its
/// follower has not acknowledged.
pub fn lag_groups(conn: &mut Conn) -> io::Result<u64> {
    let health = conn.round_trip("HEALTH\n")?;
    Ok(health
        .split_whitespace()
        .filter_map(|slot| slot.rsplit_once(":lag=")?.1.parse::<u64>().ok())
        .sum())
}

/// What the counters did between two scrapes.
pub struct Delta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Delta<'_> {
    /// Increase of `machiavelli_<name>` over the interval.
    pub fn of(&self, name: &str) -> f64 {
        let name = format!("machiavelli_{name}");
        self.after.get(&name) - self.before.get(&name)
    }
}

//! `RESTORE` racing concurrent `EVAL`s on the *same* session from a
//! second connection, plus wire-escape round-trips of payloads that
//! carry literal newlines and backslashes.
//!
//! The per-slot FIFO makes RESTORE atomic with respect to in-flight
//! evals, and every acked commit is on disk before its reply — so a
//! restore mid-storm can never lose an increment the client saw `VAL`
//! for, and the counter's final value is exactly the number of acked
//! increments.

use machiavelli_server::wire::unescape_line;
use machiavelli_server::{serve_tcp, Server, ServerConfig, ServerRole};
use machiavelli_value::faults::FaultConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mach-restore-race-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_server(root: &Path) -> Arc<Server> {
    Arc::new(Server::start(ServerConfig {
        workers: 2,
        queue_cap: 64,
        default_deadline: None,
        row_budget: None,
        faults: Some(FaultConfig::off()),
        durable_root: Some(root.to_path_buf()),
        role: ServerRole::Primary,
    }))
}

fn spawn_wire(server: Arc<Server>) -> (String, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    listener.set_nonblocking(true).expect("nonblocking");
    let stop = Arc::new(AtomicBool::new(false));
    let stop_accept = Arc::clone(&stop);
    std::thread::spawn(move || {
        while !stop_accept.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let server = Arc::clone(&server);
                    std::thread::spawn(move || serve_tcp(&server, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
    });
    (addr, stop)
}

/// A deliberately tiny line client — one request, one reply line.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("write");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read");
        reply.trim_end_matches('\n').to_string()
    }
}

#[test]
fn restore_races_concurrent_evals_on_the_same_session() {
    let root = tempdir("race");
    let server = durable_server(&root);
    let (addr, stop) = spawn_wire(Arc::clone(&server));

    let mut conn1 = Conn::open(&addr);
    assert_eq!(conn1.request("OPEN"), "OK 1");
    assert!(conn1.request("EVAL 1 val c = ref(0);").starts_with("VAL "));

    // Connection 1 hammers increments; connection 2 keeps restoring the
    // same session underneath it.
    const INCREMENTS: usize = 120;
    let writer = std::thread::spawn(move || {
        let mut acked = 0usize;
        for _ in 0..INCREMENTS {
            let reply = conn1.request("EVAL 1 c := !c + 1;");
            assert!(
                reply.starts_with("VAL "),
                "an increment must never fail under RESTORE: {reply}"
            );
            acked += 1;
        }
        (conn1, acked)
    });
    let restorer = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut conn2 = Conn::open(&addr);
            let mut restores = 0usize;
            for _ in 0..25 {
                let reply = conn2.request("RESTORE 1");
                assert!(reply.starts_with("OK restored 1 "), "{reply}");
                restores += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            restores
        }
    });
    let (mut conn1, acked) = writer.join().expect("writer thread");
    let restores = restorer.join().expect("restore thread");
    assert_eq!(acked, INCREMENTS);
    assert!(restores > 0);

    // Every acked increment survived every restore — on both the live
    // session and a fresh restore of it.
    assert_eq!(
        conn1.request("EVAL 1 !c;"),
        format!("VAL val it = {INCREMENTS} : int")
    );
    assert!(conn1.request("RESTORE 1").starts_with("OK restored 1 "));
    assert_eq!(
        conn1.request("EVAL 1 !c;"),
        format!("VAL val it = {INCREMENTS} : int")
    );

    stop.store(true, Ordering::SeqCst);
    drop(conn1);
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn wire_escaping_round_trips_newlines_and_backslashes() {
    let root = tempdir("escape");
    let server = durable_server(&root);
    let (addr, stop) = spawn_wire(Arc::clone(&server));
    let mut conn = Conn::open(&addr);
    assert_eq!(conn.request("OPEN"), "OK 1");

    // A string value whose rendering is full of backslash escapes: the
    // wire layer must double them and the client unescape must restore
    // the exact rendering.
    let reply = conn.request(r#"EVAL 1 val s = "line1\nline2\\tail";"#);
    let payload = reply
        .strip_prefix("VAL ")
        .unwrap_or_else(|| panic!("{reply}"));
    assert_eq!(
        unescape_line(payload),
        r#"val s = "line1\nline2\\tail" : string"#
    );
    assert!(!payload.contains('\n'), "wire replies stay one line");

    // METRICS is the multi-line carrier: the reply is one wire line,
    // and unescaping restores real newlines.
    let reply = conn.request("METRICS");
    let payload = reply.strip_prefix("OK ").expect("metrics reply");
    assert!(!payload.contains('\n'));
    let text = unescape_line(payload);
    assert!(
        text.lines().count() > 10,
        "expected a full exposition:\n{text}"
    );
    assert!(text.contains("# TYPE machiavelli_repl_lag_groups gauge"));

    stop.store(true, Ordering::SeqCst);
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

//! Graceful shutdown of the real `machid` binary: SIGTERM in the
//! middle of a multi-connection commit storm must lose **zero** acked
//! commits — every eval the client saw `VAL` for is served after a
//! restart over the same durable root.

#![cfg(unix)]

use machiavelli_repl::proto::LineClient;
use machiavelli_server::faults::FaultConfig;
use machiavelli_server::{Server, ServerConfig, ServerRole};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mach-shutdown-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn free_addr() -> String {
    let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = l.local_addr().expect("addr").to_string();
    drop(l);
    addr
}

fn connect_with_retry(addr: &str, timeout: Duration) -> LineClient {
    let start = Instant::now();
    loop {
        match LineClient::connect(addr, Duration::from_secs(5)) {
            Ok(c) => return c,
            Err(e) => {
                assert!(
                    start.elapsed() < timeout,
                    "machid never came up on {addr}: {e}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

#[test]
fn sigterm_mid_storm_loses_no_acked_commits() {
    let root = tempdir("storm");
    let addr = free_addr();
    let stderr_path = root.join("machid.stderr");
    let stderr_file = std::fs::File::create(&stderr_path).expect("stderr file");
    let mut child = Command::new(env!("CARGO_BIN_EXE_machid"))
        .arg(&addr)
        .env("MACHID_DURABLE_ROOT", root.join("data"))
        .env("MACHID_QUEUE_CAP", "32")
        .stdout(Stdio::null())
        .stderr(Stdio::from(stderr_file))
        .spawn()
        .expect("spawn machid");
    let pid = child.id();

    // Wait for the listener, then storm it from several connections.
    drop(connect_with_retry(&addr, Duration::from_secs(20)));
    const THREADS: usize = 4;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = connect_with_retry(&addr, Duration::from_secs(10));
                let open = match client.request("OPEN") {
                    Ok(line) => line,
                    Err(_) => return Vec::new(),
                };
                let sid: u64 = open
                    .strip_prefix("OK ")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("bad OPEN reply: {open}"));
                let mut acked = Vec::new();
                for i in 0..2_000u64 {
                    let value = t as u64 * 100_000 + i;
                    let req = format!("EVAL {sid} val n{i} = ref({value});");
                    match client.request(&req) {
                        // VAL = the commit was fsynced before the reply;
                        // it must survive the SIGTERM no matter when it
                        // lands.
                        Ok(line) if line.starts_with("VAL ") => {
                            acked.push((sid, format!("n{i}"), value));
                        }
                        Ok(line) => panic!("unexpected reply mid-storm: {line}"),
                        // Shutdown closed the socket under us — whatever
                        // was in flight is simply not acked.
                        Err(_) => break,
                    }
                }
                acked
            })
        })
        .collect();

    // Let the storm build, then pull the plug.
    std::thread::sleep(Duration::from_millis(250));
    let kill = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(kill.success(), "kill -TERM failed");

    let status = child.wait().expect("wait machid");
    assert!(
        status.success(),
        "machid should exit 0 on SIGTERM, got {status}"
    );
    let acked: Vec<(u64, String, u64)> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("storm thread"))
        .collect();
    assert!(
        acked.len() >= THREADS,
        "the storm should land some acked commits before the TERM, got {}",
        acked.len()
    );
    let stderr = std::fs::read_to_string(&stderr_path).unwrap_or_default();
    assert!(
        stderr.contains("checkpointed"),
        "graceful path should checkpoint before exit; stderr:\n{stderr}"
    );

    // Reopen the same durable root in-process and check every acked
    // commit — value and pointer semantics (each `n<i>` is a ref cell).
    let server = Arc::new(Server::start(ServerConfig {
        queue_cap: 32,
        default_deadline: None,
        row_budget: None,
        faults: Some(FaultConfig::off()),
        durable_root: Some(root.join("data")),
        role: ServerRole::Primary,
        ..ServerConfig::default()
    }));
    let max_sid = acked.iter().map(|(sid, _, _)| *sid).max().unwrap_or(0);
    for _ in 0..max_sid {
        server.open_session().expect("reopen session");
    }
    for (sid, name, value) in &acked {
        let got = server
            .eval(*sid, &format!("!{name};"))
            .unwrap_or_else(|e| panic!("acked {name} lost from session {sid}: {e}"));
        assert_eq!(got, [format!("val it = {value} : int")], "sid {sid} {name}");
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

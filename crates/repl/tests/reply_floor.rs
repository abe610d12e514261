//! The real `machid` binary answers a request in well under a
//! millisecond: no reply waits on Nagle's algorithm and the client's
//! delayed ACK. A reply written in two pieces on a socket without
//! `TCP_NODELAY` costs ≈ 44 ms per round trip, so 200 trips would take
//! ≥ 8.8 s.

use machiavelli_repl::proto::LineClient;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn free_addr() -> String {
    let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = l.local_addr().expect("addr").to_string();
    drop(l);
    addr
}

/// Kills the server however the test ends.
struct Machid(Child);

impl Drop for Machid {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn two_hundred_round_trips_pay_no_reply_floor() {
    let addr = free_addr();
    let _machid = Machid(
        Command::new(env!("CARGO_BIN_EXE_machid"))
            .arg(&addr)
            .env("MACHID_WORKERS", "1")
            .env_remove("MACHID_DURABLE_ROOT")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn machid"),
    );
    let start = Instant::now();
    let mut client = loop {
        match LineClient::connect(&addr, Duration::from_secs(5)) {
            Ok(c) => break c,
            Err(e) => {
                assert!(
                    start.elapsed() < Duration::from_secs(20),
                    "machid never came up on {addr}: {e}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    let open = client.request("OPEN").expect("OPEN");
    let sid = open.strip_prefix("OK ").expect("OPEN reply");

    let request = format!("EVAL {sid} 1 + 2;");
    let start = Instant::now();
    for _ in 0..200 {
        assert_eq!(
            client.request(&request).expect("EVAL"),
            "VAL val it = 3 : int"
        );
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "200 round trips took {elapsed:?}: a reply is waiting on Nagle"
    );
}

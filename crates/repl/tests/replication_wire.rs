//! End-to-end replication over real TCP: a primary and a follower
//! `Server`, each behind `serve_tcp`, with a [`Replicator`]
//! streaming the WAL between them — read-only enforcement, HEALTH,
//! the METRICS lag gauge under a partition, and PROMOTE (with and
//! without a generation floor).

use machiavelli_repl::proto::LineClient;
use machiavelli_repl::{Replicator, ReplicatorConfig};
use machiavelli_server::faults::FaultConfig;
use machiavelli_server::wire::unescape_line;
use machiavelli_server::{serve_tcp, Server, ServerConfig, ServerError, ServerRole};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mach-repl-wire-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn server(root: &Path, role: ServerRole) -> Arc<Server> {
    Arc::new(Server::start(ServerConfig {
        queue_cap: 32,
        default_deadline: None,
        row_budget: None,
        faults: Some(FaultConfig::off()),
        durable_root: Some(root.to_path_buf()),
        role,
        ..ServerConfig::default()
    }))
}

/// Serve a `Server` on an ephemeral TCP port until `stop` is set.
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

fn wait_until<T>(what: &str, timeout: Duration, mut probe: impl FnMut() -> Option<T>) -> T {
    let start = Instant::now();
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn follower_replicates_over_tcp_until_promoted() {
    let root_p = tempdir("p");
    let root_f = tempdir("f");
    let primary = server(&root_p, ServerRole::Primary);
    let follower = server(&root_f, ServerRole::Follower);
    let (primary_addr, stop_primary_wire) = spawn_wire(Arc::clone(&primary));
    let (follower_addr, stop_follower_wire) = spawn_wire(Arc::clone(&follower));

    // Commit on the primary over its wire port — a ref, a write
    // through it, and a string whose rendering carries backslashes.
    let mut pc = LineClient::connect(&primary_addr, Duration::from_secs(5)).expect("connect");
    assert_eq!(pc.request("OPEN").unwrap(), "OK 1");
    assert!(pc
        .request("EVAL 1 val x = ref(5);")
        .unwrap()
        .starts_with("VAL "));
    assert!(pc.request("EVAL 1 x := 6;").unwrap().starts_with("VAL "));
    let resp = pc.request(r#"EVAL 1 val s = "a\nb\\c";"#).unwrap();
    assert!(resp.starts_with("VAL "), "{resp}");

    // Start the replicator and wait for the follower to converge.
    let mut rc = ReplicatorConfig::new(primary_addr.clone());
    rc.poll = Duration::from_millis(5);
    let replicator = Replicator::start(Arc::clone(&follower), rc);
    wait_until(
        "follower catch-up",
        Duration::from_secs(10),
        || match follower.eval(1, "!x;") {
            Ok(lines) if lines == ["val it = 6 : int"] => Some(()),
            _ => None,
        },
    );

    // The replicated string survives the wire escaping byte-for-byte.
    let mut fc = LineClient::connect(&follower_addr, Duration::from_secs(5)).expect("connect");
    let resp = fc.request("EVAL 1 s;").unwrap();
    let payload = resp
        .strip_prefix("VAL ")
        .unwrap_or_else(|| panic!("{resp}"));
    assert_eq!(unescape_line(payload), r#"val it = "a\nb\\c" : string"#);

    // Writes decline on the follower — typed, over the wire.
    let resp = fc.request("EVAL 1 x := 9;").unwrap();
    assert!(resp.starts_with("ERR read-only "), "{resp}");
    let resp = fc.request("EVAL 1 val y = 1;").unwrap();
    assert!(resp.starts_with("ERR read-only "), "{resp}");
    assert!(matches!(
        follower.eval(1, "val y = 1;"),
        Err(ServerError::ReadOnly)
    ));

    // HEALTH reflects the roles.
    assert!(fc
        .request("HEALTH")
        .unwrap()
        .starts_with("OK role follower slots 1 1:ok:"));
    assert!(pc
        .request("HEALTH")
        .unwrap()
        .starts_with("OK role primary slots 1 1:ok:"));

    // Acks drain the primary's lag gauge to zero...
    wait_until("lag to drain", Duration::from_secs(10), || {
        let report = primary.health();
        (report.slots[0].lag == Some(0)).then_some(())
    });

    // ...and a partition (replicator stopped) makes it climb again,
    // visibly in METRICS.
    let status = replicator.stop();
    assert!(status.rounds > 0, "{status:?}");
    assert!(
        status.last_error.is_none() || status.chunks_applied > 0,
        "{status:?}"
    );
    assert!(pc.request("EVAL 1 x := 7;").unwrap().starts_with("VAL "));
    assert!(pc
        .request("EVAL 1 val z = ref(8);")
        .unwrap()
        .starts_with("VAL "));
    let metrics = unescape_line(
        pc.request("METRICS")
            .unwrap()
            .strip_prefix("OK ")
            .expect("OK metrics")
            .trim_start(),
    );
    let lag_line = metrics
        .lines()
        .find(|l| l.starts_with("machiavelli_repl_lag_groups{sid=\"1\"}"))
        .unwrap_or_else(|| panic!("no lag gauge in:\n{metrics}"));
    let lag: u64 = lag_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(
        lag >= 2,
        "partition must show as non-trivial lag, got {lag_line}"
    );
    assert!(
        metrics.lines().any(|l| l == "machiavelli_repl_role 0"),
        "primary exposes role gauge 0:\n{metrics}"
    );

    // Failover: promote the follower over its wire port; writes flow.
    let resp = fc.request("PROMOTE").unwrap();
    assert!(resp.starts_with("OK promoted primary fenced "), "{resp}");
    assert_eq!(follower.role(), ServerRole::Primary);
    assert!(fc.request("EVAL 1 x := 40;").unwrap().starts_with("VAL "));
    assert_eq!(fc.request("EVAL 1 !x;").unwrap(), "VAL val it = 40 : int");

    stop_primary_wire.store(true, Ordering::SeqCst);
    stop_follower_wire.store(true, Ordering::SeqCst);
    let _ = std::fs::remove_dir_all(&root_p);
    let _ = std::fs::remove_dir_all(&root_f);
}

/// Every slot's `gen=` field in a `HEALTH` reply.
fn health_gens(health: &str) -> Vec<u64> {
    health
        .split(' ')
        .filter_map(|slot| slot.split(':').find_map(|f| f.strip_prefix("gen=")))
        .map(|g| g.parse().expect("numeric gen"))
        .collect()
}

#[test]
fn promote_above_the_floor_fences_a_follower_that_missed_checkpoints() {
    let root_p = tempdir("floor-p");
    let root_f = tempdir("floor-f");
    let primary = server(&root_p, ServerRole::Primary);
    let follower = server(&root_f, ServerRole::Follower);
    let (primary_addr, stop_primary_wire) = spawn_wire(Arc::clone(&primary));
    let (follower_addr, stop_follower_wire) = spawn_wire(Arc::clone(&follower));

    let mut pc = LineClient::connect(&primary_addr, Duration::from_secs(5)).expect("connect");
    for sid in 1..=2 {
        assert_eq!(pc.request("OPEN").unwrap(), format!("OK {sid}"));
        let resp = pc
            .request(&format!("EVAL {sid} val x = ref({sid});"))
            .unwrap();
        assert!(resp.starts_with("VAL "), "{resp}");
    }
    let mut rc = ReplicatorConfig::new(primary_addr.clone());
    rc.poll = Duration::from_millis(5);
    let replicator = Replicator::start(Arc::clone(&follower), rc);
    wait_until("follower catch-up", Duration::from_secs(10), || {
        let caught_up = (1..=2).all(|sid| {
            matches!(follower.eval(sid, "!x;"), Ok(lines) if lines == [format!("val it = {sid} : int")])
        });
        caught_up.then_some(())
    });

    // Partition, then two primary checkpoints the follower never sees.
    replicator.stop();
    for sid in 1..=2 {
        for _ in 0..2 {
            let resp = pc.request(&format!("SAVE {sid}")).unwrap();
            assert!(resp.starts_with("OK saved "), "{resp}");
        }
    }
    let floor = *health_gens(&pc.request("HEALTH").unwrap())
        .iter()
        .max()
        .expect("primary slots");
    assert_eq!(floor, 2);
    let (stale_cursor, _) = primary.cursor(1).expect("cursor");

    // The failover controller promotes above the deposed primary's
    // generation: one bump per slot would land on the old primary's
    // generation 1, below the floor.
    let mut fc = LineClient::connect(&follower_addr, Duration::from_secs(5)).expect("connect");
    assert_eq!(
        fc.request(&format!("PROMOTE {floor}")).unwrap(),
        "OK promoted primary fenced 2"
    );
    let gens = health_gens(&fc.request("HEALTH").unwrap());
    assert_eq!(gens.len(), 2);
    assert!(gens.iter().all(|&g| g > floor), "{gens:?} vs floor {floor}");

    // A zombie write on the old primary ships stamped with its newest
    // generation; the promoted follower rejects it whole.
    assert!(pc.request("EVAL 1 x := 666;").unwrap().starts_with("VAL "));
    let (gen, bytes) = match primary.ship(1, stale_cursor).expect("ship") {
        machiavelli_wal::Ship::Groups { gen, bytes, .. } => (gen, bytes),
        other => panic!("expected groups, got {other:?}"),
    };
    assert_eq!(gen, floor);
    let err = follower.replica_apply(1, gen, bytes).unwrap_err();
    assert_eq!(err.kind(), "stale-generation", "{err}");
    assert_eq!(fc.request("EVAL 1 !x;").unwrap(), "VAL val it = 1 : int");

    stop_primary_wire.store(true, Ordering::SeqCst);
    stop_follower_wire.store(true, Ordering::SeqCst);
    let _ = std::fs::remove_dir_all(&root_p);
    let _ = std::fs::remove_dir_all(&root_f);
}

#[test]
fn replicator_retries_with_backoff_until_the_primary_appears() {
    let root_p = tempdir("late-p");
    let root_f = tempdir("late-f");
    // Reserve an address, but don't serve it yet.
    let parked = TcpListener::bind("127.0.0.1:0").expect("bind");
    let primary_addr = parked.local_addr().expect("addr").to_string();
    drop(parked);

    let follower = server(&root_f, ServerRole::Follower);
    let mut rc = ReplicatorConfig::new(primary_addr.clone());
    rc.poll = Duration::from_millis(5);
    rc.backoff_cap = Duration::from_millis(50);
    let replicator = Replicator::start(Arc::clone(&follower), rc);

    // Let it fail for a while — reconnect attempts must accumulate.
    wait_until("reconnect attempts", Duration::from_secs(10), || {
        (replicator.status().reconnects >= 3).then_some(())
    });

    // The primary comes up on that address; replication starts.
    let primary = server(&root_p, ServerRole::Primary);
    let listener = TcpListener::bind(&primary_addr).expect("rebind");
    listener.set_nonblocking(true).expect("nonblocking");
    let stop = Arc::new(AtomicBool::new(false));
    {
        let stop = Arc::clone(&stop);
        let primary = Arc::clone(&primary);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let server = Arc::clone(&primary);
                        std::thread::spawn(move || serve_tcp(&server, stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
    }
    primary.open_session().expect("open");
    primary.eval(1, "val survived = 21;").expect("eval");
    wait_until(
        "late catch-up",
        Duration::from_secs(10),
        || match follower.eval(1, "survived * 2;") {
            Ok(lines) if lines == ["val it = 42 : int"] => Some(()),
            _ => None,
        },
    );
    replicator.stop();
    stop.store(true, Ordering::SeqCst);
    let _ = std::fs::remove_dir_all(&root_p);
    let _ = std::fs::remove_dir_all(&root_f);
}

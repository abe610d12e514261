//! Durable-server acceptance: a killed server comes back serving the
//! same bindings, `SAVE`/`RESTORE` work over the wire, and a poisoned
//! durable session can be restored from disk instead of closed.
//!
//! "Kill" here is dropping the whole `Server` (worker threads joined,
//! in-memory sessions destroyed) and starting a fresh one over the same
//! durable root — the same state transition a `kill -9` of `machid`
//! forces, exercised in-process so the suite needs no subprocess
//! plumbing. The torn-tail/mid-checkpoint corners of that transition
//! are covered byte-for-byte in `machiavelli-wal`'s crash harness.

use machiavelli_server::faults::FaultConfig;
use machiavelli_server::{serve_connection, Server, ServerConfig, ServerError, ServerRole};
use std::path::PathBuf;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mach-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_config(root: &std::path::Path) -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_cap: 16,
        default_deadline: None,
        row_budget: None,
        faults: Some(FaultConfig::off()),
        durable_root: Some(root.to_path_buf()),
        role: ServerRole::Primary,
    }
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
fn killed_server_comes_back_serving_the_same_bindings() {
    let root = tempdir("restart");
    let queries = [
        "val inventory = {[K = 1, QTY = 10], [K = 2, QTY = 20], [K = 3, QTY = 5]};",
        "val low = 8;",
        "val cursor = ref(0);",
        "cursor := 2;",
    ];
    let probe = "select x.K where x <- inventory with x.QTY = 20;";
    let expected = {
        let server = Server::start(durable_config(&root));
        let sid = server.open_session().expect("open");
        for q in &queries {
            server.eval(sid, q).expect("setup");
        }
        let expected = (
            server.eval(sid, probe).expect("probe"),
            server.eval(sid, "!cursor;").expect("deref"),
        );
        // Kill: no CLOSE, no SAVE — the WAL alone carries the state.
        drop(server);
        expected
    };

    let server = Server::start(durable_config(&root));
    // Session ids restart from 1, so the first OPEN lands on the same
    // durable directory and recovers it.
    let sid = server.open_session().expect("reopen");
    assert_eq!(
        server.eval(sid, probe).expect("probe after restart"),
        expected.0
    );
    assert_eq!(
        server.eval(sid, "!cursor;").expect("deref after restart"),
        expected.1
    );
    // And the revived session keeps evolving durably: write, kill again,
    // check again.
    server
        .eval(sid, "cursor := 7;")
        .expect("write after restart");
    drop(server);

    let server = Server::start(durable_config(&root));
    let sid = server.open_session().expect("second reopen");
    assert_eq!(
        server
            .eval(sid, "!cursor;")
            .expect("deref after second restart"),
        vec!["val it = 7 : int".to_string()]
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn save_and_restore_over_the_wire() {
    let root = tempdir("wire");
    let server = Server::start(durable_config(&root));
    let lines = drive(
        &server,
        "OPEN\n\
         EVAL 1 val x = 41;\n\
         SAVE 1\n\
         EVAL 1 val x = 99;\n\
         RESTORE 1\n\
         EVAL 1 x;\n\
         QUIT\n",
    );
    assert_eq!(lines[0], "OK 1");
    assert_eq!(lines[1], "VAL val x = 41 : int");
    assert_eq!(
        lines[2], "OK saved 1 gen 1",
        "checkpoint bumps the generation"
    );
    assert_eq!(lines[3], "VAL val x = 99 : int");
    // The rebind committed to the WAL before its reply, so RESTORE
    // returns the *durable* present (99), not the SAVE point — RESTORE
    // discards un-logged memory, it is not a rollback verb.
    assert!(lines[4].starts_with("OK restored 1 "), "{}", lines[4]);
    assert_eq!(lines[5], "VAL val it = 99 : int");
    assert_eq!(lines[6], "OK bye");
    drop(server);

    // SAVE/RESTORE on an in-memory server are typed durability errors.
    let mut cfg = durable_config(&root);
    cfg.durable_root = None;
    let server = Server::start(cfg);
    let lines = drive(&server, "OPEN\nSAVE 1\nRESTORE 1\nQUIT\n");
    assert!(lines[1].starts_with("ERR durability "), "{}", lines[1]);
    assert!(lines[2].starts_with("ERR durability "), "{}", lines[2]);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn restore_unpoisons_a_durable_session_without_losing_data() {
    let root = tempdir("unpoison");
    let server = Server::start(ServerConfig {
        workers: 1,
        faults: Some(FaultConfig {
            eval_panic_ppm: 1_000_000,
            seed: 11,
            ..FaultConfig::off()
        }),
        ..durable_config(&root)
    });
    let sid = server.open_session().expect("open");
    server
        .eval(sid, "val keep = 123;")
        .expect("small evals don't tick");

    // A ticking query panics under the injected fault and poisons the
    // session.
    let rows: Vec<String> = (0..64).map(|i| format!("[K = {i}]")).collect();
    let storm = format!(
        "val r = {{{}}}; select x.K where x <- r, y <- r with x.K = y.K;",
        rows.join(", ")
    );
    match server.eval(sid, &storm) {
        Err(ServerError::SessionPanicked(_)) => {}
        other => panic!("expected an injected panic, got {other:?}"),
    }
    assert!(matches!(
        server.eval(sid, "keep;"),
        Err(ServerError::SessionPoisoned(_))
    ));

    // RESTORE rebuilds the session from its durable state: un-poisoned,
    // data intact.
    let restored = server.restore_session(sid).expect("restore");
    assert!(restored >= 1, "at least `keep` came back: {restored}");
    assert_eq!(
        server.eval(sid, "keep;").expect("session is live again"),
        vec!["val it = 123 : int".to_string()]
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn durable_sessions_on_one_worker_do_not_cross_attribute() {
    let root = tempdir("attribution");
    // One worker hosts both sessions, so both share the thread's dirty
    // channel; per-eval absorption must keep their deltas apart.
    let server = Server::start(ServerConfig {
        workers: 1,
        ..durable_config(&root)
    });
    let a = server.open_session().expect("open a");
    let b = server.open_session().expect("open b");
    server.eval(a, "val r = ref(1);").expect("bind in a");
    server.eval(b, "val r = ref(100);").expect("bind in b");
    // Interleave writes on the shared worker thread.
    for i in 0..5 {
        server
            .eval(a, &format!("r := {};", i + 2))
            .expect("write a");
        server
            .eval(b, &format!("r := {};", 100 + i + 2))
            .expect("write b");
    }
    drop(server);

    let server = Server::start(ServerConfig {
        workers: 1,
        ..durable_config(&root)
    });
    let a = server.open_session().expect("reopen a");
    let b = server.open_session().expect("reopen b");
    assert_eq!(
        server.eval(a, "!r;").expect("read a"),
        vec!["val it = 6 : int".to_string()]
    );
    assert_eq!(
        server.eval(b, "!r;").expect("read b"),
        vec!["val it = 106 : int".to_string()]
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

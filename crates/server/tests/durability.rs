//! Durable-server acceptance: a killed server comes back serving the
//! same bindings, `SAVE`/`RESTORE` work over the wire, a poisoned
//! durable session (a panic, or a commit that never reached the disk)
//! can be restored from disk instead of closed, and `PROMOTE` fences
//! above a floor.
//!
//! "Kill" here is dropping the whole `Server` (in-memory sessions
//! destroyed) and starting a fresh one over the same
//! durable root — the same state transition a `kill -9` of `machid`
//! forces, exercised in-process so the suite needs no subprocess
//! plumbing. The torn-tail/mid-checkpoint corners of that transition
//! are covered byte-for-byte by the crash harness in
//! `tests/crash_recovery.rs`.
//!
//! A read is not a transaction: `it` is scratch on every role, so an
//! evaluation that changes no other binding and writes no ref appends
//! nothing to the log and syncs nothing.

use machiavelli::is_read_only_source;
use machiavelli_server::faults::FaultConfig;
use machiavelli_server::{serve_connection, Server, ServerConfig, ServerError, ServerRole};
use machiavelli_trace::metrics::{self, Counter};
use machiavelli_wal::Ship;
use std::path::{Path, PathBuf};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mach-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_config(root: &std::path::Path) -> ServerConfig {
    ServerConfig {
        queue_cap: 16,
        default_deadline: None,
        row_budget: None,
        faults: Some(FaultConfig::off()),
        durable_root: Some(root.to_path_buf()),
        role: ServerRole::Primary,
        ..ServerConfig::default()
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

/// Byte length of a durable session's `wal.log`.
fn log_len(root: &Path, sid: u64) -> u64 {
    std::fs::metadata(root.join(format!("session-{sid}")).join("wal.log"))
        .expect("wal.log")
        .len()
}

/// Run the calling test alone in a child process of this test binary,
/// so a process-wide counter moves only with what the test does.
/// Returns `true` in the child, which then runs the body; the parent
/// returns `false` once the child has passed.
fn alone(name: &str) -> bool {
    const CHILD: &str = "MACH_DURABILITY_ALONE";
    if std::env::var_os(CHILD).is_some() {
        return true;
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", name, "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "child run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    false
}

/// Pump a primary session's log into a follower until it is caught up.
fn pump(primary: &Server, follower: &Server, sid: u64) {
    follower.adopt_session(sid).expect("adopt");
    loop {
        let (cursor, _) = follower.cursor(sid).expect("cursor");
        match primary.ship(sid, cursor).expect("ship") {
            Ship::Groups { bytes, .. } if bytes.is_empty() => return,
            Ship::Groups { gen, bytes, .. } => {
                follower.replica_apply(sid, gen, bytes).expect("apply");
            }
            Ship::Snapshot(transfer) => {
                follower.replica_install(sid, transfer).expect("install");
            }
        }
    }
}

fn assert_it_unbound(server: &Server, sid: u64, when: &str) {
    match server.eval(sid, "it;") {
        Err(ServerError::Query(msg)) if msg.contains("unbound") => {}
        other => panic!("{when}: `it` should be unbound, got {other:?}"),
    }
}

#[test]
fn reads_append_nothing_and_writes_still_do() {
    if !alone("reads_append_nothing_and_writes_still_do") {
        return;
    }
    let root = tempdir("reads");
    let server = Server::start(durable_config(&root));
    let sid = server.open_session().expect("open");
    // The benchmark's relations in miniature: `emp` for `mixed_rw`,
    // `parts` and `suppliers` for `point_hot`.
    for setup in [
        r#"val emp = {[K=0, Dept="d0", Sal=ref(1000)], [K=1, Dept="d1", Sal=ref(2000)],
                      [K=2, Dept="d2", Sal=ref(3000)]};"#,
        r#"val parts = {[Pname="part0", P#=0, Pinfo=(BasePart of [Cost=5])],
                        [Pname="part1", P#=1, Pinfo=(BasePart of [Cost=7])]};"#,
        r#"val suppliers = {[Sname="s0", S#=0, City="c3"], [Sname="s1", S#=1, City="c4"]};"#,
        "val r = ref(1);",
    ] {
        server.eval(sid, setup).expect(setup);
    }
    let state = || (log_len(&root, sid), metrics::get(Counter::WalCommits));
    for read in [
        "select !(x.Sal) where y <- {[K = 0], [K = 2]}, x <- emp with x.K = y.K;",
        "select [Pname = x.Pname, P# = x.P#] where y <- {[P# = 0], [P# = 1]}, \
         x <- parts with x.P# = y.P#;",
        "select [Sname = x.Sname, City = x.City] where y <- {[S# = 1]}, \
         x <- suppliers with x.S# = y.S#;",
        "!r;",
        "card(emp);",
        "it;",
        "ref(1);",
    ] {
        let before = state();
        server.eval(sid, read).expect(read);
        assert_eq!(state(), before, "a read appended: {read}");
    }
    // Each write shape still appends one commit group.
    for write in [
        "r := 2;",
        "val k = 5;",
        "select (x.Sal := !(x.Sal) + 1) where x <- emp with x.K = 1;",
    ] {
        let (len, commits) = state();
        server.eval(sid, write).expect(write);
        let (len2, commits2) = state();
        assert!(len2 > len && commits2 == commits + 1, "{write}");
    }
    // A failed eval with no completed phrase commits nothing, yet its
    // ref write stands in memory: the next eval, a read, flushes it.
    let before = state();
    let err = server.eval(sid, "let val u = r := 9 in 1 div 0 end;");
    assert!(matches!(err, Err(ServerError::Query(_))), "{err:?}");
    assert_eq!(state(), before);
    assert_eq!(server.eval(sid, "!r;").expect("read"), ["val it = 9 : int"]);
    let (len, commits) = state();
    assert!(len > before.0 && commits == before.1 + 1);
    drop(server);

    let server = Server::start(durable_config(&root));
    let sid = server.open_session().expect("reopen");
    assert_eq!(
        server.eval(sid, "(!r, k);").expect("after restart"),
        ["val it = (9, 5) : int * int"]
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn every_read_only_source_appends_nothing() {
    // The follower's static rule (`is_read_only_source`) against the
    // primary's effect rule (a commit appends only what changed): on a
    // session with no closures, whatever the former accepts, the
    // latter logs nothing for.
    let root = tempdir("read-only-sources");
    let server = Server::start(durable_config(&root));
    let sid = server.open_session().expect("open");
    let phrases = [
        "val r = ref(1);",
        "val S = {[Name = \"a\", Salary = 200000], [Name = \"b\", Salary = 10]};",
        "val p = [Name = \"c\", Age = 20];",
        "1 + 2;",
        "!r;",
        "select x.Name where x <- S with x.Salary > 100000;",
        "let val x = !r in x + 1 end;",
        "hom(fn (x) => x, +, 0, {1, 2});",
        "modify(p, Age, 21);",
        "(fn (x) => !x)(r);",
        "ref(1);",
        "it;",
        "r := 2;",
        "card(S);",
        "val q = ref(!r);",
        "1; r := 3; 4;",
        "(!q, !r);",
        "if !r > 2 then r := 0 else ();",
        "select (x.Name, !r) where x <- S with true;",
    ];
    let groups = || server.cursor(sid).expect("cursor").1;
    let mut reads = 0;
    for src in phrases {
        let before = (log_len(&root, sid), groups());
        server.eval(sid, src).expect(src);
        if is_read_only_source(src) {
            reads += 1;
            assert_eq!((log_len(&root, sid), groups()), before, "{src}");
        } else {
            assert_eq!(groups(), before.1 + 1, "{src}");
        }
    }
    assert_eq!(reads, 12, "the corpus exercises both sides");
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn it_is_unbound_after_a_kill_a_restore_and_a_promotion() {
    let root = tempdir("scratch-it");
    let probe = "(x, !r);";
    let expected = ["val it = (10, 2) : int * int"];
    let server = Server::start(durable_config(&root));
    let sid = server.open_session().expect("open");
    server
        .eval(sid, "val r = ref(1); val x = 10;")
        .expect("binds");
    server.eval(sid, "r := 2;").expect("write");
    server.eval(sid, "x + !r;").expect("read");
    assert_eq!(server.eval(sid, "it;").expect("it"), ["val it = 12 : int"]);
    server.restore_session(sid).expect("restore");
    assert_it_unbound(&server, sid, "after RESTORE");
    assert_eq!(server.eval(sid, probe).expect("probe"), expected);
    drop(server);

    let server = Server::start(durable_config(&root));
    let sid = server.open_session().expect("reopen");
    assert_it_unbound(&server, sid, "after a kill");
    assert_eq!(server.eval(sid, probe).expect("probe"), expected);

    let froot = tempdir("scratch-it-follower");
    let follower = Server::start(ServerConfig {
        role: ServerRole::Follower,
        ..durable_config(&froot)
    });
    pump(&server, &follower, sid);
    let gen = server.cursor(sid).expect("cursor").0.gen;
    drop(server);
    follower.promote(gen).expect("promote");
    assert_it_unbound(&follower, sid, "on a promoted follower");
    assert_eq!(follower.eval(sid, probe).expect("probe"), expected);
    drop(follower);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&froot);
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
fn a_failed_rebind_leaves_the_old_binding_durable() {
    // `val v = 1 div 0;` type-checks as int and fails at run time: `v`
    // keeps its string binding in the type environment too, so SAVE
    // writes `v` as a string and a restart serves it back as one.
    let root = tempdir("failed-rebind");
    let server = Server::start(durable_config(&root));
    let sid = server.open_session().expect("open");
    server.eval(sid, r#"val v = "str";"#).expect("bind");
    let err = server.eval(sid, "val v = 1 div 0;").unwrap_err();
    assert!(matches!(err, ServerError::Query(_)), "{err:?}");
    assert_eq!(
        server.eval(sid, "v;").expect("v"),
        vec![r#"val it = "str" : string"#.to_string()]
    );
    server.save_session(sid).expect("save");
    drop(server);

    let server = Server::start(durable_config(&root));
    let sid = server.open_session().expect("reopen");
    assert_eq!(
        server.eval(sid, "v;").expect("v after restart"),
        vec![r#"val it = "str" : string"#.to_string()]
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn completed_phrases_of_a_failed_eval_are_logged() {
    // Phrase 1 binds `a`, phrase 2 is ill-typed: the reply is ERR, yet
    // `a` is bound in memory, so it must be on disk before that reply.
    let root = tempdir("partial-eval");
    let server = Server::start(durable_config(&root));
    let sid = server.open_session().expect("open");
    let err = server.eval(sid, r#"val a = 41; 1 + "x";"#).unwrap_err();
    assert!(matches!(err, ServerError::Query(_)), "{err:?}");
    assert_eq!(
        server.eval(sid, "val c = a + 1;").expect("c"),
        vec!["val c = 42 : int".to_string()]
    );
    drop(server);

    let server = Server::start(durable_config(&root));
    let sid = server.open_session().expect("reopen");
    assert_eq!(
        server.eval(sid, "(a, c);").expect("a and c after restart"),
        vec!["val it = (41, 42) : int * int".to_string()]
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn restore_unpoisons_a_durable_session_without_losing_data() {
    let root = tempdir("unpoison");
    let server = Server::start(ServerConfig {
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
fn torn_commit_poisons_until_restore() {
    let root = tempdir("torn-commit");
    let server = Server::start(durable_config(&root));
    assert_eq!(
        drive(&server, "OPEN\nEVAL 1 val before = 1;\n"),
        ["OK 1", "VAL val before = 1 : int"]
    );
    drop(server);

    // Every append tears: the eval runs in memory, its commit does not
    // land, and the session refuses to serve memory the disk lacks.
    let server = Server::start(ServerConfig {
        faults: Some(FaultConfig {
            wal_torn_ppm: 1_000_000,
            seed: 5,
            ..FaultConfig::off()
        }),
        ..durable_config(&root)
    });
    let lines = drive(&server, "OPEN\nEVAL 1 val lost = 2;\nEVAL 1 before;\n");
    assert_eq!(lines[0], "OK 1");
    assert!(
        lines[1].starts_with("ERR durability ") && lines[1].contains("torn"),
        "{}",
        lines[1]
    );
    assert!(
        lines[2].starts_with("ERR session-poisoned "),
        "{}",
        lines[2]
    );
    let slot = server.health().slots[0];
    assert!(slot.poisoned && slot.doomed_log, "{slot:?}");
    // RESTORE re-reads the last good state into a fresh, undoomed log.
    let lines = drive(&server, "RESTORE 1\n");
    assert!(lines[0].starts_with("OK restored 1 "), "{}", lines[0]);
    let slot = server.health().slots[0];
    assert!(!slot.poisoned && !slot.doomed_log, "{slot:?}");
    drop(server);

    // The failed eval is gone; the next one commits normally.
    let server = Server::start(durable_config(&root));
    let lines = drive(
        &server,
        "OPEN\nEVAL 1 lost;\nEVAL 1 val after = 3;\nEVAL 1 before + after;\n",
    );
    assert!(lines[1].starts_with("ERR query "), "{}", lines[1]);
    assert_eq!(
        lines[2..],
        ["VAL val after = 3 : int", "VAL val it = 4 : int"]
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn durable_sessions_on_one_worker_do_not_cross_attribute() {
    let root = tempdir("attribution");
    // The isolation holds by construction: each session owns its
    // dirty sets, and both evaluate on the calling thread, one after
    // the other.
    let server = Server::start(durable_config(&root));
    let a = server.open_session().expect("open a");
    let b = server.open_session().expect("open b");
    server.eval(a, "val r = ref(1);").expect("bind in a");
    server.eval(b, "val r = ref(100);").expect("bind in b");
    // Interleave writes on the one calling thread.
    for i in 0..5 {
        server
            .eval(a, &format!("r := {};", i + 2))
            .expect("write a");
        server
            .eval(b, &format!("r := {};", 100 + i + 2))
            .expect("write b");
    }
    drop(server);

    let server = Server::start(durable_config(&root));
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

#[test]
fn promote_fences_above_the_floor_over_the_wire() {
    let root = tempdir("promote-floor");
    let server = Server::start(ServerConfig {
        role: ServerRole::Follower,
        ..durable_config(&root)
    });
    let sid = server.adopt_session(1).expect("adopt");
    let lines = drive(&server, "PROMOTE soon\nPROMOTE 18446744073709551615\n");
    assert!(
        lines[0].starts_with("ERR protocol usage: PROMOTE"),
        "{}",
        lines[0]
    );
    assert!(lines[1].starts_with("ERR replication "), "{}", lines[1]);
    assert_eq!(
        server.role(),
        ServerRole::Follower,
        "refusals promote nothing"
    );
    assert_eq!(
        drive(&server, "PROMOTE 6\n"),
        ["OK promoted primary fenced 1"]
    );
    assert_eq!(
        server.cursor(sid).expect("cursor").0.gen,
        7,
        "one past the floor"
    );
    // Promoting a primary is a no-op, whatever the floor.
    assert_eq!(
        drive(&server, "PROMOTE 40\n"),
        ["OK promoted primary fenced 0"]
    );
    assert_eq!(server.cursor(sid).expect("cursor").0.gen, 7);
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn promote_fences_sessions_still_only_on_disk() {
    let root = tempdir("promote-disk");
    let server = Server::start(durable_config(&root));
    let sid = server.open_session().expect("open");
    server.eval(sid, "val kept = 5;").expect("commit");
    drop(server);
    // A follower restarted over the same root hosts nothing until its
    // replicator mirrors the primary; promotion must not skip the
    // session waiting on disk.
    let server = Server::start(ServerConfig {
        role: ServerRole::Follower,
        ..durable_config(&root)
    });
    assert!(server.session_ids().is_empty());
    assert_eq!(server.promote(3).expect("promote"), 1);
    assert_eq!(server.cursor(sid).expect("cursor").0.gen, 4);
    assert_eq!(
        server.eval(sid, "kept;").expect("served"),
        ["val it = 5 : int"]
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

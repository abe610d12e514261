//! What `Server::eval` adds to a request: a prepared point lookup on a
//! 2 000-row `parts` relation, run in process through the server and
//! on a twin session that does the server's work itself (`run`, then
//! `show` every outcome). The server's share is admission, the slot
//! lock, the query guard and the fault scope; it must stay within 2×
//! of the session. Each side takes the minimum of 5 batches of 1 000
//! calls, and the bound is a ratio, so it holds across hosts.

use machiavelli::Session;
use machiavelli_server::{Server, ServerConfig};
use std::time::{Duration, Instant};

const ROWS: usize = 2_000;
const CHUNK: usize = 500;
const BATCHES: usize = 5;
const CALLS: usize = 1_000;

fn load_script() -> Vec<String> {
    let rows: Vec<String> = (0..ROWS)
        .map(|i| format!("[P# = {i}, Pname = \"part{i}\"]"))
        .collect();
    rows.chunks(CHUNK)
        .enumerate()
        .map(|(i, chunk)| {
            let set = chunk.join(", ");
            if i == 0 {
                format!("val parts = {{{set}}};")
            } else {
                format!("val parts = union(parts, {{{set}}});")
            }
        })
        .collect()
}

/// The `point_hot` lookup shape: a literal key set joined to the
/// relation, served by a cached-index probe. Only the literals vary, so
/// every call after the first is a prepared hit.
fn lookup(i: usize) -> String {
    let (a, b) = ((i * 7) % ROWS, (i * 13 + 5) % ROWS);
    format!(
        "select [Pname = x.Pname, P# = x.P#] where y <- {{[P# = {a}], [P# = {b}]}}, \
         x <- parts with x.P# = y.P#;"
    )
}

fn batch(call: &mut impl FnMut(&str) -> Vec<String>, queries: &[String]) -> Duration {
    let t = Instant::now();
    for q in queries {
        assert_eq!(call(q).len(), 1);
    }
    t.elapsed()
}

#[test]
fn server_eval_stays_within_twice_session_run() {
    let script = load_script();
    let queries: Vec<String> = (0..CALLS).map(lookup).collect();

    let mut session = Session::new();
    let mut on_session = |src: &str| -> Vec<String> {
        let outcomes = session.run(src).expect("session lookup");
        outcomes.iter().map(|o| o.show()).collect()
    };
    let server = Server::start(ServerConfig::default());
    let sid = server.open_session().expect("open");
    let mut on_server = |src: &str| server.eval(sid, src).expect("server lookup");

    for src in &script {
        on_session(src);
        on_server(src);
    }
    // Warm both: the first lookup elaborates the shape and builds the
    // index.
    for q in queries.iter().take(10) {
        assert_eq!(on_session(q), on_server(q));
    }

    let (mut best_session, mut best_server) = (Duration::MAX, Duration::MAX);
    for _ in 0..BATCHES {
        best_session = best_session.min(batch(&mut on_session, &queries));
        best_server = best_server.min(batch(&mut on_server, &queries));
    }
    let ratio = best_server.as_secs_f64() / best_session.as_secs_f64();
    assert!(
        ratio <= 2.0,
        "Server::eval {best_server:?} vs Session::run {best_session:?} per {CALLS} \
         lookups: {ratio:.2}× (bound 2×)"
    );
}

//! A line-oriented REPL harness over [`crate::Session`].
//!
//! Mirrors the paper's interactive transcripts: `->` prompts, `>>`
//! result lines. Input accumulates until a `;` completes a phrase.

use crate::session::Session;
use std::io::{BufRead, Write};

/// Run a REPL over arbitrary input/output streams. Returns when the
/// input ends or a line is exactly `quit;`.
pub fn run_repl(
    session: &mut Session,
    input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<()> {
    writeln!(
        output,
        "Machiavelli (SIGMOD 1989 reproduction). End phrases with `;`; \
         `:plan <phrase>;` explains a comprehension; `:analyze <phrase>;` \
         runs it and shows the traced operator tree; `:indexes;` lists \
         cached indexes; `:stats;` shows engine counters; `quit;` \
         exits."
    )?;
    let mut pending = String::new();
    write!(output, "-> ")?;
    output.flush()?;
    for line in input.lines() {
        let line = line?;
        if line.trim() == "quit;" {
            writeln!(output, "goodbye")?;
            return Ok(());
        }
        pending.push_str(&line);
        pending.push('\n');
        if complete(&pending) {
            // The command token needs a word boundary: `:plans …` is not
            // `:plan s …`, it falls through to the parser's error.
            if let Some(rest) = pending
                .trim_start()
                .strip_prefix(":plan")
                .filter(|r| r.starts_with(char::is_whitespace))
            {
                match session.plan_of(rest) {
                    Ok(tree) => {
                        for l in tree.lines() {
                            writeln!(output, ">> {l}")?;
                        }
                    }
                    Err(e) => writeln!(output, ">> error: {e}")?,
                }
            } else if let Some(rest) = pending
                .trim_start()
                .strip_prefix(":analyze")
                .filter(|r| r.starts_with(char::is_whitespace))
            {
                match session.analyze(rest) {
                    Ok(report) => {
                        for l in report.lines() {
                            writeln!(output, ">> {l}")?;
                        }
                    }
                    Err(e) => writeln!(output, ">> error: {e}")?,
                }
            } else if bare_command(&pending, ":stats") {
                for l in session.stats().render().lines() {
                    writeln!(output, ">> {l}")?;
                }
            } else if bare_command(&pending, ":indexes") {
                let infos = session.store_indexes();
                if infos.is_empty() {
                    writeln!(output, ">> no cached indexes")?;
                }
                for i in infos {
                    writeln!(
                        output,
                        ">> [{}, {} rows, {} groups, {} hits] {}",
                        i.kind, i.rows, i.groups, i.hits, i.fingerprint
                    )?;
                }
            } else {
                match session.run(&pending) {
                    Ok(outcomes) => {
                        for o in outcomes {
                            writeln!(output, ">> {}", o.show())?;
                        }
                    }
                    Err(e) => writeln!(output, ">> error: {e}")?,
                }
            }
            pending.clear();
            write!(output, "-> ")?;
        } else {
            write!(output, ".. ")?;
        }
        output.flush()?;
    }
    Ok(())
}

/// Is the pending input exactly the argument-less REPL command `name`
/// (with its terminating `;`)? `:statsfoo;` is not `:stats;` — it falls
/// through to the parser's error.
fn bare_command(src: &str, name: &str) -> bool {
    src.trim()
        .strip_prefix(name)
        .is_some_and(|rest| rest.trim() == ";")
}

/// A phrase is complete when a `;` appears outside strings, comments and
/// brackets — a cheap scan sufficient for interactive use.
fn complete(src: &str) -> bool {
    let mut depth = 0i32;
    let mut in_string = false;
    let mut comment = 0i32;
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut semi_at_top = false;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
        } else if comment > 0 {
            if b == b'(' && bytes.get(i + 1) == Some(&b'*') {
                comment += 1;
                i += 1;
            } else if b == b'*' && bytes.get(i + 1) == Some(&b')') {
                comment -= 1;
                i += 1;
            }
        } else {
            match b {
                b'(' if bytes.get(i + 1) == Some(&b'*') => {
                    comment += 1;
                    i += 1;
                }
                b'"' => {
                    // Heuristic: only treat as a string opener when a
                    // closing quote exists later on the same line.
                    let rest = &src[i + 1..];
                    if let Some(end) = rest.find(['"', '\n']) {
                        if rest.as_bytes()[end] == b'"' {
                            in_string = true;
                        }
                    }
                }
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b';' if depth <= 0 => semi_at_top = true,
                _ => {}
            }
        }
        i += 1;
    }
    semi_at_top
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_detection() {
        assert!(complete("1;"));
        assert!(!complete("fun f(x) ="));
        assert!(!complete("{[A=1"));
        assert!(complete("select x where x <- S with true;"));
        assert!(!complete("(* comment; *)"));
        assert!(!complete("\"semi; in string\""));
        assert!(complete("\"done\";"));
    }

    #[test]
    fn scripted_repl_session() {
        let mut session = Session::new();
        let input = b"1 + 1;\nfun double(x) =\nx * 2;\ndouble(21);\nquit;\n" as &[u8];
        let mut out = Vec::new();
        run_repl(&mut session, input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(">> val it = 2 : int"), "{text}");
        assert!(text.contains(">> val double = fn : int -> int"), "{text}");
        assert!(text.contains(">> val it = 42 : int"), "{text}");
        assert!(text.contains("goodbye"), "{text}");
    }

    #[test]
    fn repl_plan_command() {
        let mut session = Session::new();
        session.store_reset();
        let input =
            b":plan select (x, y) where x <- r, y <- s with x.K = y.K;\n1;\nquit;\n" as &[u8];
        let mut out = Vec::new();
        run_repl(&mut session, input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(">> Project (x, y)"), "{text}");
        assert!(
            text.contains(">>   HashJoin[idx build] probe(x.K) build(y.K)"),
            "{text}"
        );
        // The session keeps running after :plan.
        assert!(text.contains(">> val it = 1 : int"), "{text}");
    }

    #[test]
    fn repl_plan_requires_word_boundary() {
        let mut session = Session::new();
        let input = b":plans 1;\nquit;\n" as &[u8];
        let mut out = Vec::new();
        run_repl(&mut session, input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        // Not treated as `:plan s 1;` — it reaches the parser instead.
        assert!(text.contains(">> error:"), "{text}");
        assert!(!text.contains("Project"), "{text}");
    }

    #[test]
    fn repl_stats_and_indexes_commands() {
        // Pinned thread count: the parallel line is deterministic under
        // any machine/env configuration.
        let mut session = crate::testing::pinned_session(1);
        let input = b":stats;\n\
                      val r = {[K=1, A=10], [K=2, A=20]};\n\
                      select x.A where x <- r with x.K = 2;\n\
                      select x.A where x <- r with x.K = 1;\n\
                      :indexes;\n:stats;\nquit;\n" as &[u8];
        let mut out = Vec::new();
        run_repl(&mut session, input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        // Cold store first.
        assert!(
            text.contains(">> index store: 0 entries (0 plain / 0 rc), 0 rows cached"),
            "{text}"
        );
        // The two equality queries share one cached grouping of `r` —
        // plain rows, so the entry is in parallel-probable form.
        assert!(
            text.contains(">> [plain, 2 rows, 2 groups, 1 hits] scan r key(_.K)"),
            "{text}"
        );
        assert!(
            text.contains(">> index store: 1 entries (1 plain / 0 rc), 2 rows cached"),
            "{text}"
        );
        assert!(
            text.contains(
                ">> hits 1 / misses 1 / builds 1 / invalidated 0 / cleared 0 / evicted 0"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                ">> parallel (1 threads): joins 0 / join fallbacks 0 / \
                 morsels 0 executed / 0 stolen"
            ),
            "{text}"
        );
        // No server hosts sessions in this process (and the shared
        // tier is off outside server workers): the server line is
        // present with all counters at zero.
        assert!(
            text.contains(
                ">> server: sessions 0 started / 0 panicked / 0 closed, \
                 queries 0 completed / 0 shed / 0 deadline / 0 cancelled / 0 row-budget, \
                 shared tier 0 publishes / 0 adoptions / 0 lock recoveries"
            ),
            "{text}"
        );
    }

    #[test]
    fn repl_commands_require_exact_name() {
        let mut session = Session::new();
        let input = b":statsfoo;\n:indexes extra;\nquit;\n" as &[u8];
        let mut out = Vec::new();
        run_repl(&mut session, input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches(">> error:").count(), 2, "{text}");
        assert!(!text.contains("index store"), "{text}");
    }

    #[test]
    fn repl_reports_errors_and_continues() {
        let mut session = Session::new();
        let input = b"1 + true;\n2;\n" as &[u8];
        let mut out = Vec::new();
        run_repl(&mut session, input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(">> error:"), "{text}");
        assert!(text.contains(">> val it = 2 : int"), "{text}");
    }
}

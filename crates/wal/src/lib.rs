//! **Durable Machiavelli sessions** — a write-ahead delta log,
//! generation-stamped checkpoints, and paranoid crash recovery.
//!
//! The paper calls persistence "the most important \[way\] in which
//! Machiavelli needs to be augmented" (§6); `persist.rs` gives values a
//! durable encoding, but re-encoding every binding per save is linear
//! in session size and a crash between saves loses everything. This
//! crate closes both gaps:
//!
//! * **Delta logging.** Every committed evaluation appends only what
//!   changed: bind records for (re)bound names and ref-delta records
//!   for the cells the PR 5 dirty-ref channel attributes
//!   ([`machiavelli_value::epoch`] `note_ref_write` → the WAL dirty
//!   set). Payloads reuse the `persist.rs` grammar threaded through one
//!   [`RefRegistry`] per generation, so sharing and cycles survive
//!   across records, and commit cost is flat in session size.
//! * **Commit groups.** Records are CRC-framed and batched under a
//!   trailing commit marker; recovery applies only complete groups. A
//!   torn tail — a partial frame, a failed checksum, records with no
//!   marker — is a *normal crash artifact*: it is truncated, counted,
//!   and never applied half-way.
//! * **Checkpointing.** [`SessionLog::checkpoint`] compacts current
//!   state into an atomically-renamed snapshot stamped with the next
//!   generation, then resets the log to that generation. A crash
//!   between the two steps leaves a stale log whose generation no
//!   longer matches — recovery discards it, because its effects are
//!   already inside the snapshot.
//! * **Self-healing.** A torn append or failed sync *dooms* the log
//!   (appends refuse; memory is ahead of disk, and pretending otherwise
//!   is how databases lose data). The next commit escalates to a full
//!   checkpoint, which rebuilds durability from current state.
//!
//! Injected faults (`MACHIAVELLI_FAULT_WAL_TORN_PPM`,
//! `MACHIAVELLI_FAULT_WAL_SYNC_FAIL_PPM`,
//! `MACHIAVELLI_FAULT_CHECKPOINT_KILL_PPM` — see
//! [`machiavelli_value::faults`]) drive the seeded kill-replay-verify
//! harness in `tests/crash_recovery.rs`.
//!
//! # Thread discipline
//!
//! The dirty-ref channel is thread-local and shared by every session a
//! thread hosts, so attribution relies on one rule: **after each
//! evaluation, drain the channel into that session's log** — via
//! [`SessionLog::commit`] on success or [`SessionLog::absorb_dirty`] on
//! failure — before touching any other session on the thread.
//! [`DurableSession`] and the server's workers both follow it.

use std::collections::BTreeSet;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use machiavelli::persist::{
    decode_with_registry, encode_with_registry, write_atomic, PersistError, RefRegistry,
};
use machiavelli::trace::metrics::{self, Counter};
use machiavelli::{Outcome, Session};
use machiavelli_value::epoch::DIRTY_REFS_CAP;
use machiavelli_value::faults::{self, FaultPoint};
use machiavelli_value::{set_wal_tracking, take_wal_dirty_refs, DirtyRefs};

pub mod crc;
pub mod log;

use crc::{crc32, crc32_resume};
use log::{
    build_bind, build_delta, frame_record, log_header, parse_bind_at, parse_log_header,
    parse_payload, parse_snap_header, scan_records, snap_header, Payload, COMMIT,
};

/// Errors from the durability layer.
#[derive(Debug)]
pub enum WalError {
    Io(std::io::Error),
    /// A value failed to encode or decode.
    Persist(PersistError),
    /// Replay could not re-bind into the session (pre-rendered).
    Session(String),
    /// A file header failed its magic/version/field checks.
    BadHeader(String),
    /// A structure that is *not* allowed to be torn (snapshot payload,
    /// record payload grammar) failed validation.
    Corrupt {
        offset: u64,
        what: &'static str,
    },
    /// A single record payload exceeded the u32 frame limit.
    RecordTooLarge(usize),
    /// Injected fault: the append was torn mid-write. The log is doomed
    /// until the next checkpoint.
    TornWrite,
    /// The log sync failed (injected or real). The unsynced tail was
    /// discarded and the log is doomed until the next checkpoint.
    SyncFailed,
    /// Injected fault: the checkpoint died between steps. `renamed`
    /// tells whether the new snapshot had already taken effect.
    CheckpointKilled {
        renamed: bool,
    },
    /// A shipped commit group carried a generation that does not match
    /// this log's — the signature of a fenced old primary replaying
    /// stale groups after a promotion. The group is rejected whole.
    StaleGeneration {
        got: u64,
        have: u64,
    },
    /// Replica apply could not use the shipped bytes against local
    /// state (e.g. a delta naming an unknown durable ref): the streams
    /// have diverged and the follower must heal by snapshot transfer.
    ReplicaDiverged(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Persist(e) => write!(f, "wal persist error: {e}"),
            WalError::Session(msg) => write!(f, "wal replay error: {msg}"),
            WalError::BadHeader(msg) => write!(f, "wal header error: {msg}"),
            WalError::Corrupt { offset, what } => {
                write!(f, "wal corruption at byte {offset}: expected {what}")
            }
            WalError::RecordTooLarge(n) => write!(f, "wal record too large: {n} bytes"),
            WalError::TornWrite => write!(f, "wal append torn (injected); log doomed"),
            WalError::SyncFailed => write!(f, "wal sync failed; unsynced tail dropped, log doomed"),
            WalError::CheckpointKilled { renamed } => {
                write!(
                    f,
                    "checkpoint killed (injected; snapshot renamed: {renamed})"
                )
            }
            WalError::StaleGeneration { got, have } => {
                write!(
                    f,
                    "stale generation: shipped group stamped gen {got}, log is at gen {have}"
                )
            }
            WalError::ReplicaDiverged(msg) => {
                write!(f, "replica diverged from its primary: {msg}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> WalError {
        WalError::Io(e)
    }
}

impl From<PersistError> for WalError {
    fn from(e: PersistError) -> WalError {
        WalError::Persist(e)
    }
}

/// What one [`SessionLog::commit`] made durable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitReceipt {
    /// Records appended (commit marker included); 0 when there was
    /// nothing to log or the commit escalated to a checkpoint.
    pub records: u64,
    /// On-disk bytes appended (framing included).
    pub bytes: u64,
    /// Outcomes/deltas that cannot persist (polymorphic bindings,
    /// function values) and were deliberately left out.
    pub skipped: u64,
    /// The commit escalated to a full checkpoint (dirty-set overflow,
    /// or a doomed log self-healing).
    pub checkpointed: bool,
}

/// What [`SessionLog::open`] found and replayed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Bindings restored from the snapshot.
    pub snapshot_bindings: usize,
    /// Complete commit groups replayed from the log.
    pub commits_replayed: u64,
    /// Records applied from those groups (markers excluded).
    pub records_replayed: u64,
    /// A torn tail (partial frame, bad CRC, or uncommitted group) was
    /// truncated — the normal signature of a crash mid-commit.
    pub torn_tail_truncated: bool,
    /// The log's generation predated the snapshot's (crash between
    /// checkpoint steps); its contents were already compacted into the
    /// snapshot and the log was discarded.
    pub stale_log_discarded: bool,
    /// Anything at all was restored (snapshot or log).
    pub recovered: bool,
}

/// A replication cursor: where in a primary's log a follower stands.
///
/// The triple is the divergence detector: two logs agree at a cursor
/// iff they share the generation, the trusted byte offset, *and* the
/// CRC of every log byte up to that offset. Byte-identical prefixes are
/// the replication invariant — shipped groups are appended verbatim —
/// so a CRC mismatch means the streams forked (e.g. a fenced old
/// primary committed groups the new primary never saw) and the follower
/// must heal by snapshot transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogCursor {
    /// Checkpoint generation of the log.
    pub gen: u64,
    /// Byte length of the trusted (synced, commit-complete) prefix.
    pub offset: u64,
    /// CRC-32 of the log bytes `[0..offset]`, header included.
    pub crc: u32,
}

/// What a primary ships for one catch-up request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ship {
    /// Verbatim committed-group bytes from the requested offset to the
    /// primary's synced watermark. Empty means the follower is caught
    /// up. `groups` counts the complete commit groups in `bytes`.
    Groups {
        gen: u64,
        from: u64,
        groups: u64,
        bytes: Vec<u8>,
    },
    /// The cursor could not be served incrementally (stale generation
    /// after a checkpoint reset, or a diverged prefix): ship full state.
    Snapshot(SnapshotTransfer),
}

/// A full-state transfer: the primary's snapshot file (absent at
/// generation 0 before any checkpoint) plus its gen-matched log prefix,
/// both verbatim. Installing these under a follower's directory and
/// re-opening runs the ordinary crash-recovery path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotTransfer {
    pub gen: u64,
    pub snap: Option<Vec<u8>>,
    pub log: Vec<u8>,
}

/// What one [`SessionLog::replica_apply`] did with a shipped chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaApplyReport {
    /// Complete commit groups applied (and made durable locally).
    pub groups_applied: u64,
    /// Records applied from those groups (markers excluded).
    pub records_applied: u64,
    /// The chunk ended mid-group — an injected ship disconnect (or a
    /// sender bug). The partial tail was discarded; re-request from
    /// [`SessionLog::cursor`].
    pub torn: bool,
}

/// The write-ahead log and checkpoint state attached to one session.
///
/// On-disk layout under `dir`: `wal.log` (the delta log) and
/// `snapshot.mach` (the last checkpoint). Both are generation-stamped;
/// only a log whose generation matches the snapshot's replays.
pub struct SessionLog {
    dir: PathBuf,
    file: std::fs::File,
    /// The durable-id space of the current generation, shared by every
    /// record since the last checkpoint.
    reg: RefRegistry,
    gen: u64,
    /// Names with at least one durable bind record this generation —
    /// the checkpoint's working set.
    names: BTreeSet<String>,
    /// Attributed ref writes awaiting their commit.
    pending: DirtyRefs,
    /// Set after a torn append or failed sync: appends refuse until a
    /// checkpoint rebuilds durability from current state.
    doomed: bool,
    /// Byte length of the log known to be on disk and synced; appends
    /// always start here.
    synced_len: u64,
    /// Byte length of the generation header line.
    header_len: u64,
    /// Rolling CRC-32 of the trusted prefix `[0..synced_len]`.
    prefix_crc: u32,
    /// Complete commit groups in the current log (recovery-counted,
    /// then bumped per commit / replica group) — the lag unit.
    groups: u64,
}

impl SessionLog {
    /// Open (creating if absent) the durable state under `dir` and
    /// recover it into `session`: snapshot first, then every complete
    /// commit group of a generation-matching log; torn tails truncated,
    /// stale logs discarded. Enables the thread's WAL dirty channel and
    /// drains replay's own writes from it.
    pub fn open(
        dir: &Path,
        session: &mut Session,
    ) -> Result<(SessionLog, RecoveryReport), WalError> {
        std::fs::create_dir_all(dir)?;
        let snap_path = dir.join("snapshot.mach");
        let log_path = dir.join("wal.log");
        // Stray temp files are debris of an interrupted atomic write;
        // the rename never happened, so they hold nothing durable.
        let _ = std::fs::remove_file(dir.join("snapshot.mach.tmp"));
        let _ = std::fs::remove_file(dir.join("wal.log.tmp"));

        set_wal_tracking(true);
        let mut report = RecoveryReport::default();
        let mut reg = RefRegistry::new();
        let mut names = BTreeSet::new();
        let mut gen = 0u64;

        if let Ok(bytes) = std::fs::read(&snap_path) {
            let (g, len, crc, hlen) = parse_snap_header(&bytes)?;
            let payload = bytes
                .get(hlen..hlen.saturating_add(len))
                .filter(|p| p.len() == len && hlen + len == bytes.len())
                .ok_or(WalError::Corrupt {
                    offset: hlen as u64,
                    what: "a snapshot payload matching its declared length",
                })?;
            if crc32(payload) != crc {
                return Err(WalError::Corrupt {
                    offset: hlen as u64,
                    what: "a snapshot payload matching its checksum",
                });
            }
            let mut pos = 0usize;
            while pos < payload.len() {
                let (name, ty, enc) = parse_bind_at(payload, &mut pos)?;
                let value = decode_with_registry(&enc, &mut reg)?;
                session
                    .bind_external(&name, value, &ty)
                    .map_err(|e| WalError::Session(e.to_string()))?;
                names.insert(name);
                report.snapshot_bindings += 1;
            }
            gen = g;
            report.recovered = true;
        }

        let mut synced_len = 0u64;
        let mut header_len = 0u64;
        let mut prefix_crc = 0u32;
        let mut groups = 0u64;
        let mut log_usable = false;
        if let Ok(bytes) = std::fs::read(&log_path) {
            let (log_gen, hlen) = parse_log_header(&bytes)?;
            if log_gen == gen {
                let scan = scan_records(&bytes, hlen);
                for group in &scan.groups {
                    for payload in group {
                        apply_payload(payload, session, &mut reg, &mut names)?;
                        report.records_replayed += 1;
                    }
                    report.commits_replayed += 1;
                }
                if report.commits_replayed > 0 {
                    report.recovered = true;
                }
                if scan.torn {
                    report.torn_tail_truncated = true;
                    metrics::add(Counter::WalTornTailsTruncated, 1);
                    let f = std::fs::OpenOptions::new().write(true).open(&log_path)?;
                    f.set_len(scan.keep_len)?;
                    f.sync_all()?;
                }
                synced_len = scan.keep_len;
                header_len = hlen as u64;
                prefix_crc = crc32(&bytes[..scan.keep_len as usize]);
                groups = scan.groups.len() as u64;
                log_usable = true;
            } else {
                // A crash landed between the checkpoint's snapshot
                // rename and its log reset: every effect in this log is
                // already inside the snapshot.
                report.stale_log_discarded = true;
            }
        }
        if !log_usable {
            synced_len = create_log(&log_path, gen)?;
            header_len = synced_len;
            prefix_crc = crc32(log_header(gen).as_bytes());
        }
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&log_path)?;
        if report.recovered {
            metrics::add(Counter::WalRecoveries, 1);
        }
        // Replay applied writes through `RefValue::set`; they are
        // durable by construction and must not re-surface as the next
        // commit's deltas.
        let _ = take_wal_dirty_refs();
        Ok((
            SessionLog {
                dir: dir.to_path_buf(),
                file,
                reg,
                gen,
                names,
                pending: DirtyRefs::default(),
                doomed: false,
                synced_len,
                header_len,
                prefix_crc,
                groups,
            },
            report,
        ))
    }

    /// The directory holding `wal.log` and `snapshot.mach`.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current generation (incremented by every checkpoint).
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Whether a torn append or failed sync has doomed the log. The
    /// next [`SessionLog::commit`] heals it with a full checkpoint.
    pub fn is_doomed(&self) -> bool {
        self.doomed
    }

    /// Names with durable state this generation.
    pub fn tracked_names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// Drain the thread's WAL dirty channel into this log's pending
    /// set. Call after *any* evaluation on the attached session —
    /// including failed ones, whose partial ref writes are real — and
    /// before evaluating any other session on this thread.
    /// [`SessionLog::commit`] does this itself.
    pub fn absorb_dirty(&mut self) {
        let drained = take_wal_dirty_refs();
        if drained.overflowed || self.pending.overflowed {
            self.pending.ids.clear();
            self.pending.overflowed = true;
            return;
        }
        self.pending.ids.extend(drained.ids);
        if self.pending.ids.len() > DIRTY_REFS_CAP {
            self.pending.ids.clear();
            self.pending.overflowed = true;
        }
    }

    /// Make one evaluation durable: bind records for `outcomes`,
    /// ref-delta records for every attributed write since the last
    /// commit, one commit marker, one sync. Flat in session size — cost
    /// scales with what changed, not with what exists.
    ///
    /// Escalates to a full [`SessionLog::checkpoint`] when attribution
    /// was lost (dirty-set overflow / unattributed write) or the log is
    /// doomed. On [`WalError::TornWrite`] / [`WalError::SyncFailed`]
    /// the evaluation is *not* durable and the log is doomed.
    pub fn commit(
        &mut self,
        session: &Session,
        outcomes: &[Outcome],
    ) -> Result<CommitReceipt, WalError> {
        self.absorb_dirty();
        let mut skipped = 0u64;
        if self.doomed || self.pending.overflowed {
            self.pending = DirtyRefs::default();
            // Re-track every outcome name so a brand-new binding isn't
            // dropped by a checkpoint that only walks tracked names.
            for o in outcomes {
                self.names.insert(o.name.to_string());
            }
            self.checkpoint(session)?;
            return Ok(CommitReceipt {
                checkpointed: true,
                ..CommitReceipt::default()
            });
        }

        let mut payloads: Vec<Vec<u8>> = Vec::new();
        for o in outcomes {
            let name = o.name.to_string();
            match session.persistable_binding(&name) {
                Some((ty, value)) => match encode_with_registry(&value, &mut self.reg) {
                    Ok(enc) => {
                        payloads.push(build_bind(&name, &ty, &enc));
                        self.names.insert(name);
                    }
                    Err(PersistError::NotADescription) => skipped += 1,
                    Err(e) => return Err(WalError::Persist(e)),
                },
                None => skipped += 1,
            }
        }
        let mut dirty: Vec<u64> = self.pending.ids.drain().collect();
        dirty.sort_unstable();
        for session_ref_id in dirty {
            // Unregistered cells are unreachable from durable state; if
            // one just *became* reachable, the bind above carried its
            // full contents already.
            let Some(did) = self.reg.durable_id(session_ref_id) else {
                continue;
            };
            let Some(cell) = self.reg.cell(did).cloned() else {
                continue;
            };
            match encode_with_registry(&cell.get(), &mut self.reg) {
                Ok(enc) => payloads.push(build_delta(did, &enc)),
                // A durable cell assigned a function value: the write
                // cannot persist; the cell keeps its last durable
                // contents across recovery.
                Err(PersistError::NotADescription) => skipped += 1,
                Err(e) => return Err(WalError::Persist(e)),
            }
        }
        if payloads.is_empty() {
            return Ok(CommitReceipt {
                skipped,
                ..CommitReceipt::default()
            });
        }

        let mut buf = Vec::new();
        for p in &payloads {
            frame_record(p, &mut buf)?;
        }
        frame_record(COMMIT, &mut buf)?;
        let records = payloads.len() as u64 + 1;
        self.append_synced(&buf)?;
        self.groups += 1;
        metrics::add(Counter::WalRecordsAppended, records);
        metrics::add(Counter::WalBytesLogged, buf.len() as u64);
        metrics::add(Counter::WalCommits, 1);
        Ok(CommitReceipt {
            records,
            bytes: buf.len() as u64,
            skipped,
            checkpointed: false,
        })
    }

    /// One batched, synced append at the trusted end of the log, with
    /// the torn-write and sync-failure fail points.
    fn append_synced(&mut self, buf: &[u8]) -> Result<(), WalError> {
        self.file.seek(SeekFrom::Start(self.synced_len))?;
        if faults::fire(FaultPoint::WalTorn) {
            // A kill mid-`write(2)`: a seeded prefix lands, nothing is
            // trusted past the old synced length, and this log stops
            // accepting appends until a checkpoint rebuilds it.
            let cut = faults::torn_cut(buf.len());
            let _ = self.file.write_all(&buf[..cut]);
            let _ = self.file.sync_data();
            self.doomed = true;
            return Err(WalError::TornWrite);
        }
        self.file.write_all(buf)?;
        let sync_failed = faults::fire(FaultPoint::WalSyncFail) || self.file.sync_data().is_err();
        if sync_failed {
            // The kernel may or may not have persisted the tail; the
            // only safe model is "it did not". Cut the file back so a
            // later recovery can never observe a commit this process
            // reported as failed.
            let _ = self.file.set_len(self.synced_len);
            let _ = self.file.sync_data();
            self.doomed = true;
            return Err(WalError::SyncFailed);
        }
        self.synced_len += buf.len() as u64;
        self.prefix_crc = crc32_resume(self.prefix_crc, buf);
        Ok(())
    }

    /// Compact current session state into a fresh generation: snapshot
    /// written via temp + rename, then the log reset to the new
    /// generation. Crash-safe at every step — an interrupted checkpoint
    /// leaves either the old state (snapshot not yet renamed) or the
    /// new snapshot plus a stale log that recovery discards.
    pub fn checkpoint(&mut self, session: &Session) -> Result<(), WalError> {
        self.absorb_dirty();
        // Any failure below leaves disk state ambiguous relative to
        // memory; doom appends until a checkpoint fully succeeds.
        self.doomed = true;
        let mut reg = RefRegistry::new();
        let mut payload: Vec<u8> = Vec::new();
        let mut kept = BTreeSet::new();
        for name in &self.names {
            // Dropped or no-longer-persistable names fall out of the
            // snapshot (a rebind to a function value does not persist).
            let Some((ty, value)) = session.persistable_binding(name) else {
                continue;
            };
            match encode_with_registry(&value, &mut reg) {
                Ok(enc) => {
                    payload.extend_from_slice(&build_bind(name, &ty, &enc));
                    kept.insert(name.clone());
                }
                Err(PersistError::NotADescription) => continue,
                Err(e) => return Err(WalError::Persist(e)),
            }
        }
        let next_gen = self.gen + 1;
        if faults::fire(FaultPoint::CheckpointKill) {
            return Err(WalError::CheckpointKilled { renamed: false });
        }
        let mut snap = snap_header(next_gen, payload.len(), crc32(&payload)).into_bytes();
        snap.extend_from_slice(&payload);
        write_atomic(&self.dir.join("snapshot.mach"), &snap)?;
        if faults::fire(FaultPoint::CheckpointKill) {
            return Err(WalError::CheckpointKilled { renamed: true });
        }
        let log_path = self.dir.join("wal.log");
        self.synced_len = create_log(&log_path, next_gen)?;
        self.header_len = self.synced_len;
        self.prefix_crc = crc32(log_header(next_gen).as_bytes());
        self.groups = 0;
        self.file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&log_path)?;
        self.gen = next_gen;
        self.reg = reg;
        self.names = kept;
        self.pending = DirtyRefs::default();
        self.doomed = false;
        metrics::add(Counter::WalCheckpoints, 1);
        Ok(())
    }

    /// Read the log back and count its complete commit groups (testing
    /// and diagnostics; recovery proper goes through `open`).
    pub fn committed_groups(&mut self) -> Result<u64, WalError> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        let (_, hlen) = parse_log_header(&bytes)?;
        Ok(scan_records(&bytes, hlen).groups.len() as u64)
    }

    // ---- replication -------------------------------------------------

    /// Where this log's trusted prefix ends — what a follower sends to
    /// request the next chunk, and what a primary compares acks against.
    pub fn cursor(&self) -> LogCursor {
        LogCursor {
            gen: self.gen,
            offset: self.synced_len,
            crc: self.prefix_crc,
        }
    }

    /// Complete commit groups in the current log — the unit replication
    /// lag is measured in.
    pub fn groups(&self) -> u64 {
        self.groups
    }

    /// CRC-32 of the trusted prefix `[0..offset]`. The watermark case
    /// is free (the rolling checksum); a lagging offset re-reads the
    /// prefix from disk.
    fn prefix_crc_at(&mut self, offset: u64) -> Result<u32, WalError> {
        if offset == self.synced_len {
            return Ok(self.prefix_crc);
        }
        self.file.seek(SeekFrom::Start(0))?;
        let mut buf = vec![0u8; offset as usize];
        self.file.read_exact(&mut buf)?;
        Ok(crc32(&buf))
    }

    /// Serve one follower catch-up request. A cursor matching this
    /// log's generation and prefix gets the verbatim committed bytes
    /// from its offset to the synced watermark; anything else — a
    /// generation reset under the follower, an offset outside the
    /// trusted range, a prefix CRC that disagrees — gets a full
    /// [`SnapshotTransfer`], because an incremental chunk appended to a
    /// diverged log would silently corrupt it.
    pub fn ship_from(&mut self, cursor: LogCursor) -> Result<Ship, WalError> {
        let incremental = cursor.gen == self.gen
            && cursor.offset >= self.header_len
            && cursor.offset <= self.synced_len
            && self.prefix_crc_at(cursor.offset.min(self.synced_len))? == cursor.crc;
        if !incremental {
            return Ok(Ship::Snapshot(self.snapshot_transfer()?));
        }
        let len = (self.synced_len - cursor.offset) as usize;
        let mut bytes = vec![0u8; len];
        self.file.seek(SeekFrom::Start(cursor.offset))?;
        self.file.read_exact(&mut bytes)?;
        let scan = scan_records(&bytes, 0);
        // The trusted prefix is commit-complete by construction, so a
        // torn scan of a slice of it is a local invariant violation.
        debug_assert!(!scan.torn, "trusted prefix scanned torn");
        metrics::add(Counter::ReplShips, 1);
        metrics::add(Counter::ReplShipBytes, bytes.len() as u64);
        Ok(Ship::Groups {
            gen: self.gen,
            from: cursor.offset,
            groups: scan.groups.len() as u64,
            bytes,
        })
    }

    /// The full durable state of this log for a follower that cannot be
    /// served incrementally: the snapshot file verbatim (absent before
    /// the first checkpoint) plus the gen-matched log prefix.
    pub fn snapshot_transfer(&mut self) -> Result<SnapshotTransfer, WalError> {
        let snap = match std::fs::read(self.dir.join("snapshot.mach")) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        self.file.seek(SeekFrom::Start(0))?;
        let mut log = vec![0u8; self.synced_len as usize];
        self.file.read_exact(&mut log)?;
        metrics::add(Counter::ReplSnapTransfers, 1);
        Ok(SnapshotTransfer {
            gen: self.gen,
            snap,
            log,
        })
    }

    /// Apply a shipped chunk on a follower: complete groups replay into
    /// `session` through the same machinery crash recovery uses, then
    /// land verbatim at the synced watermark — so a follower's log stays
    /// byte-identical to the primary's prefix it has acked.
    ///
    /// A generation mismatch is the fencing check: after a `PROMOTE`
    /// bumps the survivor's generation, a re-appearing old primary's
    /// groups carry the old one and are rejected whole
    /// ([`WalError::StaleGeneration`]). A chunk cut mid-group (the
    /// injected ship-disconnect, or a real half-received stream) applies
    /// its complete prefix and reports `torn` — the follower re-requests
    /// from its advanced cursor, exactly like recovery truncating a torn
    /// tail. [`WalError::ReplicaDiverged`] means local state could not
    /// absorb the bytes; the follower must heal by snapshot transfer.
    pub fn replica_apply(
        &mut self,
        session: &mut Session,
        gen: u64,
        bytes: &[u8],
    ) -> Result<ReplicaApplyReport, WalError> {
        if gen != self.gen {
            metrics::add(Counter::ReplStaleRejected, 1);
            return Err(WalError::StaleGeneration {
                got: gen,
                have: self.gen,
            });
        }
        if self.doomed {
            return Err(WalError::ReplicaDiverged(
                "log doomed; reinstall from snapshot transfer".to_string(),
            ));
        }
        // Injected fault: the stream dropped mid-chunk and only a
        // seeded prefix arrived.
        let landed = if faults::fire(FaultPoint::ShipDisconnect) {
            &bytes[..faults::torn_cut(bytes.len())]
        } else {
            bytes
        };
        let scan = scan_records(landed, 0);
        let keep = &landed[..scan.keep_len as usize];
        let mut records = 0u64;
        for group in &scan.groups {
            for payload in group {
                if let Err(e) = apply_payload(payload, session, &mut self.reg, &mut self.names) {
                    // Memory may be part-way through the group; only a
                    // fresh install makes this slot trustworthy again.
                    self.doomed = true;
                    let _ = take_wal_dirty_refs();
                    return Err(WalError::ReplicaDiverged(e.to_string()));
                }
                records += 1;
            }
        }
        // Replay wrote through `RefValue::set`; those deltas are the
        // primary's, already durable in the bytes we are about to land.
        let _ = take_wal_dirty_refs();
        if let Err(e) = self.append_synced(keep) {
            self.doomed = true;
            return Err(e);
        }
        self.groups += scan.groups.len() as u64;
        metrics::add(Counter::ReplGroupsApplied, scan.groups.len() as u64);
        Ok(ReplicaApplyReport {
            groups_applied: scan.groups.len() as u64,
            records_applied: records,
            torn: scan.torn || landed.len() < bytes.len(),
        })
    }
}

/// Install a [`SnapshotTransfer`] under `dir`, replacing whatever
/// durable state is there. Headers and the snapshot checksum are
/// validated *before* anything is overwritten — a corrupt transfer must
/// not destroy the follower's last good state. The caller re-opens via
/// [`SessionLog::open`] with a fresh session; install order (snapshot,
/// then log) keeps every crash point recoverable: a new snapshot with
/// the old log is exactly the "stale log discarded" checkpoint crash.
pub fn install_replica(dir: &Path, transfer: &SnapshotTransfer) -> Result<(), WalError> {
    std::fs::create_dir_all(dir)?;
    let (log_gen, _) = parse_log_header(&transfer.log)?;
    if log_gen != transfer.gen {
        return Err(WalError::BadHeader(format!(
            "transfer log gen {log_gen} != transfer gen {}",
            transfer.gen
        )));
    }
    if let Some(snap) = &transfer.snap {
        let (g, len, crc, hlen) = parse_snap_header(snap)?;
        if g != transfer.gen {
            return Err(WalError::BadHeader(format!(
                "transfer snapshot gen {g} != transfer gen {}",
                transfer.gen
            )));
        }
        let payload = snap
            .get(hlen..hlen.saturating_add(len))
            .filter(|p| p.len() == len && hlen + len == snap.len())
            .ok_or(WalError::Corrupt {
                offset: hlen as u64,
                what: "a transfer snapshot matching its declared length",
            })?;
        if crc32(payload) != crc {
            return Err(WalError::Corrupt {
                offset: hlen as u64,
                what: "a transfer snapshot matching its checksum",
            });
        }
        write_atomic(&dir.join("snapshot.mach"), snap)?;
    } else {
        if transfer.gen != 0 {
            return Err(WalError::BadHeader(format!(
                "snapshot-less transfer at gen {} (only gen 0 may lack one)",
                transfer.gen
            )));
        }
        let _ = std::fs::remove_file(dir.join("snapshot.mach"));
    }
    write_atomic(&dir.join("wal.log"), &transfer.log)?;
    Ok(())
}

/// Write a fresh log containing only a generation header, atomically,
/// returning its length (the initial synced watermark).
fn create_log(path: &Path, gen: u64) -> Result<u64, WalError> {
    let header = log_header(gen);
    write_atomic(path, header.as_bytes())?;
    Ok(header.len() as u64)
}

fn apply_payload(
    payload: &[u8],
    session: &mut Session,
    reg: &mut RefRegistry,
    names: &mut BTreeSet<String>,
) -> Result<(), WalError> {
    match parse_payload(payload)? {
        Payload::Bind { name, ty, enc } => {
            let value = decode_with_registry(&enc, reg)?;
            session
                .bind_external(&name, value, &ty)
                .map_err(|e| WalError::Session(e.to_string()))?;
            names.insert(name);
        }
        Payload::Delta { durable_id, enc } => {
            let Some(cell) = reg.cell(durable_id).cloned() else {
                return Err(WalError::Corrupt {
                    offset: 0,
                    what: "a delta naming a known durable ref",
                });
            };
            let value = decode_with_registry(&enc, reg)?;
            cell.set(value);
        }
        // Markers are group boundaries; the scanner strips them, but a
        // stray one is harmless.
        Payload::Commit => {}
    }
    Ok(())
}

/// A [`Session`] bundled with its [`SessionLog`]: evaluate, commit,
/// recover — the shape the crash-recovery harness and single-process
/// embedders use. (The server composes `Session` + `SessionLog`
/// directly, one pair per slot.)
pub struct DurableSession {
    session: Session,
    log: SessionLog,
}

impl DurableSession {
    /// Open with a full prelude session ([`Session::new`]).
    pub fn open(dir: &Path) -> Result<(DurableSession, RecoveryReport), WalError> {
        let mut session = Session::try_new().map_err(|e| WalError::Session(e.to_string()))?;
        let (log, report) = SessionLog::open(dir, &mut session)?;
        Ok((DurableSession { session, log }, report))
    }

    /// Open with a prelude-less session ([`Session::bare`]) — the
    /// harness's fast path.
    pub fn open_bare(dir: &Path) -> Result<(DurableSession, RecoveryReport), WalError> {
        let mut session = Session::bare();
        let (log, report) = SessionLog::open(dir, &mut session)?;
        Ok((DurableSession { session, log }, report))
    }

    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Mutable session access. Changes made here are durable only once
    /// a later [`DurableSession::eval`] or
    /// [`DurableSession::checkpoint`] captures them.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    pub fn log(&self) -> &SessionLog {
        &self.log
    }

    /// Evaluate `src` and commit its effects. On an evaluation error
    /// nothing commits, but partial ref writes are absorbed and ride
    /// with the next commit (they happened; durability must not forget
    /// them). A program failing at phrase *k* leaves phrases `0..k`
    /// bound in memory but not yet durable — single-phrase programs
    /// sidestep the distinction.
    pub fn eval(&mut self, src: &str) -> Result<(Vec<Outcome>, CommitReceipt), WalError> {
        match self.session.run(src) {
            Ok(outcomes) => {
                let receipt = self.log.commit(&self.session, &outcomes)?;
                Ok((outcomes, receipt))
            }
            Err(e) => {
                self.log.absorb_dirty();
                Err(WalError::Session(e.to_string()))
            }
        }
    }

    pub fn checkpoint(&mut self) -> Result<(), WalError> {
        self.log.checkpoint(&self.session)
    }

    /// Mutable log access — the primary side of replication
    /// ([`SessionLog::ship_from`], [`SessionLog::snapshot_transfer`]).
    pub fn log_mut(&mut self) -> &mut SessionLog {
        &mut self.log
    }

    /// Follower side of replication: absorb a shipped chunk into both
    /// the in-memory session and the local log
    /// ([`SessionLog::replica_apply`]).
    pub fn replica_apply(
        &mut self,
        gen: u64,
        bytes: &[u8],
    ) -> Result<ReplicaApplyReport, WalError> {
        self.log.replica_apply(&mut self.session, gen, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machiavelli_value::{RefValue, Value};

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mach-wal-{tag}-{}-{}",
            std::process::id(),
            RefValue::new(Value::Unit).id
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn bindings_survive_reopen() {
        let dir = tempdir("reopen");
        {
            let (mut ds, report) = DurableSession::open_bare(&dir).unwrap();
            assert!(!report.recovered);
            let (_, r) = ds.eval("val x = 41;").unwrap();
            assert!(r.records > 0);
            ds.eval("val y = x + 1;").unwrap();
        }
        let (mut ds, report) = DurableSession::open_bare(&dir).unwrap();
        assert!(report.recovered);
        assert_eq!(report.commits_replayed, 2);
        assert!(!report.torn_tail_truncated);
        assert_eq!(
            ds.eval("y;").unwrap().0.pop().unwrap().show(),
            "val it = 42 : int"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ref_deltas_replay_and_sharing_survives() {
        let dir = tempdir("deltas");
        {
            let (mut ds, _) = DurableSession::open_bare(&dir).unwrap();
            ds.eval("val d = ref(45);").unwrap();
            ds.eval("val d2 = d;").unwrap();
            // A pure ref write: no bind outcome beyond `it = ()`, so
            // durability rides on the delta record.
            let (_, r) = ds.eval("d := 67;").unwrap();
            assert!(r.records > 0 && !r.checkpointed);
        }
        let (mut ds, report) = DurableSession::open_bare(&dir).unwrap();
        assert_eq!(report.commits_replayed, 3);
        assert_eq!(
            ds.eval("!d;").unwrap().0.pop().unwrap().show(),
            "val it = 67 : int"
        );
        // d and d2 still alias one cell.
        ds.eval("d2 := 99;").unwrap();
        assert_eq!(
            ds.eval("!d;").unwrap().0.pop().unwrap().show(),
            "val it = 99 : int"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_compacts_and_resets_generation() {
        let dir = tempdir("ckpt");
        {
            let (mut ds, _) = DurableSession::open_bare(&dir).unwrap();
            ds.eval("val a = 1;").unwrap();
            ds.eval("val b = ref(2);").unwrap();
            assert_eq!(ds.log().generation(), 0);
            ds.checkpoint().unwrap();
            assert_eq!(ds.log().generation(), 1);
            // Post-checkpoint commits land in the new generation's log.
            ds.eval("b := 3;").unwrap();
        }
        let (mut ds, report) = DurableSession::open_bare(&dir).unwrap();
        assert_eq!(report.snapshot_bindings, 2, "a and b");
        assert_eq!(report.commits_replayed, 1, "only the post-checkpoint delta");
        assert_eq!(
            ds.eval("!b;").unwrap().0.pop().unwrap().show(),
            "val it = 3 : int"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn functions_are_skipped_not_fatal() {
        let dir = tempdir("skip");
        {
            let (mut ds, _) = DurableSession::open_bare(&dir).unwrap();
            let (_, r) = ds.eval("fun f(x) = x;").unwrap();
            assert!(r.skipped > 0, "{r:?}");
            ds.eval("val n = 5;").unwrap();
        }
        let (mut ds, _) = DurableSession::open_bare(&dir).unwrap();
        assert_eq!(
            ds.eval("n;").unwrap().0.pop().unwrap().show(),
            "val it = 5 : int"
        );
        assert!(ds.eval("f(1);").is_err(), "functions do not persist");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pump every pending group from `p` to `f`, acking nothing —
    /// returns the groups applied.
    fn pump(p: &mut DurableSession, f: &mut DurableSession) -> u64 {
        let mut applied = 0;
        loop {
            match p.log.ship_from(f.log.cursor()).unwrap() {
                Ship::Groups { bytes, .. } if bytes.is_empty() => break,
                Ship::Groups { gen, bytes, .. } => {
                    let DurableSession { session, log } = f;
                    let rep = log.replica_apply(session, gen, &bytes).unwrap();
                    applied += rep.groups_applied;
                }
                Ship::Snapshot(t) => {
                    install_replica(f.log.dir(), &t).unwrap();
                    let dir = f.log.dir().to_path_buf();
                    *f = DurableSession::open_bare(&dir).unwrap().0;
                }
            }
        }
        applied
    }

    #[test]
    fn follower_log_is_byte_identical_after_streaming() {
        let pd = tempdir("ship-p");
        let fd = tempdir("ship-f");
        let (mut p, _) = DurableSession::open_bare(&pd).unwrap();
        let (mut f, _) = DurableSession::open_bare(&fd).unwrap();
        p.eval("val x = 10;").unwrap();
        p.eval("val r = ref(1);").unwrap();
        p.eval("r := 2;").unwrap();
        let applied = pump(&mut p, &mut f);
        assert_eq!(applied, 3);
        assert_eq!(f.log.cursor(), p.log.cursor(), "cursors converge");
        assert_eq!(
            std::fs::read(pd.join("wal.log")).unwrap(),
            std::fs::read(fd.join("wal.log")).unwrap(),
            "follower log is the primary's, byte for byte"
        );
        assert_eq!(
            f.session.run("!r + x;").unwrap().pop().unwrap().show(),
            "val it = 12 : int"
        );
        // Caught-up ship is empty and counts zero groups.
        match p.log.ship_from(f.log.cursor()).unwrap() {
            Ship::Groups { bytes, groups, .. } => {
                assert!(bytes.is_empty());
                assert_eq!(groups, 0);
            }
            other => panic!("expected empty groups, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&pd);
        let _ = std::fs::remove_dir_all(&fd);
    }

    #[test]
    fn checkpointed_primary_serves_snapshot_transfer() {
        let pd = tempdir("snap-p");
        let fd = tempdir("snap-f");
        let (mut p, _) = DurableSession::open_bare(&pd).unwrap();
        let (mut f, _) = DurableSession::open_bare(&fd).unwrap();
        p.eval("val a = 1;").unwrap();
        pump(&mut p, &mut f);
        // Checkpoint resets the primary's log generation under the
        // follower's cursor: incremental shipping is impossible.
        p.checkpoint().unwrap();
        p.eval("val b = 2;").unwrap();
        match p.log.ship_from(f.log.cursor()).unwrap() {
            Ship::Snapshot(t) => {
                assert_eq!(t.gen, 1);
                assert!(t.snap.is_some());
                install_replica(f.log.dir(), &t).unwrap();
            }
            other => panic!("expected snapshot transfer, got {other:?}"),
        }
        let (mut f, report) = DurableSession::open_bare(&fd).unwrap();
        assert_eq!(report.snapshot_bindings, 1);
        assert_eq!(report.commits_replayed, 1);
        assert_eq!(f.log.cursor(), p.log.cursor());
        assert_eq!(
            f.session.run("a + b;").unwrap().pop().unwrap().show(),
            "val it = 3 : int"
        );
        let _ = std::fs::remove_dir_all(&pd);
        let _ = std::fs::remove_dir_all(&fd);
    }

    #[test]
    fn stale_generation_groups_are_rejected_whole() {
        let pd = tempdir("stale-p");
        let fd = tempdir("stale-f");
        let (mut p, _) = DurableSession::open_bare(&pd).unwrap();
        let (mut f, _) = DurableSession::open_bare(&fd).unwrap();
        p.eval("val x = 1;").unwrap();
        let Ship::Groups { bytes, .. } = p.log.ship_from(f.log.cursor()).unwrap() else {
            panic!("expected groups");
        };
        // Fence the follower: a checkpoint bumps its generation, which
        // is exactly what PROMOTE does.
        f.checkpoint().unwrap();
        let before = f.log.cursor();
        let DurableSession { session, log } = &mut f;
        match log.replica_apply(session, 0, &bytes) {
            Err(WalError::StaleGeneration { got: 0, have: 1 }) => {}
            other => panic!("expected StaleGeneration, got {other:?}"),
        }
        assert_eq!(f.log.cursor(), before, "rejection applies nothing");
        let _ = std::fs::remove_dir_all(&pd);
        let _ = std::fs::remove_dir_all(&fd);
    }

    #[test]
    fn diverged_cursor_heals_via_snapshot_transfer() {
        let pd = tempdir("div-p");
        let fd = tempdir("div-f");
        let (mut p, _) = DurableSession::open_bare(&pd).unwrap();
        let (mut f, _) = DurableSession::open_bare(&fd).unwrap();
        p.eval("val x = 1;").unwrap();
        pump(&mut p, &mut f);
        // Fork the streams: the follower commits locally (as a wrongly
        // un-fenced primary would), so offsets match but CRCs do not.
        f.eval("val y = 2;").unwrap();
        p.eval("val z = 3;").unwrap();
        let cur = f.log.cursor();
        assert_eq!(cur.gen, p.log.cursor().gen);
        match p.log.ship_from(cur).unwrap() {
            Ship::Snapshot(t) => {
                install_replica(f.log.dir(), &t).unwrap();
            }
            other => panic!("diverged prefix must force a snapshot, got {other:?}"),
        }
        let (mut f, _) = DurableSession::open_bare(&fd).unwrap();
        assert_eq!(f.log.cursor(), p.log.cursor());
        assert!(
            f.session.run("y;").is_err(),
            "the forked commit is gone after healing"
        );
        assert_eq!(
            f.session.run("x + z;").unwrap().pop().unwrap().show(),
            "val it = 4 : int"
        );
        let _ = std::fs::remove_dir_all(&pd);
        let _ = std::fs::remove_dir_all(&fd);
    }

    #[test]
    fn torn_ship_applies_prefix_and_resumes() {
        use machiavelli_value::faults::{set_fault_config, FaultConfig};
        let pd = tempdir("torn-p");
        let fd = tempdir("torn-f");
        let (mut p, _) = DurableSession::open_bare(&pd).unwrap();
        let (mut f, _) = DurableSession::open_bare(&fd).unwrap();
        for i in 0..6 {
            p.eval(&format!("val n{i} = {i};")).unwrap();
        }
        let Ship::Groups { bytes, groups, .. } = p.log.ship_from(f.log.cursor()).unwrap() else {
            panic!("expected groups");
        };
        assert_eq!(groups, 6);
        // First apply is cut mid-stream; the complete prefix lands.
        let prev = set_fault_config(Some(FaultConfig {
            ship_disconnect_ppm: 1_000_000,
            seed: 21,
            ..FaultConfig::off()
        }));
        let DurableSession { session, log } = &mut f;
        let rep = log.replica_apply(session, 0, &bytes).unwrap();
        set_fault_config(prev);
        assert!(rep.torn, "certain disconnect must report torn");
        assert!(rep.groups_applied < 6);
        // Re-request from the advanced cursor: the remainder streams.
        pump(&mut p, &mut f);
        assert_eq!(f.log.cursor(), p.log.cursor());
        assert_eq!(
            f.session
                .run("n0 + n1 + n2 + n3 + n4 + n5;")
                .unwrap()
                .pop()
                .unwrap()
                .show(),
            "val it = 15 : int"
        );
        let _ = std::fs::remove_dir_all(&pd);
        let _ = std::fs::remove_dir_all(&fd);
    }

    #[test]
    fn install_replica_validates_before_overwriting() {
        let fd = tempdir("inst-f");
        let (mut f, _) = DurableSession::open_bare(&fd).unwrap();
        f.eval("val keep = 7;").unwrap();
        drop(f);
        // Gen-mismatched log: refused, state intact.
        let bad = SnapshotTransfer {
            gen: 3,
            snap: None,
            log: log_header(2).into_bytes(),
        };
        assert!(matches!(
            install_replica(&fd, &bad),
            Err(WalError::BadHeader(_))
        ));
        // Corrupt snapshot payload: refused, state intact.
        let mut snap = snap_header(1, 4, 0xDEAD_BEEF).into_bytes();
        snap.extend_from_slice(b"i7:4");
        let bad = SnapshotTransfer {
            gen: 1,
            snap: Some(snap),
            log: log_header(1).into_bytes(),
        };
        assert!(matches!(
            install_replica(&fd, &bad),
            Err(WalError::Corrupt { .. })
        ));
        let (mut f, _) = DurableSession::open_bare(&fd).unwrap();
        assert_eq!(
            f.session.run("keep;").unwrap().pop().unwrap().show(),
            "val it = 7 : int"
        );
        let _ = std::fs::remove_dir_all(&fd);
    }

    #[test]
    fn cursor_tracks_groups_and_survives_reopen() {
        let dir = tempdir("cursor");
        let (mut ds, _) = DurableSession::open_bare(&dir).unwrap();
        assert_eq!(ds.log.groups(), 0);
        ds.eval("val x = 1;").unwrap();
        ds.eval("val y = 2;").unwrap();
        assert_eq!(ds.log.groups(), 2);
        let cur = ds.log.cursor();
        drop(ds);
        let (ds, _) = DurableSession::open_bare(&dir).unwrap();
        assert_eq!(ds.log.cursor(), cur, "cursor is recovery-stable");
        assert_eq!(ds.log.groups(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_commit_appends_nothing() {
        let dir = tempdir("empty");
        let (mut ds, _) = DurableSession::open_bare(&dir).unwrap();
        ds.eval("val x = 1;").unwrap();
        let before = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        let receipt = ds.log.commit(
            &Session::bare(), // no outcomes, no dirty refs
            &[],
        );
        assert_eq!(receipt.unwrap().records, 0);
        let after = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        assert_eq!(before, after);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

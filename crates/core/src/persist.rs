//! Persistence (§6: "the most important \[way\] in which Machiavelli needs
//! to be augmented … is the implementation of persistence").
//!
//! Description values serialize to a compact, self-contained text format:
//!
//! * reference cells are hoisted into a table keyed by local ids, so
//!   **sharing and cycles survive** a save/load round trip (two records
//!   sharing a department object still share it after loading);
//! * identities are *fresh* on load — object identity is per session, as
//!   the paper defines it, so loaded objects equal each other exactly
//!   according to the saved sharing structure;
//! * function values do not persist (they are not description values).
//!
//! [`Session::save_bindings`](crate::Session::save_bindings) /
//! [`Session::load_bindings`](crate::Session::load_bindings) persist
//! whole top-level bindings together with their (printed) types.
//!
//! Grammar of the value encoding (`<n>` are decimal lengths/counts/ids):
//!
//! ```text
//! v ::= u | T | F | i<n>: | f<bits>: | s<n>:<bytes>
//!     | R<n>{ l v … }   record with n fields (labels length-prefixed)
//!     | V l v           variant
//!     | S<n>[ v … ]     set
//!     | r<id>           reference (table index)
//!     | d<id> v         dynamic (identity table index, payload inline)
//! ```

use machiavelli_value::{DynValue, Fields, MSet, RefValue, Symbol, Unobserved, Value};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;

/// Errors from encoding/decoding persisted values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Function values (closures, operators, builtins) cannot persist.
    NotADescription,
    /// The input is malformed at the given byte offset.
    Malformed {
        offset: usize,
        expected: &'static str,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::NotADescription => {
                write!(
                    f,
                    "function values are not description values and cannot persist"
                )
            }
            PersistError::Malformed { offset, expected } => {
                write!(
                    f,
                    "malformed persisted value at byte {offset}: expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Encode a description value (with its reachable reference graph).
pub fn encode_value(v: &Value) -> Result<String, PersistError> {
    let mut enc = Encoder::default();
    let body = enc.encode(v)?;
    // Emit the ref table first: `refs<n>{ <id>=<value> … }`. Cells may
    // reference each other (and themselves), which is fine because ids
    // are assigned before contents are encoded.
    let mut out = String::new();
    let _ = write!(out, "refs{}{{", enc.table.len());
    // Table entries in id order for determinism.
    let mut entries: Vec<(u32, String)> = enc.table.into_values().collect();
    entries.sort_by_key(|(id, _)| *id);
    for (id, contents) in entries {
        let _ = write!(out, "{id}={contents};");
    }
    out.push('}');
    out.push_str(&body);
    Ok(out)
}

/// Decode a value previously produced by [`encode_value`]. All reference
/// and dynamic identities are freshly allocated (per-session identity).
pub fn decode_value(src: &str) -> Result<Value, PersistError> {
    let empty = HashMap::new();
    let mut refs: HashMap<u64, RefValue> = HashMap::new();
    // Pass 1: scan the table's extents and allocate all cells (so cyclic
    // references resolve). The scan itself needs no cells.
    let mut dec = Decoder {
        src: src.as_bytes(),
        pos: 0,
        refs: &empty,
    };
    dec.expect("refs")?;
    let n = dec.count()?;
    dec.expect("{")?;
    let mut bodies: Vec<(u64, usize)> = Vec::with_capacity(clamped(n));
    for _ in 0..n {
        let id = dec.unsigned()?;
        dec.expect("=")?;
        let start = dec.pos;
        dec.skip_value()?;
        dec.expect(";")?;
        if refs.insert(id, RefValue::new(Value::Unit)).is_some() {
            return Err(PersistError::Malformed {
                offset: start,
                expected: "a distinct ref id",
            });
        }
        bodies.push((id, start));
    }
    dec.expect("}")?;
    let root_start = dec.pos;
    // Pass 2: decode each cell's contents with the full table in scope.
    for (id, start) in &bodies {
        let mut cell_dec = Decoder {
            src: dec.src,
            pos: *start,
            refs: &refs,
        };
        let contents = cell_dec.value()?;
        let Some(cell) = refs.get(id) else {
            // Unreachable (every id was inserted in pass 1), but a
            // decoder bug must surface as an error, never a panic: a
            // malformed persist file may be fed to a server-hosted
            // session.
            return Err(PersistError::Malformed {
                offset: *start,
                expected: "a reserved ref id",
            });
        };
        cell.set(contents, &Unobserved);
    }
    let mut root_dec = Decoder {
        src: dec.src,
        pos: root_start,
        refs: &refs,
    };
    let v = root_dec.value()?;
    if root_dec.pos != dec.src.len() {
        return Err(PersistError::Malformed {
            offset: root_dec.pos,
            expected: "end of input",
        });
    }
    Ok(v)
}

// --- registry-threaded (incremental) encoding -------------------------------

/// A persistent **reference registry**: the bidirectional mapping between
/// a session's (ephemeral, per-process) ref identities and the **durable
/// ids** a write-ahead log names them by across restarts.
///
/// [`encode_value`] assigns table ids local to one encoding, so two
/// encodings of overlapping graphs cannot name each other's cells.
/// Threading one registry through a *sequence* of
/// [`encode_with_registry`] / [`decode_with_registry`] calls makes the
/// id space shared: a ref encoded in record 1 is a bare `r<id>.`
/// back-reference in record 2, so cross-record sharing and cycles
/// survive exactly as intra-record ones do. This is the keystone of the
/// delta log — a ref-update record can name just the changed cell.
#[derive(Debug, Default)]
pub struct RefRegistry {
    /// Durable id → live cell.
    by_durable: HashMap<u64, RefValue>,
    /// Session ref identity → durable id.
    by_session: HashMap<u64, u64>,
    /// Next unassigned durable id.
    next: u64,
}

impl RefRegistry {
    pub fn new() -> RefRegistry {
        RefRegistry::default()
    }

    /// Number of registered cells.
    pub fn len(&self) -> usize {
        self.by_durable.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_durable.is_empty()
    }

    /// The durable id assigned to a session ref identity, if this
    /// registry has ever encoded or decoded that cell.
    pub fn durable_id(&self, session_ref_id: u64) -> Option<u64> {
        self.by_session.get(&session_ref_id).copied()
    }

    /// The live cell a durable id names, if known.
    pub fn cell(&self, durable_id: u64) -> Option<&RefValue> {
        self.by_durable.get(&durable_id)
    }

    fn register(&mut self, durable_id: u64, cell: RefValue) {
        self.by_session.insert(cell.id, durable_id);
        self.by_durable.insert(durable_id, cell);
        self.next = self.next.max(durable_id + 1);
    }

    fn unregister(&mut self, durable_id: u64) {
        if let Some(cell) = self.by_durable.remove(&durable_id) {
            self.by_session.remove(&cell.id);
        }
    }
}

/// Encode a description value against a [`RefRegistry`]: refs the
/// registry already knows encode as bare `r<durable-id>.` references
/// with **no table entry**; refs seen for the first time are assigned
/// fresh durable ids, registered, and emitted in this encoding's table.
/// On error the registry is rolled back to its pre-call state.
pub fn encode_with_registry(v: &Value, reg: &mut RefRegistry) -> Result<String, PersistError> {
    let mut enc = RegEncoder {
        reg,
        fresh: Vec::new(),
        table: BTreeMap::new(),
    };
    match enc.encode(v) {
        Ok(body) => {
            let mut out = String::new();
            let _ = write!(out, "refs{}{{", enc.table.len());
            for (id, contents) in &enc.table {
                let _ = write!(out, "{id}={contents};");
            }
            out.push('}');
            out.push_str(&body);
            Ok(out)
        }
        Err(e) => {
            for did in enc.fresh {
                enc.reg.unregister(did);
            }
            Err(e)
        }
    }
}

/// Decode a value produced by [`encode_with_registry`] against the same
/// (logical) registry. Table entries allocate fresh cells and register
/// them under their durable ids — which must be new to the registry —
/// while bare `r<id>.` references resolve through everything the
/// registry already holds. On error the registry is rolled back.
pub fn decode_with_registry(src: &str, reg: &mut RefRegistry) -> Result<Value, PersistError> {
    let mut fresh: Vec<u64> = Vec::new();
    match decode_with_registry_inner(src, reg, &mut fresh) {
        Ok(v) => Ok(v),
        Err(e) => {
            for did in fresh {
                reg.unregister(did);
            }
            Err(e)
        }
    }
}

fn decode_with_registry_inner(
    src: &str,
    reg: &mut RefRegistry,
    fresh: &mut Vec<u64>,
) -> Result<Value, PersistError> {
    let empty = HashMap::new();
    let mut dec = Decoder {
        src: src.as_bytes(),
        pos: 0,
        refs: &empty,
    };
    dec.expect("refs")?;
    let n = dec.count()?;
    dec.expect("{")?;
    let mut bodies: Vec<(u64, usize)> = Vec::with_capacity(clamped(n));
    for _ in 0..n {
        let id = dec.unsigned()?;
        dec.expect("=")?;
        let start = dec.pos;
        dec.skip_value()?;
        dec.expect(";")?;
        if reg.by_durable.contains_key(&id) {
            return Err(PersistError::Malformed {
                offset: start,
                expected: "a fresh durable ref id",
            });
        }
        reg.register(id, RefValue::new(Value::Unit));
        fresh.push(id);
        bodies.push((id, start));
    }
    dec.expect("}")?;
    let root_start = dec.pos;
    for (id, start) in &bodies {
        let contents = {
            let mut cell_dec = Decoder {
                src: dec.src,
                pos: *start,
                refs: &reg.by_durable,
            };
            cell_dec.value()?
        };
        let Some(cell) = reg.by_durable.get(id) else {
            return Err(PersistError::Malformed {
                offset: *start,
                expected: "a reserved ref id",
            });
        };
        cell.set(contents, &Unobserved);
    }
    let mut root_dec = Decoder {
        src: dec.src,
        pos: root_start,
        refs: &reg.by_durable,
    };
    let v = root_dec.value()?;
    if root_dec.pos != dec.src.len() {
        return Err(PersistError::Malformed {
            offset: root_dec.pos,
            expected: "end of input",
        });
    }
    Ok(v)
}

struct RegEncoder<'a> {
    reg: &'a mut RefRegistry,
    /// Durable ids assigned by *this* encoding, for rollback on error.
    fresh: Vec<u64>,
    /// Durable id → encoded contents, for the table this encoding emits
    /// (fresh ids only — known ids already live in earlier tables).
    table: BTreeMap<u64, String>,
}

impl RegEncoder<'_> {
    fn encode(&mut self, v: &Value) -> Result<String, PersistError> {
        let mut out = String::new();
        self.write(v, &mut out)?;
        Ok(out)
    }

    fn write(&mut self, v: &Value, out: &mut String) -> Result<(), PersistError> {
        match v {
            Value::Ref(r) => {
                let did = match self.reg.durable_id(r.id) {
                    Some(did) => did,
                    None => {
                        let did = self.reg.next;
                        // Register before recursing (cycles!), then fill
                        // the table slot with the encoded contents.
                        self.reg.register(did, r.clone());
                        self.fresh.push(did);
                        self.table.insert(did, String::new());
                        let contents = self.encode(&r.get())?;
                        self.table.insert(did, contents);
                        did
                    }
                };
                let _ = write!(out, "r{did}.");
                Ok(())
            }
            Value::Unit
            | Value::Bool(_)
            | Value::Int(_)
            | Value::Real(_)
            | Value::Str(_)
            | Value::Record(_)
            | Value::Variant(..)
            | Value::Set(_)
            | Value::Dynamic(_)
            | Value::Closure(_)
            | Value::Op(_)
            | Value::Builtin(_) => self.write_structural(v, out),
        }
    }

    /// Non-ref cases share [`Encoder`]'s grammar exactly; recursion comes
    /// back through [`RegEncoder::write`] so nested refs hit the registry.
    fn write_structural(&mut self, v: &Value, out: &mut String) -> Result<(), PersistError> {
        match v {
            Value::Unit => out.push('u'),
            Value::Bool(true) => out.push('T'),
            Value::Bool(false) => out.push('F'),
            Value::Int(n) => {
                let _ = write!(out, "i{n}:");
            }
            Value::Real(r) => {
                let _ = write!(out, "f{}:", r.to_bits());
            }
            Value::Str(s) => {
                let _ = write!(out, "s{}:{s}", s.len());
            }
            Value::Record(fs) => {
                let _ = write!(out, "R{}{{", fs.len());
                for (l, fv) in fs {
                    let _ = write!(out, "l{}:{l}", l.len());
                    self.write(fv, out)?;
                }
                out.push('}');
            }
            Value::Variant(l, p) => {
                let _ = write!(out, "Vl{}:{l}", l.len());
                self.write(p, out)?;
            }
            Value::Set(items) => {
                let _ = write!(out, "S{}[", items.len());
                for item in items.iter() {
                    self.write(item, out)?;
                }
                out.push(']');
            }
            Value::Dynamic(d) => {
                let _ = write!(out, "d{}.", d.id);
                self.write(&d.value, out)?;
            }
            Value::Ref(_) => unreachable!("refs handled by write"),
            Value::Closure(_) | Value::Op(_) | Value::Builtin(_) => {
                return Err(PersistError::NotADescription)
            }
        }
        Ok(())
    }
}

/// Write `bytes` to `path` via a temp file in the same directory, fsync,
/// and atomic rename — a crash at any point leaves either the previous
/// contents or the new contents, never a torn mixture.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Durability of the rename itself needs the directory synced; best
    // effort — some platforms refuse to open directories for sync.
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[derive(Default)]
struct Encoder {
    /// Original ref identity → (local id, encoded contents).
    table: BTreeMap<u64, (u32, String)>,
    next: u32,
}

impl Encoder {
    fn encode(&mut self, v: &Value) -> Result<String, PersistError> {
        let mut out = String::new();
        self.write(v, &mut out)?;
        Ok(out)
    }

    fn write(&mut self, v: &Value, out: &mut String) -> Result<(), PersistError> {
        match v {
            Value::Unit => out.push('u'),
            Value::Bool(true) => out.push('T'),
            Value::Bool(false) => out.push('F'),
            Value::Int(n) => {
                let _ = write!(out, "i{n}:");
            }
            Value::Real(r) => {
                let _ = write!(out, "f{}:", r.to_bits());
            }
            Value::Str(s) => {
                let _ = write!(out, "s{}:{s}", s.len());
            }
            Value::Record(fs) => {
                let _ = write!(out, "R{}{{", fs.len());
                for (l, fv) in fs {
                    let _ = write!(out, "l{}:{l}", l.len());
                    self.write(fv, out)?;
                }
                out.push('}');
            }
            Value::Variant(l, p) => {
                let _ = write!(out, "Vl{}:{l}", l.len());
                self.write(p, out)?;
            }
            Value::Set(items) => {
                let _ = write!(out, "S{}[", items.len());
                for item in items.iter() {
                    self.write(item, out)?;
                }
                out.push(']');
            }
            Value::Ref(r) => {
                let local = match self.table.get(&r.id) {
                    Some((local, _)) => *local,
                    None => {
                        let local = self.next;
                        self.next += 1;
                        // Reserve the slot before recursing (cycles!),
                        // then fill it; the slot cannot have vanished,
                        // but degrade to re-inserting rather than
                        // panicking if an encoder bug ever drops it.
                        self.table.insert(r.id, (local, String::new()));
                        let contents = self.encode(&r.get())?;
                        match self.table.get_mut(&r.id) {
                            Some(slot) => slot.1 = contents,
                            None => {
                                self.table.insert(r.id, (local, contents));
                            }
                        }
                        local
                    }
                };
                let _ = write!(out, "r{local}.");
            }
            Value::Dynamic(d) => {
                let _ = write!(out, "d{}.", d.id);
                self.write(&d.value, out)?;
            }
            Value::Closure(_) | Value::Op(_) | Value::Builtin(_) => {
                return Err(PersistError::NotADescription)
            }
        }
        Ok(())
    }
}

/// Cap speculative pre-allocation from decoded counts: a malformed (or
/// hostile) length prefix must cost a `Malformed` error downstream, not
/// an allocation abort here. Honest inputs still reserve exactly once
/// for anything up to this size.
fn clamped(n: usize) -> usize {
    n.min(1024)
}

struct Decoder<'a> {
    src: &'a [u8],
    pos: usize,
    refs: &'a HashMap<u64, RefValue>,
}

impl Decoder<'_> {
    fn err(&self, expected: &'static str) -> PersistError {
        PersistError::Malformed {
            offset: self.pos,
            expected,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, lit: &'static str) -> Result<(), PersistError> {
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(lit))
        }
    }

    fn number(&mut self) -> Result<i64, PersistError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("a number"));
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("a number"))
    }

    /// A decoded element/field count. Counts are never negative, so
    /// they parse as unsigned — a `-` here is malformed input, not a
    /// huge wrapped `usize`.
    fn count(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.unsigned()?).map_err(|_| self.err("a count"))
    }

    fn unsigned(&mut self) -> Result<u64, PersistError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("an unsigned number"))
    }

    fn sized_str(&mut self) -> Result<String, PersistError> {
        let n = self.count()?;
        self.expect(":")?;
        let end = self.pos.checked_add(n).filter(|&e| e <= self.src.len());
        let Some(end) = end else {
            return Err(self.err("string bytes"));
        };
        let s = std::str::from_utf8(&self.src[self.pos..end])
            .map_err(|_| self.err("utf-8 string"))?
            .to_string();
        self.pos = end;
        Ok(s)
    }

    fn label(&mut self) -> Result<String, PersistError> {
        self.expect("l")?;
        self.sized_str()
    }

    fn value(&mut self) -> Result<Value, PersistError> {
        match self.peek() {
            Some(b'u') => {
                self.pos += 1;
                Ok(Value::Unit)
            }
            Some(b'T') => {
                self.pos += 1;
                Ok(Value::Bool(true))
            }
            Some(b'F') => {
                self.pos += 1;
                Ok(Value::Bool(false))
            }
            Some(b'i') => {
                self.pos += 1;
                let n = self.number()?;
                self.expect(":")?;
                Ok(Value::Int(n))
            }
            Some(b'f') => {
                self.pos += 1;
                let bits = self.unsigned()?;
                self.expect(":")?;
                Ok(Value::Real(f64::from_bits(bits)))
            }
            Some(b's') => {
                self.pos += 1;
                Ok(Value::str(self.sized_str()?))
            }
            Some(b'R') => {
                self.pos += 1;
                let n = self.count()?;
                self.expect("{")?;
                let mut fs = Vec::with_capacity(clamped(n));
                for _ in 0..n {
                    let l = self.label()?;
                    let v = self.value()?;
                    fs.push((Symbol::intern(&l), v));
                }
                self.expect("}")?;
                Ok(Value::Record(Fields::from_vec(fs)))
            }
            Some(b'V') => {
                self.pos += 1;
                let l = self.label()?;
                let p = self.value()?;
                Ok(Value::Variant(Symbol::intern(&l), Box::new(p)))
            }
            Some(b'S') => {
                self.pos += 1;
                let n = self.count()?;
                self.expect("[")?;
                let mut items = Vec::with_capacity(clamped(n));
                for _ in 0..n {
                    items.push(self.value()?);
                }
                self.expect("]")?;
                Ok(Value::Set(MSet::from_iter(items)))
            }
            Some(b'r') => {
                self.pos += 1;
                let id = self.unsigned()?;
                self.expect(".")?;
                let cell = self
                    .refs
                    .get(&id)
                    .ok_or_else(|| self.err("a known ref id"))?;
                Ok(Value::Ref(cell.clone()))
            }
            Some(b'd') => {
                self.pos += 1;
                let _saved_id = self.unsigned()?;
                self.expect(".")?;
                let payload = self.value()?;
                // Fresh identity, as for refs.
                Ok(Value::Dynamic(DynValue::new(payload, None)))
            }
            _ => Err(self.err("a value tag")),
        }
    }

    /// Skip over one encoded value without building it (used to find the
    /// extents of ref-table entries before cells exist).
    fn skip_value(&mut self) -> Result<(), PersistError> {
        match self.peek() {
            Some(b'u' | b'T' | b'F') => {
                self.pos += 1;
                Ok(())
            }
            Some(b'i') => {
                self.pos += 1;
                self.number()?;
                self.expect(":")
            }
            Some(b'f') => {
                self.pos += 1;
                self.unsigned()?;
                self.expect(":")
            }
            Some(b's') => {
                self.pos += 1;
                self.sized_str()?;
                Ok(())
            }
            Some(b'R') => {
                self.pos += 1;
                let n = self.count()?;
                self.expect("{")?;
                for _ in 0..n {
                    self.label()?;
                    self.skip_value()?;
                }
                self.expect("}")
            }
            Some(b'V') => {
                self.pos += 1;
                self.label()?;
                self.skip_value()
            }
            Some(b'S') => {
                self.pos += 1;
                let n = self.count()?;
                self.expect("[")?;
                for _ in 0..n {
                    self.skip_value()?;
                }
                self.expect("]")
            }
            Some(b'r') => {
                self.pos += 1;
                self.unsigned()?;
                self.expect(".")
            }
            Some(b'd') => {
                self.pos += 1;
                self.unsigned()?;
                self.expect(".")?;
                self.skip_value()
            }
            _ => Err(self.err("a value tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        let enc = encode_value(v).unwrap();
        decode_value(&enc).unwrap_or_else(|e| panic!("decode {enc:?}: {e}"))
    }

    #[test]
    fn base_values_roundtrip() {
        for v in [
            Value::Unit,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Real(2.5),
            Value::str("héllo: with, punctuation{}[]"),
            Value::str(""),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn real_bits_preserved() {
        let v = Value::Real(f64::NAN);
        let Value::Real(r) = roundtrip(&v) else {
            panic!()
        };
        assert!(r.is_nan());
        assert_eq!(roundtrip(&Value::Real(-0.0)), Value::Real(-0.0));
    }

    #[test]
    fn structures_roundtrip() {
        let v = Value::set([
            Value::record([
                ("Name".into(), Value::str("Joe")),
                ("Tags".into(), Value::set([Value::Int(1), Value::Int(2)])),
            ]),
            Value::record([
                ("Name".into(), Value::str("Sue")),
                ("Tags".into(), Value::set([])),
            ]),
        ]);
        assert_eq!(roundtrip(&v), v);
        let v = Value::variant("BasePart", Value::record([("Cost".into(), Value::Int(5))]));
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn sharing_is_preserved() {
        // Two employees share one department: after loading, updating
        // through one is visible through the other.
        let dept = RefValue::new(Value::record([("Building".into(), Value::Int(45))]));
        let v = Value::tuple([
            Value::record([("Dept".into(), Value::Ref(dept.clone()))]),
            Value::record([("Dept".into(), Value::Ref(dept))]),
        ]);
        let loaded = roundtrip(&v);
        let Value::Record(pair) = &loaded else {
            panic!()
        };
        let (Value::Record(e1), Value::Record(e2)) = (&pair["#1"], &pair["#2"]) else {
            panic!()
        };
        let (Value::Ref(d1), Value::Ref(d2)) = (&e1["Dept"], &e2["Dept"]) else {
            panic!()
        };
        assert_eq!(d1.id, d2.id, "sharing preserved");
        d1.set(
            Value::record([("Building".into(), Value::Int(67))]),
            &Unobserved,
        );
        assert_eq!(
            d2.get(),
            Value::record([("Building".into(), Value::Int(67))])
        );
    }

    #[test]
    fn unshared_refs_stay_unshared() {
        let v = Value::tuple([
            Value::Ref(RefValue::new(Value::Int(3))),
            Value::Ref(RefValue::new(Value::Int(3))),
        ]);
        let loaded = roundtrip(&v);
        let Value::Record(pair) = &loaded else {
            panic!()
        };
        assert_ne!(pair["#1"], pair["#2"], "distinct identities");
    }

    #[test]
    fn cyclic_refs_roundtrip() {
        let cell = RefValue::new(Value::Unit);
        cell.set(
            Value::record([("Self".into(), Value::Ref(cell.clone()))]),
            &Unobserved,
        );
        let loaded = roundtrip(&Value::Ref(cell));
        let Value::Ref(r) = &loaded else { panic!() };
        let Value::Record(fs) = r.get() else { panic!() };
        let Value::Ref(inner) = &fs["Self"] else {
            panic!()
        };
        assert_eq!(inner.id, r.id, "cycle closed");
    }

    #[test]
    fn dynamics_roundtrip_with_fresh_identity() {
        let v = Value::Dynamic(DynValue::new(Value::str("payload"), None));
        let loaded = roundtrip(&v);
        let Value::Dynamic(d) = &loaded else { panic!() };
        assert_eq!(*d.value, Value::str("payload"));
        assert_ne!(loaded, v, "fresh identity on load");
    }

    #[test]
    fn functions_refuse_to_persist() {
        let v = Value::Op(machiavelli_syntax::ast::BinOp::Add);
        assert_eq!(encode_value(&v), Err(PersistError::NotADescription));
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "refs0{}x",
            "refs0{}i1",
            "refs1{0=i1:;}r9.",
            "refs0{}s5:ab",
        ] {
            assert!(decode_value(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn hostile_length_prefixes_error_instead_of_aborting() {
        // Each input claims an astronomically large element count or a
        // negative one. Decoding must fail with `Malformed` — without
        // pre-allocating by the claimed count (an allocation abort is a
        // panic a server-hosted session can never be allowed to hit).
        for bad in [
            "refs0{}S99999999999999999[u]",     // set count ≫ input
            "refs0{}R99999999999999999{l1:Au}", // record count ≫ input
            "refs99999999999999999{}u",         // ref-table count ≫ input
            "refs0{}S-3[u]",                    // negative set count
            "refs0{}R-1{}",                     // negative record count
            "refs0{}s-5:abc",                   // negative string length
            "refs0{}s99999999999999999:abc",    // string length ≫ input
            "refs1{-1=u;}u",                    // negative ref id
            "refs0{}r-1.",                      // negative ref id use
            "refs0{}S18446744073709551617[u]",  // count > u64::MAX
        ] {
            assert!(decode_value(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let enc = encode_value(&Value::Int(1)).unwrap();
        assert!(decode_value(&format!("{enc}u")).is_err());
    }

    #[test]
    fn decode_rejects_duplicate_table_ids() {
        assert!(decode_value("refs2{0=i1:;0=i2:;}r0.").is_err());
    }

    #[test]
    fn truncation_at_every_byte_offset_errors_cleanly() {
        // Rich golden encodings exercising every tag (ASCII payloads so
        // every byte offset is a char boundary). A strict prefix is
        // never a valid encoding — decode must return `Malformed` at
        // every single cut point, and must never panic or succeed.
        let cell = RefValue::new(Value::Unit);
        cell.set(
            Value::record([
                ("Next".into(), Value::Ref(cell.clone())),
                ("Tag".into(), Value::str("shared dept")),
            ]),
            &Unobserved,
        );
        let goldens = [
            encode_value(&Value::tuple([
                Value::Ref(cell.clone()),
                Value::Ref(cell),
                Value::Int(-17),
                Value::Real(2.5),
                Value::variant("Leaf", Value::set([Value::Bool(true), Value::Unit])),
                Value::Dynamic(DynValue::new(Value::str("dyn payload"), None)),
            ]))
            .unwrap(),
            encode_value(&Value::set([Value::str(""), Value::str("x:y{z}[w]")])).unwrap(),
        ];
        for golden in &goldens {
            assert!(golden.is_ascii(), "golden must slice at any byte");
            assert!(decode_value(golden).is_ok(), "golden decodes whole");
            for cut in 0..golden.len() {
                let truncated = &golden[..cut];
                assert!(
                    decode_value(truncated).is_err(),
                    "truncation to {cut} bytes of {golden:?} must be rejected"
                );
            }
        }
    }

    #[test]
    fn registry_preserves_sharing_across_records() {
        // Encode two *separate* records that share one cell; a fresh
        // registry on the decode side must re-link them.
        let dept = RefValue::new(Value::record([("Building".into(), Value::Int(45))]));
        let e1 = Value::record([("Dept".into(), Value::Ref(dept.clone()))]);
        let e2 = Value::record([("Dept".into(), Value::Ref(dept.clone()))]);

        let mut enc_reg = RefRegistry::new();
        let rec1 = encode_with_registry(&e1, &mut enc_reg).unwrap();
        let rec2 = encode_with_registry(&e2, &mut enc_reg).unwrap();
        assert!(
            rec2.starts_with("refs0{"),
            "second record back-references, no table: {rec2:?}"
        );

        let mut dec_reg = RefRegistry::new();
        let l1 = decode_with_registry(&rec1, &mut dec_reg).unwrap();
        let l2 = decode_with_registry(&rec2, &mut dec_reg).unwrap();
        let (Value::Record(f1), Value::Record(f2)) = (&l1, &l2) else {
            panic!()
        };
        let (Value::Ref(d1), Value::Ref(d2)) = (&f1["Dept"], &f2["Dept"]) else {
            panic!()
        };
        assert_eq!(d1.id, d2.id, "cross-record sharing preserved");
        d1.set(Value::Int(0), &Unobserved);
        assert_eq!(d2.get(), Value::Int(0));
    }

    #[test]
    fn registry_delta_names_only_the_changed_cell() {
        let cell = RefValue::new(Value::Int(1));
        let mut reg = RefRegistry::new();
        let full = encode_with_registry(&Value::Ref(cell.clone()), &mut reg).unwrap();
        assert!(full.contains('='), "first encoding carries the table");
        // A later delta for the same cell is a constant-size payload.
        cell.set(Value::Int(2), &Unobserved);
        let delta = encode_with_registry(&cell.get(), &mut reg).unwrap();
        assert_eq!(delta, "refs0{}i2:");
        let did = reg.durable_id(cell.id).unwrap();
        assert_eq!(reg.cell(did).map(|c| c.id), Some(cell.id));
    }

    #[test]
    fn registry_rolls_back_on_encode_error() {
        let mut reg = RefRegistry::new();
        let poisoned = Value::Ref(RefValue::new(Value::Op(
            machiavelli_syntax::ast::BinOp::Add,
        )));
        assert_eq!(
            encode_with_registry(&poisoned, &mut reg),
            Err(PersistError::NotADescription)
        );
        assert!(reg.is_empty(), "failed encode leaves no registrations");
    }

    #[test]
    fn registry_decode_rejects_redefined_durable_ids() {
        let mut reg = RefRegistry::new();
        let rec =
            encode_with_registry(&Value::Ref(RefValue::new(Value::Int(1))), &mut reg).unwrap();
        let before = reg.len();
        // Replaying the same record against the same registry would
        // redefine durable id 0 — corruption, not idempotence.
        assert!(decode_with_registry(&rec, &mut reg).is_err());
        assert_eq!(reg.len(), before, "failed decode rolls back");
    }

    #[test]
    fn registry_decode_resolves_cycles() {
        let cell = RefValue::new(Value::Unit);
        cell.set(
            Value::record([("Self".into(), Value::Ref(cell.clone()))]),
            &Unobserved,
        );
        let mut enc_reg = RefRegistry::new();
        let rec = encode_with_registry(&Value::Ref(cell), &mut enc_reg).unwrap();
        let mut dec_reg = RefRegistry::new();
        let Value::Ref(r) = decode_with_registry(&rec, &mut dec_reg).unwrap() else {
            panic!()
        };
        let Value::Record(fs) = r.get() else { panic!() };
        let Value::Ref(inner) = &fs["Self"] else {
            panic!()
        };
        assert_eq!(inner.id, r.id, "cycle closed through the registry");
    }

    #[test]
    fn write_atomic_replaces_and_never_leaves_tmp() {
        let dir = std::env::temp_dir().join(format!(
            "mach-write-atomic-{}-{}",
            std::process::id(),
            RefValue::new(Value::Unit).id
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.mach");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "no temp files survive");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

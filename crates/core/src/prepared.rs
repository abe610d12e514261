//! Prepared phrases: a session's cache of elaborated phrases, keyed by
//! shape ([`machiavelli_syntax::Shape`]).
//!
//! A hit skips the parser and type inference: the session lexes the
//! request, patches its literals into the cached AST, checks that every
//! top-level binding inference read still carries the stamp it had at
//! fill time, then evaluates and binds the cached scheme. What a miss
//! admits, and why each rule is needed, is in `docs/PERFORMANCE.md`
//! ("Front end").

use machiavelli_syntax::{Phrase, Symbol};
use machiavelli_types::Scheme;
use std::collections::HashMap;

/// Entries a session keeps. Clients send a handful of shapes (two or
/// three per benchmark workload); the bound keeps a session that sends
/// many from growing without end.
pub(crate) const CAPACITY: usize = 32;

/// Longer sources are never prepared. 4 KiB holds every request phrase
/// the benchmark workloads send (the largest, a batch rebind, is about
/// 1 KiB) and no bulk-load chunk (100–250 KiB), which would only churn
/// the cache.
pub(crate) const SRC_CAP: usize = 4096;

/// One elaborated phrase.
pub(crate) struct Entry {
    /// The AST as last run; each hit overwrites its literal nodes.
    pub phrase: Phrase,
    /// [`machiavelli_syntax::Shape::slots`] of `phrase`.
    pub slots: Vec<usize>,
    /// The bound name (`it` for bare expressions) and its ground scheme.
    pub name: Symbol,
    pub scheme: Scheme,
    /// The top-level bindings inference read, with their stamps then.
    pub reads: Vec<(Symbol, u64)>,
    used: u64,
}

impl Entry {
    pub fn new(
        phrase: Phrase,
        slots: Vec<usize>,
        name: Symbol,
        scheme: Scheme,
        reads: Vec<(Symbol, u64)>,
    ) -> Entry {
        Entry {
            phrase,
            slots,
            name,
            scheme,
            reads,
            used: 0,
        }
    }
}

/// A fixed-capacity LRU of [`Entry`]s by shape key.
pub(crate) struct Prepared {
    capacity: usize,
    clock: u64,
    entries: HashMap<String, Entry>,
}

impl Prepared {
    pub fn new(capacity: usize) -> Prepared {
        Prepared {
            capacity,
            clock: 0,
            entries: HashMap::new(),
        }
    }

    /// False for the capacity-0 cache of `testing::uncached_session`.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    pub fn get(&mut self, key: &str) -> Option<&mut Entry> {
        let entry = self.entries.get_mut(key)?;
        self.clock += 1;
        entry.used = self.clock;
        Some(entry)
    }

    /// Admit `entry`, replacing any entry under `key` and otherwise
    /// evicting the least recently used one when full.
    pub fn insert(&mut self, key: String, mut entry: Entry) {
        if !self.enabled() {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone());
            if let Some(k) = oldest {
                self.entries.remove(&k);
            }
        }
        self.clock += 1;
        entry.used = self.clock;
        self.entries.insert(key, entry);
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

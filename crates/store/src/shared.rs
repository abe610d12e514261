//! A fence, not a tier: no process-wide index tier exists. Every index
//! lives in its own session's store. These two no-ops remain only
//! because the wire benchmark's twins call them; they go in the next
//! benchmark-only change.

/// Does nothing and reports the tier as never having been on.
pub fn set_shared_enabled(_on: bool) -> bool {
    false
}

/// Does nothing: there is no tier to clear.
pub fn reset_shared() {}

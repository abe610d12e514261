//! Generalized relational substrate for the Machiavelli reproduction.
//!
//! Native (non-interpreted) counterparts of the paper's §4 machinery,
//! used as verification baselines and benchmark subjects. Nothing on
//! the engine path (`machiavelli` and everything `machid` links)
//! depends on this crate:
//!
//! * [`relation`] — relations over Machiavelli values with select /
//!   project / rename / union;
//! * [`join`] — natural-join strategies (nested-loop vs hash vs
//!   sort-merge);
//! * [`closure`] — the Figure 4 transitive closure, naive vs semi-naive;
//! * [`generators`] — the Figure 2 part–supplier database (literal and
//!   scaled), employees for the intro's `Wealthy`, random digraphs.

pub mod closure;
pub mod generators;
pub mod join;
pub mod relation;

pub use closure::{closure_relation, naive_closure, seminaive_closure};
pub use generators::{
    chain_edges, edges_to_relation, fig2_parts, fig2_supplied_by, fig2_suppliers, gen_edges,
    gen_employees, gen_part_supplier, native_cost, part_row, PartInfo, PartSupplierDb,
};
pub use join::{hash_join, nested_loop_join, sort_merge_join};
pub use relation::{row, Relation};

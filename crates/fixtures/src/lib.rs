//! Dev-only fixtures for the paper-reproduction tests, examples,
//! benches and the `experiments` binary. No engine or service crate
//! links this one (CI checks `cargo tree -e normal`).
//!
//! * [`relational`] — native relations, the Figure 2 data and
//!   generators, and the independent oracles the `paper_*` tests compare
//!   the engine against (`nested_loop_join`, `native_cost`, the naive
//!   and semi-naive closures);
//! * [`oodb`] — §5's person objects, Figure 8 views, the class algebra
//!   and dynamic views over external data;
//! * [`harness`] — the reference model the crash-recovery and failover
//!   harnesses share;
//! * at the root — pre-wired sessions with the paper's databases bound,
//!   and the Machiavelli sources of the figures.

use generators::{fig2_parts, fig2_supplied_by, fig2_suppliers, gen_part_supplier, PartSupplierDb};
use machiavelli::Session;
use oodb::{gen_university, University, UniversityParams, MACHIAVELLI_VIEWS, PERSON_STORE_TYPE};

pub mod harness;

// The native modules are declared at the crate root, so their items
// refer to each other (and their unit tests are named) without the
// `relational::`/`oodb::` prefix; the two modules below are their
// public faces.
#[path = "relational/closure.rs"]
mod closure;
#[path = "relational/generators.rs"]
mod generators;
#[path = "relational/join.rs"]
mod join;
#[path = "relational/relation.rs"]
mod relation;

#[path = "oodb/classes.rs"]
mod classes;
#[path = "oodb/dynamic.rs"]
mod dynamic;
#[path = "oodb/object.rs"]
mod object;
#[path = "oodb/university.rs"]
mod university;
#[path = "oodb/views.rs"]
mod views;

/// Generalized relations over Machiavelli values (§4), natively: the
/// Figure 2 part–supplier database (literal and scaled), random
/// digraphs, and the oracles the engine is checked against —
/// `nested_loop_join` for the paper's `join`, `native_cost` for Figure
/// 5's `cost`, and the Figure 4 closure both naively and semi-naively
/// (each the other's oracle).
pub mod relational {
    pub use crate::closure::{closure_relation, naive_closure, seminaive_closure};
    pub use crate::generators::{
        chain_edges, edges_to_relation, fig2_parts, fig2_supplied_by, gen_edges, gen_part_supplier,
        native_cost, PartSupplierDb,
    };
    pub use crate::join::nested_loop_join;
    pub use crate::relation::{row, Relation};
}

/// Object-oriented databases (§5): person objects (`ref`s with optional
/// attributes), the Figure 8 views natively and in Machiavelli source,
/// the class algebra (`join` = intersection of extents + union of
/// methods, `unionc` = generalization, identity-based `member`), a
/// scalable generator for the Figure 6 taxonomy, and external untyped
/// databases as sets of `dynamic` values with typed views.
pub mod oodb {
    pub use crate::classes::{class_join, class_member, class_unionc};
    pub use crate::dynamic::{department_shape, dynamic_view, employee_shape, gen_external_db};
    pub use crate::object::{
        make_person, person_field, store_value, PersonSpec, PERSON_STORE_TYPE,
    };
    pub use crate::university::{gen_university, University, UniversityParams};
    pub use crate::views::{employee_view, person_view, student_view, tf_view, MACHIAVELLI_VIEWS};
}

/// Machiavelli type of the Figure 2 `parts` relation.
pub const PARTS_TYPE: &str = "{[Pname: string, P#: int, \
     Pinfo: <BasePart: [Cost: int], \
             CompositePart: [SubParts: {[P#: int, Qty: int]}, AssemCost: int]>]}";

/// Machiavelli type of the Figure 2 `suppliers` relation.
const SUPPLIERS_TYPE: &str = "{[Sname: string, S#: int, City: string]}";

/// Machiavelli type of the Figure 2 `supplied_by` relation.
const SUPPLIED_BY_TYPE: &str = "{[P#: int, Suppliers: {[S#: int]}]}";

/// The Figure 5 `cost` and `expensive_parts` functions (recursive query
/// over the part hierarchy). `cost` references the global `parts`.
pub const FIG5_SOURCE: &str = r#"
fun cost(p) =
  (case p.Pinfo of
     BasePart of x => x.Cost,
     CompositePart of x =>
       x.AssemCost + hom((fn(y) => y.SubpartCost * y.Qty), +, 0,
                         select [SubpartCost = cost(z), Qty = w.Qty]
                         where w <- x.SubParts, z <- parts
                         with z.P# = w.P#));

fun expensive_parts(partdb, n) =
  select x.Pname
  where x <- partdb
  with cost(x) > n;
"#;

/// A genuinely row-polymorphic variant of Figure 5: the part database is
/// a parameter instead of the global `parts`, so the principal scheme
/// keeps its row variables and the function "can be shared by all those
/// databases" as §4 promises. (As written in the paper, `cost` recurses
/// through the global `parts` (`cost(z)` with `z <- parts`), and
/// recursion is monomorphic, so its argument type is pinned to the
/// concrete `parts` row.)
pub const FIG5_POLY_SOURCE: &str = r#"
fun costIn(db, p) =
  (case p.Pinfo of
     BasePart of x => x.Cost,
     CompositePart of x =>
       x.AssemCost + hom((fn(y) => y.SubpartCost * y.Qty), +, 0,
                         select [SubpartCost = costIn(db, z), Qty = w.Qty]
                         where w <- x.SubParts, z <- db
                         with z.P# = w.P#));

fun expensive_parts_in(db, n) =
  select x.Pname
  where x <- db
  with costIn(db, x) > n;
"#;

/// A session with the literal Figure 2 database bound (`parts`,
/// `suppliers`, `supplied_by`) and the prelude loaded.
pub fn fig2_session() -> Session {
    let mut s = Session::new();
    s.bind_external("parts", fig2_parts().into_value(), PARTS_TYPE)
        .expect("parts binds");
    s.bind_external("suppliers", fig2_suppliers().into_value(), SUPPLIERS_TYPE)
        .expect("suppliers binds");
    s.bind_external(
        "supplied_by",
        fig2_supplied_by().into_value(),
        SUPPLIED_BY_TYPE,
    )
    .expect("supplied_by binds");
    s
}

/// A session with a *generated* part–supplier database of the given size.
pub fn scaled_parts_session(
    n_parts: usize,
    n_suppliers: usize,
    seed: u64,
) -> (Session, PartSupplierDb) {
    let db = gen_part_supplier(n_parts, n_suppliers, 0.5, seed);
    let mut s = Session::new();
    s.bind_external("parts", db.parts.clone().into_value(), PARTS_TYPE)
        .expect("parts binds");
    s.bind_external(
        "suppliers",
        db.suppliers.clone().into_value(),
        SUPPLIERS_TYPE,
    )
    .expect("suppliers binds");
    s.bind_external(
        "supplied_by",
        db.supplied_by.clone().into_value(),
        SUPPLIED_BY_TYPE,
    )
    .expect("supplied_by binds");
    (s, db)
}

/// A session with a generated university bound as `persons` and the
/// Figure 8 views defined.
pub fn university_session(params: UniversityParams) -> (Session, University) {
    let uni = gen_university(params);
    let mut s = Session::new();
    s.bind_external("persons", uni.store(), PERSON_STORE_TYPE)
        .expect("persons binds");
    s.run(MACHIAVELLI_VIEWS).expect("Figure 8 views type-check");
    (s, uni)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_session_builds() {
        let mut s = fig2_session();
        let out = s.eval_one("card(parts);").unwrap();
        assert_eq!(out.show(), "val it = 4 : int");
    }

    #[test]
    fn scaled_session_builds() {
        let (mut s, db) = scaled_parts_session(30, 5, 1);
        let out = s.eval_one("card(parts);").unwrap();
        assert_eq!(out.show(), format!("val it = {} : int", db.parts.len()));
    }

    #[test]
    fn university_session_builds() {
        let (mut s, uni) = university_session(UniversityParams {
            n_people: 20,
            ..Default::default()
        });
        let out = s.eval_one("card(PersonView(persons));").unwrap();
        assert_eq!(out.show(), format!("val it = {} : int", uni.objects.len()));
    }
}

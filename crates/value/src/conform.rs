//! Runtime conformance checking of a value against a (closed) type —
//! used by `dynamic(e, δ)` coercions (§5): a dynamic value carries its
//! payload, and coercing it back requires checking the payload actually
//! has type δ.

use crate::value::Value;
use machiavelli_types::ty::unfold_rec;
use machiavelli_types::{Ty, Type};
use std::collections::HashSet;

/// Does `v` conform to (closed) type `ty`?
pub fn conforms(v: &Value, ty: &Ty) -> bool {
    let mut seen_refs = HashSet::new();
    conforms_inner(v, ty, &mut seen_refs, 64)
}

fn conforms_inner(v: &Value, ty: &Ty, seen_refs: &mut HashSet<u64>, fuel: u32) -> bool {
    if fuel == 0 {
        // Depth guard for adversarial cyclic structures: accept, as the
        // structure has matched to substantial depth.
        return true;
    }
    match (&**ty, v) {
        (Type::Rec(..), _) => conforms_inner(v, &unfold_rec(ty), seen_refs, fuel - 1),
        (Type::Unit, Value::Unit)
        | (Type::Int, Value::Int(_))
        | (Type::Bool, Value::Bool(_))
        | (Type::Real, Value::Real(_))
        | (Type::Str, Value::Str(_))
        | (Type::Dynamic, Value::Dynamic(_)) => true,
        (Type::Record(tfs), Value::Record(vfs)) => {
            tfs.len() == vfs.len()
                && tfs.iter().all(|(l, fty)| match vfs.get(l) {
                    Some(fv) => conforms_inner(fv, fty, seen_refs, fuel - 1),
                    None => false,
                })
        }
        (Type::Variant(tfs), Value::Variant(l, p)) => match tfs.get(l) {
            Some(pty) => conforms_inner(p, pty, seen_refs, fuel - 1),
            None => false,
        },
        (Type::Set(ety), Value::Set(items)) => items
            .iter()
            .all(|item| conforms_inner(item, ety, seen_refs, fuel - 1)),
        (Type::Ref(inner), Value::Ref(r)) => {
            if !seen_refs.insert(r.id) {
                // Already being checked (cyclic structure): assume ok.
                return true;
            }
            let content = r.get();
            let ok = conforms_inner(&content, inner, seen_refs, fuel - 1);
            seen_refs.remove(&r.id);
            ok
        }
        // Function types only occur under `ref`; a closure conforms to any
        // arrow (arity/type cannot be checked at runtime).
        (Type::Arrow(..), Value::Closure(_))
        | (Type::Arrow(..), Value::Op(_))
        | (Type::Arrow(..), Value::Builtin(_)) => true,
        // Open positions accept anything (annotations are normally closed).
        (Type::Var(_), _) | (Type::RecVar(_), _) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::RefValue;
    use machiavelli_types::ty::*;

    #[test]
    fn base_conformance() {
        assert!(conforms(&Value::Int(3), &t_int()));
        assert!(!conforms(&Value::Int(3), &t_str()));
    }

    #[test]
    fn record_exact_labels() {
        let ty = t_record([("Name".into(), t_str())]);
        assert!(conforms(
            &Value::record([("Name".into(), Value::str("x"))]),
            &ty
        ));
        // Extra fields do not conform (unique types in Machiavelli).
        assert!(!conforms(
            &Value::record([
                ("Name".into(), Value::str("x")),
                ("Age".into(), Value::Int(1))
            ]),
            &ty
        ));
    }

    #[test]
    fn variant_branch_must_exist() {
        let ty = t_variant([("A".into(), t_int()), ("B".into(), t_str())]);
        assert!(conforms(&Value::variant("A", Value::Int(1)), &ty));
        assert!(!conforms(&Value::variant("C", Value::Int(1)), &ty));
        assert!(!conforms(&Value::variant("A", Value::str("x")), &ty));
    }

    #[test]
    fn set_elements_checked() {
        let ty = t_set(t_int());
        assert!(conforms(&Value::set([Value::Int(1), Value::Int(2)]), &ty));
        assert!(!conforms(&Value::set([Value::str("x")]), &ty));
        assert!(conforms(&Value::set([]), &ty));
    }

    #[test]
    fn ref_contents_checked() {
        let ty = t_ref(t_int());
        assert!(conforms(&Value::Ref(RefValue::new(Value::Int(1))), &ty));
        assert!(!conforms(&Value::Ref(RefValue::new(Value::str("x"))), &ty));
    }

    #[test]
    fn cyclic_refs_terminate() {
        // r := [Self = r] — a cyclic description through a ref.
        let r = RefValue::new(Value::Unit);
        r.set(
            Value::record([("Self".into(), Value::Ref(r.clone()))]),
            &crate::epoch::Unobserved,
        );
        let ty_inner = t_record([("Self".into(), t_ref(t_unit()))]);
        // Not conformant (inner Self: ref(unit) mismatch) but must not hang.
        let _ = conforms(&Value::Ref(r.clone()), &t_ref(ty_inner));
        // Recursive type: rec v . ref([Self: v]) — conforms.
        // Built by hand: Rec(0, Ref(Record{Self: RecVar(0)})).
        let rec_ty: Ty = std::rc::Rc::new(Type::Rec(
            0,
            t_ref(t_record([(
                "Self".into(),
                std::rc::Rc::new(Type::RecVar(0)),
            )])),
        ));
        assert!(conforms(&Value::Ref(r), &rec_ty));
    }
}

//! Person objects: references with optional attributes (§5, Figure 7).
//!
//! ```text
//! PersonObj = ref([Name: string,
//!                  Salary:  <None: unit, Value: int>,
//!                  Advisor: <None: unit, Value: PersonObj>,
//!                  Class:   <None: unit, Value: string>])
//! ```
//!
//! A database is a set of such objects (`{PersonObj}`); the `None`/`Value`
//! variants make the per-role attributes optional, and views (Figure 8)
//! reveal the populated ones.

use machiavelli::value::{RefValue, Value};

/// Machiavelli type of a person-object store, for
/// `Session::bind_external` (the recursion through `Advisor` uses the
/// `rec` binder).
pub const PERSON_STORE_TYPE: &str = "{rec p . ref([Name: string, \
     Salary: <None: unit, Value: int>, \
     Advisor: <None: unit, Value: p>, \
     Class: <None: unit, Value: string>])}";

/// Attribute specification for creating a person object.
#[derive(Debug, Clone, Default)]
pub struct PersonSpec {
    pub name: String,
    pub salary: Option<i64>,
    pub advisor: Option<RefValue>,
    pub class: Option<String>,
}

impl PersonSpec {
    pub fn new(name: impl Into<String>) -> Self {
        PersonSpec {
            name: name.into(),
            ..Default::default()
        }
    }

    pub fn salary(mut self, s: i64) -> Self {
        self.salary = Some(s);
        self
    }

    pub fn advisor(mut self, a: RefValue) -> Self {
        self.advisor = Some(a);
        self
    }

    pub fn class(mut self, c: impl Into<String>) -> Self {
        self.class = Some(c.into());
        self
    }
}

fn optional(v: Option<Value>) -> Value {
    match v {
        Some(v) => Value::variant("Value", v),
        None => Value::variant("None", Value::Unit),
    }
}

/// Allocate a fresh person object.
pub fn make_person(spec: PersonSpec) -> RefValue {
    RefValue::new(Value::record([
        ("Name".into(), Value::str(spec.name)),
        ("Salary".into(), optional(spec.salary.map(Value::Int))),
        ("Advisor".into(), optional(spec.advisor.map(Value::Ref))),
        ("Class".into(), optional(spec.class.map(Value::str))),
    ]))
}

/// Read an attribute of a person object.
pub fn person_field(obj: &RefValue, field: &str) -> Option<Value> {
    match obj.get() {
        Value::Record(fs) => fs.get(field).cloned(),
        _ => None,
    }
}

/// Unwrap a `<None | Value>` optional attribute.
pub fn optional_value(v: &Value) -> Option<Value> {
    match v {
        Value::Variant(tag, payload) if tag == "Value" => Some((**payload).clone()),
        _ => None,
    }
}

/// Build the store value `{PersonObj}` from objects.
pub fn store_value(objects: &[RefValue]) -> Value {
    Value::set(objects.iter().map(|r| Value::Ref(r.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn person_attributes() {
        let p = make_person(PersonSpec::new("Joe").salary(100));
        assert_eq!(person_field(&p, "Name"), Some(Value::str("Joe")));
        let sal = person_field(&p, "Salary").unwrap();
        assert_eq!(optional_value(&sal), Some(Value::Int(100)));
        let adv = person_field(&p, "Advisor").unwrap();
        assert_eq!(optional_value(&adv), None);
    }

    #[test]
    fn advisor_links_share_identity() {
        let prof = make_person(PersonSpec::new("Prof"));
        let student = make_person(PersonSpec::new("Stu").advisor(prof.clone()));
        let adv = optional_value(&person_field(&student, "Advisor").unwrap()).unwrap();
        assert_eq!(adv, Value::Ref(prof));
    }

    #[test]
    fn store_is_a_set_of_distinct_objects() {
        let a = make_person(PersonSpec::new("A"));
        let b = make_person(PersonSpec::new("A")); // same fields, new identity
        let store = store_value(&[a, b]);
        let Value::Set(s) = store else { panic!() };
        assert_eq!(s.len(), 2, "object identity distinguishes equal contents");
    }

    #[test]
    fn mutation_via_ref() {
        let p = make_person(PersonSpec::new("X"));
        let Value::Record(mut fs) = p.get() else {
            panic!()
        };
        fs.insert("Salary".into(), Value::variant("Value", Value::Int(9)));
        p.set(Value::Record(fs));
        let sal = person_field(&p, "Salary").unwrap();
        assert_eq!(optional_value(&sal), Some(Value::Int(9)));
    }
}

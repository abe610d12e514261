//! A scalable university database: the §5 taxonomy (People ⊇ Students,
//! Employees; TeachingFellows = Students ∩ Employees) over person
//! objects, generated deterministically.

use crate::object::{make_person, store_value, PersonSpec};
use machiavelli::value::{RefValue, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct UniversityParams {
    pub n_people: usize,
    /// Probability a person is an employee (has a salary).
    pub p_employee: f64,
    /// Probability a person is a student (has an advisor).
    pub p_student: f64,
    /// Probability a student-employee teaches a class (making them a TF).
    pub p_class_given_both: f64,
    pub seed: u64,
}

impl Default for UniversityParams {
    fn default() -> Self {
        UniversityParams {
            n_people: 100,
            p_employee: 0.5,
            p_student: 0.5,
            p_class_given_both: 0.8,
            seed: 42,
        }
    }
}

/// A generated university database.
pub struct University {
    pub objects: Vec<RefValue>,
    /// Ground-truth role flags, index-aligned with `objects`:
    /// (is_employee, is_student, is_tf).
    pub roles: Vec<(bool, bool, bool)>,
}

impl University {
    /// The `{PersonObj}` store value.
    pub fn store(&self) -> Value {
        store_value(&self.objects)
    }

    pub fn count_employees(&self) -> usize {
        self.roles.iter().filter(|r| r.0).count()
    }

    pub fn count_students(&self) -> usize {
        self.roles.iter().filter(|r| r.1).count()
    }

    pub fn count_tfs(&self) -> usize {
        self.roles.iter().filter(|r| r.2).count()
    }
}

/// Generate a university. The first person is always a plain employee
/// (so advisors exist); advisors are chosen among earlier employees when
/// possible, else any earlier person.
pub fn gen_university(params: UniversityParams) -> University {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut objects: Vec<RefValue> = Vec::with_capacity(params.n_people);
    let mut roles = Vec::with_capacity(params.n_people);
    let mut employees: Vec<usize> = Vec::new();
    for i in 0..params.n_people {
        let is_employee = i == 0 || rng.gen_bool(params.p_employee);
        let is_student = i != 0 && rng.gen_bool(params.p_student) && !objects.is_empty();
        let is_tf = is_employee && is_student && rng.gen_bool(params.p_class_given_both);
        let mut spec = PersonSpec::new(format!("person{i}"));
        if is_employee {
            spec = spec.salary(rng.gen_range(10_000..200_000));
        }
        if is_student {
            let advisor_idx = if employees.is_empty() {
                rng.gen_range(0..objects.len())
            } else {
                employees[rng.gen_range(0..employees.len())]
            };
            spec = spec.advisor(objects[advisor_idx].clone());
        }
        if is_tf {
            spec = spec.class(format!("CS{}", rng.gen_range(100..600)));
        }
        let obj = make_person(spec);
        if is_employee {
            employees.push(i);
        }
        objects.push(obj);
        roles.push((is_employee, is_student, is_tf));
    }
    University { objects, roles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::{employee_view, person_view, student_view, tf_view};

    #[test]
    fn generation_is_deterministic() {
        let a = gen_university(UniversityParams::default());
        let b = gen_university(UniversityParams::default());
        assert_eq!(a.roles, b.roles);
        assert_eq!(a.count_employees(), b.count_employees());
    }

    #[test]
    fn views_match_ground_truth() {
        let u = gen_university(UniversityParams {
            n_people: 200,
            ..Default::default()
        });
        let store = u.store();
        assert_eq!(person_view(&store).len(), 200);
        assert_eq!(employee_view(&store).len(), u.count_employees());
        assert_eq!(student_view(&store).len(), u.count_students());
        assert_eq!(tf_view(&store).len(), u.count_tfs());
    }

    #[test]
    fn taxonomy_inclusions_hold() {
        let u = gen_university(UniversityParams {
            n_people: 150,
            seed: 7,
            ..Default::default()
        });
        let store = u.store();
        let people = person_view(&store);
        let employees = employee_view(&store).project(&["Name", "Id"]);
        let students = student_view(&store).project(&["Name", "Id"]);
        let tfs = tf_view(&store).project(&["Name", "Id"]);
        for r in employees.iter().chain(students.iter()).chain(tfs.iter()) {
            assert!(people.rows().contains(r));
        }
    }

    #[test]
    fn tfs_are_both_students_and_employees() {
        let u = gen_university(UniversityParams {
            n_people: 300,
            seed: 9,
            ..Default::default()
        });
        for &(e, s, t) in &u.roles {
            if t {
                assert!(e && s);
            }
        }
    }
}

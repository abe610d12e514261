//! The five workloads: paper-shaped data rendered to Machiavelli source,
//! seeded request streams, and the reply each request must get.
//!
//! Everything here is a pure function of `--seed`; `machid` sees only the
//! generated request lines. Data follows the paper: Fig. 2 `parts`
//! (with the `BasePart`/`CompositePart` variant), `suppliers` and
//! `supplied_by`, plus an `emp` relation whose `Sal` field is a `ref(int)`
//! in the style of the Fig. 6–7 objects.

use machiavelli_server::wire::unescape_line;
use std::sync::Arc;

pub const NAMES: [&str; 5] = [
    "point_hot",
    "scan_join_cold",
    "durable_write",
    "mixed_rw",
    "durable_write_follower",
];

/// Rows per `EVAL` when loading: a 2000-row chunk of the widest relation is
/// ~250 KiB, well inside the 1 MiB request-line cap.
const CHUNK_ROWS: usize = 2000;
const HOT_PARTS: usize = 2000;
const SUPPLIERS: usize = 200;
const COLD_ROWS: usize = 20_000;
const EMP_ROWS: usize = 2000;
const BATCH_ROWS: usize = 50;
/// Distinct queries per kind on `scan_join_cold`. The workload is cold
/// because the relations are ~5x the index budget, not because texts are
/// unique, so a small pool lets every reply be checked against an answer
/// the oracle session computed before the window.
const POOL_PER_KIND: usize = 16;
/// Rows a full-result scan returns (the issue asks for at least 1000).
const FULL_SCAN_ROWS: usize = 1200;
/// `durable_write` checkpoints after this many commits per session, so
/// checkpoints are 1 request in 11: the 95th percentile then sits inside
/// the checkpoint population and the median stays a plain commit. At the
/// 1-in-201 cadence the issue first proposed no percentile the window
/// supports would ever see a checkpoint.
const SAVE_EVERY_COMMITS: u64 = 10;
/// `mixed_rw` checkpoints this rarely only to keep the log, and so the
/// restart at the end, bounded whatever the throughput.
const MIXED_SAVE_EVERY: u64 = 200;

/// splitmix64: the harness-local generator behind every seeded choice.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    PointHot,
    ScanJoinCold,
    DurableWrite,
    MixedRw,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// `machid` runs with `MACHID_DURABLE_ROOT`.
    pub durable: bool,
    /// A second `machid` with `MACHID_ROLE=follower` pulls the primary's WAL.
    pub follower: bool,
    /// Row budget of the index store and of the shared tier, for `machid`
    /// and the twins; `None` leaves the defaults.
    pub cache_budget_rows: Option<usize>,
    /// Requests of connection 0's stream the traced run replays.
    pub traced_requests: usize,
    kind: Kind,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let (kind, durable, follower, cache_budget_rows, traced_requests) = match name {
            "point_hot" => (Kind::PointHot, false, false, None, 2000),
            "scan_join_cold" => (Kind::ScanJoinCold, false, false, Some(4096), 100),
            "durable_write" => (Kind::DurableWrite, true, false, None, 2000),
            "mixed_rw" => (Kind::MixedRw, true, false, None, 2000),
            "durable_write_follower" => (Kind::DurableWrite, true, true, None, 2000),
            _ => return None,
        };
        let name = NAMES.iter().find(|n| **n == name)?;
        Some(Workload {
            name,
            durable,
            follower,
            cache_budget_rows,
            traced_requests,
            kind,
        })
    }

    /// The sources that load a session, ending with the first query: every
    /// connection sends the same script to its own session.
    pub fn load_script(&self, seed: u64) -> Vec<String> {
        let data = Data::generate(self.kind, seed);
        let mut script = Vec::new();
        match self.kind {
            Kind::PointHot => {
                script.extend(relation_chunks("parts", &data.parts));
                script.extend(relation_chunks("suppliers", &data.suppliers));
                script.push(parts_lookup(0, 1).0);
                script.push(supplier_lookup(0, &data.supplier_city).0);
            }
            Kind::ScanJoinCold => {
                script.extend(relation_chunks("parts", &data.parts));
                script.extend(relation_chunks("supplied_by", &data.supplied_by));
                script.push("card(parts) + card(supplied_by);".to_string());
            }
            Kind::DurableWrite | Kind::MixedRw => {
                script.extend(relation_chunks("emp", &data.emp));
                script.push(emp_read(0, 1, &data.emp_sal).0);
            }
        }
        script
    }

    /// The distinct query texts whose answers come from the oracle session
    /// (`scan_join_cold` only): filter scans, then joins, then full scans.
    pub fn pool(&self, seed: u64) -> Vec<String> {
        if self.kind != Kind::ScanJoinCold {
            return Vec::new();
        }
        let mut rng = Rng::new(seed ^ 0x706f_6f6c);
        // One constant per equal slice of each range, so that every seed's
        // pool spans the same selectivities and only differs within slices.
        let mut stratified = |i: usize, lo: usize, hi: usize| {
            let slice = (hi - lo) / POOL_PER_KIND;
            lo + i * slice + rng.below(slice)
        };
        let mut pool = Vec::with_capacity(3 * POOL_PER_KIND);
        for i in 0..POOL_PER_KIND {
            let t = stratified(i, 100, 900);
            // Fig. 3 shape: a filter over the variant-typed relation.
            pool.push(format!(
                "card(select x.P# where x <- parts with (case x.Pinfo of \
                 BasePart of b => b.Cost > {t}, CompositePart of c => c.AssemCost > {t}));"
            ));
        }
        for i in 0..POOL_PER_KIND {
            let t = stratified(i, 0, COLD_ROWS * 3 / 4);
            // Fig. 9 shape: a two-way equi-join.
            pool.push(format!(
                "card(select [P = x.P#, S = y.Suppliers] where x <- parts, y <- supplied_by \
                 with x.P# = y.P# andalso x.P# >= {t});"
            ));
        }
        for i in 0..POOL_PER_KIND {
            let t = stratified(i, 0, COLD_ROWS - FULL_SCAN_ROWS);
            pool.push(format!(
                "select [P# = x.P#, Pname = x.Pname] where x <- parts \
                 with x.P# >= {t} andalso x.P# < {};",
                t + FULL_SCAN_ROWS
            ));
        }
        pool
    }

    /// The request stream of connection `conn`. `pool_answers` pairs each
    /// [`Workload::pool`] text with the payload the oracle session gave it.
    pub fn stream(&self, seed: u64, conn: usize, pool_answers: Arc<Vec<PoolEntry>>) -> Stream {
        let data = Data::generate(self.kind, seed);
        Stream {
            kind: self.kind,
            rng: Rng::new(seed ^ (conn as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            supplier_city: data.supplier_city,
            sal: data.emp_sal,
            batch_seq: None,
            issued: 0,
            commits_since_save: 0,
            pool: pool_answers,
        }
    }
}

/// One pool query and its expected `VAL` payload.
pub struct PoolEntry {
    pub src: Arc<str>,
    pub expect: Arc<str>,
}

#[derive(Debug, Clone)]
pub enum Op {
    Eval(Arc<str>),
    /// The wire `SAVE` verb: checkpoint the session.
    Save,
}

#[derive(Debug, Clone)]
pub struct Request {
    pub op: Op,
    /// The unescaped `VAL` payload an `Eval` must get; unused for `Save`.
    pub expect: Arc<str>,
}

impl Request {
    fn eval((src, expect): (String, String)) -> Request {
        Request {
            op: Op::Eval(src.into()),
            expect: expect.into(),
        }
    }

    pub fn wire_line(&self, sid: u64) -> String {
        match &self.op {
            Op::Eval(src) => format!("EVAL {sid} {src}\n"),
            Op::Save => format!("SAVE {sid}\n"),
        }
    }

    /// Is `reply` (one response line, newline stripped) the right answer?
    pub fn accepts(&self, reply: &str) -> bool {
        match &self.op {
            Op::Eval(_) => reply
                .strip_prefix("VAL ")
                .is_some_and(|payload| unescape_line(payload) == *self.expect),
            Op::Save => reply.starts_with("OK saved "),
        }
    }

    /// Source bytes the user sent to be evaluated.
    pub fn user_bytes(&self) -> u64 {
        match &self.op {
            Op::Eval(src) => src.len() as u64,
            Op::Save => 0,
        }
    }
}

/// A connection's request generator and the model of what its session must
/// hold, advanced as requests are issued (the loop is closed, and no
/// operation of these workloads fails).
pub struct Stream {
    kind: Kind,
    rng: Rng,
    supplier_city: Vec<usize>,
    sal: Vec<i64>,
    batch_seq: Option<u64>,
    issued: u64,
    commits_since_save: u64,
    pool: Arc<Vec<PoolEntry>>,
}

impl Stream {
    pub fn next_request(&mut self) -> Request {
        self.issued += 1;
        match self.kind {
            Kind::PointHot => {
                // Fig. 9 shape: a literal key set joined to the relation,
                // served by a cached-index probe.
                if self.rng.below(4) < 3 {
                    let (a, b) = (self.rng.below(HOT_PARTS), self.rng.below(HOT_PARTS));
                    Request::eval(parts_lookup(a, b))
                } else {
                    let s = self.rng.below(SUPPLIERS);
                    Request::eval(supplier_lookup(s, &self.supplier_city))
                }
            }
            Kind::ScanJoinCold => {
                // 40 % filter scans, 40 % joins, 20 % full-result scans.
                let kind = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2][self.rng.below(10)];
                let entry = &self.pool[kind * POOL_PER_KIND + self.rng.below(POOL_PER_KIND)];
                Request {
                    op: Op::Eval(entry.src.clone()),
                    expect: entry.expect.clone(),
                }
            }
            Kind::DurableWrite => {
                if self.commits_since_save == SAVE_EVERY_COMMITS {
                    self.commits_since_save = 0;
                    return self.save();
                }
                self.commits_since_save += 1;
                if self.rng.below(5) == 0 {
                    self.batch_seq = Some(self.issued);
                    Request::eval(batch_rebind(self.issued))
                } else {
                    self.salary_update()
                }
            }
            Kind::MixedRw => {
                if self.issued.is_multiple_of(MIXED_SAVE_EVERY + 1) {
                    return self.save();
                }
                if self.rng.below(5) == 0 {
                    self.salary_update()
                } else {
                    let (a, b) = (self.rng.below(EMP_ROWS), self.rng.below(EMP_ROWS));
                    Request::eval(emp_read(a, b, &self.sal))
                }
            }
        }
    }

    fn save(&self) -> Request {
        Request {
            op: Op::Save,
            expect: "".into(),
        }
    }

    fn salary_update(&mut self) -> Request {
        let k = self.rng.below(EMP_ROWS);
        let d = 1 + self.rng.below(9) as i64;
        self.sal[k] += d;
        Request::eval((
            format!("select (x.Sal := !(x.Sal) + {d}) where x <- emp with x.K = {k};"),
            "val it = {()} : {unit}".to_string(),
        ))
    }

    /// What the session must answer after a crash and restart if every
    /// acknowledged write survived: every salary is its initial value plus
    /// the acknowledged deltas, and `batch` resolves to the last rebind.
    pub fn readback(&self) -> Vec<Request> {
        let mut checks = Vec::new();
        if matches!(self.kind, Kind::DurableWrite | Kind::MixedRw) {
            let rows: Vec<String> = self
                .sal
                .iter()
                .enumerate()
                .map(|(k, s)| format!("[K={k}, S={s}]"))
                .collect();
            checks.push(Request::eval((
                "select [K = x.K, S = !(x.Sal)] where x <- emp with true;".to_string(),
                format!("val it = {{{}}} : {{[K:int,S:int]}}", rows.join(", ")),
            )));
        }
        if let Some(seq) = self.batch_seq {
            checks.push(Request::eval((
                "select x.Seq where x <- batch with x.I = 0;".to_string(),
                format!("val it = {{{seq}}} : {{int}}"),
            )));
        }
        checks
    }
}

fn parts_lookup(a: usize, b: usize) -> (String, String) {
    let (lo, hi) = (a.min(b), a.max(b));
    let mut rows = vec![format!("[P#={lo}, Pname=\"part{lo}\"]")];
    if hi != lo {
        rows.push(format!("[P#={hi}, Pname=\"part{hi}\"]"));
    }
    (
        format!(
            "select [Pname = x.Pname, P# = x.P#] where y <- {{[P# = {a}], [P# = {b}]}}, \
             x <- parts with x.P# = y.P#;"
        ),
        format!(
            "val it = {{{}}} : {{[P#:int,Pname:string]}}",
            rows.join(", ")
        ),
    )
}

fn supplier_lookup(s: usize, city: &[usize]) -> (String, String) {
    (
        format!(
            "select [Sname = x.Sname, City = x.City] where y <- {{[S# = {s}]}}, \
             x <- suppliers with x.S# = y.S#;"
        ),
        format!(
            "val it = {{[City=\"c{}\", Sname=\"s{s}\"]}} : {{[City:string,Sname:string]}}",
            city[s]
        ),
    )
}

fn emp_read(a: usize, b: usize, sal: &[i64]) -> (String, String) {
    let (lo, hi) = (sal[a].min(sal[b]), sal[a].max(sal[b]));
    let set = if lo == hi {
        format!("{lo}")
    } else {
        format!("{lo}, {hi}")
    };
    (
        format!("select !(x.Sal) where y <- {{[K = {a}], [K = {b}]}}, x <- emp with x.K = y.K;"),
        format!("val it = {{{set}}} : {{int}}"),
    )
}

fn batch_rebind(seq: u64) -> (String, String) {
    let rows: Vec<String> = (0..BATCH_ROWS)
        .map(|i| format!("[I={i}, Seq={seq}]"))
        .collect();
    let set = rows.join(", ");
    (
        format!("val batch = {{{set}}};"),
        format!("val batch = {{{set}}} : {{[I:int,Seq:int]}}"),
    )
}

/// `val name = {chunk};` then `val name = union(name, {chunk});` per chunk.
fn relation_chunks(name: &str, rows: &[String]) -> Vec<String> {
    rows.chunks(CHUNK_ROWS)
        .enumerate()
        .map(|(i, chunk)| {
            let set = chunk.join(",");
            if i == 0 {
                format!("val {name} = {{{set}}};")
            } else {
                format!("val {name} = union({name}, {{{set}}});")
            }
        })
        .collect()
}

/// The generated relations as row literals, and the columns the closed-form
/// expectations need.
struct Data {
    parts: Vec<String>,
    suppliers: Vec<String>,
    supplier_city: Vec<usize>,
    supplied_by: Vec<String>,
    emp: Vec<String>,
    emp_sal: Vec<i64>,
}

impl Data {
    fn generate(kind: Kind, seed: u64) -> Data {
        let mut rng = Rng::new(seed);
        let (n_parts, n_suppliers, n_supplied, n_emp) = match kind {
            Kind::PointHot => (HOT_PARTS, SUPPLIERS, 0, 0),
            Kind::ScanJoinCold => (COLD_ROWS, 0, COLD_ROWS, 0),
            Kind::DurableWrite | Kind::MixedRw => (0, 0, 0, EMP_ROWS),
        };
        let parts = (0..n_parts)
            .map(|i| {
                let info = if i % 4 == 3 {
                    format!(
                        "(CompositePart of [SubParts={{[P#={},Qty={}],[P#={},Qty={}]}}, \
                         AssemCost={}])",
                        i - 1,
                        1 + rng.below(9),
                        i - 2,
                        1 + rng.below(9),
                        rng.below(1000)
                    )
                } else {
                    format!("(BasePart of [Cost={}])", rng.below(1000))
                };
                format!("[Pname=\"part{i}\", P#={i}, Pinfo={info}]")
            })
            .collect();
        let supplier_city: Vec<usize> = (0..n_suppliers).map(|_| rng.below(20)).collect();
        let suppliers = supplier_city
            .iter()
            .enumerate()
            .map(|(s, city)| format!("[Sname=\"s{s}\", S#={s}, City=\"c{city}\"]"))
            .collect();
        let supplied_by = (0..n_supplied)
            .map(|i| {
                format!(
                    "[P#={i}, Suppliers={{[S#={}],[S#={}]}}]",
                    rng.below(SUPPLIERS),
                    rng.below(SUPPLIERS)
                )
            })
            .collect();
        let emp_sal: Vec<i64> = (0..n_emp).map(|_| 1000 + rng.below(9000) as i64).collect();
        let emp = emp_sal
            .iter()
            .enumerate()
            .map(|(k, sal)| format!("[K={k}, Dept=\"d{}\", Sal=ref({sal})]", k % 20))
            .collect();
        Data {
            parts,
            suppliers,
            supplier_city,
            supplied_by,
            emp,
            emp_sal,
        }
    }
}

//! Seeded input generation. Every input of every workload is a pure
//! function of the `--seed` argument; the engine only ever sees the
//! generated programs and databases.

use dlo_core::{Constant, Database, Program, Relation, Tuple};
use dlo_pops::Trop;
use std::collections::{BTreeMap, HashSet};

/// SplitMix64. The benchmark owns its generator so that its inputs never
/// move when a crate of the repository changes how it draws numbers.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent draws
    /// (graph, query sources, edit plan) made from one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` for `n > 0` (the modulo bias is below 2⁻⁴⁰ for
    /// every bound used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The all-pairs shortest-path program every graph workload runs.
pub const APSP: &str = "T(X, Y) :- E(X, Y) + T(X, Z) * E(Z, Y).";

pub fn apsp_program() -> Program<Trop> {
    dlo_core::parse_program(APSP).expect("the APSP program parses")
}

pub fn int(c: &Constant) -> Option<i64> {
    match c {
        Constant::Int(i) => Some(*i),
        _ => None,
    }
}

/// A weighted digraph on nodes `0..n`, integer weights (so every path
/// cost is an exact `f64`), stored as an ordered edge map.
#[derive(Clone, Debug)]
pub struct Graph {
    pub n: usize,
    pub edges: BTreeMap<(u32, u32), u32>,
}

impl Graph {
    /// `m` distinct non-loop edges drawn uniformly, weights in `1..=max_w`.
    pub fn random(n: usize, m: usize, max_w: u32, rng: &mut Rng) -> Graph {
        assert!(m < n * (n - 1), "more edges than node pairs");
        let mut edges = BTreeMap::new();
        while edges.len() < m {
            let u = rng.below(n as u64) as u32;
            let v = rng.below(n as u64) as u32;
            if u == v || edges.contains_key(&(u, v)) {
                continue;
            }
            edges.insert((u, v), 1 + rng.below(u64::from(max_w)) as u32);
        }
        Graph { n, edges }
    }

    /// The edge relation as the `E` database of [`APSP`].
    pub fn edb(&self) -> Database<Trop> {
        let mut db = Database::new();
        db.insert(
            "E",
            Relation::from_pairs(
                2,
                self.edges
                    .iter()
                    .map(|(&(u, v), &w)| (edge_tuple(u, v), Trop::finite(f64::from(w)))),
            ),
        );
        db
    }

    /// Out-adjacency lists.
    pub fn adjacency(&self) -> Vec<Vec<(u32, u32)>> {
        let mut adj = vec![vec![]; self.n];
        for (&(u, v), &w) in &self.edges {
            adj[u as usize].push((v, w));
        }
        adj
    }
}

pub fn edge_tuple(u: u32, v: u32) -> Tuple {
    vec![Constant::Int(i64::from(u)), Constant::Int(i64::from(v))]
}

/// One generated fact of the wide table: `((a, b, c), (d, weight))`.
pub type Fact = ((i64, i64, i64), (i64, u32));

/// The arity-4 wide lookup: a table `F(A, B, C, D)` of `rows` facts
/// with distinct `(A, B, C)`, probed through two wide masks —
///
/// ```text
/// Out1(A, D) :- S(A, B, C)     * F(A, B, C, D).
/// Out2(A)    :- S4(A, B, C, D) * F(A, B, C, D).
/// ```
///
/// `S` holds the `(A, B, C)` of `probes` facts and `S4` a strided sample
/// of `probes` full rows, all at value 1.
pub struct Wide {
    pub program: Program<Trop>,
    pub edb: Database<Trop>,
    /// The generated facts, for the oracle.
    pub facts: Vec<Fact>,
    pub s: Vec<(i64, i64, i64)>,
    pub s4: Vec<(i64, i64, i64, i64)>,
}

pub const WIDE: &str = "Out1(A, D) :- S(A, B, C) * F(A, B, C, D).\n\
                        Out2(A) :- S4(A, B, C, D) * F(A, B, C, D).";

pub fn wide(rows: usize, probes: usize, rng: &mut Rng) -> Wide {
    let domain = (rows as f64).cbrt() as u64 * 2 + 2;
    let mut seen = HashSet::with_capacity(rows);
    let mut facts = Vec::with_capacity(rows);
    while facts.len() < rows {
        let a = rng.below(domain) as i64;
        let b = rng.below(domain) as i64;
        let c = rng.below(domain) as i64;
        if !seen.insert((a, b, c)) {
            continue;
        }
        let d = rng.below(domain) as i64;
        facts.push(((a, b, c), (d, 1 + rng.below(9) as u32)));
    }
    let s: Vec<_> = facts.iter().take(probes).map(|&(abc, _)| abc).collect();
    let s4: Vec<_> = facts
        .iter()
        .step_by((rows / probes).max(1))
        .take(probes)
        .map(|&((a, b, c), (d, _))| (a, b, c, d))
        .collect();
    let ints = |xs: &[i64]| -> Tuple { xs.iter().map(|&x| Constant::Int(x)).collect() };
    let one = || Trop::finite(1.0);
    let mut edb = Database::new();
    edb.insert(
        "F",
        Relation::from_pairs(
            4,
            facts
                .iter()
                .map(|&((a, b, c), (d, w))| (ints(&[a, b, c, d]), Trop::finite(f64::from(w)))),
        ),
    );
    edb.insert(
        "S",
        Relation::from_pairs(3, s.iter().map(|&(a, b, c)| (ints(&[a, b, c]), one()))),
    );
    edb.insert(
        "S4",
        Relation::from_pairs(
            4,
            s4.iter().map(|&(a, b, c, d)| (ints(&[a, b, c, d]), one())),
        ),
    );
    Wide {
        program: dlo_core::parse_program(WIDE).expect("the wide lookup program parses"),
        edb,
        facts,
        s,
        s4,
    }
}

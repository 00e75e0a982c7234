//! Correctness oracles, computed without the engine: Dijkstra for the
//! shortest-path workloads, a direct table lookup for the wide one.
//! A check returns `Err` with the first disagreement it finds.

use crate::inputs::{int, Wide};
use dlo_core::{Constant, Database, Relation};
use dlo_pops::Trop;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

pub const UNREACHED: u64 = u64::MAX;

/// Shortest distances from `s` (0 at `s` itself).
pub fn dijkstra(adj: &[Vec<(u32, u32)>], s: usize) -> Vec<u64> {
    let mut dist = vec![UNREACHED; adj.len()];
    dist[s] = 0;
    let mut heap = BinaryHeap::from([Reverse((0u64, s))]);
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &(v, w) in &adj[u] {
            let nd = d + u64::from(w);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v as usize)));
            }
        }
    }
    dist
}

/// Row `s` of the APSP closure `T`: the cheapest path of **one or more**
/// edges from `s` to each node. Off the diagonal that is Dijkstra's
/// distance; on it, the cheapest cycle through `s`.
pub fn closure_row(adj: &[Vec<(u32, u32)>], s: usize) -> Vec<u64> {
    let mut row = dijkstra(adj, s);
    let mut cycle = UNREACHED;
    for (u, out) in adj.iter().enumerate() {
        if row[u] == UNREACHED {
            continue;
        }
        for &(v, w) in out {
            if v as usize == s {
                cycle = cycle.min(row[u] + u64::from(w));
            }
        }
    }
    row[s] = cycle;
    row
}

fn reached(row: &[u64]) -> usize {
    row.iter().filter(|&&d| d != UNREACHED).count()
}

fn pair(tuple: &[Constant]) -> Option<(usize, usize)> {
    match tuple {
        [x, y] => Some((int(x)? as usize, int(y)? as usize)),
        _ => None,
    }
}

/// Checks the answers of `?- T(s, Y).` against `row = closure_row(s)`.
pub fn check_row(answers: &Relation<Trop>, s: usize, row: &[u64]) -> Result<(), String> {
    let mut seen = 0;
    for (tuple, v) in answers.support() {
        let (x, y) = pair(tuple).ok_or_else(|| format!("malformed answer {tuple:?}"))?;
        if x != s || y >= row.len() || row[y] == UNREACHED || row[y] as f64 != v.get() {
            return Err(format!(
                "T({x}, {y}) = {} disagrees with the oracle",
                v.get()
            ));
        }
        seen += 1;
    }
    let want = reached(row);
    if seen != want {
        return Err(format!("T({s}, _) has {seen} answers, the oracle {want}"));
    }
    Ok(())
}

/// The whole closure, one [`closure_row`] per source.
pub fn closure(adj: &[Vec<(u32, u32)>]) -> Vec<Vec<u64>> {
    (0..adj.len()).map(|s| closure_row(adj, s)).collect()
}

pub fn closure_rows(closure: &[Vec<u64>]) -> usize {
    closure.iter().map(|row| reached(row)).sum()
}

/// Checks every decoded row of `T` against the all-pairs oracle.
pub fn check_closure(db: &Database<Trop>, closure: &[Vec<u64>]) -> Result<(), String> {
    let t = db.get("T").ok_or("no T relation in the output")?;
    for (tuple, v) in t.support() {
        let (x, y) = pair(tuple).ok_or_else(|| format!("malformed row {tuple:?}"))?;
        let want = closure.get(x).and_then(|row| row.get(y)).copied();
        if want.is_none_or(|d| d == UNREACHED || d as f64 != v.get()) {
            return Err(format!(
                "T({x}, {y}) = {} disagrees with the oracle",
                v.get()
            ));
        }
    }
    let (got, want) = (t.support_size(), closure_rows(closure));
    if got != want {
        return Err(format!("T has {got} rows, the oracle {want}"));
    }
    Ok(())
}

/// The expected `Out1` and `Out2` of the wide lookup, by direct lookup
/// in the generated facts: each probe row adds its value 1 to the one
/// fact it matches.
pub struct WideAnswers {
    out1: BTreeMap<(i64, i64), u32>,
    out2: BTreeMap<i64, u32>,
}

impl WideAnswers {
    pub fn new(w: &Wide) -> WideAnswers {
        let by_abc: HashMap<_, _> = w.facts.iter().copied().collect();
        let mut out1 = BTreeMap::new();
        for abc in &w.s {
            let (d, wt) = by_abc[abc];
            let e = out1.entry((abc.0, d)).or_insert(u32::MAX);
            *e = (*e).min(1 + wt);
        }
        let mut out2 = BTreeMap::new();
        for &(a, b, c, d) in &w.s4 {
            if let Some(&(fd, wt)) = by_abc.get(&(a, b, c)) {
                if fd == d {
                    let e = out2.entry(a).or_insert(u32::MAX);
                    *e = (*e).min(1 + wt);
                }
            }
        }
        WideAnswers { out1, out2 }
    }

    pub fn rows(&self) -> usize {
        self.out1.len() + self.out2.len()
    }

    pub fn check(&self, db: &Database<Trop>) -> Result<(), String> {
        let out1 = db.get("Out1").ok_or("no Out1 relation in the output")?;
        for (tuple, v) in out1.support() {
            let key = pair(tuple).map(|(a, d)| (a as i64, d as i64));
            let want = key.and_then(|k| self.out1.get(&k));
            if want.is_none_or(|&w| f64::from(w) != v.get()) {
                return Err(format!(
                    "Out1{tuple:?} = {} disagrees with the facts",
                    v.get()
                ));
            }
        }
        let out2 = db.get("Out2").ok_or("no Out2 relation in the output")?;
        for (tuple, v) in out2.support() {
            let want = tuple.first().and_then(int).and_then(|a| self.out2.get(&a));
            if tuple.len() != 1 || want.is_none_or(|&w| f64::from(w) != v.get()) {
                return Err(format!(
                    "Out2{tuple:?} = {} disagrees with the facts",
                    v.get()
                ));
            }
        }
        if out1.support_size() != self.out1.len() || out2.support_size() != self.out2.len() {
            return Err(format!(
                "Out1/Out2 have {}/{} rows, the facts give {}/{}",
                out1.support_size(),
                out2.support_size(),
                self.out1.len(),
                self.out2.len()
            ));
        }
        Ok(())
    }
}

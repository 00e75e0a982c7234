//! Smoke-sized runs of every workload, and checks that the oracles
//! reject wrong answers, so neither the harness nor an oracle can rot
//! unnoticed. Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use crate::inputs::{apsp_program, edge_tuple, wide, Graph, Rng};
use crate::oracle::{check_closure, check_row, closure, closure_row, WideAnswers};
use crate::workloads::NAMES;
use crate::{run, Args, END_TO_END, PER_LAYER};
use dlo_core::{BoolDatabase, Constant, Database, Relation, DEFAULT_CAP};
use dlo_engine::{engine_eval, Strategy};
use dlo_pops::Trop;

fn smoke(workload: &str, trace: bool) -> crate::RunResult {
    let args = Args {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.2,
        trace,
        smoke: true,
    };
    run(&args).expect("the smoke run completes")
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_no_failure() {
    for &w in NAMES {
        let r = smoke(w, false);
        assert_eq!(r.failed, 0, "{w}");
        assert!(r.attempted > 1, "{w}");
        let names: Vec<&str> = r.metrics.0.iter().map(|(n, _, _)| n.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, want, "{w}");
        assert!(r.metrics.0.iter().all(|&(_, v, _)| v > 0.0), "{w}");
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_when_traced() {
    for &w in NAMES {
        let r = smoke(w, true);
        assert_eq!(r.failed, 0, "{w}");
        let names: Vec<&str> = r.metrics.0.iter().map(|(n, _, _)| n.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, want, "{w}");
        assert!(r.metrics.get("exec.emits").unwrap() > 0.0, "{w}");
        assert_eq!(r.metrics.get("par.threads").unwrap().fract(), 0.0, "{w}");
    }
    let layer = |w: &str, m: &str| smoke(w, true).metrics.get(m).unwrap();
    assert!(layer("point_queries", "demand.rewrite_ms") > 0.0);
    assert_eq!(layer("closure_batch", "demand.rewrite_ms"), 0.0);
    assert!(layer("live_view", "incremental.delete_emits") > 0.0);
    assert!(layer("wide_ingest", "arrange.merge_join_steps") > 0.0);
}

#[test]
fn work_counters_repeat_exactly_for_a_seed() {
    for &w in NAMES {
        let (a, b) = (smoke(w, true), smoke(w, true));
        for name in crate::harness::COUNTERS
            .iter()
            .filter(|n| a.metrics.get(n).is_some())
        {
            assert_eq!(a.metrics.get(name), b.metrics.get(name), "{w} {name}");
        }
    }
}

#[test]
fn benchmark_json_names_the_metrics_and_workloads_this_binary_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let named = |n: &str| json.contains(&format!("\"name\": \"{n}\""));
    for &(n, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(named(n), "{n} missing from BENCHMARK.json");
        assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
    // point_queries runs but is not gated: see README.md, "Noise".
    let gated: Vec<&str> = NAMES
        .iter()
        .copied()
        .filter(|&w| w != "point_queries")
        .collect();
    for &w in &gated {
        assert!(named(w), "workload {w} missing from BENCHMARK.json");
    }
    let count = json.matches("\"name\": ").count();
    assert_eq!(count, END_TO_END.len() + PER_LAYER.len() + gated.len());
}

fn small_graph() -> Graph {
    Graph::random(30, 60, 9, &mut Rng::new(3, 1))
}

fn engine_closure(g: &Graph) -> Database<Trop> {
    engine_eval(
        &apsp_program(),
        &g.edb(),
        &BoolDatabase::new(),
        DEFAULT_CAP,
        Strategy::Auto,
    )
    .expect("evaluates")
    .unwrap()
}

#[test]
fn closure_oracle_accepts_the_engine_and_rejects_a_changed_row() {
    let g = small_graph();
    let all = closure(&g.adjacency());
    let mut db = engine_closure(&g);
    check_closure(&db, &all).expect("the engine agrees with Dijkstra");
    let t = db.get("T").unwrap();
    let (tuple, v) = t.support().next().map(|(t, v)| (t.clone(), *v)).unwrap();
    let mut changed = t.clone();
    changed.set(tuple.clone(), Trop::finite(v.get() + 1.0));
    db.insert("T", changed);
    assert!(check_closure(&db, &all).is_err());
    let mut dropped = Relation::new(2);
    for (k, v) in db.get("T").unwrap().support().filter(|(k, _)| **k != tuple) {
        dropped.set(k.clone(), *v);
    }
    db.insert("T", dropped);
    assert!(check_closure(&db, &all).is_err());
}

#[test]
fn row_oracle_rejects_a_missing_or_foreign_answer() {
    let g = small_graph();
    let adj = g.adjacency();
    let db = engine_closure(&g);
    let s = (0..g.n)
        .find(|&s| closure_row(&adj, s).iter().any(|&d| d != u64::MAX))
        .unwrap();
    let row = closure_row(&adj, s);
    let answers = |keep: &dyn Fn(&[Constant]) -> bool| {
        let mut r = Relation::new(2);
        for (k, v) in db.get("T").unwrap().support().filter(|(k, _)| keep(k)) {
            r.set(k.clone(), *v);
        }
        r
    };
    let src = Constant::Int(s as i64);
    check_row(&answers(&|k| k[0] == src), s, &row).expect("the engine agrees with Dijkstra");
    let first = answers(&|k| k[0] == src)
        .support()
        .next()
        .unwrap()
        .0
        .clone();
    assert!(check_row(&answers(&|k| k[0] == src && *k != first[..]), s, &row).is_err());
    let mut foreign = answers(&|k| k[0] == src);
    foreign.set(edge_tuple(s as u32 + 1, 0), Trop::finite(1.0));
    assert!(check_row(&foreign, s, &row).is_err());
}

#[test]
fn wide_oracle_rejects_a_changed_value() {
    let w = wide(500, 20, &mut Rng::new(5, 2));
    let want = WideAnswers::new(&w);
    let mut db = engine_eval(
        &w.program,
        &w.edb,
        &BoolDatabase::new(),
        DEFAULT_CAP,
        Strategy::Auto,
    )
    .expect("evaluates")
    .unwrap();
    want.check(&db).expect("the engine agrees with the facts");
    let out1 = db.get("Out1").unwrap();
    let (k, v) = out1.support().next().map(|(k, v)| (k.clone(), *v)).unwrap();
    let mut changed = out1.clone();
    changed.set(k, Trop::finite(v.get() + 1.0));
    db.insert("Out1", changed);
    assert!(want.check(&db).is_err());
}

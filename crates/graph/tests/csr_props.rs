//! The two graph build paths that skip work must build exactly what the
//! full paths build: `Csr::with_edges_added` equals `Csr::from_edges` of
//! the concatenated edge list, and `DiGraph`'s on-first-use transpose
//! equals `out_csr().transposed()`, once, whichever thread asks first.

use hipa_graph::gen::{cycle, erdos_renyi, star};
use hipa_graph::{datasets::small_test_graph, Csr, DiGraph, Edge, EdgeList};
use proptest::prelude::*;

/// A base edge list with `n` vertices, plus an unsorted batch of up to 50
/// new edges. Endpoints are drawn from a small pool that always includes
/// vertex 0 and vertex n−1, so batches repeat edges, repeat old edges, add
/// self-loops and hit vertices with no out-edges.
fn base_and_batch() -> impl Strategy<Value = (EdgeList, Vec<(u32, u32)>)> {
    (1usize..120)
        .prop_flat_map(|n| {
            let v = 0..n as u32;
            // (kind, v): kind 0 picks vertex 0, kind 1 vertex n−1, else v.
            let hot = (0u32..4, v.clone());
            (
                Just(n),
                prop::collection::vec((v.clone(), v), 0..300),
                prop::collection::vec((hot.clone(), hot), 0..=50),
            )
        })
        .prop_map(|(n, base, batch)| {
            let pick = |(kind, v): (u32, u32)| match kind {
                0 => 0,
                1 => n as u32 - 1,
                _ => v,
            };
            let edges = base.into_iter().map(|(s, d)| Edge::new(s, d)).collect();
            let batch = batch.into_iter().map(|(s, d)| (pick(s), pick(d))).collect();
            (EdgeList::new(n, edges), batch)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn with_edges_added_equals_a_fresh_build(case in base_and_batch()) {
        let (base, batch) = case;
        let n = base.num_vertices();
        let mut all = base.edges().to_vec();
        all.extend(batch.iter().map(|&(s, d)| Edge::new(s, d)));
        let want = Csr::from_edges(n, &all);
        let got = Csr::from_edge_list(&base).with_edges_added(&batch);
        prop_assert_eq!(&got, &want);
        // Applying the batch in two halves is the same as in one.
        let (a, b) = batch.split_at(batch.len() / 2);
        let twice = Csr::from_edge_list(&base).with_edges_added(a).with_edges_added(b);
        prop_assert_eq!(twice, want);
    }
}

#[test]
fn with_edges_added_handles_empty_batches_and_graphs() {
    let csr = Csr::from_edge_list(&cycle(5));
    assert_eq!(csr.with_edges_added(&[]), csr);
    let empty = Csr::from_edges(0, &[]);
    assert_eq!(empty.with_edges_added(&[]), empty);
    let isolated = Csr::from_edges(3, &[]);
    let want = Csr::from_edges(3, &[Edge::new(2, 2), Edge::new(2, 0)]);
    assert_eq!(isolated.with_edges_added(&[(2, 2), (2, 0)]), want);
}

#[test]
#[should_panic(expected = "out of range")]
fn with_edges_added_rejects_out_of_range_endpoints() {
    Csr::from_edge_list(&cycle(4)).with_edges_added(&[(1, 4)]);
}

fn corpus() -> Vec<DiGraph> {
    vec![
        small_test_graph(31),
        small_test_graph(140),
        DiGraph::from_edge_list(&star(48)),
        DiGraph::from_edge_list(&cycle(17)),
        DiGraph::from_edge_list(&erdos_renyi(220, 1600, 9)),
        DiGraph::from_edge_list(&EdgeList::new(0, vec![])),
    ]
}

#[test]
fn lazy_in_csr_equals_the_transpose_and_is_built_once() {
    for g in corpus() {
        let first = g.in_csr();
        assert_eq!(g.in_csr(), &g.out_csr().transposed());
        assert!(std::ptr::eq(first, g.in_csr()), "in_csr() rebuilt its CSR");
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(g.in_degree(v), g.in_csr().degree(v));
        }
        // A clone carries the built transpose along.
        assert_eq!(g.clone().in_csr(), g.in_csr());
    }
}

#[test]
fn racing_first_in_csr_calls_see_one_equal_csr() {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("pool");
    for g in corpus() {
        let want = g.out_csr().transposed();
        let seen: [std::sync::Mutex<Option<&Csr>>; 2] = Default::default();
        pool.scope(|s| {
            for slot in &seen {
                let g = &g;
                s.spawn(move |_| *slot.lock().unwrap() = Some(g.in_csr()));
            }
        });
        let [a, b] = seen.map(|m| m.into_inner().unwrap().expect("job ran"));
        assert!(std::ptr::eq(a, b), "the racing calls got different CSRs");
        assert_eq!(a, &want);
    }
}

//! Seeded property tests for topologies and the communication model.
//! Every property runs `CASES` cases, case `i` drawing from
//! `DetRng::stream(SEED, i)`.

use xsim_core::rng::for_each_case;
use xsim_core::{DetRng, Rank, SimTime};
use xsim_net::{LinkFaultKind, LinkStateTable, NetFault, NetModel, Topology};

const SEED: u64 = 0xC0DE_0002;
const CASES: u64 = 64;

/// Arbitrary `usize` seed, reduced mod a node count in the test body.
fn arb_seed(g: &mut DetRng) -> usize {
    g.next_u64() as usize
}

fn arb_dims(g: &mut DetRng) -> [usize; 3] {
    [(); 3].map(|_| g.gen_in(1..9) as usize)
}

fn arb_topology(g: &mut DetRng) -> Topology {
    match g.gen_in(0..5) {
        0 => Topology::Torus3d { dims: arb_dims(g) },
        1 => Topology::Mesh3d { dims: arb_dims(g) },
        2 => Topology::FullyConnected {
            nodes: g.gen_in(1..257) as usize,
        },
        3 => Topology::Star {
            nodes: g.gen_in(1..257) as usize,
        },
        _ => Topology::Hypercube {
            dim: g.gen_in(0..9) as u32,
        },
    }
}

#[test]
fn hops_symmetric_and_bounded() {
    for_each_case(SEED, CASES, |g| {
        let topo = arb_topology(g);
        let n = topo.nodes();
        let a = arb_seed(g) % n;
        let b = arb_seed(g) % n;
        let ab = topo.hops(a, b);
        assert_eq!(ab, topo.hops(b, a), "symmetry");
        assert_eq!(ab == 0, a == b, "zero iff same node");
        assert!(ab <= topo.diameter(), "within diameter");
    });
}

#[test]
fn torus_triangle_inequality() {
    for_each_case(SEED, CASES, |g| {
        let t = Topology::Torus3d { dims: arb_dims(g) };
        let n = t.nodes();
        let [a, b, c] = [(); 3].map(|_| g.gen_in(0..4096) as usize % n);
        assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
    });
}

#[test]
fn mesh_triangle_inequality() {
    for_each_case(SEED, CASES, |g| {
        let t = Topology::Mesh3d { dims: arb_dims(g) };
        let n = t.nodes();
        let [a, b, c] = [(); 3].map(|_| g.gen_in(0..4096) as usize % n);
        assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
    });
}

#[test]
fn coords_round_trip() {
    for_each_case(SEED, CASES, |g| {
        let dims = arb_dims(g);
        let seed = arb_seed(g);
        for topo in [Topology::Torus3d { dims }, Topology::Mesh3d { dims }] {
            let n = topo.nodes();
            let node = seed % n;
            assert_eq!(topo.node_at(topo.coords(node)), node);
        }
    });
}

#[test]
fn neighbors_are_mutual() {
    for_each_case(SEED, CASES, |g| {
        let t = Topology::Torus3d { dims: arb_dims(g) };
        let n = t.nodes();
        let node = arb_seed(g) % n;
        for nb in t.torus_neighbors(node).into_iter().flatten() {
            let back = t.torus_neighbors(nb);
            assert!(
                back.into_iter().flatten().any(|x| x == node),
                "neighbor relation must be mutual"
            );
        }
    });
}

#[test]
fn p2p_timing_monotone_in_size() {
    for_each_case(SEED, CASES, |g| {
        let bytes_a = g.gen_in(0..10_000_000) as usize;
        let bytes_b = g.gen_in(0..10_000_000) as usize;
        let m = NetModel::paper_machine();
        let (lo, hi) = if bytes_a <= bytes_b {
            (bytes_a, bytes_b)
        } else {
            (bytes_b, bytes_a)
        };
        let t_lo = m.p2p(Rank(0), Rank(1), lo);
        let t_hi = m.p2p(Rank(0), Rank(1), hi);
        assert!(t_lo.transfer <= t_hi.transfer);
        assert_eq!(t_lo.latency, t_hi.latency, "latency independent of size");
    });
}

fn assert_min_latency_is_lower_bound(src: u32, dst: u32, bytes: usize) {
    let m = NetModel::paper_machine();
    let t = m.p2p(Rank(src), Rank(dst), bytes);
    if src != dst {
        // Cross-rank messages respect the conservative lookahead.
        assert!(t.latency >= m.min_latency());
    }
    // Even self-sends (same node, on-node class, lookahead-exempt
    // since they never cross engine shards) have positive latency.
    assert!(t.latency > SimTime::ZERO);
}

#[test]
fn min_latency_is_lower_bound_for_cross_rank() {
    for_each_case(SEED, CASES, |g| {
        let src = g.gen_in(0..32768) as u32;
        let dst = g.gen_in(0..32768) as u32;
        assert_min_latency_is_lower_bound(src, dst, g.gen_in(0..1_000_000) as usize);
    });
}

/// Pinned regression (a past shrunk failure): an empty self-send.
#[test]
fn min_latency_holds_for_empty_self_send() {
    assert_min_latency_is_lower_bound(24198, 24198, 0);
}

// ---------------------------------------------------------------------
// Fault-aware routing properties (link/switch faults on the torus).

fn arb_torus(g: &mut DetRng) -> Topology {
    Topology::Torus3d {
        dims: [(); 3].map(|_| g.gen_in(2..5) as usize),
    }
}

/// Independent connectivity/distance oracle: plain BFS over links the
/// table reports live, with none of the routing code's shortcuts.
fn oracle_dist(tbl: &LinkStateTable, src: usize, dst: usize, t: SimTime) -> Option<u32> {
    let topo = tbl.topology();
    let mut dist = vec![None; topo.nodes()];
    dist[src] = Some(0u32);
    let mut q = std::collections::VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        for v in topo.torus_neighbors(u).into_iter().flatten() {
            if dist[v].is_none() && tbl.link_factor(u, v, t).is_some() {
                dist[v] = Some(dist[u].unwrap() + 1);
                q.push_back(v);
            }
        }
    }
    dist[dst]
}

/// One dead link never partitions a torus (every dimension is a
/// ring): the reroute is finite, at least as long as the fault-free
/// route, and the single-link detour costs at most two extra hops.
#[test]
fn single_dead_link_reroutes_finite_and_no_shorter() {
    for_each_case(SEED, CASES, |g| {
        let topo = arb_torus(g);
        let n = topo.nodes();
        let node = arb_seed(g) % n;
        let dir = g.gen_in(0..6) as usize;
        let (a, b) = (arb_seed(g) % n, arb_seed(g) % n);
        let mut tbl = LinkStateTable::new(topo.clone());
        tbl.add(NetFault {
            node,
            dir: Some(dir),
            kind: LinkFaultKind::Down,
            from: SimTime::ZERO,
            until: None,
        });
        let r = tbl
            .route(a, b, SimTime::ZERO)
            .expect("a single dead link cannot partition a torus");
        let base = topo.hops(a, b);
        assert!(
            r.hops >= base,
            "reroute never shortens: {} < {base}",
            r.hops
        );
        assert!(r.hops <= base + 2, "one-link detour is at most +2 hops");
    });
}

/// Against an independent BFS oracle: whenever the fault set leaves
/// `a` and `b` connected, `route()` finds exactly the minimal live
/// distance (≥ the fault-free hops); whenever it cuts them apart,
/// partition detection fires (`None`) — never a bogus finite route.
#[test]
fn routing_matches_oracle_under_arbitrary_cuts() {
    for_each_case(SEED, CASES, |g| {
        let topo = arb_torus(g);
        let n = topo.nodes();
        let mut tbl = LinkStateTable::new(topo.clone());
        // Up to 7 dead links.
        for _ in 0..g.gen_in(0..8) {
            tbl.add(NetFault {
                node: g.gen_in(0..4096) as usize % n,
                dir: Some(g.gen_in(0..6) as usize),
                kind: LinkFaultKind::Down,
                from: SimTime::ZERO,
                until: None,
            });
        }
        let (a, b) = (arb_seed(g) % n, arb_seed(g) % n);
        let got = tbl.route(a, b, SimTime::ZERO).map(|r| r.hops);
        let want = oracle_dist(&tbl, a, b, SimTime::ZERO);
        assert_eq!(got, want, "route() must agree with the BFS oracle");
        if let Some(h) = got {
            assert!(
                h >= topo.hops(a, b),
                "live route no shorter than fault-free"
            );
        }
    });
}

/// Either grid shape with extents 1..=5: degenerate rings (extent 1
/// wraps onto itself, extent 2 has one link for both directions), odd
/// extents, and even ones with a half-way tie.
fn arb_grid(g: &mut DetRng) -> Topology {
    let dims = [(); 3].map(|_| g.gen_in(1..6) as usize);
    if g.gen_bool() {
        Topology::Torus3d { dims }
    } else {
        Topology::Mesh3d { dims }
    }
}

/// A down, degraded or switch fault, permanent or windowed, with edges
/// on a coarse time grid so that windows overlap and share boundaries.
fn arb_fault(g: &mut DetRng, nodes: usize) -> NetFault {
    let from = 10 * g.gen_in(0..4);
    NetFault {
        node: g.gen_index(nodes),
        dir: (g.gen_in(0..4) > 0).then(|| g.gen_index(6)),
        kind: match g.gen_in(0..3) {
            0 => LinkFaultKind::Degraded(0.25 * g.gen_in(1..4) as f64),
            _ => LinkFaultKind::Down,
        },
        from: SimTime(from),
        until: g.gen_bool().then(|| SimTime(from + 10 * g.gen_in(1..4))),
    }
}

/// The walk and the detour memo are semantically invisible: on random
/// tori *and meshes*, under random down/degraded/switch fault
/// schedules, [`LinkStateTable::route`] equals the plain-BFS
/// [`LinkStateTable::route_uncached`] oracle — hops *and* worst factor
/// — for **every** `(src, dst)` pair at every probe, taken on, just
/// before and just after every epoch boundary (where a stale entry or
/// a mis-compiled step would leak a neighbouring epoch's link state),
/// and the warm (memo-hit) answer equals the cold one.
#[test]
fn route_equals_fresh_bfs_on_all_pairs_across_epochs() {
    let (mut detoured, mut partitioned) = (0u64, 0u64);
    for_each_case(SEED, CASES, |g| {
        let topo = arb_grid(g);
        let n = topo.nodes();
        let faults: Vec<NetFault> = (0..g.gen_in(1..7)).map(|_| arb_fault(g, n)).collect();
        let tbl = LinkStateTable::from_faults(topo.clone(), faults);
        let mut probes = vec![SimTime(g.gen_in(0..80))];
        for e in 1..tbl.epoch_count() {
            let b = tbl.epoch_bound(e - 1);
            probes.push(SimTime(b.0.saturating_sub(1)));
            probes.push(b);
            probes.push(SimTime(b.0 + 1));
        }
        for &t in &probes {
            for a in 0..n {
                for b in 0..n {
                    let want = tbl.route_uncached(a, b, t);
                    assert_eq!(tbl.route(a, b, t), want, "{topo}: cold {a}->{b} at {t:?}");
                    assert_eq!(tbl.route(a, b, t), want, "{topo}: warm {a}->{b} at {t:?}");
                    match want {
                        Some(r) => detoured += u64::from(r.hops > topo.hops(a, b)),
                        None => partitioned += 1,
                    }
                }
            }
        }
    });
    assert!(
        detoured > 0 && partitioned > 0,
        "the schedules must exercise the search: {detoured} detours, {partitioned} partitions"
    );
}

/// Bulk construction is `add` in a loop: same epochs, same link state.
#[test]
fn bulk_and_incremental_construction_agree() {
    for_each_case(SEED, CASES, |g| {
        let topo = arb_grid(g);
        let n = topo.nodes();
        let faults: Vec<NetFault> = (0..g.gen_in(0..7)).map(|_| arb_fault(g, n)).collect();
        let bulk = LinkStateTable::from_faults(topo.clone(), faults.iter().copied());
        let mut one_by_one = LinkStateTable::new(topo.clone());
        for f in &faults {
            one_by_one.add(*f);
        }
        assert_eq!(bulk.epoch_count(), one_by_one.epoch_count());
        assert_eq!(bulk.faulty_links(), one_by_one.faulty_links());
        for t in (0..80).map(SimTime) {
            assert_eq!(bulk.any_active(t), one_by_one.any_active(t), "at {t:?}");
            for a in 0..n {
                for b in topo.torus_neighbors(a).into_iter().flatten() {
                    assert_eq!(
                        bulk.link_factor(a, b, t),
                        one_by_one.link_factor(a, b, t),
                        "{topo}: link {a}-{b} at {t:?}"
                    );
                }
            }
        }
    });
}

/// Half-extent tie on an even ring: both ways round are minimal and the
/// BFS's neighbor order prefers `+`. A *degraded* `+` path is still
/// live, so the answer carries its factor even though the `−` path is
/// clean; only a *dead* `+` path moves the route to the `−` side.
#[test]
fn half_extent_tie_takes_the_plus_path_while_it_is_live() {
    let topo = Topology::Torus3d { dims: [4, 4, 4] };
    let (a, b) = (topo.node_at([0, 1, 2]), topo.node_at([2, 1, 2]));
    let fault = |kind| NetFault {
        node: topo.node_at([1, 1, 2]),
        dir: Some(0), // +x: the second link of the + path
        kind,
        from: SimTime::ZERO,
        until: None,
    };
    let degraded = LinkStateTable::from_faults(topo.clone(), [fault(LinkFaultKind::Degraded(0.5))]);
    let r = degraded.route(a, b, SimTime::ZERO).unwrap();
    assert_eq!((r.hops, r.min_factor), (2, 0.5), "+ path, degraded factor");
    assert_eq!(Some(r), degraded.route_uncached(a, b, SimTime::ZERO));
    // The reverse query's + path is the other half of the ring: clean.
    let back = degraded.route(b, a, SimTime::ZERO).unwrap();
    assert_eq!((back.hops, back.min_factor), (2, 1.0));
    assert_eq!(Some(back), degraded.route_uncached(b, a, SimTime::ZERO));

    let dead = LinkStateTable::from_faults(topo.clone(), [fault(LinkFaultKind::Down)]);
    let r = dead.route(a, b, SimTime::ZERO).unwrap();
    assert_eq!((r.hops, r.min_factor), (2, 1.0), "− path, same length");
    assert_eq!(Some(r), dead.route_uncached(a, b, SimTime::ZERO));
}

/// A query whose dimension-ordered path is live is answered by the walk
/// alone — no memo lock, no search: the fallback counters do not move.
/// A query whose path crosses the dead link searches once and is served
/// from the memo afterwards.
#[test]
fn live_paths_bypass_the_memo_and_dead_ones_search_once() {
    let topo = Topology::Torus3d { dims: [8, 8, 8] };
    let tbl = LinkStateTable::from_faults(
        topo.clone(),
        [
            NetFault {
                node: topo.node_at([1, 0, 0]),
                dir: Some(0),
                kind: LinkFaultKind::Down,
                from: SimTime::ZERO,
                until: None,
            },
            NetFault {
                node: topo.node_at([0, 5, 0]),
                dir: Some(2),
                kind: LinkFaultKind::Degraded(0.5),
                from: SimTime::ZERO,
                until: None,
            },
        ],
    );
    let idle = tbl.route_cache_stats();
    // x first along y = 3 (clear of the dead link), then up the degraded
    // y link: live, degraded, and invisible to the counters.
    let (a, b) = (topo.node_at([5, 3, 0]), topo.node_at([0, 6, 0]));
    for _ in 0..3 {
        let r = tbl.route(a, b, SimTime::ZERO).unwrap();
        assert_eq!((r.hops, r.min_factor), (topo.hops(a, b), 0.5));
    }
    assert_eq!(tbl.route_cache_stats(), idle, "the walk touches no counter");

    // 0 → 3 along y = 0 crosses the dead (1,0,0)-(2,0,0) link.
    let (a, b) = (topo.node_at([0, 0, 0]), topo.node_at([3, 0, 0]));
    for _ in 0..3 {
        assert_eq!(tbl.hops_at(a, b, SimTime::ZERO), Some(5), "detour: +2 hops");
    }
    let s = tbl.route_cache_stats();
    assert_eq!((s.misses, s.hits, s.bfs_runs), (1, 2, 1), "{s:?}");
}

/// A switch fault isolates its node completely: routing to or from
/// it reports a partition from every other node, at the table and
/// at the model level (`p2p_at` → `None`), while traffic between
/// the remaining nodes still routes.
#[test]
fn switch_cut_fires_partition_detection() {
    for_each_case(SEED, CASES, |g| {
        let topo = arb_torus(g); // at least 2x2x2: always a third node
        let n = topo.nodes();
        let victim = arb_seed(g) % n;
        // Any node but the victim.
        let other = (victim + 1 + arb_seed(g) % (n - 1)) % n;
        let fault = NetFault {
            node: victim,
            dir: None, // the node's switch: all its links
            kind: LinkFaultKind::Down,
            from: SimTime::ZERO,
            until: None,
        };
        let mut tbl = LinkStateTable::new(topo.clone());
        tbl.add(fault);
        assert_eq!(tbl.route(other, victim, SimTime::ZERO), None, "unreachable");
        assert_eq!(tbl.route(victim, other, SimTime::ZERO), None, "symmetric");
        // Survivors still reach each other around the dead switch.
        let third = (0..n).find(|x| *x != victim && *x != other).expect("n > 2");
        assert!(tbl.route(other, third, SimTime::ZERO).is_some());

        // Model level: paper_machine maps rank i to node i 1:1.
        let mut m = NetModel::paper_machine();
        m.topology = topo;
        let m = m.with_faults(tbl);
        assert!(
            m.p2p_at(Rank(other as u32), Rank(victim as u32), 64, SimTime::ZERO)
                .is_none(),
            "p2p_at must surface the partition"
        );
        assert!(m
            .p2p_at(Rank(other as u32), Rank(third as u32), 64, SimTime::ZERO)
            .is_some());
    });
}

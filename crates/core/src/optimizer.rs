//! The optimizer: from candidate TSS networks to execution plans (§4/§6).
//!
//! For each CTSSN the optimizer:
//!
//! 1. chooses a tiling by connection relations (which fragments evaluate
//!    the network — the paper shows the choice is NP-complete): all
//!    tilings up to a cap are enumerated
//!    ([`crate::decompose::all_tilings`]) and scored with a fanout-based
//!    nested-loop cost model over the relation statistics;
//! 2. picks the *driver* role — the keyword role with the smallest
//!    containing list — and orders the tiles from it (the nested-loop
//!    nesting order of §6);
//! 3. computes per-step **reuse signatures**: two plans whose remaining
//!    tiles are structurally identical (same relations, same column/role
//!    pattern, same keyword requirements) share partial results through
//!    the execution cache — the common-subexpression reuse XKeyword
//!    inherits from DISCOVER, applied across candidate networks.
//!
//! Plans whose keyword roles have empty containing lists are pruned
//! outright (`build_plan` returns `None`).

use crate::ctssn::Ctssn;
use crate::decompose::{all_tilings, Fragment, Tile};
use crate::master_index::{MasterIndex, SeekCandidateIndex};
use crate::relations::RelationCatalog;
use crate::target::ToId;
use std::collections::HashSet;
use std::sync::Arc;

/// A role's candidate target objects: a sorted, deduplicated vector
/// with binary-search membership. Sorted storage means the executor's
/// driver loops iterate in ascending `ToId` order without re-sorting
/// per evaluation — and that order is what the determinism guarantee
/// rides on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSet(Vec<ToId>);

impl CandidateSet {
    /// Wraps an already-sorted, deduplicated vector.
    pub fn from_sorted(tos: Vec<ToId>) -> Self {
        debug_assert!(tos.windows(2).all(|w| w[0] < w[1]));
        CandidateSet(tos)
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Membership by binary search.
    pub fn contains(&self, to: &ToId) -> bool {
        self.0.binary_search(to).is_ok()
    }

    /// Iterates candidates in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ToId> + '_ {
        self.0.iter().copied()
    }

    /// The candidates as a sorted slice.
    pub fn as_slice(&self) -> &[ToId] {
        &self.0
    }
}

/// Intersects two sorted, deduplicated slices, galloping through the
/// larger one with binary searches from the smaller.
fn intersect_sorted(a: &[ToId], b: &[ToId]) -> Vec<ToId> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(small.len());
    let mut lo = 0usize;
    for &v in small {
        match large[lo..].binary_search(&v) {
            Ok(i) => {
                out.push(v);
                lo += i + 1;
            }
            Err(i) => lo += i,
        }
        if lo >= large.len() {
            break;
        }
    }
    out
}

/// One tile of a plan: a connection relation with its column→role map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilePlan {
    /// Fragment index in the catalog.
    pub rel: usize,
    /// For each relation column, the CTSSN role it binds.
    pub cols_to_roles: Vec<u8>,
}

/// An execution plan for one CTSSN.
#[derive(Debug, Clone)]
pub struct CtssnPlan {
    /// The network being evaluated.
    pub ctssn: Ctssn,
    /// The driver (outermost-loop) role.
    pub driver: u8,
    /// Tiles in nesting order; each shares ≥ 1 role with what precedes.
    pub tiles: Vec<TilePlan>,
    /// Candidate target objects per role (`None` = free role).
    pub candidates: Vec<Option<Arc<CandidateSet>>>,
    /// Per step `i`: the bound roles that tiles `i..` still reference
    /// (the cache key variables).
    pub key_roles: Vec<Vec<u8>>,
    /// Per step `i`: roles first bound at step `i`.
    pub new_roles: Vec<Vec<u8>>,
    /// Per step `i`: structural reuse signature of the remaining suffix
    /// (`Arc` so cache keys clone in O(1)).
    pub step_sigs: Vec<std::sync::Arc<str>>,
    /// The score of every result (the CN size).
    pub score: usize,
}

impl CtssnPlan {
    /// Number of roles.
    pub fn role_count(&self) -> usize {
        self.ctssn.tree.roles.len()
    }

    /// Number of joins this plan performs.
    pub fn joins(&self) -> usize {
        self.tiles.len().saturating_sub(1)
    }

    /// Renders the plan in an `EXPLAIN`-like form: the network, the
    /// driver loop, and one line per tile with its connection relation,
    /// probe columns, access path and estimated rows.
    pub fn explain(&self, tss: &xkw_graph::TssGraph, catalog: &RelationCatalog) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "CN: {}   (score {}, {} joins)",
            self.ctssn.display(tss),
            self.score,
            self.joins()
        );
        let role_name = |r: u8| tss.node(self.ctssn.tree.roles[r as usize]).name.clone();
        let driver_n = self.candidates[self.driver as usize]
            .as_ref()
            .map(|c| c.len())
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "  driver: role {} ({}) over {} candidate target objects",
            self.driver,
            role_name(self.driver),
            driver_n
        );
        let mut bound: std::collections::HashSet<u8> =
            std::collections::HashSet::from([self.driver]);
        for (i, tile) in self.tiles.iter().enumerate() {
            let rel = catalog.relation(tile.rel);
            let frag = &catalog.decomposition.fragments[tile.rel];
            let probe_cols: Vec<String> = tile
                .cols_to_roles
                .iter()
                .enumerate()
                .filter(|(_, r)| bound.contains(r))
                .map(|(c, &r)| format!("c{c}={}", role_name(r)))
                .collect();
            let table = rel.pick_copy(
                &tile
                    .cols_to_roles
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| bound.contains(r))
                    .map(|(c, _)| c)
                    .collect::<Vec<_>>(),
            );
            let path = if table.is_cluster_prefix(&[tile
                .cols_to_roles
                .iter()
                .position(|r| bound.contains(r))
                .unwrap_or(0)])
            {
                "clustered"
            } else if table.has_index_prefix(&[0]) {
                "indexed"
            } else {
                "scan"
            };
            let _ = writeln!(
                out,
                "  step {i}: probe {} ({} rows, {path}) on [{}] binding [{}]",
                frag.name,
                rel.stats.rows,
                probe_cols.join(", "),
                self.new_roles[i]
                    .iter()
                    .map(|&r| role_name(r))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
            bound.extend(tile.cols_to_roles.iter().copied());
        }
        out
    }
}

/// The keyword-independent part of planning one CTSSN: the network plus
/// its enumerated (unordered) fragment tilings.
///
/// Tiling enumeration is the expensive step of `build_plan` and depends
/// only on the CTSSN's *structure* and the decomposition's fragments —
/// not on which keywords instantiated it, and not on any relation
/// contents or statistics. Two queries whose keywords partition the
/// schema nodes the same way (same achievable keyword-sets per schema
/// node) produce identical CTSSNs, so the engine caches skeleton lists
/// per partition signature and replays [`instantiate`] — which reads
/// the candidate sets and relation statistics of the query's own
/// snapshot and computes driver, tile order and cost — per query.
#[derive(Debug, Clone)]
pub struct PlanSkeleton {
    /// The network being evaluated.
    pub ctssn: Ctssn,
    /// Every enumerated tiling, tiles unordered (ordering is driver- and
    /// therefore keyword-dependent).
    pub tilings: Vec<Vec<TilePlan>>,
}

/// Enumerates the keyword-independent skeleton for `ctssn`, or `None`
/// when `fragments` cannot tile the network. Only the fragment shapes
/// are read, so a skeleton holds no epoch data and stays valid for every
/// catalog materializing the same decomposition.
pub fn build_skeleton(ctssn: &Ctssn, fragments: &[Fragment]) -> Option<PlanSkeleton> {
    // Tiling search: enumerate up to TILING_CAP tilings. (The paper shows
    // optimal connection-relation choice is NP-complete; the CTSSNs here
    // have ≤ 16 edges, so a capped exhaustive search with a fanout-based
    // cost model is both practical and near-optimal.)
    let tilings = all_tilings(&ctssn.tree, fragments, TILING_CAP);
    if tilings.is_empty() {
        return None;
    }
    Some(PlanSkeleton {
        ctssn: ctssn.clone(),
        tilings: tilings
            .iter()
            .map(|tiling| tiling.iter().map(|t| tile_plan(fragments, t)).collect())
            .collect(),
    })
}

/// Builds the plan for `ctssn`, or `None` when a keyword role has no
/// candidates (the network can produce no result on this data).
pub fn build_plan(
    ctssn: &Ctssn,
    catalog: &RelationCatalog,
    master: &MasterIndex,
    keywords: &[&str],
) -> Option<CtssnPlan> {
    let skeleton = build_skeleton(ctssn, &catalog.decomposition.fragments)?;
    instantiate(&skeleton, catalog, master, keywords, None)
}

/// Builds a plan whose outermost (driver) role is forced to `driver` —
/// used by the on-demand expansion algorithm (Fig. 13), which anchors
/// evaluation at the role being expanded (the driver may then be a free
/// role; it is bound externally via [`crate::exec::eval_anchored`]).
pub fn build_plan_anchored(
    ctssn: &Ctssn,
    catalog: &RelationCatalog,
    master: &MasterIndex,
    keywords: &[&str],
    driver: u8,
) -> Option<CtssnPlan> {
    let skeleton = build_skeleton(ctssn, &catalog.decomposition.fragments)?;
    instantiate(&skeleton, catalog, master, keywords, Some(driver))
}

/// The keyword-specific half of planning: candidate sets from the master
/// index, driver selection, tile ordering + cost over the skeleton's
/// tilings, and cache-key bookkeeping. Returns `None` when a keyword
/// role has no candidates. Builds a throwaway seek index — the engine's
/// prepare path uses [`instantiate_with`] so one index serves every
/// skeleton of a query.
pub fn instantiate(
    skeleton: &PlanSkeleton,
    catalog: &RelationCatalog,
    master: &MasterIndex,
    keywords: &[&str],
    forced_driver: Option<u8>,
) -> Option<CtssnPlan> {
    let index = master.seek_candidates(keywords);
    instantiate_with(skeleton, catalog, &index, forced_driver)
}

/// [`instantiate`] against a caller-supplied [`SeekCandidateIndex`].
/// Requirements are resolved lazily by the index's zig-zag membership
/// joins and memoized, so instantiating many skeletons of one query
/// pays for each distinct `(schema_node, set)` requirement once.
pub fn instantiate_with(
    skeleton: &PlanSkeleton,
    catalog: &RelationCatalog,
    index: &SeekCandidateIndex<'_>,
    forced_driver: Option<u8>,
) -> Option<CtssnPlan> {
    let ctssn = &skeleton.ctssn;
    let nroles = ctssn.tree.roles.len();
    // Candidate sets per role: the seek index serves every requirement
    // of every role; sorted lists intersect by galloping.
    let mut candidates: Vec<Option<Arc<CandidateSet>>> = vec![None; nroles];
    for (role, reqs) in ctssn.annotated_roles() {
        let mut acc: Option<Vec<ToId>> = None;
        for r in reqs {
            let set = index.tos(r.schema_node, r.set);
            acc = Some(match acc {
                None => set.as_ref().clone(),
                Some(prev) => intersect_sorted(&prev, &set),
            });
        }
        let acc = acc.expect("annotated role has requirements");
        if acc.is_empty() {
            return None;
        }
        candidates[role as usize] = Some(Arc::new(CandidateSet::from_sorted(acc)));
    }

    // Driver: forced anchor, else the smallest candidate set.
    let driver = match forced_driver {
        Some(d) => d,
        None => {
            candidates
                .iter()
                .enumerate()
                .filter_map(|(r, c)| c.as_ref().map(|s| (s.len(), r as u8)))
                .min()?
                .1
        }
    };

    // Order each enumerated tiling from the driver, estimate its
    // nested-loop cost, keep the cheapest.
    let mut best: Option<(f64, Vec<TilePlan>)> = None;
    for tiling in &skeleton.tilings {
        let ordered = order_tiles(tiling.clone(), driver, &candidates, catalog);
        let cost = estimate_cost(&ordered, driver, &candidates, catalog);
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, ordered));
        }
    }
    let (_, ordered) = best.expect("at least one tiling");

    // Per-step bookkeeping.
    let k = ordered.len();
    let mut key_roles = Vec::with_capacity(k);
    let mut new_roles = Vec::with_capacity(k);
    let mut bound_before: HashSet<u8> = HashSet::from([driver]);
    for i in 0..k {
        let suffix_roles: HashSet<u8> = ordered[i..]
            .iter()
            .flat_map(|t| t.cols_to_roles.iter().copied())
            .collect();
        let mut keys: Vec<u8> = bound_before.intersection(&suffix_roles).copied().collect();
        keys.sort_unstable();
        key_roles.push(keys);
        let mut fresh: Vec<u8> = ordered[i]
            .cols_to_roles
            .iter()
            .copied()
            .filter(|r| !bound_before.contains(r))
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        new_roles.push(fresh.clone());
        bound_before.extend(fresh);
    }
    let step_sigs = (0..k)
        .map(|i| std::sync::Arc::from(suffix_signature(ctssn, &ordered[i..], &key_roles[i])))
        .collect();

    Some(CtssnPlan {
        ctssn: ctssn.clone(),
        driver,
        tiles: ordered,
        candidates,
        key_roles,
        new_roles,
        step_sigs,
        score: ctssn.cn_size,
    })
}

/// Maximum tilings examined per CTSSN.
const TILING_CAP: usize = 128;

/// Fixed per-probe overhead in the cost model, in row-equivalents
/// (latency of issuing a query vs. transferring one row).
const PROBE_OVERHEAD: f64 = 4.0;

/// Orders tiles from the driver, greedily maximizing connectivity
/// (bound-role overlap, then keyword-annotated roles, then smaller
/// relations).
fn order_tiles(
    mut tiles: Vec<TilePlan>,
    driver: u8,
    candidates: &[Option<Arc<CandidateSet>>],
    catalog: &RelationCatalog,
) -> Vec<TilePlan> {
    let mut ordered: Vec<TilePlan> = Vec::with_capacity(tiles.len());
    let mut bound: HashSet<u8> = HashSet::from([driver]);
    while !tiles.is_empty() {
        let pos = tiles
            .iter()
            .enumerate()
            .max_by_key(|(_, t)| {
                let overlap = t.cols_to_roles.iter().filter(|r| bound.contains(r)).count();
                let annotated = t
                    .cols_to_roles
                    .iter()
                    .filter(|&&r| candidates[r as usize].is_some())
                    .count();
                let rows = catalog.relation(t.rel).stats.rows;
                (overlap, annotated, std::cmp::Reverse(rows))
            })
            .map(|(i, _)| i)
            .unwrap();
        let t = tiles.swap_remove(pos);
        bound.extend(t.cols_to_roles.iter().copied());
        ordered.push(t);
    }
    ordered
}

/// Expected nested-loop cost of an ordered tiling: per step, the current
/// number of bindings times (probe overhead + expected matching rows);
/// keyword filters shrink the carried bindings.
fn estimate_cost(
    ordered: &[TilePlan],
    driver: u8,
    candidates: &[Option<Arc<CandidateSet>>],
    catalog: &RelationCatalog,
) -> f64 {
    let mut bound: HashSet<u8> = HashSet::from([driver]);
    let mut bindings = candidates[driver as usize]
        .as_ref()
        .map(|c| c.len() as f64)
        .unwrap_or(1.0);
    let mut cost = 0.0;
    for tile in ordered {
        let stats = &catalog.relation(tile.rel).stats;
        let mut est = stats.rows as f64;
        for (c, role) in tile.cols_to_roles.iter().enumerate() {
            if bound.contains(role) {
                est /= stats.distinct[c].max(1) as f64;
            }
        }
        cost += bindings * (PROBE_OVERHEAD + est);
        // Keyword filters on newly bound roles.
        let mut carried = est;
        for (c, role) in tile.cols_to_roles.iter().enumerate() {
            if !bound.contains(role) {
                if let Some(cands) = &candidates[*role as usize] {
                    let sel = cands.len() as f64 / stats.distinct[c].max(1) as f64;
                    carried *= sel.min(1.0);
                }
            }
        }
        bindings *= carried;
        bindings = bindings.max(f64::MIN_POSITIVE);
        bound.extend(tile.cols_to_roles.iter().copied());
    }
    cost
}

fn tile_plan(fragments: &[Fragment], tile: &Tile) -> TilePlan {
    let frag = &fragments[tile.fragment];
    // Relation column j corresponds to fragment role j, embedded at CTSSN
    // role role_map[j].
    TilePlan {
        rel: tile.fragment,
        cols_to_roles: (0..frag.tree.roles.len())
            .map(|j| tile.embedding.role_map[j])
            .collect(),
    }
}

/// The structural signature of a plan suffix: relations, their column
/// patterns with roles renamed canonically (key roles first, then fresh
/// roles in first-appearance order), plus the keyword requirements of
/// every referenced role. Two suffixes with equal signatures compute the
/// same relation over their key roles — sharable across candidate
/// networks.
fn suffix_signature(ctssn: &Ctssn, suffix: &[TilePlan], key_roles: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut rename: Vec<Option<usize>> = vec![None; ctssn.tree.roles.len()];
    for (i, &r) in key_roles.iter().enumerate() {
        rename[r as usize] = Some(i);
    }
    let mut next = key_roles.len();
    let mut sig = String::new();
    for t in suffix {
        let _ = write!(sig, "R{}(", t.rel);
        for &r in &t.cols_to_roles {
            let id = *rename[r as usize].get_or_insert_with(|| {
                let v = next;
                next += 1;
                v
            });
            let mut reqs: Vec<String> = ctssn.annotations[r as usize]
                .iter()
                .map(|a| format!("k{}s{}", a.set, a.schema_node.0))
                .collect();
            reqs.sort();
            let _ = write!(sig, "v{id}[{}],", reqs.join(";"));
        }
        sig.push(')');
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cn::CnGenerator;
    use crate::decompose;
    use crate::relations::{PhysicalPolicy, RelationCatalog};
    use crate::target::TargetGraph;
    use xkw_datagen::tpch;
    use xkw_store::Db;

    struct Fixture {
        tss: xkw_graph::TssGraph,
        master: MasterIndex,
        catalog: RelationCatalog,
        #[allow(dead_code)]
        db: Db,
    }

    fn fixture() -> Fixture {
        let (g, _, _) = tpch::figure1();
        let tss = tpch::tss_graph();
        let tg = TargetGraph::build(&g, &tss).unwrap();
        let master = MasterIndex::build(&g, &tg);
        let db = Db::new(128);
        let catalog = RelationCatalog::materialize(
            &db,
            &tg,
            decompose::minimal(&tss),
            PhysicalPolicy::clustered(),
            "t",
        );
        Fixture {
            tss,
            master,
            catalog,
            db,
        }
    }

    fn plans(f: &Fixture, keywords: &[&str], z: usize) -> Vec<CtssnPlan> {
        let achievable = f.master.achievable_sets(keywords);
        let gen = CnGenerator::new(f.tss.schema(), &achievable, keywords.len());
        gen.generate(z)
            .iter()
            .map(|cn| Ctssn::from_cn(cn, &f.tss).unwrap())
            .filter_map(|c| build_plan(&c, &f.catalog, &f.master, keywords))
            .collect()
    }

    #[test]
    fn plans_are_connected_and_complete() {
        let f = fixture();
        for p in plans(&f, &["tv", "vcr"], 8) {
            // Every role is covered by some tile (or it's a 0-edge plan).
            let mut seen: HashSet<u8> = HashSet::from([p.driver]);
            for (i, t) in p.tiles.iter().enumerate() {
                if i > 0 || !p.tiles.is_empty() {
                    assert!(
                        i == 0 && t.cols_to_roles.contains(&p.driver)
                            || t.cols_to_roles.iter().any(|r| seen.contains(r)),
                        "tile {i} disconnected"
                    );
                }
                seen.extend(t.cols_to_roles.iter().copied());
            }
            assert_eq!(seen.len(), p.role_count());
            // Minimal decomposition: joins = size - 1.
            assert_eq!(p.joins(), p.ctssn.size().saturating_sub(1));
        }
    }

    #[test]
    fn driver_has_smallest_candidate_set() {
        let f = fixture();
        for p in plans(&f, &["john", "vcr"], 8) {
            let driver_len = p.candidates[p.driver as usize].as_ref().unwrap().len();
            for c in p.candidates.iter().flatten() {
                assert!(driver_len <= c.len());
            }
        }
    }

    #[test]
    fn empty_candidates_prune_plan() {
        let f = fixture();
        // "zanzibar" appears nowhere.
        let ps = plans(&f, &["john", "zanzibar"], 8);
        assert!(ps.is_empty());
    }

    #[test]
    fn suffix_signatures_shared_across_symmetric_cns() {
        let f = fixture();
        let ps = plans(&f, &["tv", "vcr"], 8);
        // Signature reuse requires at least two plans sharing a suffix
        // signature at some step > 0 or equal step-0 structures; at
        // minimum, signatures must be internally consistent.
        let mut all_sigs: Vec<&std::sync::Arc<str>> = Vec::new();
        for p in &ps {
            assert_eq!(p.step_sigs.len(), p.tiles.len());
            all_sigs.extend(p.step_sigs.iter());
        }
        assert!(!all_sigs.is_empty());
    }

    #[test]
    fn skeleton_reuse_matches_direct_planning() {
        // The same skeletons, instantiated for a different keyword pair
        // with the same schema-node partition, give exactly the plans
        // direct planning builds.
        let f = fixture();
        let achievable = f.master.achievable_sets(&["tv", "vcr"]);
        let gen = CnGenerator::new(f.tss.schema(), &achievable, 2);
        let ctssns: Vec<Ctssn> = gen
            .generate(8)
            .iter()
            .map(|cn| Ctssn::from_cn(cn, &f.tss).unwrap())
            .collect();
        let skeletons: Vec<PlanSkeleton> = ctssns
            .iter()
            .filter_map(|c| build_skeleton(c, &f.catalog.decomposition.fragments))
            .collect();
        assert_eq!(skeletons.len(), ctssns.len());
        for kws in [["tv", "vcr"], ["vcr", "tv"]] {
            let via_skeleton: Vec<CtssnPlan> = skeletons
                .iter()
                .filter_map(|s| instantiate(s, &f.catalog, &f.master, &kws, None))
                .collect();
            let direct: Vec<CtssnPlan> = ctssns
                .iter()
                .filter_map(|c| build_plan(c, &f.catalog, &f.master, &kws))
                .collect();
            assert_eq!(via_skeleton.len(), direct.len());
            for (a, b) in via_skeleton.iter().zip(&direct) {
                assert_eq!(a.driver, b.driver);
                assert_eq!(a.step_sigs, b.step_sigs);
                assert_eq!(a.candidates, b.candidates);
                assert_eq!(
                    a.tiles.iter().map(|t| t.rel).collect::<Vec<_>>(),
                    b.tiles.iter().map(|t| t.rel).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn key_roles_do_not_include_dead_bindings() {
        let f = fixture();
        for p in plans(&f, &["tv", "vcr"], 8) {
            for (i, keys) in p.key_roles.iter().enumerate() {
                let suffix: HashSet<u8> = p.tiles[i..]
                    .iter()
                    .flat_map(|t| t.cols_to_roles.iter().copied())
                    .collect();
                for k in keys {
                    assert!(suffix.contains(k));
                }
            }
        }
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use crate::cn::CnGenerator;
    use crate::ctssn::Ctssn;
    use crate::decompose;
    use crate::relations::{PhysicalPolicy, RelationCatalog};
    use crate::target::TargetGraph;
    use xkw_datagen::tpch;
    use xkw_store::Db;

    #[test]
    fn explain_renders_every_step() {
        let (g, _, _) = tpch::figure1();
        let tss = tpch::tss_graph();
        let tg = TargetGraph::build(&g, &tss).unwrap();
        let master = crate::master_index::MasterIndex::build(&g, &tg);
        let db = Db::new(128);
        let catalog = RelationCatalog::materialize(
            &db,
            &tg,
            decompose::complete(&tss, 2),
            PhysicalPolicy::clustered(),
            "x",
        );
        let achievable = master.achievable_sets(&["john", "vcr"]);
        let gen = CnGenerator::new(tss.schema(), &achievable, 2);
        let plan = gen
            .generate(8)
            .iter()
            .map(|cn| Ctssn::from_cn(cn, &tss).unwrap())
            .filter_map(|c| build_plan(&c, &catalog, &master, &["john", "vcr"]))
            .next()
            .unwrap();
        let text = plan.explain(&tss, &catalog);
        assert!(text.contains("CN:"));
        assert!(text.contains("driver: role"));
        assert_eq!(text.matches("step ").count(), plan.tiles.len(), "{text}");
    }
}

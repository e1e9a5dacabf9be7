//! Connection relations: materializing a decomposition in the store (§5).
//!
//! Each fragment becomes a relation whose columns are the fragment's
//! roles and whose tuples are the fragment's matches in the target-object
//! graph. Physical design follows §5.1/§7:
//!
//! * *"the performance is dramatically improved when a connection
//!   relation R is clustered on the direction that R is used"* — the
//!   [`ClusterPolicy::AllDirections`] policy stores one index-organized
//!   copy per role, each clustered with that role leading (the paper's
//!   `MinClust`, and the default for the XKeyword and Complete
//!   decompositions);
//! * *"single attribute indices are created on every attribute"* —
//!   [`IndexPolicy::AllSingle`] (the paper's `MinNClustIndx`);
//! * neither — the paper's `MinNClustNIndx`, where every probe is a scan
//!   and only full evaluation via hash joins is attractive.

use crate::decompose::Decomposition;
use crate::target::TargetGraph;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xkw_store::{AccessPath, Db, Id, PhysicalOptions, Row, Table, TableStats};

/// Clustering policy for connection relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterPolicy {
    /// One index-organized copy per role (leading column rotated).
    AllDirections,
    /// A single heap copy.
    None,
}

/// Secondary-index policy for connection relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexPolicy {
    /// Single-attribute index on every column.
    AllSingle,
    /// No indexes.
    None,
}

/// Physical policy = clustering × indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalPolicy {
    /// Clustering choice.
    pub cluster: ClusterPolicy,
    /// Indexing choice.
    pub index: IndexPolicy,
}

impl PhysicalPolicy {
    /// Clustered copies in every direction (XKeyword / Complete /
    /// MinClust configurations).
    pub fn clustered() -> Self {
        Self {
            cluster: ClusterPolicy::AllDirections,
            index: IndexPolicy::None,
        }
    }

    /// Heap + single-attribute indexes (MinNClustIndx).
    pub fn indexed() -> Self {
        Self {
            cluster: ClusterPolicy::None,
            index: IndexPolicy::AllSingle,
        }
    }

    /// Bare heap (MinNClustNIndx).
    pub fn bare() -> Self {
        Self {
            cluster: ClusterPolicy::None,
            index: IndexPolicy::None,
        }
    }
}

/// A materialized connection relation: one or more physical copies of the
/// same logical tuple set.
#[derive(Debug)]
pub struct ConnRelation {
    /// Physical copies; under [`ClusterPolicy::AllDirections`], copy `i`
    /// is clustered with column `i` leading.
    pub copies: Vec<Arc<Table>>,
    /// Statistics over the logical relation.
    pub stats: TableStats,
}

impl ConnRelation {
    /// Picks the best physical copy for an equality probe on `cols`:
    /// longest cluster-prefix match, then an indexed copy, then copy 0.
    pub fn pick_copy(&self, cols: &[usize]) -> &Arc<Table> {
        if let Some(t) = self
            .copies
            .iter()
            .find(|t| !cols.is_empty() && t.is_cluster_prefix(&cols[..1]))
        {
            return t;
        }
        if let Some(t) = self
            .copies
            .iter()
            .find(|t| !cols.is_empty() && t.has_index_prefix(&cols[..1]))
        {
            return t;
        }
        &self.copies[0]
    }
}

/// All connection relations of one decomposition.
#[derive(Debug)]
pub struct RelationCatalog {
    /// The decomposition materialized. Schema-level and immutable: every
    /// incremental successor of this catalog shares the same `Arc`, which
    /// is what lets the engine keep plan skeletons across view swaps.
    pub decomposition: Arc<Decomposition>,
    /// The physical policy used.
    pub policy: PhysicalPolicy,
    relations: Vec<ConnRelation>,
    /// The base table-name prefix [`RelationCatalog::materialize`] was
    /// given; incremental rebuilds derive epoch-suffixed names from it.
    prefix: String,
    /// Simulated per-statement round-trip latency in nanoseconds
    /// (0 = off). XKeyword was middleware sending SQL over JDBC; every
    /// probe or scan paid a statement round trip. Experiments that model
    /// that deployment set this to ~100µs.
    roundtrip_ns: AtomicU64,
}

/// Builds the physical copies of one fragment's relation under `policy`.
/// `rows` must already be in canonical (sorted, deduplicated) order.
fn build_relation(
    db: &Db,
    prefix: &str,
    name: &str,
    arity: usize,
    rows: Vec<Row>,
    policy: PhysicalPolicy,
) -> ConnRelation {
    let stats = TableStats::compute(arity, &rows);
    let mut copies = Vec::new();
    match policy.cluster {
        ClusterPolicy::AllDirections => {
            for lead in 0..arity {
                let mut cols: Vec<usize> = (0..arity).collect();
                cols.rotate_left(lead);
                copies.push(db.create_table(
                    &format!("{prefix}.{name}@c{lead}"),
                    arity,
                    rows.clone(),
                    PhysicalOptions::clustered(&cols),
                ));
            }
        }
        ClusterPolicy::None => {
            let options = match policy.index {
                IndexPolicy::AllSingle => PhysicalOptions::indexed_all(arity),
                IndexPolicy::None => PhysicalOptions::heap(),
            };
            copies.push(db.create_table(&format!("{prefix}.{name}"), arity, rows, options));
        }
    }
    ConnRelation { copies, stats }
}

impl RelationCatalog {
    /// Enumerates the matches of a fragment in the target-object graph —
    /// the tuples of its connection relation. Roles of the same segment
    /// bind distinct target objects (tree-isomorphism semantics).
    pub fn fragment_rows(fragment: &crate::tree::TssTree, targets: &TargetGraph) -> Vec<Row> {
        if fragment.roles.is_empty() {
            return Vec::new();
        }
        Self::fragment_rows_from(fragment, targets, targets.tos_of(fragment.roles[0]))
    }

    /// [`RelationCatalog::fragment_rows`] seeded from an explicit slice
    /// of first-role target objects instead of the segment's full list.
    fn fragment_rows_from(
        fragment: &crate::tree::TssTree,
        targets: &TargetGraph,
        seeds: &[crate::target::ToId],
    ) -> Vec<Row> {
        let mut out: Vec<Row> = Vec::new();
        let k = fragment.roles.len();
        if k == 0 {
            return out;
        }
        // Order edges so each has one already-bound endpoint.
        let mut order: Vec<usize> = Vec::with_capacity(fragment.edges.len());
        let mut bound_roles = vec![false; k];
        bound_roles[0] = true;
        while order.len() < fragment.edges.len() {
            let next = (0..fragment.edges.len())
                .find(|&i| {
                    !order.contains(&i)
                        && (bound_roles[fragment.edges[i].a as usize]
                            || bound_roles[fragment.edges[i].b as usize])
                })
                .expect("fragment is connected");
            bound_roles[fragment.edges[next].a as usize] = true;
            bound_roles[fragment.edges[next].b as usize] = true;
            order.push(next);
        }

        let mut assignment: Vec<Option<Id>> = vec![None; k];
        fn rec(
            fragment: &crate::tree::TssTree,
            targets: &TargetGraph,
            order: &[usize],
            depth: usize,
            assignment: &mut Vec<Option<Id>>,
            out: &mut Vec<Row>,
        ) {
            if depth == order.len() {
                out.push(assignment.iter().map(|a| a.unwrap()).collect());
                return;
            }
            let e = &fragment.edges[order[depth]];
            let (from, to) = (e.a as usize, e.b as usize);
            match (assignment[from], assignment[to]) {
                (Some(f), Some(t)) => {
                    if targets.neighbours_via(f, e.edge, true).contains(&t) {
                        rec(fragment, targets, order, depth + 1, assignment, out);
                    }
                }
                (Some(f), None) => {
                    for t in targets.neighbours_via(f, e.edge, true) {
                        if distinct_ok(fragment, assignment, to, t) {
                            assignment[to] = Some(t);
                            rec(fragment, targets, order, depth + 1, assignment, out);
                            assignment[to] = None;
                        }
                    }
                }
                (None, Some(t)) => {
                    for f in targets.neighbours_via(t, e.edge, false) {
                        if distinct_ok(fragment, assignment, from, f) {
                            assignment[from] = Some(f);
                            rec(fragment, targets, order, depth + 1, assignment, out);
                            assignment[from] = None;
                        }
                    }
                }
                (None, None) => unreachable!("edge order guarantees a bound endpoint"),
            }
        }
        fn distinct_ok(
            fragment: &crate::tree::TssTree,
            assignment: &[Option<Id>],
            role: usize,
            to: Id,
        ) -> bool {
            assignment.iter().enumerate().all(|(r, a)| {
                r == role || fragment.roles[r] != fragment.roles[role] || *a != Some(to)
            })
        }
        for &start in seeds {
            assignment[0] = Some(start);
            rec(fragment, targets, &order, 0, &mut assignment, &mut out);
            assignment[0] = None;
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Materializes every fragment of `decomposition` into `db` under the
    /// given physical policy. Table names are `{prefix}.{frag}@c{i}`.
    pub fn materialize(
        db: &Db,
        targets: &TargetGraph,
        decomposition: Decomposition,
        policy: PhysicalPolicy,
        prefix: &str,
    ) -> Self {
        let mut relations = Vec::with_capacity(decomposition.fragments.len());
        for f in &decomposition.fragments {
            let rows = Self::fragment_rows(&f.tree, targets);
            relations.push(build_relation(
                db,
                prefix,
                &f.name,
                f.tree.roles.len(),
                rows,
                policy,
            ));
        }
        RelationCatalog {
            decomposition: Arc::new(decomposition),
            policy,
            relations,
            prefix: prefix.to_owned(),
            roundtrip_ns: AtomicU64::new(0),
        }
    }

    /// A new catalog with the matches contributed by the target objects
    /// in `range` (a freshly appended document) added — the incremental
    /// counterpart of re-running [`RelationCatalog::materialize`].
    ///
    /// Because documents are independent subtrees, every fragment match
    /// either lies wholly inside the new range or wholly outside it, so
    /// the delta per fragment is exactly the matches whose first role is
    /// seeded from the new range. Fragments with an empty delta *share*
    /// their physical tables with `self` (`Arc` clones — stats included,
    /// which stay correct because the logical relation is unchanged).
    /// Changed fragments are rebuilt from old rows + delta under
    /// epoch-suffixed names (`{prefix}@e{epoch}.{frag}…`, unique in the
    /// store) and the superseded tables are dropped from the catalog:
    /// snapshots holding the old `Arc<Table>`s keep reading them, and
    /// the orphaned pages leak by design, log-structured style.
    pub fn with_inserted(
        &self,
        db: &Db,
        targets: &TargetGraph,
        range: std::ops::Range<crate::target::ToId>,
        epoch: u64,
    ) -> Self {
        self.rebuild_changed(db, epoch, |f, old_rows| {
            let delta = Self::fragment_rows_seeded(&f.tree, targets, &range);
            if delta.is_empty() {
                return None;
            }
            let mut rows = old_rows();
            rows.extend(delta);
            rows.sort_unstable();
            rows.dedup();
            Some(rows)
        })
    }

    /// A new catalog with every match touching a target object in
    /// `range` (a deleted document's objects) removed. Fragments whose
    /// relations do not intersect the range share their tables with
    /// `self`; the rest are rebuilt filtered, under epoch-suffixed
    /// names, and their superseded tables dropped.
    pub fn with_deleted(
        &self,
        db: &Db,
        range: std::ops::Range<crate::target::ToId>,
        epoch: u64,
    ) -> Self {
        self.rebuild_changed(db, epoch, |_f, old_rows| {
            let rows = old_rows();
            // A match never spans documents, so one cell in the range
            // means the whole row belongs to the deleted document.
            let kept: Vec<Row> = rows
                .iter()
                .filter(|r| !r.iter().any(|&id| range.contains(&id)))
                .cloned()
                .collect();
            (kept.len() != rows.len()).then_some(kept)
        })
    }

    /// Shared machinery of the two delta paths: `delta` returns the new
    /// canonical row set of a fragment, or `None` to keep it as is. The
    /// callback receives a lazy scan of the fragment's current rows
    /// (copy 0 is stored in canonical order under every policy).
    fn rebuild_changed(
        &self,
        db: &Db,
        epoch: u64,
        mut delta: impl FnMut(
            &crate::decompose::Fragment,
            &mut dyn FnMut() -> Vec<Row>,
        ) -> Option<Vec<Row>>,
    ) -> Self {
        let mut relations = Vec::with_capacity(self.relations.len());
        for (f, rel) in self.decomposition.fragments.iter().zip(&self.relations) {
            let mut scan = || db.scan_all(&rel.copies[0]);
            match delta(f, &mut scan) {
                None => relations.push(ConnRelation {
                    copies: rel.copies.clone(),
                    stats: rel.stats.clone(),
                }),
                Some(rows) => {
                    let rebuilt = build_relation(
                        db,
                        &format!("{}@e{epoch}", self.prefix),
                        &f.name,
                        f.tree.roles.len(),
                        rows,
                        self.policy,
                    );
                    for old in &rel.copies {
                        db.drop_table(old.name());
                    }
                    relations.push(rebuilt);
                }
            }
        }
        RelationCatalog {
            decomposition: Arc::clone(&self.decomposition),
            policy: self.policy,
            relations,
            prefix: self.prefix.clone(),
            roundtrip_ns: AtomicU64::new(self.roundtrip_ns.load(Ordering::Relaxed)),
        }
    }

    /// [`RelationCatalog::fragment_rows`] with the first role's seeds
    /// restricted to `range` — the per-fragment insert delta.
    fn fragment_rows_seeded(
        fragment: &crate::tree::TssTree,
        targets: &TargetGraph,
        range: &std::ops::Range<crate::target::ToId>,
    ) -> Vec<Row> {
        let all = targets.tos_of(fragment.roles[0]);
        let lo = all.partition_point(|&t| t < range.start);
        let hi = all.partition_point(|&t| t < range.end);
        if lo == hi {
            return Vec::new();
        }
        Self::fragment_rows_from(fragment, targets, &all[lo..hi])
    }

    /// Sets the simulated per-statement round-trip latency (busy wait on
    /// every probe/scan).
    pub fn set_roundtrip(&self, latency: std::time::Duration) {
        self.roundtrip_ns
            .store(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    fn pay_roundtrip(&self) {
        let ns = self.roundtrip_ns.load(Ordering::Relaxed);
        if ns > 0 {
            let start = std::time::Instant::now();
            while (start.elapsed().as_nanos() as u64) < ns {
                std::hint::spin_loop();
            }
        }
    }

    /// The relation of fragment `i`.
    pub fn relation(&self, i: usize) -> &ConnRelation {
        &self.relations[i]
    }

    /// Number of fragments/relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Probes fragment `i` for rows whose `cols` equal `key`, choosing
    /// the best physical copy.
    pub fn probe(&self, db: &Db, i: usize, cols: &[usize], key: &[Id]) -> (Vec<Row>, AccessPath) {
        self.pay_roundtrip();
        let rel = &self.relations[i];
        let table = rel.pick_copy(cols);
        db.probe(table, cols, key)
    }

    /// [`RelationCatalog::probe`] reporting unreadable pages as typed
    /// errors instead of panicking — the fault-tolerant executor path.
    ///
    /// # Errors
    /// [`xkw_store::StoreError::CorruptPage`] for unreadable pages.
    pub fn try_probe(
        &self,
        db: &Db,
        i: usize,
        cols: &[usize],
        key: &[Id],
    ) -> Result<(Vec<Row>, AccessPath), xkw_store::StoreError> {
        self.pay_roundtrip();
        let rel = &self.relations[i];
        let table = rel.pick_copy(cols);
        db.try_probe(table, cols, key)
    }

    /// Scans the logical relation of fragment `i`.
    pub fn scan(&self, db: &Db, i: usize) -> Vec<Row> {
        self.pay_roundtrip();
        db.scan_all(&self.relations[i].copies[0])
    }

    /// [`RelationCatalog::scan`] reporting unreadable pages as typed
    /// errors instead of panicking.
    ///
    /// # Errors
    /// [`xkw_store::StoreError::CorruptPage`] for unreadable pages.
    pub fn try_scan(&self, db: &Db, i: usize) -> Result<Vec<Row>, xkw_store::StoreError> {
        self.pay_roundtrip();
        db.try_scan_all(&self.relations[i].copies[0])
    }

    /// Total stored id cells across all physical copies (space cost of
    /// the decomposition under this policy).
    pub fn space_cells(&self) -> usize {
        self.relations
            .iter()
            .map(|r| {
                r.copies
                    .iter()
                    .map(|t| t.arity() * t.row_count())
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{complete, minimal};
    use crate::tree::TssTree;
    use xkw_datagen::tpch;
    use xkw_store::Db;

    fn fixture() -> (xkw_graph::XmlGraph, xkw_graph::TssGraph, TargetGraph) {
        let (g, _, _) = tpch::figure1();
        let tss = tpch::tss_graph();
        let tg = TargetGraph::build(&g, &tss).unwrap();
        (g, tss, tg)
    }

    fn seg(t: &xkw_graph::TssGraph, name: &str) -> xkw_graph::TssId {
        t.node_ids().find(|&i| t.node(i).name == name).unwrap()
    }

    #[test]
    fn single_edge_rows_match_to_graph() {
        let (_, tss, tg) = fixture();
        let li = seg(&tss, "Lineitem");
        let person = seg(&tss, "Person");
        let lp = tss.find_edge(li, person).unwrap();
        let rows = RelationCatalog::fragment_rows(&TssTree::single(&tss, lp), &tg);
        // 4 lineitems, each with one supplier.
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn sibling_fragment_rows_include_both_orderings() {
        let (_, tss, tg) = fixture();
        let part = seg(&tss, "Part");
        let papa = tss.find_edge(part, part).unwrap();
        let siblings = TssTree::single(&tss, papa).extend(&tss, 0, papa, true).0;
        let rows = RelationCatalog::fragment_rows(&siblings, &tg);
        // TV has subparts pa1, pa2 → (pa1, tv, pa2) and (pa2, tv, pa1).
        assert_eq!(rows.len(), 2);
        assert_ne!(rows[0], rows[1]);
        // Role distinctness: no (pa1, tv, pa1).
        assert!(rows.iter().all(|r| r[0] != r[2]));
    }

    #[test]
    fn materialize_minimal_clustered() {
        let (_, tss, tg) = fixture();
        let db = Db::new(64);
        let cat = RelationCatalog::materialize(
            &db,
            &tg,
            minimal(&tss),
            PhysicalPolicy::clustered(),
            "min",
        );
        assert_eq!(cat.len(), tss.edge_count());
        // Two clustered copies per binary fragment.
        for i in 0..cat.len() {
            assert_eq!(cat.relation(i).copies.len(), 2);
        }
        // Probing on either column is a clustered range.
        let li = seg(&tss, "Lineitem");
        let person = seg(&tss, "Person");
        let lp_idx = cat
            .decomposition
            .fragments
            .iter()
            .position(|f| f.tree.roles == vec![li, person])
            .unwrap();
        let some_row = cat.scan(&db, lp_idx)[0].clone();
        let (rows, path) = cat.probe(&db, lp_idx, &[1], &[some_row[1]]);
        assert_eq!(path, xkw_store::AccessPath::ClusteredRange);
        assert!(!rows.is_empty());
    }

    #[test]
    fn bare_policy_scans() {
        let (_, tss, tg) = fixture();
        let db = Db::new(64);
        let cat =
            RelationCatalog::materialize(&db, &tg, minimal(&tss), PhysicalPolicy::bare(), "bare");
        let (_, path) = cat.probe(&db, 0, &[0], &[0]);
        assert_eq!(path, xkw_store::AccessPath::FullScan);
    }

    #[test]
    fn indexed_policy_uses_index() {
        let (_, tss, tg) = fixture();
        let db = Db::new(64);
        let cat =
            RelationCatalog::materialize(&db, &tg, minimal(&tss), PhysicalPolicy::indexed(), "idx");
        let (_, path) = cat.probe(&db, 0, &[1], &[0]);
        assert_eq!(path, xkw_store::AccessPath::SecondaryIndex);
    }

    #[test]
    fn space_grows_with_copies_and_fragments() {
        let (_, tss, tg) = fixture();
        let db = Db::new(64);
        let min_bare =
            RelationCatalog::materialize(&db, &tg, minimal(&tss), PhysicalPolicy::bare(), "a");
        let min_clustered =
            RelationCatalog::materialize(&db, &tg, minimal(&tss), PhysicalPolicy::clustered(), "b");
        let comp = RelationCatalog::materialize(
            &db,
            &tg,
            complete(&tss, 2),
            PhysicalPolicy::clustered(),
            "c",
        );
        assert!(min_clustered.space_cells() > min_bare.space_cells());
        assert!(comp.space_cells() > min_clustered.space_cells());
    }

    #[test]
    fn incremental_catalog_matches_bulk_materialize() {
        use xkw_graph::EdgeKind;
        for policy in [
            PhysicalPolicy::clustered(),
            PhysicalPolicy::indexed(),
            PhysicalPolicy::bare(),
        ] {
            let (mut g, tss, tg) = fixture();
            let db = Db::new(256);
            let cat = RelationCatalog::materialize(&db, &tg, minimal(&tss), policy, "cr");

            // Ingest a person plus a lineitem referencing them, so at
            // least one binary fragment actually gains rows.
            let mut frag = xkw_graph::XmlGraph::new();
            let p = frag.add_node("person", None);
            let n = frag.add_node("name", Some("Zoe"));
            frag.add_edge(p, n, EdgeKind::Containment);
            let li = frag.add_node("lineitem", None);
            let sup = frag.add_node("supplier", None);
            frag.add_edge(li, sup, EdgeKind::Containment);
            frag.add_edge(sup, p, EdgeKind::Reference);
            let frag_tg = TargetGraph::build(&frag, &tss).unwrap();
            let offset = g.absorb(&frag);
            let (combined, range) = tg.append(&frag_tg, offset);

            let incr = cat.with_inserted(&db, &combined, range.clone(), 1);
            let db2 = Db::new(256);
            let bulk = RelationCatalog::materialize(&db2, &combined, minimal(&tss), policy, "cr");
            assert_eq!(incr.len(), bulk.len());
            let mut some_shared = false;
            let mut some_rebuilt = false;
            for i in 0..bulk.len() {
                assert_eq!(
                    incr.scan(&db, i),
                    bulk.scan(&db2, i),
                    "{policy:?} fragment {i} rows"
                );
                assert_eq!(
                    incr.relation(i).stats,
                    bulk.relation(i).stats,
                    "{policy:?} fragment {i} stats"
                );
                if Arc::ptr_eq(&incr.relation(i).copies[0], &cat.relation(i).copies[0]) {
                    some_shared = true;
                } else {
                    some_rebuilt = true;
                    // The superseded tables were dropped from the catalog.
                    assert!(db.table(cat.relation(i).copies[0].name()).is_none());
                }
            }
            assert!(some_shared, "{policy:?}: untouched fragments share tables");
            assert!(
                some_rebuilt,
                "{policy:?}: the lineitem-person fragment grew"
            );

            // Deleting the ingested range restores the original rows.
            let back = incr.with_deleted(&db, range, 2);
            for i in 0..back.len() {
                assert_eq!(
                    back.scan(&db, i),
                    cat.scan(&db, i),
                    "{policy:?} fragment {i}"
                );
                assert_eq!(back.relation(i).stats, cat.relation(i).stats);
            }
        }
    }

    #[test]
    fn fragment_rows_on_generated_data() {
        let data = tpch::TpchConfig {
            persons: 10,
            parts: 12,
            ..Default::default()
        }
        .generate();
        let tg = TargetGraph::build(&data.graph, &data.tss).unwrap();
        let d = complete(&data.tss, 2);
        for f in &d.fragments {
            let rows = RelationCatalog::fragment_rows(&f.tree, &tg);
            // Row arity matches roles; all ids valid.
            for r in &rows {
                assert_eq!(r.len(), f.tree.roles.len());
                for (role, &to) in r.iter().enumerate() {
                    assert_eq!(tg.to(to).tss, f.tree.roles[role]);
                }
            }
        }
    }
}

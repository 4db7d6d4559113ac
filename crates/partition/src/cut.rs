//! The partitioning pass and its `stitch` inverse.
//!
//! A validated netlist is carved into `parts` sub-netlists that share
//! the parent's net-id space (stranded unused ids are legal in a
//! validated netlist, so no renumbering happens anywhere). The cut
//! legality rule is the one that makes cycle-accurate distributed
//! execution cheap: **every net crossing a shard boundary must be
//! driven by a register, a constant, or a primary input** — never by
//! ordinary combinational logic. Register outputs only change on the
//! clock edge, so one boundary-value exchange per virtual cycle
//! reproduces the monolithic machine bit-for-bit; a combinational
//! boundary would need a fixpoint exchange *within* every cycle.
//!
//! The pass therefore:
//!
//! 1. groups combinational cells into **clusters** with a union-find —
//!    a comb-driven net welds its driver to every reader (constants
//!    are exempt: they adapt to any stage, and gluing through shared
//!    `gnd`/`vcc` would collapse the whole graph into one cluster);
//! 2. orders clusters by the pipeline-stage potentials of
//!    [`dwt_lint::balance::net_stages`] — the L004 balance solver — so
//!    cut points fall between the paper's pipeline stages (falling
//!    back to cell order when no consistent schedule exists);
//! 3. splits the cluster chain into `parts` contiguous groups with a
//!    dynamic program that **minimizes crossing bits** subject to a
//!    cell-count balance cap;
//! 4. moves every constant into the **lowest-index shard among its
//!    readers**. A constant has no stage potential, so step 2 sorts it
//!    after every staged cluster and the DP strands it in the last
//!    shard, from where it would feed earlier shards over a backward
//!    link. A constant has no inputs, so moving it drags nothing else
//!    along, and cells keep their ids, so `stitch` is unaffected. (A
//!    constant stays put only if it is the last cell of its shard.)
//! 5. emits per-shard [`Netlist`]s: every cut register/constant output
//!    bus becomes a `__cut_c<id>` output port on the producer shard
//!    and a same-named input port on each consumer shard, plus a
//!    deterministic per-edge [`BoundaryLink`] exchange schedule. A link
//!    is **forward** unless it lies on a cycle of the shard graph (its
//!    producer is reachable from its consumer); the runner takes
//!    forward links before the clock edge and settles only on
//!    feedback links.
//!
//! [`stitch`] is the exact inverse: it reassembles the original
//! netlist from the shards alone (cells back at their original ids,
//! `__cut` ports dropped, primary ports merged) and revalidates. The
//! equivalence obligation `stitch(partition(n)) == n` is enforced
//! structurally here and proven by SAT in `dwt-equiv`.

use std::collections::{BTreeMap, BTreeSet};

use dwt_lint::balance;
use dwt_lint::config::LintConfig;
use dwt_rtl::cell::{Cell, CellKind};
use dwt_rtl::net::{Bus, NetId};
use dwt_rtl::netlist::{CellId, Netlist, Port, PortDirection};

use crate::error::PartitionError;

/// Options for [`partition`].
#[derive(Debug, Clone)]
pub struct CutOptions {
    /// Cell-count balance slack: a shard may hold at most
    /// `ceil(total / parts) * (1 + balance_tolerance)` cells. The cap
    /// is relaxed (doubled) automatically if the cluster sizes make it
    /// infeasible.
    pub balance_tolerance: f64,
    /// Configuration handed to the L004 balance solver that pins cut
    /// points (exempt ports, expected depth).
    pub lint_config: LintConfig,
}

impl Default for CutOptions {
    fn default() -> Self {
        CutOptions { balance_tolerance: 0.6, lint_config: LintConfig::default() }
    }
}

/// One sub-netlist plus its bookkeeping.
#[derive(Debug, Clone)]
pub struct Shard {
    /// The validated sub-netlist (shares the parent's net-id space).
    pub netlist: Netlist,
    /// Original cell ids, in the order the shard's cell list holds
    /// them — the inverse map `stitch` uses.
    pub cells: Vec<CellId>,
    /// Primary input ports this shard needs fed every cycle.
    pub inputs: Vec<String>,
    /// Primary output ports this shard owns (observes authoritative
    /// values for).
    pub outputs: Vec<String>,
}

/// The per-cycle exchange schedule for one directed shard pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryLink {
    /// Producer shard index.
    pub from: usize,
    /// Consumer shard index.
    pub to: usize,
    /// `__cut` port names carried on this link, in message order.
    pub ports: Vec<String>,
    /// Total bits exchanged per virtual cycle.
    pub bits: usize,
    /// Whether the link lies on a cycle of the shard graph (its
    /// producer is reachable from its consumer). Forward links
    /// (`false`) carry values a consumer can stage before its own
    /// clock edge; feedback links force a settle after it.
    pub feedback: bool,
}

/// One cut cell's boundary bundle.
#[derive(Debug, Clone)]
pub struct CutPort {
    /// Shard that owns the driving cell.
    pub producer: usize,
    /// Shards that read the bundle.
    pub consumers: Vec<usize>,
    /// The nets behind the bundle (the cut cell's full output bus).
    pub bus: Bus,
}

/// A netlist split into shards plus everything needed to run — and to
/// reassemble — it.
#[derive(Debug, Clone)]
pub struct PartitionedNetlist {
    /// The original, unsplit netlist (kept for the degradation ladder
    /// and differential checks; `stitch` does not consult it).
    pub original: Netlist,
    /// The shards.
    pub shards: Vec<Shard>,
    /// Directed exchange schedule, sorted by `(from, to)`.
    pub links: Vec<BoundaryLink>,
    /// All cut bundles, keyed by `__cut` port name.
    pub cut_ports: BTreeMap<String, CutPort>,
    /// Primary ports no shard ended up carrying (unread inputs);
    /// `stitch` restores them from here.
    pub unused_ports: BTreeMap<String, Port>,
    /// Whether the L004 schedule pinned the cluster order (`false`
    /// means the cell-order fallback was used).
    pub schedule_pinned: bool,
    /// Shard index of every original cell.
    pub cell_shard: Vec<usize>,
}

impl PartitionedNetlist {
    /// Total boundary bits exchanged per virtual cycle (all links).
    #[must_use]
    pub fn cut_bits(&self) -> usize {
        self.links.iter().map(|l| l.bits).sum()
    }

    /// Number of shards.
    #[must_use]
    pub fn parts(&self) -> usize {
        self.shards.len()
    }

    /// Links that lie on a cycle of the shard graph; zero means the
    /// shards form a pipeline (a DAG).
    #[must_use]
    pub fn feedback_links(&self) -> usize {
        self.links.iter().filter(|l| l.feedback).count()
    }

    /// FNV-1a fingerprint of the cut's observable structure: shard
    /// count, per-shard cell counts and port lists, and the full link
    /// schedule including each link's forward/feedback class.
    ///
    /// A worker process rebuilds its shard independently from
    /// `(design, parts)` command-line arguments; the coordinator
    /// compares fingerprints at admission so a worker launched against
    /// a different design, part count, or partitioner version is
    /// rejected before it can feed wrong boundary values into the
    /// lockstep.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        use dwt_rtl::bytes::{fnv1a, hash_seed};
        fn word(h: u64, v: u64) -> u64 {
            fnv1a(h, &v.to_le_bytes())
        }
        fn name(h: u64, s: &str) -> u64 {
            fnv1a(fnv1a(h, s.as_bytes()), &[0])
        }
        let mut h = hash_seed();
        h = word(h, self.shards.len() as u64);
        for shard in &self.shards {
            h = word(h, shard.cells.len() as u64);
            h = word(h, shard.inputs.len() as u64);
            h = word(h, shard.outputs.len() as u64);
        }
        for shard in &self.shards {
            for port in shard.inputs.iter().chain(&shard.outputs) {
                h = name(h, port);
            }
        }
        h = word(h, self.links.len() as u64);
        for link in &self.links {
            h = word(h, link.from as u64);
            h = word(h, link.to as u64);
            h = word(h, link.bits as u64);
            h = word(h, u64::from(link.feedback));
            for port in &link.ports {
                h = name(h, port);
            }
        }
        h
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind { parent: (0..n).collect() }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins, so cluster identity is
            // stable across runs.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Whether this cell's outputs may legally cross a shard boundary.
fn cut_legal(kind: &CellKind) -> bool {
    matches!(kind, CellKind::Register { .. } | CellKind::Constant { .. })
}

/// The output bus a cut cell exports (registers and constants have
/// exactly one output bus).
fn cut_bus(kind: &CellKind) -> Option<Bus> {
    match kind {
        CellKind::Register { q, .. } => Some(q.clone()),
        CellKind::Constant { out, .. } => Some(out.clone()),
        _ => None,
    }
}

/// Splits `netlist` into `parts` shards. See the module docs for the
/// algorithm.
///
/// # Errors
///
/// * [`PartitionError::BadPartCount`] for `parts == 0`.
/// * [`PartitionError::TooFewClusters`] when the netlist's
///   combinational clusters cannot populate `parts` non-empty shards.
/// * [`PartitionError::Rtl`] if a shard fails re-validation (a bug in
///   the pass, not in the input).
pub fn partition(
    netlist: &Netlist,
    parts: usize,
    opts: &CutOptions,
) -> Result<PartitionedNetlist, PartitionError> {
    if parts == 0 {
        return Err(PartitionError::BadPartCount { parts });
    }
    let n_cells = netlist.cell_count();
    if n_cells == 0 {
        return Err(PartitionError::TooFewClusters { clusters: 0, parts });
    }

    // 1. Clusters: weld comb-driven nets end to end.
    let mut uf = UnionFind::new(n_cells);
    for net in 0..netlist.net_count() {
        let net = NetId::from_index(net);
        let Some(driver) = netlist.driver(net) else { continue };
        if cut_legal(&netlist.cell(driver).kind) {
            continue;
        }
        for &reader in netlist.fanout(net) {
            uf.union(driver.index(), reader.index());
        }
    }
    // Comb-driven bits of one output port must settle in one shard, so
    // the port has a single authoritative observer.
    for port in netlist.ports().values() {
        if port.direction != PortDirection::Output {
            continue;
        }
        let mut first: Option<usize> = None;
        for &bit in port.bus.bits() {
            let Some(driver) = netlist.driver(bit) else { continue };
            if cut_legal(&netlist.cell(driver).kind) {
                continue;
            }
            match first {
                None => first = Some(driver.index()),
                Some(f) => uf.union(f, driver.index()),
            }
        }
    }

    // 2. Order clusters by the L004 stage potentials.
    let stages = balance::net_stages(netlist, &opts.lint_config);
    let schedule_pinned = stages.is_some();
    let mut cluster_of_root: BTreeMap<usize, usize> = BTreeMap::new();
    let mut clusters: Vec<Vec<CellId>> = Vec::new();
    for i in 0..n_cells {
        let root = uf.find(i);
        let slot = *cluster_of_root.entry(root).or_insert_with(|| {
            clusters.push(Vec::new());
            clusters.len() - 1
        });
        clusters[slot].push(CellId::from_index(i));
    }
    if clusters.len() < parts {
        return Err(PartitionError::TooFewClusters { clusters: clusters.len(), parts });
    }
    let cluster_key = |cluster: &[CellId]| -> (i64, usize) {
        let stage = stages
            .as_ref()
            .and_then(|s| {
                cluster
                    .iter()
                    .flat_map(|&id| netlist.cell(id).kind.output_nets())
                    .filter_map(|net| s[net.index()])
                    .min()
            })
            .unwrap_or(i64::MAX);
        let first_cell = cluster.first().map_or(usize::MAX, |c| c.index());
        (stage, first_cell)
    };
    clusters.sort_by_key(|c| cluster_key(c));

    // 3. Pairwise crossing weights between clusters: one unit per
    // (boundary net, reading cluster) pair — the bits a cut between
    // the two would exchange every cycle.
    let m = clusters.len();
    let mut cluster_of_cell = vec![0usize; n_cells];
    for (ci, cluster) in clusters.iter().enumerate() {
        for &id in cluster {
            cluster_of_cell[id.index()] = ci;
        }
    }
    let mut weight = vec![vec![0u64; m]; m];
    for net in 0..netlist.net_count() {
        let net = NetId::from_index(net);
        let Some(driver) = netlist.driver(net) else { continue };
        let from = cluster_of_cell[driver.index()];
        let mut readers: BTreeSet<usize> =
            netlist.fanout(net).iter().map(|&r| cluster_of_cell[r.index()]).collect();
        readers.remove(&from);
        for to in readers {
            weight[from][to] += 1;
        }
    }

    // 4. Contiguous min-cut DP, maximizing kept (intra-group) weight
    // under a balance cap; the cap relaxes if cluster granularity
    // makes it infeasible.
    let sizes: Vec<usize> = clusters.iter().map(Vec::len).collect();
    let total: usize = sizes.iter().sum();
    let mut cap =
        (((total as f64) / (parts as f64)).ceil() * (1.0 + opts.balance_tolerance)).ceil() as usize;
    let boundaries = loop {
        if let Some(b) = chain_split(&weight, &sizes, parts, cap) {
            break b;
        }
        if cap >= total {
            return Err(PartitionError::UnbalancedCut {
                detail: format!("no {parts}-way split of {m} clusters exists"),
            });
        }
        cap = (cap * 2).min(total);
    };

    let mut cell_shard = vec![0usize; n_cells];
    let mut shard_cells: Vec<Vec<CellId>> = vec![Vec::new(); parts];
    for (g, window) in boundaries.windows(2).enumerate() {
        for cluster in &clusters[window[0]..window[1]] {
            for &id in cluster {
                cell_shard[id.index()] = g;
            }
        }
    }
    place_constants(netlist, parts, &mut cell_shard);
    for i in 0..n_cells {
        shard_cells[cell_shard[i]].push(CellId::from_index(i));
    }

    build_shards(netlist, parts, cell_shard, shard_cells, schedule_pinned)
}

/// Moves every constant into the lowest-index shard among the cells
/// that read it (module docs, step 4). Readers are never constants, so
/// the result does not depend on visiting order. A constant that is the
/// last cell of its shard stays, so no shard empties.
fn place_constants(netlist: &Netlist, parts: usize, cell_shard: &mut [usize]) {
    let mut population = vec![0usize; parts];
    for &s in cell_shard.iter() {
        population[s] += 1;
    }
    for (i, cell) in netlist.cells().iter().enumerate() {
        if !matches!(cell.kind, CellKind::Constant { .. }) {
            continue;
        }
        let home = cell_shard[i];
        let first_reader = cell
            .kind
            .output_nets()
            .into_iter()
            .flat_map(|net| netlist.fanout(net))
            .map(|r| cell_shard[r.index()])
            .min();
        if let Some(target) = first_reader {
            if target != home && population[home] > 1 {
                population[home] -= 1;
                population[target] += 1;
                cell_shard[i] = target;
            }
        }
    }
}

/// Marks each link `feedback` iff its producer is reachable from its
/// consumer in the directed shard graph the links form.
fn classify_links(parts: usize, links: &mut [BoundaryLink]) {
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for link in links.iter() {
        succ[link.from].push(link.to);
    }
    for link in links.iter_mut() {
        let mut seen = vec![false; parts];
        let mut stack = vec![link.to];
        seen[link.to] = true;
        while let Some(s) = stack.pop() {
            for &t in &succ[s] {
                if !seen[t] {
                    seen[t] = true;
                    stack.push(t);
                }
            }
        }
        link.feedback = seen[link.from];
    }
}

/// Splits the cluster chain `0..m` into `parts` non-empty contiguous
/// groups of size ≤ `cap`, maximizing intra-group weight. Returns the
/// `parts + 1` boundary indices, or `None` if infeasible.
#[allow(clippy::needless_range_loop)] // index-coupled DP over two matrices
fn chain_split(
    weight: &[Vec<u64>],
    sizes: &[usize],
    parts: usize,
    cap: usize,
) -> Option<Vec<usize>> {
    let m = sizes.len();
    // intra[j][i] = weight kept when clusters j..i form one group.
    // Built incrementally: intra[j][i] = intra[j][i-1] + cross(j..i-1, i-1).
    let mut intra = vec![vec![0u64; m + 1]; m + 1];
    for j in 0..m {
        for i in j + 1..=m {
            let newest = i - 1;
            let mut gain = 0;
            for other in j..newest {
                gain += weight[other][newest] + weight[newest][other];
            }
            intra[j][i] = intra[j][i - 1] + gain;
        }
    }
    let group_size: Vec<usize> = {
        let mut prefix = vec![0usize; m + 1];
        for (i, &s) in sizes.iter().enumerate() {
            prefix[i + 1] = prefix[i] + s;
        }
        prefix
    };
    let fits = |j: usize, i: usize| group_size[i] - group_size[j] <= cap;

    // best[k][i]: max kept weight for first i clusters in k groups.
    let mut best = vec![vec![None::<u64>; m + 1]; parts + 1];
    let mut back = vec![vec![0usize; m + 1]; parts + 1];
    best[0][0] = Some(0);
    for k in 1..=parts {
        for i in k..=m {
            for j in k - 1..i {
                let Some(prev) = best[k - 1][j] else { continue };
                if !fits(j, i) {
                    continue;
                }
                let cand = prev + intra[j][i];
                if best[k][i].is_none_or(|b| cand > b) {
                    best[k][i] = Some(cand);
                    back[k][i] = j;
                }
            }
        }
    }
    best[parts][m]?;
    let mut bounds = vec![m];
    let mut i = m;
    for k in (1..=parts).rev() {
        i = back[k][i];
        bounds.push(i);
    }
    bounds.reverse();
    Some(bounds)
}

/// Emits the per-shard netlists, boundary ports and exchange links for
/// a fixed cell→shard assignment.
fn build_shards(
    netlist: &Netlist,
    parts: usize,
    cell_shard: Vec<usize>,
    shard_cells: Vec<Vec<CellId>>,
    schedule_pinned: bool,
) -> Result<PartitionedNetlist, PartitionError> {
    // Who owns each primary output port: the shard holding a comb
    // driver of any bit (unique by construction), else the shard of
    // the first cell-driven bit, else shard 0 (pure input pass-through).
    let mut output_owner: BTreeMap<&str, usize> = BTreeMap::new();
    for port in netlist.ports().values() {
        if port.direction != PortDirection::Output {
            continue;
        }
        let mut owner = None;
        for &bit in port.bus.bits() {
            let Some(driver) = netlist.driver(bit) else { continue };
            let shard = cell_shard[driver.index()];
            if !cut_legal(&netlist.cell(driver).kind) {
                owner = Some(shard);
                break;
            }
            owner.get_or_insert(shard);
        }
        output_owner.insert(port.name.as_str(), owner.unwrap_or(0));
    }

    // External readers of each cut-legal cell: shards (other than the
    // producer's) that read any of its output nets, through cells or
    // through owned output ports.
    let mut ext_readers: BTreeMap<CellId, BTreeSet<usize>> = BTreeMap::new();
    for net in 0..netlist.net_count() {
        let net = NetId::from_index(net);
        let Some(driver) = netlist.driver(net) else { continue };
        if !cut_legal(&netlist.cell(driver).kind) {
            continue;
        }
        let home = cell_shard[driver.index()];
        for &reader in netlist.fanout(net) {
            let shard = cell_shard[reader.index()];
            if shard != home {
                ext_readers.entry(driver).or_default().insert(shard);
            }
        }
        for port in netlist.ports().values() {
            if port.direction == PortDirection::Output && port.bus.bits().contains(&net) {
                let owner = output_owner[port.name.as_str()];
                if owner != home {
                    ext_readers.entry(driver).or_default().insert(owner);
                }
            }
        }
    }

    let cut_name = |id: CellId| format!("__cut_c{}", id.index());
    let mut cut_ports: BTreeMap<String, CutPort> = BTreeMap::new();
    for (&cell, readers) in &ext_readers {
        let bus =
            cut_bus(&netlist.cell(cell).kind).expect("ext_readers only holds cut-legal cells");
        cut_ports.insert(
            cut_name(cell),
            CutPort {
                producer: cell_shard[cell.index()],
                consumers: readers.iter().copied().collect(),
                bus,
            },
        );
    }

    // Assemble each shard's cell list and port map.
    let mut shards = Vec::with_capacity(parts);
    let mut used_primary: BTreeSet<&str> = BTreeSet::new();
    for (s, members) in shard_cells.iter().enumerate() {
        let cells: Vec<Cell> = members.iter().map(|&id| netlist.cell(id).clone()).collect();
        let mut read_nets: BTreeSet<NetId> = BTreeSet::new();
        for cell in &cells {
            read_nets.extend(cell.kind.input_nets());
        }
        let mut ports: BTreeMap<String, Port> = BTreeMap::new();
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        // Owned primary outputs (their bits count as reads: a remote
        // register feeding an owned output still needs its cut bundle).
        for port in netlist.ports().values() {
            if port.direction == PortDirection::Output && output_owner[port.name.as_str()] == s {
                read_nets.extend(port.bus.bits().iter().copied());
                ports.insert(port.name.clone(), port.clone());
                outputs.push(port.name.clone());
                used_primary.insert(port.name.as_str());
            }
        }
        // Primary inputs any of those reads touch.
        for port in netlist.ports().values() {
            if port.direction == PortDirection::Input
                && port.bus.bits().iter().any(|b| read_nets.contains(b))
            {
                ports.insert(port.name.clone(), port.clone());
                inputs.push(port.name.clone());
                used_primary.insert(port.name.as_str());
            }
        }
        // Cut bundles: exported by the producer, imported by consumers.
        for (name, cut) in &cut_ports {
            let direction = if cut.producer == s {
                PortDirection::Output
            } else if cut.consumers.contains(&s) {
                PortDirection::Input
            } else {
                continue;
            };
            ports
                .insert(name.clone(), Port { name: name.clone(), direction, bus: cut.bus.clone() });
        }
        let sub = Netlist::from_parts(cells, netlist.net_count() as u32, ports)?;
        shards.push(Shard { netlist: sub, cells: members.clone(), inputs, outputs });
    }

    // Deterministic per-edge schedule: ports in name order.
    let mut links: Vec<BoundaryLink> = Vec::new();
    for (name, cut) in &cut_ports {
        for &to in &cut.consumers {
            let from = cut.producer;
            match links.iter_mut().find(|l| l.from == from && l.to == to) {
                Some(link) => {
                    link.ports.push(name.clone());
                    link.bits += cut.bus.width();
                }
                None => links.push(BoundaryLink {
                    from,
                    to,
                    ports: vec![name.clone()],
                    bits: cut.bus.width(),
                    feedback: false,
                }),
            }
        }
    }
    links.sort_by_key(|l| (l.from, l.to));
    classify_links(parts, &mut links);

    let unused_ports: BTreeMap<String, Port> = netlist
        .ports()
        .iter()
        .filter(|(name, _)| !used_primary.contains(name.as_str()))
        .map(|(name, port)| (name.clone(), port.clone()))
        .collect();

    Ok(PartitionedNetlist {
        original: netlist.clone(),
        shards,
        links,
        cut_ports,
        unused_ports,
        schedule_pinned,
        cell_shard,
    })
}

/// Reassembles the original netlist from the shards alone: cells back
/// at their original ids, `__cut` ports dropped, primary ports merged
/// (plus any recorded unused ports), then full re-validation.
///
/// # Errors
///
/// * [`PartitionError::StitchMismatch`] if the shards do not cover
///   every original cell exactly once, or merge conflicting primary
///   ports.
/// * [`PartitionError::Rtl`] if the reassembled graph fails
///   validation.
pub fn stitch(parts: &PartitionedNetlist) -> Result<Netlist, PartitionError> {
    let n_cells = parts.cell_shard.len();
    let mut cells: Vec<Option<Cell>> = vec![None; n_cells];
    for shard in &parts.shards {
        if shard.cells.len() != shard.netlist.cell_count() {
            return Err(PartitionError::StitchMismatch {
                detail: format!(
                    "shard id map covers {} cells but the netlist holds {}",
                    shard.cells.len(),
                    shard.netlist.cell_count()
                ),
            });
        }
        for (local, &orig) in shard.cells.iter().enumerate() {
            let slot =
                cells.get_mut(orig.index()).ok_or_else(|| PartitionError::StitchMismatch {
                    detail: format!("cell id {} out of range", orig.index()),
                })?;
            if slot.is_some() {
                return Err(PartitionError::StitchMismatch {
                    detail: format!("cell id {} appears in two shards", orig.index()),
                });
            }
            *slot = Some(shard.netlist.cells()[local].clone());
        }
    }
    let cells: Vec<Cell> = cells
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            c.ok_or_else(|| PartitionError::StitchMismatch {
                detail: format!("cell id {i} missing from every shard"),
            })
        })
        .collect::<Result<_, _>>()?;

    let mut ports: BTreeMap<String, Port> = parts.unused_ports.clone();
    for shard in &parts.shards {
        for (name, port) in shard.netlist.ports() {
            if name.starts_with("__cut_") {
                continue;
            }
            match ports.get(name) {
                Some(existing) if existing != port => {
                    return Err(PartitionError::StitchMismatch {
                        detail: format!("port '{name}' differs between shards"),
                    });
                }
                Some(_) => {}
                None => {
                    ports.insert(name.clone(), port.clone());
                }
            }
        }
    }

    let net_count = parts.original.net_count() as u32;
    Ok(Netlist::from_parts(cells, net_count, ports)?)
}

#[cfg(test)]
mod tests {
    use dwt_rtl::builder::NetlistBuilder;

    use super::*;

    /// A 4-stage pipeline: x -> (+1) -> r1 -> (+1) -> r2 -> ... -> y.
    fn pipeline(stages: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        let one = b.constant(1, 8).unwrap();
        let mut bus = b.input("x", 8).unwrap();
        for s in 0..stages {
            let sum = b.carry_add(&format!("add{s}"), &bus, &one, 8).unwrap();
            bus = b.register(&format!("r{s}"), &sum).unwrap();
        }
        b.output("y", &bus).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn pipeline_splits_on_register_boundaries() {
        let netlist = pipeline(4);
        let cut = partition(&netlist, 2, &CutOptions::default()).unwrap();
        assert_eq!(cut.parts(), 2);
        assert!(cut.schedule_pinned);
        // Every boundary bundle is a register or constant output.
        for port in cut.cut_ports.values() {
            let driver = netlist.driver(port.bus.bit(0)).unwrap();
            assert!(cut_legal(&netlist.cell(driver).kind));
        }
        // Both shards validate and are non-empty.
        for shard in &cut.shards {
            assert!(shard.netlist.cell_count() > 0);
        }
        assert!(cut.cut_bits() > 0);
    }

    #[test]
    fn stitch_is_the_exact_inverse() {
        let netlist = pipeline(5);
        for parts in [1, 2, 3] {
            let cut = partition(&netlist, parts, &CutOptions::default()).unwrap();
            let back = stitch(&cut).unwrap();
            assert_eq!(back, netlist, "stitch(partition({parts})) != original");
        }
    }

    #[test]
    fn too_many_parts_is_a_typed_error() {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 4).unwrap();
        let r = b.register("r", &x).unwrap();
        b.output("y", &r).unwrap();
        let netlist = b.finish().unwrap();
        assert!(matches!(
            partition(&netlist, 9, &CutOptions::default()),
            Err(PartitionError::TooFewClusters { .. })
        ));
        assert!(matches!(
            partition(&netlist, 0, &CutOptions::default()),
            Err(PartitionError::BadPartCount { parts: 0 })
        ));
    }

    #[test]
    fn exchange_schedule_is_deterministic_and_covers_all_cuts() {
        let netlist = pipeline(6);
        let a = partition(&netlist, 3, &CutOptions::default()).unwrap();
        let b = partition(&netlist, 3, &CutOptions::default()).unwrap();
        let sched_a: Vec<_> = a.links.iter().map(|l| (l.from, l.to, l.ports.clone())).collect();
        let sched_b: Vec<_> = b.links.iter().map(|l| (l.from, l.to, l.ports.clone())).collect();
        assert_eq!(sched_a, sched_b);
        let on_links: usize = a.links.iter().map(|l| l.ports.len()).sum();
        let expected: usize = a.cut_ports.values().map(|c| c.consumers.len()).sum();
        assert_eq!(on_links, expected);
    }

    #[test]
    fn single_part_needs_no_boundary() {
        let netlist = pipeline(3);
        let cut = partition(&netlist, 1, &CutOptions::default()).unwrap();
        assert_eq!(cut.cut_bits(), 0);
        assert!(cut.cut_ports.is_empty());
        assert_eq!(stitch(&cut).unwrap(), netlist);
    }
}

//! Checkpointed streaming tile execution with a degradation ladder.
//!
//! The [`TileExecutor`] streams sample pairs through one of the paper's
//! datapaths in fixed-size **tiles**. Each tile window is the tile's
//! pairs followed by `latency + LOOKBACK` zero flush pairs, so every
//! committed coefficient emerges inside its own window and the pipeline
//! drains to a state equivalent to a freshly reset machine. Two
//! properties follow from that drain, and the whole recovery scheme
//! rests on them:
//!
//! * a [`dwt_rtl::sim::Snapshot`] taken at a tile boundary captures a
//!   drained machine, so *rollback + replay* of a tile is bit-exact;
//! * the flush outlasts the golden model's [`LOOKBACK`], so it isolates
//!   tiles from each other: a tile can be *re-dispatched* onto the TMR
//!   spare, restored to power-on, and still match the tile's golden
//!   reference, which [`dwt_arch::golden::golden_tile_into`] computes
//!   from zero history in one block pass at every tile start.
//!
//! Detection is online: duplication-with-comparison (DWC) checks every
//! flushed coefficient against the golden reference the cycle it emerges,
//! a parity-hardened primary contributes its `fault_detect` flag, and
//! the watchdog's event cap turns a non-settling (oscillating) netlist
//! into a *detected hang* instead of a wedged service. On detection the
//! tile climbs the ladder: rollback and replay on the primary (transient
//! strikes do not recur — the injector clock is monotone across
//! rollbacks), then re-dispatch to the TMR spare, then software golden
//! fallback, which cannot be wrong. Every rung, replay, recovery cycle
//! and detection latency is accounted in [`TileOutcome`]. The spare is
//! built at the first escalation, not up front, and restored to its
//! power-on snapshot at every later one.
//!
//! An executor is cloned, not rebuilt, to replicate it: a clone shares
//! its primary's netlist and compiled image, and the TMR spare's
//! datapath, with the original, whichever of them builds it first.
//!
//! On an engine with more than one lane, a fault-free run spreads a
//! large tile's first primary attempt over the lanes ([`SegmentPlan`]):
//! each lane covers one segment of the tile, warms up on the
//! [`LOOKBACK`] pairs before it and stops once its last coefficient has
//! emerged. Every lane's coefficients are DWC-checked, and an attempt
//! that leaves a coefficient uncommitted counts as a mismatch; either
//! reruns the tile on one lane. Replay, TMR, the golden fallback and
//! every faulted run keep the one-lane window.

use dwt_arch::datapath::Hardening;
use dwt_arch::designs::Design;
use dwt_arch::golden::{golden_tile_into, TileScratch, LOOKBACK};
use dwt_rtl::engine::Engine;
use dwt_rtl::fault::FaultSpec;
use dwt_rtl::netlist::Netlist;
use dwt_rtl::sim::Simulator;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::error::{Error, Result};
use crate::injector::{FaultInjector, Lane};
use crate::watchdog::WatchdogConfig;

/// The rung of the degradation ladder that finally served a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// First attempt on the primary datapath succeeded.
    Primary,
    /// The primary succeeded after at least one rollback + replay.
    Replay,
    /// The tile was re-dispatched to the TMR-hardened spare.
    Tmr,
    /// All hardware attempts failed; the software golden model served
    /// the tile (correct by definition, zero hardware throughput).
    GoldenFallback,
}

impl Rung {
    /// Stable lowercase name for reports.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Rung::Primary => "primary",
            Rung::Replay => "replay",
            Rung::Tmr => "tmr",
            Rung::GoldenFallback => "golden_fallback",
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a fault announced itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Detection {
    /// A flushed coefficient differed from the golden model (DWC).
    OutputMismatch,
    /// The parity-hardened primary raised its `fault_detect` port.
    ParityFlag,
    /// The netlist failed to settle within the watchdog's event budget
    /// (oscillation from a fighting driver), or a persistent fault
    /// diverged at injection time.
    Hang,
}

impl Detection {
    /// Stable lowercase name for reports.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Detection::OutputMismatch => "output_mismatch",
            Detection::ParityFlag => "parity_flag",
            Detection::Hang => "hang",
        }
    }
}

/// Configuration of a [`TileExecutor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Sample pairs per tile (checkpoint interval). Larger tiles
    /// amortise the flush overhead; smaller tiles bound rollback cost.
    pub tile_pairs: usize,
    /// Replay attempts on the primary before escalating to the TMR
    /// spare (the first attempt is not a replay).
    pub max_replays: u32,
    /// Hardening of the primary datapath. [`Hardening::Parity`] adds
    /// the `fault_detect` flag as a detection source.
    pub hardening: Hardening,
    /// Duplication-with-comparison on the primary: check each flushed
    /// coefficient against the golden model as it emerges. Disabling
    /// this leaves only parity/hang detection and lets silent data
    /// corruption escape — useful for measuring the SDC rate DWC
    /// prevents. The TMR spare is always checked; an unverified
    /// recovery path would be no recovery at all.
    pub dwc: bool,
    /// Watchdog limits (event budget per cycle, cycle budget per tile).
    pub watchdog: WatchdogConfig,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            tile_pairs: 64,
            max_replays: 2,
            hardening: Hardening::None,
            dwc: true,
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// The condensed verdict of one tile, derived from its accounting.
///
/// Callers that dispatch tiles onto many executors (the `dwt-pool`
/// scheduler) need a single structured answer to "what happened to this
/// tile" instead of re-deriving it from rung/detection/counter fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileStatus {
    /// First attempt on the primary committed with no detections.
    Clean,
    /// Hardware served the tile, but only after climbing to the given
    /// rung ([`Rung::Replay`] or [`Rung::Tmr`]).
    Recovered(Rung),
    /// Every hardware rung failed; the software golden model served the
    /// tile (correct data, zero hardware throughput).
    Shed,
    /// The committed output differs from the golden model — a silent
    /// data corruption escape (only possible with DWC disabled).
    SilentCorruption,
}

impl TileStatus {
    /// Whether the lane's hardware served the tile (any rung short of
    /// the golden fallback) with correct data.
    #[must_use]
    pub fn hardware_served(&self) -> bool {
        matches!(self, TileStatus::Clean | TileStatus::Recovered(_))
    }

    /// Stable lowercase name for reports.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            TileStatus::Clean => "clean",
            TileStatus::Recovered(Rung::Replay) => "recovered_replay",
            TileStatus::Recovered(_) => "recovered_tmr",
            TileStatus::Shed => "shed",
            TileStatus::SilentCorruption => "silent_corruption",
        }
    }
}

/// Accounting for one executed tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileOutcome {
    /// Tile position in the stream.
    pub index: usize,
    /// Sample pairs the tile committed.
    pub pairs: usize,
    /// The ladder rung that served the tile.
    pub rung: Rung,
    /// Every detection event, in order, across all attempts.
    pub detections: Vec<Detection>,
    /// Replay attempts performed (0 when the first attempt committed).
    pub replays: u32,
    /// Fault-free cost of the tile window: pairs + flush cycles.
    pub nominal_cycles: u64,
    /// Cycles burnt in failed attempts before the committing one.
    pub recovery_cycles: u64,
    /// Cycles into the failing attempt when the tile's first detection
    /// fired (`None` for a clean tile).
    pub detection_latency: Option<u64>,
    /// Whether the committed coefficients match the golden model. With
    /// DWC enabled this is true by construction; with DWC disabled a
    /// `false` here is a silent-data-corruption escape.
    pub bit_exact: bool,
}

impl TileOutcome {
    /// The condensed verdict of this tile — see [`TileStatus`].
    #[must_use]
    pub fn status(&self) -> TileStatus {
        if !self.bit_exact {
            return TileStatus::SilentCorruption;
        }
        match self.rung {
            // A Primary rung means the first attempt committed without
            // any detection, so it is always clean.
            Rung::Primary => TileStatus::Clean,
            Rung::Replay | Rung::Tmr => TileStatus::Recovered(self.rung),
            Rung::GoldenFallback => TileStatus::Shed,
        }
    }
}

/// The result of streaming a pair sequence through a [`TileExecutor`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// The design that ran the stream.
    pub design: Design,
    /// Per-tile accounting, in stream order.
    pub tiles: Vec<TileOutcome>,
    /// Committed low-pass coefficients, one per input pair.
    pub low: Vec<i64>,
    /// Committed high-pass coefficients, one per input pair.
    pub high: Vec<i64>,
}

impl StreamReport {
    /// Tiles whose committed output differs from the golden model.
    #[must_use]
    pub fn sdc_escapes(&self) -> usize {
        self.tiles.iter().filter(|t| !t.bit_exact).count()
    }

    /// Cycle-weighted hardware uptime: nominal cycles of tiles served
    /// by a hardware rung, over nominal + recovery cycles of all tiles.
    /// 1.0 for a fault-free run; golden-fallback tiles count their full
    /// window as downtime.
    #[must_use]
    pub fn availability(&self) -> f64 {
        let mut up = 0u64;
        let mut total = 0u64;
        for t in &self.tiles {
            if t.rung != Rung::GoldenFallback {
                up += t.nominal_cycles;
            }
            total += t.nominal_cycles + t.recovery_cycles;
        }
        if total == 0 {
            return 1.0;
        }
        up as f64 / total as f64
    }

    /// Extra cycles spent per nominal cycle: 0.0 for a fault-free run,
    /// 0.5 when recovery re-ran half the stream's worth of cycles.
    #[must_use]
    pub fn throughput_degradation(&self) -> f64 {
        let nominal: u64 = self.tiles.iter().map(|t| t.nominal_cycles).sum();
        let recovery: u64 = self.tiles.iter().map(|t| t.recovery_cycles).sum();
        if nominal == 0 {
            return 0.0;
        }
        recovery as f64 / nominal as f64
    }

    /// Mean cycles from attempt start to first detection, over tiles
    /// that detected anything.
    #[must_use]
    pub fn mean_detection_latency(&self) -> Option<f64> {
        let lat: Vec<u64> = self.tiles.iter().filter_map(|t| t.detection_latency).collect();
        if lat.is_empty() {
            return None;
        }
        Some(lat.iter().sum::<u64>() as f64 / lat.len() as f64)
    }

    /// How many tiles each rung served: `(primary, replay, tmr,
    /// golden_fallback)`.
    #[must_use]
    pub fn rung_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for t in &self.tiles {
            match t.rung {
                Rung::Primary => c.0 += 1,
                Rung::Replay => c.1 += 1,
                Rung::Tmr => c.2 += 1,
                Rung::GoldenFallback => c.3 += 1,
            }
        }
        c
    }
}

/// What one attempt at a tile window produced.
struct Attempt {
    /// First detection: kind and cycles into the attempt.
    detection: Option<(Detection, u64)>,
    /// Cycles the attempt consumed (the full window on success, up to
    /// the detection point on failure).
    cycles: u64,
    low: Vec<i64>,
    high: Vec<i64>,
}

/// How much shorter than the one-lane window `p + flush` a segmented
/// window must be before it is used: at most `1 / SEGMENT_MIN_GAIN` of
/// it. A 64-lane tick of the compiled engine, lane I/O included, costs
/// more than a scalar tick (about 1.5 scalar ticks on Design 5, 2.3
/// before its lane I/O stopped allocating), so a segmented window that
/// saves less than half the ticks is not worth the lanes.
const SEGMENT_MIN_GAIN: usize = 2;

/// How one tile window is spread over the primary engine's lanes.
///
/// The tile's `p` pairs are cut into `k` segments of
/// `S = ceil(p / lanes)` pairs (the last may be shorter). Lane 0 covers
/// `[0, S)` from the drained checkpoint, exactly like the one-lane
/// window. Lane `j ≥ 1` covers `[jS, (j+1)S)` but starts [`LOOKBACK`]
/// pairs early, on the tile's own preceding pairs. The drained
/// checkpoint stands for zero history, and no coefficient depends on a
/// pair more than [`LOOKBACK`] before it, so from its first coefficient
/// on each lane commits what one lane streaming the whole tile would.
/// Lanes are fed the tile's zero flush after its last pair and stop
/// once their last coefficient has emerged: `LOOKBACK + S + latency`
/// ticks. A segmented window is always followed by a restore of the
/// checkpoint, so it owes no drain. With `k = 1` there is no warm-up
/// and the window is the classic `p + flush`, which leaves the pipeline
/// drained for the next checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentPlan {
    pairs: usize,
    seg: usize,
    /// Pairs each lane `j ≥ 1` is fed before its segment.
    warmup: usize,
    /// Ticks after the last pair of a lane's segment.
    drain: usize,
}

impl SegmentPlan {
    /// The one-lane window: every pair on lane 0, then `flush` zeros.
    #[must_use]
    pub fn single(pairs: usize, flush: usize) -> Self {
        SegmentPlan { pairs, seg: pairs.max(1), warmup: 0, drain: flush }
    }

    /// The plan for a tile of `pairs` on an engine with `lanes` lanes
    /// and a datapath of the given latency: segmented when that shrinks
    /// the window to at most `1 / SEGMENT_MIN_GAIN` of the one-lane
    /// window `pairs + flush`, otherwise [`SegmentPlan::single`].
    fn choose(pairs: usize, lanes: usize, latency: usize) -> Self {
        let flush = latency + LOOKBACK;
        let seg = pairs.div_ceil(lanes.max(1)).max(1);
        let plan = SegmentPlan { pairs, seg, warmup: LOOKBACK, drain: latency };
        if plan.lanes() > 1 && SEGMENT_MIN_GAIN * plan.window() <= pairs + flush {
            plan
        } else {
            SegmentPlan::single(pairs, flush)
        }
    }

    /// Lanes the plan drives (`k`); 1 for the one-lane window.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.pairs.div_ceil(self.seg).max(1)
    }

    /// Ticks the window takes: warm-up, one segment, then the drain.
    #[must_use]
    pub fn window(&self) -> usize {
        self.warmup + self.seg + self.drain
    }

    /// Tile-relative index of the pair `lane` is fed at tick 0; negative
    /// for a warm-up that starts before the tile.
    fn start(&self, lane: usize) -> isize {
        if lane == 0 {
            0
        } else {
            (lane * self.seg) as isize - self.warmup as isize
        }
    }

    /// The coefficients `lane` commits.
    fn covers(&self, lane: usize) -> Range<usize> {
        (lane * self.seg).min(self.pairs)..((lane + 1) * self.seg).min(self.pairs)
    }

    /// The pair `lane` is fed at tick `t`: the tile's own pair, or zero
    /// before the tile and in the flush after it.
    fn input(&self, pairs: &[(i64, i64)], lane: usize, t: usize) -> (i64, i64) {
        let i = self.start(lane) + t as isize;
        usize::try_from(i).ok().and_then(|i| pairs.get(i)).copied().unwrap_or((0, 0))
    }

    /// The coefficient `lane` commits at the end of tick `t` on a
    /// datapath of the given latency, if any.
    fn emerging(&self, lane: usize, t: usize, latency: usize) -> Option<usize> {
        let m = usize::try_from(self.start(lane) + t as isize - latency as isize).ok()?;
        self.covers(lane).contains(&m).then_some(m)
    }
}

/// The TMR spare's datapath, netlist and latency, built at most once
/// for an executor and all its clones.
type SpareDatapath = Arc<OnceLock<(Arc<Netlist>, usize)>>;

/// The netlist and latency in `datapath`, building the TMR datapath of
/// `design` if nobody has yet. Two clones that both find it unbuilt
/// build it both, and keep whichever lands first.
fn spare_datapath(datapath: &SpareDatapath, design: Design) -> Result<&(Arc<Netlist>, usize)> {
    if let Some(built) = datapath.get() {
        return Ok(built);
    }
    let built = design.build_hardened(Hardening::Tmr)?;
    Ok(datapath.get_or_init(|| (Arc::new(built.netlist), built.latency)))
}

/// The TMR spare engine with its power-on snapshot: built once, at the
/// first escalation, and restored at every later one.
#[derive(Debug, Clone)]
struct Spare<E: Engine> {
    engine: E,
    initial: E::Snapshot,
    latency: usize,
}

impl<E: Engine> Spare<E> {
    /// The spare at power-on, ready for a re-dispatched tile. The first
    /// call builds the engine on the shared `datapath` (building that
    /// too, if nobody asked for it yet); later calls restore the
    /// engine's power-on snapshot, which also reverts the faults armed
    /// in it, so each escalation meets the machine a freshly built
    /// spare would be.
    fn armed<'a>(
        slot: &'a mut Option<Spare<E>>,
        datapath: &SpareDatapath,
        design: Design,
        event_cap: Option<u64>,
    ) -> Result<&'a mut Spare<E>> {
        let spare = match slot.take() {
            Some(mut spare) => {
                spare.engine.restore(&spare.initial)?;
                spare
            }
            None => {
                let (netlist, latency) = spare_datapath(datapath, design)?;
                let mut engine = E::from_netlist(Arc::clone(netlist))?;
                if let Some(cap) = event_cap {
                    engine.set_event_cap(cap);
                }
                let initial = engine.snapshot();
                Spare { engine, initial, latency: *latency }
            }
        };
        Ok(slot.insert(spare))
    }
}

/// The recovery runtime: checkpointed tile execution over one design.
///
/// Generic over the simulation [`Engine`] driving the primary datapath
/// and its TMR spare; defaults to the event-driven [`Simulator`].
/// Callers selecting the backend at runtime dispatch through
/// [`dwt_rtl::engine::Backend`] instead of naming `E` themselves.
///
/// A clone is an independent executor that starts in its original's
/// state and shares every netlist and compiled engine image with it:
/// replicate a power-on executor across lanes by cloning it.
#[derive(Debug, Clone)]
pub struct TileExecutor<E: Engine = Simulator> {
    design: Design,
    cfg: ExecutorConfig,
    latency: usize,
    primary: E,
    /// Snapshot of the freshly built (never ticked) primary, so
    /// [`TileExecutor::reset`] can re-arm the lane without paying the
    /// netlist rebuild.
    initial: E::Snapshot,
    /// The TMR spare's datapath, built on the first request for its
    /// netlist or the first escalation, and shared with every clone.
    spare_datapath: SpareDatapath,
    /// The TMR spare engine; `None` until the first escalation.
    spare: Option<Spare<E>>,
    /// Scratch for the current tile's golden reference; it keeps its
    /// capacity, so its memory is bounded by the largest tile.
    reference: TileScratch,
    /// Monotone wall-clock of executed simulator cycles, advancing
    /// through rollbacks and re-dispatches. Keys the fault injector, so
    /// a transient strike consumed by a failed attempt does not recur
    /// on replay.
    executed_cycles: u64,
    /// Segmented windows that failed DWC on a quiet run and were rerun
    /// on one lane.
    segment_fallbacks: u64,
    tile_index: usize,
}

impl<E: Engine> TileExecutor<E> {
    /// Builds the primary datapath (with the configured hardening) for
    /// `design`, on the backend named by `E`. The TMR spare is built
    /// only when it is first needed: at the first escalation, or when a
    /// caller asks [`TileExecutor::spare_netlist`] for fault sites.
    ///
    /// Callers selecting the backend at runtime go through
    /// [`dwt_rtl::engine::Backend::dispatch`](dwt_rtl::engine::Backend)
    /// instead of naming `E` themselves.
    ///
    /// # Errors
    ///
    /// Propagates datapath-generator and engine construction errors.
    pub fn new(design: Design, cfg: ExecutorConfig) -> Result<Self> {
        let primary = design.build_hardened(cfg.hardening)?;
        let mut sim = E::from_netlist(primary.netlist)?;
        if let Some(cap) = cfg.watchdog.event_cap {
            sim.set_event_cap(cap);
        }
        let initial = sim.snapshot();
        Ok(TileExecutor {
            design,
            cfg,
            latency: primary.latency,
            primary: sim,
            initial,
            spare_datapath: SpareDatapath::default(),
            spare: None,
            reference: TileScratch::default(),
            executed_cycles: 0,
            segment_fallbacks: 0,
            tile_index: 0,
        })
    }

    /// Re-arms the executor for a fresh stream without rebuilding the
    /// netlists: the primary is restored to its power-on snapshot and
    /// tile indices restart from zero.
    ///
    /// This is the lane "power-cycle" a multi-lane scheduler performs
    /// before probing a suspect lane with a canary tile. Two things
    /// deliberately survive a reset:
    ///
    /// * the **executed-cycle clock** stays monotone, so a
    ///   [`FaultInjector`] keyed on it does not replay past transients;
    /// * injector-owned persistent faults are *not* cleared here — the
    ///   restore reverts any faults armed in the simulator, but a broken
    ///   lane's injector will simply re-assert its hard faults on the
    ///   next attempt. A reset repairs state, not physics.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::Rtl`] if the power-on snapshot fails to
    /// restore (harness bug, not a detected fault).
    pub fn reset(&mut self) -> Result<()> {
        self.primary.restore(&self.initial)?;
        self.tile_index = 0;
        Ok(())
    }

    /// Fault-free cycle cost of a tile of `pairs` sample pairs on the
    /// primary: the pairs plus the zero-pad flush that drains the
    /// pipeline at the tile boundary. Schedulers use this to seed
    /// queue-depth and deadline-admission estimates before any tile has
    /// run.
    #[must_use]
    pub fn nominal_window(&self, pairs: usize) -> u64 {
        (pairs + self.flush()) as u64
    }

    /// The design this executor runs.
    #[must_use]
    pub fn design(&self) -> Design {
        self.design
    }

    /// The executor's configuration.
    #[must_use]
    pub fn config(&self) -> &ExecutorConfig {
        &self.cfg
    }

    /// The primary datapath netlist (fault-site discovery), shared with
    /// every clone of the executor.
    #[must_use]
    pub fn primary_netlist(&self) -> &Arc<Netlist> {
        self.primary.netlist()
    }

    /// The TMR spare netlist (fault-site discovery), building the spare
    /// datapath on the first call if no escalation, here or in a clone,
    /// has built it yet.
    ///
    /// # Errors
    ///
    /// [`Error::Arch`] if the TMR datapath fails to build.
    pub fn spare_netlist(&self) -> Result<&Arc<Netlist>> {
        Ok(&spare_datapath(&self.spare_datapath, self.design)?.0)
    }

    /// Engine ticks actually run so far, including failed attempts —
    /// the injector's wall clock. A segmented window counts its
    /// `LOOKBACK + S + latency` ticks, however many lanes it drives, so
    /// this is the simulation cost, not the hardware model's cycle
    /// count ([`TileOutcome::nominal_cycles`] stays `p + flush`).
    #[must_use]
    pub fn executed_cycles(&self) -> u64 {
        self.executed_cycles
    }

    /// Segmented windows whose lanes failed DWC, or left a coefficient
    /// uncommitted, on a quiet run and were rerun on one lane. Zero on
    /// the five designs; a netlist whose memory outlasts [`LOOKBACK`]
    /// pairs would count here instead of committing a wrong segment.
    #[must_use]
    pub fn segment_fallbacks(&self) -> u64 {
        self.segment_fallbacks
    }

    /// The window plan for the first primary attempt at a tile of
    /// `pairs` on a quiet run: segmented over the engine's lanes when
    /// DWC is on and segmenting at least halves the window,
    /// otherwise the one-lane window. Faulted runs always use
    /// [`SegmentPlan::single`].
    #[must_use]
    pub fn segment_plan(&self, pairs: usize) -> SegmentPlan {
        if self.cfg.dwc {
            SegmentPlan::choose(pairs, self.primary.caps().lanes, self.latency)
        } else {
            SegmentPlan::single(pairs, self.flush())
        }
    }

    /// Zero-pad flush length of the primary window: the last pair still
    /// reaches the coefficient [`LOOKBACK`] pairs later, which emerges
    /// `latency` ticks after that; past it nothing in the pipeline
    /// depends on the tile.
    fn flush(&self) -> usize {
        self.latency + LOOKBACK
    }

    /// Runs a whole pair stream tile by tile.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyTile`] for an empty stream; otherwise harness
    /// failures only — detected faults are recovery, not errors.
    pub fn run_stream(
        &mut self,
        pairs: &[(i64, i64)],
        injector: &mut dyn FaultInjector,
    ) -> Result<StreamReport> {
        if pairs.is_empty() {
            return Err(Error::EmptyTile);
        }
        let mut tiles = Vec::new();
        let mut low = Vec::with_capacity(pairs.len());
        let mut high = Vec::with_capacity(pairs.len());
        for tile in pairs.chunks(self.cfg.tile_pairs.max(1)) {
            let (outcome, l, h) = self.run_tile(tile, injector)?;
            tiles.push(outcome);
            low.extend(l);
            high.extend(h);
        }
        Ok(StreamReport { design: self.design, tiles, low, high })
    }

    /// Executes one tile through the ladder, returning its outcome and
    /// committed coefficients.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyTile`] when `pairs` is empty; harness failures
    /// otherwise.
    pub fn run_tile(
        &mut self,
        pairs: &[(i64, i64)],
        injector: &mut dyn FaultInjector,
    ) -> Result<(TileOutcome, Vec<i64>, Vec<i64>)> {
        let p = pairs.len();
        let plan = if injector.quiet() {
            self.segment_plan(p)
        } else {
            SegmentPlan::single(p, self.flush())
        };
        self.run_planned(pairs, injector, plan)
    }

    /// [`TileExecutor::run_tile`] with the first primary attempt laid
    /// out by `plan`.
    fn run_planned(
        &mut self,
        pairs: &[(i64, i64)],
        injector: &mut dyn FaultInjector,
        mut plan: SegmentPlan,
    ) -> Result<(TileOutcome, Vec<i64>, Vec<i64>)> {
        if pairs.is_empty() {
            return Err(Error::EmptyTile);
        }
        let p = pairs.len();
        let flush = self.flush();
        let window = (p + flush) as u64;

        // Checkpoint: the drained simulator state.
        let snap = self.primary.snapshot();

        // Reference pass: the tile from zero history. The flush (longer
        // than the model's LOOKBACK) makes the window's coefficients
        // independent of anything before the checkpoint, which is what
        // licenses replay and re-dispatch.
        let (exp_low, exp_high) = golden_tile_into(pairs, &mut self.reference);

        let parity = self.cfg.hardening == Hardening::Parity;
        let mut detections = Vec::new();
        let mut replays = 0u32;
        let mut recovery = 0u64;
        let mut detection_latency = None;
        let mut tile_cycles = 0u64;
        let mut committed: Option<(Rung, Vec<i64>, Vec<i64>)> = None;

        // Rungs 1–2: primary, then rollback + replay.
        let mut attempt = 0u32;
        loop {
            if attempt > 0 {
                self.primary.restore(&snap)?;
            }
            let persistent = injector.persistent(Lane::Primary);
            let out = run_attempt(
                &mut self.primary,
                Lane::Primary,
                self.latency,
                pairs,
                &plan,
                self.cfg.dwc.then_some((exp_low, exp_high)),
                parity,
                &persistent,
                &mut self.executed_cycles,
                injector,
            )?;
            if plan.lanes() > 1 {
                // Lanes stop partway through the tile, not drained: park
                // the primary back at the checkpoint either way. A lane
                // mismatch, or a coefficient left uncommitted, on a quiet
                // run is no fault; the tile reruns on one lane as its
                // first attempt.
                self.primary.restore(&snap)?;
                if out.detection.is_some() {
                    self.segment_fallbacks += 1;
                    plan = SegmentPlan::single(p, flush);
                    continue;
                }
            }
            tile_cycles += out.cycles;
            match out.detection {
                None => {
                    let rung = if attempt == 0 { Rung::Primary } else { Rung::Replay };
                    committed = Some((rung, out.low, out.high));
                    break;
                }
                Some((kind, at)) => {
                    detections.push(kind);
                    detection_latency.get_or_insert(at);
                    recovery += out.cycles;
                    if attempt >= self.cfg.max_replays || tile_cycles >= self.cfg.watchdog.budget()
                    {
                        break;
                    }
                    attempt += 1;
                    replays += 1;
                }
            }
        }

        // Rung 3: re-dispatch to the TMR spare at power-on. The drained
        // checkpoint makes the spare's zero history equivalent to the
        // primary's, so its outputs align with the same golden window.
        if committed.is_none() {
            let spare = Spare::armed(
                &mut self.spare,
                &self.spare_datapath,
                self.design,
                self.cfg.watchdog.event_cap,
            )?;
            let persistent = injector.persistent(Lane::Tmr);
            let out = run_attempt(
                &mut spare.engine,
                Lane::Tmr,
                spare.latency,
                pairs,
                &SegmentPlan::single(p, spare.latency + LOOKBACK),
                // The recovery path is always checked: an unverified
                // spare could silently commit a corrupt tile.
                Some((exp_low, exp_high)),
                false,
                &persistent,
                &mut self.executed_cycles,
                injector,
            )?;
            match out.detection {
                None => committed = Some((Rung::Tmr, out.low, out.high)),
                Some((kind, at)) => {
                    detections.push(kind);
                    detection_latency.get_or_insert(at);
                    recovery += out.cycles;
                }
            }
        }

        // Rung 4: software golden fallback — correct by definition.
        let (rung, low, high) = committed
            .unwrap_or_else(|| (Rung::GoldenFallback, exp_low.to_vec(), exp_high.to_vec()));

        // Failed hardware attempts left the primary mid-window (or a
        // spare served the tile): park it back at the drained
        // checkpoint so the next tile starts clean. A persistent
        // primary fault then simply re-detects next tile.
        if matches!(rung, Rung::Tmr | Rung::GoldenFallback) {
            self.primary.restore(&snap)?;
        }

        // Independent SDC audit, deliberately not gated on `dwc`.
        let bit_exact = low == exp_low && high == exp_high;

        let outcome = TileOutcome {
            index: self.tile_index,
            pairs: p,
            rung,
            detections,
            replays,
            nominal_cycles: window,
            recovery_cycles: recovery,
            detection_latency,
            bit_exact,
        };
        self.tile_index += 1;
        Ok((outcome, low, high))
    }
}

/// Inject one fault, folding a settle divergence into a hang detection.
fn inject_classified<E: Engine>(sim: &mut E, spec: &FaultSpec) -> Result<Option<Detection>> {
    match sim.inject(spec) {
        Ok(()) => Ok(None),
        Err(dwt_rtl::Error::SimulationDiverged { .. }) => Ok(Some(Detection::Hang)),
        Err(e) => Err(Error::Rtl(e)),
    }
}

/// One attempt at a tile window laid out by `plan`: feed every lane its
/// pairs + flush zeros, inject the injector's arrivals as they fall
/// due, compare each committed coefficient online, stop at the first
/// detection. A window that ends before every coefficient has emerged
/// is a [`Detection::OutputMismatch`] too: the coefficients it never
/// saw would otherwise commit as zeros. A one-lane plan drives the
/// scalar verbs, so it runs on every backend; a segmented plan drives
/// the lane verbs.
#[allow(clippy::too_many_arguments)]
fn run_attempt<E: Engine>(
    sim: &mut E,
    lane: Lane,
    latency: usize,
    pairs: &[(i64, i64)],
    plan: &SegmentPlan,
    expect: Option<(&[i64], &[i64])>,
    parity: bool,
    persistent: &[FaultSpec],
    executed_cycles: &mut u64,
    injector: &mut dyn FaultInjector,
) -> Result<Attempt> {
    let p = pairs.len();
    let k = plan.lanes();
    let mut low = vec![0; p];
    let mut high = vec![0; p];
    let mut even = vec![0; k];
    let mut odd = vec![0; k];
    let (mut flag, mut l, mut h) = (Vec::new(), Vec::new(), Vec::new());
    let mut emerged = 0;

    // Re-assert the lane's hard faults: the rollback reverted them
    // along with the machine state, but a broken wire stays broken.
    for spec in persistent {
        if let Some(d) = inject_classified(sim, spec)? {
            return Ok(Attempt { detection: Some((d, 0)), cycles: 0, low, high });
        }
    }

    for t in 0..plan.window() {
        let mut detected: Option<Detection> = None;
        for spec in injector.arrivals(*executed_cycles, lane) {
            if let Some(d) = inject_classified(sim, &spec.strike_at(sim.cycle()))? {
                detected = Some(d);
            }
        }
        if detected.is_none() {
            for j in 0..k {
                (even[j], odd[j]) = plan.input(pairs, j, t);
            }
            if k == 1 {
                sim.set_input("in_even", even[0]).map_err(Error::Rtl)?;
                sim.set_input("in_odd", odd[0]).map_err(Error::Rtl)?;
            } else {
                sim.set_input_lanes("in_even", &even).map_err(Error::Rtl)?;
                sim.set_input_lanes("in_odd", &odd).map_err(Error::Rtl)?;
            }
            match sim.try_tick() {
                Ok(()) => {}
                Err(dwt_rtl::Error::SimulationDiverged { .. }) => {
                    detected = Some(Detection::Hang);
                }
                Err(e) => return Err(Error::Rtl(e)),
            }
        }
        *executed_cycles += 1;
        let cycles = (t + 1) as u64;
        let fail =
            |d: Detection, low, high| Attempt { detection: Some((d, cycles)), cycles, low, high };

        if let Some(d) = detected {
            return Ok(fail(d, low, high));
        }
        if parity && read(sim, "fault_detect", k, &mut flag)?.iter().any(|&f| f != 0) {
            return Ok(fail(Detection::ParityFlag, low, high));
        }
        // At the end of tick t a lane's outputs hold the coefficient of
        // the pair it was fed `latency` ticks earlier.
        if t < latency {
            continue;
        }
        read(sim, "low", k, &mut l)?;
        read(sim, "high", k, &mut h)?;
        for j in 0..k {
            let Some(m) = plan.emerging(j, t, latency) else { continue };
            if let Some((el, eh)) = expect {
                if l[j] != el[m] || h[j] != eh[m] {
                    return Ok(fail(Detection::OutputMismatch, low, high));
                }
            }
            low[m] = l[j];
            high[m] = h[j];
            emerged += 1;
        }
    }

    let cycles = plan.window() as u64;
    let detection = (emerged < p).then_some((Detection::OutputMismatch, cycles));
    Ok(Attempt { detection, cycles, low, high })
}

/// Reads a port on the first `k` lanes into `buf`: the scalar `peek`
/// for one lane, the lane verb otherwise.
fn read<'a, E: Engine>(sim: &E, port: &str, k: usize, buf: &'a mut Vec<i64>) -> Result<&'a [i64]> {
    if k == 1 {
        buf.clear();
        buf.push(sim.peek(port)?);
    } else {
        *buf = sim.peek_lanes(port)?;
    }
    Ok(&buf[..k])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injector::{NoFaults, ScriptedFaults};
    use crate::seu::PoissonSeu;
    use dwt_arch::golden::{golden_tile, still_tone_pairs, GoldenStream};
    use dwt_rtl::compile::CompiledEngine;

    /// The names of the netlist's register cells, in cell order.
    fn registers(netlist: &Netlist) -> impl Iterator<Item = String> + '_ {
        netlist.cells().iter().filter_map(|c| match &c.kind {
            dwt_rtl::cell::CellKind::Register { .. } => Some(c.name.clone()),
            _ => None,
        })
    }

    /// The name of the netlist's first register cell.
    fn first_register(netlist: &Netlist) -> String {
        registers(netlist).next().unwrap()
    }

    /// A hard stuck-at-1 on bit 0 of `net`.
    fn stuck(net: String) -> FaultSpec {
        FaultSpec::StuckAt { net, bit: 0, value: true }
    }

    fn small_cfg() -> ExecutorConfig {
        ExecutorConfig { tile_pairs: 16, ..ExecutorConfig::default() }
    }

    #[test]
    fn fault_free_stream_matches_golden_on_every_design() {
        let pairs = still_tone_pairs(48, 7);
        for d in Design::all() {
            let mut exec = TileExecutor::<Simulator>::new(d, small_cfg()).unwrap();
            let report = exec.run_stream(&pairs, &mut NoFaults).unwrap();
            assert_eq!(report.tiles.len(), 3, "{d}");
            assert_eq!(report.low.len(), 48, "{d}");
            assert_eq!(report.sdc_escapes(), 0, "{d}");
            assert!(report.tiles.iter().all(|t| t.rung == Rung::Primary), "{d}");
            assert!((report.availability() - 1.0).abs() < 1e-12, "{d}");
            assert_eq!(report.throughput_degradation(), 0.0, "{d}");
            assert_eq!(report.mean_detection_latency(), None, "{d}");
        }
    }

    #[test]
    fn committed_stream_equals_tiled_golden_reference() {
        // The tile transform is *tile-independent* (each window is
        // drained with flush zeros, like JPEG2000 tile boundaries), so
        // the reference is a golden stream fed the same tiled way. The
        // hardware must match it bit-exactly across every boundary.
        let pairs = still_tone_pairs(40, 3);
        let mut exec = TileExecutor::<Simulator>::new(Design::D3, small_cfg()).unwrap();
        let flush = exec.flush();
        let report = exec.run_stream(&pairs, &mut NoFaults).unwrap();

        let mut golden = GoldenStream::default();
        let mut exp_low = Vec::new();
        let mut exp_high = Vec::new();
        for tile in pairs.chunks(16) {
            let base = golden.pairs_pushed();
            for &(e, o) in tile {
                golden.push(e, o);
            }
            for _ in 0..flush {
                golden.push(0, 0);
            }
            exp_low.extend_from_slice(&golden.low()[base..base + tile.len()]);
            exp_high.extend_from_slice(&golden.high()[base..base + tile.len()]);
        }
        assert_eq!(report.low, exp_low);
        assert_eq!(report.high, exp_high);
    }

    #[test]
    fn transient_flip_recovers_via_replay() {
        let pairs = still_tone_pairs(16, 5);
        let mut exec = TileExecutor::<Simulator>::new(Design::D2, small_cfg()).unwrap();
        // Strike a register mid-tile; the monotone injector clock means
        // the replay runs clean.
        let reg = first_register(exec.primary_netlist());
        let mut inj = ScriptedFaults {
            at: vec![(6, Lane::Primary, FaultSpec::BitFlip { register: reg, bit: 0, cycle: 0 })],
            ..ScriptedFaults::default()
        };
        let report = exec.run_stream(&pairs, &mut inj).unwrap();
        assert_eq!(report.tiles.len(), 1);
        let tile = &report.tiles[0];
        assert_eq!(tile.rung, Rung::Replay, "detections: {:?}", tile.detections);
        assert_eq!(tile.replays, 1);
        assert!(tile.detections.contains(&Detection::OutputMismatch));
        assert!(tile.recovery_cycles > 0);
        assert!(tile.detection_latency.is_some());
        assert!(tile.bit_exact);
        assert_eq!(report.sdc_escapes(), 0);
        assert!(report.availability() < 1.0);
    }

    #[test]
    fn hard_primary_fault_escalates_to_tmr_spare() {
        let pairs = still_tone_pairs(16, 5);
        let mut exec = TileExecutor::<Simulator>::new(Design::D1, small_cfg()).unwrap();
        let reg = first_register(exec.primary_netlist());
        let mut inj = ScriptedFaults {
            hard_primary: vec![FaultSpec::StuckAt { net: reg, bit: 0, value: true }],
            ..ScriptedFaults::default()
        };
        let report = exec.run_stream(&pairs, &mut inj).unwrap();
        let tile = &report.tiles[0];
        assert_eq!(tile.rung, Rung::Tmr, "detections: {:?}", tile.detections);
        assert_eq!(tile.replays, exec.config().max_replays);
        assert!(tile.bit_exact);
        assert_eq!(report.sdc_escapes(), 0);
        // The second tile hits the same persistent fault again:
        // degraded mode, still correct.
        assert!(report.availability() < 1.0);
    }

    #[test]
    fn common_mode_hard_faults_reach_golden_fallback() {
        let pairs = still_tone_pairs(16, 5);
        let mut exec = TileExecutor::<Simulator>::new(Design::D2, small_cfg()).unwrap();
        let preg = first_register(exec.primary_netlist());
        // Break all three TMR replicas of one spare register so voting
        // cannot mask it.
        let spare_regs: Vec<String> = registers(exec.spare_netlist().unwrap()).take(3).collect();
        assert_eq!(spare_regs.len(), 3);
        let mut inj = ScriptedFaults {
            hard_primary: vec![FaultSpec::StuckAt { net: preg, bit: 0, value: true }],
            hard_tmr: spare_regs
                .into_iter()
                .map(|net| FaultSpec::StuckAt { net, bit: 0, value: true })
                .collect(),
            ..ScriptedFaults::default()
        };
        let report = exec.run_stream(&pairs, &mut inj).unwrap();
        let tile = &report.tiles[0];
        assert_eq!(tile.rung, Rung::GoldenFallback, "detections: {:?}", tile.detections);
        // The fallback serves golden data, so it is still bit-exact and
        // not an SDC escape — but the hardware was down.
        assert!(tile.bit_exact);
        assert_eq!(report.sdc_escapes(), 0);
        assert_eq!(report.rung_counts().3, 1);
    }

    #[test]
    fn dwc_off_lets_sdc_escape_and_the_audit_counts_it() {
        let pairs = still_tone_pairs(16, 5);
        let cfg = ExecutorConfig { dwc: false, ..small_cfg() };
        let mut exec = TileExecutor::<Simulator>::new(Design::D2, cfg).unwrap();
        let reg = first_register(exec.primary_netlist());
        let mut inj = ScriptedFaults {
            hard_primary: vec![FaultSpec::StuckAt { net: reg, bit: 0, value: true }],
            ..ScriptedFaults::default()
        };
        let report = exec.run_stream(&pairs, &mut inj).unwrap();
        // Without DWC nothing notices the corruption online...
        assert_eq!(report.tiles[0].rung, Rung::Primary);
        assert!(report.tiles[0].detections.is_empty());
        // ...but the independent audit does.
        assert_eq!(report.sdc_escapes(), report.tiles.len());
    }

    #[test]
    fn parity_hardened_primary_raises_its_flag() {
        let pairs = still_tone_pairs(16, 5);
        let cfg = ExecutorConfig { hardening: Hardening::Parity, dwc: false, ..small_cfg() };
        let mut exec = TileExecutor::<Simulator>::new(Design::D2, cfg).unwrap();
        let reg = first_register(exec.primary_netlist());
        let mut inj = ScriptedFaults {
            at: vec![(4, Lane::Primary, FaultSpec::BitFlip { register: reg, bit: 0, cycle: 0 })],
            ..ScriptedFaults::default()
        };
        let report = exec.run_stream(&pairs, &mut inj).unwrap();
        let tile = &report.tiles[0];
        assert!(
            tile.detections.contains(&Detection::ParityFlag),
            "detections: {:?}",
            tile.detections
        );
        assert!(tile.bit_exact);
        assert_eq!(report.sdc_escapes(), 0);
    }

    #[test]
    fn reset_rearms_without_rebuilding() {
        let pairs = still_tone_pairs(24, 11);
        let mut exec = TileExecutor::<Simulator>::new(Design::D3, small_cfg()).unwrap();
        let first = exec.run_stream(&pairs, &mut NoFaults).unwrap();
        let cycles_after_first = exec.executed_cycles();
        assert!(cycles_after_first > 0);

        // Re-arm and run the same stream again: bit-identical output,
        // tile indices restart, but the injector clock stays monotone.
        exec.reset().unwrap();
        let second = exec.run_stream(&pairs, &mut NoFaults).unwrap();
        assert_eq!(second.low, first.low);
        assert_eq!(second.high, first.high);
        assert_eq!(second.tiles[0].index, 0);
        assert!(exec.executed_cycles() > cycles_after_first, "clock is monotone across resets");
    }

    #[test]
    fn status_condenses_the_outcome() {
        let pairs = still_tone_pairs(16, 5);
        let mut exec = TileExecutor::<Simulator>::new(Design::D2, small_cfg()).unwrap();
        let clean = exec.run_stream(&pairs, &mut NoFaults).unwrap();
        assert_eq!(clean.tiles[0].status(), TileStatus::Clean);
        assert!(clean.tiles[0].status().hardware_served());

        let reg = first_register(exec.primary_netlist());
        let mut inj = ScriptedFaults {
            hard_primary: vec![FaultSpec::StuckAt { net: reg, bit: 0, value: true }],
            ..ScriptedFaults::default()
        };
        exec.reset().unwrap();
        let hard = exec.run_stream(&pairs, &mut inj).unwrap();
        assert_eq!(hard.tiles[0].status(), TileStatus::Recovered(Rung::Tmr));
        assert!(hard.tiles[0].status().hardware_served());
    }

    #[test]
    fn nominal_window_is_pairs_plus_flush() {
        let exec = TileExecutor::<Simulator>::new(Design::D2, small_cfg()).unwrap();
        let report = {
            let mut e = TileExecutor::<Simulator>::new(Design::D2, small_cfg()).unwrap();
            e.run_stream(&still_tone_pairs(16, 1), &mut NoFaults).unwrap()
        };
        assert_eq!(exec.nominal_window(16), report.tiles[0].nominal_cycles);
    }

    #[test]
    fn segment_plan_commits_every_coefficient_exactly_once() {
        for (p, lanes, latency) in [
            (1, 64, 21),
            (16, 64, 21),
            (73, 64, 21),
            (1000, 64, 21),
            (1024, 64, 21),
            (4103, 64, 21),
            (1024, 256, 21),
            (333, 256, 6),
            (100, 3, 0),
        ] {
            let flush = latency + LOOKBACK;
            // The chosen plan, the one-lane plan, and the segmented plan
            // the halving rule may have turned down.
            let forced =
                SegmentPlan { pairs: p, seg: p.div_ceil(lanes), warmup: LOOKBACK, drain: latency };
            for plan in
                [SegmentPlan::choose(p, lanes, latency), SegmentPlan::single(p, flush), forced]
            {
                let mut seen = vec![0u32; p];
                for t in 0..plan.window() {
                    for j in 0..plan.lanes() {
                        if let Some(m) = plan.emerging(j, t, latency) {
                            assert!(plan.covers(j).contains(&m));
                            seen[m] += 1;
                        }
                    }
                }
                assert!(seen.iter().all(|&n| n == 1), "{plan:?}: {seen:?}");
            }
        }
    }

    #[test]
    fn one_lane_plan_is_the_classic_window() {
        for p in [1, 16, 1024] {
            let plan = SegmentPlan::single(p, 23);
            assert_eq!(plan.lanes(), 1);
            assert_eq!(plan.window(), p + 23);
            assert_eq!(plan.start(0), 0);
            assert_eq!(plan.covers(0), 0..p);
        }
        assert_eq!(SegmentPlan::choose(4096, 1, 21), SegmentPlan::single(4096, 23));
    }

    #[test]
    fn segmented_lanes_start_lookback_pairs_before_their_segment() {
        let plan = SegmentPlan::choose(1024, 64, 21);
        assert_eq!((plan.lanes(), plan.seg, plan.window()), (64, 16, 39));
        assert_eq!(plan.start(0), 0);
        assert_eq!(plan.covers(0), 0..16);
        for j in 1..64 {
            assert_eq!(plan.start(j), 16 * j as isize - 2);
            assert_eq!(plan.covers(j), 16 * j..16 * (j + 1));
        }
        // Lane 1 warms up on the tile's pairs 14 and 15; the flush after
        // the tile is zeros, and the last lane's last coefficient emerges
        // on the window's last tick.
        let pairs: Vec<(i64, i64)> = (1..=1024).map(|i| (i, -i)).collect();
        assert_eq!(plan.input(&pairs, 1, 0), (15, -15));
        assert_eq!(plan.input(&pairs, 1, 2), (17, -17));
        assert_eq!(plan.input(&pairs, 63, 2 + 15), (1024, -1024));
        assert_eq!(plan.input(&pairs, 63, 2 + 16), (0, 0));
        assert_eq!(plan.emerging(63, 38, 21), Some(1023));
        // A warm-up reaching before the tile is fed zeros, the drained
        // history.
        let short = SegmentPlan::choose(64, 64, 21);
        assert_eq!((short.lanes(), short.window()), (64, 24));
        assert_eq!(short.start(1), -1);
        assert_eq!(short.input(&pairs, 1, 0), (0, 0));
        assert_eq!(short.input(&pairs, 1, 1), (1, -1));
    }

    #[test]
    fn segmenting_must_at_least_halve_the_window() {
        // Design 5 (latency 21, flush 23): a 16-pair tile would take 24
        // ticks segmented against 39 on one lane, on either lane count.
        assert_eq!(SegmentPlan::choose(16, 64, 21).lanes(), 1);
        assert_eq!(SegmentPlan::choose(16, 256, 21).lanes(), 1);
        // 24 pairs: 24 ticks against 47, not quite half.
        assert_eq!(SegmentPlan::choose(24, 64, 21).lanes(), 1);
        assert_eq!(SegmentPlan::choose(25, 64, 21).window() * SEGMENT_MIN_GAIN, 25 + 23);
        assert_eq!(SegmentPlan::choose(1024, 64, 21).window(), 39);
        assert_eq!(SegmentPlan::choose(1024, 256, 21).window(), 27);
    }

    /// Runs one quiet tile laid out by `plan` and checks that it needed
    /// `fallbacks` one-lane reruns and still committed golden-exact
    /// coefficients on the primary.
    fn run_plan_on<E: Engine>(
        exec: &mut TileExecutor<E>,
        pairs: &[(i64, i64)],
        plan: SegmentPlan,
        fallbacks: u64,
        label: &str,
    ) {
        let before = (exec.segment_fallbacks(), exec.executed_cycles());
        let (outcome, low, high) = exec.run_planned(pairs, &mut NoFaults, plan).unwrap();
        assert_eq!(exec.segment_fallbacks() - before.0, fallbacks, "{label}");
        assert_eq!(outcome.rung, Rung::Primary, "{label}: {:?}", outcome.detections);
        assert!(outcome.detections.is_empty(), "{label}");
        assert!(outcome.bit_exact, "{label}");
        assert!((low, high) == golden_tile(pairs), "{label}: output differs");
        // A failing segmented attempt stops at its first mismatch, then
        // the tile reruns on one lane.
        let ticks = exec.executed_cycles() - before.1;
        let window = plan.window() as u64;
        if fallbacks == 0 {
            assert_eq!(ticks, window, "{label}: ticks run");
        } else {
            let rerun = exec.nominal_window(pairs.len());
            assert!(rerun < ticks && ticks <= rerun + window, "{label}: {ticks} ticks run");
        }
    }

    #[test]
    fn a_window_too_short_for_its_last_coefficient_falls_back() {
        // One tick short of the latency, each lane's last coefficient
        // never emerges. Its slot must not commit as a zero.
        let pairs = still_tone_pairs(1024, 21);
        let mut exec = TileExecutor::<CompiledEngine>::new(Design::D5, small_cfg()).unwrap();
        let plan = exec.segment_plan(1024);
        assert!(plan.lanes() > 1);
        run_plan_on(&mut exec, &pairs, plan, 0, "full drain");
        let short = SegmentPlan { drain: exec.latency - 1, ..plan };
        run_plan_on(&mut exec, &pairs, short, 1, "drain latency - 1");
        // The one-lane window is held to the same count.
        let single = SegmentPlan::single(16, exec.latency - 1);
        let (outcome, low, high) = exec.run_planned(&pairs[..16], &mut NoFaults, single).unwrap();
        assert_ne!(outcome.rung, Rung::Primary);
        assert!(outcome.detections.contains(&Detection::OutputMismatch));
        assert!(outcome.bit_exact);
        assert!((low, high) == golden_tile(&pairs[..16]));
    }

    #[test]
    fn a_warmup_shorter_than_the_lookback_falls_back_on_every_design() {
        let pairs = still_tone_pairs(1024, 5);
        for d in Design::all() {
            let mut exec = TileExecutor::<CompiledEngine>::new(d, small_cfg()).unwrap();
            let plan = exec.segment_plan(1024);
            assert!(plan.lanes() > 1, "{d}");
            let short = SegmentPlan { warmup: LOOKBACK - 1, ..plan };
            run_plan_on(&mut exec, &pairs, short, 1, &format!("{d} warm-up LOOKBACK - 1"));
            run_plan_on(&mut exec, &pairs, plan, 0, &format!("{d} warm-up LOOKBACK"));
        }
    }

    #[test]
    fn the_spare_is_built_only_when_first_needed() {
        let pairs = still_tone_pairs(32, 5);
        let mut exec = TileExecutor::<Simulator>::new(Design::D1, small_cfg()).unwrap();
        assert!(exec.spare_datapath.get().is_none() && exec.spare.is_none());
        exec.run_stream(&pairs, &mut NoFaults).unwrap();
        assert!(exec.spare_datapath.get().is_none() && exec.spare.is_none());

        // Asking for fault sites builds the netlist, not the engine.
        let cells = exec.spare_netlist().unwrap().cell_count();
        assert!(cells > exec.primary_netlist().cell_count());
        assert!(exec.spare_datapath.get().is_some() && exec.spare.is_none());

        // The first escalation builds the engine on that same netlist.
        let reg = first_register(exec.primary_netlist());
        let mut inj = ScriptedFaults {
            hard_primary: vec![FaultSpec::StuckAt { net: reg, bit: 0, value: true }],
            ..ScriptedFaults::default()
        };
        let report = exec.run_stream(&pairs, &mut inj).unwrap();
        assert!(report.tiles.iter().all(|t| t.rung == Rung::Tmr));
        let spare = exec.spare.as_ref().expect("the escalation built the spare engine");
        assert!(Arc::ptr_eq(spare.engine.netlist(), exec.spare_netlist().unwrap()));
        assert_eq!(exec.spare_netlist().unwrap().cell_count(), cells);
    }

    #[test]
    fn a_clone_builds_the_spare_datapath_for_its_original() {
        let exec = TileExecutor::<CompiledEngine>::new(Design::D2, small_cfg()).unwrap();
        let clone = exec.clone();
        assert!(Arc::ptr_eq(exec.primary_netlist(), clone.primary_netlist()));
        assert!(exec.spare_datapath.get().is_none());
        let spare = Arc::clone(clone.spare_netlist().unwrap());
        assert!(Arc::ptr_eq(exec.spare_netlist().unwrap(), &spare));
        assert!(exec.spare.is_none() && clone.spare.is_none());
    }

    /// Streams `tiles` 16-pair tiles through `exec`, power-cycling it
    /// halfway; `fresh_spare` drops the spare engine before each tile,
    /// so every escalation builds a new one.
    fn escalating_run<E: Engine>(
        mut exec: TileExecutor<E>,
        injector: &mut dyn FaultInjector,
        tiles: usize,
        fresh_spare: bool,
    ) -> (Vec<TileOutcome>, Vec<i64>, Vec<i64>, u64) {
        let pairs = still_tone_pairs(16 * tiles, 3);
        let (mut outcomes, mut low, mut high) = (Vec::new(), Vec::new(), Vec::new());
        for (i, tile) in pairs.chunks(16).enumerate() {
            if i == tiles / 2 {
                exec.reset().unwrap();
            }
            if fresh_spare {
                exec.spare = None;
            }
            let (outcome, l, h) = exec.run_tile(tile, injector).unwrap();
            outcomes.push(outcome);
            low.extend(l);
            high.extend(h);
        }
        (outcomes, low, high, exec.executed_cycles())
    }

    fn reused_spare_matches_fresh_spares<E: Engine>(design: Design) {
        let run = |fresh_spare| {
            let exec = TileExecutor::<E>::new(design, small_cfg()).unwrap();
            let mut seu =
                PoissonSeu::new(exec.primary_netlist(), exec.spare_netlist().unwrap(), 0.02, 11)
                    .with_hard_faults(0.4, 0.3);
            escalating_run(exec, &mut seu, 12, fresh_spare)
        };
        let reused = run(false);
        let escalated =
            reused.0.iter().filter(|t| matches!(t.rung, Rung::Tmr | Rung::GoldenFallback)).count();
        assert!(escalated >= 4, "{design}: only {escalated} escalations");
        assert!(reused.0.iter().all(|t| t.bit_exact), "{design}");
        assert!(
            reused == run(true),
            "{design}: reused spare differs from a fresh spare per escalation"
        );
    }

    /// A power-on clone runs a faulted stream exactly like a freshly
    /// built executor and leaves its original at power-on; a clone
    /// taken mid-stream, spare engine built, then runs the rest of the
    /// stream exactly like its original.
    fn clones_run_faulted_tiles_like_fresh_executors<E: Engine>(design: Design) {
        let seu = |exec: &TileExecutor<E>| {
            PoissonSeu::new(exec.primary_netlist(), exec.spare_netlist().unwrap(), 0.02, 11)
                .with_hard_faults(0.4, 0.3)
        };
        let run = |exec: TileExecutor<E>| {
            let mut seu = seu(&exec);
            escalating_run(exec, &mut seu, 8, false)
        };
        let original = TileExecutor::<E>::new(design, small_cfg()).unwrap();
        let fresh = run(TileExecutor::new(design, small_cfg()).unwrap());
        assert!(fresh.0.iter().any(|t| t.rung != Rung::Primary), "{design}: no fault landed");
        assert!(run(original.clone()) == fresh, "{design}: a clone differs from a fresh executor");
        assert_eq!(original.executed_cycles(), 0, "{design}: the clone moved its original");
        assert!(run(original) == fresh, "{design}: the original differs after its clone ran");

        let mut exec = TileExecutor::<E>::new(design, small_cfg()).unwrap();
        let mut inj = seu(&exec);
        let pairs = still_tone_pairs(16 * 12, 3);
        let mut tiles = pairs.chunks(16);
        for tile in tiles.by_ref() {
            exec.run_tile(tile, &mut inj).unwrap();
            if exec.spare.is_some() {
                break;
            }
        }
        assert!(tiles.len() >= 4, "{design}: the first escalation came too late");
        let (mut twin, mut twin_inj) = (exec.clone(), inj.clone());
        for tile in tiles {
            let ours = exec.run_tile(tile, &mut inj).unwrap();
            assert_eq!(twin.run_tile(tile, &mut twin_inj).unwrap(), ours, "{design}");
        }
        assert_eq!(twin.executed_cycles(), exec.executed_cycles());
    }

    #[test]
    fn a_cloned_executor_runs_faulted_tiles_like_a_fresh_one() {
        clones_run_faulted_tiles_like_fresh_executors::<Simulator>(Design::D2);
        clones_run_faulted_tiles_like_fresh_executors::<CompiledEngine>(Design::D2);
        clones_run_faulted_tiles_like_fresh_executors::<CompiledEngine>(Design::D5);
    }

    #[test]
    fn a_reused_spare_matches_a_fresh_spare_per_escalation() {
        reused_spare_matches_fresh_spares::<Simulator>(Design::D2);
        reused_spare_matches_fresh_spares::<CompiledEngine>(Design::D2);
        reused_spare_matches_fresh_spares::<CompiledEngine>(Design::D5);
    }

    /// A hard primary fault that escalates every tile, plus all three
    /// replicas of one spare register broken for the first escalation
    /// only.
    struct SpareBrokenOnce {
        primary: Vec<FaultSpec>,
        spare: Vec<FaultSpec>,
    }

    impl FaultInjector for SpareBrokenOnce {
        fn arrivals(&mut self, _executed_cycle: u64, _lane: Lane) -> Vec<FaultSpec> {
            Vec::new()
        }

        fn persistent(&mut self, lane: Lane) -> Vec<FaultSpec> {
            match lane {
                Lane::Primary => self.primary.clone(),
                Lane::Tmr => std::mem::take(&mut self.spare),
            }
        }
    }

    fn reused_spare_forgets_a_failed_escalation<E: Engine>() {
        // The failed escalation leaves the spare mid-window with its
        // faults armed; the next one must meet a power-on machine.
        let run = |fresh_spare| {
            let exec = TileExecutor::<E>::new(Design::D2, small_cfg()).unwrap();
            let mut injector = SpareBrokenOnce {
                primary: vec![stuck(first_register(exec.primary_netlist()))],
                spare: registers(exec.spare_netlist().unwrap()).take(3).map(stuck).collect(),
            };
            escalating_run(exec, &mut injector, 4, fresh_spare)
        };
        let reused = run(false);
        let rungs: Vec<Rung> = reused.0.iter().map(|t| t.rung).collect();
        assert_eq!(rungs, [Rung::GoldenFallback, Rung::Tmr, Rung::Tmr, Rung::Tmr]);
        assert!(reused == run(true), "reused spare differs from a fresh spare per escalation");
    }

    #[test]
    fn a_reused_spare_forgets_a_failed_escalation() {
        reused_spare_forgets_a_failed_escalation::<Simulator>();
        reused_spare_forgets_a_failed_escalation::<CompiledEngine>();
    }

    #[test]
    fn empty_stream_is_an_error() {
        let mut exec = TileExecutor::<Simulator>::new(Design::D1, small_cfg()).unwrap();
        assert_eq!(exec.run_stream(&[], &mut NoFaults), Err(Error::EmptyTile));
    }
}

//! The Figure 4 system in hardware: memory + memory control + 1-D DWT.
//!
//! "The design of the 2D-DWT has three blocks: a 1D-DWT, memory and
//! memory control blocks." This module builds that system as one
//! netlist — a **line engine**:
//!
//! * four embedded memories (source even/odd banks, destination
//!   low/high banks),
//! * an instantiated Design 2 lifting datapath,
//! * a gate-level memory controller: pair counter, write-back counter,
//!   valid pipeline matching the datapath latency, and start/busy
//!   handshake logic built from LUTs and muxes.
//!
//! One `start` pulse transforms one line of up to [`MAX_PAIRS`] sample
//! pairs entirely in hardware; the host (standing in for the octave
//! sequencer of Figure 4) loads lines, pulses `start`, polls `busy` and
//! reads the subbands back — the boundary between the gate-level
//! controller and the host sequencer is documented in DESIGN.md.

use std::collections::BTreeMap;

use dwt_rtl::builder::NetlistBuilder;
use dwt_rtl::net::Bus;
use dwt_rtl::netlist::Netlist;
use dwt_rtl::sim::Simulator;

use crate::designs::Design;
use crate::error::{Error, Result};

/// Capacity of the line memories, in sample pairs.
pub const MAX_PAIRS: usize = 2048;

/// Zero pairs inserted between consecutive lines by the pass engine.
pub const LINE_GAP: usize = 4;

/// Address width covering [`MAX_PAIRS`] as an unsigned index, plus the
/// sign bit the bus convention requires.
const ADDR_BITS: usize = 13;

/// The line engine netlist with its metadata.
#[derive(Debug)]
pub struct LineEngine {
    /// The complete system netlist.
    pub netlist: Netlist,
    /// Latency of the embedded 1-D datapath, in cycles.
    pub datapath_latency: usize,
}

/// Builds the line engine around the given design's datapath.
///
/// # Errors
///
/// Propagates netlist-construction failures.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dwt_arch::Error> {
/// use dwt_arch::designs::Design;
/// use dwt_arch::system2d::build_line_engine;
///
/// let engine = build_line_engine(Design::D2)?;
/// assert_eq!(engine.datapath_latency, 8);
/// # Ok(())
/// # }
/// ```
pub fn build_line_engine(design: Design) -> Result<LineEngine> {
    let datapath = design.build()?;
    build_line_engine_around(&datapath.netlist, datapath.latency)
}

/// Builds a line engine around an arbitrary streaming datapath netlist
/// with the standard `in_even`/`in_odd` → `low`/`high` ports (any of
/// the five designs, the 5/3 datapath, the combined core in a fixed
/// mode, …).
///
/// # Errors
///
/// Propagates netlist-construction failures (including missing ports on
/// the supplied datapath).
pub fn build_line_engine_around(datapath: &Netlist, latency: usize) -> Result<LineEngine> {
    let mut b = NetlistBuilder::new();

    let start = b.input("start", 1)?;
    let cfg_last = b.input("cfg_last", ADDR_BITS)?;
    let gnd = b.gnd()?;
    let zero_addr = b.constant(0, ADDR_BITS)?;
    let one_addr = b.constant(1, ADDR_BITS)?;
    let zero8 = b.constant(0, 8)?;

    // --- Control state ----------------------------------------------------
    let (run, run_feed) = b.register_loop("ctl_run", 1)?;
    let (idx, idx_feed) = b.register_loop("ctl_idx", ADDR_BITS)?;
    let (widx, widx_feed) = b.register_loop("ctl_widx", ADDR_BITS)?;
    let (feed_done, feed_done_feed) = b.register_loop("ctl_feed_done", 1)?;

    let running = run.bit(0);
    let not_feed_done = b.lut("ctl_nfd", &[feed_done.bit(0)], dwt_rtl::cell::tables::NOT1)?;
    let feeding = b.lut("ctl_feeding", &[running, not_feed_done], dwt_rtl::cell::tables::AND2)?;

    // --- Source memories and datapath ---------------------------------
    let src_even = b.ram("src_even", MAX_PAIRS, 10, &idx, &zero_addr, &zero8, gnd)?;
    let src_odd = b.ram("src_odd", MAX_PAIRS, 10, &idx, &zero_addr, &zero8, gnd)?;
    let even8 = b.resize(&src_even, 8)?;
    let odd8 = b.resize(&src_odd, 8)?;
    let in_even = b.mux("feed_even", feeding, &even8, &zero8)?;
    let in_odd = b.mux("feed_odd", feeding, &odd8, &zero8)?;

    let mut conns = BTreeMap::new();
    conns.insert("in_even".to_owned(), in_even);
    conns.insert("in_odd".to_owned(), in_odd);
    let outs = b.instantiate(datapath, "dwt_", &conns)?;
    let low = outs["low"].clone();
    let high = outs["high"].clone();

    // --- Valid pipeline matching the datapath latency -----------------
    let mut valid = Bus::from(feeding);
    for i in 0..latency {
        valid = b.register(&format!("ctl_valid{i}"), &valid)?;
    }
    let wvalid = valid.bit(0);

    // --- Destination memories -----------------------------------------
    let low10 = b.resize(&low, 10)?;
    let high10 = b.resize(&high, 10)?;
    b.ram("dst_low", MAX_PAIRS, 10, &zero_addr, &widx, &low10, wvalid)?;
    b.ram("dst_high", MAX_PAIRS, 10, &zero_addr, &widx, &high10, wvalid)?;

    // --- Next-state logic ----------------------------------------------
    // idx advances while feeding; resets to 0 on start.
    let idx_inc = b.carry_add("ctl_idx_inc", &idx, &one_addr, ADDR_BITS)?;
    let idx_kept = b.mux("ctl_idx_keep", feeding, &idx_inc, &idx)?;
    let idx_next = b.mux("ctl_idx_start", start.bit(0), &zero_addr, &idx_kept)?;
    idx_feed.connect(&mut b, &idx_next)?;

    // widx advances on every committed write; resets on start.
    let widx_inc = b.carry_add("ctl_widx_inc", &widx, &one_addr, ADDR_BITS)?;
    let widx_kept = b.mux("ctl_widx_keep", wvalid, &widx_inc, &widx)?;
    let widx_next = b.mux("ctl_widx_start", start.bit(0), &zero_addr, &widx_kept)?;
    widx_feed.connect(&mut b, &widx_next)?;

    // feed_done latches when the last pair is being fed; clears on start.
    let at_last = b.eq_bus("ctl_at_last", &idx, &cfg_last)?;
    let feeding_last = b.lut("ctl_flast", &[feeding, at_last], dwt_rtl::cell::tables::AND2)?;
    let fd_set =
        b.lut("ctl_fd_or", &[feed_done.bit(0), feeding_last], dwt_rtl::cell::tables::OR2)?;
    let nstart = b.lut("ctl_nstart", &[start.bit(0)], dwt_rtl::cell::tables::NOT1)?;
    let fd_next = b.lut("ctl_fd_next", &[fd_set, nstart], dwt_rtl::cell::tables::AND2)?;
    feed_done_feed.connect(&mut b, &Bus::from(fd_next))?;

    // run sets on start, clears when the last write commits.
    let wlast = b.eq_bus("ctl_wlast", &widx, &cfg_last)?;
    let finishing = b.lut("ctl_finish", &[wvalid, wlast], dwt_rtl::cell::tables::AND2)?;
    let nfinish = b.lut("ctl_nfinish", &[finishing], dwt_rtl::cell::tables::NOT1)?;
    let run_kept = b.lut("ctl_run_keep", &[running, nfinish], dwt_rtl::cell::tables::AND2)?;
    let run_next = b.lut("ctl_run_next", &[run_kept, start.bit(0)], dwt_rtl::cell::tables::OR2)?;
    run_feed.connect(&mut b, &Bus::from(run_next))?;

    b.output("busy", &run)?;

    Ok(LineEngine { netlist: b.finish().map_err(Error::Rtl)?, datapath_latency: latency })
}

/// Host-side driver for a [`LineEngine`] simulator: loads a line, runs
/// the pass, returns the low/high coefficients — the role of Figure 4's
/// octave sequencer.
///
/// # Errors
///
/// Propagates simulator errors; returns [`Error::StimulusOutOfRange`]
/// if the line exceeds the engine's 8-bit sample input.
pub fn run_line(
    sim: &mut Simulator,
    engine: &LineEngine,
    pairs: &[(i64, i64)],
) -> Result<(Vec<i64>, Vec<i64>)> {
    assert!(pairs.len() <= MAX_PAIRS, "line too long");
    for &(even, odd) in pairs {
        for value in [even, odd] {
            if !(-128..=127).contains(&value) {
                return Err(Error::StimulusOutOfRange { node: "input", value });
            }
        }
    }
    for (i, &(even, odd)) in pairs.iter().enumerate() {
        sim.poke_ram("src_even", i, even)?;
        sim.poke_ram("src_odd", i, odd)?;
    }
    sim.set_input("cfg_last", pairs.len() as i64 - 1)?;
    sim.set_input("start", -1)?;
    sim.tick();
    sim.set_input("start", 0)?;
    sim.tick();
    let budget = pairs.len() + engine.datapath_latency + 8;
    let mut spent = 0;
    while sim.peek("busy")? != 0 {
        sim.tick();
        spent += 1;
        assert!(spent <= budget, "engine did not finish within {budget} cycles");
    }
    let mut low = Vec::with_capacity(pairs.len());
    let mut high = Vec::with_capacity(pairs.len());
    for i in 0..pairs.len() {
        low.push(sim.peek_ram("dst_low", i)?);
        high.push(sim.peek_ram("dst_high", i)?);
    }
    Ok((low, high))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::{golden_tile, still_tone_pairs};

    #[test]
    fn engine_transforms_one_line_exactly() {
        let engine = build_line_engine(Design::D2).unwrap();
        let mut sim = Simulator::new(engine.netlist.clone()).unwrap();
        let pairs = still_tone_pairs(32, 3);
        let (hw_low, hw_high) = run_line(&mut sim, &engine, &pairs).unwrap();
        let (gold_low, gold_high) = golden_tile(&pairs);
        assert_eq!(hw_low, gold_low);
        assert_eq!(hw_high, gold_high);
    }

    #[test]
    fn engine_is_reusable_across_lines() {
        // The controller must fully re-arm: run three different lines
        // back to back on one simulator instance.
        let engine = build_line_engine(Design::D2).unwrap();
        let mut sim = Simulator::new(engine.netlist.clone()).unwrap();
        for seed in [5, 9, 13] {
            let pairs = still_tone_pairs(24, seed);
            let (hw_low, hw_high) = run_line(&mut sim, &engine, &pairs).unwrap();
            let (gold_low, gold_high) = golden_tile(&pairs);
            assert_eq!(hw_low, gold_low, "seed {seed}");
            assert_eq!(hw_high, gold_high, "seed {seed}");
        }
    }

    #[test]
    fn engine_handles_variable_line_lengths() {
        let engine = build_line_engine(Design::D2).unwrap();
        let mut sim = Simulator::new(engine.netlist.clone()).unwrap();
        for len in [2usize, 5, 16, 48] {
            let pairs = still_tone_pairs(len, 7);
            let (hw_low, _) = run_line(&mut sim, &engine, &pairs).unwrap();
            let (gold_low, _) = golden_tile(&pairs);
            assert_eq!(hw_low, gold_low, "len {len}");
        }
    }

    #[test]
    fn engine_works_with_pipelined_datapath() {
        let engine = build_line_engine(Design::D3).unwrap();
        assert_eq!(engine.datapath_latency, 21);
        let mut sim = Simulator::new(engine.netlist.clone()).unwrap();
        let pairs = still_tone_pairs(20, 11);
        let (hw_low, hw_high) = run_line(&mut sim, &engine, &pairs).unwrap();
        let (gold_low, gold_high) = golden_tile(&pairs);
        assert_eq!(hw_low, gold_low);
        assert_eq!(hw_high, gold_high);
    }

    #[test]
    fn out_of_range_line_is_rejected() {
        let engine = build_line_engine(Design::D2).unwrap();
        let mut sim = Simulator::new(engine.netlist.clone()).unwrap();
        let pairs = vec![(500i64, 0i64); 4];
        assert!(matches!(
            run_line(&mut sim, &engine, &pairs),
            Err(Error::StimulusOutOfRange { .. })
        ));
    }

    #[test]
    fn engine_synthesizes() {
        use dwt_fpga::map::map_netlist;
        let engine = build_line_engine(Design::D2).unwrap();
        let m = map_netlist(&engine.netlist);
        // Datapath + controller LEs, memories on ESBs.
        assert!(m.le_count() > 400, "{}", m.le_count());
        assert!(m.breakdown.esb_bits >= 4 * MAX_PAIRS * 10);
    }
}

/// Boundary handling for [`run_line_mirrored`].
///
/// The paper (Section 2): "A simple method to eliminate this problem
/// consists in mirroring the boundaries of the samples. The amount of
/// samples mirroring depends on the depth of the low pass filter." The
/// host extends each line with four mirrored pairs per side — enough to
/// cover the 9-tap support — streams the extended line through the
/// engine, and keeps the interior coefficients; the result equals the
/// whole-sample-symmetric block transform of [`dwt_core::lifting`]
/// exactly.
pub const MIRROR_PAIRS: usize = 4;

/// Runs one line with mirrored boundary extension; the returned
/// coefficients are bit-identical to [`dwt_core::lifting::IntLifting`]'s
/// block transform of the same samples.
///
/// # Errors
///
/// As [`run_line`]; additionally the line must contain at least two
/// pairs so the mirror is well defined.
pub fn run_line_mirrored(
    sim: &mut Simulator,
    engine: &LineEngine,
    pairs: &[(i64, i64)],
) -> Result<(Vec<i64>, Vec<i64>)> {
    let n = 2 * pairs.len();
    if n < 4 {
        return Err(Error::Core(dwt_core::Error::SignalTooShort { len: n }));
    }
    let flat: Vec<i64> = pairs.iter().flat_map(|&(e, o)| [e, o]).collect();
    let m = |i: i64| flat[dwt_core::boundary::mirror(i, n)];
    // Extended signal covering indices -2E .. n + 2E.
    let e = MIRROR_PAIRS as i64;
    let extended: Vec<(i64, i64)> =
        (-e..pairs.len() as i64 + e).map(|p| (m(2 * p), m(2 * p + 1))).collect();
    let (low, high) = run_line(sim, engine, &extended)?;
    let from = MIRROR_PAIRS;
    let to = from + pairs.len();
    Ok((low[from..to].to_vec(), high[from..to].to_vec()))
}

#[cfg(test)]
mod mirror_tests {
    use super::*;
    use crate::golden::still_tone_pairs;
    use dwt_core::lifting::IntLifting;

    #[test]
    fn mirrored_run_equals_block_transform_exactly() {
        let engine = build_line_engine(Design::D2).unwrap();
        let mut sim = Simulator::new(engine.netlist.clone()).unwrap();
        for (len, seed) in [(8usize, 1u64), (16, 2), (25, 3), (40, 4)] {
            let pairs = still_tone_pairs(len, seed);
            let flat: Vec<i32> = pairs.iter().flat_map(|&(e, o)| [e as i32, o as i32]).collect();
            let block = IntLifting::default().forward(&flat).unwrap();
            let (hw_low, hw_high) = run_line_mirrored(&mut sim, &engine, &pairs).unwrap();
            let gold_low: Vec<i64> = block.low.iter().map(|&v| i64::from(v)).collect();
            let gold_high: Vec<i64> = block.high.iter().map(|&v| i64::from(v)).collect();
            assert_eq!(hw_low, gold_low, "len {len} seed {seed}");
            assert_eq!(hw_high, gold_high, "len {len} seed {seed}");
        }
    }

    #[test]
    fn too_short_line_rejected() {
        let engine = build_line_engine(Design::D2).unwrap();
        let mut sim = Simulator::new(engine.netlist.clone()).unwrap();
        assert!(run_line_mirrored(&mut sim, &engine, &[(1, 2)]).is_err());
    }
}

/// A pass engine: the line engine's controller extended with a line
/// counter and strided base registers, so one `start` pulse processes
/// an entire row or column pass (`cfg_lines` lines of `cfg_last+1`
/// pairs, the source/destination bases advancing by the configured
/// strides per line). The host's role shrinks to loading the memories,
/// configuring four registers per pass, and corner-turning between
/// passes.
#[derive(Debug)]
pub struct PassEngine {
    /// The complete system netlist.
    pub netlist: Netlist,
    /// Latency of the embedded 1-D datapath, in cycles.
    pub datapath_latency: usize,
}

/// Builds the pass engine around the given design's datapath.
///
/// # Errors
///
/// Propagates netlist-construction failures.
pub fn build_pass_engine(design: Design) -> Result<PassEngine> {
    let datapath = design.build()?;
    let latency = datapath.latency;
    let mut b = NetlistBuilder::new();

    let start = b.input("start", 1)?;
    let cfg_last = b.input("cfg_last", ADDR_BITS)?; // pairs per line - 1
    let cfg_lines = b.input("cfg_lines", ADDR_BITS)?; // line count - 1
    let cfg_stride = b.input("cfg_stride", ADDR_BITS)?; // per-line base step
    let gnd = b.gnd()?;
    let zero_addr = b.constant(0, ADDR_BITS)?;
    let one_addr = b.constant(1, ADDR_BITS)?;
    let zero8 = b.constant(0, 8)?;

    // Control state.
    let (run, run_feed) = b.register_loop("ctl_run", 1)?;
    let (idx, idx_feed) = b.register_loop("ctl_idx", ADDR_BITS)?; // pair in line
    let (line, line_feed) = b.register_loop("ctl_line", ADDR_BITS)?;
    let (base, base_feed) = b.register_loop("ctl_base", ADDR_BITS)?; // src/dst base
    let (widx, widx_feed) = b.register_loop("ctl_widx", ADDR_BITS)?;
    let (wline, wline_feed) = b.register_loop("ctl_wline", ADDR_BITS)?;
    let (wbase, wbase_feed) = b.register_loop("ctl_wbase", ADDR_BITS)?;
    let (feed_done, feed_done_feed) = b.register_loop("ctl_feed_done", 1)?;
    // Inter-line gap counter: LINE_GAP zero pairs decouple consecutive
    // lines, covering the lifting kernel's lookahead and lookback so
    // every line sees the zero history its golden model assumes.
    let (gap, gap_feed) = b.register_loop("ctl_gap", 4)?;

    let running = run.bit(0);
    let nfd = b.lut("ctl_nfd", &[feed_done.bit(0)], dwt_rtl::cell::tables::NOT1)?;
    let gap_zero = b.eq_const("ctl_gap_zero", &gap, 0)?;
    let feeding3 = b.lut(
        "ctl_feeding",
        &[running, nfd, gap_zero],
        // three-input AND
        0b1000_0000,
    )?;
    let feeding = feeding3;

    // Addresses: base + index.
    let raddr = b.carry_add("ctl_raddr", &base, &idx, ADDR_BITS)?;
    let waddr = b.carry_add("ctl_waddr", &wbase, &widx, ADDR_BITS)?;

    // Memories and datapath.
    let src_even = b.ram("src_even", MAX_PAIRS, 10, &raddr, &zero_addr, &zero8, gnd)?;
    let src_odd = b.ram("src_odd", MAX_PAIRS, 10, &raddr, &zero_addr, &zero8, gnd)?;
    let even8 = b.resize(&src_even, 8)?;
    let odd8 = b.resize(&src_odd, 8)?;
    let in_even = b.mux("feed_even", feeding, &even8, &zero8)?;
    let in_odd = b.mux("feed_odd", feeding, &odd8, &zero8)?;
    let mut conns = BTreeMap::new();
    conns.insert("in_even".to_owned(), in_even);
    conns.insert("in_odd".to_owned(), in_odd);
    let outs = b.instantiate(&datapath.netlist, "dwt_", &conns)?;

    // Valid pipeline.
    let mut valid = Bus::from(feeding);
    for i in 0..latency {
        valid = b.register(&format!("ctl_valid{i}"), &valid)?;
    }
    let wvalid = valid.bit(0);

    let low10 = b.resize(&outs["low"], 10)?;
    let high10 = b.resize(&outs["high"], 10)?;
    b.ram("dst_low", MAX_PAIRS, 10, &zero_addr, &waddr, &low10, wvalid)?;
    b.ram("dst_high", MAX_PAIRS, 10, &zero_addr, &waddr, &high10, wvalid)?;

    // --- Read-side sequencing -------------------------------------------
    let at_last = b.eq_bus("ctl_at_last", &idx, &cfg_last)?;
    let line_end = b.lut("ctl_line_end", &[feeding, at_last], dwt_rtl::cell::tables::AND2)?;
    let at_last_line = b.eq_bus("ctl_at_lline", &line, &cfg_lines)?;
    let pass_end = b.lut("ctl_pass_end", &[line_end, at_last_line], dwt_rtl::cell::tables::AND2)?;

    // idx: 0 on start or line end; +1 while feeding.
    let idx_inc = b.carry_add("ctl_idx_inc", &idx, &one_addr, ADDR_BITS)?;
    let idx_adv = b.mux("ctl_idx_adv", feeding, &idx_inc, &idx)?;
    let idx_wrap = b.mux("ctl_idx_wrap", line_end, &zero_addr, &idx_adv)?;
    let idx_next = b.mux("ctl_idx_start", start.bit(0), &zero_addr, &idx_wrap)?;
    idx_feed.connect(&mut b, &idx_next)?;

    // line/base: advance at line end; reset on start.
    let line_inc = b.carry_add("ctl_line_inc", &line, &one_addr, ADDR_BITS)?;
    let line_adv = b.mux("ctl_line_adv", line_end, &line_inc, &line)?;
    let line_next = b.mux("ctl_line_start", start.bit(0), &zero_addr, &line_adv)?;
    line_feed.connect(&mut b, &line_next)?;

    let base_inc = b.carry_add("ctl_base_inc", &base, &cfg_stride, ADDR_BITS)?;
    let base_adv = b.mux("ctl_base_adv", line_end, &base_inc, &base)?;
    let base_next = b.mux("ctl_base_start", start.bit(0), &zero_addr, &base_adv)?;
    base_feed.connect(&mut b, &base_next)?;

    // feed_done latches at pass end; clears on start.
    let fd_set = b.lut("ctl_fd_or", &[feed_done.bit(0), pass_end], dwt_rtl::cell::tables::OR2)?;
    let nstart = b.lut("ctl_nstart", &[start.bit(0)], dwt_rtl::cell::tables::NOT1)?;
    let fd_next = b.lut("ctl_fd_next", &[fd_set, nstart], dwt_rtl::cell::tables::AND2)?;
    feed_done_feed.connect(&mut b, &Bus::from(fd_next))?;

    // Gap counter: reload at each line end, count down to zero.
    let gap_reload = b.constant(LINE_GAP as i64, 4)?;
    let minus_one = b.constant(-1, 4)?;
    let gap_dec = b.carry_add("ctl_gap_dec", &gap, &minus_one, 4)?;
    let gap_held = b.mux("ctl_gap_hold", gap_zero, &gap, &gap_dec)?;
    let gap_line = b.mux("ctl_gap_line", line_end, &gap_reload, &gap_held)?;
    let zero4 = b.constant(0, 4)?;
    let gap_next = b.mux("ctl_gap_start", start.bit(0), &zero4, &gap_line)?;
    gap_feed.connect(&mut b, &gap_next)?;

    // --- Write-side sequencing (mirrors the read side, gated by wvalid) --
    let w_at_last = b.eq_bus("ctl_w_at_last", &widx, &cfg_last)?;
    let wline_end = b.lut("ctl_wline_end", &[wvalid, w_at_last], dwt_rtl::cell::tables::AND2)?;
    let w_at_lline = b.eq_bus("ctl_w_at_lline", &wline, &cfg_lines)?;
    let wpass_end =
        b.lut("ctl_wpass_end", &[wline_end, w_at_lline], dwt_rtl::cell::tables::AND2)?;

    let widx_inc = b.carry_add("ctl_widx_inc", &widx, &one_addr, ADDR_BITS)?;
    let widx_adv = b.mux("ctl_widx_adv", wvalid, &widx_inc, &widx)?;
    let widx_wrap = b.mux("ctl_widx_wrap", wline_end, &zero_addr, &widx_adv)?;
    let widx_next = b.mux("ctl_widx_start", start.bit(0), &zero_addr, &widx_wrap)?;
    widx_feed.connect(&mut b, &widx_next)?;

    let wline_inc = b.carry_add("ctl_wline_inc", &wline, &one_addr, ADDR_BITS)?;
    let wline_adv = b.mux("ctl_wline_adv", wline_end, &wline_inc, &wline)?;
    let wline_next = b.mux("ctl_wline_start", start.bit(0), &zero_addr, &wline_adv)?;
    wline_feed.connect(&mut b, &wline_next)?;

    let wbase_inc = b.carry_add("ctl_wbase_inc", &wbase, &cfg_stride, ADDR_BITS)?;
    let wbase_adv = b.mux("ctl_wbase_adv", wline_end, &wbase_inc, &wbase)?;
    let wbase_next = b.mux("ctl_wbase_start", start.bit(0), &zero_addr, &wbase_adv)?;
    wbase_feed.connect(&mut b, &wbase_next)?;

    // run: set on start, cleared when the final write commits.
    let nfinish = b.lut("ctl_nfinish", &[wpass_end], dwt_rtl::cell::tables::NOT1)?;
    let run_kept = b.lut("ctl_run_keep", &[running, nfinish], dwt_rtl::cell::tables::AND2)?;
    let run_next = b.lut("ctl_run_next", &[run_kept, start.bit(0)], dwt_rtl::cell::tables::OR2)?;
    run_feed.connect(&mut b, &Bus::from(run_next))?;

    b.output("busy", &run)?;

    Ok(PassEngine { netlist: b.finish().map_err(Error::Rtl)?, datapath_latency: latency })
}

/// Runs one whole pass (`lines` lines of `pairs_per_line` pairs) on a
/// pass-engine simulator. The source memories must already hold the
/// data, line `l` pair `i` at address `l*stride + i`; the subbands land
/// at the same addresses of the destination memories.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_pass(
    sim: &mut Simulator,
    engine: &PassEngine,
    lines: usize,
    pairs_per_line: usize,
    stride: usize,
) -> Result<()> {
    assert!(lines * stride <= MAX_PAIRS, "pass exceeds memory");
    sim.set_input("cfg_last", pairs_per_line as i64 - 1)?;
    sim.set_input("cfg_lines", lines as i64 - 1)?;
    sim.set_input("cfg_stride", stride as i64)?;
    sim.set_input("start", -1)?;
    sim.tick();
    sim.set_input("start", 0)?;
    sim.tick();
    let budget = lines * (pairs_per_line + LINE_GAP) + engine.datapath_latency * lines + 16;
    let mut spent = 0;
    while sim.peek("busy")? != 0 {
        sim.tick();
        spent += 1;
        assert!(spent <= budget, "pass did not finish within {budget} cycles");
    }
    Ok(())
}

#[cfg(test)]
mod pass_tests {
    use super::*;
    use crate::golden::{golden_tile, still_tone_pairs};

    #[test]
    fn one_pass_transforms_every_line() {
        let engine = build_pass_engine(Design::D2).unwrap();
        let mut sim = Simulator::new(engine.netlist.clone()).unwrap();
        let (lines, ppl, stride) = (5usize, 12usize, 16usize);

        let mut all: Vec<Vec<(i64, i64)>> = Vec::new();
        for l in 0..lines {
            let pairs = still_tone_pairs(ppl, 100 + l as u64);
            for (i, &(e, o)) in pairs.iter().enumerate() {
                sim.poke_ram("src_even", l * stride + i, e).unwrap();
                sim.poke_ram("src_odd", l * stride + i, o).unwrap();
            }
            all.push(pairs);
        }
        run_pass(&mut sim, &engine, lines, ppl, stride).unwrap();

        for (l, pairs) in all.iter().enumerate() {
            let (gold_low, gold_high) = golden_tile(pairs);
            for i in 0..ppl {
                assert_eq!(
                    sim.peek_ram("dst_low", l * stride + i).unwrap(),
                    gold_low[i],
                    "line {l} low[{i}]"
                );
                assert_eq!(
                    sim.peek_ram("dst_high", l * stride + i).unwrap(),
                    gold_high[i],
                    "line {l} high[{i}]"
                );
            }
        }
    }

    #[test]
    fn pass_engine_rearms() {
        let engine = build_pass_engine(Design::D2).unwrap();
        let mut sim = Simulator::new(engine.netlist.clone()).unwrap();
        for round in 0..2 {
            let pairs = still_tone_pairs(8, 50 + round);
            for (i, &(e, o)) in pairs.iter().enumerate() {
                sim.poke_ram("src_even", i, e).unwrap();
                sim.poke_ram("src_odd", i, o).unwrap();
            }
            run_pass(&mut sim, &engine, 1, 8, 8).unwrap();
            let (gold_low, _) = golden_tile(&pairs);
            for (i, &gold) in gold_low.iter().enumerate() {
                assert_eq!(sim.peek_ram("dst_low", i).unwrap(), gold, "round {round}");
            }
        }
    }
}

/// A reconstruction engine: the line engine's structure with the
/// inverse datapath inside — coefficients stream from the source
/// memories through the IDWT back into sample memories, completing the
/// decoder side of the Figure 4 system.
#[derive(Debug)]
pub struct InverseEngine {
    /// The complete system netlist.
    pub netlist: Netlist,
    /// Latency of the embedded inverse datapath, in cycles.
    pub datapath_latency: usize,
}

/// Builds the reconstruction engine around the inverse datapath.
///
/// # Errors
///
/// Propagates netlist-construction failures.
pub fn build_inverse_engine() -> Result<InverseEngine> {
    let idwt = crate::idwt::build_idwt(false)?;
    let latency = idwt.latency;
    let mut b = NetlistBuilder::new();

    let start = b.input("start", 1)?;
    let cfg_last = b.input("cfg_last", ADDR_BITS)?;
    let gnd = b.gnd()?;
    let zero_addr = b.constant(0, ADDR_BITS)?;
    let one_addr = b.constant(1, ADDR_BITS)?;
    let zero10 = b.constant(0, 10)?;
    let zero9 = b.constant(0, 9)?;

    let (run, run_feed) = b.register_loop("ctl_run", 1)?;
    let (idx, idx_feed) = b.register_loop("ctl_idx", ADDR_BITS)?;
    let (widx, widx_feed) = b.register_loop("ctl_widx", ADDR_BITS)?;
    let (feed_done, feed_done_feed) = b.register_loop("ctl_feed_done", 1)?;

    let running = run.bit(0);
    let nfd = b.lut("ctl_nfd", &[feed_done.bit(0)], dwt_rtl::cell::tables::NOT1)?;
    let feeding = b.lut("ctl_feeding", &[running, nfd], dwt_rtl::cell::tables::AND2)?;

    let src_low = b.ram("src_low", MAX_PAIRS, 10, &idx, &zero_addr, &zero10, gnd)?;
    let src_high = b.ram("src_high", MAX_PAIRS, 10, &idx, &zero_addr, &zero10, gnd)?;
    let low10 = b.resize(&src_low, 10)?;
    let high9 = b.resize(&src_high, 9)?;
    let in_low = b.mux("feed_low", feeding, &low10, &zero10)?;
    let in_high = b.mux("feed_high", feeding, &high9, &zero9)?;

    let mut conns = BTreeMap::new();
    conns.insert("in_low".to_owned(), in_low);
    conns.insert("in_high".to_owned(), in_high);
    let outs = b.instantiate(&idwt.netlist, "idwt_", &conns)?;

    let mut valid = Bus::from(feeding);
    for i in 0..latency {
        valid = b.register(&format!("ctl_valid{i}"), &valid)?;
    }
    let wvalid = valid.bit(0);

    let even10 = b.resize(&outs["out_even"], 10)?;
    let odd10 = b.resize(&outs["out_odd"], 10)?;
    b.ram("dst_even", MAX_PAIRS, 10, &zero_addr, &widx, &even10, wvalid)?;
    b.ram("dst_odd", MAX_PAIRS, 10, &zero_addr, &widx, &odd10, wvalid)?;

    let idx_inc = b.carry_add("ctl_idx_inc", &idx, &one_addr, ADDR_BITS)?;
    let idx_kept = b.mux("ctl_idx_keep", feeding, &idx_inc, &idx)?;
    let idx_next = b.mux("ctl_idx_start", start.bit(0), &zero_addr, &idx_kept)?;
    idx_feed.connect(&mut b, &idx_next)?;

    let widx_inc = b.carry_add("ctl_widx_inc", &widx, &one_addr, ADDR_BITS)?;
    let widx_kept = b.mux("ctl_widx_keep", wvalid, &widx_inc, &widx)?;
    let widx_next = b.mux("ctl_widx_start", start.bit(0), &zero_addr, &widx_kept)?;
    widx_feed.connect(&mut b, &widx_next)?;

    let at_last = b.eq_bus("ctl_at_last", &idx, &cfg_last)?;
    let feeding_last = b.lut("ctl_flast", &[feeding, at_last], dwt_rtl::cell::tables::AND2)?;
    let fd_set =
        b.lut("ctl_fd_or", &[feed_done.bit(0), feeding_last], dwt_rtl::cell::tables::OR2)?;
    let nstart = b.lut("ctl_nstart", &[start.bit(0)], dwt_rtl::cell::tables::NOT1)?;
    let fd_next = b.lut("ctl_fd_next", &[fd_set, nstart], dwt_rtl::cell::tables::AND2)?;
    feed_done_feed.connect(&mut b, &Bus::from(fd_next))?;

    let wlast = b.eq_bus("ctl_wlast", &widx, &cfg_last)?;
    let finishing = b.lut("ctl_finish", &[wvalid, wlast], dwt_rtl::cell::tables::AND2)?;
    let nfinish = b.lut("ctl_nfinish", &[finishing], dwt_rtl::cell::tables::NOT1)?;
    let run_kept = b.lut("ctl_run_keep", &[running, nfinish], dwt_rtl::cell::tables::AND2)?;
    let run_next = b.lut("ctl_run_next", &[run_kept, start.bit(0)], dwt_rtl::cell::tables::OR2)?;
    run_feed.connect(&mut b, &Bus::from(run_next))?;

    b.output("busy", &run)?;

    Ok(InverseEngine { netlist: b.finish().map_err(Error::Rtl)?, datapath_latency: latency })
}

/// Streams one coefficient line through a reconstruction-engine
/// simulator, returning the reconstructed sample pairs.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_inverse_line(
    sim: &mut Simulator,
    engine: &InverseEngine,
    coeffs: &[(i64, i64)],
) -> Result<Vec<(i64, i64)>> {
    assert!(coeffs.len() <= MAX_PAIRS, "line too long");
    for (i, &(l, h)) in coeffs.iter().enumerate() {
        sim.poke_ram("src_low", i, l)?;
        sim.poke_ram("src_high", i, h)?;
    }
    sim.set_input("cfg_last", coeffs.len() as i64 - 1)?;
    sim.set_input("start", -1)?;
    sim.tick();
    sim.set_input("start", 0)?;
    sim.tick();
    let budget = coeffs.len() + engine.datapath_latency + 8;
    let mut spent = 0;
    while sim.peek("busy")? != 0 {
        sim.tick();
        spent += 1;
        assert!(spent <= budget, "engine did not finish within {budget} cycles");
    }
    let mut out = Vec::with_capacity(coeffs.len());
    for i in 0..coeffs.len() {
        out.push((sim.peek_ram("dst_even", i)?, sim.peek_ram("dst_odd", i)?));
    }
    Ok(out)
}

#[cfg(test)]
mod inverse_engine_tests {
    use super::*;
    use crate::golden::still_tone_pairs;

    #[test]
    fn hardware_analysis_then_hardware_synthesis_round_trips() {
        // The complete Figure 4 loop in gates: forward line engine,
        // then the reconstruction engine, end to end on one line.
        let fwd = build_line_engine(Design::D2).unwrap();
        let inv = build_inverse_engine().unwrap();
        let mut fwd_sim = Simulator::new(fwd.netlist.clone()).unwrap();
        let mut inv_sim = Simulator::new(inv.netlist.clone()).unwrap();

        let pairs = still_tone_pairs(40, 33);
        let (low, high) = run_line(&mut fwd_sim, &fwd, &pairs).unwrap();
        let coeffs: Vec<(i64, i64)> = low.iter().zip(&high).map(|(&l, &h)| (l, h)).collect();
        let rec = run_inverse_line(&mut inv_sim, &inv, &coeffs).unwrap();

        // Interior samples reconstruct within the bounded fixed-point
        // error budget (see the idwt module tests for its derivation).
        let mut worst = 0i64;
        for m in 3..pairs.len() - 3 {
            worst = worst.max((pairs[m].0 - rec[m].0).abs()).max((pairs[m].1 - rec[m].1).abs());
        }
        assert!(worst <= 12, "hardware loop error {worst}");
    }

    #[test]
    fn five_three_engine_works_via_the_generic_builder() {
        use crate::lifting53_dp::{build_53_datapath, Golden53};
        let dp = build_53_datapath().unwrap();
        let engine = build_line_engine_around(&dp.netlist, dp.latency).unwrap();
        let mut sim = Simulator::new(engine.netlist.clone()).unwrap();
        let pairs = still_tone_pairs(24, 44);
        let (low, high) = run_line(&mut sim, &engine, &pairs).unwrap();
        let mut g = Golden53::default();
        for &(e, o) in &pairs {
            g.push(e, o);
        }
        for _ in 0..6 {
            g.push(0, 0);
        }
        assert_eq!(&low[..], &g.low()[..low.len()]);
        assert_eq!(&high[..], &g.high()[..high.len()]);
    }
}

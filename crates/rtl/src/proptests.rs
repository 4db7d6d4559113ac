//! Property-based tests of the simulation substrate: randomly generated
//! netlists are checked against direct functional evaluation, and the
//! simulator's structural invariants are exercised under random
//! stimulus.

#![cfg(test)]

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use crate::builder::NetlistBuilder;
use crate::compile::CompiledEngine;
use crate::engine::Engine;
use crate::fault::FaultSpec;
use crate::jit::JitEngine;
use crate::net::Bus;
use crate::sim::Simulator;

/// A random straight-line arithmetic program over two inputs.
#[derive(Debug, Clone)]
enum Op {
    AddPrev(usize, usize),
    SubPrev(usize, usize),
    ShiftLeft(usize, u8),
    ShiftRight(usize, u8),
    Register(usize),
    /// A behavioral adder of its own width (operands truncated or
    /// sign-extended to it), sign-extended back to the node width.
    NarrowAdd(usize, usize, u8),
    /// The subtractor counterpart of [`Op::NarrowAdd`].
    NarrowSub(usize, usize, u8),
}

/// One op at the node width: an adder, a shift or a register.
fn base_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::AddPrev(a, b)),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::SubPrev(a, b)),
        (0usize..8, 1u8..4).prop_map(|(a, k)| Op::ShiftLeft(a, k)),
        (0usize..8, 1u8..4).prop_map(|(a, k)| Op::ShiftRight(a, k)),
        (0usize..8).prop_map(Op::Register),
    ]
}

fn program() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(base_op(), 1..12)
}

/// [`base_op`]s and, as often, `CarryAdd`/`CarrySub` cells of random
/// widths from 1 to 16.
fn narrow_program() -> impl Strategy<Value = Vec<Op>> {
    let narrow = prop_oneof![
        (0usize..8, 0usize..8, 1u8..=16).prop_map(|(a, b, w)| Op::NarrowAdd(a, b, w)),
        (0usize..8, 0usize..8, 1u8..=16).prop_map(|(a, b, w)| Op::NarrowSub(a, b, w)),
    ];
    prop::collection::vec(prop_oneof![base_op(), narrow], 1..12)
}

/// Builds the program as a netlist (both adder styles) and as a direct
/// software evaluator; returns (event-driven simulator, eval closure,
/// register count on the output path).
fn build(ops: &[Op], structural: bool) -> (Simulator, impl Fn(&[i64]) -> i64, usize) {
    let (netlist, eval, regs) = build_netlist(ops, structural);
    (Simulator::new(netlist).unwrap(), eval, regs)
}

/// Builds the program as a bare netlist plus a direct software
/// evaluator and the register count on the output path.
fn build_netlist(
    ops: &[Op],
    structural: bool,
) -> (crate::netlist::Netlist, impl Fn(&[i64]) -> i64, usize) {
    const W: usize = 20;
    let mut b = NetlistBuilder::new();
    let x = b.input("x", 10).unwrap();
    let y = b.input("y", 10).unwrap();
    let mut nodes: Vec<Bus> = vec![b.sign_extend(&x, W).unwrap(), b.sign_extend(&y, W).unwrap()];
    let mut regs_on_path = 0;
    for (i, op) in ops.iter().enumerate() {
        let pick = |v: &Vec<Bus>, i: usize| v[i % v.len()].clone();
        let bus = match *op {
            Op::AddPrev(a, c) => {
                let (a, c) = (pick(&nodes, a), pick(&nodes, c));
                if structural {
                    b.ripple_add(&format!("n{i}"), &a, &c, W).unwrap()
                } else {
                    b.carry_add(&format!("n{i}"), &a, &c, W).unwrap()
                }
            }
            Op::SubPrev(a, c) => {
                let (a, c) = (pick(&nodes, a), pick(&nodes, c));
                if structural {
                    b.ripple_sub(&format!("n{i}"), &a, &c, W).unwrap()
                } else {
                    b.carry_sub(&format!("n{i}"), &a, &c, W).unwrap()
                }
            }
            Op::ShiftLeft(a, k) => {
                let s = b.shift_left(&pick(&nodes, a), k as usize).unwrap();
                b.resize(&s, W).unwrap()
            }
            Op::ShiftRight(a, k) => {
                let s = b.shift_right_arith(&pick(&nodes, a), k as usize).unwrap();
                b.sign_extend(&s, W).unwrap()
            }
            Op::Register(a) => {
                regs_on_path += 1;
                b.register(&format!("n{i}"), &pick(&nodes, a)).unwrap()
            }
            Op::NarrowAdd(a, c, w) | Op::NarrowSub(a, c, w) => {
                let (a, c, name) = (pick(&nodes, a), pick(&nodes, c), format!("n{i}"));
                let out = if matches!(op, Op::NarrowAdd(..)) {
                    b.carry_add(&name, &a, &c, w as usize).unwrap()
                } else {
                    b.carry_sub(&name, &a, &c, w as usize).unwrap()
                };
                b.sign_extend(&out, W).unwrap()
            }
        };
        nodes.push(bus);
    }
    let out = nodes.last().unwrap().clone();
    b.output("out", &out).unwrap();
    let netlist = b.finish().unwrap();

    let ops = ops.to_vec();
    let eval = move |inputs: &[i64]| -> i64 {
        let wrap_to = |v: i64, w: usize| -> i64 { (v << (64 - w)) >> (64 - w) };
        let wrap = |v: i64| wrap_to(v, W);
        let mut vals: Vec<i64> = vec![inputs[0], inputs[1]];
        for op in &ops {
            let pick = |v: &Vec<i64>, i: usize| v[i % v.len()];
            let next = match *op {
                Op::AddPrev(a, c) => wrap(pick(&vals, a) + pick(&vals, c)),
                Op::SubPrev(a, c) => wrap(pick(&vals, a) - pick(&vals, c)),
                Op::ShiftLeft(a, k) => wrap(pick(&vals, a) << k),
                Op::ShiftRight(a, k) => pick(&vals, a) >> k,
                Op::Register(a) => pick(&vals, a), // steady-state value
                Op::NarrowAdd(a, c, w) => {
                    let w = w as usize;
                    wrap_to(wrap_to(pick(&vals, a), w) + wrap_to(pick(&vals, c), w), w)
                }
                Op::NarrowSub(a, c, w) => {
                    let w = w as usize;
                    wrap_to(wrap_to(pick(&vals, a), w) - wrap_to(pick(&vals, c), w), w)
                }
            };
            vals.push(next);
        }
        *vals.last().unwrap()
    };
    (netlist, eval, regs_on_path)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After holding the inputs for enough cycles, the netlist output
    /// equals the direct functional evaluation, for both adder styles.
    #[test]
    fn random_netlists_compute_their_program(
        ops in program(),
        x in -512i64..512,
        y in -512i64..512,
        structural in any::<bool>(),
    ) {
        let (mut sim, eval, _) = build(&ops, structural);
        sim.set_input("x", x).unwrap();
        sim.set_input("y", y).unwrap();
        // Hold long enough for every register stage to flush.
        for _ in 0..ops.len() + 2 {
            sim.tick();
        }
        prop_assert_eq!(sim.peek("out").unwrap(), eval(&[x, y]));
    }

    /// Behavioral and structural realisations of one program agree.
    #[test]
    fn adder_styles_are_equivalent(
        ops in program(),
        x in -512i64..512,
        y in -512i64..512,
    ) {
        let (mut s1, _, _) = build(&ops, false);
        let (mut s2, _, _) = build(&ops, true);
        for sim in [&mut s1, &mut s2] {
            sim.set_input("x", x).unwrap();
            sim.set_input("y", y).unwrap();
            for _ in 0..ops.len() + 2 {
                sim.tick();
            }
        }
        prop_assert_eq!(s1.peek("out").unwrap(), s2.peek("out").unwrap());
    }

    /// Re-applying the same inputs never changes outputs or produces
    /// combinational transitions (settle is idempotent).
    #[test]
    fn settle_is_idempotent(ops in program(), x in -512i64..512, y in -512i64..512) {
        let (mut sim, _, _) = build(&ops, false);
        sim.set_input("x", x).unwrap();
        sim.set_input("y", y).unwrap();
        sim.settle();
        let before = sim.peek("out").unwrap();
        sim.reset_stats();
        sim.set_input("x", x).unwrap();
        sim.set_input("y", y).unwrap();
        sim.settle();
        prop_assert_eq!(sim.peek("out").unwrap(), before);
        prop_assert_eq!(sim.stats().total_cell_toggles(), 0);
    }

    /// A triple-modular-redundant register chain masks *any* single
    /// register-bit upset: whatever stage, replica, bit and cycle the
    /// flip strikes, the voted output stream is bit-identical to the
    /// clean run. (This is the microscopic property behind the
    /// `dwt-arch` TMR hardening.)
    #[test]
    fn tmr_chain_masks_any_single_bit_flip(
        stages in 1usize..4,
        stage_pick in 0usize..16,
        replica in 0usize..3,
        bit in 0usize..8,
        cycle in 0u64..12,
        xs in prop::collection::vec(-128i64..128, 12usize..16),
    ) {
        const MAJ3: u16 = 0b1110_1000;
        let build = |stages: usize| -> Simulator {
            let mut b = NetlistBuilder::new();
            let x = b.input("x", 8).unwrap();
            let mut cur = x;
            for s in 0..stages {
                let q0 = b.register(&format!("s{s}_r0"), &cur).unwrap();
                let q1 = b.register(&format!("s{s}_r1"), &cur).unwrap();
                let q2 = b.register(&format!("s{s}_r2"), &cur).unwrap();
                let voted: Vec<_> = (0..cur.width())
                    .map(|i| {
                        b.lut(
                            &format!("s{s}_v{i}"),
                            &[q0.bit(i), q1.bit(i), q2.bit(i)],
                            MAJ3,
                        )
                        .unwrap()
                    })
                    .collect();
                cur = Bus::new(voted).unwrap();
            }
            b.output("out", &cur).unwrap();
            Simulator::new(b.finish().unwrap()).unwrap()
        };
        let run = |fault: Option<&FaultSpec>| -> Vec<i64> {
            let mut sim = build(stages);
            if let Some(f) = fault {
                sim.inject(f).unwrap();
            }
            xs.iter()
                .map(|&v| {
                    sim.set_input("x", v).unwrap();
                    sim.tick();
                    sim.peek("out").unwrap()
                })
                .collect()
        };
        let fault = FaultSpec::BitFlip {
            register: format!("s{}_r{replica}", stage_pick % stages),
            bit,
            cycle,
        };
        prop_assert_eq!(run(None), run(Some(&fault)));
    }

    /// Simulation runs are deterministic, including activity counts.
    #[test]
    fn simulation_is_deterministic(ops in program(), seed in 0u64..1000) {
        let run = || {
            let (mut sim, _, _) = build(&ops, false);
            let mut state = seed | 1;
            for _ in 0..20 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                sim.set_input("x", (state % 1024) as i64 - 512).unwrap();
                sim.set_input("y", ((state >> 20) % 1024) as i64 - 512).unwrap();
                sim.tick();
            }
            (sim.peek("out").unwrap(), sim.stats().total_cell_toggles())
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Narrow and wide behavioral adders compute their program on the
    /// event simulator.
    #[test]
    fn narrow_adders_compute_their_program(
        ops in narrow_program(),
        x in -512i64..512,
        y in -512i64..512,
        structural in any::<bool>(),
    ) {
        let (mut sim, eval, _) = build(&ops, structural);
        sim.set_input("x", x).unwrap();
        sim.set_input("y", y).unwrap();
        for _ in 0..ops.len() + 2 {
            sim.tick();
        }
        prop_assert_eq!(sim.peek("out").unwrap(), eval(&[x, y]));
    }

    /// The compiled backend agrees with the event simulator cycle by
    /// cycle on random netlists with adders of random widths and one to
    /// three stuck-ats, armed on the same tick, on random bits of random
    /// ports, cell outputs and register Qs.
    #[test]
    fn several_stuck_ats_match_event_sim(
        ops in narrow_program(),
        structural in any::<bool>(),
        xs in prop::collection::vec((-512i64..512, -512i64..512), 4..20),
        stuck in prop::collection::vec((any::<usize>(), any::<usize>(), any::<bool>()), 1..4),
        at in 0usize..20,
    ) {
        let (netlist, _, _) = build_netlist(&ops, structural);
        let specs = stuck_ats(&netlist, &stuck);
        let mut sim = Simulator::new(netlist.clone()).unwrap();
        let mut compiled = CompiledEngine::new(netlist).unwrap();
        for (t, &(x, y)) in xs.iter().enumerate() {
            if t == at {
                for spec in &specs {
                    sim.inject(spec).unwrap();
                    compiled.inject(spec).unwrap();
                }
            }
            prop_assert_eq!(tick(&mut sim, x, y), tick(&mut compiled, x, y), "{:?} at tick {}", specs, t);
        }
    }
}

proptest! {
    // Every case builds a fresh native kernel (one `rustc` run on a
    // cold kernel cache), so this runs 32 cases rather than 64.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both bit-sliced backends agree with the event simulator cycle by
    /// cycle on random netlists with adders of random widths and one
    /// stuck-at on a random output bit of a random cell, and the
    /// interpreter's tape unfuses to the program it was lowered from.
    /// The interpreter forces stuck slots at clamp points while the jit
    /// clamps every store, so all three run.
    #[test]
    fn narrow_adders_under_a_stuck_at_match_event_sim(
        ops in narrow_program(),
        structural in any::<bool>(),
        xs in prop::collection::vec((-512i64..512, -512i64..512), 4..20),
        stuck in (any::<usize>(), any::<usize>(), any::<bool>(), 0usize..20),
    ) {
        let (netlist, _, _) = build_netlist(&ops, structural);
        let (pick, bit, value, at) = stuck;
        let spec = stuck_ats(&netlist, &[(pick, bit, value)]).remove(0);
        let mut sim = Simulator::new(netlist.clone()).unwrap();
        let mut compiled = CompiledEngine::new(netlist.clone()).unwrap();
        let mut jit = JitEngine::new(netlist).unwrap();
        prop_assert!(compiled.tape_matches_program());
        for (t, &(x, y)) in xs.iter().enumerate() {
            if t == at {
                sim.inject(&spec).unwrap();
                compiled.inject(&spec).unwrap();
                jit.inject(&spec).unwrap();
            }
            let want = tick(&mut sim, x, y);
            prop_assert_eq!(want, tick(&mut compiled, x, y), "compiled: {} at tick {}", spec, t);
            prop_assert_eq!(want, tick(&mut jit, x, y), "jit: {} at tick {}", spec, t);
        }
    }
}

/// Stuck-at faults from `(pick, bit, value)` draws: `pick` chooses a
/// port or a cell's output bus (a register's is its Q), `bit` a bit of
/// it. A wiring-only program has no cells; its ports remain targets.
fn stuck_ats(netlist: &crate::netlist::Netlist, draws: &[(usize, usize, bool)]) -> Vec<FaultSpec> {
    let mut targets: Vec<(String, usize)> = ["x", "y", "out"]
        .iter()
        .map(|&p| (p.to_owned(), netlist.port(p).unwrap().bus.width()))
        .collect();
    targets.extend(netlist.cells().iter().map(|c| (c.name.clone(), c.kind.output_nets().len())));
    draws
        .iter()
        .map(|&(pick, bit, value)| {
            let (net, width) = targets[pick % targets.len()].clone();
            FaultSpec::StuckAt { net, bit: bit % width, value }
        })
        .collect()
}

/// Stages `(x, y)`, ticks, and reads `out`.
fn tick<E: Engine>(eng: &mut E, x: i64, y: i64) -> i64 {
    eng.set_input("x", x).unwrap();
    eng.set_input("y", y).unwrap();
    eng.try_tick().unwrap();
    eng.peek("out").unwrap()
}

/// Runs `prefix`, snapshots, runs `suffix`, restores, and checks the
/// replayed suffix and the re-taken snapshot against the first run.
fn round_trip<E: Engine>(
    mut eng: E,
    prefix: &[(i64, i64)],
    suffix: &[(i64, i64)],
) -> Result<(), TestCaseError>
where
    E::Snapshot: PartialEq,
{
    for &(x, y) in prefix {
        eng.set_input("x", x).unwrap();
        eng.set_input("y", y).unwrap();
        eng.try_tick().unwrap();
    }
    let snap = eng.snapshot();
    let run_suffix = |eng: &mut E| -> Vec<Vec<i64>> {
        suffix
            .iter()
            .map(|&(x, y)| {
                eng.set_input("x", x).unwrap();
                eng.set_input("y", y).unwrap();
                eng.try_tick().unwrap();
                eng.peek_lanes("out").unwrap()
            })
            .collect()
    };
    let first = run_suffix(&mut eng);
    eng.restore(&snap).unwrap();
    prop_assert_eq!(&eng.snapshot(), &snap);
    let second = run_suffix(&mut eng);
    prop_assert_eq!(first, second);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both bit-sliced backends agree with the event-driven simulator
    /// cycle by cycle on random netlists under a randomly varying
    /// stimulus (not just in steady state), with one bit flip scheduled
    /// on a random register bit when the netlist has registers.
    #[test]
    fn compiled_backend_matches_event_sim(
        ops in program(),
        structural in any::<bool>(),
        xs in prop::collection::vec((-512i64..512, -512i64..512), 4..20),
        flip in (any::<usize>(), 0usize..20, 0u64..20),
    ) {
        let (netlist, _, _) = build_netlist(&ops, structural);
        let mut sim = Simulator::new(netlist.clone()).unwrap();
        let mut compiled = CompiledEngine::new(netlist.clone()).unwrap();
        let mut jit = JitEngine::new(netlist).unwrap();
        let regs: Vec<usize> =
            (0..ops.len()).filter(|&i| matches!(ops[i], Op::Register(_))).collect();
        if !regs.is_empty() {
            let (pick, bit, cycle) = flip;
            let register = format!("n{}", regs[pick % regs.len()]);
            let spec = FaultSpec::BitFlip { register, bit, cycle };
            sim.inject(&spec).unwrap();
            compiled.inject(&spec).unwrap();
            jit.inject(&spec).unwrap();
        }
        for &(x, y) in &xs {
            let want = tick(&mut sim, x, y);
            prop_assert_eq!(want, tick(&mut compiled, x, y));
            prop_assert_eq!(want, tick(&mut jit, x, y));
        }
    }

    /// Bit-sliced snapshot/restore round-trips bit-exactly on both
    /// kernels: a replayed suffix reproduces every lane of every
    /// output, and the re-taken snapshot equals the original.
    #[test]
    fn compiled_snapshot_restore_round_trips(
        ops in program(),
        prefix in prop::collection::vec((-512i64..512, -512i64..512), 1..10),
        suffix in prop::collection::vec((-512i64..512, -512i64..512), 1..10),
    ) {
        let (netlist, _, _) = build_netlist(&ops, false);
        round_trip(CompiledEngine::new(netlist.clone()).unwrap(), &prefix, &suffix)?;
        round_trip(JitEngine::new(netlist).unwrap(), &prefix, &suffix)?;
    }

    /// Lane-packed evaluation equals 64 independent single-lane runs:
    /// de-interleaving the packed output stream reproduces each lane's
    /// scalar (broadcast) run exactly.
    #[test]
    fn compiled_lanes_deinterleave(
        ops in program(),
        seed in 0u64..1_000_000,
        ticks in 2usize..8,
    ) {
        let (netlist, _, _) = build_netlist(&ops, false);
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 1024) as i64 - 512
        };
        let streams: Vec<Vec<(i64, i64)>> = (0..crate::compile::LANES)
            .map(|_| (0..ticks).map(|_| (next(), next())).collect())
            .collect();
        let mut packed = CompiledEngine::new(netlist.clone()).unwrap();
        let mut packed_out: Vec<Vec<i64>> = vec![Vec::new(); crate::compile::LANES];
        for t in 0..ticks {
            let xs: Vec<i64> = streams.iter().map(|s| s[t].0).collect();
            let ys: Vec<i64> = streams.iter().map(|s| s[t].1).collect();
            packed.set_input_lanes("x", &xs).unwrap();
            packed.set_input_lanes("y", &ys).unwrap();
            packed.try_tick().unwrap();
            for (lane, out) in packed_out.iter_mut().enumerate() {
                out.push(packed.peek_lane("out", lane).unwrap());
            }
        }
        for (lane, stream) in streams.iter().enumerate() {
            let mut single = CompiledEngine::new(netlist.clone()).unwrap();
            for (t, &(x, y)) in stream.iter().enumerate() {
                Engine::set_input(&mut single, "x", x).unwrap();
                Engine::set_input(&mut single, "y", y).unwrap();
                single.try_tick().unwrap();
                prop_assert_eq!(Engine::peek(&single, "out").unwrap(), packed_out[lane][t]);
            }
        }
    }
}

/// A random web of registers: `widths[i]` bits each, and bit `k` of
/// register `i`'s D drawn by `draws[i][k]`: an input bit, an inverted
/// input bit, or any register's Q bit (its own included). Chains,
/// fan-out, rings and self-holding bits all arise.
fn register_web(widths: &[usize], draws: &[Vec<(u8, usize)>]) -> crate::netlist::Netlist {
    let mut b = NetlistBuilder::new();
    let x = b.input("x", 8).unwrap();
    let n = b.not("n", &x).unwrap();
    let regs: Vec<_> = widths
        .iter()
        .enumerate()
        .map(|(i, &w)| b.register_loop(&format!("r{i}"), w).unwrap())
        .collect();
    let qs: Vec<Bus> = regs.iter().map(|(q, _)| q.clone()).collect();
    for (i, (_, feed)) in regs.into_iter().enumerate() {
        let bits = (0..widths[i])
            .map(|k| {
                let (kind, pick) = draws[i][k % draws[i].len()];
                match kind % 4 {
                    0 => x.bit(pick % 8),
                    1 => n.bit(pick % 8),
                    _ => {
                        let q = &qs[pick % qs.len()];
                        q.bit((pick / qs.len()) % q.width())
                    }
                }
            })
            .collect();
        feed.connect(&mut b, &Bus::new(bits).unwrap()).unwrap();
    }
    for (i, q) in qs.iter().enumerate() {
        b.output(&format!("o{i}"), q).unwrap();
    }
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random register webs the commit plan moves every register
    /// bit exactly once, no block overwrites a slot a later block
    /// reads, and the blocks and ring rotations capture every register
    /// at once at both block widths; the compiled engine then ticks
    /// like the event simulator with flips seeding the rings.
    #[test]
    fn register_webs_commit_in_blocks_like_the_event_sim(
        widths in prop::collection::vec(1usize..8, 1..10),
        draws in prop::collection::vec(prop::collection::vec((any::<u8>(), any::<usize>()), 1..8), 10),
        xs in prop::collection::vec(-128i64..128, 12),
        flips in prop::collection::vec((any::<usize>(), any::<usize>(), 0u64..12), 0..6),
    ) {
        let netlist = register_web(&widths, &draws);
        let program = crate::compile::Program::compile(&netlist).unwrap();
        crate::sliced::tests::check_commit_plan(&program);
        let mut sim = Simulator::new(netlist.clone()).unwrap();
        let mut compiled = CompiledEngine::new(netlist).unwrap();
        prop_assert!(compiled.commit_captures_every_register(11));
        for &(reg, bit, cycle) in &flips {
            let r = reg % widths.len();
            let spec = FaultSpec::BitFlip { register: format!("r{r}"), bit: bit % widths[r], cycle };
            sim.inject(&spec).unwrap();
            compiled.inject(&spec).unwrap();
        }
        for (t, &x) in xs.iter().enumerate() {
            sim.set_input("x", x).unwrap();
            compiled.set_input("x", x).unwrap();
            sim.try_tick().unwrap();
            compiled.try_tick().unwrap();
            for i in 0..widths.len() {
                let o = format!("o{i}");
                prop_assert_eq!(sim.peek(&o).unwrap(), compiled.peek(&o).unwrap(), "{} at tick {}", o, t);
            }
        }
    }
}

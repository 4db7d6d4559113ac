//! Figure 4 end to end: the hardware line engine, sequenced over rows,
//! columns and octaves by the host, must produce exactly the
//! coefficients of the equivalent all-software orchestration.

use dwt_repro::arch::designs::Design;
use dwt_repro::arch::golden::golden_tile;
use dwt_repro::arch::system2d::{build_line_engine, run_line, LineEngine};
use dwt_repro::core::grid::Grid;
use dwt_repro::imaging::synth::StillToneImage;
use dwt_repro::rtl::sim::Simulator;

/// One octave of the 2-D transform over the top-left region, with the
/// line transform provided by `f` — so hardware and golden runs share
/// the identical sequencing code.
fn octave_2d<F>(grid: &mut Grid<i64>, rows: usize, cols: usize, mut f: F)
where
    F: FnMut(&[(i64, i64)]) -> (Vec<i64>, Vec<i64>),
{
    // Row pass.
    for r in 0..rows {
        let row = grid.row(r);
        let pairs: Vec<(i64, i64)> = (0..cols / 2).map(|i| (row[2 * i], row[2 * i + 1])).collect();
        let (low, high) = f(&pairs);
        let row = grid.row_mut(r);
        for (i, &v) in low.iter().enumerate() {
            row[i] = v;
        }
        for (i, &v) in high.iter().enumerate() {
            row[cols / 2 + i] = v;
        }
    }
    // Column pass.
    for c in 0..cols {
        let col: Vec<i64> = (0..rows).map(|r| grid[(r, c)]).collect();
        let pairs: Vec<(i64, i64)> = (0..rows / 2).map(|i| (col[2 * i], col[2 * i + 1])).collect();
        let (low, high) = f(&pairs);
        for (i, &v) in low.iter().enumerate() {
            grid[(i, c)] = v;
        }
        for (i, &v) in high.iter().enumerate() {
            grid[(rows / 2 + i, c)] = v;
        }
    }
}

fn transform_2d<F>(image: &Grid<i32>, octaves: usize, mut f: F) -> Grid<i64>
where
    F: FnMut(&[(i64, i64)]) -> (Vec<i64>, Vec<i64>),
{
    let (mut rows, mut cols) = image.dims();
    let mut grid = image.map(i64::from);
    for _ in 0..octaves {
        octave_2d(&mut grid, rows, cols, &mut f);
        rows /= 2;
        cols /= 2;
    }
    grid
}

#[test]
fn hardware_engine_2d_equals_golden_orchestration() {
    let image = StillToneImage::new(16, 16).seed(6).texture_amplitude(1.0).generate();
    let engine: LineEngine = build_line_engine(Design::D2).expect("engine");
    let mut sim = Simulator::new(engine.netlist.clone()).expect("sim");

    let by_hardware =
        transform_2d(&image, 2, |pairs| run_line(&mut sim, &engine, pairs).expect("hardware line"));
    let by_golden = transform_2d(&image, 2, golden_tile);

    assert_eq!(by_hardware, by_golden);
}

#[test]
fn hardware_2d_concentrates_energy_like_the_software_transform() {
    // Sanity on the result itself: the LL quadrant of the hardware
    // transform must carry most of the energy.
    // Halve the pixels: the column pass feeds row-pass low coefficients
    // (gain > 1) back through the engine's hard 8-bit input, so full-range
    // pixels can overflow it for unlucky images.
    let image = StillToneImage::new(16, 16).seed(2).generate().map(|v| v / 2);
    let engine = build_line_engine(Design::D2).expect("engine");
    let mut sim = Simulator::new(engine.netlist.clone()).expect("sim");
    let dec =
        transform_2d(&image, 1, |pairs| run_line(&mut sim, &engine, pairs).expect("hardware line"));
    let energy = |vals: &[i64]| -> f64 { vals.iter().map(|&v| (v * v) as f64).sum() };
    let total = energy(dec.as_slice());
    let mut ll = 0.0;
    for r in 0..8 {
        ll += energy(&dec.row(r)[..8]);
    }
    assert!(ll / total > 0.5, "LL fraction {}", ll / total);
}

#[test]
fn pass_engine_does_whole_passes_with_host_corner_turns_only() {
    use dwt_repro::arch::system2d::{build_pass_engine, run_pass};

    let image = StillToneImage::new(16, 16).seed(12).texture_amplitude(1.0).generate();
    let engine = build_pass_engine(Design::D2).expect("engine");
    let mut sim = Simulator::new(engine.netlist.clone()).expect("sim");
    let (rows, cols) = (16usize, 16usize);

    // One octave by two hardware passes; the host only loads memories
    // and corner-turns between them.

    // Row pass: line r holds row r's pairs at stride cols/2.
    for r in 0..rows {
        for i in 0..cols / 2 {
            let (e, o) = (image[(r, 2 * i)], image[(r, 2 * i + 1)]);
            sim.poke_ram("src_even", r * (cols / 2) + i, i64::from(e)).unwrap();
            sim.poke_ram("src_odd", r * (cols / 2) + i, i64::from(o)).unwrap();
        }
    }
    run_pass(&mut sim, &engine, rows, cols / 2, cols / 2).expect("row pass");
    // Collect the row-transformed image (Mallat within each row).
    let mut inter = vec![vec![0i64; cols]; rows];
    for (r, row) in inter.iter_mut().enumerate() {
        for i in 0..cols / 2 {
            row[i] = sim.peek_ram("dst_low", r * (cols / 2) + i).unwrap();
            row[cols / 2 + i] = sim.peek_ram("dst_high", r * (cols / 2) + i).unwrap();
        }
    }

    // Corner turn: load columns as lines.
    #[allow(clippy::needless_range_loop)] // addresses row-major and col-major views together
    for c in 0..cols {
        for i in 0..rows / 2 {
            sim.poke_ram("src_even", c * (rows / 2) + i, inter[2 * i][c]).unwrap();
            sim.poke_ram("src_odd", c * (rows / 2) + i, inter[2 * i + 1][c]).unwrap();
        }
    }
    run_pass(&mut sim, &engine, cols, rows / 2, rows / 2).expect("column pass");
    let mut hw = Grid::filled(rows, cols, 0i64);
    for c in 0..cols {
        for i in 0..rows / 2 {
            hw[(i, c)] = sim.peek_ram("dst_low", c * (rows / 2) + i).unwrap();
            hw[(rows / 2 + i, c)] = sim.peek_ram("dst_high", c * (rows / 2) + i).unwrap();
        }
    }

    // Reference: the same two passes through the golden line transform.
    let golden = transform_2d(&image, 1, golden_tile);
    assert_eq!(hw, golden);
}

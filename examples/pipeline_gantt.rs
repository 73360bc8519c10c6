//! The 3-way-concurrency pipeline made visible: run one tiled dgemm and
//! render each engine's occupancy as an ASCII Gantt chart — the anatomy of
//! the paper's Figure 2, straight from the simulator's execution trace.
//!
//! The rendering itself lives in `cocopelia_obs::gantt` (shared with the
//! CLI); this example is a thin driver around it.
//!
//! ```text
//! cargo run --release --example pipeline_gantt
//! ```

use cocopelia_core::profile::SystemProfile;
use cocopelia_core::transfer::{LatBw, TransferModel};
use cocopelia_gpusim::{testbed_i, ExecMode, Gpu, NoiseSpec};
use cocopelia_obs::gantt;
use cocopelia_runtime::{Cocopelia, GemmRequest, MatOperand, TileChoice};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut tb = testbed_i();
    tb.noise = NoiseSpec::NONE; // a clean diagram
    let dummy = SystemProfile::new(
        "gantt-demo",
        TransferModel {
            h2d: LatBw { t_l: 0.0, t_b: 0.0 },
            d2h: LatBw { t_l: 0.0, t_b: 0.0 },
            sl_h2d: 1.0,
            sl_d2h: 1.0,
        },
    );
    let mut ctx = Cocopelia::new(Gpu::new(tb, ExecMode::TimingOnly, 1), dummy);
    ctx.gpu_mut().keep_trace_from(0);

    let n = 4096;
    let t = 1024;
    println!("dgemm {n}x{n}x{n}, T = {t}, full offload, Testbed I:\n");
    let out = GemmRequest::new(
        MatOperand::<f64>::HostGhost { rows: n, cols: n },
        MatOperand::HostGhost { rows: n, cols: n },
        MatOperand::HostGhost { rows: n, cols: n },
    )
    .alpha(1.0)
    .beta(1.0)
    .tile(TileChoice::Fixed(t))
    .run(&mut ctx)?;

    let entries = ctx.gpu().trace().entries();
    println!("{}", gantt::render(entries, 100));
    print!("{}", gantt::engine_summary(entries));
    println!(
        "\nmakespan {:.1} ms over {} sub-kernels — the h2d fill at the left edge and\n\
         the d2h drain at the right edge are the pipeline's only serial parts.",
        out.report.elapsed.as_secs_f64() * 1e3,
        out.report.subkernels
    );
    Ok(())
}

//! The jit backend on a host without a usable `rustc`.
//!
//! This binary points `DWT_JIT_RUSTC` at a compiler that does not exist
//! and `DWT_JIT_CACHE` at a fresh, empty directory before its first jit
//! call, so no kernel can come from the process registry or the disk
//! cache. Building a jit engine must then fail with a typed
//! [`Error::NativeCodegen`] that names the missing compiler — never a
//! panic — through both entry points. It runs as its own test binary
//! because the environment it sets holds for the whole process.

use dwt_rtl::builder::NetlistBuilder;
use dwt_rtl::engine::{Backend, BackendRunner, Engine, PortableSnapshot};
use dwt_rtl::jit::JitEngine;
use dwt_rtl::netlist::Netlist;
use dwt_rtl::Error;

const MISSING_RUSTC: &str = "/nonexistent/rustc";

fn netlist() -> Netlist {
    let mut b = NetlistBuilder::new();
    let x = b.input("x", 8).unwrap();
    let y = b.input("y", 8).unwrap();
    let sum = b.carry_add("sum", &x, &y, 9).unwrap();
    let q = b.register("q", &sum).unwrap();
    b.output("s", &q).unwrap();
    b.finish().unwrap()
}

/// Builds [`netlist`] on the dispatched backend, ticks `x = 3`,
/// `y = 4` through two edges, and returns the registered sum.
struct TickSum;
impl BackendRunner for TickSum {
    type Output = Result<i64, Error>;
    fn run<E>(self) -> Self::Output
    where
        E: Engine + Send + 'static,
        E::Snapshot: PortableSnapshot + Send + 'static,
    {
        let mut engine = E::from_netlist(netlist())?;
        engine.set_input("x", 3)?;
        engine.set_input("y", 4)?;
        engine.try_tick()?;
        engine.try_tick()?;
        engine.peek("s")
    }
}

/// `err` is the codegen pipeline failing to start the compiler.
fn assert_names_the_compiler(err: &Error) {
    match err {
        Error::NativeCodegen { stage, detail } => {
            assert_eq!(stage, "rustc", "{err}");
            assert!(detail.contains(MISSING_RUSTC), "detail does not name the compiler: {err}");
        }
        other => panic!("expected a NativeCodegen error, got {other:?}"),
    }
    assert!(err.to_string().contains(MISSING_RUSTC), "{err}");
}

/// One test, so the environment is set before the binary's first jit
/// call and nothing else runs while it holds.
#[test]
fn a_missing_compiler_is_a_typed_error_on_both_entry_points() {
    let cache = std::env::temp_dir().join(format!("dwt-jit-without-rustc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    std::fs::create_dir_all(&cache).expect("cache dir");
    std::env::set_var("DWT_JIT_RUSTC", MISSING_RUSTC);
    std::env::set_var("DWT_JIT_CACHE", &cache);

    assert_names_the_compiler(&JitEngine::from_netlist(netlist()).unwrap_err());
    assert_names_the_compiler(&Backend::Jit.dispatch(TickSum).unwrap_err());
    let libraries = std::fs::read_dir(&cache)
        .expect("cache dir")
        .filter(|e| {
            e.as_ref().is_ok_and(|e| {
                e.path().extension().is_some_and(|x| x == std::env::consts::DLL_EXTENSION)
            })
        })
        .count();
    assert_eq!(libraries, 0, "a kernel library appeared without a compiler");

    // The other backends need no compiler.
    for backend in [Backend::Event, Backend::Compiled] {
        assert_eq!(backend.dispatch(TickSum).unwrap(), 7, "{backend}");
    }
    let _ = std::fs::remove_dir_all(&cache);
}

//! `dwt_partition_worker` — one shard of a process-isolated partition
//! run.
//!
//! A `PartitionRunner` with process isolation (`partition_campaign
//! --isolation process`, or any embedder) forks one instance of this
//! binary per shard. Each instance rebuilds the named paper design,
//! cuts it exactly the way the coordinator did (same min-cut, same
//! options — the cut fingerprint in the Hello frame proves it),
//! connects to the hub's Unix-domain socket, and hands its shard to
//! [`dwt_partition::run_worker`]. Control frames travel on that socket;
//! boundary frames travel on one socket per boundary link, opened
//! afresh at every rollback in the directory that holds `--socket`.
//!
//! Usage: `dwt_partition_worker --design N --parts N --shard W
//! --socket PATH [--backend event|compiled|jit]`
//!
//! Exit codes follow the campaign-binary convention: 0 on a clean
//! shutdown (or a coordinator that simply went away), 1 on a runtime
//! failure (engine error, failed restore, unreachable socket), 2 on a
//! usage error; 137, as for SIGKILL, when a chaos kill ends the worker.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

use dwt_arch::designs::Design;
use dwt_bench::campaign::{flag_value, parse_design, unknown_flag, CampaignArgs, UsageError};
use dwt_partition::{partition, run_worker, CutOptions, PartitionedNetlist, SocketTransport};
use dwt_rtl::engine::{Backend, BackendRunner, Engine, PortableSnapshot};

struct WorkerArgs {
    design: Design,
    parts: usize,
    shard: usize,
    socket: PathBuf,
    backend: Backend,
}

fn parse_args(shared: &CampaignArgs) -> Result<WorkerArgs, UsageError> {
    let mut design = None;
    let mut parts = None;
    let mut shard = None;
    let mut socket = None;
    let mut args = shared.rest.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--design" => {
                let raw: String = flag_value(&mut args, "--design", "design number 1-5")?;
                design = Some(parse_design("--design", &raw)?);
            }
            "--parts" => parts = Some(flag_value(&mut args, "--parts", "count")?),
            "--shard" => shard = Some(flag_value(&mut args, "--shard", "index")?),
            "--socket" => {
                let raw: String = flag_value(&mut args, "--socket", "path")?;
                socket = Some(PathBuf::from(raw));
            }
            other => return Err(unknown_flag(other)),
        }
    }
    let require = |name: &str| UsageError::new(name, "is required");
    Ok(WorkerArgs {
        design: design.ok_or_else(|| require("--design"))?,
        parts: parts.ok_or_else(|| require("--parts"))?,
        shard: shard.ok_or_else(|| require("--shard"))?,
        socket: socket.ok_or_else(|| require("--socket"))?,
        backend: shared.backend,
    })
}

struct Worker<'a> {
    cut: &'a PartitionedNetlist,
    shard: usize,
    transport: SocketTransport,
    /// Where the link sockets meet.
    links: &'a Path,
}

impl BackendRunner for Worker<'_> {
    type Output = Result<bool, dwt_partition::PartitionError>;

    fn run<E>(self) -> Self::Output
    where
        E: Engine + Send + 'static,
        E::Snapshot: PortableSnapshot + Send + 'static,
    {
        run_worker::<E>(self.cut, self.shard, self.transport, self.links)
    }
}

/// Runs the shard; `Ok(false)` when a chaos kill ended it.
fn run(args: &WorkerArgs) -> Result<bool, String> {
    let built = args.design.build().map_err(|e| format!("{}: {e}", args.design.name()))?;
    let cut = partition(&built.netlist, args.parts, &CutOptions::default())
        .map_err(|e| format!("cutting {} into {}: {e}", args.design.name(), args.parts))?;
    let stream = UnixStream::connect(&args.socket)
        .map_err(|e| format!("connecting {}: {e}", args.socket.display()))?;
    let transport = SocketTransport::new(stream);
    let links = args.socket.parent().unwrap_or(Path::new("."));
    args.backend
        .dispatch(Worker { cut: &cut, shard: args.shard, transport, links })
        .map_err(|e| format!("shard {}: {e}", args.shard))
}

fn main() {
    let shared = CampaignArgs::parse();
    let args = parse_args(&shared).unwrap_or_else(|e| e.exit());
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(137),
        Err(message) => {
            eprintln!("dwt_partition_worker: {message}");
            std::process::exit(1);
        }
    }
}

//! Worker process of the distributed executive.
//!
//! Every worker starts as `warp-worker --join ADDR`: it dials the
//! coordinator's admission point at `ADDR`, presents a `Join` naming its
//! pid, announces its listen address, reads its init and then the first
//! session's start, all as frames on that one control socket, joins the
//! TCP mesh, runs its block of LPs, reports, and exits. A child spawned
//! by `warp_exec::distributed::run_coordinator` gets `ADDR` on its
//! command line and is paired with its slot by the pid; a process
//! started by hand idles in the admission queue until the coordinator
//! adopts it at an elastic scale-out (see `docs/elasticity.md`). See
//! `warp_exec::distributed` for the protocol and
//! `warped_online::cluster` for the model vocabulary.
//!
//! A worker that loses its coordinator is an orphan and exits 3 on its
//! own. A restarted coordinator (`warp-cluster --resume`) spawns a new
//! worker for every slot, and each LP loads its image there. See
//! `docs/coordinator-failover.md`.

const USAGE: &str = "\
usage: warp-worker --join COORDINATOR_ADDR

options:
  --join ADDR  dial the coordinator's admission point (required: every
               worker starts this way)
  --help       print this message

exit codes:
  0  clean finish, or retired by an elastic scale-in
  2  bootstrap or run error (details on stderr)
  3  orphaned — the coordinator died (control socket closed, or no
     recovery instructions in time), or a peer was lost with recovery
     disabled
  9  a CrashWorker entry in the job's fault plan fired
";

fn main() {
    let mut join: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--join" => {
                join = Some(argv.next().unwrap_or_else(|| {
                    eprintln!("warp-worker: --join needs an address");
                    eprint!("{USAGE}");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            other => {
                eprintln!("warp-worker: unknown argument {other:?}");
                eprint!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let Some(addr) = join else {
        eprintln!("warp-worker: --join is required");
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let build = &warped_online::cluster::spec_from_model_json;
    if let Err(e) = warp_exec::join_main(&addr, build) {
        eprintln!("warp-worker: {e}");
        std::process::exit(2);
    }
}

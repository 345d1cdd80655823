//! `serve_tcp`: `serve::run_server` over loopback TCP with a population of
//! two. Both clients run as threads of this process (`run_client` over
//! `sim_client_work`), one connection each, both selected every round,
//! dim 262 144 (1 MiB frames), no wire chaos.
//!
//! The traced run builds the same server by hand — `SocketTransport`,
//! `register`, `serve::run_rounds` through a wave-stamping wrapper, then
//! `finish` — which is exactly what `run_server` does.

use std::sync::Arc;
use std::thread::JoinHandle;

use calibre_fl::comm::framed_bytes;
use calibre_fl::serve::{
    run_in_process, run_rounds, run_server, sim_client_work, welcome_info, ServeConfig,
};
use calibre_fl::transport::{
    run_client, ClientAddr, ClientOptions, ClientReport, Listener, SocketTransport, Transport,
    TransportError,
};
use calibre_fl::RoundPolicy;
use calibre_telemetry::NullRecorder;

use crate::report::{self, Report};
use crate::timeline::{attribute, BenchRecorder, ClientProbe, Mark, Timeline, TracingTransport};
use crate::{Ctx, Run};

const CLIENTS: usize = 2;
const DIM: usize = 1 << 18;

fn config(seed: u64, rounds: usize) -> ServeConfig {
    ServeConfig {
        population: CLIENTS,
        cohort: CLIENTS,
        rounds,
        dim: DIM,
        wave: CLIENTS,
        seed,
        policy: RoundPolicy::default(),
        ..ServeConfig::smoke()
    }
}

type Client = JoinHandle<Result<ClientReport, TransportError>>;

fn start_clients(addr: &str, seed: u64, probe: Option<Arc<ClientProbe>>) -> Vec<Client> {
    (0..CLIENTS)
        .map(|id| {
            let addr = ClientAddr::Tcp(addr.to_string());
            let probe = probe.clone();
            std::thread::spawn(move || {
                let mut work = sim_client_work(seed, id);
                run_client(
                    &addr,
                    id as u64,
                    &ClientOptions::default(),
                    |round, global| match &probe {
                        Some(p) => p.time(id, || work(round, global)),
                        None => work(round, global),
                    },
                )
            })
        })
        .collect()
}

/// Runs the workload; see the module docs.
pub fn run(ctx: &Ctx, report: &mut Report, notes: &mut Vec<String>) -> Result<Run, String> {
    let cfg = config(ctx.seed, ctx.total_rounds());
    let timeline = Timeline::new(ctx.clock.clone());
    let first_timed = ctx.workload.warmup_rounds();
    let recorder = BenchRecorder::new(&timeline, first_timed);
    let listener = Listener::bind_tcp("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr();
    let probe = ctx.trace.then(|| Arc::new(ClientProbe::new(CLIENTS)));
    let clients = start_clients(&addr, ctx.seed, probe.clone());
    let mut register_ns = 0;
    let served = match &probe {
        None => run_server(&cfg, listener, &recorder),
        Some(probe) => {
            let mut socket =
                SocketTransport::new(listener, welcome_info(&cfg), cfg.net.clone(), None);
            let t = timeline.now();
            let registered = socket.register();
            register_ns = timeline.now() - t;
            registered.and_then(|()| {
                let mut transport = TracingTransport::new(socket, &timeline, Arc::clone(probe));
                let out = run_rounds(&cfg, &mut transport, &recorder)?;
                transport.inner.finish(out.rounds_run, out.checksum)?;
                Ok(out)
            })
        }
    };
    timeline.push(Mark::End);
    let proc = report::proc_delta(recorder.window_start()?);
    // Join the clients before surfacing any server error, so no thread
    // outlives the run.
    let reports: Vec<_> = clients.into_iter().map(JoinHandle::join).collect();
    let outcome = served.map_err(|e| format!("serve run: {e}"))?;
    let proc = proc?;
    let (rounds, spans) = attribute(&timeline.marks(), CLIENTS);
    let setup_ns = rounds.get(first_timed).map_or(0, |r| r.start);
    let run = Run {
        rounds,
        spans,
        proc,
        setup_ns,
        checksum: outcome.checksum,
        payload_bytes: (2 * DIM * std::mem::size_of::<f32>()) as f64,
    };
    if ctx.child {
        return Ok(run);
    }

    report::check_rounds(report, &run.rounds, cfg.rounds);
    for (id, r) in reports.into_iter().enumerate() {
        match r {
            Ok(Ok(r)) => report.check(
                r.final_checksum == outcome.checksum && r.rounds as usize == cfg.rounds,
                format!(
                    "client {id} saw checksum {:016x} after {} rounds",
                    r.final_checksum, r.rounds
                ),
            ),
            Ok(Err(e)) => report.check(false, format!("client {id}: {e}")),
            Err(_) => report.check(false, format!("client {id} panicked")),
        }
    }
    // The socket run must equal the in-process run of the same config.
    let twin = run_in_process(&cfg, &NullRecorder).map_err(|e| e.to_string())?;
    let identical = twin.model.len() == outcome.model.len()
        && twin
            .model
            .iter()
            .zip(&outcome.model)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    report.check(
        identical,
        format!(
            "socket model {:016x} differs from in-process {:016x}",
            outcome.checksum, twin.checksum
        ),
    );
    notes.push(format!(
        "in-process twin checksum {:016x} (bit-identical: {identical})",
        twin.checksum
    ));

    if ctx.trace {
        let timed = run.timed(ctx);
        let n = timed.len().max(1) as f64;
        // Every client work call answered one Assign with one Update.
        let frames = 2.0 * timed.iter().map(|r| r.client_calls as f64).sum::<f64>() / n;
        report.metric("fl.transport.register_ms", register_ns as f64 / 1e6, "ms");
        report.metric("fl.proto.frames_per_round", frames, "count");
        report.metric(
            "fl.proto.bytes_per_round",
            frames * framed_bytes(DIM) as f64,
            "bytes",
        );
    }
    Ok(run)
}

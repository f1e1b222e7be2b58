//! Loopback serving demo: the network frontend with dynamic micro-batching
//! and priority/SLA admission classes.
//!
//! Spins up the TCP server on an ephemeral loopback port, then shows the
//! three SLA levers end to end:
//!
//! 1. **coalescing** — single-row requests from many clients fuse into
//!    large batches, amortizing admission/planning/kernel launch;
//! 2. **priority** — under saturation, `batch`-class requests are shed at
//!    the door while `interactive` requests keep completing;
//! 3. **step-down** — a deep backlog steps fused batches down the model's
//!    version ladder (here to the int8 rung).
//!
//! ```sh
//! cargo run --release --example serve_loopback
//! ```

use relserve_core::versions::PressureLadder;
use relserve_core::{InferenceSession, SessionConfig};
use relserve_nn::quant::quantize_int8;
use relserve_nn::{init::seeded_rng, zoo};
use relserve_runtime::{Priority, TransferProfile};
use relserve_serve::{Client, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL: &str = "Fraud-FC-256";
const WIDTH: usize = 28;

fn row(i: usize) -> Vec<f32> {
    (0..WIDTH)
        .map(|j| (((i * 31 + j) % 17) as f32 - 8.0) * 0.09)
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SessionConfig::builder()
        .transfer(TransferProfile::instant())
        .build()?;
    let session = InferenceSession::open(config)?;
    let mut rng = seeded_rng(42);
    let model = zoo::fraud_fc_256(&mut rng)?;
    let int8 = quantize_int8(&model)?.model;
    session.load_model(model)?;
    session.load_model(int8)?;
    let session = Arc::new(session);

    let serve = ServeConfig::builder()
        .max_batch_rows(32)
        .ladder(
            MODEL,
            PressureLadder::new(vec![MODEL.to_string(), format!("{MODEL}@int8")], 64)?,
        )
        .build()?;
    let server = Server::spawn(Arc::clone(&session), serve)?;
    let addr = server.addr();
    println!("serving {MODEL} on {addr}\n");

    // 1. Coalescing: 4 clients × 64 pipelined single-row requests.
    let started = Instant::now();
    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..64usize {
                    client
                        .send_infer(MODEL, Priority::Standard, None, 1, WIDTH, row(w * 64 + i))
                        .unwrap();
                }
                for _ in 0..64 {
                    client.recv().unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let elapsed = started.elapsed();
    let stats = server.stats();
    println!(
        "coalescing: {} single-row requests → {} fused batches (max {} rows) in {:.1?}",
        stats.requests, stats.batches, stats.max_batch_rows_seen, elapsed
    );

    // 2. Priority under saturation: hold the whole machine, then race an
    //    impatient batch-class flood against interactive requests.
    let cores = session.coordinator().cores();
    let hold = session.coordinator().admit(cores)?;
    let mut batch_client = Client::connect(addr)?;
    for i in 0..6usize {
        batch_client.send_infer(
            MODEL,
            Priority::Batch,
            Some(Duration::from_millis(40)),
            1,
            WIDTH,
            row(i),
        )?;
    }
    let interactive = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client
            .infer(MODEL, Priority::Interactive, None, 1, WIDTH, row(0))
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(120));
    drop(hold); // release the machine; interactive now runs
    let resp = interactive.join().unwrap();
    let mut batch_errors = 0;
    for _ in 0..6 {
        if matches!(
            batch_client.recv()?,
            relserve_serve::wire::Response::Error { .. }
        ) {
            batch_errors += 1;
        }
    }
    let stats = server.stats();
    println!(
        "saturation: batch shed {} of 6 (deadline/overload), interactive completed: {}",
        batch_errors,
        matches!(resp, relserve_serve::wire::Response::Infer { .. })
    );
    println!(
        "per-class: interactive completed={} batch shed={} deadline_rejected={}",
        stats.class(Priority::Interactive).completed,
        stats.class(Priority::Batch).shed,
        stats.class(Priority::Batch).deadline_rejected,
    );

    // 3. SLA step-down: flood one connection past the ladder's 64-row step
    //    so later fused batches run the int8 rung.
    let mut flood = Client::connect(addr)?;
    for i in 0..48usize {
        flood.send_infer(MODEL, Priority::Batch, None, 4, WIDTH, {
            let mut data = Vec::new();
            for r in 0..4 {
                data.extend(row(i * 4 + r));
            }
            data
        })?;
    }
    let mut stepped = 0;
    for _ in 0..48 {
        if let relserve_serve::wire::Response::Infer { model_used, .. } = flood.recv()? {
            if model_used.ends_with("@int8") {
                stepped += 1;
            }
        }
    }
    let ladder_steps: u64 = server
        .ladder_stats()
        .iter()
        .map(|(_, s)| s.step_downs)
        .sum();
    println!(
        "step-down: {stepped} of 48 responses served by {MODEL}@int8 under backlog pressure ({ladder_steps} fused batches stepped down)",
    );

    server.shutdown();
    Ok(())
}

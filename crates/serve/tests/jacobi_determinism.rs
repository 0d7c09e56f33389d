//! Concurrent-serve determinism against the paper's Jacobi model.
//!
//! The same request replayed through the daemon — cold cache, warm
//! cache, and batched among unrelated requests — must be bitwise
//! identical to an in-process one-shot evaluation of the identical
//! request plan (the path `pevpm predict` runs). The `#[ignore]`d test
//! additionally pins the full 64x2 shape to the repository's canonical
//! Jacobi baseline, `0.6487360493288068`.

use pevpm::vm::{monte_carlo, EvalConfig};
use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_bench::fig6;
use pevpm_dist::DistTable;
use pevpm_mpibench::MachineShape;
use pevpm_obs::json::{self, Json};
use pevpm_serve::client::predict_frame;
use pevpm_serve::plan::{self, EvalOutcome, PredictRequest};
use pevpm_serve::{Client, ServeConfig, Server};
use std::net::SocketAddr;
use std::thread::JoinHandle;

/// Hand-annotated Jacobi halo exchange, directive-for-directive the
/// structure `pevpm_apps::jacobi::model` builds programmatically (even/odd
/// phased exchange with both end ranks guarded). Only the statement
/// labels differ — attribution, never timing — so makespans must agree
/// to the bit.
const JACOBI_SRC: &str = "\
/* Jacobi iteration skeleton: 1-D row decomposition, halo exchange. */
// PEVPM Loop iterations = iterations
// PEVPM {
// PEVPM Runon c1 = procnum % 2 == 0
// PEVPM &     c2 = procnum % 2 != 0
// PEVPM {
// PEVPM Runon c1 = procnum != 0
// PEVPM {
// PEVPM Message type = MPI_Send
// PEVPM &       size = xsize*sizeof(float)
// PEVPM &       from = procnum
// PEVPM &       to = procnum-1
// PEVPM }
// PEVPM Runon c1 = procnum != numprocs-1
// PEVPM {
// PEVPM Message type = MPI_Send
// PEVPM &       size = xsize*sizeof(float)
// PEVPM &       from = procnum
// PEVPM &       to = procnum+1
// PEVPM Message type = MPI_Recv
// PEVPM &       size = xsize*sizeof(float)
// PEVPM &       from = procnum+1
// PEVPM &       to = procnum
// PEVPM }
// PEVPM Runon c1 = procnum != 0
// PEVPM {
// PEVPM Message type = MPI_Recv
// PEVPM &       size = xsize*sizeof(float)
// PEVPM &       from = procnum-1
// PEVPM &       to = procnum
// PEVPM }
// PEVPM }
// PEVPM {
// PEVPM Runon c1 = procnum != numprocs-1
// PEVPM {
// PEVPM Message type = MPI_Recv
// PEVPM &       size = xsize*sizeof(float)
// PEVPM &       from = procnum+1
// PEVPM &       to = procnum
// PEVPM }
// PEVPM Message type = MPI_Recv
// PEVPM &       size = xsize*sizeof(float)
// PEVPM &       from = procnum-1
// PEVPM &       to = procnum
// PEVPM Message type = MPI_Send
// PEVPM &       size = xsize*sizeof(float)
// PEVPM &       from = procnum
// PEVPM &       to = procnum-1
// PEVPM Runon c1 = procnum != numprocs-1
// PEVPM {
// PEVPM Message type = MPI_Send
// PEVPM &       size = xsize*sizeof(float)
// PEVPM &       from = procnum
// PEVPM &       to = procnum+1
// PEVPM }
// PEVPM }
// PEVPM Serial time = tserial/numprocs
// PEVPM }
";

/// The repository's canonical 64x2 Jacobi baseline (see DESIGN.md and the
/// `tcost` bench): mean makespan over 8 replications at seed 11.
const BASELINE_64X2: f64 = 0.6487360493288068;

fn jacobi_table(shape: MachineShape, bench_reps: usize) -> DistTable {
    fig6::shape_table(shape, &[512, 1024, 2048], bench_reps, 11)
}

fn jacobi_request(procs: usize, iterations: usize, reps: usize) -> PredictRequest {
    let mut req = PredictRequest::new(JACOBI_SRC, procs);
    req.seed = 11;
    req.reps = reps;
    req.params = vec![
        ("xsize".to_string(), 256.0),
        ("iterations".to_string(), iterations as f64),
        ("tserial".to_string(), 3.24e-3),
    ];
    req
}

/// Evaluate a request in-process through the same plan layer the one-shot
/// `pevpm predict` CLI uses, returning the headline makespan (batch mean).
fn oneshot_mean(table: &DistTable, req: &PredictRequest) -> f64 {
    let model = plan::parse_model(&req.model_src, "test model").expect("parse");
    let mode = req.prediction_mode().expect("mode");
    let timing =
        plan::build_timing(table, mode, req.pingpong, req.compile_options()).expect("timing");
    let cfg = req.eval_config().expect("config");
    let outcome = plan::evaluate_plan(&model, &cfg, &timing, req.reps).expect("evaluate");
    match outcome {
        EvalOutcome::Batch(mc) => mc.mean,
        EvalOutcome::Single(p) => p.makespan,
    }
}

fn start_daemon(table: DistTable) -> (SocketAddr, JoinHandle<()>) {
    // The widest supported worker pool: every determinism assertion in
    // this file must hold under full connection concurrency too.
    let cfg = ServeConfig {
        conns: 8,
        ..ServeConfig::default()
    };
    let server = Server::with_tables(cfg, vec![("default".to_string(), table)]).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("daemon run"));
    (addr, handle)
}

fn parse_ok(response: &str) -> Json {
    let j = json::parse(response).expect("response parses");
    assert_eq!(
        j.get("ok").and_then(Json::as_bool),
        Some(true),
        "daemon refused the request: {response}"
    );
    j.get("result").expect("result field").clone()
}

fn mean_of(result: &Json) -> f64 {
    assert_eq!(result.get("kind").and_then(Json::as_str), Some("mc"));
    result
        .get("mean")
        .and_then(Json::as_num)
        .expect("mean field")
}

#[test]
fn daemon_replay_is_bitwise_identical_to_oneshot() {
    let shape = MachineShape { nodes: 4, ppn: 1 };
    let table = jacobi_table(shape, 10);
    let req = jacobi_request(4, 20, 8);

    // The hand-annotated source must lower to the same evaluation as the
    // programmatic model — labels aside — before the daemon enters the
    // picture at all.
    let expected = oneshot_mean(&table, &req);
    let programmatic = {
        let cfg = JacobiConfig {
            xsize: 256,
            iterations: 20,
            serial_secs: 3.24e-3,
        };
        let timing = plan::build_timing(
            &table,
            req.prediction_mode().expect("mode"),
            false,
            req.compile_options(),
        )
        .expect("timing");
        monte_carlo(
            &jacobi::model(&cfg),
            &EvalConfig::new(4).with_seed(11),
            &timing,
            8,
        )
        .expect("programmatic mc")
        .mean
    };
    assert_eq!(
        programmatic.to_bits(),
        expected.to_bits(),
        "annotated source diverged from jacobi::model: {programmatic} vs {expected}"
    );

    let (addr, handle) = start_daemon(table);
    let mut client = Client::connect(&addr.to_string()).expect("connect");

    // Cold cache, then warm cache: byte-identical responses.
    let cold = client.predict("r", "default", &req).expect("cold");
    let warm = client.predict("r", "default", &req).expect("warm");
    assert_eq!(cold, warm, "warm-cache response changed bytes");
    let cold_result = parse_ok(&cold);
    assert_eq!(
        mean_of(&cold_result).to_bits(),
        expected.to_bits(),
        "daemon mean diverged from one-shot plan evaluation"
    );

    // Batched among unrelated requests: the same item must come back
    // identical to its lone answer, bitwise.
    let unrelated_a = jacobi_request(3, 7, 2);
    let mut unrelated_b = jacobi_request(4, 20, 8);
    unrelated_b.seed = 99;
    let items = vec![
        ("default".to_string(), unrelated_a),
        ("default".to_string(), req.clone()),
        ("default".to_string(), unrelated_b),
    ];
    let batch = client.batch("batch", &items).expect("batch");
    let batch_result = parse_ok(&batch);
    let slots = batch_result.as_array().expect("batch result array");
    assert_eq!(slots.len(), 3);
    let slot_b = &slots[1];
    assert_eq!(
        slot_b.get("ok").and_then(Json::as_bool),
        Some(true),
        "batched item failed: {slot_b:?}"
    );
    let slot_b_result = slot_b.get("result").expect("slot result");
    assert_eq!(
        slot_b_result, &cold_result,
        "batched answer differs from the lone answer"
    );
    // And the unrelated neighbour with a different seed really is a
    // different prediction (the cache keys on content, not position).
    let slot_c_result = slots[2].get("result").expect("slot result");
    assert_ne!(
        mean_of(slot_c_result).to_bits(),
        mean_of(&cold_result).to_bits(),
        "different seeds must not collide in the caches"
    );

    // Every request above shared one model source and one table shape per
    // (mode, options) key: exactly one compile each.
    let stats = client.stats("s").expect("stats");
    let stats_result = parse_ok(&stats);
    let counters = stats_result.get("counters").expect("counters").clone();
    assert_eq!(
        counters.get("serve.table_compiles").and_then(Json::as_num),
        Some(1.0)
    );
    assert_eq!(
        counters.get("serve.model_compiles").and_then(Json::as_num),
        Some(1.0)
    );

    client.shutdown("bye").expect("shutdown");
    handle.join().expect("daemon thread");
}

/// A field older clients still send: the per-request worker count of the
/// retired intra-evaluation scheduler.
const RETIRED_FIELD: &str = "\"eval_threads\":8";

/// Frames from clients that still carry [`RETIRED_FIELD`] are answered
/// exactly like the same frame without it: the daemon ignores the field
/// like any other unknown one.
#[test]
fn retired_field_from_old_clients_is_ignored() {
    let shape = MachineShape { nodes: 4, ppn: 1 };
    let table = jacobi_table(shape, 10);
    let req = jacobi_request(4, 20, 8);
    let frame = predict_frame("r", "default", &req);
    let legacy = format!("{},{RETIRED_FIELD}}}", &frame[..frame.len() - 1]);

    let (addr, handle) = start_daemon(table);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let plain = client.request(&frame).expect("plain frame");
    let with_field = client.request(&legacy).expect("legacy frame");
    parse_ok(&plain);
    assert_eq!(plain, with_field, "the retired field changed the response");

    client.shutdown("bye").expect("shutdown");
    handle.join().expect("daemon thread");
}

/// The full-size anchor: the 64x2 Perseus shape from the paper's §6
/// evaluation, pinned to the repository-wide baseline constant. Slow
/// (128 procs x 1000 iterations x 8 replications), so `#[ignore]`d;
/// run with `cargo test -p pevpm-serve --release -- --ignored`.
#[test]
#[ignore = "full 64x2 shape; run with --release -- --ignored"]
fn daemon_reproduces_the_64x2_jacobi_baseline() {
    let shape = MachineShape { nodes: 64, ppn: 2 };
    let table = jacobi_table(shape, 30);
    let req = jacobi_request(128, 1000, 8);

    let expected = oneshot_mean(&table, &req);
    assert_eq!(
        expected.to_bits(),
        BASELINE_64X2.to_bits(),
        "one-shot plan evaluation lost the baseline: got {expected:?}"
    );

    // The same request through a `--conns 8` daemon, cold and warm.
    let (addr, handle) = start_daemon(table);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let cold = client.predict("r", "default", &req).expect("cold");
    let warm = client.predict("r", "default", &req).expect("warm");
    assert_eq!(cold, warm, "warm-cache response changed bytes");
    let mean = mean_of(&parse_ok(&cold));
    assert_eq!(
        mean.to_bits(),
        BASELINE_64X2.to_bits(),
        "daemon lost the 64x2 baseline: got {mean:?}"
    );

    client.shutdown("bye").expect("shutdown");
    handle.join().expect("daemon thread");
}

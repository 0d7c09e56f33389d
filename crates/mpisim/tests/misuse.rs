//! Misused requests and failing ranks end the run with an error naming
//! the rank instead of hanging it.
//!
//! Every world runs on a helper thread and the test waits for its result
//! with a timeout, so a regression that hangs `World::run` fails the test
//! rather than blocking the suite.

use pevpm_mpisim::{Rank, Request, RunReport, SimError, World, WorldConfig};
use std::sync::mpsc;
use std::time::Duration;

/// `World::run` on a helper thread, failing the test if it has not
/// returned within a minute.
fn run_guarded<F>(cfg: WorldConfig, program: F) -> Result<RunReport, SimError>
where
    F: Fn(&mut Rank) + Send + Sync + 'static,
{
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(World::run(cfg, program));
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("World::run did not return within 60 s")
}

fn invalid_call(err: SimError) -> (usize, String) {
    match err {
        SimError::InvalidCall { rank, message } => (rank, message),
        other => panic!("expected an invalid call, got {other}"),
    }
}

#[test]
fn waiting_twice_on_a_request_is_an_error() {
    let err = run_guarded(WorldConfig::ideal(2, 1), |rank| {
        if rank.rank() == 0 {
            rank.send_size(1, 0, 64);
        } else {
            let req = rank.irecv(0, 0);
            rank.wait(req);
            rank.wait(req);
        }
    })
    .unwrap_err();
    let (rank, message) = invalid_call(err.clone());
    assert_eq!(rank, 1);
    assert_eq!(message, "waited on request 0 after it completed");
    assert_eq!(
        err.to_string(),
        "rank 1 made an invalid call: waited on request 0 after it completed"
    );
}

#[test]
fn waiting_on_a_made_up_request_is_an_error() {
    let err = run_guarded(WorldConfig::ideal(2, 1), |rank| {
        if rank.rank() == 1 {
            rank.wait(Request(7));
        }
    })
    .unwrap_err();
    assert_eq!(
        invalid_call(err),
        (1, "waited on request 7, which was never issued".into())
    );
}

#[test]
fn testing_a_made_up_request_is_an_error() {
    let err = run_guarded(WorldConfig::ideal(2, 1), |rank| {
        if rank.rank() == 0 {
            rank.test(Request(u64::MAX));
        }
    })
    .unwrap_err();
    let (rank, message) = invalid_call(err);
    assert_eq!(rank, 0);
    assert!(message.contains("never issued"), "{message}");
}

#[test]
fn testing_a_completed_request_again_is_an_error() {
    let err = run_guarded(WorldConfig::ideal(1, 2), |rank| {
        if rank.rank() == 0 {
            let req = rank.isend_size(1, 0, 8);
            while rank.test(req).is_none() {
                rank.compute_secs(1e-6);
            }
            rank.test(req);
        } else {
            rank.recv(0, 0);
        }
    })
    .unwrap_err();
    assert_eq!(
        invalid_call(err),
        (0, "tested request 0 after it completed".into())
    );
}

#[test]
fn waiting_on_another_ranks_request_is_an_error() {
    // Rank 0 posts request 0 and waits on it; rank 1 guesses its number.
    let err = run_guarded(WorldConfig::ideal(2, 1), |rank| {
        if rank.rank() == 0 {
            let req = rank.irecv(1, 0);
            rank.wait(req);
        } else {
            rank.compute_secs(1e-3);
            rank.wait(Request(0));
        }
    })
    .unwrap_err();
    assert_eq!(
        invalid_call(err),
        (1, "waited on request 0, which belongs to rank 0".into())
    );
}

#[test]
fn panic_before_the_first_call_is_reported() {
    let err = run_guarded(WorldConfig::ideal(4, 1), |rank| {
        if rank.rank() == 2 {
            panic!("rank 2 fails at once");
        }
        rank.barrier();
    })
    .unwrap_err();
    match err {
        SimError::RankPanic { rank, message } => {
            assert_eq!(rank, 2);
            assert_eq!(message, "rank 2 fails at once");
        }
        other => panic!("expected a rank panic, got {other}"),
    }
}

#[test]
fn panic_after_other_ranks_finished_is_reported() {
    let err = run_guarded(WorldConfig::ideal(3, 1), |rank| {
        if rank.rank() == 2 {
            rank.compute_secs(1.0);
            panic!("late failure");
        }
    })
    .unwrap_err();
    assert!(
        matches!(err, SimError::RankPanic { rank: 2, .. }),
        "got {err}"
    );
}

#[test]
fn deadlock_with_every_rank_parked_returns() {
    // A deadlock with most ranks parked mid-program: the detecting rank
    // must release every parked rank.
    let err = run_guarded(WorldConfig::ideal(8, 2), |rank| {
        let n = rank.nranks();
        let me = rank.rank();
        rank.send_size((me + 1) % n, 0, 1024);
        rank.recv((me + n - 1) % n, 0);
        rank.recv((me + n - 1) % n, 1);
    })
    .unwrap_err();
    match err {
        SimError::Deadlock { blocked, .. } => assert_eq!(blocked.len(), 16),
        other => panic!("expected a deadlock, got {other}"),
    }
}

#[test]
fn worlds_run_back_to_back_after_failures() {
    // Failed runs leave nothing behind that stalls the next one.
    for _ in 0..20 {
        let err = run_guarded(WorldConfig::ideal(4, 1), |rank| {
            if rank.rank() == 3 {
                rank.wait(Request(1_000));
            }
            rank.barrier();
        });
        assert!(err.is_err());
        let ok = run_guarded(WorldConfig::ideal(4, 1), |rank| rank.barrier());
        assert!(ok.is_ok());
    }
}

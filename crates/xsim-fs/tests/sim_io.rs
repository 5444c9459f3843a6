//! File system behaviour inside simulations: virtual-time charging and
//! the two-phase write semantics that produce the paper's "corrupted
//! checkpoint (exists, but misses some information)" (§V-B).

use xsim_core::{Bytes, ExitKind, SimTime};
use xsim_fs::{FileState, FsModel};
use xsim_mpi::SimBuilder;
use xsim_net::NetModel;

#[test]
fn write_read_delete_charge_virtual_time() {
    let builder = SimBuilder::new(1)
        .net(NetModel::small(1))
        .fs_model(FsModel {
            meta_latency: SimTime::from_millis(1),
            write_bw: 1.0e6, // 1 MB/s
            read_bw: 2.0e6,
            pfs: None,
        });
    let store = builder.store();
    let report = builder
        .run_app(|mpi| async move {
            let t0 = mpi.now();
            // 1 MB write: 1 ms metadata + 1 s transfer.
            xsim_fs::write("data", Bytes::from(vec![7u8; 1_000_000]))
                .await
                .unwrap();
            let t1 = mpi.now();
            assert_eq!(t1 - t0, SimTime::from_secs(1) + SimTime::from_millis(1));

            // Read back: 1 ms metadata + 0.5 s transfer.
            let back = xsim_fs::read("data").await.unwrap();
            assert!(back.is_complete());
            assert_eq!(back.bytes().len(), 1_000_000);
            let t2 = mpi.now();
            assert_eq!(t2 - t1, SimTime::from_millis(500) + SimTime::from_millis(1));

            // Delete: metadata only.
            assert!(xsim_fs::delete("data").await.unwrap());
            assert_eq!(mpi.now() - t2, SimTime::from_millis(1));
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
    assert!(store.is_empty());
}

#[test]
fn failure_mid_write_leaves_partial_file() {
    // The writer dies while its transfer is in flight: the file must
    // exist but be partial — the corrupted-checkpoint precondition.
    let builder = SimBuilder::new(2)
        .net(NetModel::small(2))
        .errhandler(xsim_mpi::ErrHandler::Return)
        .fs_model(FsModel {
            meta_latency: SimTime::from_millis(1),
            write_bw: 1.0e6, // 1 s for 1 MB → wide failure window
            read_bw: 1.0e9,
            pfs: None,
        })
        // Fails 200 ms into the 1 s transfer. File I/O waits are
        // clock-updating, so with the default strict semantics the
        // failure activates at the end of the I/O slice; fail_blocked
        // activates it inside the window.
        .fail_blocked(true)
        .inject_failure(0, SimTime::from_millis(200));
    let store = builder.store();
    let report = builder
        .run_app(|mpi| async move {
            if mpi.rank == 0 {
                let _ = xsim_fs::write("victim-file", Bytes::from(vec![1u8; 1_000_000])).await;
                unreachable!("rank 0 dies mid-write");
            }
            mpi.sleep(SimTime::from_secs(2)).await;
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.failures.len(), 1);
    match store.get("victim-file") {
        Some(FileState::Partial(_)) => {}
        other => panic!("expected a partial file, found {other:?}"),
    }
}

#[test]
fn free_model_writes_are_atomic_and_instant() {
    let builder = SimBuilder::new(1).net(NetModel::small(1)); // FsModel::free() default
    let store = builder.store();
    let report = builder
        .run_app(|mpi| async move {
            let t0 = mpi.now();
            xsim_fs::write("a", Bytes::from(vec![0u8; 10 << 20]))
                .await
                .unwrap();
            assert_eq!(mpi.now(), t0, "free model charges nothing");
            assert!(xsim_fs::exists("a").await);
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
    assert!(store.get("a").unwrap().is_complete());
}

#[test]
fn charge_write_costs_time_without_storing() {
    let builder = SimBuilder::new(1)
        .net(NetModel::small(1))
        .fs_model(FsModel {
            meta_latency: SimTime::ZERO,
            write_bw: 1.0e6,
            read_bw: 1.0e6,
            pfs: None,
        });
    let store = builder.store();
    let report = builder
        .run_app(|mpi| async move {
            let t0 = mpi.now();
            xsim_fs::charge_write(500_000).await;
            assert_eq!(mpi.now() - t0, SimTime::from_millis(500));
            xsim_fs::charge_read(250_000).await;
            assert_eq!(mpi.now() - t0, SimTime::from_millis(750));
            mpi.finalize();
            Ok(())
        })
        .unwrap();
    assert_eq!(report.sim.exit, ExitKind::Completed);
    assert!(store.is_empty(), "charge_write must not create files");
}

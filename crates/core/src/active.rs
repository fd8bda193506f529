//! Active objects (§2.1 box "What can objects do?").
//!
//! "Objects can be active. An active object has one or more processes
//! associated with it that communicate with the external world and
//! handle housekeeping chores internal to the object. For example a
//! process may monitor the environment of the object and may inform
//! some other entity (another object) on the occurrence of an event.
//! This feature is particularly useful in objects that manage sensor
//! monitoring devices."
//!
//! An [`ActiveHandle`] attaches a daemon to an object: a plain
//! `std::thread` (named `active-<object>`, on no IsiBa) that sleeps one
//! wall-clock period between ticks and periodically invokes a designated
//! entry point (the "housekeeping chore") until stopped or until the
//! object disappears. Each tick is an ordinary
//! [`ComputeServer::invoke`], run by `run_thread` as a Clouds thread of
//! its own, so the entry point has the full [`crate::Invocation`] API —
//! including invoking other objects to report events.

use crate::error::CloudsError;
use crate::node::ComputeServer;
use crate::thread::ThreadId;
use clouds_ra::SysName;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Handle to an object's daemon process.
pub struct ActiveHandle {
    stop: Arc<AtomicBool>,
    ticks: Arc<AtomicU64>,
    thread_id: ThreadId,
    joiner: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ActiveHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveHandle")
            .field("thread", &self.thread_id)
            .field("ticks", &self.ticks())
            .finish()
    }
}

impl ActiveHandle {
    /// The daemon's Clouds thread id.
    pub fn thread_id(&self) -> ThreadId {
        self.thread_id
    }

    /// Completed housekeeping invocations so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Acquire)
    }

    /// Stop the daemon and wait for it to exit.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(joiner) = self.joiner.take() {
            let _ = joiner.join();
        }
    }
}

impl Drop for ActiveHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Don't join in drop (C-DTOR-BLOCK): the daemon notices the flag
        // within one period and exits on its own.
    }
}

impl ComputeServer {
    /// Make `object` active: spawn a daemon thread on this compute
    /// server that invokes `entry` (with empty arguments) every
    /// `period` until stopped.
    ///
    /// The daemon stops by itself if the entry point starts failing
    /// persistently (e.g. the object was destroyed).
    pub fn start_active_object(
        &self,
        object: SysName,
        entry: &str,
        period: Duration,
    ) -> ActiveHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let ticks = Arc::new(AtomicU64::new(0));
        let entry = entry.to_string();
        let server = self.clone();
        let stop2 = Arc::clone(&stop);
        let ticks2 = Arc::clone(&ticks);
        // The daemon gets its own Clouds thread identity from the
        // thread manager.
        let thread_id = self.inner().next_thread_id();

        let joiner = std::thread::Builder::new()
            .name(format!("active-{object}"))
            .spawn(move || {
                let args = crate::encode_args(&()).expect("unit encodes");
                let mut consecutive_failures = 0u32;
                while !stop2.load(Ordering::Acquire) {
                    match server.invoke(object, &entry, &args, None) {
                        Ok(_) => {
                            consecutive_failures = 0;
                            ticks2.fetch_add(1, Ordering::AcqRel);
                        }
                        Err(CloudsError::NoSuchObject(_)) => break,
                        Err(_) => {
                            consecutive_failures += 1;
                            if consecutive_failures >= 5 {
                                break;
                            }
                        }
                    }
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "wall-clock active-object period, until it runs on virtual time"
                    )]
                    std::thread::sleep(period);
                }
            })
            .expect("spawn active-object daemon");
        ActiveHandle {
            stop,
            ticks,
            thread_id,
            joiner: Some(joiner),
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the active-object period is wall-clock time"
)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use clouds_simnet::CostModel;

    struct Sensor;
    impl ObjectCode for Sensor {
        fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, _args: &[u8]) -> EntryResult {
            match entry {
                "sample" => {
                    let n = ctx.persistent().read_u64(0)? + 1;
                    ctx.persistent().write_u64(0, n)?;
                    // On every 3rd sample, inform another object (the
                    // "event notification" use case from the box).
                    if n % 3 == 0 {
                        if let Ok(sink) = ctx.bind("Sink") {
                            let _ = ctx.invoke(sink, "event", &crate::encode_args(&n)?);
                        }
                    }
                    encode_result(&n)
                }
                "count" => encode_result(&ctx.persistent().read_u64(0)?),
                "event" => {
                    let n: u64 = crate::decode_args(_args)?;
                    let events = ctx.persistent().read_u64(8)? + 1;
                    ctx.persistent().write_u64(8, events)?;
                    ctx.persistent().write_u64(16, n)?;
                    encode_result(&())
                }
                "events" => encode_result(&(
                    ctx.persistent().read_u64(8)?,
                    ctx.persistent().read_u64(16)?,
                )),
                other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
            }
        }
    }

    #[test]
    fn active_object_samples_until_stopped() {
        let cluster = Cluster::builder()
            .compute_servers(1)
            .data_servers(1)
            .workstations(0)
            .cost_model(CostModel::zero())
            .build()
            .unwrap();
        cluster.register_class("sensor", Sensor).unwrap();
        let obj = cluster
            .compute(0)
            .create_object("sensor", Some("S1"), None)
            .unwrap();
        cluster
            .compute(0)
            .create_object("sensor", Some("Sink"), None)
            .unwrap();

        let handle =
            cluster
                .compute(0)
                .start_active_object(obj, "sample", Duration::from_millis(5));
        while handle.ticks() < 7 {
            std::thread::yield_now();
        }
        handle.stop();

        let count: u64 = crate::decode_args(
            &cluster
                .compute(0)
                .invoke(obj, "count", &crate::encode_args(&()).unwrap(), None)
                .unwrap(),
        )
        .unwrap();
        assert!(count >= 7);
        // Ticks stop advancing after stop().
        let sink = cluster.naming().lookup("Sink").unwrap();
        let (events, last): (u64, u64) = crate::decode_args(
            &cluster
                .compute(0)
                .invoke(sink, "events", &crate::encode_args(&()).unwrap(), None)
                .unwrap(),
        )
        .unwrap();
        assert!(events >= 2, "sink saw {events} events");
        assert!(last % 3 == 0);
    }

    #[test]
    fn daemon_exits_when_object_destroyed() {
        let cluster = Cluster::builder()
            .compute_servers(1)
            .data_servers(1)
            .workstations(0)
            .cost_model(CostModel::zero())
            .build()
            .unwrap();
        cluster.register_class("sensor", Sensor).unwrap();
        let obj = cluster
            .compute(0)
            .create_object("sensor", None, None)
            .unwrap();
        let handle =
            cluster
                .compute(0)
                .start_active_object(obj, "sample", Duration::from_millis(5));
        while handle.ticks() < 2 {
            std::thread::yield_now();
        }
        cluster.compute(0).destroy_object(obj).unwrap();
        // The daemon notices (NoSuchObject or persistent failure) and
        // exits; stop() then simply joins.
        std::thread::sleep(Duration::from_millis(120));
        let before = handle.ticks();
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(handle.ticks(), before, "daemon kept running");
        handle.stop();
    }
}

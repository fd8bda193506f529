//! "No Messages?" (§2.3 box): message passing simulated by a buffer
//! object.
//!
//! "The duality of messages and shared memory is well known. If
//! desired, a buffer object with the send and receive invocations
//! defined on it can serve as a port structure between two (or more)
//! communicating processes."
//!
//! A `port` object implements a bounded FIFO in persistent memory,
//! guarded by two distributed semaphores (slots/items) plus a mutex
//! semaphore — the classic producer/consumer, except the "port" is an
//! ordinary persistent object and the processes are Clouds threads on
//! different machines.
//!
//! Run with: `cargo run --example message_ports`

use clouds::prelude::*;

const CAPACITY: u64 = 8;
// Layout: head(0) tail(8) sem-ids at 64.. ; slots of 256 bytes at 512..
const SLOT: u64 = 256;
const SLOTS_AT: u64 = 512;

struct Port;

impl ObjectCode for Port {
    fn construct(&self, ctx: &mut Invocation<'_>) -> Result<(), CloudsError> {
        let slots = ctx.sem_create(CAPACITY as u32)?; // free slots
        let items = ctx.sem_create(0)?; // filled slots
        let mutex = ctx.sem_create(1)?;
        ctx.persistent().write_value(64, &(slots, items, mutex))?;
        Ok(())
    }

    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        let (slots, items, mutex): (SysName, SysName, SysName) = ctx.persistent().read_value(64)?;
        match entry {
            "send" => {
                let message: Vec<u8> = decode_args(args)?;
                if message.len() as u64 > SLOT - 8 {
                    return Err(CloudsError::Application("message too large".into()));
                }
                if !ctx.sem_p(slots, 30_000)? {
                    return Err(CloudsError::Application("port full".into()));
                }
                ctx.sem_p(mutex, 30_000)?;
                let tail = ctx.persistent().read_u64(8)?;
                let at = SLOTS_AT + (tail % CAPACITY) * SLOT;
                ctx.persistent().write_u64(at, message.len() as u64)?;
                ctx.persistent().write_bytes(at + 8, &message)?;
                ctx.persistent().write_u64(8, tail + 1)?;
                ctx.sem_v(mutex)?;
                ctx.sem_v(items)?;
                encode_result(&())
            }
            "receive" => {
                if !ctx.sem_p(items, 30_000)? {
                    return Err(CloudsError::Application("port empty".into()));
                }
                ctx.sem_p(mutex, 30_000)?;
                let head = ctx.persistent().read_u64(0)?;
                let at = SLOTS_AT + (head % CAPACITY) * SLOT;
                let len = ctx.persistent().read_u64(at)?;
                let message = ctx.persistent().read_bytes(at + 8, len as usize)?;
                ctx.persistent().write_u64(0, head + 1)?;
                ctx.sem_v(mutex)?;
                ctx.sem_v(slots)?;
                encode_result(&message)
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

fn main() -> Result<(), CloudsError> {
    let cluster = Cluster::builder()
        .compute_servers(2)
        .data_servers(1)
        .workstations(0)
        .build()?;
    cluster.register_class("port", Port)?;
    let port = cluster.create_object("port", "Mailbox")?;

    // Producer on compute server 0, consumer on compute server 1:
    // message passing through shared persistent memory.
    let producer_cs = cluster.compute(0).clone();
    let producer = std::thread::spawn(move || -> Result<(), CloudsError> {
        for i in 0..20u32 {
            let message = format!("message #{i}").into_bytes();
            producer_cs.invoke(port, "send", &encode_args(&message)?, None)?;
        }
        Ok(())
    });

    let consumer_cs = cluster.compute(1).clone();
    let consumer = std::thread::spawn(move || -> Result<Vec<String>, CloudsError> {
        let mut received = Vec::new();
        for _ in 0..20 {
            let bytes: Vec<u8> =
                decode_args(&consumer_cs.invoke(port, "receive", &encode_args(&())?, None)?)?;
            received.push(String::from_utf8_lossy(&bytes).to_string());
        }
        Ok(received)
    });

    producer.join().expect("producer thread")?;
    let received = consumer.join().expect("consumer thread")?;
    for (i, message) in received.iter().enumerate() {
        assert_eq!(message, &format!("message #{i}"), "FIFO order");
    }
    println!(
        "passed {} messages node1 -> node2 in FIFO order",
        received.len()
    );
    println!("first: {:?}", received.first().expect("nonempty"));
    println!("last:  {:?}", received.last().expect("nonempty"));
    println!("messages, without messages: a buffer object and semaphores.");
    Ok(())
}

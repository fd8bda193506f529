//! "No Files?" (§2.3 box): files simulated by persistent objects.
//!
//! "Files can be simulated by objects that store byte sequential data
//! and have read and write invocations defined to access this data.
//! Such an object will look like a file, even though the operating
//! system does not explicitly support files."
//!
//! This example builds a `file` class (read/write/append/len) on the
//! persistent heap plus a `directory` class mapping names to file
//! objects — a minimal "file system" in ~100 lines of object code,
//! with no file system anywhere in the OS.
//!
//! Run with: `cargo run --example file_objects`

use clouds::prelude::*;

/// Byte-sequential storage: data[0] = length, bytes at HDR..
struct FileObject;

const HDR: u64 = 8;

impl ObjectCode for FileObject {
    fn data_segment_len(&self) -> u64 {
        64 * 1024
    }

    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "write" => {
                // write(offset, bytes): overwrite/extend at offset.
                let (offset, bytes): (u64, Vec<u8>) = decode_args(args)?;
                ctx.persistent().write_bytes(HDR + offset, &bytes)?;
                let end = offset + bytes.len() as u64;
                if end > ctx.persistent().read_u64(0)? {
                    ctx.persistent().write_u64(0, end)?;
                }
                encode_result(&end)
            }
            "append" => {
                let bytes: Vec<u8> = decode_args(args)?;
                let len = ctx.persistent().read_u64(0)?;
                ctx.persistent().write_bytes(HDR + len, &bytes)?;
                ctx.persistent().write_u64(0, len + bytes.len() as u64)?;
                encode_result(&(len + bytes.len() as u64))
            }
            "read" => {
                let (offset, want): (u64, u64) = decode_args(args)?;
                let len = ctx.persistent().read_u64(0)?;
                let take = want.min(len.saturating_sub(offset));
                let bytes = ctx.persistent().read_bytes(HDR + offset, take as usize)?;
                encode_result(&bytes)
            }
            "len" => encode_result(&ctx.persistent().read_u64(0)?),
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

/// A directory: name → file sysname, stored with `write_value`.
struct Directory;

impl ObjectCode for Directory {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        // The whole table lives at offset 0 as one encoded value — fine
        // for a demo directory.
        let table: Vec<(String, SysName)> = ctx.persistent().read_value(0).unwrap_or_default();
        match entry {
            "create" => {
                let name: String = decode_args(args)?;
                if table.iter().any(|(n, _)| *n == name) {
                    return Err(CloudsError::Application(format!("{name} exists")));
                }
                // Objects creating objects (§3.1).
                let file = ctx.create_object("file", None)?;
                let mut table = table;
                table.push((name, file));
                ctx.persistent().write_value(0, &table)?;
                encode_result(&file)
            }
            "lookup" => {
                let name: String = decode_args(args)?;
                match table.iter().find(|(n, _)| *n == name) {
                    Some((_, file)) => encode_result(file),
                    None => Err(CloudsError::Application(format!("{name} not found"))),
                }
            }
            "ls" => {
                let names: Vec<String> = table.into_iter().map(|(n, _)| n).collect();
                encode_result(&names)
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

fn main() -> Result<(), CloudsError> {
    let cluster = Cluster::builder()
        .compute_servers(2)
        .data_servers(2)
        .workstations(0)
        .build()?;
    cluster.register_class("file", FileObject)?;
    cluster.register_class("directory", Directory)?;

    let cs0 = cluster.compute(0);
    let cs1 = cluster.compute(1);
    let dir = cluster.create_object("directory", "RootDir")?;

    println!("mkdir-less world: creating files inside the directory object");
    let readme: SysName =
        decode_args(&cs0.invoke(dir, "create", &encode_args(&"README".to_string())?, None)?)?;
    cs0.invoke(
        readme,
        "append",
        &encode_args(&b"Clouds has no file system.\n".to_vec())?,
        None,
    )?;
    cs0.invoke(
        readme,
        "append",
        &encode_args(&b"This file is a persistent object.\n".to_vec())?,
        None,
    )?;

    // Another compute server resolves the same file through the
    // directory and reads it via DSM.
    let found: SysName =
        decode_args(&cs1.invoke(dir, "lookup", &encode_args(&"README".to_string())?, None)?)?;
    assert_eq!(found, readme);
    let len: u64 = decode_args(&cs1.invoke(found, "len", &encode_args(&())?, None)?)?;
    let bytes: Vec<u8> =
        decode_args(&cs1.invoke(found, "read", &encode_args(&(0u64, len))?, None)?)?;
    print!("{}", String::from_utf8_lossy(&bytes));

    // Random-access write, like pwrite(2).
    cs1.invoke(
        found,
        "write",
        &encode_args(&(0u64, b"CLOUDS".to_vec()))?,
        None,
    )?;
    let head: Vec<u8> =
        decode_args(&cs0.invoke(found, "read", &encode_args(&(0u64, 6u64))?, None)?)?;
    assert_eq!(&head, b"CLOUDS");

    let names: Vec<String> = decode_args(&cs0.invoke(dir, "ls", &encode_args(&())?, None)?)?;
    println!("ls RootDir -> {names:?}");
    println!("files, without a file system: just persistent objects.");
    Ok(())
}

//! The three object classes the workloads invoke. They are ordinary
//! application code written against `clouds::prelude`: all state lives
//! in the object's persistent segments.

use crate::gen::{page_word, SCAN_PAGES};
use clouds::prelude::*;
use clouds_ra::PAGE_SIZE;

const WORDS_PER_PAGE: u64 = (PAGE_SIZE / 8) as u64;

/// Wrapping sum of every 64-bit word of a page that repeats `word`.
pub fn page_checksum(word: u64) -> u64 {
    word.wrapping_mul(WORDS_PER_PAGE)
}

/// kv session object: one persistent `u64` slot.
pub struct Session;

impl ObjectCode for Session {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "get" => encode_result(&ctx.persistent().read_u64(0)?),
            "put" => {
                let v: u64 = decode_args(args)?;
                ctx.persistent().write_u64(0, v)?;
                encode_result(&v)
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

/// Paging object: a 4 MiB data segment of stamped pages.
pub struct Pages;

impl ObjectCode for Pages {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            // scan(first, count) -> wrapping sum of every word read.
            "scan" => {
                let (first, count): (u32, u32) = decode_args(args)?;
                let mut sum = 0u64;
                for page in first..first + count {
                    let bytes = ctx
                        .persistent()
                        .read_bytes(u64::from(page) * PAGE_SIZE as u64, PAGE_SIZE)?;
                    for w in bytes.chunks_exact(8) {
                        sum = sum.wrapping_add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
                    }
                }
                encode_result(&sum)
            }
            // fill(first, count, stamp): overwrite whole pages.
            "fill" => {
                let (first, count, stamp): (u32, u32, u64) = decode_args(args)?;
                for page in first..first + count {
                    let image = page_word(stamp, page).to_le_bytes().repeat(PAGE_SIZE / 8);
                    ctx.persistent()
                        .write_bytes(u64::from(page) * PAGE_SIZE as u64, &image)?;
                }
                encode_result(&())
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }

    fn data_segment_len(&self) -> u64 {
        u64::from(SCAN_PAGES) * PAGE_SIZE as u64
    }
}

/// Ledger account: balance in the first word.
pub struct Account;

impl ObjectCode for Account {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "open" | "add" => {
                let amount: u64 = decode_args(args)?;
                let balance = ctx.persistent().read_u64(0)? + amount;
                ctx.persistent().write_u64(0, balance)?;
                encode_result(&balance)
            }
            // transfer(to, amount): debit here, credit `to` through a
            // nested invocation on the same thread (and, for a
            // gcp-thread, the same transaction).
            "transfer" => {
                let (to, amount): (SysName, u64) = decode_args(args)?;
                let balance = ctx.persistent().read_u64(0)?;
                if balance < amount {
                    return Err(CloudsError::Application("insufficient funds".into()));
                }
                ctx.persistent().write_u64(0, balance - amount)?;
                ctx.invoke(to, "add", &encode_args(&amount)?)?;
                encode_result(&(balance - amount))
            }
            "balance" => encode_result(&ctx.persistent().read_u64(0)?),
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

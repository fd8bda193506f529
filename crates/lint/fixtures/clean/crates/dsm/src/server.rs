//! Fixture: a DSM server that holds no guard across a blocking call
//! (dirty pages are drained under the lock, sent after releasing it),
//! and whose one `lint:allow` suppresses a live finding, so stale-allow
//! stays quiet too.

pub struct DsmServer {
    ratp: Ratp,
    dirty: parking_lot::Mutex<Vec<u32>>,
    wake_tx: Sender,
}

impl DsmServer {
    /// Drain under the lock, call after releasing it.
    fn flush_dirty(&self) {
        let drained: Vec<u32> = {
            let mut dirty = self.dirty.lock();
            dirty.drain(..).collect()
        };
        for page in drained {
            self.ratp.call(page);
        }
    }

    /// A *used* allow: the send really is under the guard, the
    /// suppression is live, and stale-allow must not fire on it.
    fn nudge(&self) {
        let dirty = self.dirty.lock();
        // lint:allow(lock-across-call) — wake_tx is unbounded; send never blocks.
        self.wake_tx.send(dirty.first());
    }
}

pub struct Ratp;
impl Ratp {
    pub fn call(&self, _page: u32) {}
}

pub struct Sender;
impl Sender {
    pub fn send(&self, _v: Option<&u32>) {}
}

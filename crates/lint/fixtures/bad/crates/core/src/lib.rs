//! Fixture: an AB/BA lock cycle and an unregistered metric.

use parking_lot::Mutex;
use std::collections::HashMap;

pub struct Table {
    accounts: Mutex<HashMap<u64, u64>>,
    audit: Mutex<Vec<u64>>,
}

impl Table {
    pub fn transfer(&self) {
        let accounts = self.accounts.lock();
        let mut audit = self.audit.lock();
        audit.push(accounts.len() as u64);
    }

    pub fn reconcile(&self) {
        let audit = self.audit.lock();
        let mut accounts = self.accounts.lock();
        accounts.insert(0, audit.len() as u64);
    }

    pub fn dump(&self, obs: &Obs) -> usize {
        obs.counter("bogus.metric");
        self.accounts.lock().len()
    }
}

pub struct Obs;

impl Obs {
    pub fn counter(&self, _name: &str) {}
}

//! Fixture: a clean lock hierarchy (always accounts → audit) and a
//! registered metric.

use parking_lot::Mutex;
use std::collections::BTreeMap;

pub struct Table {
    accounts: Mutex<BTreeMap<u64, u64>>,
    audit: Mutex<Vec<u64>>,
}

impl Table {
    pub fn transfer(&self) {
        let accounts = self.accounts.lock();
        let mut audit = self.audit.lock();
        audit.push(accounts.len() as u64);
    }

    pub fn reconcile(&self) {
        let accounts = self.accounts.lock();
        let mut audit = self.audit.lock();
        audit.push(accounts.len() as u64 + 1);
    }

    pub fn dump(&self, obs: &Obs) -> Vec<u64> {
        obs.counter("good.metric");
        self.accounts.lock().keys().copied().collect()
    }
}

pub struct Obs;

impl Obs {
    pub fn counter(&self, _name: &str) {}
}

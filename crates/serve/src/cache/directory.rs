//! The grid cache's directory: which keys are resident, which are
//! spilled, and every replacement decision — pure bookkeeping with no
//! grids, no paths and no clock.
//!
//! Resident entries form a segmented LRU: a new entry lands in
//! *probation*, its first hit promotes it to a *protected* segment of at
//! most `protected` entries (the least recently used protected entry is
//! demoted to make room), and victims come from probation — so a burst
//! of one-shot receptors cannot flush the proven-hot ones. A protected
//! bound of 0 is plain LRU, which every capacity-1 cache therefore is.
//!
//! Evicted keys go to a spill-file table bounded by `spill` files (0 =
//! no spill tier). A key is written once — grid content is immutable per
//! key, so re-evicting a reloaded entry only refreshes its file's age —
//! and every touch hands out a strictly larger age, so "the oldest
//! file" is always well defined. The over-capacity prune never takes
//! the file the same access reloads from.
//!
//! The live [`GridCache`](super::GridCache) consults it under its mutex
//! and performs the I/O it plans; [`CacheModel`](super::policy::CacheModel)
//! drives the same type from a recorded trace.

/// Name of the replacement policy (`/stats`, trace header, replay row).
pub const POLICY_NAME: &str = "slru";

/// Protected-segment bound the live cache uses at `capacity` entries.
pub fn default_protected(capacity: usize) -> usize {
    capacity / 2
}

struct Resident<K> {
    key: K,
    last_use: u64,
    protected: bool,
}

/// Resident entries plus spill-file table of one cache.
pub struct Directory<K> {
    capacity: usize,
    protected: usize,
    spill: usize,
    resident: Vec<Resident<K>>,
    /// `(key, age)` of every spill file.
    files: Vec<(K, u64)>,
    /// Source of `last_use` stamps and file ages.
    clock: u64,
}

/// What admitting a key displaced, and the disk work that follows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Admission<K> {
    /// The admitted key has a spill file: load it instead of building.
    pub reload: bool,
    /// The resident entry displaced to make room.
    pub evicted: Option<K>,
    /// The evicted entry needs its spill file written.
    pub spill: bool,
    /// The spill file beyond the tier's bound: delete it.
    pub pruned: Option<K>,
}

/// Outcome of [`Directory::lookup`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Lookup<K> {
    /// The key is resident (now most recently used, and protected).
    Hit,
    /// The key was admitted; the caller fills it as the plan says.
    Miss(Admission<K>),
}

/// Outcome of [`Directory::peek`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Peek<K> {
    /// A lookup would hit.
    pub resident: bool,
    /// The key has a spill file.
    pub spilled: bool,
    /// The entry a miss would evict (`None` while there is room).
    pub victim: Option<K>,
}

impl<K: Copy + Eq> Directory<K> {
    /// A directory of `capacity >= 1` resident entries, of which at most
    /// `protected` (clamped below `capacity`) are shielded from
    /// eviction, over `spill` spill files.
    pub fn new(capacity: usize, protected: usize, spill: usize) -> Directory<K> {
        assert!(capacity >= 1, "capacity 0 means no cache, not an empty one");
        Directory {
            capacity,
            protected: protected.min(capacity - 1),
            spill,
            resident: Vec::new(),
            files: Vec::new(),
            clock: 0,
        }
    }

    fn stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// One demand access. `spillable` says whether the victim's content
    /// can be written out (an entry still being built cannot).
    pub fn lookup(&mut self, key: K, spillable: impl FnOnce(K) -> bool) -> Lookup<K> {
        let Some(i) = self.resident.iter().position(|e| e.key == key) else {
            return Lookup::Miss(self.admit(key, spillable));
        };
        self.resident[i].last_use = self.stamp();
        if self.protected > 0 && !self.resident[i].protected {
            self.resident[i].protected = true;
            if self.resident.iter().filter(|e| e.protected).count() > self.protected {
                // The entry just promoted carries the newest stamp, so
                // it is never its own demotion victim.
                let shielded = self.resident.iter_mut().filter(|e| e.protected);
                let coldest = shielded.min_by_key(|e| e.last_use);
                coldest.expect("protected >= 1").protected = false;
            }
        }
        Lookup::Hit
    }

    /// Admit a key whose spill file was loaded ahead of demand; `None`
    /// when a demand lookup admitted it meanwhile.
    pub fn admit_prefetched(
        &mut self,
        key: K,
        spillable: impl FnOnce(K) -> bool,
    ) -> Option<Admission<K>> {
        let resident = self.resident.iter().any(|e| e.key == key);
        (!resident).then(|| self.admit(key, spillable))
    }

    /// The least recently used probation entry.
    fn victim(&self) -> Option<K> {
        let probation = self.resident.iter().filter(|e| !e.protected);
        probation.min_by_key(|e| e.last_use).map(|e| e.key)
    }

    fn admit(&mut self, key: K, spillable: impl FnOnce(K) -> bool) -> Admission<K> {
        let mut plan = Admission {
            reload: self.refresh_file(key),
            evicted: None,
            spill: false,
            pruned: None,
        };
        if self.resident.len() >= self.capacity {
            let victim = self.victim().expect("protected < capacity");
            self.resident.retain(|e| e.key != victim);
            plan.evicted = Some(victim);
            if spillable(victim) {
                let keep = plan.reload.then_some(key);
                (plan.spill, plan.pruned) = self.register_file(victim, keep);
            }
        }
        let last_use = self.stamp();
        self.resident.push(Resident {
            key,
            last_use,
            protected: false,
        });
        plan
    }

    /// Give `key`'s spill file the newest age; `false` when it has none.
    /// On its own this is a reload that admits nothing.
    pub fn refresh_file(&mut self, key: K) -> bool {
        let age = self.stamp();
        let file = self.files.iter_mut().find(|f| f.0 == key);
        file.map(|f| f.1 = age).is_some()
    }

    /// Put `key` in the file table as its newest file and bound the
    /// table, never pruning `keep`. Returns whether `key`'s file must be
    /// written — not when it already exists, nor when it is its own
    /// prune victim — and the existing file to delete.
    fn register_file(&mut self, key: K, keep: Option<K>) -> (bool, Option<K>) {
        if self.spill == 0 || self.refresh_file(key) {
            return (false, None);
        }
        let age = self.stamp();
        self.files.push((key, age));
        if self.files.len() <= self.spill {
            return (true, None);
        }
        let prunable = self.files.iter().filter(|f| Some(f.0) != keep);
        let oldest = prunable.min_by_key(|f| f.1).expect("two files, one kept").0;
        self.forget_file(oldest);
        if oldest == key {
            (false, None)
        } else {
            (true, Some(oldest))
        }
    }

    /// `key`'s spill file is on disk — found by the startup rescan, or
    /// just written: make it the newest file. Returns the file the
    /// tier's bound prunes.
    pub fn restore(&mut self, key: K) -> Option<K> {
        self.register_file(key, None).1
    }

    /// `key`'s spill file is gone or unusable: drop it from the table.
    pub fn forget_file(&mut self, key: K) {
        self.files.retain(|f| f.0 != key);
    }

    /// What a lookup of `key` would find, changing nothing.
    pub fn peek(&self, key: K) -> Peek<K> {
        let resident = self.resident.iter().any(|e| e.key == key);
        let full = !resident && self.resident.len() >= self.capacity;
        Peek {
            resident,
            spilled: self.files.iter().any(|f| f.0 == key),
            victim: self.victim().filter(|_| full),
        }
    }

    /// Resident entries and spill files held.
    pub fn sizes(&self) -> (usize, usize) {
        (self.resident.len(), self.files.len())
    }

    /// Spilled keys, oldest file first.
    pub fn spilled(&self) -> Vec<K> {
        let mut files = self.files.clone();
        files.sort_by_key(|f| f.1);
        files.into_iter().map(|f| f.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every victim is spillable, as in a sequential replay.
    fn get(d: &mut Directory<u32>, key: u32) -> Lookup<u32> {
        d.lookup(key, |_| true)
    }

    fn miss(d: &mut Directory<u32>, key: u32) -> Admission<u32> {
        match get(d, key) {
            Lookup::Miss(plan) => plan,
            Lookup::Hit => panic!("{key} must miss"),
        }
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut d = Directory::new(2, 0, 0);
        assert_eq!(miss(&mut d, 1).evicted, None);
        assert_eq!(miss(&mut d, 2).evicted, None);
        assert_eq!(get(&mut d, 1), Lookup::Hit); // 1 hot, 2 cold
        assert_eq!(miss(&mut d, 3).evicted, Some(2));
        assert_eq!(get(&mut d, 1), Lookup::Hit, "the hot entry survives");
        assert_eq!(miss(&mut d, 2).evicted, Some(3), "the cold one is gone");
    }

    #[test]
    fn slru_protects_a_hot_entry_from_a_scan() {
        // A is accessed twice (promoted), then a scan of one-shot keys
        // pours through. With a protected segment the scan churns
        // probation and A survives; without one the same sequence
        // evicts A.
        let run = |protected: usize| {
            let mut d = Directory::new(2, protected, 0);
            get(&mut d, 1);
            get(&mut d, 1);
            for key in 2..=4 {
                get(&mut d, key);
            }
            get(&mut d, 1)
        };
        assert_eq!(run(default_protected(2)), Lookup::Hit);
        assert!(matches!(run(0), Lookup::Miss(_)), "plain lru loses A");
    }

    #[test]
    fn promotion_demotes_to_keep_the_protected_segment_bounded() {
        let mut d = Directory::new(4, 2, 0);
        for key in [1, 2, 3, 4, 1, 2, 3, 4, 2, 1] {
            get(&mut d, key);
            let shielded = d.resident.iter().filter(|e| e.protected).count();
            assert!(shielded <= 2, "{shielded} protected after {key}");
        }
        // 3 and 4 were promoted first and demoted again by 1 and 2: the
        // next miss takes the colder of them.
        assert_eq!(miss(&mut d, 5).evicted, Some(3));
        // An over-large bound is clamped so probation is never empty.
        let mut d = Directory::new(2, 9, 0);
        for key in [1, 1, 2, 2] {
            get(&mut d, key);
        }
        assert_eq!(miss(&mut d, 3).evicted, Some(1));
    }

    #[test]
    fn file_ages_strictly_increase_and_a_key_spills_once() {
        let mut d = Directory::new(1, 0, 4);
        let mut newest = 0;
        let mut check = |d: &Directory<u32>, touched: u32| {
            let age = d
                .files
                .iter()
                .find(|f| f.0 == touched)
                .expect("registered")
                .1;
            assert!(age > newest, "{touched}: age {age} after {newest}");
            newest = age;
        };
        miss(&mut d, 1);
        let plan = miss(&mut d, 2); // registers 1
        assert!(plan.spill && !plan.reload);
        check(&d, 1);
        let plan = miss(&mut d, 1); // reloads 1, registers 2
        assert!(plan.spill && plan.reload);
        check(&d, 2);
        let plan = miss(&mut d, 2); // reloads 2, refreshes 1
        assert!(!plan.spill, "1 is already on disk: no second write");
        check(&d, 1);
        assert!(d.refresh_file(2));
        check(&d, 2);
        assert_eq!(d.restore(3), None);
        check(&d, 3);
        assert!(!d.refresh_file(9), "no file, nothing to refresh");
    }

    #[test]
    fn the_prune_spares_the_file_being_reloaded() {
        // Capacity 1 over a one-file tier, A B A B A: the file A reloads
        // from outlives the access, and B's spill — which that access
        // would write and prune at once — is not written at all.
        let mut d = Directory::new(1, 0, 1);
        let plans: Vec<_> = [1, 2, 1, 2, 1].iter().map(|&k| miss(&mut d, k)).collect();
        let reloads: Vec<bool> = plans.iter().map(|p| p.reload).collect();
        assert_eq!(reloads, [false, false, true, false, true]);
        let spills: Vec<bool> = plans.iter().map(|p| p.spill).collect();
        assert_eq!(spills, [false, true, false, false, false]);
        assert!(plans.iter().all(|p| p.pruned.is_none()));
        assert_eq!(d.spilled(), [1]);
        // Without a reload in play the oldest file goes, as ever.
        let mut d = Directory::new(1, 0, 1);
        miss(&mut d, 1);
        miss(&mut d, 2);
        let plan = miss(&mut d, 3);
        assert!(plan.spill);
        assert_eq!((plan.pruned, d.spilled()), (Some(1), vec![2]));
    }

    #[test]
    fn restore_is_oldest_first_and_bounded() {
        let mut d = Directory::new(1, 0, 2);
        assert_eq!((d.restore(7), d.restore(8)), (None, None));
        assert_eq!(d.restore(9), Some(7), "the oldest restore goes");
        assert_eq!(d.spilled(), [8, 9]);
        assert!(
            miss(&mut d, 8).reload,
            "a restored file serves the first miss"
        );
        d.forget_file(9);
        assert_eq!((d.spilled(), d.sizes()), (vec![8], (1, 1)));
        let mut untiered = Directory::new(1, 0, 0);
        assert_eq!((untiered.restore(1), untiered.spilled()), (None, vec![]));
    }

    #[test]
    fn peek_never_mutates() {
        let mut d = Directory::new(2, 1, 2);
        for key in [1, 2, 1, 3] {
            get(&mut d, key);
        }
        let before = (d.clock, d.spilled(), d.sizes());
        assert_eq!(
            d.peek(1),
            Peek {
                resident: true,
                spilled: false,
                victim: None
            }
        );
        assert_eq!(
            d.peek(2),
            Peek {
                resident: false,
                spilled: true,
                victim: Some(3)
            }
        );
        assert_eq!(
            d.peek(9),
            Peek {
                resident: false,
                spilled: false,
                victim: Some(3)
            }
        );
        assert_eq!(before, (d.clock, d.spilled(), d.sizes()));
        assert_eq!(
            miss(&mut d, 9).evicted,
            Some(3),
            "the peeked victim is the real one"
        );
        let room = Directory::<u32>::new(2, 1, 0);
        assert_eq!(room.peek(1).victim, None, "no victim while there is room");
    }

    #[test]
    fn prefetch_admission_is_a_miss_without_the_lookup() {
        let mut d = Directory::new(1, 0, 2);
        miss(&mut d, 1);
        miss(&mut d, 2); // spills 1
        let plan = d.admit_prefetched(1, |_| true).expect("1 is not resident");
        assert_eq!(
            (plan.reload, plan.evicted, plan.spill),
            (true, Some(2), true)
        );
        assert_eq!(d.admit_prefetched(1, |_| true), None, "already resident");
        assert_eq!(get(&mut d, 1), Lookup::Hit);
        // A victim still being built has nothing to write.
        let plan = d.lookup(3, |_| false);
        assert_eq!(
            plan,
            Lookup::Miss(Admission {
                evicted: Some(1),
                ..Admission::default()
            })
        );
    }
}

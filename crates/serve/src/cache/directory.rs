//! The grid cache's directory: which keys are resident, which are
//! spilled, and every replacement decision — pure bookkeeping with no
//! grids, no paths and no clock.
//!
//! Resident entries form a segmented LRU: a new entry lands in
//! *probation*, its first hit promotes it to a *protected* segment of at
//! most half the capacity (the least recently used protected entry is
//! demoted to make room), and victims come from probation — so a burst
//! of one-shot receptors cannot flush the proven-hot ones. A capacity-1
//! cache protects nothing, so it is plain LRU.
//!
//! Evicted keys go to a spill-file table bounded by `spill` files (0 =
//! no spill tier). A key is written once — grid content is immutable per
//! key, so re-evicting a reloaded entry only refreshes its file's age —
//! and every touch hands out a strictly larger age. Once the tier is
//! full, a key is written only if it is *strictly* more frequent than
//! the coldest file, which is then deleted (ties keep the file; among
//! equally cold files the oldest goes). Frequency is a key's count of
//! demand accesses, every count halved each 64 accesses — TinyLFU's
//! admission test (Einziger et al., ACM ToS 2017) guarding the tier's
//! writes instead of residency. The prune never takes the file the
//! same access reloads from, and a file already on disk (startup
//! rescan, racing spill) is always registered.
//!
//! The live [`GridCache`](super::GridCache) consults it under its mutex
//! and performs the I/O it plans; nothing else drives it.

/// Name of the replacement policy (`/stats` `cache.policy`).
pub const POLICY_NAME: &str = "slru";

/// Demand accesses between two halvings of every access count.
const AGING_PERIOD: u32 = 64;

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
    /// `(key, count)` of every key with a nonzero aged access count.
    counts: Vec<(K, u32)>,
    /// Demand accesses since the counts were last halved.
    since_aging: u32,
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

impl<K: Copy + Eq> Directory<K> {
    /// A directory of `capacity >= 1` resident entries, of which at most
    /// `capacity / 2` are shielded from eviction, over `spill` spill
    /// files.
    pub fn new(capacity: usize, spill: usize) -> Directory<K> {
        assert!(capacity >= 1, "capacity 0 means no cache, not an empty one");
        Directory {
            capacity,
            protected: capacity / 2,
            spill,
            resident: Vec::new(),
            files: Vec::new(),
            counts: Vec::new(),
            since_aging: 0,
            clock: 0,
        }
    }

    fn stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// `key`'s aged access count.
    fn count(&self, key: K) -> u32 {
        self.counts.iter().find(|c| c.0 == key).map_or(0, |c| c.1)
    }

    /// Count one demand access of `key`, halving every count (and
    /// forgetting those that reach 0) every [`AGING_PERIOD`] accesses.
    fn count_access(&mut self, key: K) {
        match self.counts.iter_mut().find(|c| c.0 == key) {
            Some(c) => c.1 += 1,
            None => self.counts.push((key, 1)),
        }
        self.since_aging += 1;
        if self.since_aging == AGING_PERIOD {
            self.since_aging = 0;
            self.counts.iter_mut().for_each(|c| c.1 /= 2);
            self.counts.retain(|c| c.1 > 0);
        }
    }

    /// One demand access. `spillable` says whether the victim's content
    /// can be written out (an entry still being built cannot).
    pub fn lookup(&mut self, key: K, spillable: impl FnOnce(K) -> bool) -> Lookup<K> {
        self.count_access(key);
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
                (plan.spill, plan.pruned) = self.register_file(victim, keep, true);
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
    fn refresh_file(&mut self, key: K) -> bool {
        let age = self.stamp();
        let file = self.files.iter_mut().find(|f| f.0 == key);
        file.map(|f| f.1 = age).is_some()
    }

    /// Put `key` in the file table as its newest file, pruning the
    /// coldest file other than `keep` — the oldest among equally cold
    /// ones — when the tier is full. With `admit`, a full tier takes
    /// `key` only if it is strictly more frequent than that file.
    /// Returns whether `key`'s file must be written — not when it
    /// already exists, nor when it is refused — and the file to delete.
    fn register_file(&mut self, key: K, keep: Option<K>, admit: bool) -> (bool, Option<K>) {
        if self.spill == 0 || self.refresh_file(key) {
            return (false, None);
        }
        let mut pruned = None;
        if self.files.len() >= self.spill {
            let prunable = self.files.iter().filter(|f| Some(f.0) != keep);
            let coldest = prunable.min_by_key(|f| (self.count(f.0), f.1)).map(|f| f.0);
            match coldest {
                Some(cold) if !admit || self.count(key) > self.count(cold) => {
                    self.forget_file(cold);
                    pruned = Some(cold);
                }
                _ => return (false, None),
            }
        }
        let age = self.stamp();
        self.files.push((key, age));
        (true, pruned)
    }

    /// `key`'s spill file is on disk — found by the startup rescan, or
    /// just written: make it the newest file, however cold. Returns the
    /// file the tier's bound prunes in its place.
    pub fn restore(&mut self, key: K) -> Option<K> {
        self.register_file(key, None, false).1
    }

    /// `key`'s spill file is gone or unusable: drop it from the table.
    pub fn forget_file(&mut self, key: K) {
        self.files.retain(|f| f.0 != key);
    }

    /// Resident entries and spill files held.
    pub fn sizes(&self) -> (usize, usize) {
        (self.resident.len(), self.files.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every victim is spillable, as when lookups run one at a time.
    fn get(d: &mut Directory<u32>, key: u32) -> Lookup<u32> {
        d.lookup(key, |_| true)
    }

    /// Spilled keys, oldest file first.
    fn spilled(d: &Directory<u32>) -> Vec<u32> {
        let mut files = d.files.clone();
        files.sort_by_key(|f| f.1);
        files.into_iter().map(|f| f.0).collect()
    }

    fn miss(d: &mut Directory<u32>, key: u32) -> Admission<u32> {
        match get(d, key) {
            Lookup::Miss(plan) => plan,
            Lookup::Hit => panic!("{key} must miss"),
        }
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut d = Directory::new(2, 0);
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
        // pours through. At capacity 2 the protected segment holds A and
        // the scan churns probation; at capacity 1 (plain LRU) the same
        // sequence evicts A.
        let run = |capacity: usize| {
            let mut d = Directory::new(capacity, 0);
            get(&mut d, 1);
            get(&mut d, 1);
            for key in 2..=4 {
                get(&mut d, key);
            }
            get(&mut d, 1)
        };
        assert_eq!(run(2), Lookup::Hit);
        assert!(matches!(run(1), Lookup::Miss(_)), "plain lru loses A");
    }

    #[test]
    fn promotion_demotes_to_keep_the_protected_segment_bounded() {
        let mut d = Directory::new(4, 0);
        for key in [1, 2, 3, 4, 1, 2, 3, 4, 2, 1] {
            get(&mut d, key);
            let shielded = d.resident.iter().filter(|e| e.protected).count();
            assert!(shielded <= 2, "{shielded} protected after {key}");
        }
        // 3 and 4 were promoted first and demoted again by 1 and 2: the
        // next miss takes the colder of them.
        assert_eq!(miss(&mut d, 5).evicted, Some(3));
        // At capacity 2 one entry is protected, so probation is never
        // empty.
        let mut d = Directory::new(2, 0);
        for key in [1, 1, 2, 2] {
            get(&mut d, key);
        }
        assert_eq!(miss(&mut d, 3).evicted, Some(1));
    }

    #[test]
    fn file_ages_strictly_increase_and_a_key_spills_once() {
        let mut d = Directory::new(1, 4);
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
        let mut d = Directory::new(1, 1);
        let plans: Vec<_> = [1, 2, 1, 2, 1].iter().map(|&k| miss(&mut d, k)).collect();
        let reloads: Vec<bool> = plans.iter().map(|p| p.reload).collect();
        assert_eq!(reloads, [false, false, true, false, true]);
        let spills: Vec<bool> = plans.iter().map(|p| p.spill).collect();
        assert_eq!(spills, [false, true, false, false, false]);
        assert!(plans.iter().all(|p| p.pruned.is_none()));
        assert_eq!(spilled(&d), [1]);
        // Without a reload in play, a more frequent victim displaces the
        // file.
        let mut d = Directory::new(1, 1);
        miss(&mut d, 1);
        miss(&mut d, 2);
        assert_eq!(get(&mut d, 2), Lookup::Hit);
        let plan = miss(&mut d, 3);
        assert!(plan.spill);
        assert_eq!((plan.pruned, spilled(&d)), (Some(1), vec![2]));
    }

    #[test]
    fn restore_is_oldest_first_and_bounded() {
        let mut d = Directory::new(1, 2);
        assert_eq!((d.restore(7), d.restore(8)), (None, None));
        assert_eq!(d.restore(9), Some(7), "the oldest restore goes");
        assert_eq!(spilled(&d), [8, 9]);
        assert!(
            miss(&mut d, 8).reload,
            "a restored file serves the first miss"
        );
        d.forget_file(9);
        assert_eq!((spilled(&d), d.sizes()), (vec![8], (1, 1)));
        let mut untiered = Directory::new(1, 0);
        assert_eq!((untiered.restore(1), spilled(&untiered)), (None, vec![]));
    }

    #[test]
    fn a_scan_of_one_shot_keys_never_displaces_a_more_frequent_file() {
        let mut d = Directory::new(1, 1);
        for _ in 0..3 {
            get(&mut d, 1);
        }
        assert!(miss(&mut d, 2).spill, "the empty tier takes 1's file");
        for key in 3..40 {
            let plan = miss(&mut d, key);
            assert_eq!((plan.spill, plan.pruned), (false, None), "scan key {key}");
        }
        assert_eq!(spilled(&d), [1]);
        assert!(miss(&mut d, 1).reload, "the frequent key still reloads");
    }

    #[test]
    fn a_round_robin_beyond_both_tiers_writes_nothing_once_they_are_full() {
        // Six keys through two resident slots and two files: every
        // access misses. The first two files stay and serve their keys'
        // misses; no other eviction is written.
        let mut d = Directory::new(2, 2);
        let mut pass = || {
            let plans: Vec<_> = (0..6).map(|key| miss(&mut d, key)).collect();
            let spills = plans.iter().filter(|p| p.spill).count();
            let reloads = plans.iter().filter(|p| p.reload).count();
            (spills, reloads)
        };
        assert_eq!(pass(), (2, 0));
        // Until the counts are first halved, at access 64.
        for _ in 0..9 {
            assert_eq!(pass(), (0, 2));
        }
        // Halving rounds down, so now and then a key overtakes a file:
        // at most one write per halving, against one per access.
        let writes: usize = (0..200).map(|_| pass().0).sum();
        assert!(writes <= 1200 / AGING_PERIOD as usize, "{writes} writes");
        assert_eq!(spilled(&d).len(), 2);
    }

    #[test]
    fn equally_cold_files_give_way_oldest_first() {
        let mut d = Directory::new(1, 2);
        for key in [1, 2, 3, 3] {
            get(&mut d, key);
        }
        assert_eq!(spilled(&d), [1, 2], "1 and 2 were each seen once");
        let plan = miss(&mut d, 4);
        assert!(plan.spill, "3 was seen twice");
        assert_eq!((plan.pruned, spilled(&d)), (Some(1), vec![2, 3]));
    }

    #[test]
    fn restore_registers_even_a_cold_key_within_the_bound() {
        let mut d = Directory::new(1, 2);
        for key in [1, 1, 1, 2, 2, 2, 3] {
            get(&mut d, key);
        }
        assert_eq!(spilled(&d), [1, 2]);
        assert_eq!(d.restore(9), Some(1), "9 was never seen, yet it stays");
        assert_eq!(spilled(&d), [2, 9]);
        assert_eq!(d.restore(9), None, "a registered file is only refreshed");
        for key in 10..20 {
            d.restore(key);
            assert!(spilled(&d).len() <= 2);
            assert_eq!(spilled(&d).last(), Some(&key));
        }
    }

    #[test]
    fn the_count_table_stays_bounded_under_distinct_keys() {
        let mut d = Directory::new(2, 2);
        for key in 0..10_000 {
            get(&mut d, key);
            assert!(d.counts.len() <= AGING_PERIOD as usize, "after {key}");
        }
    }

    #[test]
    fn a_victim_still_being_built_has_nothing_to_write() {
        let mut d = Directory::new(1, 2);
        miss(&mut d, 1);
        let plan = d.lookup(2, |_| false);
        assert_eq!(
            plan,
            Lookup::Miss(Admission {
                evicted: Some(1),
                ..Admission::default()
            })
        );
        assert_eq!(spilled(&d), Vec::<u32>::new());
    }
}

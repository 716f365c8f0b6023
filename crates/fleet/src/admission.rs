//! Admission control: an aggregate compute budget over the admitted
//! session set, with graceful degradation by priority.
//!
//! The fleet serves real-time sessions, so oversubscription is worse
//! than refusal: an over-budget fleet misses every patient's deadlines
//! instead of one patient's admission. The controller therefore tracks
//! each admitted session's compute cost (electrode-windows per step,
//! see `SessionSpec::cost_estimate`, fixed at admission) against a
//! fixed budget.
//! A submission that does not fit may *shed* strictly lower-priority
//! admitted sessions — lowest priority first, newest first within a
//! priority — mirroring the membership layer's eviction idiom one level
//! up: a deterministic, logged state machine that degrades the fleet to
//! the highest-priority load it can serve.
//!
//! With `scalo-swap` the controller reasons about **two tiers**: the
//! compute budget covers only the *resident* sessions (the ones holding
//! DRAM state and eligible to step), while a separate
//! [`AdmissionConfig::admitted_capacity`] bounds the *total* admitted
//! set — resident plus swapped-to-NVM. A swapped session burns no
//! compute, so it costs admission capacity but no budget; faulting it
//! back in ([`AdmissionController::make_resident`]) is what must fit
//! the budget again.

use std::collections::BTreeMap;

/// Admission-controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Aggregate compute budget over the *resident* session set, in
    /// session cost units.
    pub budget: f64,
    /// Maximum total admitted sessions, resident **plus** swapped
    /// (`usize::MAX` = unbounded, the classic all-resident fleet).
    pub admitted_capacity: usize,
}

impl Default for AdmissionConfig {
    /// Room for sixteen of the default small sessions (cost 8 each),
    /// with no separate cap on the admitted set.
    fn default() -> Self {
        Self {
            budget: 128.0,
            admitted_capacity: usize::MAX,
        }
    }
}

/// One admission-control transition, for post-run analysis (the fleet
/// analogue of the membership log).
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionEvent {
    /// The session fit (possibly after shedding) and was admitted.
    Admitted {
        /// Admitted session.
        id: u64,
        /// Its cost at admission.
        cost: f64,
    },
    /// The session did not fit even after shedding every strictly
    /// lower-priority session.
    Rejected {
        /// Refused session.
        id: u64,
        /// Its cost.
        cost: f64,
        /// Budget headroom at the time, after hypothetical shedding.
        headroom: f64,
    },
    /// An admitted session was evicted to make room for `for_id`.
    Shed {
        /// Evicted session.
        id: u64,
        /// The higher-priority session it made room for.
        for_id: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    priority: u8,
    cost: f64,
    /// Whether the session holds DRAM state (charged against the
    /// budget) or sits swapped on NVM (charged against capacity only).
    resident: bool,
}

/// The outcome of one [`AdmissionController::offer`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionDecision {
    /// Whether the offered session was admitted.
    pub admitted: bool,
    /// Sessions shed to make room, in eviction order.
    pub shed: Vec<u64>,
}

/// Budget-tracking admission controller for one fleet.
#[derive(Debug, Default)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    admitted: BTreeMap<u64, Entry>,
    log: Vec<AdmissionEvent>,
}

impl AdmissionController {
    /// A controller over the given budget.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self {
            cfg,
            admitted: BTreeMap::new(),
            log: Vec::new(),
        }
    }

    /// Aggregate cost of the **resident** admitted set (swapped
    /// sessions burn no compute).
    pub fn used(&self) -> f64 {
        self.admitted
            .values()
            .filter(|e| e.resident)
            .map(|e| e.cost)
            .sum()
    }

    /// Remaining budget.
    pub fn headroom(&self) -> f64 {
        self.cfg.budget - self.used()
    }

    /// Ids of the admitted sessions, ascending.
    pub fn admitted_ids(&self) -> Vec<u64> {
        self.admitted.keys().copied().collect()
    }

    /// Whether `id` is currently admitted.
    pub fn is_admitted(&self, id: u64) -> bool {
        self.admitted.contains_key(&id)
    }

    /// Total admitted sessions (resident + swapped).
    pub fn admitted_count(&self) -> usize {
        self.admitted.len()
    }

    /// Admitted sessions currently resident.
    pub fn resident_count(&self) -> usize {
        self.admitted.values().filter(|e| e.resident).count()
    }

    /// Admitted sessions currently swapped out.
    pub fn swapped_count(&self) -> usize {
        self.admitted.len() - self.resident_count()
    }

    /// Whether `id` is admitted *and* resident.
    pub fn is_resident(&self, id: u64) -> bool {
        self.admitted.get(&id).is_some_and(|e| e.resident)
    }

    /// Remaining admitted-set capacity (resident + swapped).
    pub fn capacity_headroom(&self) -> usize {
        self.cfg
            .admitted_capacity
            .saturating_sub(self.admitted.len())
    }

    /// Every admission transition so far.
    pub fn log(&self) -> &[AdmissionEvent] {
        &self.log
    }

    /// Offers a session. Admits it if it fits the remaining budget,
    /// shedding strictly lower-priority sessions (lowest priority
    /// first; newest — highest id — first within a priority) when
    /// necessary; rejects it, shedding nothing, if even that cannot
    /// make room.
    pub fn offer(&mut self, id: u64, priority: u8, cost: f64) -> AdmissionDecision {
        assert!(
            !self.admitted.contains_key(&id),
            "session id {id} already admitted"
        );
        // Plan the eviction sequence without touching state: strictly
        // lower priority *resident* sessions only (equal priority never
        // displaces — first come, first served; swapped sessions hold
        // no budget, so shedding them frees nothing), worst candidates
        // first.
        let mut candidates: Vec<(u64, Entry)> = self
            .admitted
            .iter()
            .filter(|(_, e)| e.priority < priority && e.resident)
            .map(|(&i, &e)| (i, e))
            .collect();
        candidates.sort_by(|a, b| (a.1.priority, b.0).cmp(&(b.1.priority, a.0)));

        let mut headroom = self.headroom();
        let mut to_shed = Vec::new();
        for (victim, entry) in candidates {
            if headroom >= cost {
                break;
            }
            headroom += entry.cost;
            to_shed.push(victim);
        }
        let over_capacity = self.admitted.len() - to_shed.len() >= self.cfg.admitted_capacity;
        if headroom < cost || over_capacity {
            self.log
                .push(AdmissionEvent::Rejected { id, cost, headroom });
            return AdmissionDecision {
                admitted: false,
                shed: Vec::new(),
            };
        }
        for &victim in &to_shed {
            self.admitted.remove(&victim);
            self.log.push(AdmissionEvent::Shed {
                id: victim,
                for_id: id,
            });
        }
        self.admitted.insert(
            id,
            Entry {
                priority,
                cost,
                resident: true,
            },
        );
        self.log.push(AdmissionEvent::Admitted { id, cost });
        AdmissionDecision {
            admitted: true,
            shed: to_shed,
        }
    }

    /// Admits a session directly into the **swapped** tier (the
    /// `scalo-swap` cold-admit path: the session exists only as a spec
    /// until its first arrival, so it needs admitted-set capacity but
    /// no compute budget). Returns `false`, admitting nothing, when the
    /// admitted set is at capacity. Never sheds.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already admitted.
    pub fn offer_swapped(&mut self, id: u64, priority: u8, cost: f64) -> bool {
        assert!(
            !self.admitted.contains_key(&id),
            "session id {id} already admitted"
        );
        if self.admitted.len() >= self.cfg.admitted_capacity {
            self.log.push(AdmissionEvent::Rejected {
                id,
                cost,
                headroom: self.headroom(),
            });
            return false;
        }
        self.admitted.insert(
            id,
            Entry {
                priority,
                cost,
                resident: false,
            },
        );
        self.log.push(AdmissionEvent::Admitted { id, cost });
        true
    }

    /// Moves a swapped session into the resident tier (fault-in),
    /// charging its cost against the budget. Returns `false` — leaving
    /// the session swapped — when the budget cannot take it; the caller
    /// (the swap manager) is expected to evict first. Never sheds. A
    /// no-op `true` when the session is already resident.
    pub fn make_resident(&mut self, id: u64) -> bool {
        let Some(&Entry { cost, resident, .. }) = self.admitted.get(&id) else {
            return false;
        };
        if resident {
            return true;
        }
        if self.headroom() < cost {
            return false;
        }
        self.admitted.get_mut(&id).expect("checked above").resident = true;
        true
    }

    /// Moves a resident session into the swapped tier (eviction),
    /// returning its cost to the budget. A no-op when the session is
    /// unknown or already swapped.
    pub fn make_swapped(&mut self, id: u64) {
        if let Some(e) = self.admitted.get_mut(&id) {
            e.resident = false;
        }
    }

    /// Releases a finished (or externally cancelled) session's budget.
    pub fn release(&mut self, id: u64) {
        self.admitted.remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(budget: f64) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            budget,
            ..AdmissionConfig::default()
        })
    }

    #[test]
    fn admits_until_budget_then_rejects_equal_priority() {
        let mut ac = controller(10.0);
        assert!(ac.offer(1, 1, 4.0).admitted);
        assert!(ac.offer(2, 1, 4.0).admitted);
        let d = ac.offer(3, 1, 4.0);
        assert!(!d.admitted);
        assert!(d.shed.is_empty(), "equal priority never sheds");
        assert_eq!(ac.admitted_ids(), vec![1, 2]);
        assert!(matches!(
            ac.log().last(),
            Some(AdmissionEvent::Rejected { id: 3, .. })
        ));
    }

    #[test]
    fn sheds_lowest_priority_newest_first() {
        let mut ac = controller(12.0);
        assert!(ac.offer(1, 1, 4.0).admitted);
        assert!(ac.offer(2, 2, 4.0).admitted);
        assert!(ac.offer(3, 1, 4.0).admitted);
        // Needs 8: must shed both priority-1 sessions, newest (3) first.
        let d = ac.offer(4, 5, 8.0);
        assert!(d.admitted);
        assert_eq!(d.shed, vec![3, 1]);
        assert_eq!(ac.admitted_ids(), vec![2, 4]);
    }

    #[test]
    fn rejection_sheds_nothing() {
        let mut ac = controller(8.0);
        assert!(ac.offer(1, 1, 4.0).admitted);
        assert!(ac.offer(2, 2, 4.0).admitted);
        // Even shedding session 1 leaves only 4 headroom < 20.
        let d = ac.offer(3, 9, 20.0);
        assert!(!d.admitted);
        assert!(d.shed.is_empty());
        assert_eq!(ac.admitted_ids(), vec![1, 2], "no collateral eviction");
    }

    #[test]
    fn swapped_tier_costs_capacity_not_budget() {
        let mut ac = AdmissionController::new(AdmissionConfig {
            budget: 8.0,
            admitted_capacity: 3,
        });
        assert!(ac.offer(1, 1, 8.0).admitted);
        // Budget is full, but the swapped tier still has capacity.
        assert!(ac.offer_swapped(2, 1, 8.0));
        assert!(ac.offer_swapped(3, 1, 8.0));
        assert_eq!((ac.resident_count(), ac.swapped_count()), (1, 2));
        assert!((ac.used() - 8.0).abs() < 1e-12, "swapped burn no budget");
        // Capacity exhausted: both admit paths refuse.
        assert!(!ac.offer_swapped(4, 1, 8.0));
        assert!(!ac.offer(5, 1, 0.0).admitted);
        assert_eq!(ac.capacity_headroom(), 0);
        assert!(matches!(
            ac.log().last(),
            Some(AdmissionEvent::Rejected { id: 5, .. })
        ));
    }

    #[test]
    fn residency_flips_charge_and_release_budget() {
        let mut ac = AdmissionController::new(AdmissionConfig {
            budget: 8.0,
            admitted_capacity: 8,
        });
        assert!(ac.offer(1, 1, 8.0).admitted);
        assert!(ac.offer_swapped(2, 1, 8.0));
        assert!(!ac.make_resident(2), "budget full: stays swapped");
        assert!(!ac.is_resident(2));
        ac.make_swapped(1);
        assert_eq!(ac.used(), 0.0);
        assert!(ac.make_resident(2), "eviction freed the budget");
        assert!(ac.is_resident(2));
        assert!(ac.make_resident(2), "already resident is a no-op true");
        // A swapped session is never a shedding candidate: the shed
        // plan reaches for resident session 2, not swapped session 1.
        let d = ac.offer(3, 9, 8.0);
        assert!(d.admitted);
        assert_eq!(d.shed, vec![2]);
        assert!(ac.is_admitted(1), "swapped session untouched by shed");
    }

    #[test]
    fn release_frees_budget() {
        let mut ac = controller(8.0);
        assert!(ac.offer(1, 1, 8.0).admitted);
        assert!(!ac.offer(2, 1, 8.0).admitted);
        ac.release(1);
        assert!(ac.offer(2, 1, 8.0).admitted);
    }
}
